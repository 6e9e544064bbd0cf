"""Isomorph-free censuses of zero forcing quantities over small graphs.

Graph classes are generated by canonical augmentation (McKay's method, as
in nauty's geng): each (n-1)-vertex class is extended by a new vertex over
one neighborhood from each orbit of its automorphism group, and a child is
kept only when the new vertex lies in the orbit of the vertex a canonical
rule would delete from it, so each class comes from one parent once, with
no set of every class seen so far.  Each parent is labelled once, for its
automorphism group.  The rule's vertex keys come from the parent's
degrees, without building the child.  A child is labelled only when the
new vertex ties for that rule with a vertex that is not its twin, and
shares its cell of the refined degree partition with another vertex; a
tie of twins alone keeps the child, and the cell decides the other ties.
Canonical forms come from a nauty-style search: equitable refinement of
the degree partition, split only by the cells the previous pass created,
then individualization of the first cell of more than one vertex,
depth-first, with subtrees skipped when an automorphism found on the way
maps them onto ground already searched.  The key is the least packed
adjacency string of graph6_io (`_pack_bits`) over the leaves of the whole
tree, so the canonical form of a graph is the graph6 record of that
minimum; the automorphisms found generate the group, which only
generation asks for.

A census walks the connected classes per vertex count up to BUILTIN_MAX
(10, where the last class with failed number 4 appears), computes the exact
failed zero forcing number F of each, tallies it per (value, n) cell, and
checks every graph against the proven bounds and the open n <= k + 4
conjecture.  The exact zero forcing number Z is computed only where a
tally or a check reads it: for 1 <= F <= k_max, for n > F + 4, and where
F's own witness plus one vertex does not certify Z <= F + 1.  Since a
child is kept or dropped by its own parent alone, the subtree under each
class is independent of the others, so the census is split at level
max(1, max_n - 2): the calling process generates only the levels up to
it, and each task tallies a slice of that level, with its children and
grandchildren generated in the task, into a table; the lower levels go
out as slices that are only evaluated, and the tables are merged.  The
census prints canonical graph6 records, so its document does not depend
on how a class was labelled or which task found it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from collections import Counter
from functools import lru_cache
from typing import Any, Iterable, Iterator, NamedTuple

from .exact import ExactResult, _zero_forcing_value, failed_zero_forcing_number
from .forcing import _derived
from .graph6_io import _graph6_of_bits, _pack_bits
from .graph_core import Graph, is_connected

BUILTIN_MAX = 10
# Classes per census task.  On a 2-core machine, a slice of 4 n = 6
# classes, with its children and grandchildren, takes 10 ms of generation
# and evaluation on average and 35 ms at most (4 n = 7 classes down to
# n = 9: 34 ms and 0.34 s), against about 0.06 ms of pool traffic per
# task, and the n <= 8 census still splits n = 6 into 39 tasks, so no
# worker idles long at the end.
SLICE = 4


# ---------------------------------------------------------------------------
# Canonical forms.


def _refine(adj: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """Split cells by their neighbor counts into the splitters until stable.

    The result is that of full passes (split every cell by each vertex's
    tuple of counts against every cell, pieces in ascending tuple order,
    until no cell splits; tests/naive.py keeps that reference), provided
    every cell of cells has uniform counts against every cell but the
    splitters.  After a pass, each cell has uniform counts against every
    cell the pass started from, so the next pass need only split by the
    pieces the pass created, and of the pieces of one cell the last adds
    nothing: the counts against all of them sum to a uniform count.  A
    cell split by one splitter at a time, smaller count first, puts its
    pieces in the lexicographic order of the count tuples.  The counts
    against a splitter are kept as bit planes, most significant first, so
    each plane splits a piece with two bit operations (outside it first),
    and a singleton splitter {s} has the one plane adj[s].
    """
    while splitters:
        planes: list[int] = []
        for s in splitters:
            if not s & (s - 1):
                planes.append(adj[s.bit_length() - 1])
                continue
            counts: list[int] = []  # counts[i]: the vertices whose count has bit i
            while s:
                bit = s & -s
                s ^= bit
                carry = adj[bit.bit_length() - 1]
                for i, plane in enumerate(counts):
                    counts[i] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
                else:
                    counts.append(carry)
            planes.extend(reversed(counts))
        out: list[int] = []
        fresh: list[int] = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            pieces = [cell]
            for plane in planes:
                inside = cell & plane
                if not inside or inside == cell:
                    continue
                split: list[int] = []
                for p in pieces:
                    inside = p & plane
                    if inside and inside != p:
                        split.append(p ^ inside)
                        split.append(inside)
                    else:
                        split.append(p)
                pieces = split
            out.extend(pieces)
            if len(pieces) > 1:
                fresh.extend(pieces[:-1])
        cells = out
        splitters = fresh
    return cells


def _root(n: int, adj: tuple[int, ...]) -> list[int]:
    """The root of the search tree: the degree partition, in ascending
    degree, refined.  Every cell holds vertices of one degree and one
    multiset of neighbor degrees, since the first pass splits by those."""
    by_degree: dict[int, int] = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [by_degree[d] for d in sorted(by_degree)]
    return _refine(adj, cells, cells[:-1])


def _homogeneous(adj: tuple[int, ...], cells: list[int]) -> bool:
    """Is every cell pair all-or-nothing adjacent (and each cell a clique
    or independent set)?  Then any cell-respecting order gives one string."""
    for i, ci in enumerate(cells):
        row = adj[(ci & -ci).bit_length() - 1]
        inner = (row & ci).bit_count()
        if inner and inner != ci.bit_count() - 1:
            return False
        for cj in cells[i + 1:]:
            cross = (row & cj).bit_count()
            if cross and cross != cj.bit_count():
                return False
    return True


def _cells_order(cells: list[int]) -> list[int]:
    order = []
    for cell in cells:
        while cell:
            bit = cell & -cell
            cell ^= bit
            order.append(bit.bit_length() - 1)
    return order


def _canon_bits(n: int, adj: tuple[int, ...],
                root: list[int] | None = None) -> tuple[int, list[int], list[list[int]]]:
    """The canonical key (least packed adjacency string over the leaves of
    the refinement search tree; equal iff isomorphic), the vertex order of
    the first leaf that reaches it, and automorphism group generators, each
    the list of 1 << (the image of u) over the vertices u, which maps a
    vertex subset's bit mask bit by bit.  root, if given, is _root(n, adj).

    A node of the tree is an equitable ordered partition.  It is a leaf
    when discrete, or homogeneous with some cell of more than one vertex
    (then every cell-respecting order gives one string; the order inside a
    cell is ascending).  Otherwise each vertex of its first cell of more
    than one vertex, in ascending order, gives a child: that vertex
    individualized in front of the rest of its cell, refined.  The tree is
    isomorphism-invariant: an automorphism that fixes a node's
    individualized vertices maps the subtree of one child onto that of
    another, leaf strings included.  The search is depth-first and skips
    only subtrees that an automorphism found so far maps onto ground
    searched before them, so the least string, and the first leaf that
    reaches it, are those of the whole tree (B. D. McKay and A. Piperno,
    "Practical graph isomorphism, II", J. Symbolic Comput. 60, 2014).
    - Orbit pruning.  A child is skipped when the automorphisms found so
      far that fix its node's individualized vertices map it onto a
      smaller vertex of the cell, a child already searched.
    - Back-jumps.  A leaf L with the string of the first leaf or of the
      best leaf B so far gives the automorphism that maps B's vertex order
      onto L's.  An individualized vertex stays in place as a singleton,
      so the automorphism maps the vertex individualized at each level of
      B's path to the one at the same level of L's path, and so maps one
      path onto the other level by level.  Below their common ancestor,
      each node of L's path is then the image of the node of B's path at
      its level, whose subtree was searched before L's, so the search
      returns to the common ancestor.
    The automorphisms found generate the group.  At a homogeneous first
    leaf, every permutation inside its cells is an automorphism that fixes
    the individualized vertices, and the swaps of neighbors in a cell
    generate them.  Going up the first path, take a node and a child x
    that some automorphism fixing the node's individualized vertices maps
    the first child onto, and suppose that the found automorphisms fixing
    them join every such child before x to the first child.  If x was
    skipped, they join it to a child before it.  Otherwise x's subtree
    holds an image of the first leaf.  A leaf skipped there is the image,
    under found automorphisms, of one reached before it in that subtree,
    so the search either reaches a leaf with the first leaf's string,
    whose automorphism maps the first child onto x, or leaves the subtree
    earlier from a leaf with the string of a best leaf under an earlier
    child, whose automorphism maps that child onto x.  With the stabilizer
    one level down, these generate the node's stabilizer, and at the root
    the group.
    """
    if root is None:
        root = _root(n, adj)
    generators: list[list[int]] = []
    leaves: list[tuple[int, list[int], list[int]]] = []  # the first leaf, then the best

    def leaf(cells: list[int], path: list[int]) -> int:
        """Compare a leaf with the first and the best; return the depth to
        resume at."""
        order = _cells_order(cells)
        bits = _pack_bits(adj, order)
        if not leaves:
            leaves.extend([(bits, order, path)] * 2)
            for cell in cells:
                if not cell & (cell - 1):
                    continue
                members = _cells_order([cell])
                for u, w in zip(members, members[1:]):
                    bit_map = [1 << x for x in range(n)]
                    bit_map[u], bit_map[w] = bit_map[w], bit_map[u]
                    generators.append(bit_map)
        else:
            for bits0, order0, path0 in leaves:
                if bits == bits0:
                    bit_map = [0] * n
                    for u, w in zip(order0, order):
                        bit_map[u] = 1 << w
                    generators.append(bit_map)
                    # the paths have one length and part at the common ancestor
                    k = 0
                    while path0[k] == path[k]:
                        k += 1
                    return k
            if bits < leaves[1][0]:
                leaves[1] = (bits, order, path)
        return len(path)

    def search(cells: list[int], path: list[int]) -> int:
        """Search a node's subtree; return the depth to resume at."""
        target = next((i for i, cell in enumerate(cells) if cell & (cell - 1)), -1)
        if target == -1 or _homogeneous(adj, cells):
            return leaf(cells, path)
        depth = len(path)
        cell = cells[target]
        group: list[list[int]] = []  # the automorphisms found that fix path
        known = 0
        rem = cell
        while rem:
            bit = rem & -rem
            rem ^= bit
            if len(generators) > known:
                group += [bit_map for bit_map in generators[known:]
                          if all(bit_map[x] == 1 << x for x in path)]
                known = len(generators)
            if group and min(_subset_orbit(bit, group)) < bit:
                continue
            resume = search(_refine(adj, cells[:target] + [bit, cell ^ bit] + cells[target + 1:], [bit]),
                            path + [bit.bit_length() - 1])
            if resume < depth:
                return resume
        return depth

    search(root, [])
    bits, order, _ = leaves[1]
    return bits, order, generators


def canonical_form(g: Graph) -> str:
    """The graph6 record of the canonical labeling: equal records iff
    isomorphic graphs."""
    return _graph6_of_bits(g.n, _canon_bits(g.n, g.adj)[0])


# ---------------------------------------------------------------------------
# Isomorph-free generation.


def _extended_adj(parent_adj: tuple[int, ...], neighborhood: int, n: int) -> tuple[int, ...]:
    top = 1 << (n - 1)
    adj = list(parent_adj) + [neighborhood]
    rem = neighborhood
    while rem:
        bit = rem & -rem
        rem ^= bit
        adj[bit.bit_length() - 1] |= top
    return tuple(adj)


def _subset_orbit(subset: int, bit_maps: list[list[int]]) -> set[int]:
    """The orbit of a vertex subset's bit mask under the group that the
    vertex permutations generate, each given in the form of _canon_bits."""
    orbit = {subset}
    stack = [subset]
    while stack:
        s = stack.pop()
        for bit_map in bit_maps:
            t = 0
            rem = s
            while rem:
                bit = rem & -rem
                rem ^= bit
                t |= bit_map[bit.bit_length() - 1]
            if t not in orbit:
                orbit.add(t)
                stack.append(t)
    return orbit


def _novel_extensions(parents: Iterable[Graph], n: int) -> Iterator[Graph]:
    """One graph per class on n vertices, from every parent class on n - 1
    vertices, by canonical augmentation (B. D. McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998).

    A vertex's key is its degree, then the histogram of its neighbors'
    degrees, packed 4 bits per degree into one int (a count is at most
    n - 1, below 16 up to BUILTIN_MAX), which two vertices share exactly
    when they share the sorted list of their neighbors' degrees.  In a
    graph C, let w* be the first vertex with the largest key in C's
    canonical order, and m(C) the Aut(C)-orbit of w*; an isomorphism from C
    to C' maps m(C) onto m(C').  A child C = P + v over a neighborhood N of
    the parent P is kept only when N is the smallest member of its
    Aut(P)-orbit and v lies in m(C).
    - Every class is reached.  Take C in it and w* in m(C): C - w* is
      isomorphic to some parent P, and the isomorphism extends to one from
      C to some P + N that maps w* to v.  The smallest N' of N's
      Aut(P)-orbit gives a child isomorphic to P + N with v fixed, so v
      lies in m(P + N').
    - No class is kept twice.  An isomorphism between two kept children
      maps v into m of the second, so, composed with an automorphism of
      that child, it fixes v.  Restricted to the parents it shows that
      they are one class, hence one parent, and it maps one neighborhood
      onto the other by an automorphism of P: one Aut(P)-orbit, of which
      one N is kept.

    An automorphism of P that maps N to N' extends to an isomorphism of
    the two children that fixes v, so the degree filter and the key test
    answer alike on a whole orbit and run on its smallest member only.
    Each parent's degrees are counted once, into a table of the sums of
    16 ** degree over P's vertex subsets.  In C a vertex keeps its degree
    in P, plus 1 when it lies in N (which multiplies its term by 16), and v
    has degree |N|, so the keys of C come from P's rows and that table
    without building C.  Keys are invariant, so m(C) holds only vertices
    with the largest key: a child where v does not hold it is dropped.
    The other vertices that hold it tie with v.
    - No tie, or only twins (vertices u whose neighbors other than v
      are v's other than u): each transposition (v u) is an automorphism,
      so the tied vertices and v form one orbit, which holds w* and so is
      m(C).  The child is kept unlabelled.
    - Any other tie is settled from the root partition of C's search
      (_root) where it can be: every root cell holds one key, and the
      canonical order lists the root cells in turn, so w* lies in the
      first root cell that holds v's key, and so does m(C), since the root
      cells are invariant.  If v is not in that cell, v is not in m(C); if
      v is alone in it, w* = v.  Otherwise C is labelled from that root,
      for its order and generators.
    Each parent is labelled once, for its automorphism generators.
    Parents may carry any labelling.
    """
    v = n - 1
    for parent in parents:
        rows = parent.adj
        bit_maps = _canon_bits(v, rows)[2]
        seen: set[int] = set()
        by_degree = [0] * n
        # weights[s]: the sum of 16 ** degree over the vertices of subset s
        weights = [0]
        for u, row in enumerate(rows):
            d = row.bit_count()
            by_degree[d] |= 1 << u
            weights += [w + (1 << 4 * d) for w in weights]
        top = max(d for d in range(n) if by_degree[d])
        for neighborhood in range(1 << v):
            size = neighborhood.bit_count()
            # v must have the largest degree in C
            if size < top or size == top and neighborhood & by_degree[top]:
                continue
            # N must be the smallest member of its Aut(P)-orbit
            if neighborhood in seen:
                continue
            if bit_maps:
                seen |= _subset_orbit(neighborhood, bit_maps)
            # the other vertices of degree size in C: N raised or kept them there
            rivals = by_degree[size - 1] & neighborhood | by_degree[size] & ~neighborhood
            mine = weights[neighborhood] << 4  # v's key
            key = ties = 0  # ties: the rivals with v's key
            twins = True  # and all of them twins of v
            while rivals:
                bit = rivals & -rivals
                rivals ^= bit
                row = rows[bit.bit_length() - 1]
                key = weights[row & ~neighborhood] + (weights[row & neighborhood] << 4)
                if bit & neighborhood:
                    key += 1 << 4 * size
                if key > mine:
                    break
                if key == mine:
                    ties |= bit
                    twins = twins and not (row ^ neighborhood) & ~bit
            if key > mine:
                continue
            adj = _extended_adj(rows, neighborhood, n)
            if not twins:
                root = _root(n, adj)
                cell = next(c for c in root if c & (ties | 1 << v))
                if not cell >> v & 1:
                    continue
                if cell != 1 << v:
                    _, order, generators = _canon_bits(n, adj, root)
                    w = next(u for u in order if cell >> u & 1)
                    if w != v and 1 << v not in _subset_orbit(1 << w, generators):
                        continue
            yield Graph(n, adj)


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1, (0,)),)
    return tuple(_novel_extensions(_classes(n - 1), n))


def generate_graphs(n: int) -> Iterator[Graph]:
    """One graph per isomorphism class on n vertices, not canonically
    labeled: each is its parent class's graph plus vertex n - 1.

    Built-in generation covers 1 <= n <= BUILTIN_MAX (10).  Levels below
    it are cached: levels 1 to 9 hold about 95 MB (2.1 MB up to n = 8),
    measured by tracemalloc as the memory allocated while generating them;
    n = 10 streams from them without being cached.  A census caches only
    the levels up to max_n - 2 (8 at most) and generates the two above
    inside its tasks.  Includes disconnected classes; filter downstream.
    """
    if not 1 <= n <= BUILTIN_MAX:
        raise ValueError(f"built-in generation covers 1..{BUILTIN_MAX}, not {n}")
    if n < BUILTIN_MAX:
        yield from _classes(n)
    else:
        yield from _novel_extensions(_classes(n - 1), n)


# ---------------------------------------------------------------------------
# Census findings and tables.


class Finding(NamedTuple):
    """A bound violation or conjecture hit discovered during checking."""

    kind: str
    graph6: str
    n: int
    detail: str


def check_values(n: int, zero: int | None, failed: int) -> list[tuple[str, str]]:
    """Check one connected n-vertex graph's two values against the proven
    bounds and report (not assert) any conjecture counterexample, as
    (kind, detail) pairs.  zero is None when Z <= F + 1 has been certified
    and nothing reads Z (see _zero_if_read): the zero-bound check is then
    skipped, and zero equals no failed number."""
    out = []
    floor_bound = (n - 1) // 2
    if failed < floor_bound:
        out.append(("lower-bound", f"failed number {failed} below floor((n-1)/2) = {floor_bound}"))
    if n >= 2 and failed > n - 2:
        out.append(("upper-bound", f"failed number {failed} above n - 2 = {n - 2}"))
    if zero is not None and zero > failed + 1:
        # every set of F + 1 vertices forces, so Z <= F + 1
        out.append(("zero-bound", f"zero forcing number {zero} above F + 1 = {failed + 1}"))
    if failed == zero and n > failed + 4:
        out.append(("conjecture", f"equal numbers {failed} with n = {n} > k + 4"))
    return out


class CensusTable:
    """Tallies of connected classes per (value, n) cell.

    f_counts[(k, n)] counts classes with failed number k; e_counts[(k, n)]
    counts those whose zero forcing number also equals k, so Z is read only
    for 1 <= k <= k_max (and by check_values).  connected_totals
    counts all connected classes per n, including those with values above
    k_max; class_totals counts every class per n, connected or not, as
    _shard generates it, and is not in the document.  exemplars retains
    the graph6 strings behind each e_counts cell.
    """

    def __init__(self, max_n: int, k_max: int) -> None:
        self.max_n = max_n
        self.k_max = k_max
        self.f_counts: Counter[tuple[int, int]] = Counter()
        self.e_counts: Counter[tuple[int, int]] = Counter()
        self.connected_totals: Counter[int] = Counter()
        self.class_totals: Counter[int] = Counter()
        self.violations: list[Finding] = []
        self.exemplars: dict[tuple[int, int], list[str]] = {}

    def f_total(self, k: int) -> int:
        return sum(c for (kk, _), c in self.f_counts.items() if kk == k)

    def e_total(self, k: int) -> int:
        return sum(c for (kk, _), c in self.e_counts.items() if kk == k)

    def add(self, g: Graph, zero: int | None, failed: int) -> None:
        """Tally one connected class from its two values, where zero may be
        None as check_values allows.  An exemplar or a finding keeps the
        canonical form of g, not g's own labeling."""
        n, k = g.n, failed
        self.connected_totals[n] += 1
        exemplar = False
        if 1 <= k <= self.k_max:
            self.f_counts[(k, n)] += 1
            if zero == k:
                self.e_counts[(k, n)] += 1
                exemplar = True
        findings = check_values(n, zero, failed)
        if exemplar or findings:
            canon = canonical_form(g)
            if exemplar:
                self.exemplars.setdefault((k, n), []).append(canon)
            self.violations.extend(Finding(kind, canon, n, detail) for kind, detail in findings)

    def merge(self, other: CensusTable) -> None:
        """Add the tallies of a table over other classes."""
        self.f_counts.update(other.f_counts)
        self.e_counts.update(other.e_counts)
        self.connected_totals.update(other.connected_totals)
        self.class_totals.update(other.class_totals)
        self.violations.extend(other.violations)
        for cell, items in other.exemplars.items():
            self.exemplars.setdefault(cell, []).extend(items)

    def finalize(self) -> None:
        """Deterministic ordering of list-valued fields, in any merge order."""
        self.violations.sort(key=lambda f: (f.n, f.kind, f.graph6))
        for cell in self.exemplars.values():
            cell.sort()

    def to_text_table(self) -> str:
        """Tab-separated table: one row per tallied value, columns by n."""
        ns = list(range(1, self.max_n + 1))
        lines = ["\t".join(["quantity"] + [f"n={n}" for n in ns] + ["total"])]
        for label, counts in (("F", self.f_counts), ("F=Z", self.e_counts)):
            for k in range(1, self.k_max + 1):
                row = [counts[(k, n)] for n in ns]
                lines.append("\t".join([f"{label}={k}"] + [str(c) for c in row] + [str(sum(row))]))
        totals = [self.connected_totals[n] for n in ns]
        lines.append("\t".join(["connected"] + [str(c) for c in totals] + [str(sum(totals))]))
        return "\n".join(lines) + "\n"

    def to_document(self) -> dict:
        """JSON-ready structured document with stable key order."""
        def nest(cells: dict[tuple[int, int], Any]) -> dict[str, dict[str, Any]]:
            out: dict[str, dict[str, Any]] = {}
            for (k, n), value in sorted(cells.items()):
                out.setdefault(str(k), {})[str(n)] = value
            return out

        return {
            "schema": "zeroforcing-census/1",
            "max_n": self.max_n,
            "k_max": self.k_max,
            "f_counts": nest(self.f_counts),
            "e_counts": nest(self.e_counts),
            "f_totals": {str(k): self.f_total(k) for k in range(1, self.k_max + 1)},
            "e_totals": {str(k): self.e_total(k) for k in range(1, self.k_max + 1)},
            "connected_totals": {str(n): c for n, c in sorted(self.connected_totals.items())},
            # Every level is generated; zeroforcing-census/1 keeps the key.
            "sources": {str(n): "builtin" for n in range(1, self.max_n + 1)},
            "violations": [
                {"kind": f.kind, "graph6": f.graph6, "n": f.n, "detail": f.detail}
                for f in self.violations
            ],
            "exemplars": nest(self.exemplars),
            # Always empty, since nothing is read; zeroforcing-census/1 keeps the key.
            "read_errors": [],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Running a census.


def _zero_if_read(g: Graph, failed: ExactResult, k_max: int) -> int | None:
    """The zero forcing number of g where a census tally or check reads it,
    else None, given g's exact failed number and witness W.

    e_counts reads Z for 1 <= F <= k_max and the conjecture check for
    n > F + 4; the zero-bound check needs only Z <= F + 1.  Every set of
    F + 1 vertices forces, so W plus the lowest vertex t of the fort
    V minus W forces, and that proves Z <= |W| + 1 <= F + 1.  Where the
    closure of W + t is not the whole vertex set, or W has more than F
    vertices, F or W is wrong and the exact Z decides the check.
    """
    n, k = g.n, failed.value
    if 1 <= k <= k_max or n > k + 4:
        return _zero_forcing_value(g)
    fort = g.full ^ failed.witness
    certificate = failed.witness | fort & -fort
    if certificate.bit_count() <= k + 1 and _derived(g.adj, g.full, certificate) == g.full:
        return None
    return _zero_forcing_value(g)


def _shard(task: tuple[tuple[Graph, ...], int, int, int]) -> CensusTable:
    """The tallies of a slice of n-vertex classes and of the subtree under
    it down to last vertices: the class count of each level and the values
    of its connected classes.  The subtree is walked depth first by sibling
    groups: evaluate a group, generate each member's children as one tuple,
    then walk those tuples in turn.  So a worker holds the slice's children
    and the grandchildren of one slice class, not every grandchild of the
    slice.  Each class gets its exact F, and its exact Z only where
    _zero_if_read finds it read."""
    graphs, n, last, k_max = task
    table = CensusTable(max_n=last, k_max=k_max)

    def walk(siblings: tuple[Graph, ...], m: int) -> None:
        table.class_totals[m] += len(siblings)
        for g in siblings:
            if is_connected(g):
                failed = failed_zero_forcing_number(g)
                table.add(g, _zero_if_read(g, failed, k_max), failed.value)
        if m < last:
            # every sibling's children before any is walked: walking each
            # parent's children right after generating them made the n <= 8
            # census 3 % (--jobs 1) to 6 % (--jobs 2) slower
            for children in [tuple(_novel_extensions((g,), m + 1)) for g in siblings]:
                walk(children, m + 1)

    walk(graphs, n)
    return table


def _level_slices(top: int, k_max: int) -> Iterator[tuple[tuple[Graph, ...], int, int, int]]:
    """The levels 1..top as _shard tasks of SLICE classes each, taken from
    the levels up to split = max(1, top - 2), the only ones _classes
    generates and caches here.  A slice of a level below split is only
    evaluated; a slice of split carries its subtree up to top vertices,
    which _shard walks one slice class at a time, so each class is
    generated once, and the levels above split only inside the tasks."""
    split = max(1, top - 2)
    for n in range(1, split + 1):
        graphs = _classes(n)
        last = top if n == split else n
        for i in range(0, len(graphs), SLICE):
            yield graphs[i:i + SLICE], n, last, k_max


def check_census_args(max_n: int, k_max: int, jobs: int) -> None:
    """Raise ValueError when max_n, k_max or jobs is below 1, or max_n or
    k_max is above BUILTIN_MAX.  A connected class on n >= 2 vertices has
    F <= n - 2, so a table row above BUILTIN_MAX would be zeros."""
    for name, value in (("max_n", max_n), ("k_max", k_max), ("jobs", jobs)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if max_n > BUILTIN_MAX:
        raise ValueError(f"built-in generation covers n = 1..{BUILTIN_MAX}, not max_n={max_n}")
    if k_max > BUILTIN_MAX:
        raise ValueError(f"k_max must be at most {BUILTIN_MAX}, got {k_max}")


def run_census(max_n: int, k_max: int = 4, jobs: int = 1) -> CensusTable:
    """Exact census of the connected classes for every n up to max_n, from
    built-in generation (n <= BUILTIN_MAX).

    The levels up to max(1, max_n - 2) are generated here and go out in
    slices of SLICE classes; a slice of the last of them generates and
    evaluates its own children and grandchildren (_level_slices).  The tasks
    run in min(jobs, os.cpu_count()) forked workers, or in this process
    when that is 1, and each returns its slice's tallies as a CensusTable
    for this process to merge; the output is identical for any job count.
    Raises ValueError as check_census_args does.
    """
    check_census_args(max_n, k_max, jobs)
    table = CensusTable(max_n=max_n, k_max=k_max)
    tasks = _level_slices(max_n, k_max)
    workers = min(jobs, os.cpu_count() or 1)
    pool = multiprocessing.get_context("fork").Pool(workers) if workers > 1 else None
    try:
        for part in map(_shard, tasks) if pool is None else pool.imap(_shard, tasks):
            table.merge(part)
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    table.finalize()
    return table
