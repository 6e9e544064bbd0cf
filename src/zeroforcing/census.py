"""Isomorph-free censuses of zero forcing quantities over small graphs.

Graph classes are generated by canonical augmentation (McKay's method, as
in nauty's geng): each (n-1)-vertex class is extended by a new vertex over
one neighborhood from each orbit of its automorphism group, and a child is
kept only when the new vertex lies in the orbit of the vertex a canonical
rule would delete from it, so each class comes from one parent once, with
no set of every class seen so far.  Only children where the new vertex
ties for that rule are labelled, and each parent once.  Canonical forms
come from equitable-partition refinement on degrees plus backtracking over
the refined cells, minimizing the packed adjacency string of graph6_io
(`_pack_bits`), so the canonical form of a graph is the graph6 record of
that minimum; the leaves that reach it give the automorphism group, which
only generation asks for.

A census walks the connected classes per vertex count up to BUILTIN_MAX
(10, where the last class with failed number 4 appears), computes the exact
zero forcing and failed zero forcing numbers of each, tallies them per
(value, n) cell, and checks every graph against the proven bounds and the
open n <= k + 4 conjecture.  Since a child is kept or dropped by its own
parent alone, the top level is split by parents: each task tallies the
children of its own slice of parents into a table, and the tables are
merged.  The census prints canonical graph6 records, so its document does
not depend on how a class was labelled or which task found it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any, Iterable, Iterator

from .exact import _zero_forcing_value, failed_zero_forcing_number
from .graph6_io import _graph6_of_bits, _pack_bits
from .graph_core import Graph, is_connected

CANON_MAX = 16
BUILTIN_MAX = 10
# Graphs per census task.  On 2 cores, a slice of 32 n = 7 parents takes
# 0.05 s of generation and evaluation on average and 0.1 s at most,
# against about 0.15 ms of pool traffic per task, and the n = 8 level
# still splits into 33 tasks, so no worker idles long at the end.
SLICE = 32


# ---------------------------------------------------------------------------
# Canonical forms.


def _refine(adj: tuple[int, ...], cells: list[int]) -> list[int]:
    """Split cells by neighbor counts into every cell until stable.

    The cell order (and the signature-sorted order of the pieces a cell
    splits into) is isomorphism-invariant.
    """
    while True:
        out: list[int] = []
        changed = False
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            buckets: dict[tuple[int, ...], int] = {}
            rem = cell
            while rem:
                bit = rem & -rem
                rem ^= bit
                row = adj[bit.bit_length() - 1]
                sig = tuple([(row & c).bit_count() for c in cells])
                if sig in buckets:
                    buckets[sig] |= bit
                else:
                    buckets[sig] = bit
            if len(buckets) == 1:
                out.append(cell)
            else:
                changed = True
                for sig in sorted(buckets):
                    out.append(buckets[sig])
        if not changed:
            return out
        cells = out


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


def _leaves(n: int, adj: tuple[int, ...]) -> list[list[int]]:
    """The cells of each leaf of the refinement search tree, in search
    order: a leaf is discrete, or homogeneous with some cell of more than
    one vertex.  The tree is isomorphism-invariant."""
    by_degree: dict[int, int] = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    leaves: list[list[int]] = []

    def search(cells: list[int]) -> None:
        target = -1
        for i, cell in enumerate(cells):
            if cell & (cell - 1):
                target = i
                break
        if target == -1 or _homogeneous(adj, cells):
            leaves.append(cells)
            return
        cell = cells[target]
        rem = cell
        while rem:
            bit = rem & -rem
            rem ^= bit
            search(_refine(adj, cells[:target] + [bit, cell ^ bit] + cells[target + 1:]))

    search(_refine(adj, [by_degree[d] for d in sorted(by_degree)]))
    return leaves


def _canon_bits(n: int, adj: tuple[int, ...]) -> tuple[int, list[int], list[list[int]]]:
    """The canonical key (least packed adjacency string over the tree; equal
    iff isomorphic), the vertex order of the first leaf that reaches it, and
    automorphism group generators, each a list image with image[u] the image of u.

    The tree is searched in full, so every automorphism maps the first
    best leaf to a best leaf; it is the map between their vertex orders
    composed with a permutation inside the cells of the first best leaf.
    A homogeneous leaf keeps cells of more than one vertex, and any
    permutation inside them is an automorphism, generated by the swaps of
    vertices next to each other in a cell.
    """
    best = -1
    best_leaves: list[tuple[list[int], list[int]]] = []
    for cells in _leaves(n, adj):
        order = _cells_order(cells)
        bits = _pack_bits(adj, order)
        if best == -1 or bits < best:
            best, best_leaves = bits, [(order, cells)]
        elif bits == best:
            best_leaves.append((order, cells))
    first, first_cells = best_leaves[0]
    generators = []
    if len(best_leaves) > 1:
        position = [0] * n
        for i, u in enumerate(first):
            position[u] = i
        generators = [[order[i] for i in position] for order, _ in best_leaves[1:]]
    for cell in first_cells:
        if cell & (cell - 1):
            members = _cells_order([cell])
            for u, w in zip(members, members[1:]):
                image = list(range(n))
                image[u], image[w] = w, u
                generators.append(image)
    return best, first, generators


def canonical_form(g: Graph) -> str:
    """The graph6 record of the canonical labeling: equal records iff
    isomorphic graphs."""
    if g.n > CANON_MAX:
        raise ValueError(f"canonical labeling capped at {CANON_MAX} vertices")
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


def _top_keys(adj: tuple[int, ...], top: int) -> dict[int, tuple[int, ...]]:
    """The sorted neighbor degrees of each vertex of degree top (the
    largest degree); a vertex's key is its degree, then this tuple."""
    degrees = [row.bit_count() for row in adj]
    keys = {}
    for u, row in enumerate(adj):
        if degrees[u] == top:
            nbrs = []
            while row:
                bit = row & -row
                row ^= bit
                nbrs.append(degrees[bit.bit_length() - 1])
            nbrs.sort()
            keys[u] = tuple(nbrs)
    return keys


def _on_sets(generators: list[list[int]]) -> list[list[int]]:
    """Each vertex permutation as the list of 1 << image, which maps a
    vertex subset's bit mask bit by bit."""
    return [[1 << x for x in image] for image in generators]


def _subset_orbit(subset: int, bit_maps: list[list[int]]) -> set[int]:
    """The orbit of a vertex subset's bit mask under the group that the
    vertex permutations generate, each given in the form of _on_sets."""
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

    A vertex's key is its degree, then the sorted degrees of its neighbors.
    In a graph C, let w* be the first vertex with the largest key in C's
    canonical order, and m(C) the Aut(C)-orbit of w*; an isomorphism from
    C to C' maps m(C) onto m(C').  A child C = P + v over a neighborhood N
    of the parent P is kept only when N is the smallest member of its
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
    Keys are invariant, so m(C) holds only vertices with the largest key:
    a child where v does not hold it is dropped, and one where v alone
    holds it has m(C) = {v} and is kept unlabelled.  Each parent is
    labelled once, for its automorphism generators, and each tied child
    once, for its order and generators.  Parents may carry any labelling.
    """
    v = n - 1
    for parent in parents:
        bit_maps = _on_sets(_canon_bits(v, parent.adj)[2])
        seen: set[int] = set()
        by_degree = [0] * n
        for u, row in enumerate(parent.adj):
            by_degree[row.bit_count()] |= 1 << u
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
            adj = _extended_adj(parent.adj, neighborhood, n)
            # keys are compared only when another vertex also has degree size
            tied = False
            if by_degree[size - 1] & neighborhood | by_degree[size] & ~neighborhood:
                keys = _top_keys(adj, size)
                rival = max(key for u, key in keys.items() if u != v)
                if rival > keys[v]:
                    continue
                tied = rival == keys[v]
            if tied:
                _, order, generators = _canon_bits(n, adj)
                w = next(u for u in order if keys.get(u) == keys[v])
                if w != v and 1 << v not in _subset_orbit(1 << w, _on_sets(generators)):
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
    it are cached, about 106 MB at n = 9; n = 10 streams from them without
    being cached.  Includes disconnected classes; filter downstream.
    """
    if not 1 <= n <= BUILTIN_MAX:
        raise ValueError(f"built-in generation covers 1..{BUILTIN_MAX}, not {n}")
    if n < BUILTIN_MAX:
        yield from _classes(n)
    else:
        yield from _novel_extensions(_classes(n - 1), n)


# ---------------------------------------------------------------------------
# Census records, findings, tables.


@dataclass(frozen=True)
class GraphRecord:
    """Exact values for one connected class, as check_record reads them."""

    graph6: str
    n: int
    zero: int
    failed: int


@dataclass(frozen=True)
class Finding:
    """A bound violation or conjecture hit discovered during checking."""

    kind: str
    graph6: str
    n: int
    detail: str


def check_record(record: GraphRecord) -> list[Finding]:
    """Check one connected graph's values against the proven bounds and
    report (not assert) any conjecture counterexample."""
    out = []
    floor_bound = (record.n - 1) // 2
    if record.failed < floor_bound:
        out.append(
            Finding(
                "lower-bound",
                record.graph6,
                record.n,
                f"failed number {record.failed} below floor((n-1)/2) = {floor_bound}",
            )
        )
    if record.n >= 2 and record.failed > record.n - 2:
        out.append(
            Finding(
                "upper-bound",
                record.graph6,
                record.n,
                f"failed number {record.failed} above n - 2 = {record.n - 2}",
            )
        )
    if record.zero > record.failed + 1:
        # every set of F + 1 vertices forces, so Z <= F + 1
        out.append(
            Finding(
                "zero-bound",
                record.graph6,
                record.n,
                f"zero forcing number {record.zero} above F + 1 = {record.failed + 1}",
            )
        )
    if record.failed == record.zero and record.n > record.failed + 4:
        out.append(
            Finding(
                "conjecture",
                record.graph6,
                record.n,
                f"equal numbers {record.failed} with n = {record.n} > k + 4",
            )
        )
    return out


@dataclass
class CensusTable:
    """Tallies of connected classes per (value, n) cell.

    f_counts[(k, n)] counts classes with failed number k; e_counts[(k, n)]
    counts those whose zero forcing number also equals k.  Totals count all
    connected classes per n, including those with values above k_max.
    exemplars retains the graph6 strings behind each e_counts cell.
    """

    max_n: int
    k_max: int
    f_counts: Counter[tuple[int, int]] = field(default_factory=Counter)
    e_counts: Counter[tuple[int, int]] = field(default_factory=Counter)
    connected_totals: Counter[int] = field(default_factory=Counter)
    violations: list[Finding] = field(default_factory=list)
    exemplars: dict[tuple[int, int], list[str]] = field(default_factory=dict)

    def f_total(self, k: int) -> int:
        return sum(c for (kk, _), c in self.f_counts.items() if kk == k)

    def e_total(self, k: int) -> int:
        return sum(c for (kk, _), c in self.e_counts.items() if kk == k)

    def add(self, g: Graph, zero: int, failed: int) -> None:
        """Tally one connected class from its two values.  An exemplar or a
        finding keeps the canonical form of g, not g's own labeling."""
        n, k = g.n, failed
        self.connected_totals[n] += 1
        exemplar = False
        if 1 <= k <= self.k_max:
            self.f_counts[(k, n)] += 1
            if zero == k:
                self.e_counts[(k, n)] += 1
                exemplar = True
        # a finding takes the canonical form below, so no graph6 is written here
        findings = check_record(GraphRecord("", n, zero, failed))
        if exemplar or findings:
            canon = canonical_form(g)
            if exemplar:
                self.exemplars.setdefault((k, n), []).append(canon)
            self.violations.extend(replace(f, graph6=canon) for f in findings)

    def merge(self, other: CensusTable) -> None:
        """Add the tallies of a table over other classes."""
        self.f_counts.update(other.f_counts)
        self.e_counts.update(other.e_counts)
        self.connected_totals.update(other.connected_totals)
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


def _shard(task: tuple[tuple[Graph, ...], int, int]) -> CensusTable:
    """The tallies of the connected n-vertex classes in one slice of a
    built-in level: the children of a slice of (n-1)-vertex parents, which
    are generated here, or a slice of n-vertex classes already generated."""
    graphs, n, k_max = task
    if graphs[0].n < n:
        # generated whole first: resuming the generator between evaluations
        # made the n <= 8 census about 6 % slower
        graphs = tuple(_novel_extensions(graphs, n))
    table = CensusTable(max_n=n, k_max=k_max)
    for g in graphs:
        if is_connected(g):
            table.add(g, _zero_forcing_value(g), failed_zero_forcing_number(g).value)
    return table


def _level_slices(top: int, k_max: int) -> Iterator[tuple[tuple[Graph, ...], int, int]]:
    """The levels 1..top as _shard tasks of SLICE graphs each.  The top
    level is sliced by its parents, _classes(top - 1), whose cache holds
    every level below it, so each class is generated once: a level below
    the top here, the top level inside its own slices."""
    for n in range(1, top + 1):
        graphs = _classes(n - 1) if n == top > 1 else _classes(n)
        for i in range(0, len(graphs), SLICE):
            yield graphs[i:i + SLICE], n, k_max


def check_census_args(max_n: int, k_max: int, jobs: int) -> None:
    """Raise ValueError when max_n, k_max or jobs is below 1, or max_n > BUILTIN_MAX."""
    for name, value in (("max_n", max_n), ("k_max", k_max), ("jobs", jobs)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if max_n > BUILTIN_MAX:
        raise ValueError(f"built-in generation covers n = 1..{BUILTIN_MAX}, not max_n={max_n}")


def run_census(max_n: int, k_max: int = 4, jobs: int = 1) -> CensusTable:
    """Exact census of the connected classes for every n up to max_n, from
    built-in generation (n <= BUILTIN_MAX).

    The levels go out in slices of SLICE graphs: the top level as slices
    of its parents, each slice generating and evaluating its own children,
    and the levels below it from the cache those parents fill.  The tasks
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
