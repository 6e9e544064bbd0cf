"""Exact zero forcing and failed zero forcing numbers.

Both searches return a value and a witness, and the witness is the first
qualifying subset in ascending bit-pattern order, so results are fully
deterministic.

The zero forcing number comes from the wavefront of Brimkov, Fast and
Hicks ("Computational approaches for zero forcing and related problems",
EJOR 273, 2019): a cheapest-first search over closed sets finds the
value, and then a depth-first search over the sets of that size, pruned
by closure, finds the witness.

The failed zero forcing number comes from forts (Fetcie, Jacob and
Saavedra, "The failed zero forcing number of a graph", Involve 8, 2015).
A fort is a nonempty vertex set T such that no vertex outside T has
exactly one neighbor in T.  A set fails to force exactly when its
complement contains a fort, so F = n - (smallest fort size).  The two
smallest sizes are settled by rule, with no search:

- {v} is a fort exactly when v is isolated, since a neighbor of v would
  have exactly one neighbor in it;
- {u, v} is a fort exactly when N(u) minus v equals N(v) minus u (u and
  v are true or false twins), since a vertex outside adjacent to just
  one of them would have exactly one neighbor in it.

A smallest fort of three or more vertices comes from one depth-first
search under a size cap raised one vertex at a time.  Each size resumes
from the nodes the last cap cut off, so no size is searched twice.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

from .forcing import _derived
from .graph_core import Graph

EXACT_CAP_DEFAULT = 20


class ExactCapExceeded(ValueError):
    """The graph is too large for the exact searches, whose cost grows
    exponentially with the vertex count."""


class ExactResult(NamedTuple):
    """An exact value plus one witnessing vertex mask: a minimum zero
    forcing set, or a maximum failed (non-forcing) set."""

    value: int
    witness: int


def _check_cap(g: Graph, cap: int) -> None:
    if g.n > cap:
        raise ExactCapExceeded(
            f"exact search over {g.n} vertices exceeds the cap of {cap}"
        )


def _twin_classes(adj: tuple[int, ...]) -> list[int]:
    """Vertex masks of the twin classes of two or more vertices.

    Vertices u and v are twins when N(u) minus v equals N(v) minus u:
    twins joined by an edge share their closed neighborhood, twins not
    joined share their open one.  A vertex cannot be an adjacent twin of
    one vertex and a non-adjacent twin of another, so twinship is an
    equivalence, and one pass that keys each vertex v on adj[v] and on
    adj[v] | 1 << v gathers each class under one key.  No open key N(u)
    equals a closed key N[v]: it would hold v, so u would lie in N(v),
    inside N[v] = N(u).
    """
    classes: dict[int, int] = {}
    for v, nbrs in enumerate(adj):
        bit = 1 << v
        classes[nbrs] = classes.get(nbrs, 0) | bit
        classes[nbrs | bit] = classes.get(nbrs | bit, 0) | bit
    return [c for c in classes.values() if c & (c - 1)]


def _zero_forcing_value(g: Graph) -> int:
    """The zero forcing number alone, with no witness and no cap check.

    Every forcing set S holds all but at most one vertex of each twin
    class (see `_twin_classes`): a vertex outside twins {u, v} sees both
    or neither, so it cannot force either while both are unfilled, and
    neither twin forces before it is filled.  Swapping two twins is an
    automorphism, so S can be mapped, without changing its size, onto a
    forcing set that holds S0, every vertex of a twin class except its
    highest.  So Z is the least size of a forcing set that holds S0.

    The wavefront keeps the cheapest known cost of each closed set,
    starting from the closure of S0 at cost |S0|, and expands sets in
    order of cost.  Growing a closed set C by the closed neighborhood
    N[v] costs |N[v] \\ C| - 1 (fill all of it but one vertex, which v
    then forces), or 1 when that is 0 (v alone, with no neighbor outside
    C); the grown set is then closed.  So every set reached at cost c is
    the closure of c vertices that include S0, and the cost at which the
    whole vertex set is reached is at least Z.  It is at most Z by the
    charging argument of Brimkov, Fast and Hicks, which holds from this
    start: take a forcing set S that holds S0, so the start cost |S0| is
    paid by vertices of S inside C.  While C is not everything, take the
    first force v -> w of S's chronology with w outside C (or, when none
    is left, any v of S outside C).  Every vertex filled before that
    force lies in C or in S, so N[v] \\ C is w plus vertices of S, and
    growing by N[v] costs at most the number of vertices of S it adds to
    C.  So the cost of C never exceeds the number of vertices of S in it,
    and the whole vertex set is reached at cost at most |S| = Z.
    """
    adj, full, n = g.adj, g.full, g.n
    closed_nbhd = [a | 1 << v for v, a in enumerate(adj)]
    twins = 0
    for c in _twin_classes(adj):
        twins |= c ^ 1 << (c.bit_length() - 1)
    cost = twins.bit_count()
    start = _derived(adj, full, twins)
    best = {start: cost}
    buckets: list[list[int]] = [[] for _ in range(n + 1)]  # Z <= n
    buckets[cost].append(start)
    while best.get(full) != cost:
        for s in buckets[cost]:
            if best[s] != cost:
                continue  # reached more cheaply after it was queued
            for nbhd in closed_nbhd:
                grow = nbhd & ~s
                if not grow:
                    continue
                child_cost = cost + (grow.bit_count() - 1 or 1)
                if child_cost >= best.get(full, n + 1):
                    continue  # could not lead to a cheaper whole set
                child = _derived(adj, full, s | grow)
                if child_cost < best.get(child, child_cost + 1):
                    best[child] = child_cost
                    buckets[child_cost].append(child)
        cost += 1
    return cost


def zero_forcing_number(g: Graph, cap: int = EXACT_CAP_DEFAULT) -> ExactResult:
    """Minimum size of a zero forcing set Z, from the wavefront, with the
    first forcing set of size Z in ascending order as the witness.

    A depth-first search decides the highest undecided vertex first,
    outside before inside: every set below a node agrees above that
    vertex, so the sets of size Z are met in ascending order.  The outside
    branch is pruned when the inside and the other undecided vertices
    together do not force (closure is monotone, so no set below it does).
    A node with no places left, or as many as undecided vertices, holds
    one set.
    """
    _check_cap(g, cap)
    adj, full = g.adj, g.full
    value = _zero_forcing_value(g)

    def search(inside: int, undecided: int, places: int) -> int | None:
        # inside | undecided forces, and places <= |undecided|
        if places == undecided.bit_count():
            return inside | undecided
        if not places:
            return inside if _derived(adj, full, inside) == full else None
        bit = 1 << (undecided.bit_length() - 1)
        rest = undecided ^ bit
        found = search(inside, rest, places) if _derived(adj, full, inside | rest) == full else None
        return found if found is not None else search(inside | bit, rest, places - 1)

    witness = search(0, full, value)
    if witness is None:
        raise AssertionError("the wavefront cost is always reached by some subset")
    return ExactResult(value, witness)


def _is_fort(adj: tuple[int, ...], fort: int, outside: int) -> bool:
    """No vertex of outside has exactly one neighbor in fort."""
    while outside:
        bit = outside & -outside
        outside ^= bit
        hit = adj[bit.bit_length() - 1] & fort
        if hit and not hit & (hit - 1):
            return False
    return True


def _smallest_fort(adj: tuple[int, ...], full: int) -> int:
    """The numerically largest of the smallest forts, on a graph with no
    fort of fewer than three vertices.

    Depth-first search over (inside, outside) decisions under a cap on
    the fort size, raised one vertex at a time from 3.  Each branching
    node decides its highest undecided vertex, trying inside before
    outside.  Every fort below the node agrees on the vertices above that
    one, so the inside branch holds only larger forts than the outside
    branch, and forts are met in descending numeric order.

    Each node first settles what its excluded vertices imply.  An
    excluded vertex u with one neighbor inside and none undecided breaks
    the fort; with one inside and one undecided, that neighbor must join;
    with none inside and one undecided, that neighbor must stay out, as
    joining would leave u with exactly one inside.  Every fort below the
    node makes the same choices, so settling skips no fort.  Only the
    excluded vertices in dirty, whose neighborhoods changed, are
    examined, and each decision marks the ones it touches.  Settling does
    not read the cap.

    A node whose fort has reached the cap is a leaf: the rest of the
    vertices stay outside, and one fort test decides it.  The cap cuts a
    node off when its settled fort is over the cap, or at the cap with
    vertices still undecided.  The search records each cut node, settled,
    in the order it meets them, and the next cap resumes from those nodes
    in that order instead of from the root.  A search from the root at
    the next cap would walk the same tree, except that it goes on below
    the cut nodes.  Every leaf it meets outside their subtrees is a leaf
    of the last search with the same fort test, which failed.  The cut
    nodes' subtrees are disjoint and lie in depth-first order, so their
    leaves come in the same order as in that search.  So the first fort
    met at each cap is the one the search from the root would meet first:
    as no smaller fort exists, the numerically largest fort of exactly
    cap vertices.

    The cut nodes are kept as two words each, inside and outside, in an
    unsigned 64-bit array (n <= 62), 16 bytes a node.  On a path their
    number doubles with each size, to 2^(n/2 - 1) at the last.
    """
    cap = 3
    cut = array("Q")

    def search(inside: int, outside: int, dirty: int) -> int | None:
        while dirty:
            bit = dirty & -dirty
            dirty ^= bit
            nbrs = adj[bit.bit_length() - 1]
            hit = nbrs & inside
            if hit & (hit - 1):
                continue  # two or more inside: u is satisfied for good
            open_ = nbrs & ~(inside | outside)
            if open_ & (open_ - 1):
                continue
            if hit:
                if not open_:
                    return None
                inside |= open_
                dirty |= adj[open_.bit_length() - 1] & outside
            elif open_:
                outside |= open_
                dirty |= adj[open_.bit_length() - 1] & outside | open_
        size = inside.bit_count()
        if size > cap:
            cut.append(inside)
            cut.append(outside)
            return None
        undecided = full & ~(inside | outside)
        if size < cap and undecided:
            v = undecided.bit_length() - 1
            bit = 1 << v
            touched = adj[v] & outside
            return (search(inside | bit, outside, touched)
                    or search(inside, outside | bit, touched | bit))
        if inside and _is_fort(adj, inside, full ^ inside):
            return inside
        if undecided:
            cut.append(inside)
            cut.append(outside)
        return None

    fort = search(0, 0, 0)
    while not fort:
        if not cut:
            raise AssertionError("the whole vertex set is a fort")
        cap += 1
        nodes = iter(cut)
        cut = array("Q")
        for inside in nodes:
            fort = search(inside, next(nodes), 0)
            if fort:
                break
    return fort


def failed_zero_forcing_number(g: Graph, cap: int = EXACT_CAP_DEFAULT) -> ExactResult:
    """Maximum size of a non-forcing set, with the first witness found.

    A failed set of maximum size is stalled (its closure would otherwise
    be a larger failed set), and a stalled proper subset is exactly the
    complement of a fort.  So F = n - m for the smallest fort size m, and
    the failed sets of size F are the complements of the forts of size m.
    Complementing reverses numeric order, so the first of them in
    ascending order is the complement of the numerically largest fort of
    size m.

    m = 1 when some vertex is isolated, and the largest such fort is the
    highest isolated vertex.  Otherwise m = 2 when some pair u < v are
    twins.  Two-vertex masks compare by their higher bit first, so the
    largest twin pair is the largest of the pairs made of the two highest
    vertices of each twin class.
    Otherwise `_smallest_fort` raises a cap on the fort size from 3,
    each size resuming from the nodes the last cap cut off, and returns
    the largest fort at the first size that has one.
    """
    _check_cap(g, cap)
    adj, full, n = g.adj, g.full, g.n
    for v in range(n - 1, -1, -1):
        if not adj[v]:
            return ExactResult(n - 1, full ^ 1 << v)
    pair = 0
    for c in _twin_classes(adj):
        top = 1 << (c.bit_length() - 1)
        pair = max(pair, top | 1 << ((c ^ top).bit_length() - 1))
    if pair:
        return ExactResult(n - 2, full ^ pair)
    fort = _smallest_fort(adj, full)
    return ExactResult(n - fort.bit_count(), full ^ fort)
