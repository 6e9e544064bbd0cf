"""Constructions of large failed zero forcing sets with certified sizes.

Each construction returns a WitnessReport: a vertex mask that provably
fails to force, the structural route that built it, and the size bound
that route guarantees.  Graphs with minimum degree 3 fill the larger side
of a locally maximal cut; lower minimum degrees recurse on a smaller graph
(deleting a leaf together with its neighbor, or contracting the path
around a degree-2 vertex) and lift the result back.  Every report is
re-verified against the forcing rule before it is returned, so a broken
case analysis fails loudly instead of silently.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .forcing import derived_set
from .graph_core import (
    Graph,
    connected_components,
    iter_bits,
    mask_of,
    vertices_of,
)


class ConstructionError(RuntimeError):
    """A structural construction could not make progress.

    Indicates a violated precondition or an implementation bug; the
    constructions themselves are total on their stated domains.
    """


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConstructionError(message)


class WitnessReport(NamedTuple):
    """A failed zero forcing set with its construction provenance.

    filled is the constructed vertex mask; guaranteed_bound is the size the
    route promises (the actual set may be larger).
    """

    filled: int
    route: str
    guaranteed_bound: int


def verify_witness(g: Graph, report: WitnessReport) -> tuple[str, ...]:
    """Recheck a report against the forcing rule from scratch.

    Returns the failures found; an empty tuple means the report holds.
    """
    failures = []
    if report.filled & ~g.full:
        failures.append("set has vertices outside the graph")
    elif derived_set(g, report.filled) == g.full:
        failures.append("set forces the whole graph")
    if report.filled.bit_count() < report.guaranteed_bound:
        failures.append(
            f"set has {report.filled.bit_count()} vertices, below the bound "
            f"{report.guaranteed_bound}"
        )
    if report.filled == g.full:
        failures.append("set is not a proper subset of the vertices")
    return tuple(failures)


def witness_delta3(g: Graph) -> WitnessReport:
    """Stalled set of ceil(n/2) vertices for any graph with min degree >= 3.

    Start with every vertex on the right and sweep the vertices in
    ascending order, moving a vertex to the other side whenever more than
    half of its neighbors share its side; stop after a sweep with no move.
    Then fill the larger side, left on a tie (route "local-max-cut"; the
    cut is locally maximal, not a maximum cut).

    A vertex with a > d/2 of its d neighbors on its own side adds
    a - (d - a) >= 1 edges to the cut when it moves, so there are at most
    |E| moves.  At the end every vertex has at least half of its neighbors,
    so at least 2, across the cut.  Every filled vertex therefore keeps two
    unfilled neighbors and the larger side stalls with at least ceil(n/2)
    vertices, connected or not.  Raises ValueError when g has a vertex of
    degree below 3.
    """
    if g.min_degree() < 3:
        raise ValueError("construction needs minimum degree 3")
    left = 0
    moved = True
    while moved:
        moved = False
        for v, row in enumerate(g.adj):
            own = left if left >> v & 1 else g.full & ~left
            if 2 * (row & own).bit_count() > row.bit_count():
                left ^= 1 << v
                moved = True
    right = g.full & ~left
    fill = left if left.bit_count() >= right.bit_count() else right
    return WitnessReport(filled=fill, route="local-max-cut", guaranteed_bound=(g.n + 1) // 2)


def witness_general(g: Graph) -> WitnessReport:
    """Stalled set of size >= floor((n-1)/2) for any graph.

    Dispatches on structure: keep the smallest component unfilled when
    disconnected; use the min-degree-3 construction when possible; with a
    degree-1 vertex, delete it and its neighbor and recurse; with a
    degree-2 vertex, contract the path through it and recurse, lifting the
    smaller witness back by one of four cases.  Every route returns a set
    that is literally stalled, equal to its own closure, and every
    recursion level checks that and both bounds, so a broken route or lift
    raises ConstructionError.
    """
    report = _general(g)
    _require(
        derived_set(g, report.filled) == report.filled != g.full,
        f"route {report.route} did not stall",
    )
    _require(
        report.filled.bit_count() >= report.guaranteed_bound,
        f"route {report.route} missed its guarantee",
    )
    _require(
        report.filled.bit_count() >= (g.n - 1) // 2,
        f"route {report.route} fell below the floor bound",
    )
    return report


def _general(g: Graph) -> WitnessReport:
    comps = connected_components(g)
    if len(comps) > 1:
        return WitnessReport(
            filled=g.full ^ comps[0],
            route="disconnected",
            guaranteed_bound=(g.n + 1) // 2,
        )
    if g.n <= 2:
        return WitnessReport(filled=0, route="base", guaranteed_bound=0)
    dmin = g.min_degree()
    if dmin >= 3:
        return witness_delta3(g)
    v = next(u for u in range(g.n) if g.degree(u) == dmin)
    sub, lift = (_leaf_pair if dmin == 1 else _degree2_path)(g, v)
    child = witness_general(sub)
    fill, tag = lift(child.filled)
    return WitnessReport(
        filled=fill,
        route=f"{tag}({child.route})",
        guaranteed_bound=(g.n - 1) // 2,
    )


def _reindex(g: Graph, keep: int) -> tuple[list[int], tuple[int, ...]]:
    """Rows of the subgraph induced on a mask, its vertices renumbered
    ascending, and the original index of each new vertex.

    Both reductions number their smaller graph this way, so its
    lowest-index-first tie-breaks follow the survivors' order in g, and
    each lift maps a vertex i back to old[i].
    """
    old = vertices_of(keep)
    new = {o: i for i, o in enumerate(old)}
    rows = []
    for o in old:
        row = 0
        for u in iter_bits(g.adj[o] & keep):
            row |= 1 << new[u]
        rows.append(row)
    return rows, old


def _leaf_pair(g: Graph, v: int) -> tuple[Graph, Callable[[int], tuple[int, str]]]:
    """Delete the leaf v and its neighbor w, with a lift of any stalled set
    of the rest: if w still touches an unfilled surviving vertex, adding w
    alone keeps the set stalled; otherwise add v and w (both end up spent).
    """
    w = g.adj[v].bit_length() - 1
    keep = g.full & ~(1 << v) & ~(1 << w)
    rows, old = _reindex(g, keep)
    sub = Graph(len(old), tuple(rows))

    def lift(filled: int) -> tuple[int, str]:
        lifted = mask_of(old[u] for u in iter_bits(filled))
        if g.adj[w] & keep & ~lifted:
            return lifted | 1 << w, "delta1-a"
        return lifted | 1 << v | 1 << w, "delta1-b"

    return sub, lift


def _degree2_path(g: Graph, v: int) -> tuple[Graph, Callable[[int], tuple[int, str]]]:
    """Contract the path x - v - y through the degree-2 vertex v into a new
    vertex w, numbered last and joined to the surviving neighbors of x and
    y, with a lift of any stalled set of the result by cases.

    With w outside the set, refill v alone.  With w inside: if w was spent,
    swap it for v, x, y; if w still had unfilled neighbors on both the x
    and y sides, swap it for x, y; if all its unfilled neighbors sat on one
    side, swap it for v, x, y.
    """
    x, y = vertices_of(g.adj[v])
    bv, bx, by = 1 << v, 1 << x, 1 << y
    x_side, y_side = g.adj[x] & ~bv, g.adj[y] & ~bv
    drop = bv | bx | by
    attach = (g.adj[x] | g.adj[y]) & ~drop
    rows, old = _reindex(g, g.full & ~drop)
    w = len(old)
    w_row = 0
    for i, o in enumerate(old):
        if attach >> o & 1:
            rows[i] |= 1 << w
            w_row |= 1 << i
    rows.append(w_row)
    sub = Graph(w + 1, tuple(rows))

    def lift(filled: int) -> tuple[int, str]:
        lifted = mask_of(old[u] for u in iter_bits(filled & ~(1 << w)))
        if not filled >> w & 1:
            return lifted | bv, "delta2-case1"
        open_nbrs = (x_side | y_side) & ~(bv | bx | by) & ~lifted
        if not open_nbrs:
            return lifted | bv | bx | by, "delta2-case2a"
        if open_nbrs & x_side and open_nbrs & y_side:
            return lifted | bx | by, "delta2-case2bi"
        return lifted | bv | bx | by, "delta2-case2bii"

    return sub, lift
