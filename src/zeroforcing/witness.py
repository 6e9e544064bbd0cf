"""Constructions of large failed zero forcing sets with certified sizes.

Each construction returns a WitnessReport: a vertex mask that provably
fails to force, the structural route that built it, and the size bound
that route guarantees.  Routes for connected graphs with minimum degree 3
use either a cut vertex or an alternating left/right partition; lower
minimum degrees recurse on a smaller graph (deleting a leaf edge, or
contracting the path around a degree-2 vertex) and lift the result back.
Every report is re-verified against the forcing rule before it is
returned, so a broken case analysis fails loudly instead of silently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from .forcing import derived_set
from .graph_core import (
    Graph,
    _dfs,
    _even_cycle,
    _tree_cycle,
    components_within,
    condense_path,
    connected_components,
    induced_subgraph,
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


@dataclass(frozen=True)
class WitnessReport:
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
    inside = report.filled & ~g.full == 0
    failures = []
    if not (inside and derived_set(g, report.filled) != g.full):
        failures.append("set forces the whole graph")
    if report.filled.bit_count() < report.guaranteed_bound:
        failures.append(
            f"set has {report.filled.bit_count()} vertices, below the bound "
            f"{report.guaranteed_bound}"
        )
    if not (inside and report.filled != g.full):
        failures.append("set is not a proper subset of the vertices")
    return tuple(failures)


def _check_partition(g: Graph, left: int, right: int) -> None:
    """Check that left and right split every vertex into two sides.

    Invariant: every left vertex has at least two right neighbors, and
    every right vertex at least two left neighbors.  Filling either side
    therefore leaves every filled vertex with two unfilled neighbors.
    """
    _require(left & right == 0, "partition sides overlap")
    _require(left | right == g.full, "partition misses vertices")
    for v in iter_bits(left):
        _require(
            (g.adj[v] & right).bit_count() >= 2,
            f"left vertex {v} lacks two cross neighbors",
        )
    for v in iter_bits(right):
        _require(
            (g.adj[v] & left).bit_count() >= 2,
            f"right vertex {v} lacks two cross neighbors",
        )


def _build_partition(g: Graph, seed: tuple[int, ...] | None) -> tuple[int, int]:
    """Left/right partition for connected, 2-connected, min degree 3.

    Seeds from the given even cycle, which every graph with min degree 3 has:
    the neighbors of the first vertex v0 of a longest path v0 ... vk all lie
    on the path, among them v1, vi and vj with 1 < i < j.  The cycles
    v0 ... vi, v0 ... vj and v0 vi ... vj have lengths i+1, j+1 and j-i+2,
    and one of these is even.  A missing seed therefore raises
    ConstructionError.  Remaining vertices are absorbed by four cases, in
    priority order: two assigned neighbors toward one side; an escape path
    when the two assigned neighbors sit on opposite sides; and, when every
    unassigned vertex touches at most one assigned vertex, a cycle (plus
    connecting paths) inside the unassigned residue.  Each case returns
    the vertices it absorbs and the side of the first; the sides alternate
    along them.  All scans take the lowest qualifying vertex.  Returns
    (left, right).
    """
    _require(seed is not None, "no even cycle in a graph with min degree 3")
    left = right = 0
    unassigned = g.full
    vertices, to_left = seed, True
    while True:
        for v in vertices:
            _require(unassigned >> v & 1, f"vertex {v} assigned twice")
            if to_left:
                left |= 1 << v
            else:
                right |= 1 << v
            unassigned ^= 1 << v
            to_left = not to_left
        if not unassigned:
            break
        vertices, to_left = (
            _absorb_two_sided(g, left, right, unassigned)
            or _absorb_split_pair(g, left, right, unassigned)
            or _absorb_residue(g, left, right, unassigned)
        )
    _check_partition(g, left, right)
    return left, right


def _absorb_two_sided(g, left, right, unassigned) -> tuple[list[int], bool] | None:
    """Cases 1 and 2: a vertex with two neighbors toward one side."""
    for v in iter_bits(unassigned):
        if (g.adj[v] & left).bit_count() >= 2:
            return [v], False
    for v in iter_bits(unassigned):
        if (g.adj[v] & right).bit_count() >= 2:
            return [v], True
    return None


def _absorb_split_pair(g, left, right, unassigned) -> tuple[list[int], bool] | None:
    """Case 3: exactly two assigned neighbors, one left and one right.

    Walks a shortest path from the vertex through unassigned territory to
    an assigned anchor (possibly one of the pair, reached again through at
    least one unassigned interior vertex) and alternates sides from the
    anchor back.  The anchor is the lowest assigned neighbor of the path's
    last vertex.  Such a path exists in a 2-connected graph.
    """
    assigned = left | right
    for v in iter_bits(unassigned):
        pair = g.adj[v] & assigned
        if pair.bit_count() != 2 or not (pair & left and pair & right):
            continue
        path = _attachment_path(g, g.adj[v] & unassigned, unassigned & ~(1 << v), assigned)
        _require(path is not None, f"no escape path from vertex {v}")
        anchors = g.adj[path[-1]] & assigned
        anchor = (anchors & -anchors).bit_length() - 1
        # the anchor's neighbor takes the anchor's opposite side
        return path[::-1] + [v], bool(right >> anchor & 1)
    return None


def _absorb_residue(g, left, right, unassigned) -> tuple[list[int], bool]:
    """Case 4: every unassigned vertex touches at most one assigned vertex.

    The unassigned residue then keeps minimum degree 2 and contains a
    cycle.  An even cycle is alternated directly.  Otherwise take an odd
    cycle plus shortest paths to two distinct attachment vertices and
    alternate along the arc whose parity makes both endpoints land opposite
    their assigned neighbors.
    """
    assigned = left | right
    sub, old = induced_subgraph(g, unassigned)
    _require(sub.min_degree() >= 2, "residue lost minimum degree 2")

    parent, depth, back, _ = _dfs(sub)
    even = _even_cycle(parent, depth, back)
    if even is not None:
        return [old[u] for u in even], True

    # Every fundamental cycle is odd, so the first back edge closes an odd
    # cycle when there is one.  Taking the first odd fundamental cycle is
    # complete: if every fundamental cycle is even, colouring by DFS depth
    # parity is proper.  A tree edge joins depths one apart, and every other
    # edge of an undirected DFS joins a vertex to an ancestor, closing a
    # cycle of length (depth difference + 1); that length is even, so the
    # depths differ by an odd number, and the graph is bipartite.  A residue
    # with minimum degree 2 has a cycle, and here no even one, so it is not
    # bipartite and has a back edge.
    _require(bool(back), "residue with min degree 2 has no cycle")
    cycle = [old[u] for u in _tree_cycle(parent, *back[0])]
    cycle_mask = mask_of(cycle)

    p_path = _attachment_path(g, cycle_mask, unassigned & ~cycle_mask, assigned)
    _require(p_path is not None, "no attachment path from the residue cycle")
    c0 = p_path[0]
    q_path = _attachment_path(
        g,
        cycle_mask ^ (1 << c0),
        unassigned & ~cycle_mask & ~mask_of(p_path),
        assigned,
    )
    _require(q_path is not None, "no second attachment path from the residue cycle")
    _require(not set(p_path) & set(q_path), "attachment paths intersect")

    v_end, w_end = p_path[-1], q_path[-1]
    v_anchor_mask = g.adj[v_end] & assigned
    w_anchor_mask = g.adj[w_end] & assigned
    _require(
        v_anchor_mask.bit_count() == 1 and w_anchor_mask.bit_count() == 1,
        "residue vertex touches more than one assigned vertex",
    )
    v_anchor = v_anchor_mask.bit_length() - 1
    w_anchor = w_anchor_mask.bit_length() - 1

    rotated = cycle[cycle.index(c0):] + cycle[:cycle.index(c0)]
    split = rotated.index(q_path[0])
    arc_fwd = rotated[: split + 1]
    arc_bwd = [rotated[0]] + rotated[split:][::-1]
    _require((len(arc_fwd) + len(arc_bwd)) % 2 == 1, "cycle arcs have equal parity")

    def full_path(arc: list[int]) -> list[int]:
        return p_path[::-1] + arc[1:] + q_path[1:]

    v_side, w_side = bool(left >> v_anchor & 1), bool(left >> w_anchor & 1)
    choice = full_path(arc_fwd)
    if (len(choice) - 1) % 2 != (v_side != w_side):
        choice = full_path(arc_bwd)
    return choice, not v_side


def _attachment_path(g, sources: int, allowed: int, assigned: int) -> list[int] | None:
    """Shortest path from a source vertex to any vertex with an assigned
    neighbor, moving only through allowed vertices.  Lowest index wins ties.
    Returns the path source..goal, or None."""
    parent: dict[int, int] = {}
    queue: deque[int] = deque()
    for s in iter_bits(sources):
        parent[s] = -1
        queue.append(s)
    while queue:
        cur = queue.popleft()
        if g.adj[cur] & assigned:
            path = [cur]
            while parent[path[-1]] != -1:
                path.append(parent[path[-1]])
            return path[::-1]
        for u in iter_bits(g.adj[cur] & allowed):
            if u not in parent:
                parent[u] = cur
                queue.append(u)
    return None


def witness_delta3(g: Graph) -> WitnessReport:
    """Guaranteed construction for connected graphs with min degree >= 3.

    With a cut vertex, take the lowest one, v, and fill every vertex
    outside the smallest component of g - v, v included (route
    "cut-vertex").  When v has a single neighbor w inside that component
    the set forces w and nothing else; the closure is then the stalled set
    the size guarantee refers to.  Otherwise fill the larger side of the
    left/right partition (route "algo1-even").  Both routes guarantee
    ceil(n/2) = floor((n+1)/2).  Raises ValueError when g has a vertex of
    degree below 3 or is disconnected.
    """
    if g.min_degree() < 3:
        raise ValueError("construction needs minimum degree 3")
    parent, depth, back, cuts = _dfs(g)
    if parent.count(-1) > 1:
        raise ValueError("construction needs a connected graph")
    if cuts:
        v = (cuts & -cuts).bit_length() - 1
        smallest = components_within(g, g.full ^ (1 << v))[0]
        fill, route = g.full & ~smallest, "cut-vertex"
        _require(derived_set(g, fill) != g.full, "cut-vertex fill forced the whole graph")
    else:
        left, right = _build_partition(g, _even_cycle(parent, depth, back))
        fill = left if left.bit_count() >= right.bit_count() else right
        route = "algo1-even"
    return WitnessReport(filled=fill, route=route, guaranteed_bound=(g.n + 1) // 2)


def witness_general(g: Graph) -> WitnessReport:
    """Stalled set of size >= floor((n-1)/2) for any graph.

    Dispatches on structure: keep the smallest component unfilled when
    disconnected; use the min-degree-3 constructions when possible; with a
    degree-1 vertex, delete it and its neighbor and recurse; with a
    degree-2 vertex, contract the path through it and recurse, lifting the
    smaller witness back by one of four cases.  The returned set is always
    literally stalled (a cut-vertex step's single force is absorbed by
    taking the closure).  Every recursion level checks that its set stalls
    and meets both bounds, so a broken lift raises ConstructionError.
    """
    report = _general(g)
    closed = derived_set(g, report.filled)
    if closed != report.filled:
        report = replace(report, filled=closed)
    _require(closed != g.full, f"route {report.route} did not stall")
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
    if dmin == 1:
        return _lift_leaf(g)
    return _lift_contraction(g)


def _lift_leaf(g: Graph) -> WitnessReport:
    """Min degree 1: drop a leaf v and its neighbor w, recurse, lift.

    If w still touches an unfilled surviving vertex, adding w alone keeps
    the child set stalled; otherwise add both v and w (both end up spent).
    """
    v = next(u for u in range(g.n) if g.degree(u) == 1)
    w = g.adj[v].bit_length() - 1
    keep = g.full & ~(1 << v) & ~(1 << w)
    sub, old = induced_subgraph(g, keep)
    child = witness_general(sub)
    lifted = mask_of(old[u] for u in iter_bits(child.filled))
    if g.adj[w] & keep & ~lifted:
        fill, tag = lifted | 1 << w, "delta1-a"
    else:
        fill, tag = lifted | 1 << v | 1 << w, "delta1-b"
    return WitnessReport(
        filled=fill,
        route=f"{tag}({child.route})",
        guaranteed_bound=(g.n - 1) // 2,
    )


def _lift_contraction(g: Graph) -> WitnessReport:
    """Min degree 2: contract the path x - v - y, recurse, lift by cases.

    With the replacement vertex w outside the child set, refill v alone.
    With w inside: if w was spent, swap it for v, x, y; if w still had
    unfilled neighbors on both the x and y sides, swap it for x, y; if all
    its unfilled neighbors sat on one side, swap it for v, x, y.
    """
    v = next(u for u in range(g.n) if g.degree(u) == 2)
    x, y = vertices_of(g.adj[v])
    sub, old, w = condense_path(g, v, x, y)
    child = witness_general(sub)
    lifted = mask_of(old[u] for u in iter_bits(child.filled & ~(1 << w)))
    bv, bx, by = 1 << v, 1 << x, 1 << y
    if not child.filled >> w & 1:
        fill, tag = lifted | bv, "delta2-case1"
    else:
        x_side = g.adj[x] & ~bv
        y_side = g.adj[y] & ~bv
        open_nbrs = (x_side | y_side) & ~(bv | bx | by) & ~lifted
        if not open_nbrs:
            fill, tag = lifted | bv | bx | by, "delta2-case2a"
        elif open_nbrs & x_side and open_nbrs & y_side:
            fill, tag = lifted | bx | by, "delta2-case2bi"
        else:
            fill, tag = lifted | bv | bx | by, "delta2-case2bii"
    return WitnessReport(
        filled=fill,
        route=f"{tag}({child.route})",
        guaranteed_bound=(g.n - 1) // 2,
    )
