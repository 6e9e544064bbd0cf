"""Exact zero forcing and failed zero forcing numbers.

Both searches take any graph and return a value and a witness, and the
witness is the first qualifying subset in ascending bit-pattern order, so
results are fully deterministic.  Their cost grows exponentially; how
large a graph to search is the caller's choice.

The zero forcing number comes from the wavefront of Brimkov, Fast and
Hicks ("Computational approaches for zero forcing and related problems",
EJOR 273, 2019): a cheapest-first search over closed sets finds the
value, and then a depth-first search over the sets of that size, pruned
by closure, finds the witness.  That closure is skipped where one force
settles it: a kept neighbor of the dropped vertex with no other neighbor
left out forces it.

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
from the nodes the last cap cut off, so no size is searched twice.  The
search carries the vertices with one and with two neighbors in the fort,
so a node one vertex short of the cap tests every last vertex in one
pass instead of branching on it.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

from .forcing import _derived
from .graph_core import Graph


class ExactResult(NamedTuple):
    """An exact value plus one witnessing vertex mask: a minimum zero
    forcing set, or a maximum failed (non-forcing) set."""

    value: int
    witness: int


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
    """The zero forcing number alone, with no witness.

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


def zero_forcing_number(g: Graph) -> ExactResult:
    """Minimum size of a zero forcing set Z, from the wavefront, with the
    first forcing set of size Z in ascending order as the witness.

    A depth-first search decides the highest undecided vertex first,
    outside before inside: every set below a node agrees above that
    vertex, so the sets of size Z are met in ascending order.  The outside
    branch is pruned when the inside and the other undecided vertices
    together do not force (closure is monotone, so no set below it does).
    The closure is skipped when one force settles it: a kept neighbor u
    of the dropped vertex v whose other neighbors are all kept forces v,
    and the kept vertices plus v are the node's inside and undecided
    vertices, which force.  A node with no places left, or as many as
    undecided vertices, holds one set.

    Any graph is searched, at a cost that can grow exponentially with n:
    the wavefront may hold exponentially many closed sets.
    """
    adj, full = g.adj, g.full
    value = _zero_forcing_value(g)

    def search(inside: int, undecided: int, places: int) -> int | None:
        # inside | undecided forces, and places <= |undecided|
        if places == undecided.bit_count():
            return inside | undecided
        if not places:
            return inside if _derived(adj, full, inside) == full else None
        v = undecided.bit_length() - 1
        bit = 1 << v
        rest = undecided ^ bit
        kept = inside | rest
        # a kept neighbor of v with no neighbor left out above this node forces v
        gaps = full & ~(inside | undecided)
        quick = adj[v] & kept
        while quick:
            u = quick & -quick
            if not adj[u.bit_length() - 1] & gaps:
                break
            quick ^= u
        found = (search(inside, rest, places)
                 if quick or _derived(adj, full, kept) == full else None)
        return found if found is not None else search(inside | bit, rest, places - 1)

    witness = search(0, full, value)
    if witness is None:
        raise AssertionError("the wavefront cost is always reached by some subset")
    return ExactResult(value, witness)


def _smallest_fort(adj: tuple[int, ...], full: int) -> int:
    """The numerically largest of the smallest forts, on a graph with no
    fort of fewer than three vertices.

    Depth-first search over (inside, outside) decisions under a cap on
    the fort size, raised one vertex at a time from 3.  Each branching
    node decides its highest undecided vertex, trying inside before
    outside.  Every fort below the node agrees on the vertices above that
    one, so the inside branch holds only larger forts than the outside
    branch, and forts are met in descending numeric order.

    Each node carries two masks: some, the vertices with at least one
    neighbor inside, and two, those with at least two.  A vertex w that
    joins the inside, by branching or by settling, updates them with
    two |= some & adj[w], then some |= adj[w].

    Each node first settles what its excluded vertices imply.  An
    excluded vertex u with one neighbor inside and none undecided breaks
    the fort; with one inside and one undecided, that neighbor must join;
    with none inside and one undecided, that neighbor must stay out, as
    joining would leave u with exactly one inside.  Every fort below the
    node makes the same choices, so settling skips no fort.  Only the
    excluded vertices in dirty, whose neighborhoods changed, are
    examined, and each decision marks the ones it touches.  Settling does
    not read the cap.

    A settled node one vertex short of the cap takes its last vertex in
    one pass.  Its forts at the cap are the sets inside | x, for an
    undecided x, with every other vertex outside.  Such a set is a fort
    exactly when x equals or neighbors every vertex of one (the vertices
    not inside with exactly one neighbor inside) and neighbors no vertex
    of none (those not inside with no neighbor inside).  one is never
    empty, since inside is too small to be a fort, so only the x on or
    next to its lowest vertex are tried, highest first.  The branching
    would meet the largest such fort first, and settling skips no fort,
    so the pass returns the fort the branching would.  A settled node
    whose fort is at the cap is a fort exactly when one is empty.

    The cap cuts a node off when its settled fort is over the cap, at
    the cap with vertices still undecided, or one short of the cap with
    vertices undecided and no last vertex that makes a fort.  The search
    records each cut node, settled, in the order it meets them, and the
    next cap resumes from those nodes in that order instead of from the
    root.  A search from the root at the next cap would walk the same
    tree, except that it goes on below the cut nodes.  Outside their
    subtrees, every node it tests has no vertex undecided, and its fort
    is too small or failed its test at the last cap.  A node one short of
    the cap stands for its whole subtree at that cap, whose leaves are
    all inside | x, none a fort, so recording it in their place keeps
    their position in the order.  The cut nodes' subtrees are disjoint
    and lie in depth-first order, so their leaves come in the same order
    as in that search.  So the first fort met at each cap is the one the
    search from the root would meet first: as no smaller fort exists, the
    numerically largest fort of exactly cap vertices.

    The cut nodes are kept as four words each, inside, outside, some and
    two, in an unsigned 64-bit array (n <= 62), 32 bytes a node, so a
    resumed node never recounts its neighbors.  Recording nodes one short
    of the cap halves their number: on a path it doubles with each size,
    to 2^(n/2 - 2) at the last.
    """
    cap = 3
    cut = array("Q")

    def search(inside: int, outside: int, some: int, two: int, dirty: int) -> int | None:
        # some and two: the vertices with at least one and at least two neighbors inside
        while dirty:
            bit = dirty & -dirty
            dirty ^= bit
            if bit & two:
                continue  # two or more inside: u is satisfied for good
            nbrs = adj[bit.bit_length() - 1]
            open_ = nbrs & ~(inside | outside)
            if open_ & (open_ - 1):
                continue
            if bit & some:
                if not open_:
                    return None
                inside |= open_
                row = adj[open_.bit_length() - 1]
                two |= some & row
                some |= row
                dirty |= row & outside
            elif open_:
                outside |= open_
                dirty |= adj[open_.bit_length() - 1] & outside | open_
        size = inside.bit_count()
        undecided = full & ~(inside | outside)
        if size < cap - 1 and undecided:
            v = undecided.bit_length() - 1
            bit = 1 << v
            row = adj[v]
            touched = row & outside
            return (search(inside | bit, outside, some | row, two | some & row, touched)
                    or search(inside, outside | bit, some, two, touched | bit))
        if size == cap - 1:
            one = some & ~two & ~inside
            none = full & ~some & ~inside
            y = one & -one
            rest = undecided & (adj[y.bit_length() - 1] | y)
            while rest:
                x = rest.bit_length() - 1
                bit = 1 << x
                row = adj[x]
                if not (one & ~(row | bit) or row & none):
                    return inside | bit
                rest ^= bit
        elif size == cap and not some & ~two & ~inside:
            return inside
        if undecided or size > cap:
            cut.extend((inside, outside, some, two))
        return None

    fort = search(0, 0, 0, 0, 0)
    while not fort:
        if not cut:
            raise AssertionError("the whole vertex set is a fort")
        cap += 1
        nodes = iter(cut)
        cut = array("Q")
        for inside in nodes:
            fort = search(inside, next(nodes), next(nodes), next(nodes), 0)
            if fort:
                break
    return fort


def failed_zero_forcing_number(g: Graph) -> ExactResult:
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

    Any graph is searched, at a cost that grows exponentially with the
    smallest fort's size, whatever n is: F(P_42), whose smallest fort has
    22 vertices, takes 2.8 s at a peak RSS of 55 MB (2 cores, Python 3.11).
    """
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
