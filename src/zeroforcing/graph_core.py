"""Small simple graphs stored as tuples of neighbor bitmasks.

Vertices are 0..n-1 with n <= 62, the most a graph6 record holds.  A
vertex set is a plain int whose bit v is set when vertex v belongs to the
set; the adjacency of a graph is one such mask per vertex.  Everything
here treats graphs as immutable values, and every choice a function makes
(component order, tie-breaks) is deterministic: lowest vertex index first.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MAX_VERTICES = 62


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the vertex indices of a bitmask in ascending order."""
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


def vertices_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into a sorted tuple of vertex indices."""
    return tuple(iter_bits(mask))


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    adj[v] is the neighbor bitmask of v.  Instances are hashable and
    compare by exact labeled structure.  A slotted class rather than a
    tuple, since the searches read g.n and g.adj in their loops; nothing
    assigns to them after construction.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]) -> None:
        self.n = n
        self.adj = adj

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Graph:
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, adj={self.adj!r})"

    @property
    def full(self) -> int:
        """Bitmask of the whole vertex set."""
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(a.bit_count() for a in self.adj)

    def min_degree(self) -> int:
        return min(self.degrees())

    def max_degree(self) -> int:
        return max(self.degrees())

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list, validating every endpoint."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def connected_components(g: Graph) -> list[int]:
    """Component bitmasks, ordered by size then by smallest member index."""
    comps = []
    seen = 0
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = comp
        while frontier:
            grown = 0
            for u in iter_bits(frontier):
                grown |= g.adj[u]
            frontier = grown & ~comp
            comp |= frontier
        seen |= comp
        comps.append(comp)
    comps.sort(key=lambda c: (c.bit_count(), c & -c))
    return comps


def is_connected(g: Graph) -> bool:
    """Does one search from vertex 0 reach every vertex?  The graph on no
    vertices has no component, so it is not connected."""
    reached = frontier = g.full & 1
    while frontier:
        bit = frontier & -frontier
        frontier ^= bit
        grown = g.adj[bit.bit_length() - 1] & ~reached
        reached |= grown
        frontier |= grown
    return g.n > 0 and reached == g.full


# ---------------------------------------------------------------------------
# Named families, mostly for tests and documentation examples.


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])

