import random

import networkx as nx
import pytest

from zeroforcing import (
    Graph,
    complete_bipartite,
    complete_graph,
    condense_path,
    connected_components,
    cycle_graph,
    from_edges,
    induced_subgraph,
    is_connected,
    iter_bits,
    mask_of,
    path_graph,
    petersen_graph,
    vertices_of,
)
from zeroforcing.graph_core import _dfs, _even_cycle, _tree_cycle, components_within

from conftest import random_graph
from naive import adj_sets, naive_components, naive_cut_vertices


def walk_cuts(g):
    return _dfs(g)[3]


def walk_even_cycle(g):
    parent, depth, back, _ = _dfs(g)
    return _even_cycle(parent, depth, back)


def walk_cycles(g):
    parent, _, back, _ = _dfs(g)
    return [_tree_cycle(parent, v, u) for v, u in back]


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(iter_bits(0b100101)) == [0, 2, 5]
    assert list(vertices_of(0)) == []


def test_from_edges_basics():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count() == 3
    assert g.has_edge(1, 2) and not g.has_edge(0, 3)
    assert g.degree(1) == 2
    assert g.degrees() == (1, 2, 2, 1)
    assert g.min_degree() == 1 and g.max_degree() == 2
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.full == 0b1111


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        from_edges(0, [])
    with pytest.raises(ValueError):
        from_edges(63, [])
    with pytest.raises(ValueError):
        from_edges(65, [])


def test_with_edge():
    g = path_graph(3)
    h = g.with_edge(0, 2)
    assert h.has_edge(0, 2)
    assert not g.has_edge(0, 2)
    assert h.edge_count() == g.edge_count() + 1


def test_families():
    assert path_graph(1).edge_count() == 0
    assert path_graph(5).degrees() == (1, 2, 2, 2, 1)
    assert cycle_graph(5).degrees() == (2,) * 5
    assert complete_graph(4).edge_count() == 6
    assert complete_bipartite(2, 3).degrees() == (3, 3, 2, 2, 2)
    p = petersen_graph()
    assert p.n == 10 and p.degrees() == (3,) * 10
    assert is_connected(p) and not walk_cuts(p)


def test_components_ordering():
    g = from_edges(6, [(0, 1), (2, 3), (3, 4)])
    comps = connected_components(g)
    assert comps == [mask_of([5]), mask_of([0, 1]), mask_of([2, 3, 4])]
    assert components_within(g, mask_of([0, 1, 2, 3, 4])) == [
        mask_of([0, 1]),
        mask_of([2, 3, 4]),
    ]


def test_components_match_naive():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.uniform(0.1, 0.6))
        ours = [set(vertices_of(c)) for c in connected_components(g)]
        theirs = naive_components(n, adj_sets(g))
        assert sorted(map(sorted, ours)) == sorted(map(sorted, theirs))


def test_cut_vertices_match_naive():
    rng = random.Random(23)
    graphs = []
    for _ in range(400):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        if is_connected(g):
            graphs.append(g)
    # the walk recurses as deep as the graph is long: spanning tree plus
    # up to n chords, relabelled, up to the vertex cap
    for _ in range(300):
        n = rng.randint(11, 62)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n))]
        perm = rng.sample(range(n), n)
        graphs.append(from_edges(n, [(perm[u], perm[v]) for u, v in edges]))
    for g in graphs:
        assert set(vertices_of(walk_cuts(g))) == naive_cut_vertices(g.n, adj_sets(g))


def test_cut_vertices_known():
    assert walk_cuts(path_graph(5)) == mask_of([1, 2, 3])
    assert walk_cuts(cycle_graph(5)) == 0
    assert walk_cuts(complete_graph(4)) == 0
    two_triangles = from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert walk_cuts(two_triangles) == mask_of([2])
    # a disconnected graph is walked as a forest, one root per component
    parent, depth, back, cuts = _dfs(from_edges(4, [(0, 1), (1, 2)]))
    assert parent == [-1, 0, 1, -1] and depth == [0, 1, 2, 0]
    assert back == [] and cuts == mask_of([1])


def _check_cycle(g, vs, want_even):
    assert len(vs) >= 3 and len(set(vs)) == len(vs)
    assert (len(vs) % 2 == 0) == want_even
    for a, b in zip(vs, vs[1:] + vs[:1]):
        assert g.has_edge(a, b)


def _first_odd_cycle(g):
    return next((c for c in walk_cycles(g) if len(c) % 2), None)


def test_cycle_finders_known():
    assert walk_even_cycle(path_graph(6)) is None
    assert _first_odd_cycle(path_graph(6)) is None
    assert walk_even_cycle(cycle_graph(5)) is None
    _check_cycle(cycle_graph(5), _first_odd_cycle(cycle_graph(5)), want_even=False)
    _check_cycle(cycle_graph(6), walk_even_cycle(cycle_graph(6)), want_even=True)
    assert _first_odd_cycle(cycle_graph(6)) is None
    assert _first_odd_cycle(complete_bipartite(3, 4)) is None
    _check_cycle(complete_graph(4), walk_even_cycle(complete_graph(4)), want_even=True)


def test_cycle_finders_at_the_vertex_cap():
    # the walk is one recursive DFS, as deep as the graph is long
    assert walk_cycles(cycle_graph(61)) == [tuple(range(61))]
    assert sorted(walk_even_cycle(cycle_graph(62))) == list(range(62))
    assert walk_cycles(path_graph(62)) == []
    assert walk_cuts(path_graph(62)) == mask_of(range(1, 61))


def _has_even_cycle_brute(g):
    # Walk every simple cycle through its lowest vertex, smallest first.
    def extend(path, seen):
        start, last = path[0], path[-1]
        if len(path) >= 3 and g.has_edge(last, start) and len(path) % 2 == 0:
            return True
        for u in iter_bits(g.adj[last]):
            if u > start and not seen >> u & 1:
                if extend(path + [u], seen | 1 << u):
                    return True
        return False

    return any(extend([v], 1 << v) for v in range(g.n))


def test_even_cycle_finder_is_complete():
    graphs = []
    # The dense batch gives the minimum-degree-3 assertion about a hundred graphs.
    for seed, count, n_range, p_range in ((37, 400, (3, 9), (0.15, 0.5)),
                                          (43, 200, (4, 9), (0.5, 0.9))):
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(*n_range)
            graphs.append(random_graph(rng, n, rng.uniform(*p_range)))
    for g in graphs:
        found = walk_even_cycle(g)
        if found is not None:
            _check_cycle(g, found, want_even=True)
        if g.min_degree() >= 3:
            assert found is not None
        assert (found is not None) == _has_even_cycle_brute(g)


def test_odd_cycle_finder_matches_bipartiteness():
    rng = random.Random(41)
    for _ in range(400):
        n = rng.randint(3, 10)
        g = random_graph(rng, n, rng.uniform(0.15, 0.5))
        found = _first_odd_cycle(g)
        if found is not None:
            _check_cycle(g, found, want_even=False)
        assert (found is None) == nx.is_bipartite(nx.Graph(g.edges()))


def test_induced_subgraph():
    g = cycle_graph(5)
    sub, old = induced_subgraph(g, mask_of([0, 1, 3]))
    assert sub.n == 3
    assert old == (0, 1, 3)
    assert sub.edges() == [(0, 1)]


def test_condense_path():
    g = cycle_graph(5)
    sub, old, w = condense_path(g, 1, 0, 2)
    assert sub.n == 3 and w == 2
    assert old == (3, 4)
    # w inherits the outside neighborhoods of both ends
    assert sub.edges() == [(0, 1), (0, 2), (1, 2)]
    with pytest.raises(ValueError):
        condense_path(g, 1, 0, 3)


def test_condense_path_keeps_existing_attachment():
    g = from_edges(5, [(0, 1), (1, 2), (0, 3), (2, 3), (3, 4), (0, 2)])
    sub, old, w = condense_path(g, 1, 0, 2)
    assert sub.n == 3
    assert old == (3, 4)
    assert set(sub.edges()) == {(0, 1), (0, 2)}


def test_validate_catches_corruption():
    g = Graph(2, (0b10, 0b00))
    with pytest.raises(ValueError):
        g.validate()
    ok = Graph(2, (0b10, 0b01))
    ok.validate()
