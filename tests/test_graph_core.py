import pickle
import random

import pytest

from zeroforcing import (
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    from_edges,
    generate_graphs,
    is_connected,
    iter_bits,
    mask_of,
    path_graph,
    vertices_of,
)
from zeroforcing import witness

from conftest import edges, petersen_graph, random_graph
from naive import adj_sets, naive_components


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(iter_bits(0b100101)) == [0, 2, 5]
    assert list(vertices_of(0)) == []


def test_from_edges_basics():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count() == 3
    assert g.adj[1] >> 2 & 1 and not g.adj[0] >> 3 & 1
    assert g.degree(1) == 2
    assert g.degrees() == (1, 2, 2, 1)
    assert g.min_degree() == 1 and g.max_degree() == 2
    assert edges(g) == [(0, 1), (1, 2), (2, 3)]
    assert g.full == 0b1111
    # a value: equal and equally hashed by n and adj alone, never equal
    # to a plain (n, adj) tuple, and intact through pickle (the census
    # pool pickles its slices)
    same = from_edges(4, [(3, 2), (2, 1), (1, 0)])
    assert g == same and hash(g) == hash(same) and not g != same
    assert g != from_edges(4, [(0, 1), (1, 2)]) and g != from_edges(5, edges(g))
    assert g != (4, g.adj) and (4, g.adj) != g
    assert len({g, same, path_graph(4)}) == 1
    assert pickle.loads(pickle.dumps(g)) == g
    assert repr(g) == "Graph(n=4, adj=(2, 5, 10, 4))" == repr(pickle.loads(pickle.dumps(g)))


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


def test_families():
    assert path_graph(1).edge_count() == 0
    assert path_graph(5).degrees() == (1, 2, 2, 2, 1)
    assert cycle_graph(5).degrees() == (2,) * 5
    assert complete_graph(4).edge_count() == 6
    assert complete_bipartite(2, 3).degrees() == (3, 3, 2, 2, 2)
    p = petersen_graph()
    assert p.n == 10 and p.degrees() == (3,) * 10
    assert is_connected(p)


def test_components_ordering():
    g = from_edges(6, [(0, 1), (2, 3), (3, 4)])
    comps = connected_components(g)
    assert comps == [mask_of([5]), mask_of([0, 1]), mask_of([2, 3, 4])]


def test_components_match_naive():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.uniform(0.1, 0.6))
        ours = [set(vertices_of(c)) for c in connected_components(g)]
        theirs = naive_components(n, adj_sets(g))
        assert sorted(map(sorted, ours)) == sorted(map(sorted, theirs))


def test_is_connected_matches_the_components():
    # every class with n <= 8, then random graphs, some of them sparse
    # enough to split; n = 1 is a class of the first level
    graphs = [g for n in range(1, 9) for g in generate_graphs(n)]
    rng = random.Random(13)
    graphs += [random_graph(rng, n, rng.uniform(0.05, 0.5))
               for n in rng.choices(range(1, 30), k=500)]
    assert sum(not is_connected(g) for g in graphs) > 1000
    for g in graphs:
        assert is_connected(g) == (len(connected_components(g)) == 1), g
    assert is_connected(from_edges(1, []))



# Induced subgraphs and path condensation are built by the witness
# reductions, which number the survivors in ascending order; each lift
# maps a new vertex back to its old index.
def test_induced_subgraph():
    # the leaf pair: leaf 4 and its neighbor 2 go, the survivors 0, 1, 3
    # keep their order, and the lift maps each back to its old index
    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    sub, lift = witness._leaf_pair(g, 4)
    assert sub.n == 3
    assert edges(sub) == [(0, 1)]
    for i, o in enumerate((0, 1, 3)):
        assert lift(1 << i)[0] & ~mask_of([2, 4]) == 1 << o
    assert lift(mask_of([0, 1])) == (mask_of([0, 1, 2]), "delta1-a")


def test_condense_path():
    # the path 0 - 1 - 2 of C5 contracts to the merged vertex 2, which gets
    # the outside neighbors of both ends: 4 of x = 0 and 3 of y = 2
    sub, lift = witness._degree2_path(cycle_graph(5), 1)
    assert sub.n == 3
    assert edges(sub) == [(0, 1), (0, 2), (1, 2)]
    assert lift(1 << 0) == (mask_of([1, 3]), "delta2-case1")
    assert lift(1 << 1) == (mask_of([1, 4]), "delta2-case1")
    assert lift(1 << 2) == (mask_of([0, 2]), "delta2-case2bi")


def test_condense_path_keeps_existing_attachment():
    # vertex 3, already adjacent to both ends, gets one edge to the
    # merged vertex, not two
    g = from_edges(5, [(0, 1), (1, 2), (0, 3), (2, 3), (3, 4), (0, 2)])
    sub, lift = witness._degree2_path(g, 1)
    assert sub.n == 3
    assert edges(sub) == [(0, 1), (0, 2)]
    assert sub.degree(2) == 1
    assert lift(1 << 0) == (mask_of([1, 3]), "delta2-case1")
    assert lift(1 << 1) == (mask_of([1, 4]), "delta2-case1")
