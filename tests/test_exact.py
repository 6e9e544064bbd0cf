import itertools
import os
import random

import pytest

from zeroforcing import (
    ExactCapExceeded,
    ExactResult,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    derived_set,
    failed_zero_forcing_number,
    from_edges,
    generate_graphs,
    is_connected,
    is_zero_forcing,
    mask_of,
    path_graph,
    vertices_of,
    write_graph6,
    zero_forcing_number,
)

from conftest import petersen_graph, random_graph
from naive import (
    adj_sets,
    naive_first_failed,
    naive_first_zero,
    naive_min_fort,
)


def test_path_numbers():
    for n in range(1, 13):
        g = path_graph(n)
        assert zero_forcing_number(g).value == 1
        assert failed_zero_forcing_number(g).value == (n - 1) // 2


def test_family_numbers():
    assert zero_forcing_number(cycle_graph(4)).value == 2
    assert failed_zero_forcing_number(cycle_graph(4)).value == 2
    assert zero_forcing_number(complete_graph(5)).value == 4
    assert failed_zero_forcing_number(complete_graph(5)).value == 3
    assert zero_forcing_number(complete_bipartite(2, 3)).value == 3
    assert failed_zero_forcing_number(complete_bipartite(2, 3)).value == 3
    assert zero_forcing_number(petersen_graph()).value == 5


def test_witnesses_are_what_they_claim():
    g = cycle_graph(4)
    z = zero_forcing_number(g)
    assert z.witness.bit_count() == z.value
    assert is_zero_forcing(g, z.witness)
    f = failed_zero_forcing_number(g)
    assert f.witness.bit_count() == f.value
    assert derived_set(g, f.witness) != g.full
    # first witness in subset order from the top
    assert f.witness == mask_of([0, 2])
    assert f == ExactResult(2, 0b0101) == ExactResult(witness=0b0101, value=2)
    assert hash(f) == hash(ExactResult(2, 0b0101))
    with pytest.raises(AttributeError):
        f.value = 3


def test_single_vertex():
    g = path_graph(1)
    assert zero_forcing_number(g).value == 1
    f = failed_zero_forcing_number(g)
    assert f.value == 0 and f.witness == 0


def _assert_first_witnesses(g):
    adj = adj_sets(g)
    z = zero_forcing_number(g)
    f = failed_zero_forcing_number(g)
    assert (z.value, vertices_of(z.witness)) == naive_first_zero(adj)
    assert (f.value, vertices_of(f.witness)) == naive_first_failed(adj)


def test_matches_naive_for_all_small_classes():
    # every class up to 6 vertices, and the connected ones on 7
    for n in range(1, 8):
        for g in generate_graphs(n):
            if n < 7 or is_connected(g):
                _assert_first_witnesses(g)


def test_witnesses_match_naive_first_subsets_on_random_graphs():
    rng = random.Random(41)
    disconnected = 0
    for i in range(60):
        n = rng.randint(9, 12)
        p = rng.uniform(0.1, 0.3) if i % 2 else rng.uniform(0.5, 0.85)
        g = random_graph(rng, n, p)
        disconnected += not is_connected(g)
        _assert_first_witnesses(g)
    assert disconnected >= 5  # sanity: the sparse draws split up
    # and n = 13..16 at three densities, drawn after the graphs above
    for n in range(13, 17):
        for p in (0.2, 0.5, 0.8) * 2:
            _assert_first_witnesses(random_graph(rng, n, p))


def _sparse_shapes(ns, seed):
    """Two graphs per n in ns, the shapes taken in turn from a cycle, a
    cycle with one chord and a path, each relabelled at random."""
    rng = random.Random(seed)
    shapes = itertools.cycle(("cycle", "chord", "path"))
    graphs = []
    for n in ns:
        for shape in (next(shapes), next(shapes)):
            edges = [(i, i + 1) for i in range(n - 1)]
            if shape != "path":
                edges.append((n - 1, 0))
            if shape == "chord":
                a = rng.randrange(n)
                edges.append((a, (a + rng.randint(2, n - 2)) % n))
            label = rng.sample(range(n), n)
            graphs.append(from_edges(n, [(label[u], label[v]) for u, v in edges]))
    return graphs


def _assert_deep_fort_searches(graphs):
    for g in graphs:
        # a smallest fort of 7 or more vertices: the F search runs through 5 or more sizes
        assert failed_zero_forcing_number(g).value <= g.n - 7, write_graph6(g)
        _assert_first_witnesses(g)


def test_deep_fort_searches_match_naive():
    _assert_deep_fort_searches(_sparse_shapes(range(13, 17), seed=53))


@pytest.mark.skipif(not os.environ.get("RUN_EXTENDED"),
                    reason="about 40 s of CPU; set RUN_EXTENDED=1")
def test_extended_deep_fort_searches_match_naive():
    _assert_deep_fort_searches(_sparse_shapes(range(17, 21), seed=54))


def test_failed_number_is_n_minus_smallest_fort():
    for n in range(1, 8):
        for g in generate_graphs(n):
            assert failed_zero_forcing_number(g).value == n - naive_min_fort(adj_sets(g))


def _isolated(adj: list[set[int]]) -> list[int]:
    return [v for v, nbrs in enumerate(adj) if not nbrs]


def _twin_pairs(adj: list[set[int]]) -> set[tuple[int, int]]:
    """Pairs u < v with N(u) minus v equal to N(v) minus u."""
    return {(u, v) for u, v in itertools.combinations(range(len(adj)), 2)
            if adj[u] - {v} == adj[v] - {u}}


def _planted(n, seed, twins=(), isolated=()):
    """A G(n, 1/2) graph with small forts planted in it.  For each
    (u, v, adjacent) in twins, v takes u's neighbors, plus u itself when
    adjacent; then each vertex in isolated loses its edges."""
    rng = random.Random(seed)
    adj = [set() for _ in range(n)]
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.5:
            adj[u].add(v)
            adj[v].add(u)

    def clear(v):
        for w in adj[v]:
            adj[w].discard(v)
        adj[v] = set()

    for u, v, adjacent in twins:
        clear(v)
        for w in adj[u] | ({u} if adjacent else set()):
            adj[v].add(w)
            adj[w].add(v)
    for v in isolated:
        clear(v)
    return from_edges(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


@pytest.mark.parametrize("n, seed, twins, isolated, pairs, fort", [
    # an isolated vertex beats a numerically larger twin pair
    (10, 1, [(8, 9, True)], [3], {(8, 9)}, [3]),
    # of two isolated vertices, the higher one; they are twins of each other too
    (11, 2, [(4, 10, False)], [2, 6], {(2, 6), (4, 10)}, [6]),
    # twin classes {3, 7, 12} (false) and {1, 9, 13} (true): the largest
    # pair has the highest v, then the highest u below it
    (14, 3, [(3, 7, False), (3, 12, False), (1, 9, True), (1, 13, True)], [],
     {(3, 7), (3, 12), (7, 12), (1, 9), (1, 13), (9, 13)}, [9, 13]),
    # the same with the highest pair false twins and a true pair below it
    (12, 4, [(5, 8, False), (5, 11, False), (0, 10, True)], [],
     {(5, 8), (5, 11), (8, 11), (0, 10)}, [8, 11]),
    # twin-free with no isolated vertex: the smallest fort has 3 or more
    (10, 5, [], [], set(), None),
], ids=["isolated-beats-twins", "higher-isolated", "largest-true-pair",
        "largest-false-pair", "twin-free"])
def test_small_forts_give_the_first_witness(n, seed, twins, isolated, pairs, fort):
    g = _planted(n, seed, twins, isolated)
    adj = adj_sets(g)
    assert _isolated(adj) == isolated and _twin_pairs(adj) == pairs
    f = failed_zero_forcing_number(g)
    if fort is None:
        assert f.value <= n - 3
    else:
        assert f.witness == g.full ^ mask_of(fort)
    assert (f.value, vertices_of(f.witness)) == naive_first_failed(adj)


def test_small_fort_rules_match_the_naive_smallest_fort():
    # every class up to 7 vertices, disconnected ones included
    for n in range(1, 8):
        for g in generate_graphs(n):
            adj = adj_sets(g)
            m = naive_min_fort(adj)
            assert (m == 1) == bool(_isolated(adj))
            assert (m == 2) == (not _isolated(adj) and bool(_twin_pairs(adj)))


@pytest.mark.parametrize("g, z, f", [
    (complete_graph(20), 19, 18),
    (cycle_graph(20), 2, 10),
    (path_graph(20), 1, 9),
    (complete_bipartite(10, 10), 18, 18),
    (complete_bipartite(2, 17), 17, 17),
    (complete_bipartite(3, 16), 17, 17),
], ids=["K20", "C20", "P20", "K10,10", "K2,17", "K3,16"])
def test_numbers_at_the_vertex_cap(g, z, f):
    zero = zero_forcing_number(g)
    failed = failed_zero_forcing_number(g)
    assert (zero.value, failed.value) == (z, f)
    assert zero.witness.bit_count() == z and derived_set(g, zero.witness) == g.full
    assert failed.witness.bit_count() == f and derived_set(g, failed.witness) != g.full


def _closed_forms(ns, complete, bicliques):
    """(graph, Z, Z's first witness or None, F) from the closed forms for
    P_n and C_n with n in ns, K_n with n in complete, and K_{a,b} with
    (a, b) in bicliques."""
    return ([(path_graph(n), 1, (0,), (n - 1) // 2) for n in ns]
            + [(cycle_graph(n), 2, (0, 1), n // 2) for n in ns if n >= 3]
            + [(complete_graph(n), n - 1, tuple(range(n - 1)), n - 2) for n in complete]
            + [(complete_bipartite(a, b), a + b - 2, None, a + b - 2) for a, b in bicliques])


def test_closed_forms_above_the_cap():
    # no naive oracle reaches past the cap, so the forms are checked against it below
    small = _closed_forms(range(1, 10), range(2, 10),
                          [(a, b) for a in range(1, 5) for b in range(max(a, 2), 10 - a)])
    for g, z, witness, f in small:
        adj = adj_sets(g)
        value, first = naive_first_zero(adj)
        assert (value, naive_first_failed(adj)[0]) == (z, f), write_graph6(g)
        assert witness in (None, first)
    large = [(8, 8)] + [(a, b) for a in (2, 3) for b in range(14, 31)]
    for g, z, witness, f in _closed_forms(range(21, 31), [24], large):
        zero = zero_forcing_number(g, cap=g.n)
        failed = failed_zero_forcing_number(g, cap=g.n)
        assert (zero.value, failed.value) == (z, f), write_graph6(g)
        assert witness in (None, vertices_of(zero.witness))
        assert zero.witness.bit_count() == z and derived_set(g, zero.witness) == g.full
        assert failed.witness.bit_count() == f and derived_set(g, failed.witness) != g.full


def test_cap_enforced():
    g = path_graph(6)
    with pytest.raises(ExactCapExceeded):
        zero_forcing_number(g, cap=5)
    with pytest.raises(ExactCapExceeded):
        failed_zero_forcing_number(g, cap=5)
    assert zero_forcing_number(g, cap=6).value == 1
