import itertools
import random

import pytest

from zeroforcing import (
    ExactCapExceeded,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    derived_set,
    failed_zero_forcing_number,
    generate_graphs,
    is_connected,
    is_zero_forcing,
    mask_of,
    path_graph,
    petersen_graph,
    size_k_subsets,
    vertices_of,
    zero_forcing_number,
)

from conftest import random_graph
from naive import (
    adj_sets,
    naive_first_failed,
    naive_first_zero,
    naive_min_fort,
)


def test_size_k_subsets_matches_combinations():
    for n in range(0, 9):
        for k in range(0, n + 1):
            ours = list(size_k_subsets(n, k))
            theirs = [mask_of(c) for c in itertools.combinations(range(n), k)]
            assert sorted(ours) == sorted(theirs)
            # ascending as integers, so the lowest-index witness comes first
            assert ours == sorted(ours)


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


def test_failed_number_is_n_minus_smallest_fort():
    for n in range(1, 8):
        for g in generate_graphs(n):
            assert failed_zero_forcing_number(g).value == n - naive_min_fort(adj_sets(g))


@pytest.mark.parametrize("g, z, f", [
    (complete_graph(20), 19, 18),
    (cycle_graph(20), 2, 10),
    (path_graph(20), 1, 9),
    (complete_bipartite(10, 10), 18, 18),
], ids=["K20", "C20", "P20", "K10,10"])
def test_numbers_at_the_vertex_cap(g, z, f):
    zero = zero_forcing_number(g)
    failed = failed_zero_forcing_number(g)
    assert (zero.value, failed.value) == (z, f)
    assert zero.witness.bit_count() == z and derived_set(g, zero.witness) == g.full
    assert failed.witness.bit_count() == f and derived_set(g, failed.witness) != g.full


def test_cap_enforced():
    g = path_graph(6)
    with pytest.raises(ExactCapExceeded):
        zero_forcing_number(g, cap=5)
    with pytest.raises(ExactCapExceeded):
        failed_zero_forcing_number(g, cap=5)
    assert zero_forcing_number(g, cap=6).value == 1
