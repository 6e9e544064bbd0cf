import itertools

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
    zero_forcing_number,
)

from naive import adj_sets, naive_failed_number, naive_zero_number


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


def test_matches_naive_for_all_small_classes():
    for n in range(1, 7):
        for g in generate_graphs(n):
            adj = adj_sets(g)
            assert zero_forcing_number(g).value == naive_zero_number(adj)[0]
            assert failed_zero_forcing_number(g).value == naive_failed_number(adj)[0]


def test_cap_enforced():
    g = path_graph(6)
    with pytest.raises(ExactCapExceeded):
        zero_forcing_number(g, cap=5)
    with pytest.raises(ExactCapExceeded):
        failed_zero_forcing_number(g, cap=5)
    assert zero_forcing_number(g, cap=6).value == 1
