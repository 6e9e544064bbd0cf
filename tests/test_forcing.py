import random

from zeroforcing import (
    complete_bipartite,
    cycle_graph,
    derived_set,
    from_edges,
    is_zero_forcing,
    mask_of,
    path_graph,
)

from conftest import random_graph
from naive import adj_sets, naive_closure


def test_closure_path_end():
    g = path_graph(5)
    assert derived_set(g, mask_of([0])) == g.full


def test_closure_path_middle_stalls():
    g = path_graph(5)
    assert derived_set(g, mask_of([2])) == mask_of([2])


def test_closure_sweep_order():
    # two independent chains both force through to their ends
    g = from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert derived_set(g, mask_of([0, 3])) == g.full


def test_closure_empty_and_full():
    g = cycle_graph(4)
    assert derived_set(g, 0) == 0
    assert derived_set(g, g.full) == g.full


def test_derived_set_matches_naive():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.uniform(0.1, 0.7))
        filled = rng.getrandbits(n)
        ours = derived_set(g, filled)
        theirs = naive_closure(adj_sets(g), set(i for i in range(n) if filled >> i & 1))
        assert ours == mask_of(theirs)


def test_is_zero_forcing():
    g = path_graph(4)
    assert is_zero_forcing(g, mask_of([0]))
    assert is_zero_forcing(g, mask_of([3]))
    assert not is_zero_forcing(g, mask_of([1]))
    assert not is_zero_forcing(g, 0)
    assert is_zero_forcing(g, g.full)


def test_stalled_set_examples():
    # all leaves of a star force through the center
    star = complete_bipartite(1, 4)
    assert derived_set(star, mask_of([1, 2, 3, 4])) == star.full
    # center plus some leaves stalls while two leaves stay unfilled
    assert derived_set(star, mask_of([0, 1, 2])) == mask_of([0, 1, 2]) != star.full
    # alternate vertices of an even cycle are stalled
    c6 = cycle_graph(6)
    assert derived_set(c6, mask_of([0, 2, 4])) == mask_of([0, 2, 4]) != c6.full
