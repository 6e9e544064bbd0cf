"""Randomized and exhaustive behavior checks for the forcing closure."""

import random

from zeroforcing import (
    derived_set,
    from_edges,
    generate_graphs,
    iter_bits,
    mask_of,
)

from conftest import edges, random_graph
from naive import adj_sets, naive_closure_random

PAIRS = 10_000


def _random_pairs(seed):
    rng = random.Random(seed)
    for _ in range(PAIRS):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.uniform(0.05, 0.95))
        yield rng, g, rng.getrandbits(n)


def test_closure_is_extensive_and_idempotent():
    for rng, g, s in _random_pairs(1201):
        closed = derived_set(g, s)
        assert closed & s == s
        assert derived_set(g, closed) == closed


def test_closure_is_monotone():
    for rng, g, s in _random_pairs(1202):
        t = s | rng.getrandbits(g.n)
        assert derived_set(g, t) & derived_set(g, s) == derived_set(g, s)


def test_closure_is_confluent():
    # the forced set never depends on which available force fires first
    for rng, g, s in _random_pairs(1203):
        ours = derived_set(g, s)
        shuffled = naive_closure_random(
            adj_sets(g), {v for v in range(g.n) if s >> v & 1}, rng)
        assert ours == mask_of(shuffled)


def test_maximum_failed_sets_are_stalled():
    for n in range(1, 8):
        for g in generate_graphs(n):
            failed_by_size: dict[int, list[int]] = {}
            for s in range(1 << n):
                if derived_set(g, s) != g.full:
                    failed_by_size.setdefault(s.bit_count(), []).append(s)
            if not failed_by_size:
                continue
            for s in failed_by_size[max(failed_by_size)]:
                assert derived_set(g, s) == s != g.full


def test_inclusion_maximal_failed_sets_are_stalled():
    for n in range(1, 8):
        for g in generate_graphs(n):
            for s in range(1 << n):
                if derived_set(g, s) == g.full:
                    continue
                grown = [s | 1 << v for v in range(n) if not s >> v & 1]
                if all(derived_set(g, t) == g.full for t in grown):
                    assert derived_set(g, s) == s != g.full


def test_unspent_stalled_sets_survive_any_edge_addition():
    for n in range(2, 8):
        for g in generate_graphs(n):
            grown = [from_edges(n, edges(g) + [(u, v)])
                     for u in range(n) for v in range(u + 1, n) if not g.adj[u] >> v & 1]
            if not grown:
                continue
            for s in range(1 << n):
                if not derived_set(g, s) == s != g.full:
                    continue
                if any(not g.adj[v] & ~s for v in iter_bits(s)):
                    continue
                for h in grown:
                    assert derived_set(h, s) == s != h.full
