import random

import pytest

from zeroforcing import Graph, from_edges, iter_bits


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return from_edges(n, edges)


def edges(g: Graph) -> list[tuple[int, int]]:
    """All edges as (u, v) with u < v, lexicographically sorted."""
    return [(u, v) for u in range(g.n) for v in iter_bits(g.adj[u] >> u + 1 << u + 1)]


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, outer + spokes + inner)


@pytest.fixture(scope="session")
def census_n8():
    """One full run shared by every test that reads the n <= 8 tables."""
    from zeroforcing import run_census

    return run_census(max_n=8, k_max=4, jobs=8)
