"""Slow set-based reference implementations used to cross-check the package.

Everything here is written independently of the library internals: graphs
are lists of neighbor sets, searches enumerate subsets or permutations
directly, and no bit tricks are used.
"""

from __future__ import annotations

import itertools
from collections import deque


def adj_sets(g) -> list[set[int]]:
    """Neighbor sets of a package Graph."""
    return [{u for u in range(g.n) if g.adj[v] >> u & 1} for v in range(g.n)]


def naive_closure(adj: list[set[int]], filled: set[int]) -> set[int]:
    """Apply the color change rule one force at a time, lowest forcer first."""
    filled = set(filled)
    while True:
        for v in sorted(filled):
            unfilled = adj[v] - filled
            if len(unfilled) == 1:
                filled.add(unfilled.pop())
                break
        else:
            return filled


def naive_closure_random(adj: list[set[int]], filled: set[int], rng) -> set[int]:
    """Same closure, applying available forces in random order."""
    filled = set(filled)
    while True:
        moves = [v for v in filled if len(adj[v] - filled) == 1]
        if not moves:
            return filled
        v = rng.choice(sorted(moves))
        filled.add((adj[v] - filled).pop())


def _in_mask_order(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of range(n) in ascending order of their bitmasks.

    For subsets of one size, comparing masks is comparing the vertex
    tuples from the highest vertex down, so no masks are built.
    """
    return sorted(itertools.combinations(range(n), k),
                  key=lambda combo: combo[::-1])


def naive_first_zero(adj: list[set[int]]) -> tuple[int, tuple[int, ...]]:
    """Smallest forcing set, the first of its size in ascending mask order."""
    n = len(adj)
    full = set(range(n))
    for k in range(1, n + 1):
        for combo in _in_mask_order(n, k):
            if naive_closure(adj, set(combo)) == full:
                return k, combo
    raise AssertionError("the full vertex set failed to force itself")


def naive_first_failed(adj: list[set[int]]) -> tuple[int, tuple[int, ...]]:
    """Largest failed set, the first of its size in ascending mask order."""
    n = len(adj)
    full = set(range(n))
    for k in range(n - 1, -1, -1):
        for combo in _in_mask_order(n, k):
            if naive_closure(adj, set(combo)) != full:
                return k, combo
    raise AssertionError("even the empty set forced everything on n=0?")


def naive_min_fort(adj: list[set[int]]) -> int:
    """Size of the smallest nonempty set T such that no vertex outside T
    has exactly one neighbor in T."""
    n = len(adj)
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            fort = set(combo)
            if all(len(adj[u] & fort) != 1 for u in range(n) if u not in fort):
                return k
    raise AssertionError("the whole vertex set is always a fort")


def naive_refine(adj: list[set[int]], cells: list[set[int]]) -> list[set[int]]:
    """Equitable refinement by full passes: split every cell by each
    vertex's tuple of neighbor counts into every cell, the pieces in
    ascending tuple order, until a pass splits nothing."""
    while True:
        out = []
        for cell in cells:
            pieces: dict[tuple[int, ...], set[int]] = {}
            for v in cell:
                pieces.setdefault(tuple(len(adj[v] & c) for c in cells), set()).add(v)
            out.extend(pieces[key] for key in sorted(pieces))
        if len(out) == len(cells):
            return out
        cells = out


def naive_components(n: int, adj: list[set[int]]) -> list[set[int]]:
    seen: set[int] = set()
    out = []
    for v in range(n):
        if v in seen:
            continue
        comp = {v}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in adj[u] - comp:
                comp.add(w)
                queue.append(w)
        seen |= comp
        out.append(comp)
    return out


def are_isomorphic(g1, g2) -> bool:
    """Permutation search over package Graphs; fine for n <= 8."""
    if g1.n != g2.n:
        return False
    e1 = {(u, v) for u in range(g1.n) for v in range(g1.n)
          if u < v and g1.adj[u] >> v & 1}
    if sorted(len(a) for a in adj_sets(g1)) != sorted(len(a) for a in adj_sets(g2)):
        return False
    for perm in itertools.permutations(range(g2.n)):
        e2 = {tuple(sorted((perm[u], perm[v])))
              for u in range(g2.n) for v in range(g2.n)
              if u < v and g2.adj[u] >> v & 1}
        if e1 == e2:
            return True
    return False


def count_classes_by_dedupe(n: int) -> tuple[int, int]:
    """(all, connected) isomorphism class counts by labeled enumeration.

    Enumerates every labeled graph on n vertices as an edge bitmask and
    keeps the minimum over all vertex permutations.  numpy makes the
    permutation sweep affordable up to n = 6.
    """
    import numpy as np

    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    m = len(pairs)
    graphs = np.arange(1 << m, dtype=np.int64)
    bits = (graphs[:, None] >> np.arange(m)) & 1
    weights = np.int64(1) << np.arange(m, dtype=np.int64)
    minima = graphs.copy()
    for perm in itertools.permutations(range(n)):
        emap = np.array(
            [index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs],
            dtype=np.intp,
        )
        np.minimum(minima, bits[:, emap] @ weights, out=minima)
    reps = np.unique(minima)
    connected = 0
    for rep in reps.tolist():
        adj = [set() for _ in range(n)]
        for (a, b), i in index.items():
            if rep >> i & 1:
                adj[a].add(b)
                adj[b].add(a)
        connected += len(naive_components(n, adj)) == 1
    return len(reps), connected
