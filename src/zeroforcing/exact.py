"""Exact zero forcing and failed zero forcing numbers by subset search.

The zero forcing number is the minimum size of a forcing set, found by
checking subset sizes upward (forcing sets are closed under supersets, so
the first size with a hit is the minimum).  The failed zero forcing number
is the maximum size of a non-forcing set, found by checking sizes downward
(failed sets are closed under subsets).  Within a size, subsets are tried
in ascending bit-pattern order and the first hit wins, so results are
fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .forcing import _derived
from .graph_core import Graph

EXACT_CAP_DEFAULT = 20


class ExactCapExceeded(ValueError):
    """The graph is too large for exhaustive subset search."""


@dataclass(frozen=True)
class ExactResult:
    """An exact value plus one witnessing vertex mask: a minimum zero
    forcing set, or a maximum failed (non-forcing) set."""

    value: int
    witness: int


def size_k_subsets(n: int, k: int) -> Iterator[int]:
    """All k-subsets of 0..n-1 as bitmasks, in ascending numeric order."""
    if k == 0:
        yield 0
        return
    if k > n:
        return
    s = (1 << k) - 1
    top = 1 << n
    while s < top:
        yield s
        low = s & -s
        ripple = s + low
        s = ripple | ((s ^ ripple) >> 2) // low


def _check_cap(g: Graph, cap: int) -> None:
    if g.n > cap:
        raise ExactCapExceeded(
            f"exact search over {g.n} vertices exceeds the cap of {cap}"
        )


def zero_forcing_number(g: Graph, cap: int = EXACT_CAP_DEFAULT) -> ExactResult:
    """Minimum size of a zero forcing set, with the first witness found."""
    _check_cap(g, cap)
    adj, full = g.adj, g.full
    for k in range(1, g.n + 1):
        for s in size_k_subsets(g.n, k):
            if _derived(adj, full, s) == full:
                return ExactResult(k, s)
    raise AssertionError("the full vertex set always forces")


def failed_zero_forcing_number(g: Graph, cap: int = EXACT_CAP_DEFAULT) -> ExactResult:
    """Maximum size of a non-forcing set, with the first witness found."""
    _check_cap(g, cap)
    adj, full = g.adj, g.full
    for k in range(g.n - 1, -1, -1):
        for s in size_k_subsets(g.n, k):
            if _derived(adj, full, s) != full:
                return ExactResult(k, s)
    raise AssertionError("the empty set never forces a nonempty graph")
