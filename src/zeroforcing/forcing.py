"""The color change rule and its closure.

A filled vertex with exactly one unfilled neighbor forces that neighbor to
fill.  Iterating until no force applies yields the derived set (closure),
which is independent of the order forces are applied in.  A set whose
closure covers the graph is a zero forcing set; a proper subset equal to
its own closure is stalled.
"""

from __future__ import annotations

from .graph_core import Graph


def derived_set(g: Graph, filled: int) -> int:
    """Closure of a vertex mask under the color change rule."""
    if filled & ~g.full:
        raise ValueError("initial set contains vertices outside the graph")
    return _derived(g.adj, g.full, filled)


def _derived(adj: tuple[int, ...], full: int, state: int) -> int:
    # Hot path: exact search and the census funnel through here.
    while True:
        done = True
        scan = state
        while scan:
            bit = scan & -scan
            scan ^= bit
            unfilled = adj[bit.bit_length() - 1] & ~state
            if unfilled and not unfilled & (unfilled - 1):
                state |= unfilled
                if state == full:
                    return full
                done = False
        if done:
            return state


def is_zero_forcing(g: Graph, filled: int) -> bool:
    """Does the mask force the whole graph?"""
    return derived_set(g, filled) == g.full

