"""Reading and writing the graph6 format for graphs on up to 62 vertices.

A record is one printable ASCII line: byte n+63, then the upper triangle
of the adjacency matrix in column-major order ((0,1), (0,2), (1,2),
(0,3), ...) packed big-endian into 6-bit groups, each offset by 63.
Trailing pad bits must be zero.  The optional ">>graph6<<" header emitted
by some tools is skipped at the start of a stream (line 1) and rejected
anywhere else; CRLF line endings are tolerated.

Read as one int without its padding, the body is the packed string that
census's canonical labeling minimizes; only this module knows its layout.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graph_core import Graph

HEADER = ">>graph6<<"
_BLANK = " \t\r\n"  # stripped around a record; str.strip() would also drop control bytes


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def _pack_bits(adj: tuple[int, ...], order: list[int]) -> int:
    """The upper triangle under a vertex order, in column-major order,
    packed big-endian into an int: a graph6 body without its padding."""
    bits = 0
    for j in range(1, len(order)):
        col = order[j]
        for i in range(j):
            bits = bits << 1 | (adj[order[i]] >> col & 1)
    return bits


def _unpack_bits(n: int, bits: int) -> tuple[int, ...]:
    """The adjacency rows of the n-vertex graph whose packed string is bits."""
    adj = [0] * n
    s = format(bits, f"0{n * (n - 1) // 2}b")
    for j in range(1, n):
        t = j * (j - 1) // 2
        adj[j] = low = int(s[t:t + j][::-1], 2)  # the neighbors i < j of j
        while low:
            b = low & -low
            low ^= b
            adj[b.bit_length() - 1] |= 1 << j
    return tuple(adj)


def _graph6_of_bits(n: int, bits: int) -> str:
    """The graph6 record of the n-vertex graph whose packed string is bits."""
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    bits <<= need * 6 - nbits
    return chr(n + 63) + "".join([chr((bits >> k & 63) + 63) for k in range(need * 6 - 6, -1, -6)])


_SIX_BITS = {v + 63: format(v, "06b") for v in range(64)}  # body byte -> its six bits


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 record (a header is not part of a record)."""
    s = text.strip(_BLANK)
    if s.startswith(HEADER):
        raise Graph6Error(f"a {HEADER} header may only open a stream")
    if not s:
        raise Graph6Error("empty record")
    if min(s) < "?" or max(s) > "~":
        bad = ord(next(ch for ch in s if not "?" <= ch <= "~"))
        if 0xDC80 <= bad <= 0xDCFF:
            bad -= 0xDC00  # an undecodable byte, escaped as a lone surrogate (PEP 383)
        raise Graph6Error(f"byte {bad} outside the graph6 alphabet")
    n = ord(s[0]) - 63
    if n == 63:
        raise Graph6Error("multi-byte vertex counts (n > 62) are not supported")
    if n == 0:
        raise Graph6Error("graphs need at least one vertex")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - 1 != need:
        raise Graph6Error(f"expected {need} body bytes for n={n}, got {len(s) - 1}")
    bits = int(s[1:].translate(_SIX_BITS) or "0", 2)
    pad = need * 6 - nbits
    if bits & (1 << pad) - 1:
        raise Graph6Error("nonzero padding bits")
    return Graph(n, _unpack_bits(n, bits >> pad))


def write_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 record (no trailing newline)."""
    if g.n > 62:
        raise Graph6Error(f"cannot encode {g.n} vertices in a single-byte header")
    return _graph6_of_bits(g.n, _pack_bits(g.adj, list(range(g.n))))


def read_records(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Yield (line number, stripped record) for each nonblank line.

    A ">>graph6<<" header is dropped from line 1 only; on a later line it
    stays, so parsing that record fails.
    """
    for lineno, raw in enumerate(lines, start=1):
        s = raw.strip(_BLANK)
        if lineno == 1 and s.startswith(HEADER):
            s = s[len(HEADER):].strip(_BLANK)
        if s:
            yield lineno, s
