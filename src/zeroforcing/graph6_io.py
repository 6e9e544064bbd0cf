"""Reading and writing the graph6 format for graphs on up to 62 vertices.

A record is one printable ASCII line: byte n+63, then the upper triangle
of the adjacency matrix in column-major order ((0,1), (0,2), (1,2),
(0,3), ...) packed big-endian into 6-bit groups, each offset by 63.
Trailing pad bits must be zero.  The optional ">>graph6<<" header emitted
by some tools is skipped at the start of a stream (line 1) and rejected
anywhere else; CRLF line endings are tolerated.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graph_core import Graph

HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 record (a header is not part of a record)."""
    s = text.strip()
    if s.startswith(HEADER):
        raise Graph6Error(f"a {HEADER} header may only open a stream")
    if not s:
        raise Graph6Error("empty record")
    values = []
    for ch in s:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise Graph6Error(f"byte {ord(ch)} outside the graph6 alphabet")
        values.append(v)
    if values[0] == 63:
        raise Graph6Error("multi-byte vertex counts (n > 62) are not supported")
    n = values[0]
    if n == 0:
        raise Graph6Error("graphs need at least one vertex")
    body = values[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error(f"expected {need} body bytes for n={n}, got {len(body)}")
    adj = [0] * n
    t = 0
    for j in range(1, n):
        for i in range(j):
            if body[t // 6] >> (5 - t % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            t += 1
    if need and body[-1] & (1 << (need * 6 - nbits)) - 1:
        raise Graph6Error("nonzero padding bits")
    return Graph(n, tuple(adj))


def write_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 record (no trailing newline)."""
    if g.n > 62:
        raise Graph6Error(f"cannot encode {g.n} vertices in a single-byte header")
    out = [chr(g.n + 63)]
    acc = 0
    count = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = acc << 1 | (g.adj[i] >> j & 1)
            count += 1
            if count == 6:
                out.append(chr(acc + 63))
                acc = 0
                count = 0
    if count:
        out.append(chr((acc << (6 - count)) + 63))
    return "".join(out)


def read_records(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Yield (line number, stripped record) for each nonblank line.

    A ">>graph6<<" header is dropped from line 1 only; on a later line it
    stays, so parsing that record fails.
    """
    for lineno, raw in enumerate(lines, start=1):
        s = raw.strip()
        if lineno == 1 and s.startswith(HEADER):
            s = s[len(HEADER):].strip()
        if s:
            yield lineno, s


def read_stream(lines: Iterable[str]) -> Iterator[tuple[int, Graph]]:
    """Yield (line number, graph) for each record in lines of graph6 text.

    Blank lines and a header on line 1 are skipped.  A malformed record
    raises Graph6Error with its line number set.
    """
    for lineno, s in read_records(lines):
        try:
            yield lineno, parse_graph6(s)
        except Graph6Error as exc:
            raise Graph6Error(str(exc), line=lineno) from None
