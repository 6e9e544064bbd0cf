"""Correctness gates, independent of the program under test.

The closure, the graph6 decoder and the census tables here are the
benchmark's own; nothing is imported from the package.  Each check
returns the number of graphs whose output failed it, so a run reports
failed / attempted as its error rate.  A non-zero exit code fails every
graph of that call.
"""

from __future__ import annotations

import hashlib
import json

from inputs import CONNECTED_CLASSES, K_MAX, Workload

# sha256 of `census --max-n N --k-max 4 --format structured` at commit
# 1d86794, for the full and the quick (self-test) size.
CENSUS_SHA256 = {
    8: "e051273eb40b652987de50796ae42967f699f4bc8f2abdaebdf0f30b001c234c",
    6: "2e81bfee9fe3f6f5b074ae7d16b65ce41dea1e5feaf97f0e1e1bf4ee7d2b46d8",
}

# Connected classes with F = k, by n (the paper's table, as pinned in
# tests/test_acceptance.py), and those with F = Z = k.
F_TABLE = {
    1: {3: 2, 4: 1},
    2: {4: 5, 5: 5, 6: 2},
    3: {5: 16, 6: 29, 7: 16, 8: 1},
    4: {6: 81, 7: 277, 8: 268},
}
E_TABLE = {
    1: {3: 1, 4: 1},
    2: {4: 4, 5: 4, 6: 1},
    3: {5: 9, 6: 10, 7: 4},
    4: {6: 19, 7: 29, 8: 2},
}


def decode_graph6(record: str) -> tuple[int, list[int]]:
    """(n, adjacency bitmasks) of a single-byte-header graph6 record."""
    n = ord(record[0]) - 63
    adj = [0] * n
    t = 0
    for j in range(1, n):
        for i in range(j):
            if (ord(record[1 + t // 6]) - 63) >> (5 - t % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            t += 1
    return n, adj


def closure(adj: list[int], filled: int) -> int:
    """Apply the color change rule until nothing changes."""
    changed = True
    while changed:
        changed = False
        for v, row in enumerate(adj):
            if filled >> v & 1:
                open_nbrs = row & ~filled
                if open_nbrs and not open_nbrs & (open_nbrs - 1):
                    filled |= open_nbrs
                    changed = True
    return filled


def mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def construction_ok(n: int, adj: list[int], members, expected_n: int) -> bool:
    """A constructed set fails to force, is a proper subset and has at
    least floor((n - 1) / 2) vertices."""
    full = (1 << n) - 1
    s = mask(members)
    return (expected_n == n and s & ~full == 0 and s != full
            and closure(adj, s) != full and s.bit_count() >= (n - 1) // 2)


def analysis_ok(record: str, doc: dict, reference: dict | None) -> bool:
    n, adj = decode_graph6(record)
    full = (1 << n) - 1
    zf, ff, wit = doc["zero_forcing"], doc["failed_zero_forcing"], doc["witness"]
    if doc["graph6"] != record or not (zf["verified"] and ff["verified"] and wit["verified"]):
        return False
    z, zmask = zf["value"], mask(zf["witness"])
    f, fmask = ff["value"], mask(ff["witness"])
    size = len(set(wit["set"]))
    ok = (zmask.bit_count() == z and closure(adj, zmask) == full
          and fmask.bit_count() == f and fmask & ~full == 0
          and closure(adj, fmask) == fmask != full
          and (n - 1) // 2 <= size <= f <= n - 2
          and construction_ok(n, adj, wit["set"], doc["n"]))
    if reference is not None:
        ok = ok and reference.get(record) == [z, zmask, f, fmask]
    return ok


def _json_lines(text: str) -> list[dict] | None:
    try:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    except json.JSONDecodeError:
        return None


def census_ok(text: str, max_n: int) -> bool:
    if hashlib.sha256(text.encode()).hexdigest() != CENSUS_SHA256.get(max_n):
        return False
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return False
    for table, key in ((F_TABLE, "f_counts"), (E_TABLE, "e_counts")):
        for k in range(1, K_MAX + 1):
            for n in range(1, max_n + 1):
                got = doc[key].get(str(k), {}).get(str(n), 0)
                if got != table.get(k, {}).get(n, 0):
                    return False
    totals = {str(n): c for n, c in enumerate(CONNECTED_CLASSES[:max_n], start=1)}
    return doc["connected_totals"] == totals and doc["violations"] == []


def failed_graphs(workload: Workload, calls: list[dict], reference: dict | None = None) -> int:
    """Graphs of one pass whose output fails a gate.  calls holds each CLI
    call's exit code ("rc") and captured standard output ("stdout")."""
    if workload.kind == "census":
        call = calls[0]
        good = call["rc"] == 0 and census_ok(call["stdout"], workload.census_max_n)
        return 0 if good else workload.graphs
    if workload.kind == "analyze":
        failed = 0
        for record, call in zip(workload.records, calls, strict=True):
            docs = _json_lines(call["stdout"]) if call["rc"] == 0 else None
            if not docs or len(docs) != 1 or not analysis_ok(record, docs[0], reference):
                failed += 1
        return failed
    failed = 0
    for sent, call in zip(workload.calls, calls, strict=True):
        records = sent["stdin"].splitlines()
        docs = _json_lines(call["stdout"]) if call["rc"] == 0 else None
        if docs is None or len(docs) != len(records):
            failed += len(records)
            continue
        for record, doc in zip(records, docs):
            n, adj = decode_graph6(record)
            good = (doc["graph6"] == record and doc["verified"]
                    and len(set(doc["set"])) >= doc["guaranteed_bound"]
                    and construction_ok(n, adj, doc["set"], doc["n"]))
            failed += not good
    return failed
