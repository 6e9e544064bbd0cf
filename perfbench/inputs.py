"""Seeded workload inputs: the CLI calls each workload makes.

Everything here is built from the seed alone, with the benchmark's own
graph6 encoder, so the program under test receives only finished inputs.
The same seed gives byte-identical calls; `digest` fingerprints them.

The analyze and witness graph lists are stratified: every seed draws the
same multiset of (family, n, degree) slots and only the edges and labels
vary.  Exact search cost grows exponentially in n, so letting the seed
pick n would make the run-to-run spread a property of the seed rather
than of the program.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0
CENSUS_MAX_N = 8
K_MAX = 4

# analyze-mid slots.  call_p50_ms and call_p95_ms read one rank of the
# sorted call times.  Where that rank falls between two cost groups, a
# few percent of noise moves it from one group to the other.  So the
# slots are grouped by cost, and each rank falls inside a group of calls
# that cost about the same.  Per pass of 64 calls, cheapest first (times
# on the machine of baseline.json):
#   26 dense graphs of n 14-16, average degree 4-6, at about 5-25 ms;
#   12 cycles of 15 vertices at about 60-70 ms: the median;
#   6 dense graphs of n 16-20, average degree 4-8, at about 45-240 ms,
#      below, among or above the cycles of 15 vertices, by seed;
#   20 cycles of 16 vertices, with or without a chord, at about 105-175 ms,
#      so the 11th largest, which call_p95_ms reads, falls among them.
# A cycle's cost varies little with its labels, because the F search
# scans every set larger than F = n/2 before it finds a stalled one; at
# n = 15 it varies by about 3 %.  Paths, and cycles of other sizes, are
# left out: their cost falls between the groups.
#
# (n, average degree) for the G(n, m) family, bound by the Z search.
DENSE_SLOTS = [
    (14, 6), (16, 4), (14, 6), (16, 5), (16, 4), (16, 8), (14, 6), (16, 4),
    (16, 5), (18, 5), (14, 6), (16, 5), (14, 6), (16, 4), (16, 5), (20, 4),
]
# (n, shape) for the cycle family, bound by the F search.
SPARSE_SLOTS = [
    (16, "cycle"), (15, "cycle"), (16, "chord"), (15, "cycle"),
    (16, "cycle"), (16, "chord"), (15, "cycle"), (16, "cycle"),
    (16, "chord"), (15, "cycle"), (16, "cycle"), (16, "chord"),
    (15, "cycle"), (16, "cycle"), (15, "cycle"), (16, "chord"),
]
ANALYZE_ROUNDS = 2
WITNESS_GRAPHS = 2000
# witness-large sends its graphs in batches of this many per CLI call, so
# that each call is a short sample (see run.end_to_end); argparse adds
# about 1 ms per call, against about 75 ms of work in a batch.
WITNESS_BATCH = 50


@dataclass(frozen=True)
class Workload:
    """One workload instance: the CLI calls of one measured pass."""

    name: str
    kind: str  # "census", "analyze" or "witness"
    calls: list[dict]  # each {"argv": [...], "stdin": str}
    graphs: int  # graphs evaluated per pass
    census_max_n: int = 0
    records: list[str] = field(default_factory=list)  # graph6 inputs, in call order

    def digest(self) -> str:
        blob = json.dumps(self.calls, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def encode_graph6(n: int, edges: set[tuple[int, int]]) -> str:
    """graph6 record for n <= 62 vertices; edges as (i, j) with i < j."""
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in edges else 0)
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k:k + 6]:
            value = value << 1 | b
        out.append(chr(value + 63))
    return "".join(out)


def _relabel(rng: random.Random, n: int, edges) -> set[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return {tuple(sorted((perm[u], perm[v]))) for u, v in edges}


def _connected(n: int, edges: set[tuple[int, int]]) -> bool:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for u in nbrs[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def dense_graph(rng: random.Random, n: int, degree: int) -> str:
    """Connected G(n, m) with m = round(n * degree / 2), by rejection."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    m = round(n * degree / 2)
    while True:
        edges = set(rng.sample(pairs, m))
        if _connected(n, edges):
            return encode_graph6(n, edges)


def sparse_graph(rng: random.Random, n: int, shape: str) -> str:
    """A path, a cycle, or a cycle plus one chord, randomly labelled."""
    edges = {(i, i + 1) for i in range(n - 1)}
    if shape != "path":
        edges.add((0, n - 1))
    if shape == "chord":
        u = rng.randrange(n)
        v = (u + rng.randrange(2, n - 1)) % n
        edges.add(tuple(sorted((u, v))))
    return encode_graph6(n, _relabel(rng, n, edges))


def tree_plus_graph(rng: random.Random, n: int, degree: float) -> str:
    """Random spanning tree plus random extra edges up to the average
    degree, then relabelled."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    m = min(round(n * degree / 2), n * (n - 1) // 2)
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return encode_graph6(n, _relabel(rng, n, edges))


def analyze_records(seed: int, rounds: int = ANALYZE_ROUNDS,
                    dense=DENSE_SLOTS, sparse=SPARSE_SLOTS) -> list[str]:
    """Alternating dense and sparse graphs, `rounds` draws of every slot."""
    rng = random.Random(f"analyze-mid/{seed}")
    out = []
    for _ in range(rounds):
        for (dn, d), (sn, shape) in zip(dense, sparse):
            out.append(dense_graph(rng, dn, d))
            out.append(sparse_graph(rng, sn, shape))
    return out


def witness_records(seed: int, count: int = WITNESS_GRAPHS,
                    n_range=(20, 62)) -> list[str]:
    """n cycles through the range and the degree through 2..7, so every
    seed has the same size profile."""
    rng = random.Random(f"witness-large/{seed}")
    lo, hi = n_range
    out = []
    for i in range(count):
        n = lo + i % (hi - lo + 1)
        degree = 2 + (i * 5 / (count - 1) if count > 1 else 0) + rng.random() * 0.5
        out.append(tree_plus_graph(rng, n, min(degree, 7.0)))
    return out


def census_call(max_n: int, jobs: int) -> dict:
    return {"argv": ["census", "--max-n", str(max_n), "--k-max", str(K_MAX),
                     "--jobs", str(jobs), "--format", "structured"], "stdin": ""}


# Connected classes per n (OEIS A001349), n = 1..8.
CONNECTED_CLASSES = [1, 1, 2, 6, 21, 112, 853, 11117]

WORKLOADS = ("census-n8", "census-n8-jobs2", "analyze-mid", "witness-large")


def build(name: str, seed: int, quick: bool = False) -> Workload:
    """The workload's calls for one pass.  quick shrinks every input for
    the self-test; the gates stay the same."""
    if name in ("census-n8", "census-n8-jobs2"):
        max_n = 6 if quick else CENSUS_MAX_N
        jobs = 2 if name.endswith("jobs2") else 1
        return Workload(name, "census", [census_call(max_n, jobs)],
                        graphs=sum(CONNECTED_CLASSES[:max_n]), census_max_n=max_n)
    if name == "analyze-mid":
        if quick:
            records = analyze_records(seed, 1, [(8, 4), (9, 5)], [(9, "cycle"), (10, "chord")])
        else:
            records = analyze_records(seed)
        calls = [{"argv": ["analyze", "--format", "structured", r], "stdin": ""}
                 for r in records]
        return Workload(name, "analyze", calls, graphs=len(records), records=records)
    if name == "witness-large":
        records = witness_records(seed, 40, (20, 30)) if quick else witness_records(seed)
        batch = 10 if quick else WITNESS_BATCH
        calls = [{"argv": ["witness", "--format", "structured"],
                  "stdin": "".join(r + "\n" for r in records[i:i + batch])}
                 for i in range(0, len(records), batch)]
        return Workload(name, "witness", calls, graphs=len(records), records=records)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
