"""Command line front end.

Three commands: analyze (exact numbers plus a verified construction for
one or more graphs), witness (just the construction), and census (tables
over all connected classes per vertex count, n <= 10, from built-in
generation).  analyze and witness read graph6 records from arguments or
standard input.  Exit codes: 0 success, 1 usage or parse errors, 2
verification failure or bound violation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from functools import lru_cache
from typing import Sequence

from .census import check_census_args, run_census
from .exact import failed_zero_forcing_number, zero_forcing_number
from .forcing import derived_set, is_zero_forcing
from .graph6_io import Graph6Error, parse_graph6, read_records
from .graph_core import Graph, is_connected, vertices_of
from .witness import ConstructionError, verify_witness, witness_general

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

_EXACT_CAP = 20  # --exact-cap's default: the largest n searched exactly


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The parser, built on the first call and shared by every later one:
    parse_args keeps no state between calls, and building costs more than
    parsing."""
    parser = _Parser(prog="zeroforcing", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    analyze = sub.add_parser("analyze", help="exact numbers and a verified construction")
    analyze.add_argument("graphs", nargs="*", help="graph6 records (default: stdin lines)")
    analyze.add_argument("--exact-cap", type=int, default=_EXACT_CAP,
                         help="largest n for the exact Z and F searches (default %(default)s)")
    analyze.add_argument("--format", choices=("table", "structured"), default="table")

    witness = sub.add_parser("witness", help="guaranteed failed-set construction only")
    witness.add_argument("graphs", nargs="*", help="graph6 records (default: stdin lines)")
    witness.add_argument("--format", choices=("table", "structured"), default="table")

    census = sub.add_parser("census", help="tables over all connected classes")
    census.add_argument("--max-n", type=int, required=True,
                        help="largest vertex count, 1 to 10; 10 takes about 7 min of CPU")
    census.add_argument("--k-max", type=int, default=4,
                        help="largest F tallied, 1 to 10; exact Z runs only for classes "
                             "with F <= k-max or n > F + 4 (default %(default)s)")
    census.add_argument("--jobs", type=int, default=1,
                        help="worker processes, at most the core count (default %(default)s)")
    census.add_argument("--output", help="also write the structured document here")
    census.add_argument("--format", choices=("table", "structured"), default="table")
    return parser


def _input_records(args_graphs: list[str]) -> list[tuple[str, str]]:
    """(where, record) pairs; where names the argument or the stdin line."""
    if args_graphs:
        return [(f"argument {i}", record) for i, record in enumerate(args_graphs, start=1)]
    # bytes, so that the locale's decoder neither fails on nor hides a byte
    # that is not ASCII; a text stream such as io.StringIO has no buffer
    raw = getattr(sys.stdin, "buffer", None)
    text = raw.read().decode("ascii", "surrogateescape") if raw is not None else sys.stdin.read()
    # split on LF only: str.splitlines() also breaks at control bytes
    return [(f"stdin: line {lineno}", record) for lineno, record in read_records(text.split("\n"))]


def _analysis_document(graph6: str, g: Graph, cap: int) -> tuple[dict, bool]:
    """Build the per-graph document; returns (document, all verifications ok)."""
    doc: dict = {
        "schema": "zeroforcing-analysis/2",
        "graph6": graph6,
        "n": g.n,
        "edges": g.edge_count(),
        "min_degree": g.min_degree(),
        "max_degree": g.max_degree(),
        "connected": is_connected(g),
    }
    witness = _witness_block(g)
    ok = witness["verified"]
    if g.n > cap:
        skipped = {"skipped": f"exact search over {g.n} vertices exceeds the cap of {cap}"}
        doc["zero_forcing"] = doc["failed_zero_forcing"] = skipped
    else:
        zero = zero_forcing_number(g)
        failed = failed_zero_forcing_number(g)
        # Every set of F + 1 vertices forces, so Z <= F + 1, and no failed
        # set, the construction's included, has more than F vertices.
        zero_ok = (is_zero_forcing(g, zero.witness)
                   and zero.witness.bit_count() == zero.value
                   and zero.value <= failed.value + 1)
        failed_ok = (derived_set(g, failed.witness) != g.full
                     and failed.witness.bit_count() == failed.value
                     and len(witness["set"]) <= failed.value)
        ok = ok and zero_ok and failed_ok
        doc["zero_forcing"] = {
            "value": zero.value,
            "witness": list(vertices_of(zero.witness)),
            "verified": zero_ok,
        }
        doc["failed_zero_forcing"] = {
            "value": failed.value,
            "witness": list(vertices_of(failed.witness)),
            "verified": failed_ok,
        }
    doc["witness"] = witness
    return doc, ok


def _witness_document(graph6: str, g: Graph) -> tuple[dict, bool]:
    block = _witness_block(g)
    doc = {"schema": "zeroforcing-witness/2", "graph6": graph6, "n": g.n, **block}
    return doc, block["verified"]


def _witness_block(g: Graph) -> dict:
    """The verified construction's fields, shared by both documents."""
    report = witness_general(g)
    failures = verify_witness(g, report)
    return {
        "set": list(vertices_of(report.filled)),
        "route": report.route,
        "guaranteed_bound": report.guaranteed_bound,
        "verified": not failures,
        "failures": list(failures),
    }


def _print_analysis_table(doc: dict) -> None:
    print(f"graph6: {doc['graph6']}")
    if "edges" in doc:
        print(f"n: {doc['n']}  edges: {doc['edges']}  degrees: "
              f"{doc['min_degree']}..{doc['max_degree']}  connected: {doc['connected']}")
    for key, label in (("zero_forcing", "zero forcing"),
                       ("failed_zero_forcing", "failed zero forcing")):
        cell = doc.get(key)
        if cell is None:
            continue
        if "skipped" in cell:
            print(f"{label}: skipped ({cell['skipped']})")
        else:
            print(f"{label}: {cell['value']}  witness: "
                  f"{' '.join(map(str, cell['witness'])) or '-'}  "
                  f"verified: {cell['verified']}")
    w = doc["witness"] if "witness" in doc else doc
    print(f"construction: route {w['route']}  set: "
          f"{' '.join(map(str, w['set'])) or '-'}  bound: {w['guaranteed_bound']}  "
          f"verified: {w['verified']}")


def _run_graph_command(args, build) -> int:
    records = _input_records(args.graphs)
    if not records:
        print("no graph6 input", file=sys.stderr)
        return EXIT_USAGE
    graphs = []
    for where, record in records:
        try:
            graphs.append((where, record, parse_graph6(record)))
        except Graph6Error as exc:
            print(f"{where}: bad graph6 record {record!r}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    # every document is built before any is written, so that a construction
    # failure on a later record leaves the output empty
    built = []
    for where, record, g in graphs:
        try:
            built.append(build(record.strip(), g))
        except ConstructionError as exc:
            print(f"{where}: construction failed on {record!r}: {exc}", file=sys.stderr)
            return EXIT_VERIFY
    for i, (doc, _) in enumerate(built):
        if args.format == "structured":
            print(json.dumps(doc, sort_keys=True))
        else:
            if i:
                print()
            _print_analysis_table(doc)
    return EXIT_OK if all(ok for _, ok in built) else EXIT_VERIFY


def _run_census(args) -> int:
    try:
        # The flags, then the output path, are checked before the census runs, so a
        # rejected census creates no file; append mode keeps an earlier document.
        check_census_args(args.max_n, args.k_max, args.jobs)
        with open(args.output, "a") if args.output else contextlib.nullcontext() as out:
            table = run_census(max_n=args.max_n, k_max=args.k_max, jobs=args.jobs)
            if out is not None:
                out.truncate(0)
                out.write(table.to_json())
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    if args.format == "structured":
        sys.stdout.write(table.to_json())
    else:
        sys.stdout.write(table.to_text_table())
    if table.violations:
        for finding in table.violations:
            print(f"violation [{finding.kind}] n={finding.n} {finding.graph6}: "
                  f"{finding.detail}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "analyze":
        if args.exact_cap < 1:
            print(f"--exact-cap must be at least 1, got {args.exact_cap}", file=sys.stderr)
            return EXIT_USAGE
        return _run_graph_command(
            args, lambda rec, g: _analysis_document(rec, g, args.exact_cap)
        )
    if args.command == "witness":
        return _run_graph_command(args, _witness_document)
    return _run_census(args)


if __name__ == "__main__":
    sys.exit(main())
