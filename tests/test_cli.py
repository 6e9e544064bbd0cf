import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zeroforcing import (
    CensusTable,
    ConstructionError,
    ExactResult,
    Finding,
    WitnessReport,
    parse_graph6,
    write_graph6,
)
from zeroforcing import cli
from zeroforcing.graph_core import path_graph


def run(args, stdin=""):
    old = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        return cli.main(args)
    finally:
        sys.stdin = old


def test_analyze_table(capsys):
    assert run(["analyze", "Bg"]) == 0
    out = capsys.readouterr().out
    assert "zero forcing: 1" in out
    assert "failed zero forcing: 1" in out
    assert "route delta1-a(base)" in out
    assert "verified: True" in out


def test_analyze_structured(capsys):
    assert run(["analyze", "--format", "structured", "@", "Bw"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    docs = [json.loads(line) for line in lines]
    assert docs[0]["n"] == 1
    assert docs[0]["zero_forcing"]["value"] == 1
    assert docs[0]["failed_zero_forcing"]["value"] == 0
    assert docs[1]["failed_zero_forcing"]["value"] == 1
    for doc in docs:
        assert doc["schema"] == "zeroforcing-analysis/2"
        assert doc["witness"]["verified"] is True


def test_analyze_reads_stdin(capsys):
    assert run(["analyze", "--format", "structured"], stdin="Bg\nBw\n") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2


def test_analyze_reads_a_stdin_header(capsys):
    assert run(["analyze", "--format", "structured"], stdin=">>graph6<<Bw\n") == 0
    assert json.loads(capsys.readouterr().out)["graph6"] == "Bw"
    assert run(["analyze", ">>graph6<<Bw"]) == 1
    captured = capsys.readouterr()
    assert "header" in captured.err and captured.out == ""


def test_analyze_rejects_cap_below_1(capsys):
    for cap in ("0", "-3"):
        assert run(["analyze", "--exact-cap", cap, "Bw"]) == 1
        captured = capsys.readouterr()
        assert "must be at least 1" in captured.err and captured.out == ""


def test_analyze_respects_cap(capsys):
    text = write_graph6(path_graph(12))
    assert run(["analyze", "--format", "structured", "--exact-cap", "8", text]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "skipped" in doc["zero_forcing"]
    assert doc["witness"]["verified"] is True


def test_analyze_rejects_witnesses_of_the_wrong_size(monkeypatch, capsys):
    # Each witness passes its closure check but does not have the claimed size.
    monkeypatch.setattr(cli, "zero_forcing_number", lambda g, cap: ExactResult(1, 0b011))
    monkeypatch.setattr(cli, "failed_zero_forcing_number", lambda g, cap: ExactResult(1, 0))
    assert run(["analyze", "--format", "structured", write_graph6(path_graph(3))]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["zero_forcing"]["verified"] is False
    assert doc["failed_zero_forcing"]["verified"] is False
    assert doc["witness"]["verified"] is True


def test_analyze_cross_checks_the_exact_values(monkeypatch, capsys):
    # Each planted value has a witness of its size that passes its closure
    # check, but contradicts the other numbers.
    real_zero, real_failed = cli.zero_forcing_number, cli.failed_zero_forcing_number
    text = write_graph6(path_graph(7))
    # F = 2 is below the construction's 3 vertices 1 3 5
    monkeypatch.setattr(cli, "failed_zero_forcing_number", lambda g, cap: ExactResult(2, 0b1010))
    assert run(["analyze", "--format", "structured", text]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["zero_forcing"]["verified"] is True
    assert doc["failed_zero_forcing"]["verified"] is False
    assert doc["witness"]["set"] == [1, 3, 5] and doc["witness"]["verified"] is True
    # Z = 3 is above F + 1 = 2 on the path on 3 vertices
    monkeypatch.setattr(cli, "failed_zero_forcing_number", real_failed)
    monkeypatch.setattr(cli, "zero_forcing_number", lambda g, cap: ExactResult(3, 0b111))
    assert run(["analyze", "--format", "structured", write_graph6(path_graph(3))]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["zero_forcing"]["verified"] is False
    assert doc["failed_zero_forcing"] == {"value": 1, "witness": [1], "verified": True}
    monkeypatch.setattr(cli, "zero_forcing_number", real_zero)
    assert run(["analyze", text]) == 0
    assert "verified: False" not in capsys.readouterr().out


def test_analyze_bad_graph6(capsys):
    assert run(["analyze", "B"]) == 1
    assert "bad graph6 record" in capsys.readouterr().err


def test_bad_stdin_record_names_its_line_and_prints_nothing(capsys):
    assert run(["witness"], stdin="Bw\n\nB\n") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("stdin: line 3: bad graph6 record 'B': ")


@pytest.mark.parametrize("encoding", [None, "utf-8:strict"])
def test_stdin_byte_outside_ascii_is_named_by_its_value(encoding):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    env.pop("PYTHONIOENCODING", None)
    if encoding:
        env["PYTHONIOENCODING"] = encoding
    done = subprocess.run([sys.executable, "-m", "zeroforcing.cli", "analyze"],
                          input=b"Bw\n\xff\n", capture_output=True, env=env, timeout=60)
    assert done.returncode == 1
    assert done.stdout == b""
    assert done.stderr.startswith(b"stdin: line 2: bad graph6 record ")
    assert done.stderr.endswith(b": byte 255 outside the graph6 alphabet\n")


@pytest.mark.parametrize("byte", [0x0B, 0x0C, 0x1C, 0x1D, 0x1E, 0x1F])
def test_control_byte_is_rejected_on_its_own_line(byte, capsys):
    # str.splitlines() breaks lines at these bytes and str.strip() drops them
    bad = f": byte {byte} outside the graph6 alphabet\n"
    for record in (f"A_{chr(byte)}A_", f"A_{chr(byte)}"):
        assert run(["witness"], stdin=f"Bw\n{record}\n@\n") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("stdin: line 2: bad graph6 record ")
        assert captured.err.endswith(bad)
        assert run(["witness", "Bw", record]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("argument 2: bad graph6 record ")
        assert captured.err.endswith(bad)


def test_bad_argument_record_names_its_position_and_prints_nothing(capsys):
    assert run(["analyze", "--format", "structured", "Bw", "Bg", "B", "Bw"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("argument 3: bad graph6 record 'B': ")


def test_analyze_empty_input(capsys):
    assert run(["analyze"], stdin="") == 1
    assert "no graph6 input" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as err:
        run(["census"])  # --max-n is required
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        run(["bogus"])
    assert err.value.code == 1


def test_repeated_calls_share_one_parser_and_repeat_their_output(capsys):
    calls = (["analyze", "Bg"], ["census"], ["--help"],
             ["witness", write_graph6(path_graph(7))], ["analyze", "Bg"])

    def outcome(args):
        try:
            code = run(args)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = [outcome(args) for args in calls]
    assert [code for code, _, _ in first] == [0, 1, 0, 0, 0]
    assert first[0] == first[-1] and first[0][1]
    assert "usage: zeroforcing" in first[2][1]
    assert [outcome(args) for args in calls] == first
    assert cli._build_parser() is cli._build_parser()


def test_witness_command(capsys):
    assert run(["witness", write_graph6(path_graph(7))]) == 0
    out = capsys.readouterr().out
    assert "set: 1 3 5" in out
    assert "bound: 3" in out


def test_witness_structured(capsys):
    assert run(["witness", "--format", "structured", "Bg"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "zeroforcing-witness/2"
    assert doc["set"] == [1]
    assert doc["verified"] is True


def test_witness_verification_failure_exits_2(monkeypatch, capsys):
    bogus = WitnessReport(filled=0b011, route="made-up", guaranteed_bound=1)
    monkeypatch.setattr(cli, "witness_general", lambda g: bogus)
    assert run(["witness", "Bg"]) == 2
    out = capsys.readouterr().out
    assert "verified: False" in out


def test_construction_failure_names_its_position_and_prints_nothing(monkeypatch, capsys):
    real = cli.witness_general

    def planted(g):
        if g.n == 4:
            raise ConstructionError("planted")
        return real(g)

    monkeypatch.setattr(cli, "witness_general", planted)
    for command in ("witness", "analyze"):
        assert run([command, "Bw", "C~"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "argument 2: construction failed on 'C~': planted\n"


def test_census_table(capsys):
    assert run(["census", "--max-n", "4", "--k-max", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("quantity\t")
    assert any(line.startswith("F=1\t") for line in lines)


def test_census_structured_and_output(tmp_path, capsys):
    path = tmp_path / "census.json"
    path.write_text("an earlier, longer document\n" * 100)
    assert run(["census", "--max-n", "4", "--format", "structured",
                "--output", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "zeroforcing-census/1"
    assert json.loads(path.read_text()) == doc


def test_census_bad_input_flag(capsys):
    for flags in (["--max-n", "0"], ["--max-n", "-2"],
                  ["--max-n", "3", "--jobs", "0"], ["--max-n", "3", "--k-max", "0"]):
        assert run(["census", *flags]) == 1
        captured = capsys.readouterr()
        assert "must be at least 1" in captured.err and captured.out == ""
    # F <= n - 2, so rows above 10 would be zeros; 10**8 of them took minutes
    for k_max in ("11", "100000000"):
        assert run(["census", "--max-n", "3", "--k-max", k_max]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"k_max must be at most 10, got {k_max}\n" and captured.out == ""


def test_census_output_opened_before_the_run(tmp_path, monkeypatch, capsys):
    def failed_run(**kw):
        raise ValueError("the census failed")

    kept = tmp_path / "census.json"
    kept.write_text("earlier document\n")
    monkeypatch.setattr(cli, "run_census", failed_run)
    assert run(["census", "--max-n", "3", "--output", str(kept)]) == 1
    assert kept.read_text() == "earlier document\n"
    assert "the census failed" in capsys.readouterr().err
    monkeypatch.setattr(cli, "run_census", lambda **kw: pytest.fail("census ran"))
    path = tmp_path / "no" / "census.json"
    assert run(["census", "--max-n", "3", "--output", str(path)]) == 1
    captured = capsys.readouterr()
    assert str(path) in captured.err and captured.out == ""


def test_rejected_census_creates_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_census", lambda **kw: pytest.fail("census ran"))
    kept = tmp_path / "kept.json"
    kept.write_text("earlier document\n")
    for flags in (["--max-n", "11"], ["--max-n", "3", "--k-max", "0"],
                  ["--max-n", "3", "--k-max", "11"], ["--max-n", "3", "--jobs", "0"]):
        for path in (tmp_path / "new.json", kept):
            assert run(["census", *flags, "--output", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.err and captured.out == ""
        assert not (tmp_path / "new.json").exists()
        assert kept.read_text() == "earlier document\n"


def test_census_missing_source(capsys):
    assert run(["census", "--max-n", "11"]) == 1
    captured = capsys.readouterr()
    assert "built-in generation covers n = 1..10, not max_n=11" in captured.err
    assert captured.out == ""


def test_census_violation_exits_2(monkeypatch, capsys):
    table = CensusTable(max_n=3, k_max=1)
    table.add(parse_graph6("Bw"), 2, 1)
    table.violations.append(
        Finding(kind="lower-bound", graph6="Bw", n=3, detail="planted"))
    table.finalize()
    monkeypatch.setattr(cli, "run_census", lambda **kw: table)
    assert run(["census", "--max-n", "3"]) == 2
    err = capsys.readouterr().err
    assert "violation [lower-bound]" in err


def test_jobs_flag_matches_serial(capsys):
    assert run(["census", "--max-n", "5", "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert run(["census", "--max-n", "5", "--jobs", "8"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel
