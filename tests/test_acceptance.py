"""End-to-end acceptance checks, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Criterion 8, the
closure properties and the stalled sets they imply, is
tests/test_properties.py, which pytest collects on its own.  The n <= 8
census behind criteria 2-7 runs once per session (see conftest); criterion 9
runs the n <= 9 census at two jobs and checks its class counts, all and
connected, and its tables.  The graph6 round trips of every class with
n <= 8 are in test_graph6_io.  The n = 10 census, which completes the
F = 4 row, and the canonical forms of every class on 9 vertices are gated
behind RUN_EXTENDED=1.
"""

import hashlib
import os
import time

import pytest

from zeroforcing import (
    canonical_form,
    check_values,
    failed_zero_forcing_number,
    generate_graphs,
    is_connected,
    path_graph,
    run_census,
    verify_witness,
    witness_general,
    write_graph6,
    zero_forcing_number,
)
from naive import count_classes_by_dedupe

F_TABLE = {
    1: {3: 2, 4: 1},
    2: {4: 5, 5: 5, 6: 2},
    3: {5: 16, 6: 29, 7: 16, 8: 1},
    4: {6: 81, 7: 277, 8: 268, 9: 14},
}
E_TABLE = {
    1: {3: 1, 4: 1},
    2: {4: 4, 5: 4, 6: 1},
    3: {5: 9, 6: 10, 7: 4},
    4: {6: 19, 7: 29, 8: 2},
}


def test_criterion_1_path_identities():
    start = time.perf_counter()
    for n in range(1, 13):
        g = path_graph(n)
        assert zero_forcing_number(g).value == 1
        assert failed_zero_forcing_number(g).value == (n - 1) // 2
    assert time.perf_counter() - start < 1.0


def test_criterion_2_f_table(census_n8):
    for k, row in F_TABLE.items():
        for n in range(1, 9):
            assert census_n8.f_counts.get((k, n), 0) == row.get(n, 0), (k, n)


def test_criterion_3_e_table(census_n8):
    for k, row in E_TABLE.items():
        for n in range(1, 9):
            assert census_n8.e_counts.get((k, n), 0) == row.get(n, 0), (k, n)


def test_criterion_4_totals(census_n8):
    assert census_n8.f_total(2) == 12
    assert census_n8.f_total(3) == 62
    # complete already at n <= 8: the F = Z = 4 classes stop at n = 8
    assert census_n8.e_total(4) == 50


# sha256 of the n <= 8 document, `census --max-n 8 --k-max 4 --format structured`
N8_SHA256 = "e051273eb40b652987de50796ae42967f699f4bc8f2abdaebdf0f30b001c234c"


def test_census_n8_document_is_pinned(census_n8):
    assert hashlib.sha256(census_n8.to_json().encode()).hexdigest() == N8_SHA256


def test_criterion_5_bounds_exhaustive(census_n8):
    assert census_n8.violations == []


def test_criterion_6_constructive_soundness():
    for n in range(1, 9):
        for g in generate_graphs(n):
            if not is_connected(g):
                continue
            report = witness_general(g)
            assert verify_witness(g, report) == (), write_graph6(g)
            size = report.filled.bit_count()
            assert size >= (n - 1) // 2, write_graph6(g)
            assert size <= failed_zero_forcing_number(g).value, write_graph6(g)
            if g.min_degree() >= 3:
                assert report.guaranteed_bound >= (n + 1) // 2, write_graph6(g)


def test_criterion_7_conjecture_detector(census_n8):
    assert not any(f.kind == "conjecture" for f in census_n8.violations)
    assert any(kind == "conjecture" for kind, _ in check_values(9, zero=2, failed=2))


# sha256 of the n <= 9 document, `census --max-n 9 --k-max 4 --format structured`
N9_SHA256 = "b3ba87b136aaa58562cc6360a75dd1feefc5df28a6f3507f43e8fac380788f12"


def test_criterion_9_infrastructure(census_n8):
    known = {7: (1044, 853), 8: (12346, 11117), 9: (274668, 261080)}
    # as `census --max-n 9 --jobs 2` runs it: n = 9 generated in the workers
    table = run_census(max_n=9, k_max=4, jobs=2)
    for n in range(1, 10):
        counts = (table.class_totals[n], table.connected_totals[n])
        assert counts == (count_classes_by_dedupe(n) if n <= 6 else known[n])
        if n <= 8:
            assert (census_n8.class_totals[n], census_n8.connected_totals[n]) == counts
    for k in range(1, 5):
        for n in range(1, 10):
            assert table.f_counts.get((k, n), 0) == F_TABLE[k].get(n, 0), (k, n)
            assert table.e_counts.get((k, n), 0) == E_TABLE[k].get(n, 0), (k, n)
    assert table.f_total(4) == 640  # all but the one n = 10 class
    assert table.e_total(4) == 50
    assert table.violations == []
    assert hashlib.sha256(table.to_json().encode()).hexdigest() == N9_SHA256
    serial = run_census(max_n=8, k_max=4, jobs=1)
    assert serial.to_json() == census_n8.to_json()
    assert serial.to_text_table() == census_n8.to_text_table()


# the structured document of `census --max-n 10 --k-max 4`, BENCH_builtin_n10.json
N10_SHA256 = "dd3578709f3ca923dec52686c499869b82afc729bfc0522a16b01a4b546fb3b9"


@pytest.mark.skipif(not os.environ.get("RUN_EXTENDED"),
                    reason="about 9 min of CPU; set RUN_EXTENDED=1")
def test_extended_f4_row():
    # n <= 9 is checked by criterion 9; this adds the one n = 10 class
    table = run_census(max_n=10, k_max=4, jobs=os.cpu_count() or 1)
    assert table.class_totals[10] == 12005168  # A000088
    assert table.connected_totals[10] == 11716571  # A001349
    assert table.f_counts.get((4, 10), 0) == 1
    assert table.f_total(4) == 641
    assert table.e_total(4) == 50
    assert table.violations == []
    assert hashlib.sha256(table.to_json().encode()).hexdigest() == N10_SHA256


# sha256 of the sorted canonical_form records of the classes on 9 vertices,
# in the form of test_census.CLASS_DIGESTS
N9_FORMS_SHA256 = "6fbe3234652781f453cbfd0ab547728078e23ec97187fef42fb7416dd7e529a6"


@pytest.mark.skipif(not os.environ.get("RUN_EXTENDED"),
                    reason="about 10 s of CPU; set RUN_EXTENDED=1")
def test_extended_n9_canonical_forms():
    # criterion 9 checks n = 9 by its class counts only
    forms = sorted(canonical_form(g) for g in generate_graphs(9))
    assert len(forms) == 274668
    assert hashlib.sha256("\n".join(forms).encode()).hexdigest() == N9_FORMS_SHA256
