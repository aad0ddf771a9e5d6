"""Acceptance suite: the nine exit criteria, one test per criterion.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The exhaustive six-band knot enumeration is computed once per session and
shared by the criteria that consume it.
"""

import contextlib
import hashlib
import io
import json
import random
import time

import pytest

from flatbasket import (
    alexander,
    arf,
    parse_code,
    parse_polynomial,
    pencil_determinant,
    seifert_matrix,
    surface_stats,
)
from flatbasket.bounds import fpbk_lower_bound
from flatbasket.cli import cli_dispatch
from flatbasket.invariants import normalize_alexander
from flatbasket.passclass import orbit_invariant_check
from flatbasket.pushdown import (
    diagram_seifert_matrix,
    flatten_trace,
    parse_diagram,
)
from flatbasket.search import SearchQuery, enumerate_matchings, record_to_json, search
from flatbasket.seifert import SeifertMatrix
from flatbasket.tables import load_references, load_table, verify_table
from conftest import random_code

# stdout and store of ``search -n 6 --knots-only --json --store`` on a new store
N6_STDOUT_SHA256 = "7c6a263982097a42ac6fd9b53d3ffe7770e013e0b92828f1fd8f51514a9223a6"
N6_STORE_SHA256 = "09dcca7c3097dbefdb190283195963b39eb3f27b584652b8ca3c93f3586c371d"


def report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="session")
def n6_run():
    start = time.time()
    records = search(SearchQuery(bands=6, knots_only=True, jobs=8))
    return records, time.time() - start


@pytest.fixture(scope="session")
def knot_records_by_bands(n6_run):
    records6, elapsed = n6_run
    out = {6: records6}
    for n in (2, 4):
        out[n] = search(SearchQuery(bands=n, knots_only=True))
    return out, elapsed


def test_criterion_1_table_reproduction():
    start = time.time()
    references = load_references()
    mismatches = []
    for record in load_table():
        delta = alexander(record.code, checked=True)
        if delta.normalized != references[record.name]:
            mismatches.append(record.name)
    elapsed = time.time() - start
    report(
        1,
        not mismatches and elapsed < 5.0,
        f"all 84 codes reproduce their reference polynomial exactly "
        f"({elapsed:.2f}s; mismatches: {mismatches or 'none'})",
    )


def test_criterion_2_bound_reproduction():
    five_two = fpbk_lower_bound(
        normalize_alexander(parse_polynomial("2t^2 - 3t + 2")), genus=1
    )
    report_rows = verify_table()
    bad_bounds = [
        row.name for row in report_rows.rows if not row.checks["bound"]
    ]
    bad_bullets = [
        row.name for row in report_rows.rows if not row.checks["bullet"]
    ]
    report(
        2,
        five_two.overall == 6 and not bad_bounds and not bad_bullets,
        f"5_2 bound = {five_two.overall}; bound failures: {bad_bounds or 'none'}; "
        f"bullet failures: {bad_bullets or 'none'}",
    )


def test_criterion_3_hand_anchors():
    trefoil = alexander(parse_code("1,2,3,4,1,2,3,4"), checked=True)
    figure_eight = alexander(parse_code("1,2,4,3,1,2,4,3"), checked=True)
    ok = (
        trefoil.raw.coeffs == (0, 1, -1, 1)
        and trefoil.normalized.coeffs == (1, -1, 1)
        and figure_eight.normalized.coeffs == (1, -3, 1)
    )
    report(
        3,
        ok,
        f"raw(3_1 code) = {trefoil.raw}, norm = {trefoil.normalized}; "
        f"norm(4_1 code) = {figure_eight.normalized}",
    )


def test_criterion_4_knot_sanity_exhaustive(knot_records_by_bands):
    by_bands, elapsed6 = knot_records_by_bands
    start = time.time()
    table_knots = all(
        surface_stats(r.code).boundary == 1 for r in load_table()
    )
    checked = 0
    failures = []
    for n, records in by_bands.items():
        for record in records:
            checked += 1
            norm = record.delta.normalized
            raw = record.delta.raw
            rows = seifert_matrix(record.code).rows
            product = rows[n - 1][0]
            for k in range(1, n):
                product *= rows[k][k - 1]
            top = raw.coeffs[n - 1] if len(raw.coeffs) == n else 0
            low = raw.coeffs[1] if raw.min_degree is not None and raw.min_degree <= 1 else 0
            palindromic = norm.coeffs == tuple(reversed(norm.coeffs)) or norm.coeffs == tuple(
                -c for c in reversed(norm.coeffs)
            )
            ok = (
                abs(norm.evaluate(1)) == 1
                and norm.evaluate(-1) % 2 == 1
                and palindromic
                and raw.min_degree >= 1
                and raw.degree <= n - 1
                and abs(top) == abs(product)
                and abs(low) == abs(product)
            )
            if not ok:
                failures.append(record.code.word)
    elapsed = elapsed6 + (time.time() - start)
    report(
        4,
        table_knots and not failures and elapsed < 120.0,
        f"{checked} knot codes over n in (2,4,6) all pass the sanity suite "
        f"({elapsed:.1f}s; failures: {failures[:3] or 'none'})",
    )


def test_criterion_5_determinant_cross_validation():
    rng = random.Random(20250809)
    disagreements = 0
    for _ in range(1000):
        code = random_code(rng, rng.randint(1, 8))
        v = seifert_matrix(code)
        if pencil_determinant(v, "fraction_free") != pencil_determinant(v, "eval_interp"):
            disagreements += 1
    report(
        5,
        disagreements == 0,
        f"fraction-free and evaluation-interpolation agree on 1000 seeded codes "
        f"(disagreements: {disagreements})",
    )


def test_criterion_6_orbit_property():
    matchings = [m for n in (2, 4, 6) for m in enumerate_matchings(n, knots_only=True)]
    failures = [m.pairing for m in matchings if not orbit_invariant_check(m).passed]
    six = sum(m.n == 6 for m in matchings)
    report(
        6,
        not failures and six == 1485,
        f"Arf constant on all {len(matchings)} labeling orbits "
        f"(n=2,4,6 exhaustive; {six} six-band knot matchings; failures: {failures[:3] or 'none'})",
    )


def test_criterion_7_search_milestones(knot_records_by_bands):
    from flatbasket.search import census

    by_bands, elapsed6 = knot_records_by_bands
    two = census(2)
    ok_census = {str(k): v for k, v in two.items()} == {"1": 1}
    trefoil = parse_polynomial("t^2 - t + 1")
    hits4 = [
        r for r in by_bands[4] if r.delta.normalized == trefoil
    ]
    ok_4 = hits4 and any(r.code.word == (1, 2, 3, 4, 1, 2, 3, 4) for r in hits4)
    ok_2 = not any(r.delta.normalized == trefoil for r in by_bands[2])
    granny = parse_polynomial("t^4 - 2t^3 + 3t^2 - 2t + 1")
    five_two = parse_polynomial("2t^2 - 3t + 2")
    deltas6 = {r.delta.normalized for r in by_bands[6]}
    ok_6 = granny in deltas6 and five_two in deltas6
    report(
        7,
        bool(ok_census and ok_4 and ok_2 and ok_6) and elapsed6 < 600.0,
        f"census(2)={{1:1}}: {ok_census}; 3_1 found at n=4: {bool(ok_4)}; "
        f"none at n=2: {ok_2}; squared-trefoil and 5_2 polynomials at n=6: {ok_6} "
        f"(exhaustive n=6 in {elapsed6:.1f}s)",
    )


def test_criterion_8_push_down_suite():
    from importlib import resources

    root = resources.files("flatbasket") / "data" / "diagrams"
    paths = sorted(root.iterdir(), key=lambda p: p.name)
    failures = []
    flat_count = 0
    for path in paths:
        diagram = parse_diagram(path.read_text())
        oracle = normalize_alexander(
            pencil_determinant(SeifertMatrix(diagram_seifert_matrix(diagram)))
        )
        result = flatten_trace(diagram)
        steps_ok = all(
            s.euler_after == s.euler_before - 2 and s.boundary_after == s.boundary_before
            for s in result.steps
        )
        delta_ok = alexander(result.code).normalized == oracle.normalized
        calibration_ok = True
        if not result.steps:
            flat_count += 1
            calibration_ok = (
                diagram_seifert_matrix(diagram)
                == seifert_matrix(result.code).rows
            )
        if not (steps_ok and delta_ok and calibration_ok):
            failures.append(path.name)
    anchors = {"flat_interleaved_pair.txt", "flat_trefoil.txt", "valley.txt"}
    names = {p.name for p in paths}
    report(
        8,
        len(paths) >= 20 and anchors <= names and not failures,
        f"{len(paths)} corpus diagrams ({flat_count} flat) all flatten with "
        f"chi/boundary invariants and oracle-matching polynomials "
        f"(failures: {failures or 'none'})",
    )


def test_criterion_9_parallel_determinism(n6_run, tmp_path):
    # the jobs=1 run is the CLI's, so its serializer, which dumps once per
    # orientation key, is checked line by line against record_to_json of
    # the jobs=8 records
    parallel, _ = n6_run
    store = tmp_path / "n6.jsonl"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli_dispatch(
            ["search", "-n", "6", "--knots-only", "--json", "--store", str(store)]
        )
    serial_lines = out.getvalue().splitlines()
    store_lines = store.read_text().splitlines()
    entries = [record_to_json(r) for r in parallel]
    differing = sum(
        line != json.dumps(entry, sort_keys=True)
        for line, entry in zip(serial_lines, entries)
    ) + sum(
        line != json.dumps(entry, sort_keys=True, separators=(",", ":"))
        for line, entry in zip(store_lines, entries)
    )
    digests = (
        hashlib.sha256(out.getvalue().encode()).hexdigest(),
        hashlib.sha256(store.read_bytes()).hexdigest(),
    )
    report(
        9,
        status == 0
        and len(serial_lines) == len(store_lines) == len(entries) == 89160
        and not differing
        and digests == (N6_STDOUT_SHA256, N6_STORE_SHA256),
        f"jobs=1 (CLI) and jobs=8 outputs byte-identical over {len(entries)} records "
        f"({differing} differing lines), stdout and store digests pinned",
    )
