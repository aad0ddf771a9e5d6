"""Command-line behaviour: outputs and exit codes."""

import json

from flatbasket.cli import build_parser, cli_dispatch


def run(capsys, *argv):
    status = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_alexander_plain(capsys):
    status, out, _ = run(capsys, "alexander", "--code", "1,2,3,4,1,2,3,4")
    assert status == 0
    assert out.strip() == "t^2 - t + 1"


def test_alexander_json(capsys):
    status, out, _ = run(capsys, "alexander", "--code", "1,2,3,4,1,2,3,4", "--json")
    assert status == 0
    payload = json.loads(out)
    assert payload["normalized"] == {"coeffs": [1, -1, 1], "min_degree": 0}
    assert payload["raw"] == {"coeffs": [1, -1, 1], "min_degree": 1}
    assert payload["span"] == 2 and payload["leading"] == 1


def test_validate_and_stats(capsys):
    status, out, _ = run(capsys, "validate", "--code", "(2,1,2,1)", "--json")
    assert status == 0
    assert json.loads(out)["canonical"] == "1,2,1,2"
    status, out, _ = run(capsys, "stats", "--code", "1,2,1,2")
    assert status == 0
    assert "boundary=1" in out


def test_matrix_output(capsys):
    status, out, _ = run(capsys, "matrix", "--code", "1,2,1,2", "--json")
    assert json.loads(out)["matrix"] == [[0, 0], [-1, 0]]
    status, out, _ = run(capsys, "matrix", "--code", "1,2,1,2", "--symmetrized", "--json")
    assert json.loads(out)["matrix"] == [[0, -1], [-1, 0]]


def test_bound_command(capsys):
    status, out, _ = run(
        capsys, "bound", "--code", "1,2,3,5,6,4,5,6,1,2,3,4", "--genus", "1", "--json"
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["overall"] == 6 and payload["case"] == "non_monic"


def test_bound_rejects_links(capsys):
    status, _, err = run(capsys, "bound", "--code", "1,1")
    assert status == 1
    assert "error" in err


def test_domain_error_exit_code(capsys):
    status, _, err = run(capsys, "alexander", "--code", "1,2,1")
    assert status == 1
    assert "error" in err


def test_non_ascii_digits_are_domain_errors(capsys):
    for argv in (
        ("alexander", "--code", "1,²,1,²"),
        ("alexander", "--code", "١,٢,١,٢"),
        ("search", "-n", "2", "--target", "١,٢"),
        ("search", "-n", "2", "--target", "t^٢ - t + ١"),
        ("search", "-n", "2", "--target", "1_0,2"),
    ):
        status, out, err = run(capsys, *argv)
        assert status == 1 and out == ""
        assert err.startswith("error: ")


def test_overlong_numbers_are_domain_errors(capsys):
    # past Python's 4300-digit int-conversion limit
    huge = "9" * 5000
    for argv in (
        ("alexander", "--code", f"{huge},1"),
        ("search", "-n", "2", "--target", f"t^{huge}"),
        ("search", "-n", "2", "--target", f"{huge}t + 1"),
    ):
        status, out, err = run(capsys, *argv)
        assert status == 1 and out == ""
        assert err.startswith("error: ") and len(err) < 200


def test_polynomial_errors_name_a_short_excerpt(capsys):
    huge = "9" * 5000
    for target in (f"1,{huge}", f"1,{huge}x", f"t + 1 {huge}", f"t + 1 + {huge}x"):
        status, out, err = run(capsys, "search", "-n", "2", "--target", target)
        assert status == 1 and out == ""
        assert err.startswith("error: ") and len(err.encode()) < 200, err[:300]


def test_errors_on_long_inputs_stay_short(capsys):
    # 3,000 labels: each message gives a count and a short excerpt
    once = ",".join(map(str, range(1, 3001)))
    shifted = ",".join(map(str, list(range(2, 3002)) * 2))
    for argv, says in (
        (("alexander", "--code", "1," + "x" * 5000), "token 'xxx"),
        (("alexander", "--code", once), "3000 labels do not occur exactly twice"),
        (("alexander", "--code", shifted), "are not exactly 1..3000"),
        (("orbit-check", "--matching", once), "3000 matching tokens"),
    ):
        status, out, err = run(capsys, *argv)
        assert status == 1 and out == ""
        assert err.startswith("error: ") and says in err
        assert len(err.encode()) < 200, err[:300]


def test_enumeration_caps_are_fixed(capsys):
    status, out, _ = run(capsys, "census", "-n", "4", "--cap", "6")
    assert (status, out) == (2, "")
    status, out, err = run(capsys, "census", "-n", "7")
    assert (status, out) == (1, "") and "exceeds the cap 6" in err
    nine = ",".join(map(str, list(range(1, 10)) * 2))
    status, out, _ = run(capsys, "orbit-check", "--matching", nine)
    assert (status, out) == (1, "")
    ten = ",".join(map(str, list(range(1, 11)) * 2))
    status, out, err = run(capsys, "orbit-check", "--matching", ten)
    assert (status, out) == (1, "") and "exceeds the orbit cap 8" in err
    status, out, _ = run(capsys, "orbit-check", "--matching", "1,2,1,2", "--cap", "9")
    assert (status, out) == (2, "")


def test_dispatch_calls_share_no_state(capsys):
    status, out, _ = run(capsys, "search", "-n", "4", "--no-such-flag")
    assert (status, out) == (2, "")
    status, out, _ = run(capsys, "search", "-n", "4", "--knots-only", "--limit", "1")
    assert status == 0 and len(out.splitlines()) == 1
    status, full, err = run(capsys, "search", "-n", "4", "--knots-only")
    assert status == 0 and "66 records" in err
    assert full.splitlines()[0] == out.strip() and len(full.splitlines()) == 66
    status, again, _ = run(capsys, "search", "-n", "4", "--knots-only")
    assert (status, again) == (0, full)
    assert build_parser() is not build_parser()


def test_usage_error_exit_code(capsys):
    status, _, _ = run(capsys, "no-such-command")
    assert status == 2
    status, _, _ = run(capsys, "alexander")
    assert status == 2


def test_passclass_and_orbit(capsys):
    status, out, _ = run(capsys, "passclass", "--code", "1,2,3,4,1,2,3,4", "--json")
    assert json.loads(out)["family"] == "II"
    status, out, _ = run(capsys, "orbit-check", "--matching", "1,2,1,2", "--json")
    assert status == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["arf_values"] == [0]


def test_flatten_command(tmp_path, capsys):
    diagram = tmp_path / "valley.txt"
    diagram.write_text("1,0; 1,3; 2,3; 2,1; 3,1; 3,4; 4,4; 4,0\n")
    status, out, _ = run(capsys, "flatten", "--diagram", str(diagram), "--trace")
    assert status == 0
    assert "push-down at y=1" in out
    assert "(1,3,1,2,3,2)" in out
    status, out, _ = run(capsys, "flatten", "--diagram", str(diagram), "--json")
    assert json.loads(out) == {"code": "1,3,1,2,3,2", "bands": 3, "push_downs": 1}


def test_flatten_rejects_non_rational_coordinates(tmp_path, capsys):
    diagram = tmp_path / "exponent.txt"
    for text in (
        "1,0; 1,1e2000000; 2,1e2000000; 2,0\n",
        "1,0; 1,1.5; 2,1.5; 2,0\n",
        "1,0; 1,1_0; 2,1_0; 2,0\n",
        "1,0; 1,\u0661; 2,\u0661; 2,0\n",
    ):
        diagram.write_text(text, encoding="utf-8")
        status, out, err = run(capsys, "flatten", "--json", "--diagram", str(diagram))
        assert status == 1 and out == ""
        assert "bad coordinate" in err and len(err) < 200
    diagram.write_bytes(b"1,0; 1,1; 2,1; 2,0\xff\n")
    status, out, err = run(capsys, "flatten", "--json", "--diagram", str(diagram))
    assert status == 1 and out == "" and "undecodable byte" in err


def test_invariants_builds_one_seifert_matrix(monkeypatch, capsys):
    from flatbasket import cli, invariants

    calls = []
    real = invariants.seifert_matrix

    def counted(code):
        calls.append(code)
        return real(code)

    monkeypatch.setattr(cli, "seifert_matrix", counted)
    monkeypatch.setattr(invariants, "seifert_matrix", counted)
    status, out, _ = run(capsys, "invariants", "--json", "--code", "1,2,3,4,1,2,3,4")
    assert status == 0
    payload = json.loads(out)
    assert payload["signature"] == 2 and payload["determinant"] == 3
    assert len(calls) == 1


def test_flatten_missing_file(capsys):
    status, _, err = run(capsys, "flatten", "--diagram", "does-not-exist.txt")
    assert status == 1


def test_search_command(tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    status, out, err = run(
        capsys,
        "search", "-n", "4", "--target", "t^2 - t + 1", "--knots-only",
        "--json", "--store", str(store),
    )
    assert status == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert any(rec["code"] == "1,2,3,4,1,2,3,4" for rec in lines)
    assert "2 records" in err
    assert len(store.read_text().splitlines()) == 2


def test_census_command(capsys):
    status, out, _ = run(capsys, "census", "-n", "2", "--json")
    assert status == 0
    payload = json.loads(out)
    assert payload == [{"delta": {"coeffs": [1], "min_degree": 0}, "count": 1}]


def test_verify_table_command(capsys):
    status, out, _ = run(capsys, "verify-table")
    assert status == 0
    assert "84/84 rows pass" in out


def test_verify_table_reports_a_row_without_a_bound(tmp_path, capsys):
    # 2 * genus = 0 < span 2 leaves the bound undefined: that row fails
    # check (v) and the report goes on
    table = tmp_path / "table.tsv"
    table.write_text(
        "3_1\t(1,2,3,4,1,2,3,4)\t1\t4\n4_1\t(1,2,4,3,1,2,4,3)\t0\t4\n",
        encoding="utf-8",
    )
    status, out, err = run(capsys, "verify-table", "--table", str(table))
    assert (status, err) == (1, "")
    lines = out.splitlines()
    assert lines[0].startswith("ok   3_1 ")
    assert lines[1].startswith("FAIL 4_1 ") and "GENUS!" in lines[1]
    assert "BOUND!" in lines[1] and lines[2] == "1/2 rows pass"
    # a link row: zero polynomial, no bound, KNOT! instead of an abort
    table.write_text("3_1\t(1,1,2,2)\t1\t2\n", encoding="utf-8")
    status, out, err = run(capsys, "verify-table", "--table", str(table))
    assert (status, err) == (1, "")
    assert out.startswith("FAIL 3_1 ") and "KNOT!" in out
