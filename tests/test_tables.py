"""The bundled table, references, and row verification."""

import pytest

from flatbasket import parse_code
from flatbasket.errors import MissingReference, ParseError
from flatbasket.tables import (
    CHECK_NAMES,
    load_references,
    load_table,
    verify_table,
)


def test_table_shape():
    records = load_table()
    assert len(records) == 84
    blocks = [sum(1 for r in records if r.block == b) for b in (1, 2, 3)]
    assert blocks == [35, 40, 9]
    assert [r.name for r in records[:3]] == ["3_1", "4_1", "5_1"]


def test_row_examples():
    records = {r.name: r for r in load_table()}
    r = records["3_1"]
    assert r.code == parse_code("1,2,3,4,1,2,3,4")
    assert (r.genus, r.fpbk_low, r.fpbk_high, r.bullet) == (1, 4, 4, False)
    r = records["7_2"]
    assert (r.fpbk_low, r.fpbk_high, r.bullet, r.footnote) == (6, 8, True, None)
    assert r.claim_text == "6 - 8 •"
    r = records["9_24"]
    assert (r.fpbk_low, r.fpbk_high, r.footnote) == (8, 8, "*")
    r = records["9_29"]
    assert r.footnote == "**"


def test_table_invariants():
    for record in load_table():
        assert record.code.n == record.fpbk_high
        assert record.fpbk_low >= 4
        assert record.fpbk_low <= record.fpbk_high


def test_references_well_formed():
    references = load_references()
    assert len(references) == 84
    for name, poly in references.items():
        coeffs = poly.coeffs
        assert coeffs == tuple(reversed(coeffs)) or coeffs == tuple(
            -c for c in reversed(coeffs)
        ), name
        assert abs(poly.evaluate(1)) == 1, name


def test_table_parse_error(tmp_path):
    bad = tmp_path / "table.tsv"
    bad.write_text("3_1\t(1,2,3,4,1,2,3,4)\t1\n")
    with pytest.raises(ParseError):
        load_table(bad)
    bad.write_text("3_1\t(1,2,3,4,1,2,3,4)\tx\t4\n")
    with pytest.raises(ParseError) as err:
        load_table(bad)
    assert "3_1" in str(err.value)


def test_table_reads_ascii_digits_only(tmp_path):
    bad = tmp_path / "table.tsv"
    for row in (
        "3_1\t(1,2,3,4,1,2,3,4)\t\u0661\t4\n",   # Arabic-Indic genus
        "3_1\t(1,2,3,4,1,2,3,4)\t1\t\u0664\n",   # Arabic-Indic claim
        "3_1\t(1,2,3,4,1,2,3,4)\t1_0\t4\n",
        "3_1\t(1,2,3,4,1,2,3,4)\t1\t" + "9" * 5000 + "\n",
    ):
        bad.write_text(row, encoding="utf-8")
        with pytest.raises(ParseError, match="3_1") as err:
            load_table(bad)
        assert len(str(err.value)) < 200


def test_references_read_ascii_digits_only(tmp_path):
    bad = tmp_path / "references.tsv"
    for coeffs in ("\u0661,-1,1", "1_0,-1,1", "1,x,1"):
        bad.write_text(f"3_1\t{coeffs}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="row '3_1'"):
            load_references(bad)
    bad.write_text("3_1\t1, -1, 1\n", encoding="utf-8")
    assert load_references(bad)["3_1"].coeffs == (1, -1, 1)


def test_missing_reference(tmp_path):
    table = load_table()
    refs = load_references()
    del refs["9_49"]
    with pytest.raises(MissingReference):
        verify_table(table, refs)


def test_verify_single_rows():
    records = {r.name: r for r in load_table()}
    references = load_references()
    report = verify_table((records["3_1"], records["5_2"], records["9_1"]), references)
    assert report.passed
    by_name = {row.name: row for row in report.rows}
    assert str(by_name["3_1"].delta) == "t^2 - t + 1"
    assert str(by_name["5_2"].delta) == "2t^2 - 3t + 2"
    assert set(by_name["9_1"].checks) == set(CHECK_NAMES)


def test_verify_detects_wrong_reference():
    records = tuple(r for r in load_table() if r.name == "3_1")
    refs = load_references()
    refs["3_1"] = refs["4_1"]
    report = verify_table(records, refs)
    assert not report.passed
    assert report.rows[0].checks["alexander"] is False
