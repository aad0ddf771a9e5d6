"""Error branches and less-travelled paths across the modules."""

import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from flatbasket import IntPolynomial, codes, invariants, parse_code, parse_matching, pushdown
from flatbasket import search as search_module
from flatbasket.bounds import fpbk_lower_bound
from flatbasket.cli import cli_dispatch
from flatbasket.codes import FlatBasketCode, UnderlyingDiagram
from flatbasket.errors import (
    EmptyInput,
    FlatBasketError,
    InvalidPermutation,
    InvariantViolation,
    MalformedCode,
    MalformedDiagram,
    MissingReference,
    ParseError,
)
from flatbasket.pushdown import (
    diagram_to_text,
    flatten_trace,
    parse_diagram,
    push_down,
)
from flatbasket.search import SearchQuery
from flatbasket.tables import load_references, load_table, verify_table
from conftest import code_to_flat_diagram


def test_code_constructor_rejects_empty_word():
    with pytest.raises(EmptyInput):
        FlatBasketCode(())


def test_underlying_diagram_validation():
    with pytest.raises(MalformedCode):
        UnderlyingDiagram((0,))          # odd size
    with pytest.raises(MalformedCode):
        UnderlyingDiagram((0, 1))        # fixed point
    with pytest.raises(MalformedCode):
        UnderlyingDiagram((1, 2, 0, 3))  # not an involution


def test_parse_matching_errors():
    with pytest.raises(EmptyInput):
        parse_matching(" ")
    with pytest.raises(MalformedCode):
        parse_matching("1,2,1")
    assert parse_matching("(7,9,7,9)").pairs() == ((1, 3), (2, 4))


def test_polynomial_division_and_shift_edges():
    with pytest.raises(ZeroDivisionError):
        IntPolynomial((1,)).exact_div(IntPolynomial(()))
    with pytest.raises(ArithmeticError):
        IntPolynomial((1,)).exact_div(IntPolynomial((0, 1)))  # deg too small
    with pytest.raises(ArithmeticError):
        IntPolynomial((1, 1)).shifted(-1)
    assert IntPolynomial(()).shifted(3).is_zero
    assert IntPolynomial(()).exact_div(IntPolynomial((2,))).is_zero


def test_polynomial_parse_errors():
    from flatbasket import parse_polynomial

    with pytest.raises(MalformedCode):
        parse_polynomial("")
    with pytest.raises(MalformedCode):
        parse_polynomial("1,x")
    with pytest.raises(MalformedCode):
        parse_polynomial("t t")
    with pytest.raises(MalformedCode):
        parse_polynomial("t^2 +")


def test_search_query_validation():
    with pytest.raises(ValueError):
        SearchQuery(bands=0)


def test_parse_diagram_errors():
    with pytest.raises(MalformedDiagram):
        parse_diagram("1,0; 1;2")
    with pytest.raises(MalformedDiagram):
        parse_diagram("1,0; x,2; 2,2; 2,0")


def test_diagram_to_text_rejects_connectors():
    pushed = push_down(parse_diagram("1,0; 1,3; 2,3; 2,1; 3,1; 3,4; 4,4; 4,0"), 1)
    with pytest.raises(MalformedDiagram):
        diagram_to_text(pushed)


def test_diagram_connector_validation():
    from fractions import Fraction

    from flatbasket.errors import DuplicateColumn, FootOrderViolation
    from flatbasket.pushdown import Connector, RectilinearDiagram, validate_diagram

    base = code_to_flat_diagram(parse_code("1,1"))
    with pytest.raises(DuplicateColumn):
        validate_diagram(
            RectilinearDiagram(base.bands, (Connector(Fraction(1), Fraction(5)),))
        )
    with pytest.raises(FootOrderViolation):
        validate_diagram(
            RectilinearDiagram(base.bands, (Connector(Fraction(5), Fraction(3)),))
        )


# two 4,300-digit parts, coprime as both are odd and two apart
LONG = Fraction(10**4299 + 1, 10**4299 + 3)


def _long_reference_name(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("k" * 5000 + "\t0,1,-1,1\n")  # not normalized
    load_references(path)


def _validate(text):
    pushdown.validate_diagram(parse_diagram(text))


LONG_VALUE_ERRORS = {
    "band_step_column": lambda tmp_path: _validate(
        f"1,0; 1,2; {LONG},2; {LONG},0\n5,0; 5,3; {LONG},3; {LONG},4; 6,4; 6,0"
    ),
    "band_step_height": lambda tmp_path: _validate(
        f"1,0; 1,{LONG}; 2,{LONG}; 2,0\n3,0; 3,{LONG}; 4,{LONG}; 4,0"
    ),
    "connector_step": lambda tmp_path: pushdown.validate_diagram(
        pushdown.RectilinearDiagram(
            (((1, 0), (1, 1), (LONG, 1), (LONG, 0)),), (pushdown.Connector(0, LONG),)
        )
    ),
    "find_xline": lambda tmp_path: push_down(parse_diagram("1,0; 1,1; 2,1; 2,0"), LONG),
    "site_for": lambda tmp_path: push_down(
        parse_diagram(f"1,0; 1,{LONG}; 2,{LONG}; 2,0"), LONG
    ),
    "knot_determinant": lambda tmp_path: invariants.knot_determinant(
        parse_code(",".join(f"{i},{i}" for i in range(1, 101)))
    ),
    "relabel": lambda tmp_path: codes.relabel(parse_code("1,2,1,2"), [1] * 1000),
    "relabel_long_entries": lambda tmp_path: codes.relabel(
        parse_code("1,2,1,2"), [10**4299] * 3
    ),
    "genus_contradiction": lambda tmp_path: fpbk_lower_bound(
        invariants.alexander(parse_code("1,2,3,4,1,2,3,4")), genus=-(10**4299)
    ),
    "missing_reference": lambda tmp_path: verify_table(references={}),
    "reference_name": _long_reference_name,
}


@pytest.mark.parametrize("site", sorted(LONG_VALUE_ERRORS))
def test_long_values_are_cut_in_error_messages(site, tmp_path):
    # a value over 24 characters is cut to an excerpt, and a list to its
    # first two items and its count; the tests of the short messages
    # (x=3/2, y=7) pin that shorter ones are quoted whole
    with pytest.raises(FlatBasketError) as info:
        LONG_VALUE_ERRORS[site](tmp_path)
    message = f"error: {info.value}\n"
    assert "characters)" in message or "items)" in message, message[:300]
    assert len(message.encode()) < 200, message[:300]


def test_long_lists_keep_their_first_items_in_error_messages():
    names = ("3_1", "4_1", "5_1", "5_2")
    records = tuple(r for r in load_table() if r.name in names)
    with pytest.raises(
        MissingReference, match=r"^no reference polynomial for 3_1, 4_1, \.\.\. \(4 items\)$"
    ):
        verify_table(records, references={})
    with pytest.raises(InvalidPermutation, match=r"^\(2, 2\) is not a permutation of 1\.\.2$"):
        codes.relabel(parse_code("1,2,1,2"), [2, 2])


def test_table_claim_parse_error(tmp_path):
    bad = tmp_path / "t.tsv"
    bad.write_text("3_1\t(1,2,1,2)\t1\tsoon\n")
    with pytest.raises(ParseError):
        load_table(bad)


def test_reference_file_errors(tmp_path):
    bad = tmp_path / "r.tsv"
    bad.write_text("3_1\t1,-1,1\textra\n")
    with pytest.raises(ParseError):
        load_references(bad)
    bad.write_text("3_1\t1,q,1\n")
    with pytest.raises(ParseError):
        load_references(bad)
    bad.write_text("3_1\t0,1,-1,1\n")  # not normalized (min degree 1)
    with pytest.raises(ParseError):
        load_references(bad)


_real_unimodular_step = invariants._unimodular_step


def _step_with_wrong_entry(a, i, j):
    det = _real_unimodular_step(a, i, j)
    if a:
        a[-1][-1] += 2
    return det


def _lossy_divmod(a, b):
    q, r = divmod(a, b)
    return q, r if b in (1, -1) else r + 1


def test_invariant_checks_survive_optimized_mode(monkeypatch):
    """Broken bookkeeping raises InvariantViolation, not a strippable assert."""
    valley = parse_diagram("1,0; 1,3; 2,3; 2,1; 3,1; 3,4; 4,4; 4,0\n")
    arch = parse_diagram("1,0; 1,1; 2,1; 2,0\n")
    checks = [
        (codes, "boundary_components", lambda d: 2,
         lambda: codes.surface_stats(parse_code("1,2,1,2"))),
        (pushdown.RectilinearDiagram, "band_count", property(lambda d: 0),
         lambda: push_down(valley, 1)),
        (pushdown._Walk, "boundary", lambda walk: len(walk.feet),
         lambda: push_down(valley, 1)),
        (pushdown._Walk, "boundary", lambda walk: len(walk.feet),
         lambda: flatten_trace(valley)),
        (pushdown, "_ascending_count", lambda d: 2, lambda: flatten_trace(valley)),
        # a walk whose ascending ends are not x-lines minus bands
        (pushdown, "_ascending_count", lambda d: 1, lambda: flatten_trace(arch)),
        # a grid too coarse for the connector's midpoint foot at x = 3/2
        (pushdown, "_grid_unit", lambda d, ascending: 1, lambda: flatten_trace(valley)),
        # a grid that fails a walk that the drawing passes
        (pushdown, "_grid_unit", lambda d, ascending: 0, lambda: flatten_trace(valley)),
        (search_module, "fpbk_lower_bound",
         lambda delta, genus: SimpleNamespace(overall=99),
         lambda: search_module.search(SearchQuery(bands=4, knots_only=True))),
        # a 2x2 step of the symmetric kernel that gets one entry wrong, and a
        # fallback step whose division by a non-unit pivot is inexact
        (invariants, "_unimodular_step", _step_with_wrong_entry,
         lambda: search_module.search(SearchQuery(bands=4, knots_only=True))),
        (invariants, "divmod", _lossy_divmod,
         lambda: invariants.signature(parse_code("1,2,3,4,5,6,1,2,3,4,5,6"))),
    ]
    for module, name, fake, call in checks:
        # raising=False: divmod is a builtin, not yet a module attribute
        monkeypatch.setattr(module, name, fake, raising=False)
        with pytest.raises(InvariantViolation):
            call()
        monkeypatch.undo()


def _run(capsys, *argv):
    status = cli_dispatch(list(argv))
    out, err = capsys.readouterr()
    return status, out, err


def test_cli_plain_text_paths(capsys):
    status, out, _ = _run(capsys, "matrix", "--code", "1,2,1,2")
    assert status == 0 and out.splitlines() == [" 0  0", "-1  0"]
    status, out, _ = _run(capsys, "invariants", "--code", "1,2,3,4,1,2,3,4", "--json")
    payload = json.loads(out)
    assert payload["determinant"] == 3 and payload["arf"] == 1
    status, out, _ = _run(capsys, "census", "-n", "2")
    assert status == 0 and out.strip().endswith("1")
    status, out, _ = _run(capsys, "validate", "--code", "2,1,2,1")
    assert "canonical form (1,2,1,2)" in out
    status, out, _ = _run(capsys, "passclass", "--code", "1,1")
    assert "undetermined" in out
    status, out, _ = _run(capsys, "search", "-n", "2", "--knots-only")
    assert "code=1,2,1,2" in out


def test_cli_positive_int_flags(capsys):
    assert _run(capsys, "census", "-n", "0")[0] == 2
    assert _run(capsys, "search", "-n", "4", "--jobs", "0")[0] == 2


def test_cli_integer_options_read_ascii_digits_only(capsys):
    # int() alone reads other scripts' digits and "_" too
    for argv, option, text in (
        (("census", "-n", "\u0664"), "-n/--bands", "\u0664"),
        (("census", "-n", "0_4"), "-n/--bands", "0_4"),
        (("census", "-n", " 4"), "-n/--bands", " 4"),
        (("census", "-n", "4", "--jobs", "\uff12"), "--jobs", "\uff12"),
        (("search", "-n", "\u00b2"), "-n/--bands", "\u00b2"),
        (("bound", "--code", "1,2,3,4,1,2,3,4", "--genus", "\u0661"), "--genus", "\u0661"),
        (("bound", "--code", "1,2,3,4,1,2,3,4", "--genus", "1_0"), "--genus", "1_0"),
    ):
        status, out, err = _run(capsys, *argv)
        assert (status, out) == (2, ""), argv
        assert err.endswith(f"error: argument {option}: invalid int value: {text!r}\n"), argv
    status, out, _ = _run(capsys, "bound", "--code", "1,2,3,4,1,2,3,4", "--genus", "+1")
    assert status == 0 and "genus bound 4" in out


def test_cli_store_on_directory_is_domain_error(tmp_path, capsys):
    status, _, err = _run(
        capsys, "search", "-n", "2", "--store", str(tmp_path)
    )
    assert status == 1 and "error" in err


def test_store_rejects_unreadable_lines(tmp_path):
    from flatbasket.errors import StoreMismatch
    from flatbasket.search import search, write_store

    store = tmp_path / "s.jsonl"
    store.write_text("not json\n")
    with pytest.raises(StoreMismatch):
        write_store(store, search(SearchQuery(bands=2)))


def test_cli_verify_table_json_and_failure(tmp_path, capsys):
    status, out, _ = _run(capsys, "verify-table", "--json")
    rows = json.loads(out)
    assert status == 0 and len(rows) == 84 and all(r["passed"] for r in rows)
    table = tmp_path / "table.tsv"
    # claim 6 contradicts the 4-band trefoil code: bands check must fail
    table.write_text("3_1\t(1,2,3,4,1,2,3,4)\t1\t6\n")
    status, out, _ = _run(capsys, "verify-table", "--table", str(table))
    assert status == 1
    assert "BANDS!" in out or "BOUND!" in out
