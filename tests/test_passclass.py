"""Pass classification and Arf constancy over labeling orbits."""

from itertools import islice, permutations

import pytest

from flatbasket import parse_code, parse_matching, underlying
from flatbasket.errors import CapExceeded, NotAKnot
from flatbasket.invariants import (
    PENCIL_CAP,
    alexander,
    arf_from_determinant,
    determinant_from_alexander,
)
from flatbasket.passclass import (
    OrbitReport,
    labeling_orbit,
    orbit_invariant_check,
    pass_class,
)
from flatbasket.search import enumerate_matchings


def test_unknot_class():
    cls = pass_class(parse_code("1,2,1,2"))
    assert (cls.family, cls.components, cls.certainty) == ("I", 1, "exact")


def test_trefoil_class(trefoil_code):
    cls = pass_class(trefoil_code)
    assert (cls.family, cls.components, cls.certainty) == ("II", 1, "exact")


def test_link_class_partial():
    cls = pass_class(parse_code("1,1"))
    assert cls.family is None
    assert cls.components == 2
    assert cls.certainty == "partial"
    assert pass_class(parse_code("1,1,2,2")).components == 3


def test_pass_class_rotation_and_relabel_invariance(trefoil_code):
    from flatbasket.codes import relabel
    from conftest import rotated

    base = pass_class(trefoil_code)
    for k in range(8):
        assert pass_class(rotated(trefoil_code, k)) == base
    assert pass_class(relabel(trefoil_code, (4, 3, 2, 1))) == base


def test_labeling_orbit_examples():
    orbit = labeling_orbit(parse_matching("1,2,1,2"))
    assert [c.word for c in orbit] == [(1, 2, 1, 2)]
    orbit = labeling_orbit(parse_matching("1,1,2,2"))
    assert [c.word for c in orbit] == [(1, 1, 2, 2)]


def test_trefoil_orbit_all_knots(trefoil_code):
    from flatbasket import boundary_components, surface_stats

    orbit = labeling_orbit(underlying(trefoil_code))
    assert 1 <= len(orbit) <= 24
    assert all(surface_stats(code).boundary == 1 for code in orbit)
    assert any(code.word == (1, 2, 3, 4, 1, 2, 3, 4) for code in orbit)


def test_pass_class_caps_knots_only():
    over = PENCIL_CAP + 2
    knot = parse_code(",".join(map(str, list(range(1, over + 1)) * 2)))
    with pytest.raises(CapExceeded, match=f"{over} bands exceeds the pencil cap {PENCIL_CAP}"):
        pass_class(knot)
    # a link's class needs no determinant, so no cap
    link = pass_class(parse_code(",".join(f"{k},{k}" for k in range(1, over + 1))))
    assert (link.family, link.components, link.certainty) == (None, over + 1, "partial")


def test_orbit_elements_share_drawn_diagram():
    matching = parse_matching("1,2,2,3,1,3")
    m = len(matching.pairing)
    rotations = {
        tuple((matching.pairing[(i + k) % m] - k) % m for i in range(m))
        for k in range(m)
    }
    for code in labeling_orbit(matching):
        assert underlying(code).pairing in rotations


def test_orbit_cap():
    matching = underlying(parse_code("1,2,3,4,5,6,7,8,9,1,2,3,4,5,6,7,8,9"))
    with pytest.raises(CapExceeded, match="orbit cap 8"):
        labeling_orbit(matching)
    # a ten-band knot diagram passes the knot check and stops at the cap
    knot = parse_matching(",".join(map(str, list(range(1, 11)) * 2)))
    with pytest.raises(CapExceeded, match="orbit cap 8"):
        orbit_invariant_check(knot)


def test_orbit_check_examples(trefoil_code):
    report = orbit_invariant_check(underlying(trefoil_code))
    assert report.passed and report.arf_values == (1,)
    report = orbit_invariant_check(parse_matching("1,2,1,2"))
    assert report.passed and report.arf_values == (0,)


def test_orbit_check_rejects_links():
    with pytest.raises(NotAKnot):
        orbit_invariant_check(parse_matching("1,1"))


def test_arf_constant_on_all_n4_knot_orbits():
    for matching in enumerate_matchings(4, knots_only=True):
        assert orbit_invariant_check(matching).passed


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    calls[name] = 0
    monkeypatch.setattr(module, name, counted)


def test_one_boundary_walk_and_one_delta_per_code(monkeypatch, trefoil_code):
    from flatbasket import codes, invariants, passclass

    calls = {}
    _count_calls(monkeypatch, codes, "boundary_components", calls)
    monkeypatch.setattr(passclass, "boundary_components", codes.boundary_components)
    _count_calls(monkeypatch, invariants, "_signature_and_determinant_of_rows", calls)
    _count_calls(monkeypatch, invariants, "_det_bareiss_poly", calls)
    assert pass_class(trefoil_code).family == "II"
    assert calls == {
        "boundary_components": 1, "_signature_and_determinant_of_rows": 1, "_det_bareiss_poly": 0
    }
    calls.update(boundary_components=0)
    orbit_invariant_check(underlying(trefoil_code))
    assert calls["boundary_components"] == 1


def test_orbit_check_one_integer_determinant_per_key(monkeypatch):
    from flatbasket import invariants
    from flatbasket.codes import canonical_word

    # a six-band orbit where keys repeat across distinct canonical words
    matching = next(
        m for m in enumerate_matchings(6, knots_only=True) if len(m.crossings) == 7
    )
    first = {}
    for perm in permutations(range(1, 7)):
        word = tuple(perm[c] for c in matching.chord_at)
        first.setdefault(canonical_word(word), word)
    keys = {tuple(w[pa] < w[pb] for pa, pb in matching.crossings) for w in first.values()}
    assert len(keys) < len(first)

    calls = {}
    _count_calls(monkeypatch, invariants, "_signature_and_determinant_of_rows", calls)
    _count_calls(monkeypatch, invariants, "_det_bareiss_poly", calls)
    report = orbit_invariant_check(matching)
    assert report.orbit_size == len(first)
    assert calls == {"_signature_and_determinant_of_rows": len(keys), "_det_bareiss_poly": 0}


def _per_code_rule(matching):
    """The orbit check as one checked Delta per canonical code of the orbit."""
    orbit = labeling_orbit(matching)
    values = sorted(
        {
            arf_from_determinant(determinant_from_alexander(alexander(code, checked=True)))
            for code in orbit
        }
    )
    return OrbitReport(arf_values=tuple(values), orbit_size=len(orbit), passed=len(values) == 1)


def test_orbit_check_matches_per_code_rule():
    matchings = [m for n in (1, 2, 3, 4) for m in enumerate_matchings(n, knots_only=True)]
    matchings += list(islice(enumerate_matchings(6, knots_only=True), 60))
    for matching in matchings:
        assert orbit_invariant_check(matching) == _per_code_rule(matching), matching


def test_labeling_orbit_is_sorted_least_rotations():
    for matching in islice(enumerate_matchings(6), 0, None, 500):
        words = (tuple(perm[c] for c in matching.chord_at) for perm in permutations(range(1, 7)))
        expected = sorted({min(w[k:] + w[:k] for k in range(len(w))) for w in words})
        assert [code.word for code in labeling_orbit(matching)] == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1,2,3,4,5,6,7,8,1,2,3,4,5,6,7,8", ((0,), 5040)),
        ("1,2,1,3,4,3,5,6,5,7,8,7,2,4,6,8", ((0,), 40320)),
    ],
)
def test_orbit_check_eight_bands(text, expected):
    report = orbit_invariant_check(parse_matching(text))
    assert (report.arf_values, report.orbit_size) == expected
    assert report.passed
