"""Pass classification and Arf constancy over labeling orbits."""

import pytest

from flatbasket import parse_code, parse_matching, underlying
from flatbasket.errors import NotAKnot, OrbitTooLarge
from flatbasket.passclass import labeling_orbit, orbit_invariant_check, pass_class
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
    from flatbasket.codes import relabel, rotated

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
    with pytest.raises(OrbitTooLarge):
        labeling_orbit(matching)
    # a ten-band knot diagram passes the knot check and stops at the cap
    knot = parse_matching(",".join(map(str, list(range(1, 11)) * 2)))
    with pytest.raises(OrbitTooLarge, match="orbit cap 8"):
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


def test_one_boundary_walk_and_one_delta_per_code(monkeypatch, trefoil_code):
    from flatbasket import codes, passclass

    calls = {"walk": 0, "delta": 0}
    walk, delta = codes.boundary_components, passclass.alexander

    def counted_walk(diagram):
        calls["walk"] += 1
        return walk(diagram)

    def counted_delta(code, *args, **kwargs):
        calls["delta"] += 1
        return delta(code, *args, **kwargs)

    monkeypatch.setattr(codes, "boundary_components", counted_walk)
    monkeypatch.setattr(passclass, "boundary_components", counted_walk)
    monkeypatch.setattr(passclass, "alexander", counted_delta)
    assert pass_class(trefoil_code).family == "II"
    assert calls == {"walk": 1, "delta": 1}
    calls.update(walk=0, delta=0)
    report = orbit_invariant_check(underlying(trefoil_code))
    assert calls == {"walk": 1, "delta": report.orbit_size}
