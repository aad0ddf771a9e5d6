"""Enumeration, census, target search, and the result store."""

import json
from itertools import permutations

import pytest

from flatbasket import parse_code, parse_polynomial, underlying
from flatbasket import search as search_module
from flatbasket.codes import FlatBasketCode, canonicalize, is_canonical_word
from flatbasket.pushdown import code_to_flat_diagram, diagram_seifert_matrix
from flatbasket.errors import CapExceeded, StoreMismatch
from flatbasket.search import (
    SearchQuery,
    SearchRecord,
    census,
    enumerate_codes,
    enumerate_matchings,
    record_to_json,
    search,
    write_store,
)
from flatbasket.seifert import _seifert_rows
from conftest import all_codes


def test_matching_counts():
    assert len(list(enumerate_matchings(1))) == 1
    assert len(list(enumerate_matchings(2))) == 3
    assert len(list(enumerate_matchings(3))) == 15
    assert len(list(enumerate_matchings(4))) == 105


def test_knots_only_counts():
    assert len(list(enumerate_matchings(1, knots_only=True))) == 0
    assert len(list(enumerate_matchings(2, knots_only=True))) == 1
    assert len(list(enumerate_matchings(4, knots_only=True))) == 21


def test_matching_order_deterministic():
    first = [d.pairing for d in enumerate_matchings(3)]
    second = [d.pairing for d in enumerate_matchings(3)]
    assert first == second
    assert first[0] == (1, 0, 3, 2, 5, 4)


def test_enumerate_codes_examples(trefoil_code):
    assert [c.word for c in enumerate_codes(underlying(parse_code("1,2,1,2")))] == [
        (1, 2, 1, 2)
    ]
    assert [c.word for c in enumerate_codes(underlying(parse_code("1,1,2,2")))] == [
        (1, 1, 2, 2)
    ]
    words = {c.word for c in enumerate_codes(underlying(trefoil_code))}
    assert (1, 2, 3, 4, 1, 2, 3, 4) in words


def test_enumerate_codes_are_canonical_with_exact_matching():
    for matching in enumerate_matchings(3):
        for code in enumerate_codes(matching):
            assert is_canonical_word(code.word)
            assert underlying(code).pairing == matching.pairing


def test_completeness_against_naive_enumeration():
    # every canonical word appears exactly once across all matchings
    for n in (2, 3, 4):
        direct = {canonicalize(code).word for code in all_codes(n)}
        via_matchings = []
        for matching in enumerate_matchings(n):
            via_matchings.extend(c.word for c in enumerate_codes(matching))
        assert len(via_matchings) == len(set(via_matchings)) == len(direct)
        assert set(via_matchings) == direct


def test_canonical_words_match_brute_force_filter():
    # (n-1)! labelings and one rotation compare against all n! labelings
    # through the full rotation check
    for n in range(1, 6):
        for matching in enumerate_matchings(n):
            brute = sorted(
                word
                for perm in permutations(range(1, n + 1))
                if is_canonical_word(word := tuple(perm[c] for c in matching.chord_at))
            )
            assert search_module._canonical_words(matching) == brute, matching


def test_chord_table_seifert_rows_match_seifert_matrix():
    # the chord-table rule against crossings counted on the drawn flat diagram
    checked = 0
    for n in range(1, 6):
        for matching in enumerate_matchings(n):
            for word in search_module._canonical_words(matching):
                rows = _seifert_rows(word, matching.crossings)
                oracle = diagram_seifert_matrix(code_to_flat_diagram(FlatBasketCode(word)))
                assert tuple(map(tuple, rows)) == oracle, word
                checked += 1
    assert checked == 1 + 2 + 16 + 318 + 11352  # canonical codes per n


def test_census_never_computes_signature(monkeypatch):
    expected = census(4)

    def refuse(rows):
        raise AssertionError("census computed a signature")

    monkeypatch.setattr(search_module, "_signature_of_rows", refuse)
    assert census(4) == expected
    with pytest.raises(AssertionError):
        search(SearchQuery(bands=2, knots_only=True))


def test_each_matching_is_built_and_walked_once(monkeypatch):
    walks = []
    builds = []
    real_walk = search_module.boundary_components
    real_build = search_module.UnderlyingDiagram

    def walk(diagram):
        walks.append(diagram.pairing)
        return real_walk(diagram)

    def build(pairing):
        builds.append(pairing)
        return real_build(pairing)

    expected_census = census(4)
    expected_links = search(SearchQuery(bands=3))
    monkeypatch.setattr(search_module, "boundary_components", walk)
    monkeypatch.setattr(search_module, "UnderlyingDiagram", build)
    assert census(4) == expected_census
    assert len(walks) == len(builds) == 105
    walks.clear()
    builds.clear()
    assert search(SearchQuery(bands=3)) == expected_links
    assert len(walks) == len(builds) == 15


def test_census_small():
    two = census(2)
    assert {str(k): v for k, v in two.items()} == {"1": 1}
    four = census(4)
    keys = {str(k) for k in four}
    assert {"1", "t^2 - t + 1", "t^2 - 3t + 1"} <= keys
    assert all(poly.degree <= 3 for poly in four)
    assert sum(four.values()) == sum(
        len(enumerate_codes(m)) for m in enumerate_matchings(4, knots_only=True)
    )


def test_census_cap():
    assert search_module.CENSUS_CAP == 6
    with pytest.raises(CapExceeded):
        census(7)
    with pytest.raises(CapExceeded):
        census(8)


def test_search_trefoil_target(trefoil_code):
    records = search(
        SearchQuery(bands=4, target=parse_polynomial("t^2 - t + 1"), knots_only=True)
    )
    assert records
    assert any(r.code.word == trefoil_code.word for r in records)
    empty = search(
        SearchQuery(bands=2, target=parse_polynomial("t^2 - t + 1"), knots_only=True)
    )
    assert empty == []


def test_search_records_recomputable():
    from flatbasket import alexander, arf, knot_determinant, signature, surface_stats

    for record in search(SearchQuery(bands=4, knots_only=True, limit=10)):
        stats = surface_stats(record.code)
        assert stats.boundary == record.boundary == 1
        assert stats.genus == record.genus
        assert alexander(record.code).normalized == record.delta.normalized
        assert knot_determinant(record.code) == record.determinant
        assert arf(record.code) == record.arf
        assert signature(record.code) == record.signature


def test_search_includes_links_without_filter():
    records = search(SearchQuery(bands=2))
    assert {r.boundary for r in records} == {1, 3}
    link = next(r for r in records if r.boundary == 3)
    assert link.determinant is None and link.arf is None


def test_search_limit_and_order():
    full = search(SearchQuery(bands=4, knots_only=True))
    limited = search(SearchQuery(bands=4, knots_only=True, limit=5))
    assert limited == full[:5]
    assert [r.code.word for r in full] == sorted(r.code.word for r in full)


def test_search_jobs_deterministic():
    serial = search(SearchQuery(bands=4, knots_only=True, jobs=1))
    parallel = search(SearchQuery(bands=4, knots_only=True, jobs=2))
    assert [record_to_json(r) for r in serial] == [record_to_json(r) for r in parallel]


def test_census_jobs_deterministic():
    serial = census(4, jobs=1)
    parallel = census(4, jobs=2)
    assert serial == parallel
    assert list(serial) == list(parallel)


def test_mirror_dedup_keeps_smaller_representative():
    from flatbasket.codes import canonical_word
    from flatbasket.search import _mirror_word

    full = search(SearchQuery(bands=4, knots_only=True))
    deduped = search(SearchQuery(bands=4, knots_only=True, dedup_mirror=True))
    kept = {r.code.word for r in full if r in deduped}
    assert len(deduped) < len(full)
    by_word = {r.code.word: r for r in full}
    for record in full:
        mirror = canonical_word(_mirror_word(record.code.word, 4))
        if record in deduped:
            assert mirror >= record.code.word
        else:
            # dropped records leave their lex-smaller mirror image behind,
            # with the same polynomial (the flip preserves the pencil)
            assert mirror < record.code.word
            partner = by_word[mirror]
            assert partner in deduped
            assert partner.delta.normalized == record.delta.normalized


def test_store_round_trip(tmp_path):
    records = search(SearchQuery(bands=2))
    store = tmp_path / "records.jsonl"
    appended, verified = write_store(store, records)
    assert (appended, verified) == (len(records), 0)
    appended, verified = write_store(store, records)
    assert (appended, verified) == (0, len(records))
    lines = store.read_text().splitlines()
    assert len(lines) == len(records)
    assert all(json.loads(line) for line in lines)


def test_store_detects_mismatch(tmp_path):
    records = search(SearchQuery(bands=2))
    store = tmp_path / "records.jsonl"
    write_store(store, records)
    corrupted = store.read_text().replace('"b":1', '"b":2')
    store.write_text(corrupted)
    with pytest.raises(StoreMismatch):
        write_store(store, records)
