"""Enumeration, census, target search, and the result store."""

import concurrent.futures
import json
import os
from concurrent.futures import Future
from itertools import permutations
from math import prod

import pytest

from flatbasket import (
    alexander,
    parse_code,
    parse_polynomial,
    pencil_determinant,
    seifert_matrix,
    signature,
    underlying,
)
from flatbasket import invariants
from flatbasket import search as search_module
from flatbasket.cli import _plain_parts
from flatbasket.codes import (
    FlatBasketCode,
    boundary_components,
    canonical_word,
    canonicalize,
    surface_genus,
)
from flatbasket.invariants import (
    _hadamard_square,
    _pencil_det_eval_interp,
    _signature_and_determinant_of_rows,
    arf_from_determinant,
    determinant_from_alexander,
)
from flatbasket.pushdown import diagram_seifert_matrix
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
from flatbasket.seifert import _per_orientation_key
from conftest import all_codes, code_to_flat_diagram, leibniz_det


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
            assert canonical_word(code.word) == code.word
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
                if canonical_word(word := tuple(perm[c] for c in matching.chord_at)) == word
            )
            assert search_module._canonical_words(matching) == brute, matching


def test_chord_table_seifert_rows_match_seifert_matrix():
    # the chord-table rule against crossings counted on the drawn flat diagram
    checked = 0
    for n in range(1, 6):
        for matching in enumerate_matchings(n):
            for word in search_module._canonical_words(matching):
                code = FlatBasketCode(word)
                oracle = diagram_seifert_matrix(code_to_flat_diagram(code))
                assert seifert_matrix(code).rows == oracle, word
                checked += 1
    assert checked == 1 + 2 + 16 + 318 + 11352  # canonical codes per n


def test_census_never_computes_signature(monkeypatch):
    expected = census(4)

    def refuse(rows):
        raise AssertionError("census computed a signature")

    monkeypatch.setattr(invariants, "_signature_and_determinant_of_rows", refuse)
    assert census(4) == expected
    with pytest.raises(AssertionError):
        search(SearchQuery(bands=2, knots_only=True))


def test_each_matching_is_built_and_walked_once(monkeypatch):
    # a knot filter walks every raw pairing once and builds only the kept
    # ones; an unfiltered run builds every matching and walks it once
    walks = []
    builds = []
    real_walk = search_module._boundary_cycles
    real_build = search_module.UnderlyingDiagram

    def walk(pairing):
        walks.append(tuple(pairing))
        return real_walk(pairing)

    def build(pairing):
        builds.append(pairing)
        return real_build(pairing)

    expected_census = census(4)
    expected_links = search(SearchQuery(bands=3))
    monkeypatch.setattr(search_module, "_boundary_cycles", walk)
    monkeypatch.setattr(search_module, "UnderlyingDiagram", build)
    assert census(4) == expected_census
    assert len(walks) == len(set(walks)) == 105
    assert len(builds) == len(set(builds)) == 21
    assert set(builds) <= set(walks)
    walks.clear()
    builds.clear()
    assert search(SearchQuery(bands=3)) == expected_links
    assert len(walks) == len(builds) == 15
    assert set(walks) == set(builds)


def test_equal_orientation_keys_give_equal_pencils_and_signatures():
    # the label-order V is P^T M P for the chord-order M of the orientation,
    # so the raw pencil determinant and the signature depend on the key only
    codes = keys = 0
    for n in range(1, 6):
        for matching in enumerate_matchings(n):
            seen = {}
            for word in search_module._canonical_words(matching):
                code = FlatBasketCode(word)
                values = (pencil_determinant(seifert_matrix(code)), signature(code))
                key = tuple(word[pa] < word[pb] for pa, pb in matching.crossings)
                assert seen.setdefault(key, values) == values
                codes += 1
            keys += len(seen)
    assert codes == 1 + 2 + 16 + 318 + 11352
    assert keys < codes


def test_key_pencil_gives_the_labeled_invariants():
    # the chord-order pencil that each orientation key gets against the
    # labeled Seifert matrix of the key's first word: the same raw Delta
    # (the Z[t] kernel on the labeled V), sigma and det(V + V^T); for n <= 4
    # the labeled V is the one drawn on the flat diagram, and Leibniz agrees
    # at x = 0, -1 and 2
    keys = []

    def compare(word, pencil):
        n = len(word) // 2
        code = FlatBasketCode(word)
        v = seifert_matrix(code)
        raw = _pencil_det_eval_interp(n, _hadamard_square(v.rows), pencil)
        assert raw == pencil_determinant(v, "fraction_free"), word
        assert _signature_and_determinant_of_rows(
            pencil(0)
        ) == _signature_and_determinant_of_rows(v.rows), word
        if n <= 4:
            assert v.rows == diagram_seifert_matrix(code_to_flat_diagram(code)), word
            for x in (0, -1, 2):
                labeled = [
                    [v.rows[i][j] - x * v.rows[j][i] for j in range(n)] for i in range(n)
                ]
                det = leibniz_det(pencil(x))
                assert det == leibniz_det(labeled) == raw.evaluate(x), (word, x)
        keys.append(word)

    for n in (2, 4, 6):
        for matching in enumerate_matchings(n, knots_only=True):
            words = search_module._canonical_words(matching)
            for _ in _per_orientation_key(words, matching, compare):
                pass
    assert len(keys) == len(set(keys)) == 1 + 48 + 23202


def _reference_records(n):
    """Per-code records, each built from its own Seifert matrix."""
    out = []
    for matching in enumerate_matchings(n):
        b = boundary_components(matching)
        for code in enumerate_codes(matching):
            delta = alexander(code)
            det = determinant_from_alexander(delta) if b == 1 else None
            out.append(
                SearchRecord(
                    code=code,
                    boundary=b,
                    genus=surface_genus(n, b),
                    delta=delta,
                    determinant=det,
                    arf=None if det is None else arf_from_determinant(det),
                    signature=signature(code),
                )
            )
    return sorted(out, key=lambda r: r.code.word)


def test_search_matches_per_code_reference():
    from flatbasket.codes import canonical_word
    from flatbasket.search import _mirror_word

    targets = [parse_polynomial(t) for t in ("1", "0", "t^2 - t + 1", "t^2 - 3t + 1")]
    hits = dict.fromkeys(targets, 0)
    for n in range(1, 6):
        full = _reference_records(n)
        for dedup in (False, True):
            reference = [
                r for r in full
                if not dedup or canonical_word(_mirror_word(r.code.word, n)) >= r.code.word
            ]
            assert search(SearchQuery(bands=n, dedup_mirror=dedup)) == reference
            for target in targets:
                expected = [r for r in reference if r.delta.normalized == target]
                found = search(SearchQuery(bands=n, target=target, dedup_mirror=dedup))
                assert found == expected, (n, dedup, str(target))
                hits[target] += len(found)
    assert all(hits.values()), hits


def test_pencils_and_signatures_run_once_per_orientation_key(monkeypatch, tmp_path):
    # a forked worker inherits the wrappers, and each call appends one byte
    # to a file, so calls made in a pool are counted too
    def counting(func, path):
        def wrapper(*args):
            with path.open("ab") as handle:
                handle.write(b".")
            return func(*args)

        return wrapper

    pencils = tmp_path / "pencils"
    signatures = tmp_path / "signatures"
    hadamards = tmp_path / "hadamards"
    real_pencil = search_module._pencil_det_eval_interp

    def pencil(n, h, build):
        # the matching's H is passed in, so the pencil never recomputes it
        assert h == _hadamard_square(build(0))
        return real_pencil(n, h, build)

    monkeypatch.setattr(search_module, "_pencil_det_eval_interp", counting(pencil, pencils))
    monkeypatch.setattr(
        invariants,
        "_signature_and_determinant_of_rows",
        counting(invariants._signature_and_determinant_of_rows, signatures),
    )
    monkeypatch.setattr(
        search_module,
        "_matching_hadamard",
        counting(search_module._matching_hadamard, hadamards),
    )

    def calls(path):
        count = path.stat().st_size if path.exists() else 0
        path.unlink(missing_ok=True)
        return count

    for jobs in (1, 2):
        assert sum(census(4, jobs=jobs).values()) == 66
        assert (calls(pencils), calls(signatures), calls(hadamards)) == (48, 0, 21)
        assert sum(census(6, jobs=jobs).values()) == 89160
        assert (calls(pencils), calls(signatures), calls(hadamards)) == (23202, 0, 1485)
        assert len(search(SearchQuery(bands=4, knots_only=True, jobs=jobs))) == 66
        assert (calls(pencils), calls(signatures), calls(hadamards)) == (48, 48, 21)
        # a key whose Delta misses the target runs no symmetric kernel
        target = parse_polynomial("1,-3,1")
        query = SearchQuery(bands=4, knots_only=True, target=target, jobs=jobs)
        assert len(search(query)) == 4
        assert (calls(pencils), calls(signatures), calls(hadamards)) == (48, 4, 21)


def test_matching_hadamard_bounds_every_orientation_key():
    # l1(M_ij) = |v_ij| + |v_ji| is 1 exactly on interleaving chord pairs, so
    # H is the product of the chords' interleaving degrees for every labeling
    keys = []

    def hadamard(word, pencil):
        keys.append(word)
        return _hadamard_square(pencil(0))

    for n in range(1, 7):
        for matching in enumerate_matchings(n):
            pairs = matching.pairs()
            degrees = [
                sum(p < r < q < s or r < p < s < q for r, s in pairs) for p, q in pairs
            ]
            h = search_module._matching_hadamard(matching)
            assert h == prod(degrees), matching
            per_key = _per_orientation_key(
                search_module._canonical_words(matching),
                matching,
                hadamard,
            )
            assert {value for _, value in per_key} <= {h}, matching
    assert len(keys) == len(set(keys)) == 96558


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


def test_census_cap(monkeypatch):
    assert search_module.CENSUS_CAP == 6
    with pytest.raises(CapExceeded):
        census(7)
    with pytest.raises(CapExceeded):
        census(8)

    # search checks the cap before it enumerates anything
    def refuse(*args, **kwargs):
        raise AssertionError("search enumerated above the cap")

    monkeypatch.setattr(search_module, "enumerate_matchings", refuse)
    for bands in (7, 8):
        with pytest.raises(CapExceeded):
            search(SearchQuery(bands=bands, knots_only=True))


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

    for record in search(SearchQuery(bands=4, knots_only=True))[:10]:
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


def test_search_output_is_sorted():
    full = search(SearchQuery(bands=4, knots_only=True))
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


def test_jobs_pool_is_at_most_one_worker_per_cpu(monkeypatch):
    # a stand-in pool records its size and runs the work inline, so no
    # process is started whatever jobs asks for
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, func, *args):
            future = Future()
            future.set_result(func(*args))
            return future

    serial = [record_to_json(r) for r in search(SearchQuery(bands=4, knots_only=True))]
    serial_census = census(4)
    # search imports the pool class from its module only when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    for cpus in (os.cpu_count(), 3, 1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sizes.clear()
        records = search(SearchQuery(bands=4, knots_only=True, jobs=10**6))
        histogram = census(4, jobs=10**6)
        assert [record_to_json(r) for r in records] == serial
        assert histogram == serial_census and list(histogram) == list(serial_census)
        # one pool each for search and census, none when one worker is left
        workers = cpus or 1
        assert sizes == ([workers] * 2 if workers > 1 else [])


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


def test_record_lines_match_the_reference_serializer():
    # one dump per distinct record tail against json.dumps(record_to_json(r))
    # per record, on links (null det and arf), a target and a mirror filter
    target = parse_polynomial("t^2 - t + 1")
    links = 0
    for n in range(1, 6):
        for query in (
            SearchQuery(bands=n),
            SearchQuery(bands=n, target=target),
            SearchQuery(bands=n, dedup_mirror=True),
        ):
            records = search(query)
            entries = [record_to_json(r) for r in records]
            codes = search_module._code_texts(records)
            assert codes == [entry["code"] for entry in entries]
            assert search_module._record_lines(
                records, codes, search_module._json_parts
            ) == [json.dumps(entry, sort_keys=True) for entry in entries]
            assert search_module._record_lines(
                records, codes, search_module._store_parts
            ) == [json.dumps(entry, sort_keys=True, separators=(",", ":")) for entry in entries]
            assert search_module._record_lines(records, codes, _plain_parts) == [
                f"code={code} b={r.boundary} genus={r.genus} delta={r.delta.normalized} "
                f"det={r.determinant} arf={r.arf} signature={r.signature}"
                for code, r in zip(codes, records)
            ]
            links += sum(entry["det"] is None for entry in entries)
    assert links > 0


def test_store_verifies_every_line_and_a_mismatch_writes_nothing(tmp_path):
    records = search(SearchQuery(bands=4, knots_only=True))
    reference = [
        json.dumps(record_to_json(r), sort_keys=True, separators=(",", ":"))
        for r in records
    ]
    store = tmp_path / "records.jsonl"
    assert write_store(store, records[:40]) == (40, 0)
    assert write_store(store, records) == (26, 40)
    assert store.read_text() == "\n".join(reference) + "\n"
    assert write_store(store, records) == (0, 66)
    for index in (0, 39, 65):
        entry = json.loads(reference[index])
        entry["signature"] += 2
        tampered = reference.copy()
        tampered[index] = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        # a full store and one still missing records both stay as they are
        for kept in (tampered, tampered[: index + 1]):
            text = "\n".join(kept) + "\n"
            store.write_text(text)
            with pytest.raises(
                StoreMismatch,
                match=f"store entry for {entry['code']} disagrees with recomputation",
            ):
                write_store(store, records)
            assert store.read_text() == text
