"""Exhaustive enumeration of basket codes with invariant filtering.

Enumeration is factored by underlying chord diagram: boundary count depends
only on the matching, so knot filtering skips every labeling of a non-knot
matching at once.  Within a matching only the (n-1)! labelings that give
label 1 to the chord at position 0 are tried, and a labeled word is kept
exactly when it is the lexicographic minimum of its rotations; since every
canonical word arises unrotated from exactly one labeling of exactly one
matching, summing over matchings counts every canonical code once.  The
matching's interleaving chord pairs give each labeling's Seifert matrix
through the one rule in :mod:`seifert`.  A labeling only orients each of
those pairs, and Delta, the signature and det(V + V^T) depend on that
orientation alone, so within a matching they are computed once per
orientation key: the 89,160 six-band knot codes have 23,202 keys.  Each
key's chord-order pencil V_c - x V_c^T is built straight from the
matching's crossing list (:func:`seifert._key_pencil`), never from labeled
rows, and goes to the integer determinant; ``search`` also hands V_c, the
pencil at x = 0, to the symmetric elimination that gives the signature and
det(V + V^T), which is checked against Delta at t = -1.  ``census``
computes Delta only.  Both take at most ``CENSUS_CAP`` bands.  As a fresh
process on a shared 2-core Linux VM, serial ``search -n 6 --knots-only
--json`` takes 2.4-3.3 s (median 2.6 s) and ``census -n 6 --json``
1.04-1.43 s (median 1.15 s), 7 runs each.

Work is partitioned by matching across processes; the merged result is
sorted by code word, so output is identical for any worker count.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from itertools import permutations
from math import prod
from operator import itemgetter
from pathlib import Path

from .bounds import fpbk_lower_bound
from .codes import (
    FlatBasketCode,
    UnderlyingDiagram,
    _boundary_cycles,
    canonical_word,
    surface_genus,
)
from .errors import CapExceeded, InvariantViolation, StoreMismatch, _read_text
from .invariants import (
    AlexanderPolynomial,
    IntPolynomial,
    _checked_signature,
    _pencil_det_eval_interp,
    arf_from_determinant,
    determinant_from_alexander,
    normalize_alexander,
)
from .seifert import _per_orientation_key

__all__ = [
    "SearchQuery",
    "SearchRecord",
    "enumerate_matchings",
    "enumerate_codes",
    "search",
    "census",
    "record_to_json",
    "write_store",
]

# Most bands that ``search`` and ``census`` enumerate, fixed and not an option:
# n = 7 has no knot codes but 135,135 matchings, and n = 8 has about 5e9 codes.
CENSUS_CAP = 6


@dataclass(frozen=True)
class SearchQuery:
    """Filters for one enumeration run over all codes with ``bands`` bands."""

    bands: int
    target: IntPolynomial | None = None
    knots_only: bool = False
    dedup_mirror: bool = False
    jobs: int = 1

    def __post_init__(self):
        if self.bands < 1:
            raise ValueError("bands must be positive")
        if self.target is not None:
            object.__setattr__(
                self, "target", normalize_alexander(self.target).normalized
            )


@dataclass(frozen=True)
class SearchRecord:
    """One canonical code with its recomputable invariants."""

    code: FlatBasketCode
    boundary: int
    genus: int
    delta: AlexanderPolynomial
    determinant: int | None
    arf: int | None
    signature: int


def enumerate_matchings(n: int, knots_only: bool = False):
    """All (2n-1)!! fixed-point-free involutions on 2n points, lexicographic.

    Deterministic order: the smallest free point is always paired next, with
    partners in increasing order.  ``knots_only`` keeps single-boundary
    matchings, which exist only for even n; it walks the raw pairing, so
    only a kept matching is built (and validated) as a diagram.
    """
    m = 2 * n
    pairing = [-1] * m

    def rec(free: list[int]):
        if not free:
            if not knots_only or _boundary_cycles(pairing) == 1:
                yield UnderlyingDiagram(tuple(pairing))
            return
        a = free[0]
        rest = free[1:]
        for k, b in enumerate(rest):
            pairing[a] = b
            pairing[b] = a
            yield from rec(rest[:k] + rest[k + 1:])
        pairing[a] = -1

    yield from rec(list(range(m)))


def enumerate_codes(matching: UnderlyingDiagram) -> list[FlatBasketCode]:
    """Canonical codes whose word realizes exactly this matching.

    These are the labeled words of the matching that are already the
    lexicographic minimum of their rotations; rotated variants are produced
    by (and counted under) the rotated matchings.
    """
    return [FlatBasketCode(w) for w in _canonical_words(matching)]


def _canonical_words(matching: UnderlyingDiagram) -> list[tuple[int, ...]]:
    """Sorted canonical words of the matching, from (n-1)! labelings.

    A lex-min rotation starts with label 1, so the chord at position 0 gets
    label 1 and only 2..n are permuted.  The one other rotation starting
    with 1 begins at that chord's second foot q, so a word is canonical
    exactly when it is <= that rotation (equal for a periodic word).
    """
    label = itemgetter(*matching.chord_at)
    q = matching.pairing[0]
    out = []
    for rest in permutations(range(2, matching.n + 1)):
        word = label((1,) + rest)
        if word <= word[q:] + word[:q]:
            out.append(word)
    out.sort()
    return out


def _mirror_word(word: tuple[int, ...], n: int) -> tuple[int, ...]:
    return tuple(n + 1 - x for x in reversed(word))


def _matching_hadamard(matching: UnderlyingDiagram) -> int:
    """H of :func:`_hadamard_square` for every labeling of the matching.

    l1(M_ij) = |v_ij| + |v_ji| is 1 exactly when chords i and j interleave
    and 0 otherwise, so s_i is the interleaving degree of chord i and H the
    product of the degrees; a labeling only permutes the factors.
    """
    degree = [0] * matching.n
    chord_at = matching.chord_at
    for pa, pb in matching.crossings:
        degree[chord_at[pa]] += 1
        degree[chord_at[pb]] += 1
    return prod(degree)


def _checked_delta(word: tuple[int, ...], n: int, pencil, b: int, h: int):
    """Delta from the pencil builder of an orientation key of n rows and
    its matching's H, and for a knot its determinant and checked Arf
    residue.

    Realization consistency is checked too: the degree bound can never
    exceed the band count of a code realizing the polynomial.  Both checks
    read only Delta and the band count, so running them once per
    orientation key (see :func:`_records_for_matchings`) checks every code
    with that key.
    """
    delta = normalize_alexander(_pencil_det_eval_interp(n, h, pencil))
    det = arf_val = None
    if b == 1:
        det = determinant_from_alexander(delta)
        arf_val = arf_from_determinant(det)
        span = delta.span
        if span:
            bound = fpbk_lower_bound(delta, genus=span // 2)
            if n < bound.overall:
                raise InvariantViolation(
                    f"{FlatBasketCode(word)} is below its band bound {bound}"
                )
    return delta, det, arf_val


def _records_for_matchings(
    matchings: list[UnderlyingDiagram],
    knots_only: bool,
    target_coeffs: tuple[int, ...] | None,
    dedup_mirror: bool,
) -> tuple[list[tuple], list[tuple[tuple[int, ...], int]]]:
    """The kept codes of the matchings, as (values, codes): the distinct
    tuples of a record's fields after its code, once each, and for each kept
    code its word and the index of its tuple in ``values``.

    The matchings come from :func:`enumerate_matchings` with the same
    ``knots_only``, which has already walked the boundary of each knot
    matching, so only an unfiltered run walks it here.

    Each value is computed where it varies.  Per matching: the boundary
    count, genus, crossings and H (:func:`_matching_hadamard`).  Per
    orientation key: the labeled V is P^T V_c P for the chord-order matrix
    V_c of the key, so Delta (raw and normalized) and the signature are
    computed once, from the key's pencil (:func:`seifert._key_pencil`), and
    a key whose Delta misses the target is rejected once.  The signature
    comes with det(V_c + V_c^T), which must equal the raw Delta at t = -1.
    Per code: the word and its key.  A worker sends the parent its values
    once and a word and an index per code, which pickle many times faster
    than the records, and :func:`search` builds the records.
    """
    values = []
    indices: dict[tuple, int] = {}
    codes = []
    for matching in matchings:
        n = matching.n
        b = 1 if knots_only else _boundary_cycles(matching.pairing)
        genus = surface_genus(n, b)
        h = _matching_hadamard(matching)

        def checked(word, pencil):
            delta, det, arf_val = _checked_delta(word, n, pencil, b, h)
            if target_coeffs is not None and delta.normalized.coeffs != target_coeffs:
                return None
            sigma = _checked_signature(pencil(0), delta.raw)
            # the boundary count, raw Delta and sigma decide every field
            index = indices.setdefault((b, delta.raw.coeffs, sigma), len(values))
            if index == len(values):
                values.append((b, genus, delta, det, arf_val, sigma))
            return index

        words = _canonical_words(matching)
        if dedup_mirror:
            words = [w for w in words if canonical_word(_mirror_word(w, n)) >= w]
        codes += [
            (word, index)
            for word, index in _per_orientation_key(words, matching, checked)
            if index is not None
        ]
    return values, codes


def _census_for_matchings(matchings: list[UnderlyingDiagram]) -> dict[IntPolynomial, int]:
    """Histogram of normalized knot Delta: Delta only, once per orientation
    key of each matching, no signature, no record."""
    out: dict[IntPolynomial, int] = {}
    for matching in matchings:
        n = matching.n
        h = _matching_hadamard(matching)
        per_key = _per_orientation_key(
            _canonical_words(matching),
            matching,
            lambda word, pencil: _checked_delta(word, n, pencil, 1, h)[0].normalized,
        )
        for _, poly in per_key:
            out[poly] = out.get(poly, 0) + 1
    return out


def _chunks(items: list, count: int) -> list[list]:
    size = max(1, (len(items) + count - 1) // count)
    return [items[k:k + size] for k in range(0, len(items), size)]


def _map_matchings(func, matchings: list[UnderlyingDiagram], jobs: int, *args) -> list:
    """``func(chunk, *args)`` over chunks of the matchings, serial or in a pool
    of at most one worker per CPU, since a pool starts all its workers at
    once.

    Results come back in chunk order whatever ``jobs`` is.
    """
    workers = min(jobs, os.cpu_count() or 1)
    if workers <= 1 or len(matchings) < 4:
        return [func(matchings, *args)]
    # loaded here, since it brings multiprocessing, which a serial run never uses
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(func, chunk, *args) for chunk in _chunks(matchings, workers * 4)
        ]
        return [fut.result() for fut in futures]


def search(query: SearchQuery) -> list[SearchRecord]:
    """All canonical codes passing the query's filters, canonically sorted,
    for at most ``CENSUS_CAP`` bands."""
    if query.bands > CENSUS_CAP:
        raise CapExceeded(
            f"search for {query.bands} bands exceeds the cap {CENSUS_CAP}"
        )
    matchings = list(enumerate_matchings(query.bands, query.knots_only))
    target = query.target.coeffs if query.target is not None else None
    chunks = _map_matchings(
        _records_for_matchings,
        matchings,
        query.jobs,
        query.knots_only,
        target,
        query.dedup_mirror,
    )
    records = [
        SearchRecord(FlatBasketCode(word), *values[index])
        for values, codes in chunks
        for word, index in codes
    ]
    records.sort(key=lambda r: r.code.word)
    return records


def census(n: int, jobs: int = 1) -> dict[IntPolynomial, int]:
    """Histogram of normalized Alexander polynomials over all canonical knot
    codes with n <= ``CENSUS_CAP`` bands.

    Only Delta is computed.  Keys come in the order their first code is
    reached in matching order, the same for any ``jobs``.
    """
    if n > CENSUS_CAP:
        raise CapExceeded(f"census for {n} bands exceeds the cap {CENSUS_CAP}")
    matchings = list(enumerate_matchings(n, knots_only=True))
    out: dict[IntPolynomial, int] = {}
    for part in _map_matchings(_census_for_matchings, matchings, jobs):
        for key, count in part.items():
            out[key] = out.get(key, 0) + count
    return out


# ---------------------------------------------------------------------------
# line-oriented result store
# ---------------------------------------------------------------------------

def record_to_json(record: SearchRecord) -> dict:
    """Stable JSON shape for one record (store and CLI --json)."""
    return {
        "code": ",".join(map(str, record.code.word)),
        "b": record.boundary,
        "genus": record.genus,
        "delta": list(record.delta.normalized.coeffs),
        "det": record.determinant,
        "arf": record.arf,
        "signature": record.signature,
    }


def _store_text(path: Path) -> tuple[str, str]:
    """The text of the store at ``path`` (empty if it does not exist) and
    what to write before the first appended record: a newline when the last
    line has none.  Every line must parse before anything is appended, so
    such a last line is complete, and a record written straight after it
    would be glued onto it."""
    if not path.exists():
        return "", ""
    text = _read_text(path, StoreMismatch)
    return text, "\n" if text and not text.endswith("\n") else ""


# A record's JSON line is its code string between a head and a tail that
# depend only on its other fields.  The placeholder stands in for the code:
# no other value of record_to_json is a string, and json.dumps leaves both it
# and every code string (digits and commas) unescaped.
_CODE_SLOT = "@code@"


def _code_texts(records: list[SearchRecord]) -> list[str]:
    """Each record's code string, as record_to_json writes it."""
    return [",".join(map(str, record.code.word)) for record in records]


def _json_parts(record: SearchRecord, separators=None) -> tuple[str, str]:
    """The text of ``json.dumps(record_to_json(record), sort_keys=True,
    separators=separators)`` before and after the code string."""
    entry = record_to_json(record)
    entry["code"] = _CODE_SLOT
    head, tail = json.dumps(entry, sort_keys=True, separators=separators).split(_CODE_SLOT)
    return head, tail


_store_parts = partial(_json_parts, separators=(",", ":"))


def _record_lines(records: list[SearchRecord], codes: list[str], parts) -> list[str]:
    """One line per record: ``head + code + tail`` with ``(head, tail) =
    parts(record)``, which must depend on nothing but the record's fields
    other than the code.  ``parts`` runs once per distinct tuple of those
    fields, which is at most once per orientation key of a matching."""
    cache: dict[tuple, tuple[str, str]] = {}
    lines = []
    for record, code in zip(records, codes):
        fields = (
            record.boundary,
            record.genus,
            record.delta.normalized.coeffs,
            record.determinant,
            record.arf,
            record.signature,
        )
        head_tail = cache.get(fields)
        if head_tail is None:
            head_tail = cache[fields] = parts(record)
        lines.append(head_tail[0] + code + head_tail[1])
    return lines


def write_store(path: str | Path, records: list[SearchRecord]) -> tuple[int, int]:
    """Append records to a line store, verifying any that are already there.

    Returns (appended, verified).  A line that disagrees with the fresh
    computation for the same code raises :class:`StoreMismatch`.
    """
    return _write_store(path, records, _code_texts(records))


def _write_store(
    path: str | Path, records: list[SearchRecord], codes: list[str]
) -> tuple[int, int]:
    """:func:`write_store` given the records' code strings.  Every record is
    checked before anything is written, and the new lines go out in one
    write, so a mismatch leaves the store unchanged."""
    path = Path(path)
    existing: dict[str, str] = {}
    text, separator = _store_text(path)
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except (ValueError, RecursionError) as exc:  # nesting too deep
            # the byte offset locates a torn tail in the file as stored
            start = len("".join(text.splitlines(keepends=True)[:lineno - 1]).encode())
            raise StoreMismatch(
                f"{path}:{lineno}: unreadable store line at byte {start}"
            ) from exc
        if not isinstance(entry, dict) or not isinstance(entry.get("code"), str):
            raise StoreMismatch(
                f"{path}:{lineno}: store line is not an object with a string code"
            )
        existing[entry["code"]] = line
    lines = _record_lines(records, codes, _store_parts)
    new = []
    for code, line in zip(codes, lines):
        old = existing.get(code)
        if old is None:
            new.append(line)
        elif old != line:
            raise StoreMismatch(f"store entry for {code} disagrees with recomputation")
    with path.open("a") as handle:
        if new:
            handle.write(separator + "\n".join(new) + "\n")
    return len(new), len(lines) - len(new)
