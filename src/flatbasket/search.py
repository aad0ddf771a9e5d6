"""Exhaustive enumeration of basket codes with invariant filtering.

Enumeration is factored by underlying chord diagram: boundary count depends
only on the matching, so knot filtering skips every labeling of a non-knot
matching at once.  Within a matching only the (n-1)! labelings that give
label 1 to the chord at position 0 are tried, and a labeled word is kept
exactly when it is the lexicographic minimum of its rotations; since every
canonical word arises unrotated from exactly one labeling of exactly one
matching, summing over matchings counts every canonical code once.  The
matching's interleaving chord pairs give each labeling's Seifert matrix
through the one rule in :mod:`seifert`, which Delta and the signature share;
``census`` computes Delta only, for at most ``CENSUS_CAP`` bands.

Work is partitioned by matching across processes; the merged result is
sorted by code word, so output is identical for any worker count.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations
from operator import itemgetter
from pathlib import Path

from .bounds import fpbk_lower_bound
from .codes import (
    FlatBasketCode,
    UnderlyingDiagram,
    boundary_components,
    canonical_word,
    surface_genus,
)
from .errors import CapExceeded, InvariantViolation, StoreMismatch
from .invariants import (
    AlexanderPolynomial,
    IntPolynomial,
    _pencil_det_eval_interp,
    _signature_of_rows,
    arf_from_determinant,
    determinant_from_alexander,
    normalize_alexander,
)
from .seifert import _seifert_rows

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

CENSUS_CAP = 6


@dataclass(frozen=True)
class SearchQuery:
    """Filters for one enumeration run over all codes with ``bands`` bands."""

    bands: int
    target: IntPolynomial | None = None
    knots_only: bool = False
    dedup_mirror: bool = False
    limit: int | None = None
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
    matchings, which exist only for even n.
    """
    m = 2 * n
    pairing = [-1] * m

    def rec(free: list[int]):
        if not free:
            diagram = UnderlyingDiagram(tuple(pairing))
            if not knots_only or boundary_components(diagram) == 1:
                yield diagram
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


def _checked_delta(word: tuple[int, ...], rows, b: int):
    """Delta, and for a knot its determinant and checked Arf residue.

    Realization consistency is checked too: the degree bound can never
    exceed the band count of a code realizing the polynomial.
    """
    delta = normalize_alexander(_pencil_det_eval_interp(rows))
    det = arf_val = None
    if b == 1:
        det = determinant_from_alexander(delta)
        arf_val = arf_from_determinant(det)
        span = delta.span
        if span:
            bound = fpbk_lower_bound(delta, genus=span // 2)
            if len(rows) < bound.overall:
                raise InvariantViolation(
                    f"{FlatBasketCode(word)} is below its band bound {bound}"
                )
    return delta, det, arf_val


def _records_for_matchings(
    matchings: list[UnderlyingDiagram],
    knots_only: bool,
    target_coeffs: tuple[int, ...] | None,
    dedup_mirror: bool,
) -> list[SearchRecord]:
    """Records of every kept code of the matchings.

    The matchings come from :func:`enumerate_matchings` with the same
    ``knots_only``, which has already walked the boundary of each knot
    matching, so only an unfiltered run walks it here.
    """
    out = []
    for matching in matchings:
        n = matching.n
        b = 1 if knots_only else boundary_components(matching)
        genus = surface_genus(n, b)
        crossings = matching.crossings
        for word in _canonical_words(matching):
            if dedup_mirror:
                mirror = canonical_word(_mirror_word(word, n))
                if mirror < word:
                    continue
            rows = _seifert_rows(word, crossings)
            delta, det, arf_val = _checked_delta(word, rows, b)
            if target_coeffs is not None and delta.normalized.coeffs != target_coeffs:
                continue
            out.append(
                SearchRecord(
                    code=FlatBasketCode(word),
                    boundary=b,
                    genus=genus,
                    delta=delta,
                    determinant=det,
                    arf=arf_val,
                    signature=_signature_of_rows(rows),
                )
            )
    return out


def _census_for_matchings(matchings: list[UnderlyingDiagram]) -> dict[IntPolynomial, int]:
    """Histogram of normalized knot Delta: Delta only, no signature, no record."""
    out: dict[IntPolynomial, int] = {}
    for matching in matchings:
        crossings = matching.crossings
        for word in _canonical_words(matching):
            delta, _, _ = _checked_delta(word, _seifert_rows(word, crossings), 1)
            key = delta.normalized
            out[key] = out.get(key, 0) + 1
    return out


def _chunks(items: list, count: int) -> list[list]:
    size = max(1, (len(items) + count - 1) // count)
    return [items[k:k + size] for k in range(0, len(items), size)]


def _map_matchings(func, matchings: list[UnderlyingDiagram], jobs: int, *args) -> list:
    """``func(chunk, *args)`` over chunks of the matchings, serial or in a pool.

    Results come back in chunk order whatever ``jobs`` is.
    """
    if jobs <= 1 or len(matchings) < 4:
        return [func(matchings, *args)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(func, chunk, *args) for chunk in _chunks(matchings, jobs * 4)
        ]
        return [fut.result() for fut in futures]


def search(query: SearchQuery) -> list[SearchRecord]:
    """All canonical codes passing the query's filters, canonically sorted."""
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
    records = [record for chunk in chunks for record in chunk]
    records.sort(key=lambda r: r.code.word)
    if query.limit is not None:
        records = records[: query.limit]
    return records


def census(n: int, jobs: int = 1) -> dict[IntPolynomial, int]:
    """Histogram of normalized Alexander polynomials over all canonical knot
    codes with n <= ``CENSUS_CAP`` bands.

    Only Delta is computed.  Keys come in the order their first code is
    reached in matching order, the same for any ``jobs``.  The cap is fixed:
    n = 7 has no knot codes and n = 8 is about 5e9 of them.
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


def _record_line(record: SearchRecord) -> str:
    return json.dumps(record_to_json(record), sort_keys=True, separators=(",", ":"))


def write_store(path: str | Path, records: list[SearchRecord]) -> tuple[int, int]:
    """Append records to a line store, verifying any that are already there.

    Returns (appended, verified).  A line that disagrees with the fresh
    computation for the same code raises :class:`StoreMismatch`.
    """
    path = Path(path)
    existing: dict[str, str] = {}
    if path.exists():
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                existing[json.loads(line)["code"]] = line
            except (ValueError, KeyError) as exc:
                raise StoreMismatch(
                    f"{path}:{lineno}: unreadable store line"
                ) from exc
    appended = verified = 0
    with path.open("a") as handle:
        for record in records:
            line = _record_line(record)
            key = record_to_json(record)["code"]
            if key in existing:
                if existing[key] != line:
                    raise StoreMismatch(
                        f"store entry for {key} disagrees with recomputation"
                    )
                verified += 1
            else:
                handle.write(line + "\n")
                appended += 1
    return appended, verified
