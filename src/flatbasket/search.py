"""Exhaustive enumeration of basket codes with invariant filtering.

Enumeration is factored by underlying chord diagram: boundary count depends
only on the matching, so knot filtering prunes all n! labelings of a
non-knot matching at once.  Within a matching, a labeled word is kept
exactly when it is the lexicographic minimum of its rotations; since every
canonical word arises unrotated from exactly one labeling of exactly one
matching, summing over matchings counts every canonical code once.

Work is partitioned by matching across processes; the merged result is
sorted by code word, so output is identical for any worker count.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

from .bounds import fpbk_lower_bound
from .codes import (
    FlatBasketCode,
    UnderlyingDiagram,
    boundary_components,
    canonical_word,
    is_canonical_word,
    surface_genus,
)
from .errors import CapExceeded, InvariantViolation, StoreMismatch
from .invariants import (
    AlexanderPolynomial,
    IntPolynomial,
    alexander,
    arf_from_determinant,
    determinant_from_alexander,
    normalize_alexander,
    signature as _signature,
)

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

DEFAULT_CENSUS_CAP = 6


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
    chord_at = matching.chord_at
    out = []
    for perm in permutations(range(1, matching.n + 1)):
        word = tuple(perm[c] for c in chord_at)
        if is_canonical_word(word):
            out.append(word)
    out.sort()
    return out


def _mirror_word(word: tuple[int, ...], n: int) -> tuple[int, ...]:
    return tuple(n + 1 - x for x in reversed(word))


def _record_for(word: tuple[int, ...], b: int, genus: int) -> SearchRecord:
    code = FlatBasketCode(word)
    delta = alexander(code, method="eval_interp")
    det = arf_val = None
    if b == 1:
        det = determinant_from_alexander(delta)
        arf_val = arf_from_determinant(det)
        span = delta.span
        if span:
            # Realization consistency: the degree bound can never exceed the
            # band count of a code realizing the polynomial.
            bound = fpbk_lower_bound(delta, genus=span // 2)
            if code.n < bound.overall:
                raise InvariantViolation(f"{code} is below its band bound {bound}")
    return SearchRecord(
        code=code,
        boundary=b,
        genus=genus,
        delta=delta,
        determinant=det,
        arf=arf_val,
        signature=_signature(code),
    )


def _records_for_matchings(
    pairings: list[tuple[int, ...]],
    knots_only: bool,
    target_coeffs: tuple[int, ...] | None,
    dedup_mirror: bool,
) -> list[SearchRecord]:
    out = []
    for pairing in pairings:
        matching = UnderlyingDiagram(pairing)
        b = boundary_components(matching)
        if knots_only and b != 1:
            continue
        n = matching.n
        genus = surface_genus(n, b)
        for word in _canonical_words(matching):
            if dedup_mirror:
                mirror = canonical_word(_mirror_word(word, n))
                if mirror < word:
                    continue
            record = _record_for(word, b, genus)
            if target_coeffs is not None and record.delta.normalized.coeffs != target_coeffs:
                continue
            out.append(record)
    return out


def _chunks(items: list, count: int) -> list[list]:
    size = max(1, (len(items) + count - 1) // count)
    return [items[k:k + size] for k in range(0, len(items), size)]


def search(query: SearchQuery) -> list[SearchRecord]:
    """All canonical codes passing the query's filters, canonically sorted."""
    pairings = [
        d.pairing for d in enumerate_matchings(query.bands, query.knots_only)
    ]
    target = query.target.coeffs if query.target is not None else None
    if query.jobs <= 1 or len(pairings) < 4:
        records = _records_for_matchings(
            pairings, query.knots_only, target, query.dedup_mirror
        )
    else:
        records = []
        with ProcessPoolExecutor(max_workers=query.jobs) as pool:
            futures = [
                pool.submit(
                    _records_for_matchings,
                    chunk,
                    query.knots_only,
                    target,
                    query.dedup_mirror,
                )
                for chunk in _chunks(pairings, query.jobs * 4)
            ]
            for fut in futures:
                records.extend(fut.result())
    records.sort(key=lambda r: r.code.word)
    if query.limit is not None:
        records = records[: query.limit]
    return records


def census(n: int, cap: int = DEFAULT_CENSUS_CAP, jobs: int = 1) -> dict[IntPolynomial, int]:
    """Histogram of normalized Alexander polynomials over all canonical knot
    codes with n bands."""
    if n > cap:
        raise CapExceeded(f"census for {n} bands exceeds the cap {cap}")
    out: dict[IntPolynomial, int] = {}
    for record in search(SearchQuery(bands=n, knots_only=True, jobs=jobs)):
        key = record.delta.normalized
        out[key] = out.get(key, 0) + 1
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
