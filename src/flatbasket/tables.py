"""Bundled knot table and its verification.

The table lists a flat basket code, the three genus and the published value
or range of the flat plumbing basket number for every prime knot up to nine
crossings.  Reference Alexander polynomials ship separately, compiled from
the standard knot tables; they are inputs against which the table's codes
are verified, never outputs of this package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .bounds import fpbk_lower_bound
from .codes import FlatBasketCode, parse_code, surface_stats
from .errors import FlatBasketError, MissingReference, ParseError, _excerpt, _read_text, _shown
from .invariants import IntPolynomial, alexander, normalize_alexander, parse_polynomial

__all__ = [
    "KnotRecord",
    "RowResult",
    "TableReport",
    "load_table",
    "load_references",
    "verify_table",
    "CHECK_NAMES",
]

_BULLET = "•"

CHECK_NAMES = (
    "knot",        # (i)   the code bounds a single component
    "alexander",   # (ii)  computed polynomial matches the reference
    "bands",       # (iii) band count equals the claimed value / range top
    "bound",       # (iv)  lower bound equals the claimed value / range bottom
    "genus",       # (v)   2 genus >= polynomial span
    "bullet",      # (vi)  bullet exactly marks the sharpened non-monic case
)


@dataclass(frozen=True)
class KnotRecord:
    """One table row."""

    name: str
    code: FlatBasketCode
    genus: int
    fpbk_low: int
    fpbk_high: int
    bullet: bool
    footnote: str | None
    block: int


@dataclass(frozen=True)
class RowResult:
    """Outcome of the six per-row checks."""

    name: str
    checks: dict[str, bool]
    delta: IntPolynomial

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


@dataclass(frozen=True)
class TableReport:
    rows: tuple[RowResult, ...]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)


def _data_text(path: str | Path | None, bundled: str) -> str:
    """Text of ``path``, or of the bundled data file when no path is given."""
    if path:
        return _read_text(path, ParseError)
    return (resources.files("flatbasket") / "data" / bundled).read_text(encoding="utf-8")


# ASCII only: ``\d`` and ``int`` also read other scripts' digits and ``_``.
_CLAIM = re.compile(
    rf"^(?P<low>[0-9]+)\s*(?:-\s*(?P<high>[0-9]+))?\s*"
    rf"(?P<bullet>{_BULLET})?\s*(?P<footnote>\*{{1,2}})?$"
)


def _check_new_name(lines: dict[str, int], name: str, lineno: int) -> None:
    """Note that row ``name`` is on line ``lineno``; a name seen before raises
    :class:`ParseError`, since one of the two rows would silently win or be
    checked twice."""
    first = lines.setdefault(name, lineno)
    if first != lineno:
        raise ParseError(f"row {_excerpt(name)} on line {lineno} repeats line {first}")


def load_table(path: str | Path | None = None) -> tuple[KnotRecord, ...]:
    """Parse the bundled (or an explicit) knot table, which must have a row."""
    text = _data_text(path, "fpbk_table.tsv")
    records = []
    lines: dict[str, int] = {}
    block = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if stripped.lower().startswith("# block"):
                block += 1
            continue
        parts = stripped.split("\t")
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: expected 4 tab-separated fields")
        name, code_text, genus_text, claim_text = (p.strip() for p in parts)
        _check_new_name(lines, name, lineno)
        try:
            code = parse_code(code_text)
            if not (genus_text.isascii() and genus_text.isdigit()):
                raise ValueError(f"bad genus {_excerpt(genus_text)}")
            genus = int(genus_text)
            m = _CLAIM.match(claim_text)
            if not m:
                raise ValueError(f"cannot parse claim {_excerpt(claim_text)}")
            low = int(m.group("low"))
            high = int(m.group("high")) if m.group("high") else low
        except (FlatBasketError, ValueError) as exc:  # int() also fails past 4300 digits
            raise ParseError(f"row {_excerpt(name)} (line {lineno}): {exc}") from exc
        records.append(
            KnotRecord(
                name=name,
                code=code,
                genus=genus,
                fpbk_low=low,
                fpbk_high=high,
                bullet=bool(m.group("bullet")),
                footnote=m.group("footnote"),
                block=max(block, 1),
            )
        )
    if not records:
        raise ParseError("no rows in table text")
    return tuple(records)


def load_references(path: str | Path | None = None) -> dict[str, IntPolynomial]:
    """Reference Alexander polynomials, name -> normalized polynomial."""
    text = _data_text(path, "reference_alexander.tsv")
    out: dict[str, IntPolynomial] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split("\t")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected name and coefficients")
        name, coeff_text = parts[0].strip(), parts[1].strip()
        _check_new_name(lines, name, lineno)
        try:
            poly = parse_polynomial(coeff_text)
        except FlatBasketError as exc:
            raise ParseError(f"row {_excerpt(name)} (line {lineno}): {exc}") from exc
        normalized = normalize_alexander(poly).normalized
        if normalized != poly:
            raise ParseError(f"row {_excerpt(name)}: reference is not in normalized form")
        out[name] = poly
    return out


def _verify_row(record: KnotRecord, reference: IntPolynomial) -> RowResult:
    stats = surface_stats(record.code)
    delta = alexander(record.code, checked=True)
    span = delta.span or 0
    leading = abs(delta.leading or 1)
    checks = {"knot": stats.boundary == 1}
    checks["alexander"] = delta.normalized == reference
    checks["bands"] = record.code.n == record.fpbk_high
    try:
        bound = fpbk_lower_bound(delta, genus=record.genus)
    except FlatBasketError:  # the bound is undefined for this row
        checks["bound"] = False
    else:
        checks["bound"] = bound.overall == record.fpbk_low
    checks["genus"] = 2 * record.genus >= span
    sharpened = leading != 1 and span + 4 > 2 * record.genus + 2
    checks["bullet"] = record.bullet == sharpened
    return RowResult(name=record.name, checks=checks, delta=delta.normalized)


def verify_table(
    records: tuple[KnotRecord, ...] | None = None,
    references: dict[str, IntPolynomial] | None = None,
) -> TableReport:
    """Run the six checks for every row; order follows the table."""
    if records is None:
        records = load_table()
    if references is None:
        references = load_references()
    missing = [r.name for r in records if r.name not in references]
    if missing:
        raise MissingReference(f"no reference polynomial for {_shown(missing)}")
    return TableReport(
        rows=tuple(_verify_row(record, references[record.name]) for record in records)
    )
