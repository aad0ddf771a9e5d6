"""Rectilinear band diagrams and push-down flattening.

A normal-form Seifert surface is a disk below the baseline y = 0 with
untwisted bands attached at feet on the baseline; each band core projects to
an axis-parallel lattice path that starts and ends on the baseline, with all
horizontal segments (x-lines) at distinct heights, all vertical segments
(y-lines) in distinct columns, and every crossing a transverse interior one
with the x-line on top.

An x-line endpoint *ascends* when the adjacent y-line continues upward and
*descends* otherwise.  A band whose every x-line has two descending ends is
a stack of arches and can be pushed into pages, so the surface is a flat
plumbing basket once every x-line is "flat".  The push-down surgery removes
an x-line interval next to an ascending end, drops the two cut ends to new
feet, and reconnects them with a connector band routed behind the disk just
outside the cut (local foot pattern: connector, left piece, right piece,
connector).  Each surgery adds two bands (genus +1), keeps the boundary
link, and strictly decreases the number of ascending ends, so flattening
terminates.

New feet go at fresh columns, midway to the nearest occupied column or one
unit beyond the outermost one; only the left-to-right order of feet matters
for the resulting code.

:func:`flatten_trace` walks one diagram whole, the input's copy on its
integer grid.  A push-down walks nothing whole: it checks the two pieces
and the connector it makes against the rest and updates the walk in place,
so a step costs what the surgery changes.

On that grid every coordinate v becomes v * S with S = D * 2**(3A), where D
is the lcm of the input's denominators and A its number of ascending ends:
A = x-lines - front bands, since each interior y-line of a valid band joins
two x-lines at different heights.  A flatten makes at most A push-downs
(each removes an ascending end) and each takes at most three midpoints (the
cut and the two connector feet), so every midpoint lands on the grid; each
halving is still checked.  Scaling by S > 0 keeps every order and equality
and 0, so the grid walk fails where a walk of the input would.  The surgery
is the same code on either number type, Fractions with unit 1 or grid
integers with unit S; only reported values go back to Fractions.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .codes import FlatBasketCode, _boundary_cycles
from .errors import (
    CapExceeded,
    DuplicateColumn,
    DuplicateHeight,
    FlatBasketError,
    FootOrderViolation,
    InvariantViolation,
    MalformedDiagram,
    SiteNotEligible,
    _excerpt,
    _read_text,
    _shown,
)

__all__ = [
    "RectilinearDiagram",
    "Connector",
    "XLineClass",
    "PushStep",
    "FlattenResult",
    "parse_diagram",
    "load_diagram",
    "diagram_to_text",
    "validate_diagram",
    "classify_xlines",
    "push_down",
    "flatten",
    "flatten_trace",
    "diagram_seifert_matrix",
]

Vertex = tuple[Fraction, Fraction]


def _vertex(v) -> Vertex:
    """``(Fraction(x), Fraction(y))``, reusing a vertex that already is one,
    as every vertex of a :func:`push_down` result is."""
    x, y = v
    if type(v) is tuple and type(x) is Fraction and type(y) is Fraction:
        return v
    return Fraction(x), Fraction(y)


@dataclass(frozen=True)
class Connector:
    """Rear band: an arc behind the disk joining two baseline feet."""

    left: Fraction
    right: Fraction


@dataclass(frozen=True)
class RectilinearDiagram:
    """Front band paths plus any connectors created by push-downs."""

    bands: tuple[tuple[Vertex, ...], ...]
    connectors: tuple[Connector, ...] = ()

    def __post_init__(self):
        bands = tuple(tuple(_vertex(v) for v in band) for band in self.bands)
        object.__setattr__(self, "bands", bands)
        object.__setattr__(self, "connectors", tuple(self.connectors))

    @property
    def band_count(self) -> int:
        return len(self.bands) + len(self.connectors)


@dataclass(frozen=True)
class XLineClass:
    """Adjacency classification of one x-line."""

    band: int
    height: Fraction
    left: str   # "ascends" | "descends"
    right: str

    @property
    def flat(self) -> bool:
        return self.left == "descends" and self.right == "descends"


class _XLine(NamedTuple):
    band: int
    seg: int          # segment index within the band path
    y: Fraction
    x_left: Fraction
    x_right: Fraction
    left_ascends: bool
    right_ascends: bool


@dataclass(frozen=True)
class PushStep:
    """Bookkeeping for one push-down, used by traces and invariant tests."""

    height: Fraction
    interval: tuple[Fraction, Fraction]
    euler_before: int
    euler_after: int
    boundary_before: int
    boundary_after: int
    ascending_before: int
    ascending_after: int


@dataclass(frozen=True)
class FlattenResult:
    """``final`` is converted from the flatten grid when first read."""

    code: FlatBasketCode
    steps: tuple[PushStep, ...]
    _grid: RectilinearDiagram = field(repr=False)
    _unit: int = field(repr=False)

    @cached_property
    def final(self) -> RectilinearDiagram:
        return _mapped(self._grid, lambda v: Fraction(v, self._unit))


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------

# ASCII only, at most Python's int-conversion limit of 4300 digits a part:
# ``Fraction(str)`` also reads exponents, decimals, ``_`` and other scripts'
# digits, and ``1e2000000`` alone costs seconds.
_RATIONAL = re.compile(r"[+-]?[0-9]{1,4300}(?:/[0-9]{1,4300})?")


def _rational(text: str, lineno: int) -> Fraction:
    text = text.strip()
    try:
        if _RATIONAL.fullmatch(text):
            return Fraction(text) if "/" in text else Fraction(int(text))
    except ZeroDivisionError:
        pass
    raise MalformedDiagram(f"line {lineno}: bad coordinate {_excerpt(text)}")


def parse_diagram(text: str) -> RectilinearDiagram:
    """Parse one band per line, ``x,y; x,y; ...``.

    Coordinates are integers or fractions ``p/q`` in ASCII digits, as
    :func:`diagram_to_text` writes them.
    """
    bands = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        vertices = []
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(",")
            if len(parts) != 2:
                raise MalformedDiagram(f"line {lineno}: bad vertex {_excerpt(chunk)}")
            vertices.append((_rational(parts[0], lineno), _rational(parts[1], lineno)))
        if vertices:
            bands.append(tuple(vertices))
    if not bands:
        raise MalformedDiagram("no bands in diagram text")
    return RectilinearDiagram(tuple(bands))


def load_diagram(path: str | Path) -> RectilinearDiagram:
    return parse_diagram(_read_text(path, MalformedDiagram))


def _coord(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else str(value)


def diagram_to_text(diagram: RectilinearDiagram) -> str:
    """Inverse of :func:`parse_diagram` (front bands only)."""
    if diagram.connectors:
        raise MalformedDiagram("text form covers connector-free diagrams only")
    lines = [
        "; ".join(f"{_coord(x)},{_coord(y)}" for x, y in band)
        for band in diagram.bands
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation and classification
# ---------------------------------------------------------------------------

def _segments(band: tuple[Vertex, ...]):
    """(index, a, b, vertical) for each segment of a band path."""
    for k in range(len(band) - 1):
        a, b = band[k], band[k + 1]
        yield k, a, b, a[0] == b[0]


def validate_diagram(diagram: RectilinearDiagram) -> None:
    """Check the normal-form conditions; raise a specific error otherwise.

    Transversality needs no check of its own: once heights and columns are
    distinct, every x-line/y-line contact away from a joint of consecutive
    segments is a transverse interior crossing.  An x-line end is joined to
    the y-line in that end's column, the only one there.  A y-line end is
    either a foot at y = 0, which no x-line reaches since interior heights
    are positive, or is joined to the x-line at that height, the only one
    there.  So a contact at a segment end repeats a column or a height.
    """
    _walk(diagram)


class _Walk:
    """What a walk finds in a valid diagram, kept up to date across
    push-downs by :func:`_push`:

    - ``lines``, the x-lines in band and path order, and ``heights``, theirs;
    - ``columns``, the occupied columns (y-line columns and connector feet),
      also in ascending order as ``sorted_columns``;
    - ``ascending``, the number of ascending x-line ends;
    - ``feet``, the foot columns in baseline order, and ``partner``, which
      maps each foot to the other foot of its band or connector.
    """

    __slots__ = (
        "lines", "heights", "columns", "sorted_columns", "ascending", "feet", "partner"
    )

    def boundary(self) -> int:
        """Boundary components: :func:`codes.boundary_components` of the
        feet in baseline order, each paired with its partner's position."""
        position = {foot: i for i, foot in enumerate(self.feet)}
        return _boundary_cycles([position[self.partner[foot]] for foot in self.feet])


def _walk(diagram: RectilinearDiagram) -> _Walk:
    """The checks of :func:`validate_diagram`: :func:`_band_step` on every
    band, in order, then :func:`_connector_step` on every connector."""
    walk = _Walk()
    walk.heights, walk.columns, walk.lines = set(), set(), []
    walk.partner = {}
    for bi, band in enumerate(diagram.bands):
        walk.lines += _band_step(bi, band, walk.heights, walk.columns)
        first, last = band[0][0], band[-1][0]
        walk.partner[first], walk.partner[last] = last, first
    for connector in diagram.connectors:
        _connector_step(connector, walk.columns)
        walk.partner[connector.left] = connector.right
        walk.partner[connector.right] = connector.left
    walk.sorted_columns = sorted(walk.columns)
    walk.ascending = _ascending_count(walk.lines)
    walk.feet = sorted(walk.partner)
    return walk


def _band_step(bi: int, band: tuple, heights: set, columns: set) -> list[_XLine]:
    """Check band ``bi`` against the heights and columns of the bands walked
    before it, add its own to them, and return its x-lines in path order."""
    if len(band) < 4:
        raise MalformedDiagram(f"band {bi} has fewer than 4 vertices")
    prev_vertical = None
    for k, (a, b) in enumerate(zip(band, band[1:])):
        vertical = a[0] == b[0]
        # a zero segment repeats both coordinates, a slanted one neither
        if vertical == (a[1] == b[1]):
            raise MalformedDiagram(
                f"band {bi} segment {k} is not axis-parallel and nonzero"
            )
        if vertical == prev_vertical:
            raise MalformedDiagram(f"band {bi} does not alternate at segment {k}")
        prev_vertical = vertical
        if vertical:
            if a[0] in columns:
                raise DuplicateColumn(f"two y-lines share column x={_shown(a[0])}")
            columns.add(a[0])
        else:
            if a[1] in heights:
                raise DuplicateHeight(f"two x-lines share height y={_shown(a[1])}")
            heights.add(a[1])
    if band[0][0] != band[1][0] or band[-1][0] != band[-2][0]:
        raise MalformedDiagram(f"band {bi} must start and end vertically")
    if band[0][1] != 0 or band[-1][1] != 0:
        raise FootOrderViolation(f"band {bi} feet must lie on the baseline")
    # the path alternates and starts and ends vertically, so its interior
    # vertices pair off into its x-lines, the odd segments, each between
    # two y-lines
    lines = []
    for k in range(1, len(band) - 2, 2):
        (x0, y), (x1, _) = band[k], band[k + 1]
        if y <= 0:
            raise FootOrderViolation(
                f"band {bi} interior vertices must have positive height"
            )
        entry_ascends, exit_ascends = band[k - 1][1] > y, band[k + 2][1] > y
        if x0 < x1:
            lines.append(_XLine(bi, k, y, x0, x1, entry_ascends, exit_ascends))
        else:
            lines.append(_XLine(bi, k, y, x1, x0, exit_ascends, entry_ascends))
    return lines


def _connector_step(connector: Connector, columns: set) -> None:
    """Check a connector's feet against the occupied ``columns`` and add
    them."""
    for x in (connector.left, connector.right):
        if x in columns:
            raise DuplicateColumn(f"connector foot collides with column x={_shown(x)}")
        columns.add(x)
    if connector.left >= connector.right:
        raise FootOrderViolation("connector feet must be ordered left < right")


def classify_xlines(diagram: RectilinearDiagram) -> tuple[XLineClass, ...]:
    """Adjacency classes of all x-lines, ordered by height."""
    out = [
        XLineClass(
            band=line.band,
            height=line.y,
            left="ascends" if line.left_ascends else "descends",
            right="ascends" if line.right_ascends else "descends",
        )
        for line in _walk(diagram).lines
    ]
    out.sort(key=lambda c: c.height)
    return tuple(out)


def _ascending_count(lines: list[_XLine]) -> int:
    return sum(line.left_ascends + line.right_ascends for line in lines)


# ---------------------------------------------------------------------------
# the push-down surgery
# ---------------------------------------------------------------------------

def _half(v):
    """v / 2, exactly: a Fraction halves; a grid integer must be even."""
    if type(v) is Fraction:
        return v / 2
    if v % 2:
        raise InvariantViolation(f"midpoint {v}/2 is off the flatten grid")
    return v // 2


def _fresh_left(occupied: list, x, unit):
    """A free column left of ``x``: midway to the nearest one in the sorted
    ``occupied`` columns, or ``unit`` (1 in drawing coordinates, S on the
    flatten grid) beyond it."""
    i = bisect_left(occupied, x)
    return _half(occupied[i - 1] + x) if i else x - unit


def _fresh_right(occupied: list, x, unit):
    i = bisect_right(occupied, x)
    return _half(x + occupied[i]) if i < len(occupied) else x + unit


def _find_xline(lines: list[_XLine], height) -> _XLine:
    height = Fraction(height)
    for line in lines:
        if line.y == height:
            return line
    raise SiteNotEligible(f"no x-line at height {_shown(height)}")


def _site_for(line: _XLine, occupied: list) -> tuple[Fraction, Fraction]:
    """Push interval for a non-flat x-line, the site :func:`flatten` picks;
    ``occupied`` is the sorted list of occupied columns.

    A clean valley (both ends ascending, nothing in between) goes in one
    piece; otherwise the stub next to an ascending end, stopping before the
    first occupied column, so the pushed interval never spans crossings or
    feet of other bands.
    """
    lo = bisect_right(occupied, line.x_left)
    hi = bisect_left(occupied, line.x_right)
    if line.left_ascends and line.right_ascends and lo == hi:
        return line.x_left, line.x_right
    if line.left_ascends:
        stop = occupied[lo] if lo < hi else line.x_right
        return line.x_left, _half(line.x_left + stop)
    if line.right_ascends:
        stop = occupied[hi - 1] if lo < hi else line.x_left
        return _half(stop + line.x_right), line.x_right
    raise SiteNotEligible(f"x-line at height {_shown(line.y)} has no ascending adjacency")


def push_down(diagram: RectilinearDiagram, height) -> RectilinearDiagram:
    """Push down the x-line at ``height`` at the site :func:`flatten` picks.

    The result has one more front band and one more connector.

    The input is validated here by one walk, before the eligibility checks.
    The surgery itself (shared with :func:`flatten_trace`, which runs it on
    its integer grid) then checks only what it makes.
    """
    walk = _walk(diagram)
    line = _find_xline(walk.lines, height)
    u, w = _site_for(line, walk.sorted_columns)
    return _push(diagram, walk, line, u, w, walk.boundary(), 1)


def _diagram(bands, connectors) -> RectilinearDiagram:
    """A diagram whose coordinates are already all Fractions or all grid
    integers, which the public constructor would turn into Fractions."""
    diagram = object.__new__(RectilinearDiagram)
    object.__setattr__(diagram, "bands", bands)
    object.__setattr__(diagram, "connectors", connectors)
    return diagram


def _band_of(line: _XLine) -> int:
    return line.band


def _push(
    diagram: RectilinearDiagram,
    walk: _Walk,
    line: _XLine,
    u,
    w,
    boundary_before: int,
    unit,
) -> RectilinearDiagram:
    """The surgery itself, on a validated ``diagram`` whose walk is ``walk``
    and an eligible interval [u, w] of ``line``; ``boundary_before`` is the
    diagram's boundary count, and ``unit`` is 1 in drawing coordinates or S
    on the flatten grid.

    ``walk`` is updated for the result in place, by local work: the two
    pieces and the connector go through :func:`_band_step` and
    :func:`_connector_step`, with the errors a whole walk would raise.  The
    Euler characteristic, boundary count and ascending-end count are then
    checked against the input's: two more bands, the same boundary, fewer
    ascending ends.
    """
    bi = line.band
    band = diagram.bands[bi]
    k = line.seg
    va, vb = band[k], band[k + 1]
    y = line.y
    base = band[0][1]  # the baseline y = 0 in the diagram's number type
    rightward = va[0] < vb[0]
    first_cut, second_cut = (u, w) if rightward else (w, u)

    if first_cut == va[0]:
        piece_first = band[:k] + ((va[0], base),)
    else:
        piece_first = band[: k + 1] + ((first_cut, y), (first_cut, base))
    if second_cut == vb[0]:
        piece_second = ((vb[0], base),) + band[k + 2:]
    else:
        piece_second = ((second_cut, base), (second_cut, y)) + band[k + 1:]
    piece_a, piece_b = (
        (piece_first, piece_second) if rightward else (piece_second, piece_first)
    )

    lines, heights, columns, occupied = (
        walk.lines, walk.heights, walk.columns, walk.sorted_columns
    )
    start = bisect_left(lines, bi, key=_band_of)
    end = bisect_left(lines, bi + 1, lo=start, key=_band_of)
    ascending_before = walk.ascending
    walk.ascending -= _ascending_count(lines[start:end])
    heights.difference_update([v[1] for v in band[1:-1]])
    columns.difference_update([v[0] for v in band])
    pieces = _band_step(bi, piece_a, heights, columns)
    pieces += _band_step(bi + 1, piece_b, heights, columns)
    walk.ascending += _ascending_count(pieces)
    # the pieces occupy the cut band's columns and the cut columns u and w
    for cut in (u, w):
        i = bisect_left(occupied, cut)
        if i == len(occupied) or occupied[i] != cut:
            occupied.insert(i, cut)

    connector = Connector(
        _fresh_left(occupied, u, unit), _fresh_right(occupied, w, unit)
    )
    _connector_step(connector, columns)
    insort(occupied, connector.left)
    insort(occupied, connector.right)

    lines[start:] = pieces + [
        _XLine(later.band + 1, *later[1:]) for later in lines[end:]
    ]
    partner = walk.partner
    first_foot, second_foot = piece_first[-1][0], piece_second[0][0]
    partner[band[0][0]], partner[first_foot] = first_foot, band[0][0]
    partner[band[-1][0]], partner[second_foot] = second_foot, band[-1][0]
    partner[connector.left], partner[connector.right] = connector.right, connector.left
    for foot in (first_foot, second_foot, connector.left, connector.right):
        insort(walk.feet, foot)

    bands = diagram.bands[:bi] + (piece_a, piece_b) + diagram.bands[bi + 1:]
    result = _diagram(bands, diagram.connectors + (connector,))
    if result.band_count != diagram.band_count + 2:
        raise InvariantViolation("push-down must add exactly two bands")
    if walk.boundary() != boundary_before:
        raise InvariantViolation("push-down must preserve the boundary count")
    if walk.ascending >= ascending_before:
        raise InvariantViolation("push-down must remove an ascending end")
    return result


# Largest input x-line count that ``flatten`` accepts.  A push-down still
# costs in proportion to the cut band's length (its pieces are re-checked
# whole) and to the foot count (the boundary count).  128 x-lines (16
# staircase bands of 8, 8 of 16, or 1 of 128) take 0.016-0.033 s on a shared
# 2-core Linux VM; one band of 256 takes 0.12-0.17 s, about what 128 took
# (0.09-0.18 s) when every step walked the whole diagram.  The lcm of the
# denominators may take 3 * FLATTEN_CAP bits, the room the cap gives midpoints.
FLATTEN_CAP = 128


def _grid_unit(diagram: RectilinearDiagram, ascending: int) -> int | None:
    """S = D * 2**(3A): D is the lcm of the coordinates' denominators and A
    the diagram's ``ascending`` end count, so at most A push-downs of three
    midpoints each stay on the grid of multiples of 1/S; None once D would
    take more than 3 * FLATTEN_CAP bits."""
    denominators = {v.denominator for band in diagram.bands for p in band for v in p}
    for connector in diagram.connectors:
        denominators.update((connector.left.denominator, connector.right.denominator))
    lcm = 1
    for q in denominators:
        lcm = math.lcm(lcm, q)
        if lcm.bit_length() > 3 * FLATTEN_CAP:
            return None
    return lcm << 3 * ascending


def _mapped(diagram: RectilinearDiagram, f) -> RectilinearDiagram:
    """``diagram`` with ``f`` applied to every coordinate."""
    return _diagram(
        tuple(tuple((f(x), f(y)) for x, y in band) for band in diagram.bands),
        tuple(Connector(f(c.left), f(c.right)) for c in diagram.connectors),
    )


def flatten_trace(diagram: RectilinearDiagram) -> FlattenResult:
    """Push down eligible sites (lowest first) until every x-line is flat.

    Both caps are checked before any grid is built (a valid band of 2L + 2
    vertices has L x-lines).  :func:`_walk` validates the grid copy, and the
    input only when that fails, to quote its coordinates; push-downs update
    that one walk in place.
    """
    xlines = sum((len(band) - 2) // 2 for band in diagram.bands)
    ascending = max(xlines - len(diagram.bands), 0)
    unit = _grid_unit(diagram, ascending) if xlines <= FLATTEN_CAP else None
    if unit is None:
        _walk(diagram)  # an invalid drawing gets its validation error first
        raise CapExceeded(
            f"diagram with {xlines} x-lines exceeds the flatten cap {FLATTEN_CAP}"
            if xlines > FLATTEN_CAP
            else f"diagram denominators exceed the flatten cap of {3 * FLATTEN_CAP} bits"
        )
    current = _mapped(diagram, lambda v: v.numerator * (unit // v.denominator))
    try:
        walk = _walk(current)
    except FlatBasketError:
        _walk(diagram)  # fails at the same check, in drawing coordinates
        raise InvariantViolation("the flatten grid rejects a valid drawing")
    if walk.ascending != ascending:
        raise InvariantViolation("ascending ends differ from x-lines minus bands")
    steps: list[PushStep] = []
    euler = 1 - current.band_count
    boundary = walk.boundary()
    while True:
        pending = [line for line in walk.lines if line.left_ascends or line.right_ascends]
        if not pending:
            break
        line = min(pending, key=lambda l: l.y)
        u, w = _site_for(line, walk.sorted_columns)
        ascending = walk.ascending
        current = _push(current, walk, line, u, w, boundary, unit)
        # _push has checked the Euler drop, that the boundary count is kept
        # and that an ascending end is gone
        step = PushStep(
            height=Fraction(line.y, unit),
            interval=(Fraction(u, unit), Fraction(w, unit)),
            euler_before=euler,
            euler_after=1 - current.band_count,
            boundary_before=boundary,
            boundary_after=boundary,
            ascending_before=ascending,
            ascending_after=walk.ascending,
        )
        steps.append(step)
        euler = step.euler_after
    return FlattenResult(_read_off_code(current, walk), tuple(steps), current, unit)


def flatten(diagram: RectilinearDiagram) -> FlatBasketCode:
    return flatten_trace(diagram).code


def _read_off_code(diagram: RectilinearDiagram, walk: _Walk) -> FlatBasketCode:
    """Basket code of an all-flat, validated diagram whose walk is ``walk``:
    its x-lines come in band order, at least one per band, and its feet in
    baseline order.

    Front bands are single arches; pages go to the lowest arch first, then
    to connectors in creation order behind all front bands.
    """
    arch_heights = []
    for line in walk.lines:
        if arch_heights and arch_heights[-1][1] == line.band:
            raise SiteNotEligible(
                f"band {line.band} is not a single arch; flatten the diagram first"
            )
        arch_heights.append((line.y, line.band))
    arch_heights.sort()
    label = {}  # foot column -> page of its band or connector
    for page, (_, bi) in enumerate(arch_heights, start=1):
        band = diagram.bands[bi]
        label[band[0][0]] = label[band[-1][0]] = page
    for page, connector in enumerate(diagram.connectors, start=len(diagram.bands) + 1):
        label[connector.left] = label[connector.right] = page
    return FlatBasketCode(tuple(label[foot] for foot in walk.feet))


# ---------------------------------------------------------------------------
# Seifert matrix straight from a diagram (independent of flattening)
# ---------------------------------------------------------------------------

def diagram_seifert_matrix(diagram: RectilinearDiagram) -> tuple[tuple[int, ...], ...]:
    """Seifert matrix of the normal-form surface, from crossings and chords.

    Bands are indexed by increasing peak height (the page order for flat
    diagrams).  Each basis cycle runs along its band core oriented from the
    left foot to the right foot (baseline order, regardless of which end the
    vertex list starts at) and closes up through the disk.  The entry for
    (x, y) sums the crossing signs where x's x-lines pass over y's y-lines,
    plus the chord-crossing sign for feet that interleave on the disk, which
    enters the two entries of a pair antisymmetrically; the diagonal is each
    core's self-linking (its projected writhe, read with the same push-off
    convention as everything else).  The two global binary conventions left
    open by the construction - the push-off side (an overall sign) and which
    entry of a pair receives the chord crossing - are pinned by entrywise
    agreement with the six-case code rule on flat diagrams; the same choice
    is confirmed against an independent boundary-trace oracle on random
    non-flat diagrams (see the test suite).
    """
    validate_diagram(diagram)
    if diagram.connectors:
        raise MalformedDiagram(
            "diagram oracle applies to connector-free diagrams"
        )
    order = sorted(
        range(len(diagram.bands)),
        key=lambda bi: max(v[1] for v in diagram.bands[bi]),
    )
    index = {bi: pos for pos, bi in enumerate(order)}
    n = len(order)
    rows = [[0] * n for _ in range(n)]

    # cycle orientation: +1 when the vertex list already runs left foot to
    # right foot, -1 when the path starts at the right foot
    flow = {
        bi: (1 if band[0][0] < band[-1][0] else -1)
        for bi, band in enumerate(diagram.bands)
    }

    segments = []
    for bi, band in enumerate(diagram.bands):
        for k, a, b, vertical in _segments(band):
            segments.append((bi, k, a, b, vertical))
    xl_items = [s for s in segments if not s[4]]
    yl_items = [s for s in segments if s[4]]
    for bi, ki, a, b, _ in xl_items:
        y = a[1]
        xl, xr = (a[0], b[0]) if a[0] < b[0] else (b[0], a[0])
        h_dir = (1 if b[0] > a[0] else -1) * flow[bi]
        for bj, kj, c, d, _ in yl_items:
            if bi == bj and abs(ki - kj) == 1:
                continue
            x = c[0]
            ylo, yhi = (c[1], d[1]) if c[1] < d[1] else (d[1], c[1])
            if xl < x < xr and ylo < y < yhi:
                v_dir = (1 if d[1] > c[1] else -1) * flow[bj]
                rows[index[bi]][index[bj]] -= h_dir * v_dir

    feet = []
    for bi, band in enumerate(diagram.bands):
        x0, x1 = band[0][0], band[-1][0]
        feet.append((min(x0, x1), max(x0, x1), index[bi]))
    for p_i, q_i, i in feet:
        for p_j, q_j, j in feet:
            if i >= j:
                continue
            inside = (p_i < p_j < q_i) + (p_i < q_j < q_i)
            if inside == 1:
                # chord crossing, oriented second foot to first foot on the
                # disk: +1 into the entry of the earlier-starting chord
                earlier_first = p_i < p_j
                rows[i][j] += 1 if earlier_first else -1
                rows[j][i] += -1 if earlier_first else 1
    return tuple(tuple(r) for r in rows)
