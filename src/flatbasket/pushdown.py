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

New feet are placed at fresh fractional columns; only the left-to-right
order of feet matters for the resulting code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .codes import FlatBasketCode, boundary_components, underlying
from .errors import (
    DuplicateColumn,
    DuplicateHeight,
    EndpointCrossing,
    FootOrderViolation,
    InvariantViolation,
    MalformedDiagram,
    SiteNotEligible,
    _excerpt,
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
    "read_off_code",
    "diagram_seifert_matrix",
    "code_to_flat_diagram",
    "diagram_boundary_components",
    "diagram_euler",
]

Vertex = tuple[Fraction, Fraction]


def _vertex(v) -> Vertex:
    """``(Fraction(x), Fraction(y))``, reusing a vertex that already is one,
    as every vertex of a push-down result is."""
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


@dataclass(frozen=True)
class _XLine:
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
    code: FlatBasketCode
    final: RectilinearDiagram
    steps: tuple[PushStep, ...] = field(default_factory=tuple)


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
            return Fraction(text)
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedDiagram(f"{path}: undecodable byte at offset {exc.start}") from exc
    return parse_diagram(text)


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
    """Check the normal-form conditions; raise a specific error otherwise."""
    heights: dict[Fraction, tuple[int, int]] = {}
    columns: dict[Fraction, tuple[int, int]] = {}
    for bi, band in enumerate(diagram.bands):
        if len(band) < 4:
            raise MalformedDiagram(f"band {bi} has fewer than 4 vertices")
        prev_vertical = None
        for k, a, b, vertical in _segments(band):
            if a == b or (a[0] != b[0] and a[1] != b[1]):
                raise MalformedDiagram(
                    f"band {bi} segment {k} is not axis-parallel and nonzero"
                )
            if prev_vertical is not None and vertical == prev_vertical:
                raise MalformedDiagram(f"band {bi} does not alternate at segment {k}")
            prev_vertical = vertical
            if vertical:
                if a[0] in columns:
                    raise DuplicateColumn(f"two y-lines share column x={a[0]}")
                columns[a[0]] = (bi, k)
            else:
                if a[1] in heights:
                    raise DuplicateHeight(f"two x-lines share height y={a[1]}")
                heights[a[1]] = (bi, k)
        first = band[0]
        last = band[-1]
        if band[0][0] != band[1][0] or band[-1][0] != band[-2][0]:
            raise MalformedDiagram(f"band {bi} must start and end vertically")
        if first[1] != 0 or last[1] != 0:
            raise FootOrderViolation(f"band {bi} feet must lie on the baseline")
        if any(v[1] <= 0 for v in band[1:-1]):
            raise FootOrderViolation(
                f"band {bi} interior vertices must have positive height"
            )
    for connector in diagram.connectors:
        for x in (connector.left, connector.right):
            if x in columns:
                raise DuplicateColumn(f"connector foot collides with column x={x}")
            columns[x] = (-1, -1)
        if connector.left >= connector.right:
            raise FootOrderViolation("connector feet must be ordered left < right")
    _check_crossings(diagram)


def _check_crossings(diagram: RectilinearDiagram) -> None:
    """Reject any x-line/y-line contact that is not a transverse interior
    crossing.

    The test only compares coordinates, so it runs on each coordinate's rank
    among the distinct vertex x (or y) values: sorting them costs
    O(N log N) ``Fraction`` comparisons, and the pair loop compares ints.
    """
    xs = sorted({v[0] for band in diagram.bands for v in band})
    ys = sorted({v[1] for band in diagram.bands for v in band})
    xrank = {x: i for i, x in enumerate(xs)}
    yrank = {y: i for i, y in enumerate(ys)}
    xlines = []
    ylines = []
    for bi, band in enumerate(diagram.bands):
        for k, a, b, vertical in _segments(band):
            if vertical:
                lo, hi = sorted((yrank[a[1]], yrank[b[1]]))
                ylines.append((bi, k, xrank[a[0]], lo, hi))
            else:
                lo, hi = sorted((xrank[a[0]], xrank[b[0]]))
                xlines.append((bi, k, yrank[a[1]], lo, hi))
    for bi, ki, y, xl, xr in xlines:
        for bj, kj, x, ylo, yhi in ylines:
            if xl <= x <= xr and ylo <= y <= yhi:
                if bi == bj and abs(ki - kj) == 1:
                    continue  # shared joint of consecutive segments
                if not (xl < x < xr and ylo < y < yhi):
                    raise EndpointCrossing(
                        f"crossing touches a segment endpoint at ({xs[x]},{ys[y]})"
                    )


def _xlines(diagram: RectilinearDiagram) -> list[_XLine]:
    out = []
    for bi, band in enumerate(diagram.bands):
        for k, a, b, vertical in _segments(band):
            if vertical:
                continue
            # neighbours in path order; both exist because paths end vertically
            entry_other = band[k - 1]
            exit_other = band[k + 2]
            if a[0] < b[0]:
                left_other, right_other = entry_other, exit_other
                x_left, x_right = a[0], b[0]
            else:
                left_other, right_other = exit_other, entry_other
                x_left, x_right = b[0], a[0]
            out.append(
                _XLine(
                    band=bi,
                    seg=k,
                    y=a[1],
                    x_left=x_left,
                    x_right=x_right,
                    left_ascends=left_other[1] > a[1],
                    right_ascends=right_other[1] > a[1],
                )
            )
    return out


def classify_xlines(diagram: RectilinearDiagram) -> tuple[XLineClass, ...]:
    """Adjacency classes of all x-lines, ordered by height."""
    validate_diagram(diagram)
    out = [
        XLineClass(
            band=line.band,
            height=line.y,
            left="ascends" if line.left_ascends else "descends",
            right="ascends" if line.right_ascends else "descends",
        )
        for line in _xlines(diagram)
    ]
    out.sort(key=lambda c: c.height)
    return tuple(out)


def _ascending_count(lines: list[_XLine]) -> int:
    return sum(line.left_ascends + line.right_ascends for line in lines)


# ---------------------------------------------------------------------------
# abstract surface bookkeeping (depends only on the foot matching)
# ---------------------------------------------------------------------------

def _feet(diagram: RectilinearDiagram) -> list[tuple[Fraction, int]]:
    feet = []
    for bi, band in enumerate(diagram.bands):
        feet.append((band[0][0], bi))
        feet.append((band[-1][0], bi))
    for ci, connector in enumerate(diagram.connectors):
        feet.append((connector.left, len(diagram.bands) + ci))
        feet.append((connector.right, len(diagram.bands) + ci))
    feet.sort()
    return feet


def diagram_boundary_components(diagram: RectilinearDiagram) -> int:
    """Boundary components of the realized surface (matching trace).

    Only the foot pairing matters, so band ``i`` is simply labeled ``i + 1``.
    """
    owners = tuple(owner + 1 for _, owner in _feet(diagram))
    return boundary_components(underlying(FlatBasketCode(owners)))


def diagram_euler(diagram: RectilinearDiagram) -> int:
    return 1 - diagram.band_count


# ---------------------------------------------------------------------------
# the push-down surgery
# ---------------------------------------------------------------------------

def _occupied_columns(diagram: RectilinearDiagram) -> set[Fraction]:
    occupied: set[Fraction] = set()
    for band in diagram.bands:
        for k, a, b, vertical in _segments(band):
            if vertical:
                occupied.add(a[0])
    for connector in diagram.connectors:
        occupied.add(connector.left)
        occupied.add(connector.right)
    return occupied


def _fresh_left(occupied: set[Fraction], x: Fraction) -> Fraction:
    below = [c for c in occupied if c < x]
    return (max(below) + x) / 2 if below else x - 1


def _fresh_right(occupied: set[Fraction], x: Fraction) -> Fraction:
    above = [c for c in occupied if c > x]
    return (x + min(above)) / 2 if above else x + 1


def _find_xline(diagram: RectilinearDiagram, height) -> _XLine:
    height = Fraction(height)
    for line in _xlines(diagram):
        if line.y == height:
            return line
    raise SiteNotEligible(f"no x-line at height {height}")


def _site_for(line: _XLine, occupied: set[Fraction]) -> tuple[Fraction, Fraction]:
    """Default push interval for a non-flat x-line.

    A clean valley (both ends ascending, nothing in between) goes in one
    piece; otherwise the stub next to an ascending end, stopping before the
    first occupied column, so the pushed interval never spans crossings or
    feet of other bands.
    """
    inside = sorted(c for c in occupied if line.x_left < c < line.x_right)
    if line.left_ascends and line.right_ascends and not inside:
        return line.x_left, line.x_right
    if line.left_ascends:
        stop = inside[0] if inside else line.x_right
        return line.x_left, (line.x_left + stop) / 2
    if line.right_ascends:
        stop = inside[-1] if inside else line.x_left
        return (stop + line.x_right) / 2, line.x_right
    raise SiteNotEligible(
        f"x-line at height {line.y} has no ascending adjacency"
    )


def push_down(
    diagram: RectilinearDiagram, height, interval=None
) -> RectilinearDiagram:
    """Push down an interval of the x-line at ``height``.

    ``interval`` defaults to the deterministic site choice used by
    :func:`flatten`; an explicit interval must touch an ascending end of the
    x-line.  The result has one more front band and one more connector.

    The input is validated here, before the eligibility checks.  The
    surgery itself (shared with :func:`flatten_trace`) assumes a validated
    input and validates its result once.
    """
    validate_diagram(diagram)
    line = _find_xline(diagram, height)
    occupied = _occupied_columns(diagram)
    if interval is None:
        u, w = _site_for(line, occupied)
    else:
        u, w = Fraction(interval[0]), Fraction(interval[1])
        if not (line.x_left <= u < w <= line.x_right):
            raise SiteNotEligible(
                f"interval [{u},{w}] is not inside the x-line at height {line.y}"
            )
        # interval endpoints may coincide with a junction only where the
        # band continues upward; cutting at a descending junction would
        # fold the path back onto its own column
        if u == line.x_left and not line.left_ascends:
            raise SiteNotEligible("interval may not end at a descending junction")
        if w == line.x_right and not line.right_ascends:
            raise SiteNotEligible("interval may not end at a descending junction")
        if not (u == line.x_left or w == line.x_right):
            raise SiteNotEligible(
                "pushed interval must reach an ascending end of the x-line"
            )
        for cut, junction in ((u, u == line.x_left), (w, w == line.x_right)):
            if not junction and cut in occupied:
                raise SiteNotEligible(f"cut column {cut} is already occupied")
        # an interval spanning a crossing or a foot would strand feet between
        # the connector's, splitting the boundary instead of preserving it
        if any(u < col < w for col in occupied):
            raise SiteNotEligible(
                "pushed interval may not span occupied columns"
            )
    return _push(
        diagram, line, u, w, diagram_boundary_components(diagram), occupied
    )


def _push(
    diagram: RectilinearDiagram,
    line: _XLine,
    u: Fraction,
    w: Fraction,
    boundary_before: int,
    occupied: set[Fraction],
) -> RectilinearDiagram:
    """The surgery itself, on a validated ``diagram`` and an eligible
    interval [u, w] of ``line``; ``boundary_before`` and ``occupied`` are
    the diagram's boundary count and occupied columns.

    The result is validated here, and its Euler characteristic and boundary
    count are checked against the input's.
    """
    band = diagram.bands[line.band]
    k = line.seg
    va, vb = band[k], band[k + 1]
    y = line.y
    rightward = va[0] < vb[0]
    first_cut, second_cut = (u, w) if rightward else (w, u)

    if first_cut == va[0]:
        piece_first = band[:k] + ((va[0], Fraction(0)),)
    else:
        piece_first = band[: k + 1] + ((first_cut, y), (first_cut, Fraction(0)))
    if second_cut == vb[0]:
        piece_second = ((vb[0], Fraction(0)),) + band[k + 2:]
    else:
        piece_second = ((second_cut, Fraction(0)), (second_cut, y)) + band[k + 1:]
    piece_a, piece_b = (
        (piece_first, piece_second) if rightward else (piece_second, piece_first)
    )

    occupied = occupied | {u, w}
    connector = Connector(_fresh_left(occupied, u), _fresh_right(occupied, w))

    bands = (
        diagram.bands[: line.band]
        + (piece_a, piece_b)
        + diagram.bands[line.band + 1:]
    )
    result = RectilinearDiagram(bands, diagram.connectors + (connector,))
    validate_diagram(result)
    if diagram_euler(result) != diagram_euler(diagram) - 2:
        raise InvariantViolation("push-down must add exactly two bands")
    if diagram_boundary_components(result) != boundary_before:
        raise InvariantViolation("push-down must preserve the boundary count")
    return result


def flatten_trace(diagram: RectilinearDiagram) -> FlattenResult:
    """Push down eligible sites (lowest first) until every x-line is flat.

    Every diagram is validated exactly once: the input here, and each
    push-down's result inside the surgery.  The private steps called here
    assume a validated input, so a flatten with s steps makes 1 + s
    validations.
    """
    validate_diagram(diagram)
    steps: list[PushStep] = []
    current = diagram
    lines = _xlines(current)
    euler = diagram_euler(current)
    boundary = diagram_boundary_components(current)
    ascending = _ascending_count(lines)
    while True:
        pending = [line for line in lines if line.left_ascends or line.right_ascends]
        if not pending:
            break
        line = min(pending, key=lambda l: l.y)
        occupied = _occupied_columns(current)
        u, w = _site_for(line, occupied)
        current = _push(current, line, u, w, boundary, occupied)
        lines = _xlines(current)
        # _push has checked the Euler drop and that the boundary count is kept
        step = PushStep(
            height=line.y,
            interval=(u, w),
            euler_before=euler,
            euler_after=diagram_euler(current),
            boundary_before=boundary,
            boundary_after=boundary,
            ascending_before=ascending,
            ascending_after=_ascending_count(lines),
        )
        steps.append(step)
        if step.ascending_after >= step.ascending_before:
            raise InvariantViolation("push-down must remove an ascending end")
        euler, ascending = step.euler_after, step.ascending_after
    return FlattenResult(
        code=_read_off_code(current), final=current, steps=tuple(steps)
    )


def flatten(diagram: RectilinearDiagram) -> FlatBasketCode:
    return flatten_trace(diagram).code


def read_off_code(diagram: RectilinearDiagram) -> FlatBasketCode:
    """Basket code of an all-flat diagram.

    Front bands are single arches; pages go to the lowest arch first, then
    to connectors in creation order behind all front bands.  The input is
    validated here; :func:`flatten_trace` reads off its own final diagram,
    already validated, through the private step.
    """
    validate_diagram(diagram)
    return _read_off_code(diagram)


def _read_off_code(diagram: RectilinearDiagram) -> FlatBasketCode:
    """:func:`read_off_code` on a validated diagram."""
    arch_heights = []
    for bi, band in enumerate(diagram.bands):
        spans = [a[1] for _, a, b, vertical in _segments(band) if not vertical]
        if len(spans) != 1:
            raise SiteNotEligible(
                f"band {bi} is not a single arch; flatten the diagram first"
            )
        arch_heights.append((spans[0], bi))
    arch_heights.sort()
    label: dict[int, int] = {}
    for page, (_, bi) in enumerate(arch_heights, start=1):
        label[bi] = page
    for ci in range(len(diagram.connectors)):
        label[len(diagram.bands) + ci] = len(diagram.bands) + 1 + ci
    word = tuple(label[owner] for _, owner in _feet(diagram))
    return FlatBasketCode(word)


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


def code_to_flat_diagram(code: FlatBasketCode) -> RectilinearDiagram:
    """Flat diagram realizing a code: one arch per band, height = page."""
    bands = []
    for label in range(1, code.n + 1):
        p, q = code.foot_positions[label]
        bands.append(
            (
                (Fraction(p), Fraction(0)),
                (Fraction(p), Fraction(label)),
                (Fraction(q), Fraction(label)),
                (Fraction(q), Fraction(0)),
            )
        )
    return RectilinearDiagram(tuple(bands))
