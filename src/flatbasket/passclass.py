"""Pass-equivalence classification and labeling-orbit experiments.

Every knot is pass-equivalent to either the unknot (Arf 0) or the trefoil
(Arf 1); links fall into trivial links, trefoil-plus-trivial splits, or a
third family that needs linking data we do not compute.  A fixed chord
diagram with its n! page labelings realizes a family of links that are all
mutually pass-equivalent, so any pass invariant - Arf in particular - must
be constant on such a labeling orbit.  ``orbit_invariant_check`` tests that
consequence exhaustively for one diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .codes import (
    FlatBasketCode,
    UnderlyingDiagram,
    boundary_components,
    canonicalize,
    surface_stats,
)
from .errors import NotAKnot, OrbitTooLarge
from .invariants import alexander, arf_from_determinant, determinant_from_alexander

__all__ = ["PassClass", "OrbitReport", "pass_class", "labeling_orbit", "orbit_invariant_check"]

ORBIT_CAP = 8


@dataclass(frozen=True)
class PassClass:
    """Pass-equivalence class: family I/II/III with component count.

    For knots the family is exact (I = unknot class, II = trefoil class).
    For links only the component count is certain here; family and the
    third-family parameter stay undetermined rather than guessed.
    """

    family: str | None
    components: int
    d: int | None
    certainty: str  # "exact" | "partial"


@dataclass(frozen=True)
class OrbitReport:
    """Arf values seen over a labeling orbit and whether they are constant."""

    arf_values: tuple[int, ...]
    orbit_size: int
    passed: bool


def pass_class(code: FlatBasketCode) -> PassClass:
    """Classify the boundary link of the code's basket up to pass moves."""
    stats = surface_stats(code)
    if stats.boundary == 1:
        family = "II" if _knot_arf(code) else "I"
        return PassClass(family=family, components=1, d=None, certainty="exact")
    return PassClass(family=None, components=stats.boundary, d=None, certainty="partial")


def _knot_arf(code: FlatBasketCode) -> int:
    """Arf invariant of a code already known to bound a knot: one Delta."""
    return arf_from_determinant(determinant_from_alexander(alexander(code)))


def _orbit_words(diagram: UnderlyingDiagram):
    chord_at = diagram.chord_at
    for perm in permutations(range(1, diagram.n + 1)):
        yield tuple(perm[c] for c in chord_at)


def labeling_orbit(diagram: UnderlyingDiagram) -> list[FlatBasketCode]:
    """All page labelings of a chord diagram, canonicalized and deduplicated.

    Elements share the drawn chord diagram (the pairing up to basepoint
    rotation); they are returned sorted for determinism.  At most
    ``ORBIT_CAP`` bands, so at most 8! labelings.
    """
    if diagram.n > ORBIT_CAP:
        raise OrbitTooLarge(f"{diagram.n} bands exceeds the orbit cap {ORBIT_CAP}")
    seen = {canonicalize(FlatBasketCode(w)).word for w in _orbit_words(diagram)}
    return [FlatBasketCode(w) for w in sorted(seen)]


def orbit_invariant_check(diagram: UnderlyingDiagram) -> OrbitReport:
    """Check that Arf is constant over the labeling orbit of a knot diagram."""
    if boundary_components(diagram) != 1:
        raise NotAKnot("orbit check needs a single boundary component")
    orbit = labeling_orbit(diagram)
    values = sorted({_knot_arf(code) for code in orbit})
    return OrbitReport(
        arf_values=tuple(values),
        orbit_size=len(orbit),
        passed=len(values) == 1,
    )
