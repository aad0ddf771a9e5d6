"""Pass-equivalence classification and labeling-orbit experiments.

Every knot is pass-equivalent to either the unknot (Arf 0) or the trefoil
(Arf 1); links fall into trivial links, trefoil-plus-trivial splits, or a
third family that needs linking data we do not compute.  A fixed chord
diagram with its n! page labelings realizes a family of links that are all
mutually pass-equivalent, so any pass invariant - Arf in particular - must
be constant on such a labeling orbit.  ``orbit_invariant_check`` tests that
consequence exhaustively for one diagram.

Arf reads only the knot determinant |Delta(-1)| = |det(V + V^T)|, which
comes from the symmetric kernel of :mod:`invariants` (one elimination that
calls no pencil), and V + V^T depends on a labeling only through the
orientation it gives each interleaving chord pair.  So the orbit check walks
the n! labelings once, keeps the first labeling of each canonical code, and
runs that kernel once per orientation key, on the key's chord-order V_c
(:func:`seifert._key_pencil` at x = 0): 3.8 ms a six-band orbit on average
in one process (all 1,485 in 5.6 s) and under a second for the 8!
labelings of an eight-band one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from operator import itemgetter

from . import invariants
from .codes import (
    FlatBasketCode,
    UnderlyingDiagram,
    boundary_components,
    canonical_word,
    surface_stats,
)
from .errors import CapExceeded, NotAKnot
from .seifert import _per_orientation_key

__all__ = ["PassClass", "OrbitReport", "pass_class", "labeling_orbit", "orbit_invariant_check"]

ORBIT_CAP = 8


@dataclass(frozen=True)
class PassClass:
    """Pass-equivalence class: family I/II/III with component count.

    For knots the family is exact (I = unknot class, II = trefoil class).
    For links only the component count is certain here; the family stays
    undetermined rather than guessed.
    """

    family: str | None
    components: int
    certainty: str  # "exact" | "partial"


@dataclass(frozen=True)
class OrbitReport:
    """Arf values seen over a labeling orbit and whether they are constant."""

    arf_values: tuple[int, ...]
    orbit_size: int
    passed: bool


def pass_class(code: FlatBasketCode) -> PassClass:
    """Classify the boundary link of the code's basket up to pass moves; a
    knot's family is its :func:`invariants.arf`, which walks the boundary
    once and takes at most ``PENCIL_CAP`` bands."""
    try:
        family = "II" if invariants.arf(code) else "I"
    except NotAKnot:
        stats = surface_stats(code)
        return PassClass(family=None, components=stats.boundary, certainty="partial")
    return PassClass(family=family, components=1, certainty="exact")


def _orbit_words(diagram: UnderlyingDiagram):
    """The n! labeled words of the diagram; the cap is checked before any."""
    if diagram.n > ORBIT_CAP:
        raise CapExceeded(f"{diagram.n} bands exceeds the orbit cap {ORBIT_CAP}")
    return map(itemgetter(*diagram.chord_at), permutations(range(1, diagram.n + 1)))


def labeling_orbit(diagram: UnderlyingDiagram) -> list[FlatBasketCode]:
    """All page labelings of a chord diagram, canonicalized and deduplicated.

    Elements share the drawn chord diagram (the pairing up to basepoint
    rotation); they are returned sorted for determinism.  At most
    ``ORBIT_CAP`` bands, so at most 8! labelings.
    """
    seen = {canonical_word(w) for w in _orbit_words(diagram)}
    return [FlatBasketCode(w) for w in sorted(seen)]


def orbit_invariant_check(diagram: UnderlyingDiagram) -> OrbitReport:
    """Check that Arf is constant over the labeling orbit of a knot diagram.

    Each canonical code of the orbit is read once, from the first labeling
    that reaches it.  That labeling realizes the diagram itself, so its
    Seifert matrix is P^T M P for the chord-order matrix M of its orientation
    key (as in the search), and Arf - which reads only det(V + V^T) - is
    computed once per key, from one symmetric elimination
    (:func:`invariants._signature_and_determinant_of_rows`), whose det
    :func:`invariants.arf_from_determinant` checks is odd.
    """
    if boundary_components(diagram) != 1:
        raise NotAKnot("orbit check needs a single boundary component")
    first: dict[tuple[int, ...], tuple[int, ...]] = {}
    for word in _orbit_words(diagram):
        first.setdefault(canonical_word(word), word)
    values = sorted({
        invariants.arf_from_determinant(
            invariants._signature_and_determinant_of_rows(pencil(0))[1]
        )
        for pencil, _ in _per_orientation_key(first.values(), diagram)
    })
    return OrbitReport(
        arf_values=tuple(values),
        orbit_size=len(first),
        passed=len(values) == 1,
    )
