"""Lower bounds for the flat plumbing basket number of a knot.

For a non-trivial knot the band count of any flat plumbing basket is at
least 2g+2 (the surface compresses down to genus g) and at least span+2,
where span is the degree spread of the Alexander polynomial; when the top
coefficient is not +-1 the degree bound sharpens to span+4, because the
extreme pencil coefficients are products of sub-diagonal +-1 entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GenusContradiction, TrivialKnotInput, _shown
from .invariants import AlexanderPolynomial

__all__ = ["FpbkBound", "fpbk_lower_bound"]


@dataclass(frozen=True)
class FpbkBound:
    """Partial bounds and their maximum.

    ``genus_bound`` is present only when a genus was supplied.  The floor
    2g + 2 >= span + 2 implied by genus >= span/2 never exceeds the degree
    bound (span + 2 or span + 4), so ``overall`` needs no term for it.
    """

    degree_bound: int
    genus_bound: int | None
    overall: int
    case_tag: str  # "monic" | "non_monic"


def fpbk_lower_bound(
    delta: AlexanderPolynomial, genus: int | None = None
) -> FpbkBound:
    """Evaluate the band-count lower bound from ``delta`` and optional genus.

    ``delta`` must belong to a non-trivial knot: a constant +-1 polynomial is
    rejected unless a positive genus certifies non-triviality.
    """
    span = delta.span
    if span is None:
        raise TrivialKnotInput("zero polynomial does not belong to a knot")
    if span == 0 and not (genus and genus > 0):
        raise TrivialKnotInput(
            "trivial Alexander polynomial needs a positive genus to bound"
        )
    if genus is not None and 2 * genus < span:
        raise GenusContradiction(
            f"2*genus = {_shown(2 * genus)} is smaller than the polynomial span {span}"
        )
    monic = abs(delta.leading) == 1
    degree_bound = span + (2 if monic else 4)
    genus_bound = 2 * genus + 2 if genus is not None else None
    overall = max(degree_bound, genus_bound or 0)
    return FpbkBound(
        degree_bound=degree_bound,
        genus_bound=genus_bound,
        overall=overall,
        case_tag="monic" if monic else "non_monic",
    )
