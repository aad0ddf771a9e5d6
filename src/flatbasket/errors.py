"""Exception hierarchy for the whole package.

Every domain error raised by the library derives from ``FlatBasketError`` so
that callers (and the CLI) can distinguish bad input from genuine bugs.
"""


class FlatBasketError(Exception):
    """Base class of all domain errors raised by this package."""


def _excerpt(text: str, width: int = 24) -> str:
    """``repr`` of text cut to ``width`` characters, so errors stay one short line."""
    if len(text) <= width:
        return repr(text)
    return f"{text[:width]!r}... ({len(text)} characters)"


class InvariantViolation(FlatBasketError):
    """A mathematical invariant checked at run time failed (internal bug)."""


# --- code parsing and validation -------------------------------------------

class EmptyInput(FlatBasketError):
    """No tokens were found where a basket code was expected."""


class MalformedCode(FlatBasketError):
    """Word has odd length, bad tokens, or a label not occurring twice."""


class NonContiguousLabels(FlatBasketError):
    """Labels are paired correctly but are not exactly 1..n."""


class InvalidPermutation(FlatBasketError):
    """Relabeling map is not a bijection of 1..n."""


# --- invariants -------------------------------------------------------------

class MethodDisagreement(FlatBasketError):
    """The two exact determinant algorithms disagreed (internal bug)."""


class NotAKnot(FlatBasketError):
    """Operation requires a single boundary component."""


class UnexpectedResidue(FlatBasketError):
    """Knot determinant was even, which is impossible (internal bug)."""


# --- bounds -------------------------------------------------------------------

class TrivialKnotInput(FlatBasketError):
    """Lower bound requested for a trivial polynomial with no genus data."""


class GenusContradiction(FlatBasketError):
    """Supplied genus is smaller than half the polynomial span."""


# --- pass classification ------------------------------------------------------

class OrbitTooLarge(FlatBasketError):
    """Band count exceeds the fixed cap for orbit enumeration."""


# --- rectilinear diagrams ------------------------------------------------------

class MalformedDiagram(FlatBasketError):
    """Band path is not an alternating rectilinear baseline-to-baseline path."""


class DuplicateHeight(FlatBasketError):
    """Two horizontal segments share a y-coordinate."""


class DuplicateColumn(FlatBasketError):
    """Two vertical segments share an x-coordinate."""


class FootOrderViolation(FlatBasketError):
    """Band feet are not properly arranged on the baseline."""


class SiteNotEligible(FlatBasketError):
    """Push-down requested at a site with no ascending adjacency."""


# --- search ---------------------------------------------------------------------

class CapExceeded(FlatBasketError):
    """Input above a fixed cap: bands for an enumeration or a pencil, x-lines
    for flatten."""


class StoreMismatch(FlatBasketError):
    """An existing result store disagrees with freshly computed records."""


# --- tables and CLI ---------------------------------------------------------------

class ParseError(FlatBasketError):
    """A bundled data file could not be parsed; message identifies the row."""


class MissingReference(FlatBasketError):
    """No reference polynomial is available for a table row."""
