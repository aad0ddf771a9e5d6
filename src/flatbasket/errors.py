"""Exception hierarchy for the whole package.

Every domain error raised by the library derives from ``FlatBasketError`` so
that callers (and the CLI) can distinguish bad input from genuine bugs.
Every fixed cap raises ``CapExceeded`` and every failed internal check
``InvariantViolation``.
"""

from pathlib import Path


class FlatBasketError(Exception):
    """Base class of all domain errors raised by this package."""


def _excerpt(text: str) -> str:
    """``repr`` of text cut to 24 characters, so errors stay one short line."""
    if len(text) <= 24:
        return repr(text)
    return f"{text[:24]!r}... ({len(text)} characters)"


def _shown(value) -> str:
    """``str(value)`` when at most 24 characters, for errors that quote a value
    of unbounded size; a longer list or tuple shows its first two items by
    this rule and its count, anything else its :func:`_excerpt`."""
    text = str(value)
    if len(text) <= 24:
        return text
    if isinstance(value, (list, tuple)):
        return f"{', '.join(map(_shown, value[:2]))}, ... ({len(value)} items)"
    return _excerpt(text)


def _read_text(path: str | Path, error: type[FlatBasketError]) -> str:
    """UTF-8 text of the file at ``path``; an undecodable byte raises ``error``.

    Line ends stay as stored, so a line starts at the byte offset of the
    encoded text before it."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: undecodable byte at offset {exc.start}") from exc


class InvariantViolation(FlatBasketError):
    """A mathematical invariant checked at run time failed, such as two exact
    methods disagreeing or an even knot determinant (internal bug)."""


class CapExceeded(FlatBasketError):
    """Input above a fixed cap: bands for an enumeration, an orbit or a
    pencil, x-lines for flatten."""


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

class NotAKnot(FlatBasketError):
    """Operation requires a single boundary component."""


# --- bounds -------------------------------------------------------------------

class TrivialKnotInput(FlatBasketError):
    """Lower bound requested for a trivial polynomial with no genus data."""


class GenusContradiction(FlatBasketError):
    """Supplied genus is smaller than half the polynomial span."""


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

class StoreMismatch(FlatBasketError):
    """An existing result store disagrees with freshly computed records."""


# --- tables and CLI ---------------------------------------------------------------

class ParseError(FlatBasketError):
    """A table or reference file is undecodable or malformed; the message says where."""


class MissingReference(FlatBasketError):
    """No reference polynomial is available for a table row."""
