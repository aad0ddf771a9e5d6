"""Flat basket codes and their underlying chord diagrams.

A flat plumbing basket is a Seifert surface made of one disk page of the
trivial open book plus n untwisted bands, each in its own page.  Reading the
band feet counterclockwise along the disk boundary gives a word of length 2n
over the labels 1..n in which every label occurs exactly twice: the *flat
basket code*.  The label is the page order of the band (1 = closest to the
disk); positions are 1-based in reading order.

Forgetting the labels leaves a fixed-point-free involution on the 2n feet (a
chord diagram).  The abstract surface - Euler characteristic, boundary
component count, genus - depends only on that involution, because every band
is untwisted and attached on the same side of the disk.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    EmptyInput,
    InvalidPermutation,
    InvariantViolation,
    MalformedCode,
    NonContiguousLabels,
    _excerpt,
    _shown,
)

__all__ = [
    "FlatBasketCode",
    "UnderlyingDiagram",
    "SurfaceStats",
    "parse_code",
    "parse_matching",
    "underlying",
    "boundary_components",
    "surface_stats",
    "surface_genus",
    "canonicalize",
    "canonical_word",
    "relabel",
]

_TOKEN_SPLIT = re.compile(r"[,\s]+")


@dataclass(frozen=True)
class FlatBasketCode:
    """A word of 2n band labels in boundary order, each of 1..n exactly twice."""

    word: tuple[int, ...]

    def __post_init__(self):
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        if not word:
            raise EmptyInput("empty code")
        if len(word) % 2:
            raise MalformedCode(f"code length {len(word)} is odd")
        n = len(word) // 2
        # fast path: the sorted word is 1, 1, 2, 2, ..., n, n; the count
        # below decides the rest and words the error
        try:
            ordered = sorted(word)
        except TypeError:  # labels that do not sort
            ordered = None
        if ordered is not None and ordered[::2] == ordered[1::2] == list(range(1, n + 1)):
            return
        counts = Counter(word)
        bad = sorted(x for x, c in counts.items() if c != 2)
        if bad:
            listed = _excerpt(",".join(map(str, bad)))
            raise MalformedCode(f"{len(bad)} labels do not occur exactly twice: {listed}")
        if set(counts) != set(range(1, n + 1)):
            listed = _excerpt(",".join(map(str, sorted(counts))))
            raise NonContiguousLabels(f"labels {listed} are not exactly 1..{n}")

    @property
    def n(self) -> int:
        """Number of bands."""
        return len(self.word) // 2

    @cached_property
    def foot_positions(self) -> dict[int, tuple[int, int]]:
        """Map label -> (first position, second position), 1-based."""
        feet: dict[int, tuple[int, int]] = {}
        first: dict[int, int] = {}
        for pos, label in enumerate(self.word, start=1):
            if label in first:
                feet[label] = (first[label], pos)
            else:
                first[label] = pos
        return feet

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.word)) + ")"


@dataclass(frozen=True)
class UnderlyingDiagram:
    """Chord diagram of a code: fixed-point-free involution on 2n points.

    ``pairing[i]`` is the 0-based partner of 0-based position ``i``.
    """

    pairing: tuple[int, ...]

    def __post_init__(self):
        pairing = tuple(self.pairing)
        object.__setattr__(self, "pairing", pairing)
        m = len(pairing)
        if m == 0 or m % 2:
            raise MalformedCode(f"matching on {m} points is not even and positive")
        for i, j in enumerate(pairing):
            if not 0 <= j < m or j == i or pairing[j] != i:
                raise MalformedCode("pairing is not a fixed-point-free involution")

    @property
    def n(self) -> int:
        return len(self.pairing) // 2

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Chords as sorted 1-based position pairs, ordered by first foot."""
        seen = []
        for i, j in enumerate(self.pairing):
            if i < j:
                seen.append((i + 1, j + 1))
        return tuple(seen)

    @cached_property
    def chord_at(self) -> tuple[int, ...]:
        """Index in :meth:`pairs` of the chord at each 0-based position.

        Labeling chord ``c`` with ``perm[c]`` gives the word
        ``tuple(perm[c] for c in chord_at)``.
        """
        chord_at = [0] * len(self.pairing)
        for idx, (p, q) in enumerate(self.pairs()):
            chord_at[p - 1] = chord_at[q - 1] = idx
        return tuple(chord_at)

    @cached_property
    def crossings(self) -> tuple[tuple[int, int], ...]:
        """First feet (0-based) of each interleaving chord pair, earlier chord first."""
        pairs = self.pairs()
        return tuple(
            (pa - 1, pb - 1)
            for a, (pa, qa) in enumerate(pairs)
            for pb, qb in pairs[a + 1:]
            if pb < qa < qb
        )


@dataclass(frozen=True)
class SurfaceStats:
    """Abstract surface data realized by a code."""

    bands: int
    euler: int
    boundary: int
    genus: int


def _tokens(text: str, what: str) -> list[str]:
    """Comma/whitespace separated ASCII digit strings, parentheses optional.

    ``isdigit`` alone admits superscripts, which ``int`` rejects.
    """
    stripped = text.strip()
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    tokens = [t for t in _TOKEN_SPLIT.split(stripped) if t]
    if not tokens:
        raise EmptyInput(f"no tokens in {what} text")
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit()):
            raise MalformedCode(f"token {_excerpt(tok)} is not a positive integer")
    return tokens


def parse_code(text: str) -> FlatBasketCode:
    """Parse a basket code from comma/whitespace separated positive integers.

    Optional surrounding parentheses are accepted, so table syntax such as
    ``(1,2,3,4,1,2,3,4)`` parses directly.
    """
    word = []
    for tok in _tokens(text, "code"):
        try:
            label = int(tok)
        except ValueError as exc:  # longer than Python's int-conversion limit
            raise MalformedCode(f"token of {len(tok)} digits is too long") from exc
        if label == 0:
            raise MalformedCode(f"token {_excerpt(tok)} is not a positive integer")
        word.append(label)
    return FlatBasketCode(tuple(word))


def parse_matching(text: str) -> UnderlyingDiagram:
    """Parse a chord diagram given as a paired word, e.g. ``1,2,1,2``.

    Tokens are arbitrary digit strings; each must occur exactly twice.
    Equal tokens mark the two feet of one chord.
    """
    tokens = _tokens(text, "matching")
    counts = Counter(tokens)
    bad = sorted(t for t, c in counts.items() if c != 2)
    if bad:
        listed = _excerpt(",".join(bad))
        raise MalformedCode(
            f"{len(bad)} matching tokens do not occur exactly twice: {listed}"
        )
    label: dict[str, int] = {}
    for tok in tokens:
        label.setdefault(tok, len(label) + 1)
    return underlying(FlatBasketCode(tuple(label[tok] for tok in tokens)))


def underlying(code: FlatBasketCode) -> UnderlyingDiagram:
    """Forget the labels of a code, keeping the foot pairing."""
    pairing = [0] * len(code.word)
    for p, q in code.foot_positions.values():
        pairing[p - 1] = q - 1
        pairing[q - 1] = p - 1
    return UnderlyingDiagram(tuple(pairing))


def boundary_components(diagram: UnderlyingDiagram) -> int:
    """Boundary component count of the surface realizing ``diagram``.

    Equals the number of cycles of successor-after-partner on the 2n feet:
    walking along a band edge and then along the disk boundary to the next
    foot traces out one boundary component per cycle.
    """
    return _boundary_cycles(diagram.pairing)


def _boundary_cycles(pairing) -> int:
    """:func:`boundary_components` of the raw pairing sequence, for callers
    that walk a pairing before (or without) building its diagram."""
    m = len(pairing)
    seen = [False] * m
    cycles = 0
    for start in range(m):
        if seen[start]:
            continue
        cycles += 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = (pairing[i] + 1) % m
    return cycles


def surface_genus(bands: int, boundary: int) -> int:
    """Genus of a disk plus ``bands`` bands with ``boundary`` components."""
    genus2 = 2 - boundary - (1 - bands)
    # 2 - b - chi is even for orientable surfaces; this can only trip on a bug.
    if genus2 % 2 or genus2 < 0:
        raise InvariantViolation(f"{bands} bands, {boundary} boundaries: 2g = {genus2}")
    return genus2 // 2


def surface_stats(code: FlatBasketCode) -> SurfaceStats:
    """Euler characteristic, boundary count and genus of the code's surface."""
    n = code.n
    b = boundary_components(underlying(code))
    return SurfaceStats(bands=n, euler=1 - n, boundary=b, genus=surface_genus(n, b))


def canonical_word(word: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least rotation of ``word``: one of those starting
    at an occurrence of the least letter."""
    m = len(word)
    low = min(word)
    doubled = word + word
    return min(doubled[k:k + m] for k in range(m) if word[k] == low)


def canonicalize(code: FlatBasketCode) -> FlatBasketCode:
    """Lexicographically least rotation of the word; labels untouched.

    Rotating the basepoint on the disk boundary does not change the surface,
    so this is a total representative of the rotation class.  Idempotent.
    """
    best = canonical_word(code.word)
    return code if best == code.word else FlatBasketCode(best)


def relabel(code: FlatBasketCode, perm) -> FlatBasketCode:
    """Apply a page relabeling and return the canonical rotation.

    ``perm`` is a sequence of length n sending label i to ``perm[i-1]``.
    Relabeling may change the link (labels are page order) but keeps the
    drawn chord diagram: the result's pairing equals the input's up to the
    canonical basepoint rotation.
    """
    mapping = tuple(perm)
    if sorted(mapping) != list(range(1, code.n + 1)):
        raise InvalidPermutation(f"{_shown(mapping)} is not a permutation of 1..{code.n}")
    word = tuple(mapping[x - 1] for x in code.word)
    return canonicalize(FlatBasketCode(word))
