"""Seifert matrices of flat plumbing baskets, read directly off the code.

The homology basis is one cycle per band: the band core from its first foot
to its second, closed up by the disk chord running back.  For a pair of
bands i < j the four feet appear around the disk in one of six orders, and
the linking number of the pushed-off cycles depends only on that order:

    i j i j  ->  v[j][i] = -1        (chords interleave, i first)
    j i j i  ->  v[j][i] = +1        (chords interleave, j first)
    i i j j, j j i i  ->  0          (disjoint chords)
    i j j i, j i i j  ->  0          (nested chords)

and v[i][j] = 0 whenever i <= j, so the matrix is strictly lower triangular
with entries in {-1, 0, 1}.  Only interleaving pairs count, so the rule reads
the matching's crossings (:attr:`UnderlyingDiagram.crossings`), and the
labels orient each one.  That orientation, the key of the labeling, is all
the rule reads of the labels, so the searches over the labelings of one
matching build one chord-order pencil V_c - x V_c^T per key
(:func:`_key_pencil`) and never the labeled rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .codes import FlatBasketCode, UnderlyingDiagram, underlying

__all__ = ["SeifertMatrix", "seifert_matrix", "symmetrized", "format_rows"]


@dataclass(frozen=True)
class SeifertMatrix:
    """Dense strictly lower triangular integer matrix, 0-based rows."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    def __str__(self) -> str:
        return format_rows(self.rows)


def format_rows(rows: tuple[tuple[int, ...], ...]) -> str:
    """Integer matrix rows, right-aligned to a common width."""
    width = max((len(str(x)) for row in rows for x in row), default=1)
    return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in rows)


def _key_pencil(n: int, edges, key, x: int) -> list[list[int]]:
    """The rows of V - x V^T for the n x n matrix V that the six-case rule
    gives crossing chords (a, b) of ``edges``, a's first foot earlier, whose
    ``key`` bit says whether a's label is the smaller: v[b][a] = -1 when it
    is, else v[a][b] = +1.  At x = 0 the rows are V itself.

    With a and b the chords' labels less one, V is the labeled Seifert matrix
    (:func:`seifert_matrix`).  With a and b the chords' indices in
    :meth:`UnderlyingDiagram.pairs`, V is the chord-order matrix V_c of the
    key, and the labeled V of every labeling with that key is P^T V_c P for
    its permutation matrix P, so the pencil determinant, det(V + V^T) and
    the signature are the same from V_c."""
    rows = [[0] * n for _ in range(n)]
    for (a, b), smaller_first in zip(edges, key):
        if smaller_first:
            rows[b][a] = -1
            rows[a][b] = x
        else:
            rows[a][b] = 1
            rows[b][a] = -x
    return rows


def _orientation_key(word: tuple[int, ...], crossings) -> tuple[bool, ...]:
    """The orientation a labeling gives each crossing chord pair: whether the
    chord whose first foot is earlier has the smaller label.  The rule above
    reads the labeling only through this key."""
    return tuple(word[pa] < word[pb] for pa, pb in crossings)


def _per_orientation_key(words, matching: UnderlyingDiagram, compute):
    """Each labeled word of the matching with ``compute(word, pencil)``,
    where ``pencil(x)`` gives the rows of V_c - x V_c^T for the chord-order
    matrix V_c of the word's orientation key (:func:`_key_pencil`): one call
    per key, made for the first word with that key, so ``compute`` must read
    the labeling only through the key."""
    crossings = matching.crossings
    chord_at = matching.chord_at
    edges = [(chord_at[pa], chord_at[pb]) for pa, pb in crossings]
    values = {}
    for word in words:
        key = _orientation_key(word, crossings)
        if key not in values:
            values[key] = compute(word, partial(_key_pencil, matching.n, edges, key))
        yield word, values[key]


def seifert_matrix(code: FlatBasketCode) -> SeifertMatrix:
    """Seifert matrix of the basket presented by ``code``."""
    word = code.word
    crossings = underlying(code).crossings
    edges = [(word[pa] - 1, word[pb] - 1) for pa, pb in crossings]
    rows = _key_pencil(code.n, edges, _orientation_key(word, crossings), 0)
    return SeifertMatrix(tuple(map(tuple, rows)))


def symmetrized(matrix: SeifertMatrix) -> tuple[tuple[int, ...], ...]:
    """V + V^T, the symmetric pairing used for the signature."""
    return tuple(map(tuple, _symmetrized_rows(matrix.rows)))


def _symmetrized_rows(rows) -> list[list[int]]:
    """V + V^T for the square integer matrix rows V, as fresh mutable rows."""
    n = len(rows)
    return [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
