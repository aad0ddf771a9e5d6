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
labels orient each one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import FlatBasketCode, underlying

__all__ = ["SeifertMatrix", "seifert_matrix", "symmetrized", "format_rows"]


@dataclass(frozen=True)
class SeifertMatrix:
    """Dense strictly lower triangular integer matrix, 0-based rows."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        """1-based access matching the usual v_{i,j} notation."""
        return self.rows[i - 1][j - 1]

    def __str__(self) -> str:
        return format_rows(self.rows)


def format_rows(rows: tuple[tuple[int, ...], ...]) -> str:
    """Integer matrix rows, right-aligned to a common width."""
    width = max((len(str(x)) for row in rows for x in row), default=1)
    return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in rows)


def _seifert_rows(word: tuple[int, ...], crossings) -> list[list[int]]:
    """The six-case rule on one labeling of a matching with these crossings:
    crossing chords labeled x (first foot earlier) and y give v[y][x] = -1
    when x < y and v[x][y] = +1 otherwise."""
    n = len(word) // 2
    rows = [[0] * n for _ in range(n)]
    for pa, pb in crossings:
        x, y = word[pa], word[pb]
        if x < y:
            rows[y - 1][x - 1] = -1
        else:
            rows[x - 1][y - 1] = 1
    return rows


def seifert_matrix(code: FlatBasketCode) -> SeifertMatrix:
    """Seifert matrix of the basket presented by ``code``."""
    rows = _seifert_rows(code.word, underlying(code).crossings)
    return SeifertMatrix(tuple(map(tuple, rows)))


def symmetrized(matrix: SeifertMatrix) -> tuple[tuple[int, ...], ...]:
    """V + V^T, the symmetric pairing used for the signature."""
    n = matrix.n
    rows = matrix.rows
    return tuple(
        tuple(rows[i][j] + rows[j][i] for j in range(n)) for i in range(n)
    )
