"""Seifert matrices of flat plumbing baskets, read directly off the code.

The homology basis is one cycle per band: the band core from its first foot
to its second, closed up by the disk chord running back.  For a pair of
bands i < j the four feet appear around the disk in one of six orders, and
the linking number of the pushed-off cycles depends only on that order:

    i j i j  ->  v[j][i] = -1        (chords interleave, i first)
    j i j i  ->  v[j][i] = +1        (chords interleave, j first)
    all nested or disjoint orders -> 0

and v[i][j] = 0 whenever i <= j, so the matrix is strictly lower triangular
with entries in {-1, 0, 1}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import FlatBasketCode

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


def seifert_matrix(code: FlatBasketCode) -> SeifertMatrix:
    """Seifert matrix of the basket presented by ``code``."""
    n = code.n
    feet = code.foot_positions
    rows = [[0] * n for _ in range(n)]
    for j in range(2, n + 1):
        pj, qj = feet[j]
        for i in range(1, j):
            pi, qi = feet[i]
            inside = (pi < pj < qi) + (pi < qj < qi)
            if inside == 1:  # chords cross
                rows[j - 1][i - 1] = -1 if pi < pj else 1
    return SeifertMatrix(tuple(tuple(r) for r in rows))


def symmetrized(matrix: SeifertMatrix) -> tuple[tuple[int, ...], ...]:
    """V + V^T, the symmetric pairing used for the signature."""
    n = matrix.n
    rows = matrix.rows
    return tuple(
        tuple(rows[i][j] + rows[j][i] for j in range(n)) for i in range(n)
    )
