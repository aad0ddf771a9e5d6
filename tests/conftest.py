"""Shared fixtures and independent test oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest

from flatbasket import FlatBasketCode, parse_code
from flatbasket.pushdown import flatten_trace, push_down, read_off_code
from flatbasket.seifert import SeifertMatrix


# ---------------------------------------------------------------------------
# independent oracles (deliberately naive; never reuse the library's
# elimination or interpolation paths)
# ---------------------------------------------------------------------------

def poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def poly_add(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def poly_trim(a: list[int]) -> tuple[int, ...]:
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def leibniz_pencil_det(matrix: SeifertMatrix) -> tuple[int, ...]:
    """Permutation-expansion determinant of V - t V^T, as coefficients."""
    rows = matrix.rows
    n = matrix.n
    pencil = [
        [[rows[i][j], -rows[j][i]] for j in range(n)] for i in range(n)
    ]
    total: list[int] = []
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        term = [sign]
        for i in range(n):
            term = poly_mul(term, pencil[i][perm[i]])
            if not term:
                break
        total = poly_add(total, term)
    return poly_trim(total)


def leibniz_det(rows) -> int:
    """Permutation-expansion determinant of a square integer matrix."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = _perm_sign(perm)
        for i in range(n):
            term *= rows[i][perm[i]]
            if not term:
                break
        total += term
    return total


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def replay_flatten(diagram):
    """``flatten_trace``, which runs on a scaled integer grid, replayed step
    by step through public ``push_down`` in ``Fraction`` coordinates.

    Each step's interval must be the default site the public surgery picks
    (pushing it explicitly gives the same diagram), and the replay must end
    on the reported final diagram and code.  Every reported coordinate must
    be a ``Fraction``.
    """
    result = flatten_trace(diagram)
    current = diagram
    for step in result.steps:
        pushed = push_down(current, step.height)
        assert push_down(current, step.height, step.interval) == pushed
        current = pushed
    assert current.bands == result.final.bands
    assert current.connectors == result.final.connectors
    assert read_off_code(current) == result.code
    values = [step.height for step in result.steps]
    values += [v for step in result.steps for v in step.interval]
    values += [v for band in result.final.bands for vertex in band for v in vertex]
    values += [v for c in result.final.connectors for v in (c.left, c.right)]
    assert all(type(v) is Fraction for v in values)
    return result


def random_code(rng: random.Random, n: int) -> FlatBasketCode:
    word = [label for label in range(1, n + 1) for _ in range(2)]
    rng.shuffle(word)
    return FlatBasketCode(tuple(word))


def all_codes(n: int):
    """Every word with labels 1..n twice (not just canonical ones)."""
    base = tuple(label for label in range(1, n + 1) for _ in range(2))
    seen = set()
    for perm in permutations(base):
        if perm not in seen:
            seen.add(perm)
            yield FlatBasketCode(perm)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def trefoil_code():
    return parse_code("1,2,3,4,1,2,3,4")


@pytest.fixture(scope="session")
def figure_eight_code():
    return parse_code("1,2,4,3,1,2,4,3")
