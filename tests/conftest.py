"""Shared fixtures and independent test oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest

from flatbasket import FlatBasketCode, boundary_components, parse_code, underlying
from flatbasket.pushdown import RectilinearDiagram, flatten_trace, push_down
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


def fraction_pencil_det(matrix: SeifertMatrix) -> tuple[int, ...]:
    """det(V - t V^T) from exact ``Fraction`` eliminations of the integer
    matrices V - x V^T at x = 0..n, then Newton interpolation through those
    n + 1 values; every coefficient must come out an integer."""
    rows, n = matrix.rows, matrix.n
    values = [
        _fraction_det([[Fraction(rows[i][j] - x * rows[j][i]) for j in range(n)] for i in range(n)])
        for x in range(n + 1)
    ]
    # divided differences on the nodes 0..n, whose gaps at level k are k
    newton = values[:]
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            newton[i] = (newton[i] - newton[i - 1]) / level
    # Horner on the Newton form: p = newton[i] + (t - i) * p, from i = n down
    poly = [newton[n]]
    for i in range(n - 1, -1, -1):
        shifted = [Fraction(0)] + poly
        for k, c in enumerate(poly):
            shifted[k] -= i * c
        shifted[0] += newton[i]
        poly = shifted
    assert all(c.denominator == 1 for c in poly)
    return poly_trim([int(c) for c in poly])


def _fraction_det(a: list[list[Fraction]]) -> Fraction:
    """Gaussian elimination over Q, on the first nonzero entry of each
    column; ``a`` is consumed."""
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        pivot = a[c][c]
        det *= pivot
        for r in range(c + 1, n):
            f = a[r][c] / pivot
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


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

    Each public push-down must make its new feet at the reported interval's
    ends, flanked by its connector's (the local foot pattern connector,
    left piece, right piece, connector), and the replay must end on the
    reported final diagram, which reads off the reported code with no
    further push-down.  Every reported coordinate must be a ``Fraction``,
    and the final diagram is converted only when it is first read.
    """
    result = flatten_trace(diagram)
    assert "final" not in vars(result)
    current = diagram
    for step in result.steps:
        pushed = push_down(current, step.height)
        connector = pushed.connectors[-1]
        new_feet = sorted(diagram_feet(pushed) - diagram_feet(current))
        assert new_feet == [connector.left, *step.interval, connector.right]
        current = pushed
    assert current.bands == result.final.bands
    assert current.connectors == result.final.connectors
    assert result.final is result.final
    again = flatten_trace(current)
    assert again.steps == () and again.code == result.code
    values = [step.height for step in result.steps]
    values += [v for step in result.steps for v in step.interval]
    values += [v for band in result.final.bands for vertex in band for v in vertex]
    values += [v for c in result.final.connectors for v in (c.left, c.right)]
    assert all(type(v) is Fraction for v in values)
    return result


# ---------------------------------------------------------------------------
# diagram helpers
# ---------------------------------------------------------------------------

def diagram_feet(diagram: RectilinearDiagram) -> set:
    """The foot columns of every band and connector."""
    feet = {x for band in diagram.bands for x in (band[0][0], band[-1][0])}
    return feet | {x for c in diagram.connectors for x in (c.left, c.right)}


def diagram_boundary_components(diagram: RectilinearDiagram) -> int:
    """Boundary components of the realized surface, from the code that
    labels each foot, in baseline order, by its band or connector: only the
    foot pairing matters."""
    owners = [(x, i) for i, band in enumerate(diagram.bands) for x in (band[0][0], band[-1][0])]
    owners += [
        (x, len(diagram.bands) + i)
        for i, c in enumerate(diagram.connectors)
        for x in (c.left, c.right)
    ]
    word = tuple(owner + 1 for _, owner in sorted(owners))
    return boundary_components(underlying(FlatBasketCode(word)))


def code_to_flat_diagram(code: FlatBasketCode) -> RectilinearDiagram:
    """Flat diagram realizing a code: one arch per band, height = page."""
    bands = []
    for label in range(1, code.n + 1):
        p, q = code.foot_positions[label]
        bands.append(((p, 0), (p, label), (q, label), (q, 0)))
    return RectilinearDiagram(tuple(bands))


def rotated(code: FlatBasketCode, k: int) -> FlatBasketCode:
    """Cyclic rotation moving position k + 1 to the front (basepoint shift)."""
    k %= len(code.word)
    return FlatBasketCode(code.word[k:] + code.word[:k])


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
def z_t_steps(monkeypatch) -> list[tuple[str, object]]:
    """Record the steps of the Z[t] elimination of ``fraction_free``: a
    Laurent step on t^k as ``("unit", 0)`` for k = 0 and ``("shift", k)``
    for k >= 1, a packed step as ``("packed", divides)``, divides being
    False exactly when prev is [1], and each checked division of an entry
    by t^d, d >= 1, as ``("drop", d)``: the division of ad - bc by a
    negative final power of t, or of a row brought to the leading minor's
    power at the switch to packed steps."""
    from flatbasket import invariants

    steps = []
    laurent, packed, shift = invariants._laurent_step, invariants._packed_step, invariants._shift_t

    def on_laurent(rows, rk, q, k, shifts):
        steps.append(("shift", k) if k else ("unit", 0))
        return laurent(rows, rk, q, k, shifts)

    def on_packed(rows, rk, q, pivot, prev):
        steps.append(("packed", prev != [1]))
        packed(rows, rk, q, pivot, prev)

    def on_shift(entry, e):
        if e < 0:
            steps.append(("drop", -e))
        return shift(entry, e)

    monkeypatch.setattr(invariants, "_laurent_step", on_laurent)
    monkeypatch.setattr(invariants, "_packed_step", on_packed)
    monkeypatch.setattr(invariants, "_shift_t", on_shift)
    return steps


def drops(steps) -> bool:
    """Whether the recorded Z[t] elimination (:func:`z_t_steps`) divided an
    entry by a power of t, so its dropped coefficients were checked."""
    return any(kind == "drop" for kind, _ in steps)


# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def trefoil_code():
    return parse_code("1,2,3,4,1,2,3,4")


@pytest.fixture(scope="session")
def figure_eight_code():
    return parse_code("1,2,4,3,1,2,4,3")
