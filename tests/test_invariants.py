"""Exact polynomials, determinants, and the derived knot invariants.

The determinant oracle is a naive permutation expansion (conftest), computed
independently of the elimination and evaluation code under test.
"""

import random
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatbasket import (
    IntPolynomial,
    alexander,
    arf,
    knot_determinant,
    normalize_alexander,
    parse_code,
    parse_polynomial,
    pencil_determinant,
    seifert_matrix,
    signature,
    surface_stats,
)
from flatbasket import invariants
from flatbasket.codes import underlying
from flatbasket.errors import InvariantViolation, MalformedCode, NotAKnot
from flatbasket.invariants import MAX_EXPONENT, determinant_from_alexander
from flatbasket.pushdown import diagram_seifert_matrix, parse_diagram
from flatbasket.search import enumerate_codes, enumerate_matchings
from flatbasket.seifert import SeifertMatrix, symmetrized
from flatbasket.tables import load_table
from conftest import (
    all_codes,
    fraction_pencil_det,
    leibniz_det,
    leibniz_pencil_det,
    drops,
    random_code,
    rotated,
    z_t_steps,
)


# ---------------------------------------------------------------------------
# IntPolynomial basics
# ---------------------------------------------------------------------------

def test_polynomial_trimming_and_degree():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPolynomial(()).degree is None
    assert IntPolynomial((0, 0)).is_zero


def test_polynomial_trimming_is_linear():
    # one slice at the last nonzero coefficient, not one slice per zero
    assert IntPolynomial((1,) + (0,) * 200_000).coeffs == (1,)
    assert IntPolynomial((0,) * 200_000).is_zero


def test_polynomial_arithmetic():
    a = IntPolynomial((1, 1))        # 1 + t
    b = IntPolynomial((-1, 1))       # -1 + t
    assert (a * b).coeffs == (-1, 0, 1)
    assert (a + b).coeffs == (0, 2)
    assert (a - b).coeffs == (2,)
    assert (-a).coeffs == (-1, -1)
    assert (a * b).exact_div(a) == b
    assert a.evaluate(3) == 4
    assert IntPolynomial((0, 1, -1, 1)).shifted(-1).coeffs == (1, -1, 1)


def test_polynomial_exact_division_rejects_inexact():
    with pytest.raises(ArithmeticError):
        IntPolynomial((1, 1)).exact_div(IntPolynomial((2,)))
    with pytest.raises(ArithmeticError):
        IntPolynomial((1, 0, 1)).exact_div(IntPolynomial((1, 1)))
    # a multi-term divisor whose top coefficient leaves a remainder
    with pytest.raises(ArithmeticError):
        IntPolynomial((1, 1)).exact_div(IntPolynomial((1, 2)))


def test_polynomial_str():
    assert str(IntPolynomial((1, -1, 1))) == "t^2 - t + 1"
    assert str(IntPolynomial((2, -3, 2))) == "2t^2 - 3t + 2"
    assert str(IntPolynomial((0, 1))) == "t"
    assert str(IntPolynomial((0, 1, -1, 1))) == "t^3 - t^2 + t"
    assert str(IntPolynomial(())) == "0"
    assert str(IntPolynomial((-1, 1))) == "t - 1"


def test_parse_polynomial_round_trip():
    for coeffs in ((1, -1, 1), (2, -3, 2), (0, 1), (-1, 0, 0, 5), (7,)):
        p = IntPolynomial(coeffs)
        assert parse_polynomial(str(p)) == p
    assert parse_polynomial("1,-3,1") == IntPolynomial((1, -3, 1))
    assert parse_polynomial("t^4-2t^3+3t^2-2t+1") == IntPolynomial((1, -2, 3, -2, 1))
    with pytest.raises(MalformedCode):
        parse_polynomial("t^2 % 3")


def test_parse_polynomial_bounds_exponents_and_digits():
    top = parse_polynomial(f"t^{MAX_EXPONENT} + 1")
    assert top.degree == MAX_EXPONENT and top.coeffs[0] == 1
    with pytest.raises(MalformedCode, match="exceeds"):
        parse_polynomial(f"t^{MAX_EXPONENT + 1} + 1")
    for text in (f"t^{'9' * 5000}", f"{'9' * 5000}t - 1", f"1,{'9' * 5000}"):
        with pytest.raises(MalformedCode):
            parse_polynomial(text)
    # only ASCII digits: int() and \d also read other scripts' digits and "_"
    for text in ("\u0661,\u0662", "t^\u0662 - t + \u0661", "1_0,2", "t^1_0", "1_0t + 1"):
        with pytest.raises(MalformedCode):
            parse_polynomial(text)
    assert parse_polynomial("+3,-1") == IntPolynomial((3, -1))


def test_parse_polynomial_caps_coefficient_lists():
    # the same degree cap as a t^k term: at most MAX_EXPONENT + 1 coefficients
    top = parse_polynomial(",".join(["0"] * MAX_EXPONENT + ["1"]))
    assert top.degree == MAX_EXPONENT
    assert parse_polynomial("1," + "0," * (MAX_EXPONENT - 1) + "0").coeffs == (1,)
    for text in ("1," + "0," * MAX_EXPONENT + "0", "1 " * 40_000):
        with pytest.raises(MalformedCode, match=f"more than {MAX_EXPONENT + 1} coefficients"):
            parse_polynomial(text)


# ---------------------------------------------------------------------------
# pencil determinants, oracle-checked
# ---------------------------------------------------------------------------

def test_pencil_examples_by_hand():
    v = SeifertMatrix(((0, 0), (-1, 0)))
    assert pencil_determinant(v).coeffs == (0, 1)  # = t
    zero = SeifertMatrix(((0, 0), (0, 0)))
    assert pencil_determinant(zero).is_zero


def test_pencil_trefoil_raw(trefoil_code):
    raw = pencil_determinant(seifert_matrix(trefoil_code))
    assert raw.coeffs == (0, 1, -1, 1)  # t^3 - t^2 + t


def test_both_methods_match_leibniz_exhaustive_small():
    for n in (1, 2, 3, 4):
        for code in all_codes(n):
            v = seifert_matrix(code)
            expected = leibniz_pencil_det(v)
            assert pencil_determinant(v, "fraction_free").coeffs == expected
            assert pencil_determinant(v, "eval_interp").coeffs == expected


def test_methods_agree_random():
    rng = random.Random(123)
    for _ in range(200):
        code = random_code(rng, rng.randint(1, 8))
        v = seifert_matrix(code)
        assert (
            pencil_determinant(v, "fraction_free")
            == pencil_determinant(v, "eval_interp")
        )


def _hadamard_square(rows) -> int:
    """prod_i sum_j (|v_ij| + |v_ji|)^2, the square of the Hadamard bound on
    |det(V - t V^T)| over |t| = 1, hence on every coefficient."""
    h = 1
    for i in range(len(rows)):
        h *= sum((abs(rows[i][j]) + abs(rows[j][i])) ** 2 for j in range(len(rows)))
    return h


def _methods_agree(matrices) -> int:
    """Both pencil methods agree, and no coefficient exceeds the bound."""
    count = 0
    for v in matrices:
        ff = pencil_determinant(v, "fraction_free")
        assert ff == pencil_determinant(v, "eval_interp"), v
        h = _hadamard_square(v.rows)
        assert h == invariants._hadamard_square(v.rows)
        assert max((c * c for c in ff.coeffs), default=0) <= h, v
        count += 1
    return count


def test_methods_agree_on_every_canonical_code_up_to_five_bands():
    matrices = (
        seifert_matrix(code)
        for n in range(1, 6)
        for matching in enumerate_matchings(n)
        for code in enumerate_codes(matching)
    )
    assert _methods_agree(matrices) == 1 + 2 + 16 + 318 + 11352


def test_methods_agree_on_table_codes_and_corpus_diagrams():
    assert _methods_agree(seifert_matrix(record.code) for record in load_table()) == 84
    root = resources.files("flatbasket") / "data" / "diagrams"
    diagrams = [parse_diagram(path.read_text()) for path in root.iterdir()]
    assert len(diagrams) >= 20
    assert _methods_agree(
        SeifertMatrix(diagram_seifert_matrix(d)) for d in diagrams
    ) == len(diagrams)


def _seeded_24_band_knots() -> list:
    rng = random.Random(24)
    codes = []
    while len(codes) < 10:
        code = random_code(rng, 24)
        if surface_stats(code).boundary == 1:
            codes.append(code)
    return codes


def test_methods_agree_on_seeded_24_band_knots():
    codes = _seeded_24_band_knots()
    assert _methods_agree(seifert_matrix(code) for code in codes) == 10


def test_fraction_free_fill_on_seeded_24_band_knots(monkeypatch):
    # Laurent steps on monomial pivots from the sparsest rows above
    # _SPARSE_UNIT_ROWS rows: the blocks of the ten pencils hold 48,112
    # coefficients over all steps (55,735 with Bareiss steps on the same
    # kind of pivots, which keep every common power of t); the first row
    # with a monomial, and no strip after a unit step, at every size makes
    # them hold 66,462; the count does not depend on how products and
    # quotients are computed
    fill = []
    real = invariants._pivot

    def measuring(rows, laurent):
        fill.append(sum(len(e) for row in rows for e in row))
        return real(rows, laurent)

    monkeypatch.setattr(invariants, "_pivot", measuring)
    for code in _seeded_24_band_knots():
        pencil_determinant(seifert_matrix(code), "fraction_free")
    assert sum(fill) <= 48_112, sum(fill)


def _is_monomial(e) -> bool:
    return bool(e) and e[-1] in (1, -1) and not any(e[:-1])


def _brute_force_pivot(rows, laurent):
    """The pivot rule of ``invariants._pivot`` (monomials only when
    ``laurent``), by a scan of every entry."""
    entries = [(i, j, e) for i, row in enumerate(rows) for j, e in enumerate(row) if e]
    monomials = [(i, j, e) for i, j, e in entries if _is_monomial(e)]
    if not laurent:
        return min((len(e), abs(e[-1]), (i, j)) for i, j, e in entries)[2] if entries else None
    if not monomials:
        return None
    length = min(len(e) for _, _, e in monomials)
    units = [u for u in monomials if len(u[2]) == length]
    if len(rows) > invariants._SPARSE_UNIT_ROWS:
        nonzeros = [sum(1 for e in row if e) for row in rows]
        units.sort(key=lambda u: nonzeros[u[0]])
    p = units[0][0]
    return min((e[-1] != 1, j, (p, j)) for i, j, e in units if i == p)[2]


def test_pivot_rule_at_every_step(monkeypatch):
    # the shipped rule picks the pivot that a scan of the whole block picks,
    # at every step; on the 24-band knots the sparsest row's monomial often
    # is not the first one of its exponent, so the test sees the rule at work
    steps = []
    real = invariants._pivot

    def checking(rows, laurent):
        expected = _brute_force_pivot(rows, laurent)
        got = real(rows, laurent)
        assert got == expected, (len(rows), laurent, got, expected)
        if got is None:
            steps.append((len(rows), laurent, 0, False, False))
        else:
            e = rows[got[0]][got[1]]
            steps.append((len(rows), laurent, len(e), _is_monomial(e), got != _first_of(rows, e)))
        return got

    def _first_of(rows, e):
        same = (e, [-c for c in e])
        return next((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x in same)

    monkeypatch.setattr(invariants, "_pivot", checking)
    rng = random.Random(14)
    matrices = [seifert_matrix(code) for code in _seeded_24_band_knots()[:3]]
    matrices += [
        SeifertMatrix(tuple(tuple(rng.choice((0, 0, 1, -1, 2)) for _ in range(n)) for _ in range(n)))
        for n in range(2, 8)
        for _ in range(30)
    ]
    for v in matrices:
        steps.clear()
        det = pencil_determinant(v, "fraction_free")
        assert det == pencil_determinant(v, "eval_interp")
        # the last 2x2 block after Laurent steps is finished as ad - bc, and
        # the switch to packed steps looks for a pivot once more
        pivots = sum(length > 0 for _, _, length, _, _ in steps)
        assert det.is_zero or v.n - 2 <= pivots <= v.n - 1
    steps.clear()
    for code in _seeded_24_band_knots():
        pencil_determinant(seifert_matrix(code), "fraction_free")
    sparse = invariants._SPARSE_UNIT_ROWS
    assert any(n > sparse and moved for n, _, _, _, moved in steps)
    # every tier is reached: a +-1, a +-t^k with k >= 1 while no +-1 is
    # left, a block with no monomial, and the pivots of packed steps
    assert any(laurent and length == 1 and mono for _, laurent, length, mono, _ in steps)
    assert any(laurent and length > 1 and mono for _, laurent, length, mono, _ in steps)
    assert any(laurent and not length for _, laurent, length, _, _ in steps)
    assert any(not laurent and length for _, laurent, length, _, _ in steps)


def test_pivot_tiers_and_ties():
    # a unit beats a shorter-led constant; in a small block the first row
    # with a unit wins, and in it a [1] before a [-1]
    pencil = [[[2], [], []], [[], [-1], [1]], [[], [1], [1]]]
    assert invariants._pivot(pencil, True) == (1, 2)
    # without monomials the Laurent tier finds nothing; the other rule
    # takes the shortest entries, then the least |leading coefficient|, the
    # first among equals, so a -1 ties with a 1
    pencil = [[[1, 1], [], []], [[], [-5], [3]], [[], [7], []]]
    assert invariants._pivot(pencil, True) is None
    assert invariants._pivot(pencil, False) == (1, 2)
    pencil = [[[-1], [1]], [[2], [3]]]
    assert invariants._pivot(pencil, True) == (0, 1)
    assert invariants._pivot(pencil, False) == (0, 0)
    assert invariants._pivot([[[], []], [[], []]], True) is None
    assert invariants._pivot([[[], []], [[], []]], False) is None
    # the +-t^k of least k: a +-1 before a +-t and a +-t^2
    pencil = [[[0, 1], [1]], [[0, 0, -1], [2]]]
    assert invariants._pivot(pencil, True) == (0, 1)
    # else the +-t^k of least k, before a shorter non-monomial entry
    pencil = [[[0, 0, 0, 1], [2]], [[0, -1], [0, 0, 1]]]
    assert invariants._pivot(pencil, True) == (1, 0)
    assert invariants._pivot(pencil, False) == (0, 1)
    # +t^k before -t^k in the pivot's row; monomials with a zero low
    # coefficient only: t + t^2 is not one
    pencil = [[[0, -1], [0, 1]], [[0, 1, 1], [3]]]
    assert invariants._pivot(pencil, True) == (0, 1)
    pencil = [[[0, 1, 1], [3]], [[4], [0, 2]]]
    assert invariants._pivot(pencil, True) is None
    assert invariants._pivot(pencil, False) == (0, 1)


def test_pivot_takes_a_unit_of_the_sparsest_row():
    # above _SPARSE_UNIT_ROWS rows: in a diagonal block of units with the
    # first row and column full, the unit (0, 0) is first, but every other
    # row is sparser, and the first of those wins
    m = invariants._SPARSE_UNIT_ROWS + 1
    block = [[[1] if i == j else [] for j in range(m)] for i in range(m)]
    for k in range(1, m):
        block[0][k] = block[k][0] = [2, 1]
    assert invariants._pivot(block, True) == (1, 1)
    small = [row[1:] for row in block[1:]]
    small[0][0] = [3]
    assert len(small) == invariants._SPARSE_UNIT_ROWS
    assert invariants._pivot(small, True) == (1, 1)
    # the same for the monomials t^2, the least power in the block
    shifted = [[[0, 0] + e if e else e for e in row] for row in block]
    assert invariants._pivot(shifted, True) == (1, 1)


def _integer_matrices(rng):
    """Random matrices of 1-7 rows with entries in -3..3, each with three
    variants: a zero leading entry and column, a repeated row (singular),
    and every +1 made -1 (only negative unit pivots)."""
    for n in range(1, 8):
        for _ in range(40 if n <= 5 else 6):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            yield rows
            yield [[0] + row[1:] for row in rows]
            yield rows[:-1] + [rows[0]] if n > 1 else [[0]]
            yield [[-1 if x == 1 else x for x in row] for row in rows]


# the empty matrix, 1x1 ones, and matrices with a zero row
_EDGE_MATRICES = (
    [], [[0]], [[1]], [[-3]], [[0, 0], [1, 2]], [[2, 1], [0, 0]],
    [[1, 2, 0], [0, 0, 0], [3, 1, 1]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
)


def _integer_steps(monkeypatch) -> list:
    """Record the steps of ``_det_bareiss_int``: ``("power", k)`` for each
    +-x^k pivot with k >= 1, ``("none", 0)`` for a block with no +-1 and no
    +-x^k left, ``("drop", d)`` for each checked division by x^d, d >= 1
    (of ad - bc by a negative final power of x, or of a row brought to the
    leading minor's power at the switch to Bareiss steps), and
    ``("bareiss", |pivot|)`` for each Bareiss step."""
    steps = []
    power, shift, least = invariants._power_position, invariants._shift_x, invariants._least_position

    def on_power(rows, bits):
        found = power(rows, bits)
        steps.append(("none", 0) if found is None else ("power", found[2]))
        return found

    def on_shift(row, e, bits):
        if e < 0:
            steps.append(("drop", -e))
        return shift(row, e, bits)

    def on_least(rows):
        pos = least(rows)
        if pos is not None:
            p, q = pos
            steps.append(("bareiss", abs(rows[p][q])))
        return pos

    monkeypatch.setattr(invariants, "_power_position", on_power)
    monkeypatch.setattr(invariants, "_shift_x", on_shift)
    monkeypatch.setattr(invariants, "_least_position", on_least)
    return steps


def test_integer_bareiss_matches_leibniz(monkeypatch):
    # at x = 2 every +-2^k is a unit, at x = 4 every +-4^k, at x = 8 few
    # are, so Bareiss steps take most of the work; the paths seen: pivots
    # +-x^k with k >= 1, a negative final exponent, a block with no +-x^k
    # left (then Bareiss steps), a Bareiss pivot +-1, a Bareiss pivot equal
    # to the previous one other than 1 (the first Bareiss pivot is never a
    # power of x, so never equal to a prev x^m), and the edge matrices
    steps = _integer_steps(monkeypatch)
    seen = Counter()
    singular = 0
    for bits in (1, 2, 3):
        for rows in (*_integer_matrices(random.Random(19)), *_EDGE_MATRICES):
            expected = leibniz_det(rows)
            steps.clear()
            assert invariants._det_bareiss_int([list(row) for row in rows], bits) == expected, rows
            singular += not expected
            pivots = [v for kind, v in steps if kind == "bareiss"]
            seen["power"] += any(kind == "power" for kind, _ in steps)
            seen["deep"] += any(kind == "power" and k >= 2 for kind, k in steps)
            seen["negative"] += any(kind == "drop" for kind, _ in steps)
            seen["none"] += ("none", 0) in steps
            seen["one"] += 1 in pivots
            seen["same"] += any(a == b != 1 for a, b in zip(pivots, pivots[1:]))
    assert singular >= 600
    assert seen == {
        "power": 344, "deep": 132, "negative": 238, "none": 322, "one": 6, "same": 7
    }, seen


def _count_calls(monkeypatch, name) -> list:
    """Count the calls of ``invariants.<name>``, which still runs."""
    calls = []
    real = getattr(invariants, name)

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(invariants, name, counted)
    return calls


def _laurent_step_matrices() -> list:
    """Seeded random integer matrices of 3-6 rows: the first ten whose Z[t]
    elimination takes each of a Laurent step on t^k with k >= 1, a final
    exponent below zero, and packed steps, which start from prev [1] on a
    block with no monomial."""
    rng = random.Random(23)
    wanted = {"shift": 10, "negative": 10, "from_one": 10}
    out = []
    with pytest.MonkeyPatch.context() as mp:
        steps = z_t_steps(mp)
        while any(wanted.values()):
            n = rng.randint(3, 6)
            rows = [[rng.choice((0, 0, 0, 1, -1, 1, 2)) for _ in range(n)] for _ in range(n)]
            steps.clear()
            pencil_determinant(SeifertMatrix(tuple(map(tuple, rows))), "fraction_free")
            kinds = {
                "shift": any(kind == "shift" for kind, _ in steps),
                "negative": drops(steps),
                "from_one": ("packed", False) in steps,
            }
            kinds = {kind for kind, hit in kinds.items() if hit and wanted[kind]}
            if kinds:
                out.append(rows)
                for kind in kinds:
                    wanted[kind] -= 1
    return out


@pytest.fixture(scope="module")
def leibniz_pencils():
    """Every code up to four bands, the ``_integer_matrices``, the
    ``_laurent_step_matrices`` and the ``_EDGE_MATRICES`` as V, each with its
    Leibniz det(V - t V^T)."""
    matrices = [seifert_matrix(code) for n in (1, 2, 3, 4) for code in all_codes(n)]
    matrices += [
        SeifertMatrix(tuple(map(tuple, rows)))
        for rows in (
            *_integer_matrices(random.Random(19)), *_laurent_step_matrices(), *_EDGE_MATRICES
        )
    ]
    return [(v, leibniz_pencil_det(v)) for v in matrices]


@pytest.mark.parametrize(
    "way", ["shipped", "sparse_rows_everywhere", "fallback_division", "no_monomial_steps"]
)
def test_fraction_free_matches_leibniz_every_path(monkeypatch, leibniz_pencils, way):
    # as shipped, Laurent steps of every kind and packed steps; the other
    # ways take every monomial from the sparsest row and strip the rows of
    # every unit step, send every packed quotient through the fallback
    # division of the unpacked numerator, and make every Laurent step a
    # packed step on the same pivot from prev [1], which multiplies every
    # row left by t^k
    if way == "sparse_rows_everywhere":
        monkeypatch.setattr(invariants, "_SPARSE_UNIT_ROWS", 0)
    if way == "fallback_division":
        monkeypatch.setattr(invariants, "_quotient_limit", lambda bits, prev: -1)
    steps = z_t_steps(monkeypatch)
    if way == "no_monomial_steps":

        def packed(rows, rk, q, k, shifts):
            invariants._packed_step(rows, rk, q, [0] * k + [1], [1])
            shifts[:] = [d + k for d in shifts]
            return k * len(rows)

        monkeypatch.setattr(invariants, "_laurent_step", packed)
    divisions = _count_calls(monkeypatch, "_poly_exact_div")
    seen = Counter()
    for v, expected in leibniz_pencils:
        steps.clear()
        assert pencil_determinant(v, "fraction_free").coeffs == expected, v
        seen.update({kind for kind, _ in steps})
        seen["negative"] += drops(steps)
        seen["from_one"] += ("packed", False) in steps
    assert len(leibniz_pencils) == 2_617 + 848 + 27 + len(_EDGE_MATRICES)
    assert (len(divisions) > 1_000) == (way == "fallback_division")
    if way == "no_monomial_steps":
        assert set(seen) <= {"packed", "negative", "from_one", "drop"} and seen["packed"] > 2_500
    else:
        # determinants that take a +-1 step, a step on t^k with k >= 1, a
        # final exponent below zero, and packed steps from prev [1]
        counts = {
            "shipped": (2_560, 1_272, 89, 435),
            "sparse_rows_everywhere": (2_560, 1_264, 94, 430),
            "fallback_division": (2_560, 1_272, 89, 435),
        }
        kinds = ("unit", "shift", "negative", "from_one")
        assert tuple(seen[kind] for kind in kinds) == counts[way], seen


def _berkowitz_pencil_det(v) -> tuple[int, ...]:
    """det(V - t V^T) by sympy's division-free Berkowitz algorithm."""
    import sympy

    t = sympy.Symbol("t")
    n = v.n
    m = sympy.Matrix(n, n, lambda i, j: v.rows[i][j] - t * v.rows[j][i])
    det = sympy.Poly(m.det(method="berkowitz"), t)
    return tuple(int(c) for c in reversed(det.all_coeffs())) if not det.is_zero else ()


def _seeded_knot(rng, n):
    while True:
        code = random_code(rng, n)
        if surface_stats(code).boundary == 1:
            return code


def test_fraction_free_matches_berkowitz_on_seeded_knots(monkeypatch):
    # the 8-band knot of seed 1252 takes a packed step from prev [1] and one
    # after it, few 8-band knots take any; sympy's Berkowitz grows slow
    # beyond 8 bands, and ``conftest.fraction_pencil_det`` checks the
    # larger knots
    steps = z_t_steps(monkeypatch)
    v = seifert_matrix(_seeded_knot(random.Random(1252), 8))
    assert pencil_determinant(v, "fraction_free").coeffs == _berkowitz_pencil_det(v)
    assert steps.count(("packed", False)) == steps.count(("packed", True)) == 1


def test_fraction_free_matches_the_fraction_oracle_on_seeded_knots(monkeypatch):
    # per knot: packed steps from prev [1] and after it, Laurent steps on
    # t^k with k >= 1, and whether an entry was divided by a power of t
    # with its dropped coefficients checked; the knots of seed 1012 take
    # Laurent steps only, those of seed 29 packed steps too, and the 12-band
    # knot of seed 173 and the 16-band one of seed 8 end with a negative
    # power of t
    steps = z_t_steps(monkeypatch)
    for seed, sizes, expected in (
        (1012, (10, 12, 12), ((0, 0, 0, False), (0, 0, 1, False), (0, 0, 2, False))),
        (29, (16, 20, 24), ((1, 1, 1, False), (1, 4, 1, False), (1, 4, 3, False))),
        (173, (12,), ((1, 2, 2, True),)),
        (8, (16,), ((1, 1, 2, True),)),
    ):
        rng = random.Random(seed)
        for n, want in zip(sizes, expected):
            code = _seeded_knot(rng, n)
            v = seifert_matrix(code)
            steps.clear()
            assert pencil_determinant(v, "fraction_free").coeffs == fraction_pencil_det(v), code
            shifts = sum(kind == "shift" for kind, _ in steps)
            got = (steps.count(("packed", False)), steps.count(("packed", True)), shifts)
            assert got + (drops(steps),) == want, code


def test_fraction_free_is_independent_of_the_integer_kernel(monkeypatch):
    # fraction_free never calls the integer determinant or eval_interp;
    # the checked Delta calls each once
    int_dets = _count_calls(monkeypatch, "_det_bareiss_int")
    evals = _count_calls(monkeypatch, "_pencil_det_eval_interp")
    polys = _count_calls(monkeypatch, "_det_bareiss_poly")
    codes = _seeded_24_band_knots()[:3] + [random_code(random.Random(n), n) for n in range(1, 9)]
    for code in codes:
        pencil_determinant(seifert_matrix(code), "fraction_free")
    assert (len(int_dets), len(evals), len(polys)) == (0, 0, len(codes))
    alexander(codes[0], checked=True)
    assert (len(int_dets), len(evals), len(polys)) == (1, 1, len(codes) + 1)


def test_integer_bareiss_checks_every_division():
    # one product off by one makes a later division inexact: it raises
    # where the unchecked floor division returned 671, 561, ... silently;
    # at x = 8 the block holds no +-x^k, so every step is a Bareiss step
    class OffByOne(int):
        def __mul__(self, other):
            return int(self) * other + 1

        __rmul__ = __mul__

    rows = [[2, 3, 5, 7], [3, 2, 0, 5], [5, 0, 2, 3], [7, 5, 3, 2]]
    assert invariants._det_bareiss_int([list(row) for row in rows], 3) == 644
    for i in range(1, 4):
        for j in range(1, 4):
            faulty = [list(row) for row in rows]
            faulty[i][j] = OffByOne(faulty[i][j])
            with pytest.raises(InvariantViolation, match="inexact integer Bareiss"):
                invariants._det_bareiss_int(faulty, 3)


def test_integer_bareiss_products_on_seeded_24_band_knots(monkeypatch):
    # unit pivots from the sparsest rows, Laurent steps on +-x^k, and
    # updates of only the columns where the pivot row is nonzero: 5,877
    # integer products for the ten pencils at t = 2^B (8,674 with Bareiss
    # steps on +-x^k); the first nonzero of each column took 51,913
    products = []

    class Counted(int):
        def __mul__(self, other):
            products.append(1)
            return Counted(int(self) * int(other))

        __rmul__ = __mul__

        def __sub__(self, other):
            return Counted(int(self) - int(other))

        def __rsub__(self, other):
            return Counted(int(other) - int(self))

        def __neg__(self):
            return Counted(-int(self))

        def __lshift__(self, other):
            return Counted(int(self) << other)

        def __rshift__(self, other):
            return Counted(int(self) >> other)

        def __floordiv__(self, other):
            return Counted(int(self) // int(other))

        def __divmod__(self, other):
            q, r = divmod(int(self), int(other))
            return Counted(q), r

    real = invariants._det_bareiss_int
    monkeypatch.setattr(
        invariants, "_det_bareiss_int",
        lambda rows, bits: real([[Counted(a) for a in row] for row in rows], bits),
    )
    for code in _seeded_24_band_knots():
        pencil_determinant(seifert_matrix(code), "eval_interp")
    assert len(products) <= 5_877, len(products)


def test_z_t_packed_steps_on_seeded_24_band_knots(monkeypatch):
    # Laurent steps on every monomial pivot: 34 packed steps for the ten
    # pencils, as with Bareiss steps on the same kind of pivots, 8 of them
    # from prev [1], the first step on a block with no monomial; with
    # constant units as the only monomial pivots and steps they took 92
    steps = z_t_steps(monkeypatch)
    for code in _seeded_24_band_knots():
        pencil_determinant(seifert_matrix(code), "fraction_free")
    assert steps.count(("packed", False)) <= 8, steps.count(("packed", False))
    assert steps.count(("packed", True)) <= 26, steps.count(("packed", True))


def test_shift_steps_check_every_dropped_coefficient(monkeypatch):
    # a Laurent step on t^2: the row with a_iq = 0 stays, the other becomes
    # (t^2 a - c * b) / t^s for its common power t^s, here s = 1, and its
    # shift grows by k - s = 1, the growth the step returns
    rows = [[[], [0, 0, 3]], [[0, 1], [0, 0, 0, 2]]]
    shifts = [0, 0]
    assert invariants._laurent_step(rows, [[4]], 0, 2, shifts) == 1
    assert rows == [[[0, 0, 3]], [[-4, 0, 0, 0, 2]]] and shifts == [0, 1]
    # a unit step in a small block strips nothing; a row made zero stays
    rows = [[[1], [1]]]
    shifts = [0]
    assert invariants._laurent_step(rows, [[1]], 0, 0, shifts) == 0
    assert rows == [[[]]] and shifts == [0]
    # _shift_t multiplies by any power of t and checks what a division drops
    assert invariants._shift_t([0, 0, 5], -2) == [5] and invariants._shift_t([5], 2) == [0, 0, 5]
    for entry in ([1, 0, 5], [0, 1, 5]):
        with pytest.raises(InvariantViolation, match="inexact Z.t. Bareiss step"):
            invariants._shift_t(entry, -2)
    # this pencil ends with e = -2, so its last block's determinant, ad - bc,
    # drops its coefficients of t^0 and t^1; with either one unit off, the
    # check of the dropped coefficients raises
    v = SeifertMatrix(((1, 1, 1, 1), (0, 1, 2, 1), (2, 0, 1, 1), (1, 2, 2, 1)))
    steps = z_t_steps(monkeypatch)
    assert pencil_determinant(v, "fraction_free").coeffs == leibniz_pencil_det(v)
    assert ("drop", 2) in steps and ("packed", False) not in steps
    real = invariants._poly_mul
    for low in (0, 1):

        def off(a, b, low=low):
            out = real(a, b)
            out[low] += 1
            return out

        monkeypatch.setattr(invariants, "_poly_mul", off)
        with pytest.raises(InvariantViolation, match="inexact Z.t. Bareiss step"):
            pencil_determinant(v, "fraction_free")


@pytest.mark.parametrize("extra", [1, -1])
def test_each_kernel_checks_its_final_exponent(monkeypatch, extra):
    # a row strip that reports one power of t (of x = 2^B in the integer
    # kernel) more or less than it takes out makes the final exponent wrong:
    # the unchecked ``alexander`` and ``pencil_determinant`` raise, from
    # fraction_free's own degree and symmetry checks, the dropped
    # coefficients' check, or eval_interp's digit and symmetry checks
    # the integer kernel strips rows only in blocks of more than
    # _SPARSE_UNIT_ROWS rows, which the 12-band knot's power steps are not
    codes = _seeded_24_band_knots()[:4]
    for name, run, more in (
        ("_strip_t", lambda code: alexander(code), [_seeded_knot(random.Random(173), 12)]),
        ("_strip_x", lambda code: pencil_determinant(seifert_matrix(code), "eval_interp"), []),
    ):
        real = getattr(invariants, name)
        calls = []

        def miscounted(*args, real=real):
            calls.append(1)
            return real(*args) + extra

        monkeypatch.setattr(invariants, name, miscounted)
        for code in codes + more:
            calls.clear()
            with pytest.raises(InvariantViolation):
                run(code)
            assert calls, (name, code)
        monkeypatch.undo()


def _counting_int_dets(monkeypatch, offset=lambda: 0):
    """Record the size of each ``_det_bareiss_int`` call and add
    ``offset()`` to every determinant it returns."""
    calls = []
    real = invariants._det_bareiss_int

    def counting(rows, bits):
        calls.append(len(rows))
        return real(rows, bits) + offset()

    monkeypatch.setattr(invariants, "_det_bareiss_int", counting)
    return calls


def test_eval_interp_takes_one_integer_determinant(monkeypatch):
    # one determinant at t = 2^B for triangular, transposed and dense V;
    # none when a zero row of V - t V^T makes the pencil zero
    calls = _counting_int_dets(monkeypatch)
    rng = random.Random(8)
    taken = zero = 0
    for n in range(1, 8):
        v = seifert_matrix(random_code(rng, n))
        transposed = SeifertMatrix(tuple(zip(*v.rows)))
        dense = SeifertMatrix(
            tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n))
        )
        for matrix in (v, transposed, dense):
            calls.clear()
            expected = leibniz_pencil_det(matrix)
            assert pencil_determinant(matrix, "eval_interp").coeffs == expected
            if invariants._hadamard_square(matrix.rows):
                assert calls == [n], (matrix, calls)
                taken += 1
            else:
                assert calls == [] and expected == (), (matrix, calls)
                zero += 1
    assert taken >= 10 and zero >= 5


def test_eval_interp_checks_symmetry(monkeypatch, trefoil_code):
    # one unit more at t = 2^B moves c_0 alone, which breaks c_n = (-1)^n c_0
    _counting_int_dets(monkeypatch, lambda: 1)
    for matrix in (seifert_matrix(trefoil_code), SeifertMatrix(((1, 2), (3, 4)))):
        with pytest.raises(InvariantViolation, match="c_\\(n-k\\)"):
            pencil_determinant(matrix, "eval_interp")


def test_eval_interp_checks_leftover_digits(monkeypatch, trefoil_code):
    # 2^(B(n+1)) more leaves c_0..c_n as they are and one digit above them
    extra = {}
    _counting_int_dets(monkeypatch, lambda: extra["top"])
    for matrix in (seifert_matrix(trefoil_code), SeifertMatrix(((1, 2), (3, 4)))):
        bits = (invariants._hadamard_square(matrix.rows).bit_length() + 1) // 2 + 1
        extra["top"] = 1 << (bits * (matrix.n + 1))
        with pytest.raises(InvariantViolation, match="above degree n"):
            pencil_determinant(matrix, "eval_interp")


def test_pencil_rejects_unknown_method(trefoil_code):
    with pytest.raises(ValueError):
        pencil_determinant(seifert_matrix(trefoil_code), "float")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_examples():
    a = normalize_alexander(IntPolynomial((0, 1, -1, 1)))
    assert a.normalized.coeffs == (1, -1, 1)
    assert (a.span, a.leading) == (2, 1)
    b = normalize_alexander(IntPolynomial((0, -1, 3, -1)))  # -t(t^2 - 3t + 1)
    assert b.normalized.coeffs == (1, -3, 1)
    z = normalize_alexander(IntPolynomial(()))
    assert z.normalized.is_zero and z.span is None and z.leading is None


def test_normalize_sign_rule():
    assert normalize_alexander(IntPolynomial((-2, 3, -2))).normalized.coeffs == (2, -3, 2)


# ---------------------------------------------------------------------------
# alexander and the scalar invariants
# ---------------------------------------------------------------------------

def test_alexander_examples(trefoil_code, figure_eight_code):
    assert str(alexander(trefoil_code, checked=True).normalized) == "t^2 - t + 1"
    assert str(alexander(figure_eight_code, checked=True).normalized) == "t^2 - 3t + 1"
    assert alexander(parse_code("1,1,2,2")).normalized.is_zero
    assert alexander(parse_code("1,2,1,2")).normalized.coeffs == (1,)


def test_knot_determinant_examples(trefoil_code, figure_eight_code):
    assert knot_determinant(trefoil_code) == 3
    assert knot_determinant(figure_eight_code) == 5
    assert knot_determinant(parse_code("1,2,1,2")) == 1
    with pytest.raises(NotAKnot):
        knot_determinant(parse_code("1,1"))


def test_knot_determinant_matches_alexander_route():
    codes = [record.code for record in load_table()]
    assert len(codes) == 84
    codes += [
        code
        for n in (1, 2, 3, 4)
        for matching in enumerate_matchings(n, knots_only=True)
        for code in enumerate_codes(matching)
    ]
    for code in codes:
        expected = determinant_from_alexander(alexander(code, checked=True))
        assert knot_determinant(code) == expected, code
    with pytest.raises(NotAKnot):
        knot_determinant(parse_code("1,1,2,2"))


def test_arf_examples(trefoil_code, figure_eight_code):
    assert arf(parse_code("1,2,1,2")) == 0
    assert arf(trefoil_code) == 1
    assert arf(figure_eight_code) == 1
    with pytest.raises(NotAKnot):
        arf(parse_code("1,1,2,2"))


def test_even_knot_determinant_is_an_invariant_violation():
    for det in (0, 2, 4, 6, 8):
        with pytest.raises(InvariantViolation, match=f"knot determinant {det} is even"):
            invariants.arf_from_determinant(det)


def test_checked_alexander_raises_when_methods_disagree(monkeypatch, trefoil_code):
    # an eval_interp that answers 1 whatever the matrix
    one = IntPolynomial((1,))
    monkeypatch.setattr(invariants, "_pencil_det_eval_interp", lambda n, h, pencil: one)
    assert str(alexander(trefoil_code)) == "t^2 - t + 1"
    with pytest.raises(InvariantViolation, match="determinant methods disagree on"):
        alexander(trefoil_code, checked=True)


def test_signature_examples(trefoil_code):
    assert signature(parse_code("1,1,2,2")) == 0
    assert signature(parse_code("1,2,1,2")) == 0
    assert signature(trefoil_code) == 2


def _sympy_signature(sym) -> int:
    """Oracle: signs of the exact real roots (with multiplicity) of the
    characteristic polynomial."""
    import sympy

    roots = sympy.real_roots(sympy.Matrix(sym).charpoly().as_expr())
    return sum(
        1 if root.is_positive else -1 if root.is_negative else 0 for root in roots
    )


def test_signature_against_sympy_real_roots():
    rng = random.Random(99)
    for _ in range(25):
        code = random_code(rng, rng.randint(1, 6))
        sym = symmetrized(seifert_matrix(code))
        assert signature(code) == _sympy_signature(sym)


def test_signature_against_sympy_exhaustive_n4():
    import sympy

    oracle: dict = {}
    for n in (1, 2, 3, 4):
        boundaries = set()
        singular = 0
        for code in all_codes(n):
            sym = symmetrized(seifert_matrix(code))
            if sym not in oracle:
                oracle[sym] = _sympy_signature(sym), sympy.Matrix(sym).det() == 0
            expected, is_singular = oracle[sym]
            assert signature(code) == expected, code
            boundaries.add(surface_stats(code).boundary)
            singular += is_singular
        # every boundary count n+1, n-1, ... that n bands realize was seen,
        # and links with a singular V + V^T were among the codes
        assert boundaries == set(range(1 if n % 2 == 0 else 2, n + 2, 2))
        assert singular
    assert len(oracle) > 100


def test_signature_against_sympy_random_n9():
    rng = random.Random(2024)
    for _ in range(120):
        code = random_code(rng, rng.randint(5, 9))
        sym = symmetrized(seifert_matrix(code))
        assert signature(code) == _sympy_signature(sym), code


def test_signature_inexact_division_raises(monkeypatch):
    """A nonzero elimination remainder raises, even under ``python -O``."""
    real_divmod = divmod

    def lossy_divmod(a, b):
        q, r = real_divmod(a, b)
        return q, r if b in (1, -1) else r + 1

    monkeypatch.setattr(invariants, "divmod", lossy_divmod, raising=False)
    # the 2x2 steps finish the trefoil's S = V + V^T and divide nothing;
    # the six-band all-crossing code's S leaves a block whose elimination
    # needs a pivot other than +-1
    assert signature(parse_code("1,2,3,4,1,2,3,4")) == 2
    with pytest.raises(InvariantViolation, match="inexact symmetric elimination"):
        signature(parse_code("1,2,3,4,5,6,1,2,3,4,5,6"))


# ---------------------------------------------------------------------------
# the symmetric kernel: the signature and det(V + V^T) from one elimination
# ---------------------------------------------------------------------------

@st.composite
def _integer_v(draw):
    """A square integer V of 1-7 rows with entries in -3..3, of one of three
    kinds: general; "singular", where row and column k of V copy row and
    column 0 so that S = V + V^T has two equal rows; and "no_unit", a lower
    triangular V without +-1 entries, whose S has no +-1 entry at all, so
    no 2x2 step runs and the whole block goes to the fallback."""
    kind = draw(st.sampled_from(["general", "singular", "no_unit"]))
    n = draw(st.integers(2 if kind == "singular" else 1, 7))
    if kind == "no_unit":
        entry = st.sampled_from([-3, -2, 0, 2, 3])
        return kind, [[draw(entry) if j <= i else 0 for j in range(n)] for i in range(n)]
    v = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    if kind == "singular":
        k = draw(st.integers(1, n - 1))
        for j in range(n):
            v[k][j], v[j][k] = v[0][j], v[j][0]
        v[0][k] = v[k][0] = v[k][k] = v[0][0]
    return kind, v


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_integer_v())
def test_symmetric_kernel_matches_leibniz_and_sympy(case):
    kind, v = case
    sym = symmetrized(SeifertMatrix(tuple(map(tuple, v))))
    if kind == "singular":
        assert leibniz_det(sym) == 0
    if kind == "no_unit":
        assert all(abs(x) != 1 for row in sym for x in row)
    sigma, det = invariants._signature_and_determinant_of_rows(v)
    assert det == leibniz_det(sym), v
    assert sigma == _sympy_signature(sym), v


def test_symmetric_kernel_det_is_the_pencil_at_minus_one(monkeypatch, leibniz_pencils):
    # every code up to four bands and the _integer_matrices: det(V + V^T)
    # is the Leibniz det(V - t V^T) at t = -1, sign included
    steps = _count_calls(monkeypatch, "_unimodular_step")
    for v, pencil in leibniz_pencils:
        _, det = invariants._signature_and_determinant_of_rows(v.rows)
        assert det == IntPolynomial(pencil).evaluate(-1), v
    assert len(steps) > 1_000
    assert invariants._signature_and_determinant_of_rows(()) == (0, 1)


def test_symmetric_kernel_is_independent_of_both_pencil_kernels(monkeypatch):
    from flatbasket.passclass import orbit_invariant_check, pass_class

    def refuse(rows):
        raise AssertionError("the symmetric kernel ran a pencil kernel")

    monkeypatch.setattr(invariants, "_det_bareiss_int", refuse)
    monkeypatch.setattr(invariants, "_det_bareiss_poly", refuse)
    rng = random.Random(21)
    for n in range(1, 13):
        signature(random_code(rng, n))
    knot = parse_code("1,2,3,4,1,2,3,4")
    assert (knot_determinant(knot), arf(knot), pass_class(knot).family) == (3, 1, "II")
    assert orbit_invariant_check(underlying(knot)).passed


def test_integer_determinant_runs_only_under_eval_interp():
    # every function of the package that names _det_bareiss_int
    import ast
    from pathlib import Path

    users = set()
    for path in Path(invariants.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {
                alias.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom)
                for alias in n.names
            }
            if "_det_bareiss_int" in names:
                users.add((path.stem, getattr(node, "name", None)))
    assert users == {("invariants", "_pencil_det_eval_interp")}


def test_signature_takes_at_most_the_pencil_cap(monkeypatch):
    from flatbasket.errors import CapExceeded
    from flatbasket.invariants import PENCIL_CAP

    # 1..n,1..n is the torus knot T(2, n - 1), of signature n - 2
    at_cap = parse_code(",".join(map(str, list(range(1, PENCIL_CAP + 1)) * 2)))
    assert signature(at_cap) == PENCIL_CAP - 2

    def refuse(rows):
        raise AssertionError("an elimination ran above the cap")

    monkeypatch.setattr(invariants, "_signature_and_determinant_of_rows", refuse)
    monkeypatch.setattr(invariants, "seifert_matrix", refuse)
    with pytest.raises(CapExceeded, match=f"57 bands exceeds the pencil cap {PENCIL_CAP}"):
        signature(random_code(random.Random(57), PENCIL_CAP + 1))
    # every public invariant of the code: a knot, so knot_determinant and
    # arf pass their boundary check and reach the cap
    over = parse_code(",".join(map(str, list(range(1, PENCIL_CAP + 3)) * 2)))
    for invariant in (alexander, knot_determinant, arf, signature):
        with pytest.raises(CapExceeded, match=f"58 bands exceeds the pencil cap {PENCIL_CAP}"):
            invariant(over)


_REAL_STEP = invariants._unimodular_step


def _step_reporting_det_one_once():
    """A 2x2 step that eliminates correctly but reports det 1 for its block
    on its first call."""
    calls = []

    def step(a, i, j):
        det = _REAL_STEP(a, i, j)
        calls.append(1)
        return 1 if len(calls) == 1 else det

    return step


def _step_with_wrong_entry(a, i, j):
    """A 2x2 step whose block comes out with its last diagonal entry 2 too
    large: still symmetric and even, so only a check against another
    computation can see it."""
    det = _REAL_STEP(a, i, j)
    if a:
        a[-1][-1] += 2
    return det


def test_faulty_unimodular_step_raises(monkeypatch, trefoil_code):
    from types import SimpleNamespace

    from flatbasket.cli import _cmd_invariants
    from flatbasket.search import SearchQuery, search

    # a wrong block determinant breaks Sylvester's sign rule in the kernel
    monkeypatch.setattr(invariants, "_unimodular_step", _step_reporting_det_one_once())
    with pytest.raises(InvariantViolation, match="has the wrong sign for signature 2"):
        signature(trefoil_code)
    # a wrong entry keeps the sign rule (det -7, signature 2) and Murasugi's
    # congruence, and the pencil at t = -1 (det -3) catches it
    monkeypatch.setattr(invariants, "_unimodular_step", _step_with_wrong_entry)
    assert invariants._signature_and_determinant_of_rows(
        seifert_matrix(trefoil_code).rows
    ) == (2, -7)
    args = SimpleNamespace(code="1,2,3,4,1,2,3,4", json=True)
    with pytest.raises(InvariantViolation, match="the pencil at t = -1 is -3"):
        _cmd_invariants(args)
    with pytest.raises(InvariantViolation, match="the pencil at t = -1"):
        search(SearchQuery(bands=4, knots_only=True))


def test_pencil_and_murasugi_checks(monkeypatch, trefoil_code):
    raw = alexander(trefoil_code).raw
    rows = seifert_matrix(trefoil_code).rows

    def checked(sigma, det):
        # the kernel reports (sigma, det) and the check sees only those
        monkeypatch.setattr(
            invariants, "_signature_and_determinant_of_rows", lambda r: (sigma, det)
        )
        return invariants._checked_signature(rows, raw)

    assert checked(2, -3) == 2
    with pytest.raises(InvariantViolation, match="pencil at t = -1 is -3"):
        checked(2, 3)
    monkeypatch.undo()
    # Murasugi's congruence is the kernel's own check (see
    # test_kernel_checks_murasugi_on_every_signature); a knot's determinant
    # must be odd, which the all-zero "knot" breaks
    _, det = invariants._signature_and_determinant_of_rows(((0, 0, 0, 0),) * 4)
    with pytest.raises(InvariantViolation, match="knot determinant 0 is even"):
        invariants.arf_from_determinant(det)


def _step_with_odd_entry(a, i, j):
    """A 2x2 step whose block comes out with its last diagonal entry 1 too
    large: no longer even, which the pencil check alone would see."""
    det = _REAL_STEP(a, i, j)
    if a:
        a[-1][-1] += 1
    return det


def test_kernel_checks_murasugi_on_every_signature(monkeypatch, trefoil_code):
    # det -5 keeps Sylvester's sign rule for signature 2 of 4 rows, but
    # |-5| = 1 mod 4 asks for a signature divisible by 4
    monkeypatch.setattr(invariants, "_unimodular_step", _step_with_odd_entry)
    with pytest.raises(
        InvariantViolation,
        match=r"signature 2 and det\(V \+ V\^T\) = -5 break Murasugi's congruence",
    ):
        signature(trefoil_code)


def test_kernel_murasugi_check_is_silent_on_integer_matrices():
    # S = V + V^T has an even diagonal for every integer V, so the kernel's
    # congruence must hold for all of them, not only for Seifert matrices
    rng = random.Random(26)
    odd = 0
    for _ in range(3_000):
        n = rng.randint(1, 9)
        v = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        sigma, det = invariants._signature_and_determinant_of_rows(v)
        if det & 1:
            odd += 1
            assert (abs(det) % 4 == 1) == (sigma % 4 == 0), v
    assert odd > 400


# ---------------------------------------------------------------------------
# structural properties of the raw determinant
# ---------------------------------------------------------------------------

def test_raw_degree_window_and_extreme_coefficients():
    for n in (2, 3, 4):
        for code in all_codes(n):
            raw = pencil_determinant(seifert_matrix(code))
            if raw.is_zero:
                continue
            assert raw.min_degree >= 1
            assert raw.degree <= n - 1
            rows = seifert_matrix(code).rows
            product = rows[n - 1][0]
            for k in range(1, n):
                product *= rows[k][k - 1]
            if n >= 2:
                top = raw.coeffs[n - 1] if raw.degree == n - 1 else 0
                low = raw.coeffs[1] if raw.min_degree <= 1 else 0
                assert abs(top) == abs(product)
                assert abs(low) == abs(product)


def test_knot_sanity_exhaustive_n4():
    for code in all_codes(4):
        if surface_stats(code).boundary != 1:
            continue
        delta = alexander(code)
        norm = delta.normalized
        assert abs(norm.evaluate(1)) == 1
        assert norm.evaluate(-1) % 2 == 1
        assert delta.span % 2 == 0
        coeffs = norm.coeffs
        assert coeffs == tuple(reversed(coeffs)) or coeffs == tuple(
            -c for c in reversed(coeffs)
        )


def test_alexander_rotation_invariance():
    for text in ("1,2,3,4,1,2,3,4", "1,2,2,3,1,3", "1,2,4,3,1,2,4,3"):
        code = parse_code(text)
        base = alexander(code).normalized
        for k in range(len(code.word)):
            assert alexander(rotated(code, k)).normalized == base
