"""Exact polynomials, determinants, and the derived knot invariants.

The determinant oracle is a naive permutation expansion (conftest), computed
independently of the elimination and evaluation code under test.
"""

import random
from importlib import resources

import pytest

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
from flatbasket.errors import InvariantViolation, MalformedCode, NotAKnot
from flatbasket.invariants import MAX_EXPONENT, determinant_from_alexander
from flatbasket.pushdown import diagram_seifert_matrix, parse_diagram
from flatbasket.search import enumerate_codes, enumerate_matchings
from flatbasket.seifert import SeifertMatrix, symmetrized
from flatbasket.tables import load_table
from conftest import all_codes, leibniz_det, leibniz_pencil_det, random_code


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


def test_fraction_free_products_on_seeded_24_band_knots(monkeypatch):
    # least-fill pivots: 5,854 products of Z[t] entries; the first +-1 in
    # row-major order took 12,698
    calls = []
    real = invariants._poly_mul

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(invariants, "_poly_mul", counting)
    for code in _seeded_24_band_knots():
        pencil_determinant(seifert_matrix(code), "fraction_free")
    assert len(calls) <= 7_000, len(calls)


def _nonzero_counts(pencil):
    rows = [sum(1 for e in row if e) for row in pencil]
    cols = [sum(1 for e in col if e) for col in zip(*pencil)]
    return rows, cols


def test_nonzero_counts_match_a_recount_at_every_step(monkeypatch):
    # the counts kept up to date by the elimination are those of the block
    steps = []
    real = invariants._pivot_position

    def recounting(rows, k, row_nz, col_nz):
        block = [row[k:] for row in rows[k:]]
        assert _nonzero_counts(block) == (row_nz[k:], col_nz[k:]), k
        steps.append(k)
        return real(rows, k, row_nz, col_nz)

    monkeypatch.setattr(invariants, "_pivot_position", recounting)
    rng = random.Random(14)
    matrices = [seifert_matrix(code) for code in _seeded_24_band_knots()[:3]]
    matrices += [
        SeifertMatrix(tuple(tuple(rng.choice((0, 0, 1, -1)) for _ in range(n)) for _ in range(n)))
        for n in range(2, 8)
        for _ in range(30)
    ]
    for v in matrices:
        steps.clear()
        det = pencil_determinant(v, "fraction_free")
        assert det == pencil_determinant(v, "eval_interp")
        assert steps and steps == list(range(len(steps)))
        assert det.is_zero or len(steps) == v.n - 1


def test_pivot_takes_the_least_fill_unit():
    # M = V - t V^T has two +-1 entries.  The first in row-major order,
    # M_12 = [1], sits in a row of 3 and a column of 4 nonzero entries:
    # cost (3 - 1)(4 - 1) = 6.  M_32 = [1] is alone in its row, cost 0.
    v = SeifertMatrix(((0, 1, 1, 0), (1, 1, 1, 0), (1, 0, -1, 0), (0, 0, 1, 0)))
    pencil = [
        [[v.rows[i][j], -v.rows[j][i]] if v.rows[j][i] else [v.rows[i][j]]
         if v.rows[i][j] else [] for j in range(4)]
        for i in range(4)
    ]
    units = [
        (i, j) for i in range(4) for j in range(4) if pencil[i][j] in ([1], [-1])
    ]
    assert units == [(1, 2), (3, 2)]
    rows, cols = _nonzero_counts(pencil)
    assert (rows[1], cols[2], rows[3]) == (3, 4, 1)
    assert invariants._pivot_position(pencil, 0, rows, cols) == (3, 2)
    assert pencil_determinant(v, "fraction_free").coeffs == leibniz_pencil_det(v)


def test_pivot_tiers_and_ties():
    # a unit of cost 1 beats a non-unit of cost 0, and the first of equal
    # costs in row-major order wins
    pencil = [[[2], [], []], [[], [1], [1]], [[], [-1], [1]]]
    rows, cols = _nonzero_counts(pencil)
    assert invariants._pivot_position(pencil, 0, rows, cols) == (1, 1)
    # without units the shortest entries, then the least cost among them
    pencil = [[[1, 1], [], []], [[], [3], [5]], [[], [7], []]]
    rows, cols = _nonzero_counts(pencil)
    assert invariants._pivot_position(pencil, 0, rows, cols) == (1, 2)
    # only the trailing block from step k on counts
    assert invariants._pivot_position(pencil, 2, rows, cols) is None


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


def test_integer_bareiss_matches_leibniz():
    singular = 0
    for rows in _integer_matrices(random.Random(19)):
        expected = leibniz_det(rows)
        assert invariants._det_bareiss_int([list(row) for row in rows]) == expected, rows
        singular += not expected
    assert singular >= 200


def test_integer_bareiss_checks_every_division():
    # one product off by one makes a later division inexact: it raises
    # where the unchecked floor division returned 671, 561, ... silently
    class OffByOne(int):
        def __mul__(self, other):
            return int(self) * other + 1

        __rmul__ = __mul__

    rows = [[2, 3, 5, 7], [3, 2, 0, 5], [5, 0, 2, 3], [7, 5, 3, 2]]
    assert invariants._det_bareiss_int([list(row) for row in rows]) == 644
    for i in range(1, 4):
        for j in range(1, 4):
            faulty = [list(row) for row in rows]
            faulty[i][j] = OffByOne(faulty[i][j])
            with pytest.raises(InvariantViolation, match="inexact integer Bareiss"):
                invariants._det_bareiss_int(faulty)


def test_integer_bareiss_products_on_seeded_24_band_knots(monkeypatch):
    # unit pivots from the sparsest rows, and updates of only the columns
    # where the pivot row is nonzero: 8,674 integer products for the ten
    # pencils at t = 2^B; the first nonzero of each column took 51,913
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

        def __floordiv__(self, other):
            return Counted(int(self) // int(other))

        def __divmod__(self, other):
            q, r = divmod(int(self), int(other))
            return Counted(q), r

    real = invariants._det_bareiss_int
    monkeypatch.setattr(
        invariants, "_det_bareiss_int",
        lambda rows: real([[Counted(a) for a in row] for row in rows]),
    )
    for code in _seeded_24_band_knots():
        pencil_determinant(seifert_matrix(code), "eval_interp")
    assert len(products) <= 10_000, len(products)


def _counting_int_dets(monkeypatch, offset=lambda: 0):
    """Record the size of each ``_det_bareiss_int`` call and add
    ``offset()`` to every determinant it returns."""
    calls = []
    real = invariants._det_bareiss_int

    def counting(rows):
        calls.append(len(rows))
        return real(rows) + offset()

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
    monkeypatch.setattr(invariants, "_pencil_det_eval_interp", lambda rows: one)
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
    # the trefoil's S = V + V^T needs a pivot other than +-1
    with pytest.raises(InvariantViolation, match="inexact symmetric elimination"):
        signature(parse_code("1,2,3,4,1,2,3,4"))


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
    from flatbasket.codes import rotated

    for text in ("1,2,3,4,1,2,3,4", "1,2,2,3,1,3", "1,2,4,3,1,2,4,3"):
        code = parse_code(text)
        base = alexander(code).normalized
        for k in range(len(code.word)):
            assert alexander(rotated(code, k)).normalized == base
