"""Exact integer-polynomial arithmetic and invariants of basket codes.

Everything here is computed over Z; no floating point anywhere.  The
Alexander polynomial is det(V - t V^T) for the Seifert matrix V of the code,
taken by two mutually checking exact algorithms:

* ``fraction_free``: one-step fraction-free (Bareiss) elimination over Z[t]
  on plain coefficient lists, where every division is exact by
  construction and checked.  Each pivot comes from the whole trailing
  block: a constant +-1 when there is one, else an entry of least degree.
  Two unit pivots in a row make the step a plain a - a_ik * a_kj, with no
  multiply and no division;
* ``eval_interp``: det(V - t V^T) = (-t)^n det(V - t^-1 V^T) for any square
  V, so c_(n-k) = (-1)^n c_k and only c_0..c_(n//2) are unknown.  They are
  solved from n//2 + 1 exact integer determinants at small integer points;
  the solve must come out integral, and :class:`MethodDisagreement` is
  raised when it does not.

The signature of V + V^T comes from one fraction-free symmetric elimination
(Sylvester's law of inertia): the signs of successive leading principal
minors of a congruent matrix count the positive and negative eigenvalues,
with a 2x2 congruence step where the remaining diagonal is zero.  Every
division in it is checked to be exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .codes import FlatBasketCode, surface_stats
from .errors import MalformedCode, MethodDisagreement, NotAKnot, UnexpectedResidue, _excerpt
from .seifert import SeifertMatrix, seifert_matrix

__all__ = [
    "IntPolynomial",
    "AlexanderPolynomial",
    "parse_polynomial",
    "pencil_determinant",
    "normalize_alexander",
    "alexander",
    "knot_determinant",
    "determinant_from_alexander",
    "arf",
    "arf_from_determinant",
    "signature",
]


# ---------------------------------------------------------------------------
# dense integer polynomials
# ---------------------------------------------------------------------------
# Coefficient lists are ascending and trimmed (no trailing zeros; [] is 0).

def _poly_mul(a, b) -> list[int]:
    """Product of two trimmed coefficient lists (trimmed, as Z has no zero
    divisors)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return out


def _poly_sub(a, b) -> list[int]:
    """Trimmed difference a - b of two coefficient lists."""
    if len(a) >= len(b):
        out = list(a)
        for k, c in enumerate(b):
            out[k] -= c
    else:
        out = [-c for c in b]
        for k, c in enumerate(a):
            out[k] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_exact_div(a, b) -> list[int]:
    """Quotient a / b of trimmed coefficient lists, exact over Z[t].

    Raises ArithmeticError when b does not divide a.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    lead = b[-1]
    if len(b) == 1:
        quot = []
        for c in a:
            q, r = divmod(c, lead)
            if r:
                raise ArithmeticError("inexact polynomial division")
            quot.append(q)
        return quot
    rem = list(a)
    top = len(b) - 1
    qlen = len(rem) - top
    if qlen <= 0:
        raise ArithmeticError("inexact polynomial division")
    quot = [0] * qlen
    for k in range(qlen - 1, -1, -1):
        q, r = divmod(rem[k + top], lead)
        if r:
            raise ArithmeticError("inexact polynomial division")
        quot[k] = q
        if q:
            for j, d in enumerate(b, k):
                rem[j] -= q * d
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return quot


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; ``coeffs[k]`` is the coefficient of t^k."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        """Top degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def min_degree(self) -> int | None:
        """Lowest degree with nonzero coefficient, or None for zero."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return IntPolynomial(tuple(out))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(_poly_sub(self.coeffs, other.coeffs))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(_poly_mul(self.coeffs, other.coeffs))

    def exact_div(self, other: "IntPolynomial") -> "IntPolynomial":
        """Quotient self / other when the division is exact over Z[t]."""
        return IntPolynomial(_poly_exact_div(self.coeffs, other.coeffs))

    def shifted(self, k: int) -> "IntPolynomial":
        """Multiply by t^k (k >= 0) or divide exactly by t^-k (k < 0)."""
        if self.is_zero:
            return _ZERO
        if k >= 0:
            return IntPolynomial((0,) * k + self.coeffs)
        if any(self.coeffs[:(-k)]):
            raise ArithmeticError("inexact shift")
        return IntPolynomial(self.coeffs[-k:])

    def evaluate(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    # -- formatting -----------------------------------------------------------

    def __str__(self) -> str:
        """Descending-degree display, e.g. ``t^2 - t + 1``."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if not c:
                continue
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                t = "t" if d == 1 else f"t^{d}"
                body = t if mag == 1 else f"{mag}{t}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


_ZERO = IntPolynomial(())

# Largest exponent parse_polynomial accepts; the dense coefficient list is
# allocated up to it.
MAX_EXPONENT = 10_000

_TERM = re.compile(
    r"(?P<sign>[+-])?\s*(?:(?P<coeff>[0-9]+)\s*\*?\s*)?(?P<t>t(?:\^(?P<exp>[0-9]+))?)?"
)

# ASCII only: ``\d`` and ``int`` also read other scripts' digits and ``_``.
_COEFF = re.compile(r"[+-]?[0-9]+")


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse ``t^2 - t + 1`` style text, or an ascending coefficient list.

    A plain comma/space separated list of integers is read as coefficients
    of t^0, t^1, ... (the JSON wire convention).
    """
    s = text.strip()
    if not s:
        raise MalformedCode("empty polynomial text")
    if "t" not in s:
        values = []
        for tok in re.split(r"[,\s]+", s):
            if not tok:
                continue
            if not _COEFF.fullmatch(tok):
                raise MalformedCode(f"bad coefficient {_excerpt(tok)}")
            try:
                values.append(int(tok))
            except ValueError as exc:  # longer than Python's int-conversion limit
                raise MalformedCode(f"bad coefficient {_excerpt(tok)}") from exc
        return IntPolynomial(tuple(values))
    coeffs: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise MalformedCode(f"cannot parse polynomial at {_excerpt(s[pos:])}")
        sign, coeff, t, exp = m.group("sign", "coeff", "t", "exp")
        if sign is None and not first:
            raise MalformedCode(f"missing sign before {_excerpt(s[pos:])}")
        if coeff is None and t is None:
            raise MalformedCode(f"empty term at {_excerpt(s[pos:])}")
        try:
            c = int(coeff) if coeff is not None else 1
            d = 0 if t is None else (int(exp) if exp is not None else 1)
        except ValueError as exc:  # longer than Python's int-conversion limit
            raise MalformedCode(f"number too long in the term at offset {pos}") from exc
        if d > MAX_EXPONENT:
            raise MalformedCode(f"exponent {d} exceeds {MAX_EXPONENT}")
        if sign == "-":
            c = -c
        coeffs[d] = coeffs.get(d, 0) + c
        pos = m.end()
        while pos < len(s) and s[pos].isspace():
            pos += 1
        first = False
    out = [0] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return IntPolynomial(tuple(out))


# ---------------------------------------------------------------------------
# exact determinants of the pencil V - t V^T
# ---------------------------------------------------------------------------

def _det_bareiss_int(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix (one-step Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k]:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        rk = rows[k]
        pivot = rk[k]
        tail = rk[k + 1:]
        for i in range(k + 1, n):
            ri = rows[i]
            rik = ri[k]
            if rik:
                ri[k + 1:] = [
                    (a * pivot - rik * b) // prev for a, b in zip(ri[k + 1:], tail)
                ]
            elif pivot != prev:
                ri[k + 1:] = [a * pivot // prev for a in ri[k + 1:]]
        prev = pivot
    return sign * rows[n - 1][n - 1]


def _pivot_position(rows: list[list[list[int]]], k: int) -> tuple[int, int] | None:
    """Position of the pivot for step k in the block ``rows[k:][k:]``.

    The first constant +-1 in row-major order, else the first nonzero entry
    of least degree; None when the block is zero.
    """
    best = None
    best_len = 0
    for i in range(k, len(rows)):
        row = rows[i]
        for j in range(k, len(row)):
            e = row[j]
            if e and (best is None or len(e) < best_len):
                if len(e) == 1 and (e[0] == 1 or e[0] == -1):
                    return i, j
                best, best_len = (i, j), len(e)
    return best


def _det_bareiss_poly(rows: list[list[list[int]]]) -> list[int]:
    """Exact determinant of a matrix over Z[t] (fully pivoted one-step Bareiss).

    Entries and the result are trimmed coefficient lists; ``rows`` is
    overwritten.  Each step takes its pivot from the whole trailing block
    (see :func:`_pivot_position`), swapping it into place by a row and a
    column swap, each of which flips the sign.  A pivot with a negative
    leading coefficient has its row negated, flipping the sign again, so a
    unit pivot is always ``[1]``.  The update of entry (i, j) is
    (a_ij * pivot - a_ik * a_kj) / prev, with prev the previous pivot;
    the multiply is skipped when the pivot is ``[1]``, the division when
    prev is ``[1]``, and every other division is checked by
    :func:`_poly_exact_div`.  When pivot == prev, an entry with
    a_ik * a_kj = 0 stays as it is, and so does every row with a_ik = 0.
    """
    n = len(rows)
    if n == 0:
        return [1]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        pos = _pivot_position(rows, k)
        if pos is None:
            return []
        p, q = pos
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        if q != k:
            for row in rows[k:]:
                row[k], row[q] = row[q], row[k]
            sign = -sign
        rk = rows[k]
        if rk[k][-1] < 0:
            rk[k:] = [[-c for c in e] for e in rk[k:]]
            sign = -sign
        pivot = rk[k]
        unit_pivot = pivot == [1]
        unit_prev = prev == [1]
        same = pivot == prev
        for i in range(k + 1, n):
            ri = rows[i]
            rik = ri[k]
            if not rik and same:
                continue
            for j in range(k + 1, n):
                a = ri[j]
                b = rk[j] if rik else []
                if not b and (not a or same):
                    continue
                num = a if unit_pivot else _poly_mul(a, pivot)
                if b:
                    num = _poly_sub(num, _poly_mul(rik, b))
                ri[j] = num if unit_prev else _poly_exact_div(num, prev)
        prev = pivot
    det = rows[n - 1][n - 1]
    return [-c for c in det] if sign < 0 else det


def _pencil_det_fraction_free(rows: tuple[tuple[int, ...], ...]) -> IntPolynomial:
    """det(V - t V^T) by Bareiss elimination over Z[t]."""
    n = len(rows)
    pencil = [
        [_poly_sub((rows[i][j],), (0, rows[j][i])) for j in range(n)]
        for i in range(n)
    ]
    return IntPolynomial(tuple(_det_bareiss_poly(pencil)))


@lru_cache(maxsize=None)
def _half_interp(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int]:
    """Points and integer weights recovering c_0..c_{n//2} of det(V - t V^T).

    With c_{n-k} = (-1)^n c_k the pencil determinant is
    sum_k c_k * (t^k + (-1)^n t^(n-k)) over k < n/2, plus c_m t^m when
    n = 2m.  Points are taken greedily from 0, 1, -1, 2, -2, ..., skipping
    any whose row of basis values depends on the rows already taken (x = 1
    for odd n).  Returns ``(xs, W, D)`` with
    c_k = sum_i W[k][i] * det(V - xs[i] V^T) / D exactly.
    """
    size = n // 2 + 1
    sign = -1 if n % 2 else 1
    xs: list[int] = []
    # Gauss-Jordan on [basis row | unit row of its point], one point at a
    # time; once every column has a pivot, the right halves form the inverse.
    pivots: list[tuple[int, list[Fraction]]] = []
    x = 0
    while len(xs) < size:
        row = [
            Fraction(x**k if 2 * k == n else x**k + sign * x ** (n - k))
            for k in range(size)
        ] + [Fraction(int(i == len(xs))) for i in range(size)]
        for col, prow in pivots:
            if row[col]:
                f = row[col]
                row = [a - f * b for a, b in zip(row, prow)]
        col = next((c for c in range(size) if row[c]), None)
        if col is not None:
            lead = row[col]
            row = [a / lead for a in row]
            for idx, (pcol, prow) in enumerate(pivots):
                if prow[col]:
                    f = prow[col]
                    pivots[idx] = (pcol, [a - f * b for a, b in zip(prow, row)])
            pivots.append((col, row))
            xs.append(x)
        x = -x if x > 0 else 1 - x
    inverse = [row[size:] for _, row in sorted(pivots, key=lambda p: p[0])]
    denom = 1
    for row in inverse:
        for f in row:
            denom = denom // gcd(denom, f.denominator) * f.denominator
    weights = tuple(tuple(int(f * denom) for f in row) for row in inverse)
    return tuple(xs), weights, denom


def _pencil_det_eval_interp(rows: tuple[tuple[int, ...], ...]) -> IntPolynomial:
    """det(V - t V^T) from n//2 + 1 integer determinants.

    det(V - t V^T) = (-t)^n det(V - t^-1 V^T) for every square V, so
    c_{n-k} = (-1)^n c_k and the lower half of the coefficients fixes the
    rest.  The solve must come out integral; :class:`MethodDisagreement` is
    raised when it does not.
    """
    n = len(rows)
    xs, weights, denom = _half_interp(n)
    ys = [
        _det_bareiss_int(
            [[rows[i][j] - x * rows[j][i] for j in range(n)] for i in range(n)]
        )
        for x in xs
    ]
    coeffs = [0] * (n + 1)
    sign = -1 if n % 2 else 1
    for k, wrow in enumerate(weights):
        c, r = divmod(sum(w * y for w, y in zip(wrow, ys)), denom)
        if r:
            raise MethodDisagreement("interpolation produced a non-integer")
        coeffs[k] = c
        coeffs[n - k] = sign * c
    return IntPolynomial(tuple(coeffs))


def pencil_determinant(
    matrix: SeifertMatrix, method: str = "fraction_free"
) -> IntPolynomial:
    """Exact determinant of V - t V^T as an integer polynomial.

    ``method`` is ``fraction_free`` or ``eval_interp``; both are exact and
    must agree (see :func:`alexander` checked mode).
    """
    if method == "fraction_free":
        return _pencil_det_fraction_free(matrix.rows)
    if method == "eval_interp":
        return _pencil_det_eval_interp(matrix.rows)
    raise ValueError(f"unknown determinant method {method!r}")


# ---------------------------------------------------------------------------
# the Alexander polynomial and friends
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlexanderPolynomial:
    """Raw pencil determinant plus its normalized representative.

    ``normalized`` is raw times +-t^-k, chosen so the minimum degree is 0 and
    the top coefficient is positive; the zero polynomial stays zero.  Two
    Alexander polynomials agree up to units exactly when their normalized
    forms are equal.
    """

    raw: IntPolynomial
    normalized: IntPolynomial
    span: int | None
    leading: int | None

    def __str__(self) -> str:
        return str(self.normalized)


def normalize_alexander(poly: IntPolynomial) -> AlexanderPolynomial:
    """Divide out the largest power of t and make the top coefficient positive."""
    if poly.is_zero:
        return AlexanderPolynomial(raw=poly, normalized=poly, span=None, leading=None)
    shifted = poly.shifted(-poly.min_degree)
    if shifted.leading < 0:
        shifted = -shifted
    return AlexanderPolynomial(
        raw=poly,
        normalized=shifted,
        span=shifted.degree,
        leading=shifted.leading,
    )


def alexander(
    code: FlatBasketCode, method: str = "fraction_free", checked: bool = False
) -> AlexanderPolynomial:
    """Alexander polynomial of the boundary link of the code's basket.

    With ``checked=True`` both determinant algorithms run and any mismatch
    raises :class:`MethodDisagreement` (an arithmetic bug, not bad input).
    """
    return _alexander_of_matrix(code, seifert_matrix(code), method, checked)


def _alexander_of_matrix(
    code: FlatBasketCode, matrix: SeifertMatrix, method: str, checked: bool
) -> AlexanderPolynomial:
    """:func:`alexander` from the code's Seifert matrix, for callers that
    also need the matrix for the signature."""
    raw = pencil_determinant(matrix, method)
    if checked:
        other = "eval_interp" if method == "fraction_free" else "fraction_free"
        again = pencil_determinant(matrix, other)
        if again != raw:
            raise MethodDisagreement(
                f"determinant methods disagree on {code}: {raw} vs {again}"
            )
    return normalize_alexander(raw)


def determinant_from_alexander(delta: AlexanderPolynomial) -> int:
    """|Delta(-1)|, the determinant of a knot with Alexander polynomial delta."""
    return abs(delta.normalized.evaluate(-1))


def knot_determinant(code: FlatBasketCode) -> int:
    """|Delta(-1)| for a knot code."""
    stats = surface_stats(code)
    if stats.boundary != 1:
        raise NotAKnot(f"{code} bounds {stats.boundary} components")
    return determinant_from_alexander(alexander(code))


def arf(code: FlatBasketCode) -> int:
    """Arf invariant of the knot bounded by the code's basket."""
    return arf_from_determinant(knot_determinant(code))


def arf_from_determinant(det: int) -> int:
    """Arf invariant of a knot from its determinant.

    0 when the determinant is +-1 mod 8, 1 when it is +-3 mod 8; any even
    residue is impossible for a knot and signals a bug upstream.
    """
    residue = det % 8
    if residue in (1, 7):
        return 0
    if residue in (3, 5):
        return 1
    raise UnexpectedResidue(f"knot determinant {det} is even")


def signature(code: FlatBasketCode) -> int:
    """Signature of S = V + V^T for the code's Seifert matrix V."""
    return _signature_of_rows(seifert_matrix(code).rows)


def _signature_of_rows(rows) -> int:
    """Signature of S = V + V^T for the integer matrix rows V, by Sylvester's
    law of inertia.

    One fraction-free symmetric elimination (Bareiss) runs on S with
    diagonal pivots.  The k-th pivot is the leading principal minor D_k of
    a matrix congruent to S, and it adds +1 when sign(D_k) = sign(D_(k-1))
    and -1 otherwise (D_0 = 1).  When every remaining diagonal entry is zero
    but some a_ij is not, the congruence "row/col i += row/col j" makes
    a_ii = 2 a_ij: the integer form of a 2x2 Bunch-Kaufman pivot.  It
    commutes with the elimination, so every division stays exact; each
    remainder is checked and a nonzero one raises
    :class:`MethodDisagreement`.  Elimination stops when the remaining block
    is zero, as it is for the singular S of a link.
    """
    n = len(rows)
    a = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
    prev = 1
    total = 0
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][i]), None)
        if p is None:
            pair = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]),
                None,
            )
            if pair is None:
                break
            p, j = pair
            row_p, row_j = a[p], a[j]
            for m in range(k, n):
                row_p[m] += row_j[m]
            for m in range(k, n):
                a[m][p] += a[m][j]
        if p != k:
            a[k], a[p] = a[p], a[k]
            for m in range(k, n):
                row = a[m]
                row[k], row[p] = row[p], row[k]
        rk = a[k]
        pivot = rk[k]
        total += 1 if (pivot > 0) == (prev > 0) else -1
        for i in range(k + 1, n):
            ri = a[i]
            rik = ri[k]
            for j in range(i, n):
                q, r = divmod(ri[j] * pivot - rik * rk[j], prev)
                if r:
                    raise MethodDisagreement("inexact symmetric elimination step")
                ri[j] = a[j][i] = q
        prev = pivot
    return total
