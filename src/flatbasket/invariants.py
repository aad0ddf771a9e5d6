"""Exact integer-polynomial arithmetic and invariants of basket codes.

Everything here is computed over Z; no floating point anywhere.  The
Alexander polynomial is det(V - t V^T) for the Seifert matrix V of the code,
taken by two mutually checking exact algorithms:

* ``fraction_free``: one-step fraction-free (Bareiss) elimination in Z[t],
  where every division is exact by construction;
* ``eval_interp``: evaluate the pencil at n+1 small integers, take exact
  integer determinants, and interpolate; the interpolation must come out
  integral, and :class:`MethodDisagreement` is raised when it does not.

The signature of V + V^T is obtained from its characteristic polynomial by
counting coefficient sign changes (exact for polynomials with all real
roots), so it is exact as well.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .codes import FlatBasketCode, surface_stats
from .errors import MalformedCode, MethodDisagreement, NotAKnot, UnexpectedResidue
from .seifert import SeifertMatrix, seifert_matrix, symmetrized

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
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            out[k] -= c
        return IntPolynomial(tuple(out))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(tuple(out))

    def exact_div(self, other: "IntPolynomial") -> "IntPolynomial":
        """Quotient self / other when the division is exact over Z[t]."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return _ZERO
        rem = list(self.coeffs)
        div = other.coeffs
        dlead = div[-1]
        qlen = len(rem) - len(div) + 1
        if qlen <= 0:
            raise ArithmeticError("inexact polynomial division")
        quot = [0] * qlen
        for k in range(qlen - 1, -1, -1):
            c = rem[k + len(div) - 1]
            if c % dlead:
                raise ArithmeticError("inexact polynomial division")
            q = c // dlead
            quot[k] = q
            if q:
                for j, d in enumerate(div):
                    rem[k + j] -= q * d
        if any(rem):
            raise ArithmeticError("inexact polynomial division")
        return IntPolynomial(tuple(quot))

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
_ONE = IntPolynomial((1,))

_TERM = re.compile(
    r"(?P<sign>[+-])?\s*(?:(?P<coeff>\d+)\s*\*?\s*)?(?P<t>t(?:\^(?P<exp>\d+))?)?"
)


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse ``t^2 - t + 1`` style text, or an ascending coefficient list.

    A plain comma/space separated list of integers is read as coefficients
    of t^0, t^1, ... (the JSON wire convention).
    """
    s = text.strip()
    if not s:
        raise MalformedCode("empty polynomial text")
    if "t" not in s:
        toks = [t for t in re.split(r"[,\s]+", s) if t]
        try:
            return IntPolynomial(tuple(int(t) for t in toks))
        except ValueError as exc:
            raise MalformedCode(f"bad coefficient list {text!r}") from exc
    coeffs: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise MalformedCode(f"cannot parse polynomial at {s[pos:]!r}")
        sign, coeff, t, exp = m.group("sign", "coeff", "t", "exp")
        if sign is None and not first:
            raise MalformedCode(f"missing sign before {s[pos:]!r}")
        if coeff is None and t is None:
            raise MalformedCode(f"empty term at {s[pos:]!r}")
        c = int(coeff) if coeff is not None else 1
        if sign == "-":
            c = -c
        d = 0 if t is None else (int(exp) if exp is not None else 1)
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
# exact determinants of integer-linear pencils A + t*B
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
        pivot = rows[k][k]
        for i in range(k + 1, n):
            ri, rk = rows[i], rows[k]
            rik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pivot - rik * rk[j]) // prev
            ri[k] = 0
        prev = pivot
    return sign * rows[n - 1][n - 1]


def _det_bareiss_poly(rows: list[list[IntPolynomial]]) -> IntPolynomial:
    """Exact determinant of a matrix over Z[t] (one-step Bareiss)."""
    n = len(rows)
    if n == 0:
        return _ONE
    sign = 1
    prev = _ONE
    for k in range(n - 1):
        if rows[k][k].is_zero:
            for r in range(k + 1, n):
                if not rows[r][k].is_zero:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return _ZERO
        pivot = rows[k][k]
        for i in range(k + 1, n):
            ri, rk = rows[i], rows[k]
            rik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pivot - rik * rk[j]).exact_div(prev)
            ri[k] = _ZERO
        prev = pivot
    det = rows[n - 1][n - 1]
    return -det if sign < 0 else det


@lru_cache(maxsize=None)
def _interp_weights(xs: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer Lagrange solve for the points ``xs``.

    Returns ``(W, D)`` with coefficient_k = sum_i W[k][i]*y_i / D exactly.
    """
    npts = len(xs)
    basis: list[list[Fraction]] = [[Fraction(0)] * npts for _ in range(npts)]
    for i, xi in enumerate(xs):
        num = [Fraction(1)]
        den = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            den *= xi - xj
            num = [Fraction(0)] + num
            for k in range(len(num) - 1):
                num[k] -= num[k + 1] * xj
        for k in range(npts):
            basis[k][i] = (num[k] if k < len(num) else Fraction(0)) / den
    lcm = 1
    for row in basis:
        for f in row:
            lcm = lcm // gcd(lcm, f.denominator) * f.denominator
    weights = tuple(
        tuple(int(f * lcm) for f in row) for row in basis
    )
    return weights, lcm


def _eval_points(count: int) -> tuple[int, ...]:
    pts = [0]
    k = 1
    while len(pts) < count:
        pts.append(k)
        if len(pts) < count:
            pts.append(-k)
        k += 1
    return tuple(pts)


def _pencil_det_eval_interp(
    const: list[list[int]], linear: list[list[int]]
) -> IntPolynomial:
    """det(const + t*linear) by evaluation at n+1 points and interpolation."""
    n = len(const)
    xs = _eval_points(n + 1)
    ys = []
    for x in xs:
        rows = [
            [const[i][j] + x * linear[i][j] for j in range(n)] for i in range(n)
        ]
        ys.append(_det_bareiss_int(rows))
    weights, denom = _interp_weights(xs)
    coeffs = []
    for wrow in weights:
        num = sum(w * y for w, y in zip(wrow, ys))
        if num % denom:
            raise MethodDisagreement("interpolation produced a non-integer")
        coeffs.append(num // denom)
    return IntPolynomial(tuple(coeffs))


def _pencil_det_fraction_free(
    const: list[list[int]], linear: list[list[int]]
) -> IntPolynomial:
    n = len(const)
    rows = [
        [
            IntPolynomial((const[i][j], linear[i][j]))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return _det_bareiss_poly(rows)


def pencil_determinant(
    matrix: SeifertMatrix, method: str = "fraction_free"
) -> IntPolynomial:
    """Exact determinant of V - t V^T as an integer polynomial.

    ``method`` is ``fraction_free`` or ``eval_interp``; both are exact and
    must agree (see :func:`alexander` checked mode).
    """
    rows = matrix.rows
    n = matrix.n
    const = [[rows[i][j] for j in range(n)] for i in range(n)]
    linear = [[-rows[j][i] for j in range(n)] for i in range(n)]
    if method == "fraction_free":
        return _pencil_det_fraction_free(const, linear)
    if method == "eval_interp":
        return _pencil_det_eval_interp(const, linear)
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
    matrix = seifert_matrix(code)
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


def _descartes_positive_roots(coeffs: tuple[int, ...]) -> int:
    """Sign changes of the coefficient sequence; exact count of positive
    roots (with multiplicity) when all roots are real."""
    signs = [1 if c > 0 else -1 for c in coeffs if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def signature(code: FlatBasketCode) -> int:
    """Signature of V + V^T, computed exactly.

    The characteristic polynomial of the symmetric pairing is obtained by an
    exact pencil determinant; since all its roots are real, Descartes' rule
    counts the positive and negative eigenvalues exactly.
    """
    sym = symmetrized(seifert_matrix(code))
    n = len(sym)
    const = [[-sym[i][j] for j in range(n)] for i in range(n)]
    linear = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    char = _pencil_det_eval_interp(const, linear)
    positives = _descartes_positive_roots(char.coeffs)
    negated = tuple(c if k % 2 == 0 else -c for k, c in enumerate(char.coeffs))
    negatives = _descartes_positive_roots(negated)
    return positives - negatives
