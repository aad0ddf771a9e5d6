"""Exact integer-polynomial arithmetic and invariants of basket codes.

Everything here is computed over Z; no floating point anywhere.  The
Alexander polynomial is det(V - t V^T) for the Seifert matrix V of the code,
taken by two mutually checking exact algorithms:

* ``fraction_free``: one-step fraction-free (Bareiss) elimination over Z[t]
  on plain coefficient lists, where every division is exact by
  construction and checked.  Each pivot comes from the whole trailing
  block: a constant +-1 when there is one, else an entry of least degree,
  and within that tier the entry of least Markowitz cost
  (r_i - 1)(c_j - 1), from row and column nonzero counts that are taken
  once and kept up to date as entries fill in or cancel.  Two unit pivots
  in a row make the step a plain a - a_ik * a_kj, with no multiply and no
  division;
* ``eval_interp``: one exact integer determinant at t = 2^B (Kronecker
  substitution).  Hadamard's inequality on |t| = 1 and Cauchy's estimate
  bound every coefficient by sqrt(H), with H read off the entries, so B
  bits per coefficient leave room for the n + 1 balanced base-2^B digits
  c_0..c_n.  A digit left above them, or a break of c_(n-k) = (-1)^n c_k
  (det(V - t V^T) = (-t)^n det(V - t^-1 V^T) for any square V), raises
  :class:`InvariantViolation`.  The integer determinant is a fully
  pivoted Bareiss elimination of its own: a +-1 pivot while the block has
  one, else an entry of least absolute value; a step whose pivot equals
  the previous one changes only the rows and columns it must, and every
  division is a checked ``divmod``.

:func:`alexander` and :func:`knot_determinant` (so :func:`arf` and
``passclass.pass_class``) take at most ``PENCIL_CAP`` bands; a larger code
raises :class:`CapExceeded`.  Every failed internal check, a disagreement
of the two methods included, raises :class:`InvariantViolation`.

The signature of V + V^T comes from one fraction-free symmetric elimination
(Sylvester's law of inertia): the signs of successive leading principal
minors of a congruent matrix count the positive and negative eigenvalues,
with a 2x2 congruence step where the remaining diagonal is zero.  Every
division in it is checked to be exact.

The knot determinant |Delta(-1)| is |det(V + V^T)|, the pencil at t = -1,
so it and the Arf invariant come from one integer Bareiss elimination and
never from the Z[t] pencil.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .codes import FlatBasketCode, surface_stats
from .errors import CapExceeded, InvariantViolation, MalformedCode, NotAKnot, _excerpt
from .seifert import SeifertMatrix, _symmetrized_rows, seifert_matrix

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
        if coeffs and coeffs[-1] == 0:
            end = len(coeffs) - 1
            while end and coeffs[end - 1] == 0:
                end -= 1
            coeffs = coeffs[:end]
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

# Largest exponent parse_polynomial accepts, in a term or as the length of a
# coefficient list less one; the dense coefficient list is allocated up to it.
MAX_EXPONENT = 10_000

_TERM = re.compile(
    r"(?P<sign>[+-])?\s*(?:(?P<coeff>[0-9]+)\s*\*?\s*)?(?P<t>t(?:\^(?P<exp>[0-9]+))?)?"
)

# ASCII only: ``\d`` and ``int`` also read other scripts' digits and ``_``.
_COEFF = re.compile(r"[+-]?[0-9]+")


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse ``t^2 - t + 1`` style text, or an ascending coefficient list.

    A plain comma/space separated list of integers is read as coefficients
    of t^0, t^1, ... (the JSON wire convention), at most
    ``MAX_EXPONENT + 1`` of them.
    """
    s = text.strip()
    if not s:
        raise MalformedCode("empty polynomial text")
    if "t" not in s:
        values = []
        for tok in re.split(r"[,\s]+", s):
            if not tok:
                continue
            if len(values) > MAX_EXPONENT:
                raise MalformedCode(f"more than {MAX_EXPONENT + 1} coefficients")
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

# Blocks of more rows than this take their +-1 pivot from the row with the
# fewest nonzeros, and smaller ones from the first row that has one: on
# seeded knot pencils the scan of every row costs 10-15 % at 4-6 bands and
# saves 20 % at 20 bands and half at 48, with no measurable difference for
# thresholds of 6-12 rows.
_SPARSE_UNIT_ROWS = 8


def _det_bareiss_int(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix (fully pivoted one-step Bareiss).

    ``rows`` is consumed: each step pops the pivot row from the list and the
    pivot column from every row, so the list always holds exactly the
    trailing block, and C-level scans (``in``, ``list.index``,
    ``list.count``) find the pivot.  Moving the pivot from block position
    (p, q) to the front flips the sign when p + q is odd.  The pivot is a
    +-1 whenever the block has one: in the row with the fewest nonzeros
    when the block has more than ``_SPARSE_UNIT_ROWS`` rows, else in the
    first row that has one.  Otherwise it is an entry of least absolute
    value.  A negative pivot has its row negated, flipping the sign again.
    Below the diagonal, V - 2^B V^T holds V's entries, all in {-1, 0, 1},
    so about half the steps of a pencil take a unit pivot while the
    previous pivot is 1, and those steps divide nothing.

    The update of entry (i, j) is (a_ij * pivot - a_ik * a_kj) / prev, with
    prev the previous pivot.  When pivot == prev it is a_ij - a_ik * a_kj /
    prev, so rows with a_ik = 0 stay as they are and only the columns where
    the pivot row is nonzero change.  Every division goes through
    ``divmod``, and a remainder raises :class:`InvariantViolation`.  The
    last 2x2 block is finished as (ad - bc) / prev, checked the same way.

    The Z[t] kernel :func:`_det_bareiss_poly` has its own pivot rule,
    :func:`_pivot_position`: a Python scan of every entry with Markowitz
    costs from maintained nonzero counts.  On integer pencils that scan and
    those counts cost more than they save (3.4x slower at 4 bands, 1.8x at
    24), while the Z[t] kernel is 1.7x slower at 24 bands without the
    Markowitz costs, so the two kernels keep separate rules.
    """
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    sign = 1
    prev = 1
    while len(rows) > 2:
        scan_all = len(rows) > _SPARSE_UNIT_ROWS
        p = -1
        most = -1
        for i, row in enumerate(rows):
            if 1 in row or -1 in row:
                if not scan_all:
                    p = i
                    break
                zeros = row.count(0)
                if zeros > most:
                    p, most = i, zeros
        if p >= 0:
            rk = rows[p]
            q = rk.index(1) if 1 in rk else rk.index(-1)
        else:
            least = 0
            for i, row in enumerate(rows):
                m = min(filter(None, map(abs, row)), default=0)
                if m and (not least or m < least):
                    p, least = i, m
            if not least:
                return 0
            rk = rows[p]
            q = rk.index(least) if least in rk else rk.index(-least)
        del rows[p]
        pivot = rk.pop(q)
        if (p + q) & 1:
            sign = -sign
        if pivot < 0:
            pivot = -pivot
            rk = [-b for b in rk]
            sign = -sign
        if pivot == prev:
            cols = [j for j, b in enumerate(rk) if b]
            for ri in rows:
                rik = ri.pop(q)
                if not rik:
                    continue
                if pivot == 1:
                    for j in cols:
                        ri[j] -= rik * rk[j]
                    continue
                for j in cols:
                    d, r = divmod(rik * rk[j], prev)
                    if r:
                        raise InvariantViolation("inexact integer Bareiss step")
                    ri[j] -= d
        else:
            for i, ri in enumerate(rows):
                rik = ri.pop(q)
                if rik:
                    if pivot == 1:
                        ri = [a - rik * b for a, b in zip(ri, rk)]
                    else:
                        ri = [a * pivot - rik * b for a, b in zip(ri, rk)]
                elif pivot != 1:
                    ri = [a * pivot for a in ri]
                if prev != 1:
                    out = []
                    for a in ri:
                        d, r = divmod(a, prev)
                        if r:
                            raise InvariantViolation("inexact integer Bareiss step")
                        out.append(d)
                    ri = out
                rows[i] = ri
        prev = pivot
    (a, b), (c, d) = rows
    det, r = divmod(a * d - b * c, prev)
    if r:
        raise InvariantViolation("inexact integer Bareiss step")
    return sign * det


def _pivot_position(
    rows: list[list[list[int]]], k: int, row_nz: list[int], col_nz: list[int]
) -> tuple[int, int] | None:
    """Position of the pivot for step k in the block ``rows[k:][k:]``.

    A constant +-1 when there is one, else a nonzero entry of least length;
    within that tier, the entry of least Markowitz cost
    (row_nz[i] - 1) * (col_nz[j] - 1), the most fill its elimination can
    make, with ``row_nz`` and ``col_nz`` the nonzero counts of the rows and
    columns of the block.  Ties go to the first in row-major order, and the
    scan stops at a +-1 of cost 0.  None when the block is zero.
    """
    best = None
    best_tier = best_cost = 0
    n = len(rows)
    for i in range(k, n):
        row = rows[i]
        r = row_nz[i] - 1
        for j in range(k, n):
            e = row[j]
            if not e:
                continue
            tier = 0 if len(e) == 1 and (e[0] == 1 or e[0] == -1) else len(e)
            if best is not None and tier > best_tier:
                continue
            cost = r * (col_nz[j] - 1)
            if best is None or tier < best_tier or cost < best_cost:
                if not tier and not cost:
                    return i, j
                best, best_tier, best_cost = (i, j), tier, cost
    return best


def _det_bareiss_poly(rows: list[list[list[int]]]) -> list[int]:
    """Exact determinant of a matrix over Z[t] (fully pivoted one-step Bareiss).

    Entries and the result are trimmed coefficient lists; ``rows`` is
    overwritten.  Each step takes its pivot from the whole trailing block
    by least fill (see :func:`_pivot_position`), swapping it into place by
    a row and a column swap, each of which flips the sign.  The nonzero
    counts of the block's rows and columns are taken once and then kept up
    to date: swapped with their row or column, decremented when the pivot
    row and column leave the block, and moved by one whenever an update
    turns an entry from zero to nonzero or back.  A pivot with a negative
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
    row_nz = [sum(1 for e in row if e) for row in rows]
    col_nz = [sum(1 for e in col if e) for col in zip(*rows)]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        pos = _pivot_position(rows, k, row_nz, col_nz)
        if pos is None:
            return []
        p, q = pos
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            row_nz[k], row_nz[p] = row_nz[p], row_nz[k]
            sign = -sign
        if q != k:
            for row in rows[k:]:
                row[k], row[q] = row[q], row[k]
            col_nz[k], col_nz[q] = col_nz[q], col_nz[k]
            sign = -sign
        rk = rows[k]
        if rk[k][-1] < 0:
            rk[k:] = [[-c for c in e] for e in rk[k:]]
            sign = -sign
        pivot = rk[k]
        for j in range(k + 1, n):
            if rk[j]:
                col_nz[j] -= 1
        unit_pivot = pivot == [1]
        unit_prev = prev == [1]
        same = pivot == prev
        for i in range(k + 1, n):
            ri = rows[i]
            rik = ri[k]
            if rik:
                row_nz[i] -= 1
            elif same:
                continue
            for j in range(k + 1, n):
                a = ri[j]
                b = rk[j] if rik else []
                if not b and (not a or same):
                    continue
                num = a if unit_pivot else _poly_mul(a, pivot)
                if b:
                    num = _poly_sub(num, _poly_mul(rik, b))
                new = num if unit_prev else _poly_exact_div(num, prev)
                if (not a) != (not new):
                    step = 1 if new else -1
                    row_nz[i] += step
                    col_nz[j] += step
                ri[j] = new
        prev = pivot
    det = rows[n - 1][n - 1]
    return [-c for c in det] if sign < 0 else det


def _pencil_det_fraction_free(rows: tuple[tuple[int, ...], ...]) -> IntPolynomial:
    """det(V - t V^T) by Bareiss elimination over Z[t]."""
    pencil = [
        [[v, -w] if w else [v] if v else [] for v, w in zip(row, col)]
        for row, col in zip(rows, zip(*rows))
    ]
    return IntPolynomial(tuple(_det_bareiss_poly(pencil)))


def _hadamard_square(rows: tuple[tuple[int, ...], ...]) -> int:
    """H = prod_i s_i with s_i = sum_j l1(M_ij)^2 for M(t) = V - t V^T.

    l1(M_ij) = |v_ij| + |v_ji| is the sum of the absolute coefficients of
    the entry (2|v_ii| on the diagonal).  On |t| = 1 every |M_ij(t)| is at
    most l1(M_ij), so Hadamard's inequality gives |det M(t)| <= sqrt(H)
    there, and Cauchy's estimate bounds every coefficient of det M(t) by
    sqrt(H).  H = 0 exactly when some row of M(t) is zero.
    """
    h = 1
    for i, row in enumerate(rows):
        s = 0
        for j, v in enumerate(row):
            l1 = abs(v) + abs(rows[j][i])
            s += l1 * l1
        h *= s
    return h


def _pencil_det_eval_interp(
    rows: tuple[tuple[int, ...], ...], h: int | None = None
) -> IntPolynomial:
    """det(V - t V^T) from one integer determinant at t = 2^B.

    Every coefficient c_k has |c_k| <= sqrt(H) < 2^(B - 1) for
    B = ceil(bitlen(H) / 2) + 1 (see :func:`_hadamard_square`), so the
    determinant at t = 2^B is sum_k c_k 2^(Bk) and its n + 1 balanced
    base-2^B digits are c_0..c_n (Kronecker substitution).  Anything left
    after them, or a break of c_(n-k) = (-1)^n c_k, which holds because
    det(V - t V^T) = (-t)^n det(V - t^-1 V^T), raises
    :class:`InvariantViolation`.  A caller that already knows H for these
    rows passes it as ``h``; the search knows it once per matching.
    """
    n = len(rows)
    if h is None:
        h = _hadamard_square(rows)
    if not h:
        return _ZERO
    bits = (h.bit_length() + 1) // 2 + 1
    x = 1 << bits
    value = _det_bareiss_int(
        [[rows[i][j] - x * rows[j][i] for j in range(n)] for i in range(n)]
    )
    mask = x - 1
    half = x >> 1
    coeffs = []
    for _ in range(n + 1):
        digit = value & mask
        if digit >= half:
            digit -= x
        coeffs.append(digit)
        value = (value - digit) >> bits
    if value:
        raise InvariantViolation("pencil value has digits above degree n")
    sign = -1 if n % 2 else 1
    if any(coeffs[n - k] != sign * c for k, c in enumerate(coeffs)):
        raise InvariantViolation("pencil coefficients break c_(n-k) = (-1)^n c_k")
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

# Most bands :func:`alexander` takes.  On 40 seeded random 48-band knots a
# checked ``invariants`` takes 0.11 s in the median (0.20 s at most), and
# the Z[t] elimination is the slower pencil method: 0.085 s against 0.019 s
# for the integer determinant.  It also grows fastest, and it holds the cap:
# at 56 bands it alone takes 0.21 s in the median, and the command 0.28 s
# (0.65 s at most), more than 48 bands took with a dense integer Bareiss
# (0.21 s, 0.37 s at most).
PENCIL_CAP = 48


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
    raises :class:`InvariantViolation` (an arithmetic bug, not bad input).
    """
    return _alexander_of_matrix(code, seifert_matrix(code), method, checked)


def _alexander_of_matrix(
    code: FlatBasketCode, matrix: SeifertMatrix, method: str, checked: bool
) -> AlexanderPolynomial:
    """:func:`alexander` from the code's Seifert matrix, for callers that
    also need the matrix for the signature.  Raises :class:`CapExceeded`
    above ``PENCIL_CAP`` bands, before any pencil."""
    if matrix.n > PENCIL_CAP:
        raise CapExceeded(f"{matrix.n} bands exceeds the pencil cap {PENCIL_CAP}")
    raw = pencil_determinant(matrix, method)
    if checked:
        other = "eval_interp" if method == "fraction_free" else "fraction_free"
        again = pencil_determinant(matrix, other)
        if again != raw:
            raise InvariantViolation(
                f"determinant methods disagree on {code}: {raw} vs {again}"
            )
    return normalize_alexander(raw)


def determinant_from_alexander(delta: AlexanderPolynomial) -> int:
    """|Delta(-1)|, the determinant of a knot with Alexander polynomial delta."""
    return abs(delta.normalized.evaluate(-1))


def knot_determinant(code: FlatBasketCode) -> int:
    """|Delta(-1)| for a knot code of at most ``PENCIL_CAP`` bands; the cap
    is checked before any elimination."""
    stats = surface_stats(code)
    if stats.boundary != 1:
        raise NotAKnot(f"{code} bounds {stats.boundary} components")
    if code.n > PENCIL_CAP:
        raise CapExceeded(f"{code.n} bands exceeds the pencil cap {PENCIL_CAP}")
    return _knot_determinant_of_rows(seifert_matrix(code).rows)


def _knot_determinant_of_rows(rows) -> int:
    """|det(V + V^T)| for the integer matrix rows V: the pencil at t = -1, so
    |Delta(-1)| exactly, from one integer Bareiss instead of one over Z[t]."""
    return abs(_det_bareiss_int(_symmetrized_rows(rows)))


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
    raise InvariantViolation(f"knot determinant {det} is even")


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
    :class:`InvariantViolation`.  Elimination stops when the remaining block
    is zero, as it is for the singular S of a link.
    """
    n = len(rows)
    a = _symmetrized_rows(rows)
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
                    raise InvariantViolation("inexact symmetric elimination step")
                ri[j] = a[j][i] = q
        prev = pivot
    return total
