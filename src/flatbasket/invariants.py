"""Exact integer-polynomial arithmetic and invariants of basket codes.

Everything here is computed over Z; no floating point anywhere.  The
Alexander polynomial is det(V - t V^T) for the Seifert matrix V of the code,
taken by two mutually checking exact algorithms:

* ``fraction_free``: elimination over Z[t] on trimmed coefficient lists,
  independent of the integer determinant.  Each step pops its pivot row
  and column, so the rows hold exactly the trailing block, and C-level
  scans find the pivot.  While the block holds a monomial +-t^k, a unit of
  Z[t, t^-1], the pivot is one of least k, and the step is Gaussian: only
  the rows with a nonzero in the pivot column change, each multiplied by
  t^k, updated, and divided by its common power of t, and each row keeps
  the power of t it carries.  The first block with no monomial goes to
  fraction-free (Bareiss) steps on an entry of least length, then of least
  |leading coefficient|: from prev = 1 as it stands, or, when its rows
  carry more than one power of t per row beyond the leading minor t^m, from
  prev = t^m with every row brought to that power.  Each Bareiss step
  packs the block's entries as integers at t = 2^W (Kronecker
  substitution), with W from that step's block, and computes each new
  entry with one integer product, difference and ``divmod``.  A remainder,
  or a quotient whose digits do not prove the division exact over Z[t] and
  whose fallback division fails, raises :class:`InvariantViolation`; so
  does a division by a power of t that would drop a nonzero coefficient,
  and a result of degree above n or one that breaks c_(n-k) = (-1)^n c_k
  (det(V - t V^T) = (-t)^n det(V - t^-1 V^T) for any square V);
* ``eval_interp``: one exact integer determinant at t = 2^B (Kronecker
  substitution).  Hadamard's inequality on |t| = 1 and Cauchy's estimate
  bound every coefficient by sqrt(H), with H read off the entries, so B
  bits per coefficient leave room for the n + 1 balanced base-2^B digits
  c_0..c_n.  A digit left above them, or a break of c_(n-k) = (-1)^n c_k,
  raises :class:`InvariantViolation`.  The integer determinant is an
  elimination of its own in two phases: Gaussian steps, taken with shifts,
  on a +-1 and else on the +-x^k of least k (x = 2^B, a unit of Z[1/2])
  while the block holds one, then Bareiss steps on an entry of least
  absolute value.  Every division is a checked ``divmod`` or a shift that
  must drop only zero bits.

Which pencil each kernel receives: ``fraction_free`` reads the rows of a
Seifert matrix V, the labeled V of a code.  ``eval_interp`` takes a builder
of the pencil rows V - x V^T: :func:`pencil_determinant`, which every
command that reads a code goes through, passes one over the rows of V
(:func:`_dense_pencil`), and ``search`` and ``census`` pass the chord-order
pencil of each orientation key (:func:`seifert._key_pencil`), whose V_c is
congruent to the labeled V of every code with that key, so the raw Delta,
sigma and det(V + V^T) are the same.

:func:`alexander`, :func:`knot_determinant` (so :func:`arf` and
``passclass.pass_class``) and :func:`signature` take at most ``PENCIL_CAP``
bands; a larger code raises :class:`CapExceeded`.  Every failed internal
check, a disagreement of the two methods included, raises
:class:`InvariantViolation`.

The signature sigma of S = V + V^T and det S come from one symmetric
elimination, a third kernel that calls neither pencil kernel: unimodular
2x2 steps while S has a principal block [[0, +-1], [+-1, c]], which divide
nothing, then a fraction-free symmetric elimination (Sylvester's law of
inertia) on the rest, with every division checked to be exact.  The kernel
checks every sigma it returns against det S: by Sylvester's law, sign det S
= (-1)^((n - sigma)/2), and whenever det S is odd, by Murasugi's
congruence, |det S| = 1 mod 4 exactly when sigma = 0 mod 4.  det S is the
pencil at t = -1, so the knot determinant |Delta(-1)| and the Arf invariant
come from this kernel and never from a pencil.  Where Delta is computed
too (the ``invariants`` and ``search`` commands), det S = Delta_raw(-1) is
checked exactly.  It reads the rows of V: the labeled V of the code, or in
``search`` and ``orbit-check`` the key's V_c, its pencil builder at x = 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial, reduce
from operator import itemgetter, or_

from .codes import FlatBasketCode, surface_stats
from .errors import CapExceeded, InvariantViolation, MalformedCode, NotAKnot, _excerpt, _shown
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


def _poly_sub_mul(a, c, b) -> list[int]:
    """Trimmed a - c * b of three coefficient lists, with c nonzero."""
    out = list(a)
    grow = len(c) + len(b) - 1 - len(out)
    if grow > 0:
        out += [0] * grow
    for i, ci in enumerate(c):
        if ci:
            for j, cb in enumerate(b, i):
                out[j] -= ci * cb
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
        return IntPolynomial(_poly_sub_mul(self.coeffs, (1,), other.coeffs))

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

# Blocks of more rows than this take their unit pivot (+-1, or +-t^k in the
# Z[t] kernel) from the row with the fewest nonzeros, and smaller ones from
# the first row that has one, in both pencil kernels: on seeded knot
# pencils at t = 2^B the scan of every row costs 10-15 % at 4-6 bands and
# saves 20 % at 20 bands and half at 48, and the Z[t] kernel with constant
# units only ran within 3 % for thresholds of 0-12 rows at 24 bands.
# The 2x2 steps of the symmetric kernel take their row by the same rule:
# on seeded knots it saves 11-13 % at 40-56 bands and is even at 24.  That
# kernel keeps its own scan, as it wants a +-1 in a row with a zero diagonal
# entry: :func:`_unit_position` on a copy of the block with those rows masked
# made the kernel 1.27x slower at 4 bands, 1.21x at 6, 1.07x at 24 and 1.02x
# at 56, and faster in 0, 0, 1 and 4 of 15 interleaved repetitions.
# The unit steps of the Z[t] kernel strip the rows they change of their
# common power of t only in blocks of more than this many rows: against the
# Bareiss kernel it replaced, stripping after every unit step took 1.11x the
# time on the 84 table codes (4-12 bands), 0.81x on seeded 12-band knots
# and 0.84x on 24-band ones, never stripping 0.86x, 0.82x and 0.89x, and
# this rule 0.88x, 0.79x and 0.84x.
_SPARSE_UNIT_ROWS = 8


def _unit_position(rows: list[list], one, minus_one, zero) -> tuple[int, int] | None:
    """Block position (p, q) of the next unit pivot of either pencil
    kernel, or None when the block has no ``one`` and no ``minus_one``.

    The units are +-1 in the integer kernel and +-t^k, for the exponent k
    that :func:`_pivot` asks for, in the Z[t] kernel.  The unit rule: the
    row with the most ``zero`` entries among the rows holding a unit when
    the block has more than ``_SPARSE_UNIT_ROWS`` rows, else the first row
    holding one; in that row the first ``one``, else the first
    ``minus_one``.  Every scan is a C-level ``in``, ``list.count`` or
    ``list.index``, and nothing is computed.
    """
    scan_all = len(rows) > _SPARSE_UNIT_ROWS
    p = -1
    most = -1
    for i, row in enumerate(rows):
        if one in row or minus_one in row:
            if not scan_all:
                p = i
                break
            zeros = row.count(zero)
            if zeros > most:
                p, most = i, zeros
    if p < 0:
        return None
    row = rows[p]
    return p, row.index(one) if one in row else row.index(minus_one)


def _strip_x(row: list[int], bits: int) -> int:
    """Divide the integer row in place by its largest common power x^s of
    x = 2^bits and return s; a zero row is left as it is, with s = 0."""
    if any(map(((1 << bits) - 1).__and__, row)) or not any(row):
        return 0
    low = reduce(or_, row)
    s = ((low & -low).bit_length() - 1) // bits
    row[:] = [a >> (s * bits) for a in row]
    return s


def _shift_x(row: list[int], e: int, bits: int) -> list[int]:
    """The integer row times x^e, x = 2^bits, for any integer e; for e < 0
    the division must be exact, and a nonzero dropped bit raises
    :class:`InvariantViolation`."""
    if e >= 0:
        return [a << (e * bits) for a in row] if e else row
    low = (1 << (-e * bits)) - 1
    if any(map(low.__and__, row)):
        raise InvariantViolation("inexact integer Bareiss step")
    return [a >> (-e * bits) for a in row]


def _power_position(rows: list[list[int]], bits: int) -> tuple[int, int, int] | None:
    """(p, q, k) for the +-x^k, x = 2^bits, of least k >= 1 in the integer
    block, at the block position (p, q) that :func:`_unit_position` gives
    for it, or None when the block holds none."""
    unit = 1 << bits
    k = 1
    top = None
    while True:
        pos = _unit_position(rows, unit, -unit, 0)
        if pos is not None:
            return (*pos, k)
        if top is None:
            top = max(max(max(row), -min(row)) for row in rows)
        unit <<= bits
        k += 1
        if unit > top:
            return None


def _least_position(rows: list[list[int]]) -> tuple[int, int] | None:
    """Block position (p, q) of the next Bareiss pivot of the integer
    kernel: in the first row holding an entry of least nonzero |value|, the
    first such entry of positive value, else the first of negative value;
    None for a zero block.  A +-1 is taken whenever the block holds one."""
    least = 0
    for i, row in enumerate(rows):
        low = min(filter(None, map(abs, row)), default=0)
        if low and (not least or low < least):
            p, least = i, low
    if not least:
        return None
    row = rows[p]
    return p, row.index(least) if least in row else row.index(-least)


def _det_bareiss_int(rows: list[list[int]], bits: int) -> int:
    """Exact determinant of an integer matrix in two phases: Gaussian steps
    on the units +-x^k of Z[1/2], x = 2^bits, while they last, then a fully
    pivoted one-step Bareiss.

    ``rows`` is consumed: each step pops the pivot row from the list and the
    pivot column from every row, so the list always holds exactly the
    trailing block, and C-level scans (``in``, ``list.index``,
    ``list.count``) find the pivot.  Moving the pivot from block position
    (p, q) to the front flips the sign when p + q is odd, and a negative
    pivot has its row negated, flipping it again.

    Laurent phase (prev is None): the pivot is a +-1
    (:func:`_unit_position`), else the +-x^k of least k
    (:func:`_power_position`), and the step is Gaussian over Z[1/2].  Row i
    of the block is x^shifts[i] times row i of the Schur complement S, and
    the pivots so far multiply to +-x^m, the leading minor; e = m -
    sum(shifts), so det = +-x^e det(block).  Only the rows with a_iq != 0
    change.  A +-1 step changes in them only the columns where the pivot
    row is nonzero, and strips nothing: its rows seldom gain a factor x,
    and stripping them took 1.06x the time on seeded 24-band knots and 1.5x
    on the 84 table codes.  A step on x^k multiplies each such row by x^k
    with a shift, so a_ij x^k - a_iq a_kj stays an integer, and in a block
    of more than ``_SPARSE_UNIT_ROWS`` rows divides it by its common power
    of x (:func:`_strip_x`); stripping smaller blocks too took 1.05x the
    time on the table codes.  Below the diagonal, V - x V^T holds V's
    entries, all in {-1, 0, 1}, so most steps of a pencil take a +-1 or a
    +-x.

    The switch: the first block with neither goes on as it stands from
    prev = 1 while e >= -(rows left); else its rows are brought to x^m S,
    the block of a Bareiss elimination whose previous pivot is the leading
    minor, and it goes on from prev = x^m with e = 0.  Each row's own power
    keeps the block small, but every minor of it carries the powers of its
    rows.  On seeded knots the rule ran at most 1 % behind the faster of
    the two in total at 12-40 bands, and ahead of both at 56: in 0.79 of
    the time of Bareiss steps on every pivot but a +-1, against 0.93
    rescaling always and 1.10 never (in the Z[t] kernel 0.88, against 0.97
    and 0.95).

    Bareiss phase: the pivot is an entry of least absolute value
    (:func:`_least_position`), so a +-1 whenever the block holds one, and
    every step updates entry (i, j) to (a_ij * pivot - a_iq * a_kj) /
    prev, each division by a prev other than 1 a ``divmod`` whose
    remainder raises :class:`InvariantViolation`.  The last 2x2 block is
    finished as (ad - bc) / prev, checked the same way, times x^e; a
    division by a power of x (:func:`_shift_x`) that would drop a nonzero
    bit raises :class:`InvariantViolation`.

    The Z[t] kernel :func:`_det_bareiss_poly` takes its monomial pivots
    +-t^k by the same rule, in its own code.  The least Markowitz cost
    (r_i - 1)(c_j - 1) among the units of a block of more than 10 rows, from
    column counts taken at every step, costs more than its smaller fill
    saves in both: this kernel ran 1.2x slower at 4 bands and 1.6x at 24,
    and the Z[t] kernel 1.05-1.1x slower at 24 bands, and within 10 %
    either way at 36 and 48.
    """
    n = len(rows)
    if n < 2:
        return rows[0][0] if rows else 1
    sign = 1
    shifts = [0] * n
    e = 0
    prev = None  # None while the steps are Laurent steps
    while len(rows) > 2:
        k = 0
        if prev is not None:
            pos = _least_position(rows)
            if pos is None:
                return 0
        else:
            pos = _unit_position(rows, 1, -1, 0)
            if pos is None:
                found = _power_position(rows, bits)
                if found is None:
                    prev = 1
                    if e < -len(rows):
                        m = e + sum(shifts)
                        for row, d in zip(rows, shifts):
                            row[:] = _shift_x(row, m - d, bits)
                        prev = _shift_x([1], m, bits)[0]
                        e = 0
                    continue
                *pos, k = found
        p, q = pos
        rk = rows.pop(p)
        pivot = rk.pop(q)
        if (p + q) & 1:
            sign = -sign
        if pivot < 0:
            pivot = -pivot
            rk = [-b for b in rk]
            sign = -sign
        if prev is None:
            del shifts[p]
            e += k
            if not k:
                cols = [j for j, b in enumerate(rk) if b]
                for ri in rows:
                    rik = ri.pop(q)
                    if rik:
                        for j in cols:
                            ri[j] -= rik * rk[j]
            else:
                shift = k * bits
                strip = len(rows) >= _SPARSE_UNIT_ROWS
                for i, ri in enumerate(rows):
                    rik = ri.pop(q)
                    if rik:
                        ri = rows[i] = [(a << shift) - rik * b for a, b in zip(ri, rk)]
                        grown = k - _strip_x(ri, bits) if strip else k
                        shifts[i] += grown
                        e -= grown
        else:
            for i, ri in enumerate(rows):
                rik = ri.pop(q)
                if rik:
                    ri = [a * pivot - rik * b for a, b in zip(ri, rk)]
                else:
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
    det, r = divmod(a * d - b * c, prev or 1)
    if r:
        raise InvariantViolation("inexact integer Bareiss step")
    if e:
        det = _shift_x([det], e, bits)[0]
    return sign * det


_ONE, _MINUS_ONE, _NO_ENTRY = [1], [-1], []
_CONSTANT_TERM = itemgetter(0)


def _shift_t(entry: list[int], e: int) -> list[int]:
    """The coefficient list times t^e, for any integer e; for e < 0 the
    division must be exact, and a nonzero dropped coefficient raises
    :class:`InvariantViolation`."""
    if e >= 0:
        return [0] * e + entry if e and entry else entry
    if any(entry[:-e]):
        raise InvariantViolation("inexact Z[t] Bareiss step")
    return entry[-e:]


def _pivot(rows: list[list[list[int]]], laurent: bool) -> tuple[int, int] | None:
    """Block position (p, q) of the next Z[t] pivot.

    When ``laurent``, the +-t^k of least k, found by the unit rule of
    :func:`_unit_position`, with +-t^k and ``[]`` as the unit and zero
    entries, or None when the block holds no monomial.  Otherwise an entry
    of least length, then of least |leading coefficient|, the first in
    row-major order among equals, or None for a zero block.
    """
    if laurent:
        pos = _unit_position(rows, _ONE, _MINUS_ONE, _NO_ENTRY)
        if pos is not None:
            return pos
        for k in range(1, max(max(map(len, row)) for row in rows)):
            pos = _unit_position(rows, [0] * k + _ONE, [0] * k + _MINUS_ONE, _NO_ENTRY)
            if pos is not None:
                return pos
        return None
    lengths = [min(map(len, filter(None, row)), default=0) for row in rows]
    shortest = min(filter(None, lengths), default=0)
    if not shortest:
        return None
    best = None
    for i, row in enumerate(rows):
        if lengths[i] == shortest:
            for j, e in enumerate(row):
                if len(e) == shortest and (best is None or abs(e[-1]) < lead):
                    best, lead = (i, j), abs(e[-1])
                    if lead == 1:
                        return best
    return best


def _strip_t(row: list[list[int]]) -> int:
    """Divide the Z[t] row in place by its largest common power t^s of t and
    return s; a zero row is left as it is, with s = 0."""
    if any(map(_CONSTANT_TERM, filter(None, row))) or not any(row):
        return 0
    s = 1
    while not any(map(itemgetter(s), filter(None, row))):
        s += 1
    row[:] = [e[s:] for e in row]
    return s


def _laurent_step(
    rows: list[list[list[int]]], rk: list[list[int]], q: int, k: int, shifts: list[int]
) -> int:
    """One Gaussian step over Z[t, t^-1] on the pivot t^k, a unit there.

    Row i of the block is t^shifts[i] times row i of the Schur complement S
    over Z[t, t^-1], and the step leaves S_ij - S_iq S_kj / S_kq.  Only the
    rows with a_iq != 0 change: each is multiplied by t^k, so that
    a_ij t^k - a_iq a_kj is a polynomial, updated with one
    :func:`_poly_sub_mul` per nonzero of the pivot row, and then divided by
    its common power t^s of t (:func:`_strip_t`), and its shift grows by
    k - s.  A unit step, k = 0, multiplies nothing, and strips its rows only
    when the block has more than ``_SPARSE_UNIT_ROWS`` rows (see there).
    Column q is popped here.  Returns the sum of the shifts' growth.
    """
    cols = [j for j, b in enumerate(rk) if b]
    if not k and len(rows) < _SPARSE_UNIT_ROWS:
        for ri in rows:
            c = ri.pop(q)
            if c:
                for j in cols:
                    ri[j] = _poly_sub_mul(ri[j], c, rk[j])
        return 0
    pad = [0] * k
    total = 0
    for i, ri in enumerate(rows):
        c = ri.pop(q)
        if not c:
            continue
        if k:
            ri[:] = [pad + a if a else a for a in ri]
        for j in cols:
            ri[j] = _poly_sub_mul(ri[j], c, rk[j])
        grown = k - _strip_t(ri)
        shifts[i] += grown
        total += grown
    return total


def _pack(coeffs: list[int], bits: int) -> int:
    """The coefficient list evaluated at t = 2^bits (Kronecker substitution)."""
    value = 0
    for c in reversed(coeffs):
        value = (value << bits) + c
    return value


def _unpack(value: int, bits: int) -> list[int]:
    """The trimmed coefficient list with every coefficient in
    [-2^(bits - 1), 2^(bits - 1)) whose :func:`_pack` is ``value``: the
    balanced base-2^bits digits of ``value``, ascending."""
    out = []
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    while value:
        digit = value & mask
        value >>= bits
        if digit >= half:
            digit -= mask + 1
            value += 1
        out.append(digit)
    return out


def _quotient_limit(bits: int, prev: list[int]) -> int:
    """Largest max |q_k| for which every coefficient of q * prev is below
    2^(bits - 1) in absolute value: len(prev) * max|q_k| * max|prev_k| is."""
    return ((1 << (bits - 1)) - 1) // (len(prev) * max(max(prev), -min(prev)))


def _packed_step(
    rows: list[list[list[int]]], rk: list[list[int]], q: int,
    pivot: list[int], prev: list[int],
) -> None:
    """One Bareiss step over Z[t] by Kronecker substitution at t = 2^W.

    W is taken from the block (the other ``rows``, whose column q is
    popped here, the pivot row ``rk`` and the pivot) and prev: with L the
    longest entry and C the largest |coefficient|, every coefficient of
    a_ij * pivot - a_iq * a_kj is at most 2 L C^2 < 2^(W - 1), so packing
    it is injective, and prev packs to a nonzero value.  The numerator is
    one ``int`` expression, divided by prev at t = 2^W with ``divmod``; a
    remainder proves the Z[t] division inexact.  The quotient's balanced
    digits q are kept when max|q_k| <= :func:`_quotient_limit`, which
    proves q * prev equal to the numerator over Z[t], as both then pack
    injectively to one value.  Otherwise :func:`_poly_exact_div` divides
    the unpacked numerator.  Every failure raises
    :class:`InvariantViolation`.
    """
    riks = [ri.pop(q) for ri in rows]
    size = top = 0
    for row in (*rows, riks, rk, [pivot, prev]):
        size = max(size, max(map(len, row), default=0))
        top = max(
            top,
            max(map(max, filter(None, row)), default=0),
            -min(map(min, filter(None, row)), default=0),
        )
    bits = (2 * size * top * top).bit_length() + 1
    limit = _quotient_limit(bits, prev)
    packed_pivot = _pack(pivot, bits)
    packed_prev = _pack(prev, bits)
    packed_rk = [_pack(b, bits) for b in rk]
    for ri, rik in zip(rows, riks):
        packed_rik = _pack(rik, bits)
        for j, b in enumerate(packed_rk):
            a = ri[j]
            cross = packed_rik * b
            if not cross and not a:
                continue
            num = _pack(a, bits) * packed_pivot - cross
            quot, rem = divmod(num, packed_prev)
            if rem:
                raise InvariantViolation("inexact Z[t] Bareiss step")
            new = _unpack(quot, bits)
            if new and (max(new) > limit or min(new) < -limit):
                try:
                    new = _poly_exact_div(_unpack(num, bits), prev)
                except ArithmeticError as exc:
                    raise InvariantViolation("inexact Z[t] Bareiss step") from exc
            ri[j] = new


def _det_bareiss_poly(rows: list[list[list[int]]]) -> list[int]:
    """Exact determinant of a matrix over Z[t]: Gaussian steps on the units
    +-t^k of Z[t, t^-1] while they last, then a fully pivoted one-step
    Bareiss.

    Entries and the result are trimmed coefficient lists.  ``rows`` is
    consumed: each step pops the pivot row from the list and the pivot
    column from every row, so the list always holds exactly the trailing
    block, and :func:`_pivot` finds the pivot with C-level scans.  Moving
    the pivot from block position (p, q) to the front flips the sign when
    p + q is odd, and a pivot with a negative leading coefficient has its
    row negated, flipping it again, so a monomial pivot is always t^k.

    Laurent steps: while the block holds a +-t^k, the step is a
    :func:`_laurent_step` on one of least k.  Row i of the block is
    t^shifts[i] times row i of the Schur complement S over Z[t, t^-1], the
    pivots so far multiply to +-t^m, the leading minor, and e = m -
    sum(shifts), so det = +-t^e det(block).  The last 2x2 block is finished
    as (ad - bc) t^e.

    Bareiss steps: the first block with no monomial goes on as it stands
    from prev = [1] while e >= -(rows left); else its rows are brought to
    t^m S, and it goes on from prev = t^m with e = 0, by the rule of
    :func:`_det_bareiss_int`, kept here in this kernel's own code.  The
    update of entry (i, j) is (a_ij * pivot - a_iq * a_kj) / prev, by a
    :func:`_packed_step`, whose every division is proven exact over Z[t] or
    raises :class:`InvariantViolation`, and the result is multiplied by
    t^e; a division by a power of t (:func:`_shift_t`) that would drop a
    nonzero coefficient raises :class:`InvariantViolation`.
    """
    if len(rows) < 2:
        return rows[0][0] if rows else [1]
    sign = 1
    shifts = [0] * len(rows)
    e = 0
    prev = None  # None while the steps are Laurent steps
    while len(rows) > 2 or len(rows) == 2 and prev:
        pos = _pivot(rows, prev is None)
        if pos is None:
            if prev:
                return []
            prev = _ONE
            if e < -len(rows):
                m = e + sum(shifts)
                for row, d in zip(rows, shifts):
                    row[:] = [_shift_t(a, m - d) for a in row]
                prev = _shift_t(_ONE, m)
                e = 0
            continue
        p, q = pos
        rk = rows.pop(p)
        pivot = rk.pop(q)
        if (p + q) & 1:
            sign = -sign
        if pivot[-1] < 0:
            pivot = [-c for c in pivot]
            rk = [[-c for c in b] for b in rk]
            sign = -sign
        if prev is None:
            k = len(pivot) - 1
            del shifts[p]
            e += k - _laurent_step(rows, rk, q, k, shifts)
        else:
            _packed_step(rows, rk, q, pivot, prev)
            prev = pivot
    if prev:
        det = rows[0][0]
    else:
        (a, b), (c, d) = rows
        det = _poly_sub_mul(_poly_mul(a, d), b, c) if b and c else _poly_mul(a, d)
    if e:
        det = _shift_t(det, e)
    return [-c for c in det] if sign < 0 else det


def _pencil_det_fraction_free(rows: tuple[tuple[int, ...], ...]) -> IntPolynomial:
    """det(V - t V^T) by elimination over Z[t] (:func:`_det_bareiss_poly`).

    The result is checked as :func:`_pencil_det_eval_interp` checks its
    own: a degree above n, or a break of c_(n-k) = (-1)^n c_k, raises
    :class:`InvariantViolation`.
    """
    n = len(rows)
    pencil = [
        [[v, -w] if w else [v] if v else [] for v, w in zip(row, col)]
        for row, col in zip(rows, zip(*rows))
    ]
    coeffs = _det_bareiss_poly(pencil)
    if len(coeffs) > n + 1:
        raise InvariantViolation("pencil determinant has degree above n")
    _check_pencil_symmetry(coeffs + [0] * (n + 1 - len(coeffs)))
    return IntPolynomial(tuple(coeffs))


def _check_pencil_symmetry(coeffs: list[int]) -> None:
    """Raise :class:`InvariantViolation` unless the n + 1 coefficients
    c_0..c_n of a pencil det(V - t V^T) of n rows satisfy c_(n-k) = (-1)^n
    c_k, as det(V - t V^T) = (-t)^n det(V - t^-1 V^T) for any square V."""
    mirrored = coeffs[::-1] if len(coeffs) % 2 else [-c for c in reversed(coeffs)]
    if mirrored != coeffs:
        raise InvariantViolation("pencil coefficients break c_(n-k) = (-1)^n c_k")


def _hadamard_square(rows: tuple[tuple[int, ...], ...]) -> int:
    """H = prod_i s_i with s_i = sum_j l1(M_ij)^2 for M(t) = V - t V^T.

    l1(M_ij) = |v_ij| + |v_ji| is the sum of the absolute coefficients of
    the entry (2|v_ii| on the diagonal).  On |t| = 1 every |M_ij(t)| is at
    most l1(M_ij), so Hadamard's inequality gives |det M(t)| <= sqrt(H)
    there, and Cauchy's estimate bounds every coefficient of det M(t) by
    sqrt(H).  H = 0 exactly when some row of M(t) is zero.
    """
    h = 1
    for row, col in zip(rows, zip(*rows)):
        s = 0
        for v, w in zip(row, col):
            if v or w:
                l1 = abs(v) + abs(w)
                s += l1 * l1
        h *= s
    return h


def _dense_pencil(rows: tuple[tuple[int, ...], ...], x: int) -> list[list[int]]:
    """The rows of V - x V^T for the square integer matrix rows V."""
    return [[v - x * w for v, w in zip(row, col)] for row, col in zip(rows, zip(*rows))]


def _pencil_det_eval_interp(n: int, h: int, pencil) -> IntPolynomial:
    """det(V - t V^T) from one integer determinant at t = 2^B, for the n x n
    matrix V whose pencil rows V - x V^T ``pencil(x)`` builds, and H of
    :func:`_hadamard_square` for them.

    Every coefficient c_k has |c_k| <= sqrt(H) < 2^(B - 1) for
    B = ceil(bitlen(H) / 2) + 1, so the determinant at t = 2^B is
    sum_k c_k 2^(Bk) and its n + 1 balanced base-2^B digits are c_0..c_n
    (Kronecker substitution).  Anything left after them, or a break of
    c_(n-k) = (-1)^n c_k, which holds because det(V - t V^T) = (-t)^n
    det(V - t^-1 V^T), raises :class:`InvariantViolation`.  The search
    knows H once per matching and passes each orientation key's pencil
    (:func:`seifert._key_pencil`); :func:`pencil_determinant` passes
    :func:`_dense_pencil` over the rows of its matrix.
    """
    if not h:
        return _ZERO
    bits = (h.bit_length() + 1) // 2 + 1
    x = 1 << bits
    value = _det_bareiss_int(pencil(x), bits)
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
    _check_pencil_symmetry(coeffs)
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
        rows = matrix.rows
        return _pencil_det_eval_interp(
            len(rows), _hadamard_square(rows), partial(_dense_pencil, rows)
        )
    raise ValueError(f"unknown determinant method {method!r}")


# ---------------------------------------------------------------------------
# the Alexander polynomial and friends
# ---------------------------------------------------------------------------

# Most bands :func:`alexander` takes: the largest multiple of 8 at which a
# checked ``invariants`` on 40 seeded random knots (best of 3 per code)
# stays within 0.21 s in the median and 0.37 s at most, what 48 bands took
# with a dense integer Bareiss.  At 56 bands it takes 0.10 s (0.24 s at
# most): 0.048 s in the Z[t] elimination and 0.050 s in the integer
# determinant.  At 64 it takes 0.27 s (0.61 s), the Z[t] elimination
# 0.093 s and the integer determinant 0.16 s, so that method still holds
# the cap.
PENCIL_CAP = 56


def _capped_matrix(code: FlatBasketCode) -> SeifertMatrix:
    """The code's Seifert matrix, built only once the code is checked to
    have at most ``PENCIL_CAP`` bands; a larger one raises
    :class:`CapExceeded`."""
    if code.n > PENCIL_CAP:
        raise CapExceeded(f"{code.n} bands exceeds the pencil cap {PENCIL_CAP}")
    return seifert_matrix(code)


@dataclass(frozen=True)
class AlexanderPolynomial:
    """Raw pencil determinant plus its normalized representative.

    ``normalized`` is raw times +-t^-k, chosen so the minimum degree is 0 and
    the top coefficient is positive; the zero polynomial stays zero.  Two
    Alexander polynomials agree up to units exactly when their normalized
    forms are equal.  ``span`` and ``leading`` are the normalized form's
    degree and top coefficient, None for zero.
    """

    raw: IntPolynomial
    normalized: IntPolynomial

    @property
    def span(self) -> int | None:
        return self.normalized.degree

    @property
    def leading(self) -> int | None:
        return self.normalized.leading or None

    def __str__(self) -> str:
        return str(self.normalized)


def normalize_alexander(poly: IntPolynomial) -> AlexanderPolynomial:
    """Divide out the largest power of t and make the top coefficient positive."""
    if poly.is_zero:
        return AlexanderPolynomial(raw=poly, normalized=poly)
    shifted = poly.shifted(-poly.min_degree)
    if shifted.leading < 0:
        shifted = -shifted
    return AlexanderPolynomial(raw=poly, normalized=shifted)


def alexander(
    code: FlatBasketCode, method: str = "fraction_free", checked: bool = False
) -> AlexanderPolynomial:
    """Alexander polynomial of the boundary link of the code's basket.

    With ``checked=True`` both determinant algorithms run and any mismatch
    raises :class:`InvariantViolation` (an arithmetic bug, not bad input).
    A code of more than ``PENCIL_CAP`` bands raises :class:`CapExceeded`
    before its Seifert matrix is built.
    """
    return _alexander_of_matrix(code, _capped_matrix(code), method, checked)


def _alexander_of_matrix(
    code: FlatBasketCode, matrix: SeifertMatrix, method: str, checked: bool
) -> AlexanderPolynomial:
    """:func:`alexander` from the code's Seifert matrix, for callers that
    also need the matrix for the signature and built it by
    :func:`_capped_matrix`."""
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
    """|Delta(-1)| = |det(V + V^T)| for a knot code of at most ``PENCIL_CAP``
    bands, the cap checked before V is built; the symmetric kernel checks det
    against the signature, and a knot's is odd (:func:`_odd_determinant`)."""
    stats = surface_stats(code)
    if stats.boundary != 1:
        raise NotAKnot(f"{_shown(code)} bounds {stats.boundary} components")
    return _odd_determinant(_signature_and_determinant_of_rows(_capped_matrix(code).rows)[1])


def _odd_determinant(det: int) -> int:
    """|det| of a knot, which is odd; an even one raises
    :class:`InvariantViolation`, as it signals a bug upstream."""
    if not det & 1:
        raise InvariantViolation(f"knot determinant {det} is even")
    return abs(det)


def arf(code: FlatBasketCode) -> int:
    """Arf invariant of the knot bounded by the code's basket."""
    return arf_from_determinant(knot_determinant(code))


def arf_from_determinant(det: int) -> int:
    """Arf invariant of a knot from its determinant.

    0 when the determinant is +-1 mod 8, 1 when it is +-3 mod 8; an even
    one raises (:func:`_odd_determinant`).
    """
    return 0 if _odd_determinant(det) % 8 in (1, 7) else 1


def signature(code: FlatBasketCode) -> int:
    """Signature of S = V + V^T for the code's Seifert matrix V, for a code of
    at most ``PENCIL_CAP`` bands; the cap is checked before the Seifert
    matrix is built."""
    return _signature_and_determinant_of_rows(_capped_matrix(code).rows)[0]


def _checked_signature(rows, raw: IntPolynomial) -> int:
    """sigma of S = V + V^T for the rows V, whose det S from the same
    elimination must be the raw pencil det(V - t V^T) at t = -1, sign
    included.  A break raises :class:`InvariantViolation`."""
    sigma, det = _signature_and_determinant_of_rows(rows)
    at_minus_one = raw.evaluate(-1)
    if det != at_minus_one:
        raise InvariantViolation(
            f"det(V + V^T) = {det} but the pencil at t = -1 is {at_minus_one}"
        )
    return sigma


def _unimodular_step(a: list[list[int]], i: int, j: int) -> int:
    """Eliminate rows and columns i and j of the symmetric block ``a`` in
    place, where a_ii = 0 and a_ij = b = +-1, and return det B = -b^2.

    The principal block B = [[0, b], [b, c]] has det -1 and the integral
    inverse [[-c, b], [b, 0]], so the block left is S_22 - C B^-1 C^T: with
    x and y the rest of rows i and j, entry (r, s) loses u_r x_s + b x_r y_s
    for u = b y - c x.  Only the rows and columns where x or y is nonzero
    change, and nothing is divided.  Rows i and j are popped from the list
    and columns i and j from every row, as in the pencil kernels.
    """
    x = a[i]
    y = a[j]
    b = x[j]
    c = y[j]
    hi, lo = (i, j) if i > j else (j, i)
    del a[hi], a[lo]
    for row in a:
        del row[hi], row[lo]
    del x[hi], x[lo]
    del y[hi], y[lo]
    cols = [s for s, (xs, ys) in enumerate(zip(x, y)) if xs or ys]
    for r in cols:
        row = a[r]
        ur = b * y[r] - c * x[r]
        wr = b * x[r]
        for s in cols:
            row[s] -= ur * x[s] + wr * y[s]
    return -b * b


def _signature_and_determinant_of_rows(rows) -> tuple[int, int]:
    """(sigma, det S) for S = V + V^T and the square integer matrix rows V,
    from one elimination.

    S is symmetric with an even diagonal.  Phase 1 takes
    :func:`_unimodular_step` while the block has a row i with a_ii = 0 and
    a +-1 entry a_ij: its principal 2x2 block [[0, b], [b, c]] has det -1,
    so one positive and one negative eigenvalue, and S is congruent to that
    block plus the step's result.  A step leaves sigma unchanged,
    multiplies det by -1 and divides nothing; the Schur complement of an
    even matrix is even, so every a_ij = +-1 is off the diagonal.  The row is
    the first such one, or the one with the most zeros when the block has
    more than ``_SPARSE_UNIT_ROWS`` rows, and in it the first +1, else the
    first -1.  A block [[a, b], [b, c]] with b = +-1 and ac = 0 has a zero
    diagonal entry, whose row holds b, so the scan misses none.

    Phase 2 is one fraction-free symmetric elimination (Bareiss) with
    diagonal pivots on what is left (Sylvester's law of inertia).  The k-th
    pivot is the leading principal minor D_k of a matrix congruent to the
    block, and it adds +1 when sign(D_k) = sign(D_(k-1)) and -1 otherwise
    (D_0 = 1).  When every remaining diagonal entry is zero but some a_ij is
    not, the congruence "row/col i += row/col j" makes a_ii = 2 a_ij: the
    integer form of a 2x2 Bunch-Kaufman pivot.  It commutes with the
    elimination, so every division stays exact; each remainder is checked
    and a nonzero one raises :class:`InvariantViolation`.  The last pivot is
    the block's determinant.  Elimination stops when the remaining block is
    zero, as it is for the singular S of a link, and det S is then 0.

    By Sylvester's law sign det S = (-1)^q for q negative eigenvalues, and
    n - sigma = 2q when det S != 0.  An even symmetric integer matrix of odd
    determinant has (-1)^(n/2) det = 1 mod 4, which with the sign rule is
    Murasugi's congruence: |det S| = 1 mod 4 exactly when sigma = 0 mod 4.
    A break of either raises :class:`InvariantViolation`.  Neither pencil
    kernel is called, so this is a third elimination, independent of both.
    """
    a = _symmetrized_rows(rows)
    size = len(a)
    det_sign = 1  # the product of the 2x2 steps' determinants
    while True:
        scan_all = len(a) > _SPARSE_UNIT_ROWS
        p = -1
        most = -1
        for i, row in enumerate(a):
            if not row[i] and (1 in row or -1 in row):
                if not scan_all:
                    p = i
                    break
                zeros = row.count(0)
                if zeros > most:
                    p, most = i, zeros
        if p < 0:
            break
        row = a[p]
        det_sign *= _unimodular_step(a, p, row.index(1) if 1 in row else row.index(-1))
    n = len(a)
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
                prev = 0
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
    det = det_sign * prev
    if det and (size - total) % 4 != (0 if det > 0 else 2):
        raise InvariantViolation(
            f"det(V + V^T) = {det} has the wrong sign for signature {total} of {size} rows"
        )
    if det & 1 and (abs(det) % 4 == 1) != (total % 4 == 0):
        raise InvariantViolation(
            f"signature {total} and det(V + V^T) = {det} break Murasugi's congruence"
        )
    return total, det
