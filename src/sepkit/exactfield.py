"""Exact arithmetic in a declared number field Q(a) = Q[x]/(m(x)).

Every index, residue, and holonomy in the toolkit lives in one number
field fixed by the input file.  Elements are coordinate vectors over the
power basis 1, a, ..., a^(d-1) with Fraction coefficients, so all
computations are exact; nothing here ever touches a float.

The minimal polynomial is stored as its "monic tail": the coefficients
c0..c_(d-1) of m(x) = x^d + c_(d-1) x^(d-1) + ... + c0.  The leading 1
is implicit.  Construction applies a partial irreducibility screen (no
rational root when d > 1, squarefree always); a reducible m that slips
past the screen surfaces later as a DivisionByZero on a zero divisor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Sequence

from .errors import (
    BadFieldElement,
    DivisionByZero,
    FieldMismatch,
    InvalidNumberField,
    ZeroElement,
)

# Rationals are plain stdlib Fractions: always reduced, denominator > 0.
Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def parse_rational(value) -> Fraction:
    """Parse "p/q" or "p" (or a JSON integer) into a Fraction."""
    if isinstance(value, bool):
        raise BadFieldElement(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if _RATIONAL_RE.match(text):
            return Fraction(text)
    raise BadFieldElement(f"not a rational: {value!r}")


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Dense polynomial helpers over Q.  Coefficients are Fractions, lowest
# degree first, with no trailing zeros (the zero polynomial is ()).


def _trim(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    last = len(coeffs)
    while last > 0 and coeffs[last - 1] == 0:
        last -= 1
    return tuple(coeffs[:last])


def _poly_sub(p: Sequence[Fraction], q: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = max(len(p), len(q))
    pp = tuple(p) + (_ZERO,) * (n - len(p))
    qq = tuple(q) + (_ZERO,) * (n - len(q))
    return _trim([a - b for a, b in zip(pp, qq)])


def _poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if not p or not q:
        return ()
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _poly_divmod(p, q):
    """Quotient and remainder of p by q (q nonzero)."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [_ZERO] * max(len(p) - len(q) + 1, 0)
    lead = q[-1]
    while len(rem) >= len(q) and _trim(rem):
        rem = list(_trim(rem))
        if len(rem) < len(q):
            break
        factor = rem[-1] / lead
        shift = len(rem) - len(q)
        quo[shift] = factor
        for i, b in enumerate(q):
            rem[shift + i] -= factor * b
        rem.pop()
    return _trim(quo), _trim(rem)


def _poly_gcd(p, q):
    """Monic gcd of two rational polynomials."""
    a, b = _trim(p), _trim(q)
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)
    return a


def _poly_derivative(p):
    return _trim([p[i] * i for i in range(1, len(p))])


def _full_poly(min_poly: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Monic tail -> complete coefficient list, leading 1 included."""
    return tuple(min_poly) + (_ONE,)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            large.append(n // d)
    if small and small[-1] == large[-1]:
        large.pop()
    return small + large[::-1]


def _has_rational_root(full: Sequence[Fraction]) -> bool:
    """Rational root test after clearing denominators."""
    denom_lcm = 1
    for c in full:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in full]
    if ints[0] == 0:
        return True  # x = 0 is a root
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            if gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                acc = _ZERO
                for c in reversed(full):
                    acc = acc * cand + c
                if acc == 0:
                    return True
    return False


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumberField:
    """Q[x]/(m(x)) for a monic m given by its tail coefficients c0..c_(d-1)."""

    min_poly: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.min_poly)
        object.__setattr__(self, "min_poly", coeffs)
        if len(coeffs) < 1:
            raise InvalidNumberField("minimal polynomial must have degree >= 1")
        full = _full_poly(coeffs)
        if _poly_gcd(full, _poly_derivative(full)) != (_ONE,):
            raise InvalidNumberField("minimal polynomial is not squarefree")
        if len(coeffs) > 1 and _has_rational_root(full):
            raise InvalidNumberField(
                "minimal polynomial of degree > 1 has a rational root"
            )

    @property
    def degree(self) -> int:
        return len(self.min_poly)

    # -- element construction ------------------------------------------------

    def element(self, coeffs: Iterable) -> "FieldElement":
        vec = tuple(Fraction(c) for c in coeffs)
        if len(vec) != self.degree:
            raise BadFieldElement(
                f"expected {self.degree} coefficients, got {len(vec)}"
            )
        return FieldElement(self, vec)

    def from_rational(self, q) -> "FieldElement":
        q = Fraction(q)
        return self.element((q,) + (_ZERO,) * (self.degree - 1))

    def zero(self) -> "FieldElement":
        return self.from_rational(0)

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def alpha(self) -> "FieldElement":
        """The class of x, i.e. the generator a.  For d = 1 this is -c0."""
        if self.degree == 1:
            return self.from_rational(-self.min_poly[0])
        vec = [_ZERO] * self.degree
        vec[1] = _ONE
        return self.element(vec)

    # -- serialization -------------------------------------------------------

    def parse_element(self, values) -> "FieldElement":
        if not isinstance(values, (list, tuple)):
            raise BadFieldElement(f"field element must be an array, got {values!r}")
        if len(values) != self.degree:
            raise BadFieldElement(
                f"field element needs {self.degree} entries, got {len(values)}"
            )
        return self.element([parse_rational(v) for v in values])

    def to_json(self) -> dict:
        return {
            "min_poly": [format_rational(c) for c in self.min_poly],
            "degree": self.degree,
        }

    @classmethod
    def from_json(cls, obj) -> "NumberField":
        if not isinstance(obj, dict) or "min_poly" not in obj:
            raise InvalidNumberField('field must be {"min_poly": [...]}')
        unknown = set(obj) - {"min_poly", "degree"}
        if unknown:
            raise InvalidNumberField(f"unknown field keys: {sorted(unknown)}")
        raw = obj["min_poly"]
        if not isinstance(raw, list) or not raw:
            raise InvalidNumberField("min_poly must be a non-empty array")
        coeffs = tuple(parse_rational(v) for v in raw)
        if "degree" in obj and obj["degree"] != len(coeffs):
            raise InvalidNumberField(
                f"declared degree {obj['degree']} != len(min_poly) = {len(coeffs)}"
            )
        return cls(coeffs)


@dataclass(frozen=True)
class FieldElement:
    """An element of a NumberField, as exactly `degree` Fraction coordinates."""

    field: NumberField
    coeffs: tuple[Fraction, ...]

    # -- basic queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def rational_value(self) -> Fraction | None:
        """The element as a Fraction if it lies in Q, else None."""
        if any(c != 0 for c in self.coeffs[1:]):
            return None
        return self.coeffs[0]

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch(
                    "elements of different number fields cannot be combined"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return FieldElement(
            self.field, tuple(a + b for a, b in zip(self.coeffs, rhs.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        prod = _poly_mul(self.coeffs, rhs.coeffs)
        _, rem = _poly_divmod(prod, _full_poly(self.field.min_poly))
        vec = list(rem) + [_ZERO] * (self.field.degree - len(rem))
        return FieldElement(self.field, tuple(vec))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via the extended Euclidean algorithm.

        Over Q (degree 1) it is the plain reciprocal.
        """
        if self.is_zero:
            raise DivisionByZero("division by zero")
        if self.field.degree == 1:
            return FieldElement(self.field, (1 / self.coeffs[0],))
        m = _full_poly(self.field.min_poly)
        # Extended Euclid tracking only the coefficient of b in the
        # combination r_i = s_i*b + t_i*m; t is never needed.
        r0, r1 = _trim(self.coeffs), m
        s0, s1 = (_ONE,), ()
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if len(r0) != 1:
            # gcd(b, m) is non-constant, so m is reducible and b a zero divisor.
            raise DivisionByZero(
                "element is not invertible; the declared minimal polynomial "
                "is reducible"
            )
        scale = r0[0]
        inv = [c / scale for c in s0]
        _, rem = _poly_divmod(inv, m)
        vec = list(rem) + [_ZERO] * (self.field.degree - len(rem))
        return FieldElement(self.field, tuple(vec))

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        out = self.field.one()
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- rendering -------------------------------------------------------------

    def to_json(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]

    def __str__(self):
        parts = []
        for power, c in enumerate(self.coeffs):
            if c == 0:
                continue
            unit = "" if power == 0 else ("a" if power == 1 else f"a^{power}")
            if unit and abs(c) == 1:
                parts.append(("-" if c < 0 else "") + unit)
            else:
                parts.append(format_rational(c) + ("*" + unit if unit else ""))
        if not parts:
            return "0"
        text = parts[0]
        for p in parts[1:]:
            text += " - " + p[1:] if p.startswith("-") else " + " + p
        return text


# ---------------------------------------------------------------------------
# Roots of unity


def _totient(n: int) -> int:
    phi, m = 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            phi *= (p - 1) * p ** (e - 1)
        p += 1
    if m > 1:
        phi *= m - 1
    return phi


def unity_candidates(degree: int) -> tuple[int, ...]:
    """All n with totient(n) <= degree, ascending.

    A primitive n-th root of unity generates an extension of degree
    totient(n), so only these orders can occur inside the field.  The
    bound totient(n) >= sqrt(n/2) caps the search at n <= 2*degree^2.
    """
    limit = 2 * degree * degree + 1
    return tuple(n for n in range(1, limit + 1) if _totient(n) <= degree)


def is_root_of_unity(u: FieldElement) -> int | None:
    """The least n >= 1 with u^n = 1, or None if u has infinite order."""
    if u.is_zero:
        raise ZeroElement("zero is not a root of unity")
    one = u.field.one()
    for n in unity_candidates(u.field.degree):
        if u ** n == one:
            return n
    return None


# ---------------------------------------------------------------------------
# Q-linear rank


def fraction_free_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by Bareiss fraction-free elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank, row, prev = 0, 0, 1
    for col in range(n_cols):
        pivot_row = None
        for r in range(row, n_rows):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        for r in range(row + 1, n_rows):
            for c in range(col + 1, n_cols):
                m[r][c] = (m[row][col] * m[r][c] - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = m[row][col]
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def rational_span_dimension(elements: Sequence[FieldElement]) -> int:
    """Dimension over Q of the span of the given field elements.

    Rows are the coordinate vectors; each is scaled integral first so the
    elimination stays fraction-free.  The empty set has dimension 0.
    """
    elems = list(elements)
    if not elems:
        return 0
    field = elems[0].field
    rows = []
    for e in elems:
        if e.field != field:
            raise FieldMismatch("span requires elements of a single field")
        denom_lcm = 1
        for c in e.coeffs:
            denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
        rows.append([int(c * denom_lcm) for c in e.coeffs])
    return fraction_free_rank(rows)
