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

The kernel is the standard power-basis arithmetic.  Each field reduces
x^d, ..., x^(2d-2) modulo m once, into a table of integer rows over one
common denominator.  A product clears the denominators of both factors,
convolves the integer numerators, folds the coefficients of degree >= d
back through the table, and builds d Fractions at the end.  The inverse
of u solves M c = e0, where column j of M is the coordinate vector of
u a^j: each column is kept as integer numerators over a known
denominator, and the system is solved by Bareiss fraction-free
elimination with an integer back substitution, so the d coordinates are
the only Fractions it builds.  M is singular exactly
when u is a zero divisor, which raises DivisionByZero.  Degree 1 uses
the plain Fraction operations.

One Bareiss forward elimination (`_bareiss`) serves both the inverse and
the Q-rank of a span of elements (`fraction_free_rank`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

from .errors import (
    BadFieldElement,
    DivisionByZero,
    FieldMismatch,
    InvalidNumberField,
    ZeroElement,
)

__all__ = ["FieldElement", "NumberField", "parse_rational", "rational_span_dimension"]

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
            try:
                return Fraction(text)
            except ValueError:  # past the interpreter's int-string digit limit
                raise BadFieldElement(
                    f"rational literal too long: {len(text)} characters"
                ) from None
    raise BadFieldElement(f"not a rational: {value!r}")


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Coefficient vectors over Q: Fractions, lowest degree first.


def _as_fraction(c) -> Fraction:
    return c if type(c) is Fraction else Fraction(c)


def _integral(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator, and that one."""
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


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
    ints, _ = _integral(full)  # full: m with its leading 1, lowest degree first
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


def _bareiss(a: list[list[int]], n_cols: int) -> tuple[int, int]:
    """Bareiss fraction-free forward elimination of a, in place.

    Pivots are taken in the first n_cols columns with row pivoting, and a
    column without one is skipped; the rows are updated over their full
    width, so a right-hand side past n_cols is carried along.  Returns the
    rank and the last pivot.
    """
    rank, prev = 0, 1
    for k in range(n_cols):
        pivot = next((r for r in range(rank, len(a)) if a[r][k]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = a[rank]
        for row in a[rank + 1:]:
            lead = row[k]
            for c in range(k + 1, len(top)):
                row[c] = (top[k] * row[c] - lead * top[c]) // prev
            row[k] = 0
        prev = top[k]
        rank += 1
    return rank, prev


def _solve_unit(cols: list[list[int]]) -> tuple[list[int], int]:
    """Integers y and D != 0 with sum_j (y_j / D) cols[j] = e0.

    Bareiss elimination of the square integer matrix with these columns,
    augmented by e0.  D is the last pivot, +-det; by Cramer's rule D times
    each unknown is an integer, so the back substitution divides exactly.
    Rank below n: the matrix is singular, its element a zero divisor.
    """
    n = len(cols)
    a = [[col[i] for col in cols] + [int(i == 0)] for i in range(n)]
    rank, det = _bareiss(a, n)
    if rank < n:
        raise DivisionByZero(
            "element is not invertible; the declared minimal polynomial "
            "is reducible"
        )
    y = [0] * n
    for k in reversed(range(n)):
        row = a[k]
        acc = det * row[n] - sum(row[c] * y[c] for c in range(k + 1, n))
        y[k] = acc // row[k]
    return y, det


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumberField:
    """Q[x]/(m(x)) for a monic m given by its tail coefficients c0..c_(d-1).

    Besides the declared tail it keeps the reduction table: row k - d holds
    the integer numerators of x^k mod m over the common denominator
    `_table_den`, for k = d..2d-2.
    """

    min_poly: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(_as_fraction(c) for c in self.min_poly)
        object.__setattr__(self, "min_poly", coeffs)
        d = len(coeffs)
        if d < 1:
            raise InvalidNumberField("minimal polynomial must have degree >= 1")
        rows, row = [], [-c for c in coeffs]  # x^d = -(c0 + c1 x + ...)
        for _ in range(d - 1):  # x^(k+1) = x * x^k, folding x^d back
            rows.append(row)
            row = [s - row[-1] * c for s, c in zip([_ZERO] + row[:-1], coeffs)]
        den = lcm(*[r.denominator for row in rows for r in row])
        object.__setattr__(self, "_table_den", den)
        object.__setattr__(self, "_table", tuple(
            tuple(r.numerator * (den // r.denominator) for r in row)
            for row in rows
        ))
        # m is squarefree iff gcd(m, m') = 1 iff m'(a), of degree d - 1, is
        # a unit, i.e. its multiplication matrix is nonsingular.
        derivative = [i * c for i, c in enumerate(coeffs) if i] + [Fraction(d)]
        try:
            _solve_unit(self._columns(_integral(derivative)[0]))
        except DivisionByZero:
            raise InvalidNumberField("minimal polynomial is not squarefree") from None
        if d > 1 and _has_rational_root(coeffs + (_ONE,)):
            raise InvalidNumberField(
                "minimal polynomial of degree > 1 has a rational root"
            )

    def _columns(self, num: list[int]) -> list[list[int]]:
        """Integer columns of u, u a, ..., u a^(d-1) for u with numerators num.

        Column j is over den(u) * _table_den^j: multiplying by a shifts up
        and folds a^d back through the first table row.
        """
        cols = [num]
        for _ in range(self.degree - 1):
            prev = cols[-1]
            shifted = [0] + prev[:-1]
            cols.append([self._table_den * s + prev[-1] * r
                         for s, r in zip(shifted, self._table[0])])
        return cols

    @property
    def degree(self) -> int:
        return len(self.min_poly)

    # -- element construction ------------------------------------------------

    def element(self, coeffs: Iterable) -> "FieldElement":
        vec = tuple(_as_fraction(c) for c in coeffs)
        if len(vec) != self.degree:
            raise BadFieldElement(
                f"expected {self.degree} coefficients, got {len(vec)}"
            )
        return FieldElement(self, vec)

    def from_rational(self, q) -> "FieldElement":
        return FieldElement(self, (_as_fraction(q),) + (_ZERO,) * (self.degree - 1))

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
        degree = obj.get("degree", len(coeffs))
        if type(degree) is not int:
            raise InvalidNumberField(f"degree must be an integer, got {degree!r}")
        if degree != len(coeffs):
            raise InvalidNumberField(
                f"declared degree {degree} != len(min_poly) = {len(coeffs)}"
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
            if other.field is not self.field and other.field != self.field:
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
        return FieldElement(
            self.field, tuple(a - b for a, b in zip(self.coeffs, rhs.coeffs))
        )

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __mul__(self, other):
        """Convolution of integer numerators, folded back by the field's table."""
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        field = self.field
        d = field.degree
        if d == 1:
            return FieldElement(field, (self.coeffs[0] * rhs.coeffs[0],))
        a, a_den = _integral(self.coeffs)
        b, b_den = _integral(rhs.coeffs)
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        table_den = field._table_den
        out = [table_den * c for c in conv[:d]]
        for c, row in zip(conv[d:], field._table):
            if c:
                out = [o + c * r for o, r in zip(out, row)]
        den = a_den * b_den * table_den
        return FieldElement(field, tuple(Fraction(n, den) for n in out))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse: the solution c of M c = e0.

        Column j of M is the coordinate vector of u a^j, so sum c_j a^j is
        the inverse of u.  The columns are integer numerators, the j-th over
        den(u) * _table_den^j (`NumberField._columns`), and the system is
        solved fraction free (`_solve_unit`).  Over Q (degree 1) it is the
        plain reciprocal.
        """
        if self.is_zero:
            raise DivisionByZero("division by zero")
        field = self.field
        if field.degree == 1:
            return FieldElement(field, (1 / self.coeffs[0],))
        num, den = _integral(self.coeffs)
        y, det = _solve_unit(field._columns(num))
        return FieldElement(field, tuple(
            Fraction(y_j * den * field._table_den ** j, det)
            for j, y_j in enumerate(y)
        ))

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
    if not rows:
        return 0
    return _bareiss([list(r) for r in rows], len(rows[0]))[0]


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
        rows.append(_integral(e.coeffs)[0])
    return fraction_free_rank(rows)
