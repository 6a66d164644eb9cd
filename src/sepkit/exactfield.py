"""Exact arithmetic in a declared number field Q(a) = Q[x]/(m(x)).

Every index, residue, and holonomy in the toolkit lives in one number
field fixed by the input file.  An element is its coordinate vector over
the power basis 1, a, ..., a^(d-1), kept as integer numerators over one
positive denominator in lowest terms; nothing here ever touches a float.

The minimal polynomial is stored as its "monic tail": the coefficients
c0..c_(d-1) of m(x) = x^d + c_(d-1) x^(d-1) + ... + c0.  The leading 1
is implicit.  Construction applies a partial irreducibility screen (no
rational root when d > 1, squarefree always); a reducible m that slips
past the screen surfaces later as a DivisionByZero on a zero divisor.

The kernel is the standard power-basis arithmetic on the integer
numerators (Cohen, GTM 138, section 4.2), and each result pays one gcd
to reach lowest terms.  Each field reduces x^d, ..., x^(2d-2) modulo m
once, into integer rows over one common denominator.  A product
convolves the numerators of both factors and folds the coefficients of
degree >= d back through that table.  The inverse of u solves M c = e0,
where column j of M is the coordinate vector of u a^j, by Bareiss
fraction-free elimination (`_bareiss`, which also gives the Q-rank of a
span of elements); M is singular exactly when u is a zero divisor, which
raises DivisionByZero.  Over Q (degree 1) an inverse swaps numerator and
denominator.  The order of a root of unity is the first successive power
that equals 1 (`is_root_of_unity`).
"""

from __future__ import annotations

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

_CHUNK = 10 ** 600  # chunks of <= 600 digits pass 640, the least int-string limit


def _read_rational(value) -> tuple[int, int]:
    """Numerator and positive denominator, not necessarily in lowest terms,
    of "p/q" or "p" (surrounding whitespace allowed) or a JSON integer."""
    if isinstance(value, str):
        s = value.strip()
        num, slash, den = s.partition("/")  # isdecimal, not isdigit: int("²") fails
        if ((num.isdecimal() or num[1:].isdecimal() and num[0] in "+-")
                and (not slash or den.isdecimal() and "1" <= den[0] <= "9")):
            try:
                return int(num), int(den) if slash else 1
            except ValueError:  # past the interpreter's int-string digit limit
                raise BadFieldElement(f"rational literal too long: {len(s)} "
                                      "characters") from None
    elif isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    raise BadFieldElement(f"not a rational: {value!r}")


def parse_rational(value) -> Fraction:
    """Parse "p/q" or "p" (or a JSON integer) into a Fraction."""
    return Fraction(*_read_rational(value))


def _decimal(n: int) -> str:
    """str(n), built from chunks that no int-string digit limit refuses."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of n's decimal digits
    high, low = divmod(abs(n), 10 ** k)
    return "-" * (n < 0) + _decimal(high) + _decimal(low).zfill(k)


def _ratio_text(num: int, den: int) -> str:
    return _decimal(num) if den == 1 else f"{_decimal(num)}/{_decimal(den)}"


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    return _ratio_text(q.numerator, q.denominator)


# ---------------------------------------------------------------------------
# Construction screen


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
    lead = lcm(*[c.denominator for c in full])  # full: m with its leading 1
    const = full[0].numerator * (lead // full[0].denominator)
    if const == 0:
        return True  # x = 0 is a root
    for p in _divisors(const):
        for q in _divisors(lead):
            if gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                acc = 0
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

    Besides the declared tail it keeps its zero and one and the reduction
    table: row k - d holds the integer numerators of x^k mod m over the
    common denominator `_table_den`, for k = d..2d-2.
    """

    min_poly: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(map(Fraction, self.min_poly))
        object.__setattr__(self, "min_poly", coeffs)
        d = len(coeffs)
        if d < 1:
            raise InvalidNumberField("minimal polynomial must have degree >= 1")
        rows, row = [], [-c for c in coeffs]  # x^d = -(c0 + c1 x + ...)
        for _ in range(d - 1):  # x^(k+1) = x * x^k, folding x^d back
            rows.append(row)
            row = [s - row[-1] * c for s, c in zip([0] + row[:-1], coeffs)]
        den = lcm(*[r.denominator for row in rows for r in row])
        object.__setattr__(self, "_table_den", den)
        object.__setattr__(self, "_table", tuple(
            tuple(r.numerator * (den // r.denominator) for r in row)
            for row in rows
        ))
        if d > 1:  # x + c0 is squarefree with no root to screen out
            # m is squarefree iff gcd(m, m') = 1 iff m'(a), of degree d - 1,
            # is a unit, i.e. its multiplication matrix is nonsingular.
            derivative = [i * c for i, c in enumerate(coeffs) if i] + [d]
            try:
                _solve_unit(self._columns(self.element(derivative).nums))
            except DivisionByZero:
                raise InvalidNumberField("minimal polynomial is not squarefree") from None
            if _has_rational_root(coeffs + (Fraction(1),)):
                raise InvalidNumberField(
                    "minimal polynomial of degree > 1 has a rational root"
                )
        object.__setattr__(self, "_zero", self.from_rational(0))
        object.__setattr__(self, "_one", self.from_rational(1))

    def _columns(self, num: list[int]) -> list[list[int]]:
        """Integer columns of u, u a, ..., u a^(d-1) for u with numerators num.

        Column j is over den(u) * _table_den^j: multiplying by a shifts up
        and folds a^d back through the first table row.
        """
        cols = [list(num)]
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
        """The element with these rational (int or Fraction) coordinates."""
        pairs = [(c.numerator, c.denominator) for c in coeffs]
        if len(pairs) != self.degree:
            raise BadFieldElement(
                f"expected {self.degree} coefficients, got {len(pairs)}"
            )
        return _lowest(self, *_over_lcm(pairs))

    def from_rational(self, q) -> "FieldElement":
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1),
                            q.denominator)

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def alpha(self) -> "FieldElement":
        """The class of x, i.e. the generator a.  For d = 1 this is -c0."""
        if self.degree == 1:
            return self.from_rational(-self.min_poly[0])
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2), 1)

    # -- serialization -------------------------------------------------------

    def parse_element(self, values) -> "FieldElement":
        if not isinstance(values, (list, tuple)):
            raise BadFieldElement(f"field element must be an array, got {values!r}")
        if len(values) != self.degree:
            raise BadFieldElement(
                f"field element needs {self.degree} entries, got {len(values)}"
            )
        if len(values) == 1:  # over Q: one gcd, no common denominator to find
            n, d = _read_rational(values[0])
            g = gcd(n, d)
            return FieldElement(self, (n // g,), d // g)
        return _lowest(self, *_over_lcm([_read_rational(v) for v in values]))

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
        coeffs = []
        for i, value in enumerate(raw):
            try:
                coeffs.append(parse_rational(value))
            except BadFieldElement as exc:
                raise BadFieldElement(f"field.min_poly[{i}]: {exc}") from None
        degree = obj.get("degree", len(coeffs))
        if type(degree) is not int:
            raise InvalidNumberField(f"degree must be an integer, got {degree!r}")
        if degree != len(coeffs):
            raise InvalidNumberField(
                f"declared degree {degree} != len(min_poly) = {len(coeffs)}"
            )
        return cls(coeffs)


def _over_lcm(pairs) -> tuple[list[int], int]:
    """Numerators n * (L // d) over L = lcm(d), for the (n, d) in pairs."""
    den = lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def _lowest(field: NumberField, nums, den: int) -> "FieldElement":
    """The element with coordinates nums[i] / den, by one gcd in lowest terms."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    return FieldElement(field, tuple(nums), den)


@dataclass(init=False, unsafe_hash=True, slots=True)  # __setattr__ keeps it immutable
class FieldElement:
    """An element of a NumberField: coordinates nums[i] / den over the power
    basis, in lowest terms: den > 0 and gcd(den, *nums) == 1, so equal
    elements have equal nums and den.  Build elements through the field;
    they are immutable, each slot set once by `__init__` through its slot
    descriptor."""

    field: NumberField
    nums: tuple[int, ...]
    den: int

    def __init__(self, field: NumberField, nums: tuple[int, ...], den: int):
        _set_field(self, field)
        _set_nums(self, nums)
        _set_den(self, den)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle through __init__, not setattr
        return FieldElement, (self.field, self.nums, self.den)

    # -- basic queries --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions, lowest degree first."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def rational_value(self) -> Fraction | None:
        """The element as a Fraction if it lies in Q, else None."""
        if any(self.nums[1:]):
            return None
        return Fraction(self.nums[0], self.den)

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
        a_den, b_den = self.den, rhs.den
        nums = [x * b_den + y * a_den for x, y in zip(self.nums, rhs.nums)]
        return _lowest(self.field, nums, a_den * b_den)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-n for n in self.nums), self.den)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + -rhs

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __mul__(self, other):
        """Convolution of the numerators, folded back by the field's table."""
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        field, a, b = self.field, self.nums, rhs.nums
        d = len(a)
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
        return _lowest(field, out, self.den * rhs.den * table_den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse: the solution c of M c = e0.

        Column j of M is the coordinate vector of u a^j, so sum c_j a^j is
        the inverse of u.  The columns are integer numerators, the j-th over
        den(u) * _table_den^j (`NumberField._columns`), and the system is
        solved fraction free (`_solve_unit`).  Over Q (degree 1) it swaps
        numerator and denominator.
        """
        if self.is_zero:
            raise DivisionByZero("division by zero")
        field, nums, den = self.field, self.nums, self.den
        if field.degree == 1:
            return _lowest(field, (den,), nums[0])
        y, det = _solve_unit(field._columns(nums))
        return _lowest(field, [y_j * den * field._table_den ** j
                               for j, y_j in enumerate(y)], det)

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

    def _ratios(self) -> list[tuple[int, int]]:
        """Each coordinate as (numerator, denominator) in lowest terms."""
        den = self.den
        return [(n // g, den // g) for n in self.nums for g in [gcd(n, den)]]

    def to_json(self) -> list[str]:
        return [_ratio_text(n, d) for n, d in self._ratios()]

    def __str__(self):
        parts = []
        for power, (n, d) in enumerate(self._ratios()):
            if n == 0:
                continue
            unit = "" if power == 0 else ("a" if power == 1 else f"a^{power}")
            if unit and abs(n) == d == 1:
                parts.append(("-" if n < 0 else "") + unit)
            else:
                parts.append(_ratio_text(n, d) + ("*" + unit if unit else ""))
        text = parts[0] if parts else "0"
        for p in parts[1:]:
            text += " - " + p[1:] if p.startswith("-") else " + " + p
        return text


_set_field, _set_nums, _set_den = (
    FieldElement.__dict__[name].__set__ for name in ("field", "nums", "den"))


# ---------------------------------------------------------------------------
# Roots of unity


def is_root_of_unity(u: FieldElement) -> int | None:
    """The least n >= 1 with u^n = 1, or None if u has infinite order.

    A primitive n-th root of unity generates a subfield of degree phi(n),
    so the order of u is at most the largest n with phi(n) <= d, and
    phi(n) >= sqrt(n/2) puts that below 2 d^2.  The successive powers u,
    u^2, ..., u^(2 d^2) cost one product each; the first that equals 1
    gives the order.
    """
    if u.is_zero:
        raise ZeroElement("zero is not a root of unity")
    one, power = u.field.one(), u
    for n in range(1, 2 * u.field.degree ** 2 + 1):
        if power == one:
            return n
        power = power * u
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

    Rows are the integer numerators, whose common denominator does not
    change the rank, so the elimination is fraction-free.  The empty set
    has dimension 0.
    """
    elems = list(elements)
    if any(e.field != elems[0].field for e in elems):
        raise FieldMismatch("span requires elements of a single field")
    return fraction_free_rank([e.nums for e in elems])
