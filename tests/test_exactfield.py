import copy
import pickle
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit import exactfield
from sepkit.errors import (
    BadFieldElement,
    DivisionByZero,
    FieldMismatch,
    InvalidNumberField,
    ZeroElement,
)
from sepkit.exactfield import (
    FieldElement,
    NumberField,
    _read_rational,
    format_rational,
    fraction_free_rank,
    is_root_of_unity,
    parse_rational,
    rational_span_dimension,
)

from oracles import (
    euclid_inverse,
    fraction_rank,
    poly_mul_mod,
    power_oracle,
    unity_candidates,
    unity_order_oracle,
)

QQ = NumberField((Fraction(0),))
GAUSS = NumberField((Fraction(1), Fraction(0)))  # x^2 + 1
SQRT2 = NumberField((Fraction(-2), Fraction(0)))  # x^2 - 2
SQRT21 = NumberField((Fraction(-21), Fraction(0)))  # x^2 - 21
ZETA3 = NumberField((Fraction(1), Fraction(1)))  # x^2 + x + 1

# The fields the arithmetic kernel is checked on against the oracle.
KERNEL_FIELDS = {
    "x": QQ,
    "x^2-2": SQRT2,
    "x^3-2": NumberField((Fraction(-2), Fraction(0), Fraction(0))),
    "x^4-10x^2+1": NumberField((Fraction(1), Fraction(0), Fraction(-10), Fraction(0))),
    "x^4+1": NumberField((Fraction(1), Fraction(0), Fraction(0), Fraction(0))),
    "x^3-1/2": NumberField((Fraction(-1, 2), Fraction(0), Fraction(0))),
}


rationals = st.fractions(
    max_denominator=50,
    min_value=Fraction(-50),
    max_value=Fraction(50),
)


def elements(field):
    return st.builds(
        lambda coeffs: field.element(coeffs),
        st.lists(rationals, min_size=field.degree, max_size=field.degree),
    )


class TestParseRational:
    def test_accepts_int_and_strings(self):
        assert parse_rational(3) == 3
        assert parse_rational("-7/2") == Fraction(-7, 2)
        assert parse_rational("0") == 0

    def test_rejects_floats_and_junk(self):
        for bad in (1.5, "1.5", "a", None, [], "3/0"):
            with pytest.raises(BadFieldElement):
                parse_rational(bad)

    def test_oversized_literal_is_a_typed_error(self):
        for text in ("1" * 5000, "1/" + "7" * 5000, "-" + "9" * 4400):
            with pytest.raises(BadFieldElement, match="too long"):
                parse_rational(text)
        assert parse_rational(" +12/18 ") == Fraction(2, 3)
        assert parse_rational("-0/5") == 0

    def test_format_round_trip(self):
        for q in (Fraction(0), Fraction(-7, 2), Fraction(11)):
            assert parse_rational(format_rational(q)) == q


def int_from_digits(text: str) -> int:
    """int(text) for a decimal string of any length, 1000 digits at a time."""
    value = 0
    for start in range(0, len(text), 1000):
        chunk = text[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


class TestFormatRational:
    @given(st.integers(min_value=-10 ** 700, max_value=10 ** 700),
           st.integers(min_value=1, max_value=10 ** 700))
    @settings(max_examples=100)
    def test_matches_str_below_the_limit(self, num, den):
        q = Fraction(num, den)
        expected = str(q.numerator)
        if q.denominator != 1:
            expected += f"/{q.denominator}"
        assert format_rational(q) == expected

    @pytest.mark.parametrize("digits", [
        "1" + "0" * 4998 + "7",
        "".join(str(i % 10) for i in range(1, 5001)),
        "9" * 5000,
    ], ids=["zero-runs", "counting", "nines"])
    def test_five_thousand_digits(self, digits):
        n = int_from_digits(digits)
        assert format_rational(Fraction(n)) == digits
        assert format_rational(Fraction(-n)) == "-" + digits
        assert format_rational(Fraction(1, n)) == "1/" + digits
        assert QQ.from_rational(Fraction(-1, n)).to_json() == ["-1/" + digits]


class TestNumberField:
    def test_rejects_degree_zero(self):
        with pytest.raises(InvalidNumberField):
            NumberField(())

    def test_rejects_non_squarefree(self):
        # x^2 + 2x + 1 = (x + 1)^2
        with pytest.raises(InvalidNumberField, match="^minimal polynomial is not squarefree$"):
            NumberField((Fraction(1), Fraction(2)))

    def test_rejects_rational_root(self):
        message = "^minimal polynomial of degree > 1 has a rational root$"
        # x^2 - 1 has the root 1
        with pytest.raises(InvalidNumberField, match=message):
            NumberField((Fraction(-1), Fraction(0)))
        # x^2 - x - 2 has the root 2
        with pytest.raises(InvalidNumberField, match=message):
            NumberField((Fraction(-2), Fraction(-1)))

    @pytest.mark.parametrize("c0", [Fraction(0), Fraction(3), Fraction(-7, 2)])
    def test_degree_one_runs_no_squarefree_solve(self, monkeypatch, c0):
        # x + c0 is always squarefree, so only degree >= 2 solves for m'(a)^-1.
        calls = []
        original = exactfield._solve_unit
        monkeypatch.setattr(exactfield, "_solve_unit",
                            lambda cols: calls.append(cols) or original(cols))
        NumberField((c0,))
        assert calls == []
        NumberField((Fraction(-2), Fraction(0)))
        assert len(calls) == 1

    def test_degree_one_is_plain_rationals(self):
        e = QQ.from_rational(Fraction(5, 3))
        assert e.rational_value() == Fraction(5, 3)
        assert (e * e).rational_value() == Fraction(25, 9)

    def test_alpha_satisfies_min_poly(self):
        for field in (GAUSS, SQRT2, ZETA3):
            a = field.alpha()
            m = a * a
            for power, c in enumerate(field.min_poly):
                m = m + a ** power * c
            assert m.is_zero

    def test_json_round_trip(self):
        obj = SQRT2.to_json()
        assert obj == {"min_poly": ["-2", "0"], "degree": 2}
        assert NumberField.from_json(obj) == SQRT2
        with pytest.raises(InvalidNumberField):
            NumberField.from_json({"min_poly": ["-2", "0"], "extra": 1})

    @pytest.mark.parametrize("degree", [True, 1.0, "1", None, 2])
    def test_degree_must_be_the_json_integer_length(self, degree):
        with pytest.raises(InvalidNumberField):
            NumberField.from_json({"min_poly": ["0"], "degree": degree})

    def test_parse_element_length_checked(self):
        with pytest.raises(BadFieldElement):
            SQRT2.parse_element(["1"])
        with pytest.raises(BadFieldElement):
            SQRT2.parse_element(["1", "2", "3"])
        with pytest.raises(BadFieldElement):
            SQRT2.parse_element("12")
        e = SQRT2.parse_element(["-1/2", "3"])
        assert e.coeffs == (Fraction(-1, 2), Fraction(3))


class TestArithmetic:
    def test_camacho_root_lives_in_sqrt21(self):
        # (-11 + sqrt(21)) / 10 is a root of 5 t^2 + 11 t + 5
        u = SQRT21.element([Fraction(-11, 10), Fraction(1, 10)])
        value = u * u * 5 + u * 11 + 5
        assert value.is_zero

    def test_string_rendering(self):
        assert str(SQRT2.element([Fraction(1, 2), Fraction(-3)])) == "1/2 - 3*a"
        assert str(SQRT2.element([Fraction(2), Fraction(1, 3)])) == "2 + 1/3*a"
        assert str(-SQRT2.alpha()) == "-a"
        assert str(QQ.from_rational(Fraction(-2, 7))) == "-2/7"
        assert str(GAUSS.zero()) == "0"
        assert str(GAUSS.alpha()) == "a"

    def test_mixed_operand_coercion(self):
        a = SQRT2.alpha()
        assert a * Fraction(1, 2) + 1 == SQRT2.element([1, Fraction(1, 2)])
        assert 1 - a == SQRT2.element([1, -1])
        assert (2 * a) / 2 == a

    def test_field_mismatch_rejected(self):
        with pytest.raises(FieldMismatch):
            SQRT2.alpha() + GAUSS.alpha()

    def test_zero_division(self):
        with pytest.raises(DivisionByZero):
            SQRT2.zero().inverse()
        with pytest.raises(DivisionByZero):
            QQ.zero().inverse()
        with pytest.raises(DivisionByZero):
            SQRT2.one() / SQRT2.zero()

    @given(elements(SQRT2))
    def test_inverse_multiplies_to_one(self, e):
        if e.is_zero:
            return
        assert e * e.inverse() == SQRT2.one()

    @given(rationals)
    def test_degree_one_inverse_matches_generic_path(self, q):
        # Q inverts by the plain reciprocal; the same rational inside
        # Q(sqrt 2) goes through the fraction-free linear solve.
        if q == 0:
            return
        inv = QQ.from_rational(q).inverse()
        assert inv.coeffs == (SQRT2.from_rational(q).inverse().rational_value(),)
        assert isinstance(inv.coeffs[0], Fraction)
        assert inv * QQ.from_rational(q) == QQ.one()

    @given(elements(GAUSS), elements(GAUSS), elements(GAUSS))
    def test_ring_identities(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        assert a * b == b * a

    def test_pow(self):
        i = GAUSS.alpha()
        assert i ** 2 == GAUSS.from_rational(-1)
        assert i ** 0 == GAUSS.one()
        assert i ** -1 == -i
        assert i ** -3 == i
        a = SQRT2.alpha()
        assert a ** 4 == SQRT2.from_rational(4)
        assert (a ** -2) * (a ** 2) == SQRT2.one()

    def test_element_json_is_plain_array(self):
        e = SQRT2.element([Fraction(1, 2), Fraction(-3)])
        assert e.to_json() == ["1/2", "-3"]
        assert SQRT2.parse_element(e.to_json()) == e


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
class TestKernelMatchesPolynomialOracle:
    """Table multiplication and fraction-free inverse against long division
    and extended Euclid, coordinate for coordinate."""

    check = settings(max_examples=50, deadline=None)

    @check
    @given(data=st.data())
    def test_mul(self, name, data):
        field = KERNEL_FIELDS[name]
        a, b = data.draw(elements(field)), data.draw(elements(field))
        product = a * b
        assert product.coeffs == poly_mul_mod(a, b)
        assert all(type(c) is Fraction for c in product.coeffs)
        q = data.draw(rationals)
        scaled = field.from_rational(q)
        assert (a * q).coeffs == (q * a).coeffs == poly_mul_mod(a, scaled)
        assert (a * 3).coeffs == poly_mul_mod(a, field.from_rational(3))

    @check
    @given(data=st.data())
    def test_inverse_and_division(self, name, data):
        field = KERNEL_FIELDS[name]
        a, b = data.draw(elements(field)), data.draw(elements(field))
        if b.is_zero:
            with pytest.raises(DivisionByZero):
                b.inverse()
            with pytest.raises(DivisionByZero):
                a / b
            return
        inv = b.inverse()
        assert inv.coeffs == euclid_inverse(b)
        assert all(type(c) is Fraction for c in inv.coeffs)
        assert (a / b).coeffs == poly_mul_mod(a, field.element(euclid_inverse(b)))
        assert (1 / b).coeffs == euclid_inverse(b)

    @check
    @given(data=st.data())
    def test_pow(self, name, data):
        field = KERNEL_FIELDS[name]
        a = data.draw(elements(field))
        n = data.draw(st.integers(min_value=-5, max_value=5))
        if a.is_zero and n < 0:
            with pytest.raises(DivisionByZero):
                a ** n
            return
        assert (a ** n).coeffs == power_oracle(a, n)

    def test_generator_powers(self, name):
        # a^k for k up to 2d - 2 exercises every row of the reduction table.
        field = KERNEL_FIELDS[name]
        a = field.alpha()  # over Q, the generator of Q[x]/(x) is 0
        low = 0 if a.is_zero else -2 * field.degree
        for k in range(low, 2 * field.degree + 1):
            assert (a ** k).coeffs == power_oracle(a, k)


class TestReducibleModulus:
    # x^4 - x^2 - 2 = (x^2 - 2)(x^2 + 1) has no rational root and is
    # squarefree, so it passes the construction screen.
    FIELD = NumberField((Fraction(-2), Fraction(0), Fraction(-1), Fraction(0)))

    def test_zero_divisors_raise(self):
        for factor in ([1, 0, 1, 0], [-2, 0, 1, 0], [3, 0, 3, 0]):
            u = self.FIELD.element(factor)
            with pytest.raises(DivisionByZero, match="reducible"):
                u.inverse()
            with pytest.raises(DivisionByZero):
                self.FIELD.one() / u
            with pytest.raises(ZeroDivisionError):
                euclid_inverse(u)

    def test_units_still_invert(self):
        for coeffs in ([0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]):
            u = self.FIELD.element(coeffs)
            assert u.inverse().coeffs == euclid_inverse(u)
            assert u * u.inverse() == self.FIELD.one()


RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$")


def regex_rational(value) -> tuple[int, int]:
    """The literal grammar as a regular expression: the reference that the
    partition-and-isdecimal reader must agree with."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    match = isinstance(value, str) and RATIONAL_RE.match(value.strip())
    if not match:
        raise BadFieldElement(f"not a rational: {value!r}")
    try:
        return int(match[1]), int(match[2] or 1)
    except ValueError:
        raise BadFieldElement(
            f"rational literal too long: {len(match[0])} characters") from None


GRAMMAR_EDGES = [
    "+3", "-0", "3/0", "3/01", "1_0", "1 /2", " 7 ", "١٢", "²", "--1", "",
    "+", "-", "/", "3/", "/3", "3/-2", "3/+2", "-3/2", "+0/7", "3//2", "3/2/1",
    "\n5\n", "5\n", "\t-8/9 ", "١/٢", "٣/٠", "٣/٠١", "1/١", "²/3", "3/²",
    "3/1²", "1²", "12a",
    "9" * 599, "9" * 600, "-" + "9" * 599, "1/" + "9" * 598, "9" * 601,
    "1" * 4301, "-" + "9" * 4400, "1/" + "7" * 5000, " " + "9" * 600,
    0, 5, -7, 10 ** 700, True, False, None, 1.5, [], ["1"], {},
]


def _same_as_the_regex(value):
    try:
        expected = regex_rational(value)
    except BadFieldElement as exc:
        with pytest.raises(BadFieldElement) as caught:
            _read_rational(value)
        assert str(caught.value) == str(exc)
        return
    num, den = _read_rational(value)
    assert den > 0 and Fraction(num, den) == Fraction(*expected)


class TestLiteralGrammar:
    """Literals are read by partition, isdecimal and int; the grammar and
    its two error messages must stay those of the regular expression."""

    @pytest.mark.parametrize("value", GRAMMAR_EDGES, ids=repr)
    def test_edges_agree_with_the_regex(self, value):
        _same_as_the_regex(value)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(alphabet="0123456789+-/ _\n١٢٠²", max_size=8),
                     st.text(max_size=6)))
    def test_fuzzed_text_agrees_with_the_regex(self, value):
        _same_as_the_regex(value)

    def test_boundaries(self):
        assert _read_rational("9" * 600) == (int("9" * 600), 1)
        assert _read_rational("+3") == (3, 1)
        assert _read_rational("١٢/3") == (12, 3)
        with pytest.raises(BadFieldElement, match="too long: 4301 characters"):
            _read_rational("1" * 4301)
        for refused in ("²", "1_0", "3/01", True):
            with pytest.raises(BadFieldElement, match="not a rational"):
                _read_rational(refused)


def is_canonical(e) -> bool:
    return (type(e.nums) is tuple and len(e.nums) == e.field.degree
            and e.den > 0 and gcd(e.den, *e.nums) == 1)


literals = st.one_of(
    st.from_regex(r"\A\s?[+-]?[0-9]{1,5}(/[0-9]{1,3})?\s?\Z"),
    st.text(max_size=10),
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
    st.sampled_from([" +12/18 ", "-0/5", "007", "3/0", "1" * 5000,
                     "1/" + "7" * 5000, "-" + "9" * 4400]),
)


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
class TestRepresentation:
    """Integer numerators over one denominator, in lowest terms."""

    check = settings(max_examples=30, deadline=None)

    @check
    @given(data=st.data())
    def test_every_result_is_canonical(self, name, data):
        field = KERNEL_FIELDS[name]
        a, b = data.draw(elements(field)), data.draw(elements(field))
        q = data.draw(rationals)
        k = data.draw(st.integers(min_value=1, max_value=6))
        unreduced = [f"{c.numerator * k}/{c.denominator * k}" for c in a.coeffs]
        results = [a + b, a - b, -a, a * b, a * q, q - a, a ** 2,
                   field.from_rational(q), field.parse_element(unreduced)]
        if not b.is_zero:
            results += [a / b, b.inverse(), 1 / b, b ** -3]
        assert all(is_canonical(e) for e in results)
        assert field.parse_element(unreduced) == a

    @check
    @given(data=st.data())
    def test_coeffs_match_the_oracle(self, name, data):
        field = KERNEL_FIELDS[name]
        a, b = data.draw(elements(field)), data.draw(elements(field))
        q = data.draw(rationals)
        pairs = list(zip(a.coeffs, b.coeffs))
        assert (a + b).coeffs == tuple(x + y for x, y in pairs)
        assert (a - b).coeffs == tuple(x - y for x, y in pairs)
        assert (-a).coeffs == tuple(-x for x in a.coeffs)
        assert (a * b).coeffs == poly_mul_mod(a, b)
        zeros = (Fraction(0),) * (field.degree - 1)
        assert field.from_rational(q).coeffs == (q,) + zeros
        if not b.is_zero:
            assert b.inverse().coeffs == euclid_inverse(b)
        for e in (a, a + b, a * b):
            assert all(type(c) is Fraction for c in e.coeffs)

    @check
    @given(data=st.data())
    def test_equality_is_equality_of_coeffs(self, name, data):
        field = KERNEL_FIELDS[name]
        a, b = data.draw(elements(field)), data.draw(elements(field))
        assert (a == b) == (a.coeffs == b.coeffs)
        for twin in (field.element(a.coeffs), (a + b) - b, a * field.one()):
            assert twin == a and hash(twin) == hash(a)

    def test_elements_are_immutable(self, name):
        e = KERNEL_FIELDS[name].one()
        for attr in ("field", "nums", "den", "coeffs", "extra"):
            with pytest.raises(AttributeError):
                setattr(e, attr, 0)
        with pytest.raises(AttributeError):
            del e.nums
        assert e == KERNEL_FIELDS[name].one()

    @settings(max_examples=60, deadline=None)
    @given(literals)
    def test_parse_element_agrees_with_parse_rational(self, name, value):
        field = KERNEL_FIELDS[name]
        values = [value] + ["0"] * (field.degree - 1)
        try:
            expected = parse_rational(value)
        except BadFieldElement as exc:
            with pytest.raises(BadFieldElement) as caught:
                field.parse_element(values)
            assert str(caught.value) == str(exc)
            return
        e = field.parse_element(values)
        assert e.coeffs[0] == expected and is_canonical(e)


class TestElementConstruction:
    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_copies_and_pickles_are_equal(self, name):
        field = KERNEL_FIELDS[name]
        e = field.alpha() + field.from_rational(Fraction(-2, 3))
        for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert twin == e and hash(twin) == hash(e) and repr(twin) == repr(e)
        assert copy.deepcopy(field) == field

    def test_fractions_are_kept_not_rebuilt(self):
        q = Fraction(-7, 3)
        e = SQRT2.element([q, 2])
        assert e.coeffs[0] == q and type(e.coeffs[0]) is Fraction
        assert e.coeffs[1] == 2 and type(e.coeffs[1]) is Fraction
        c = SQRT2.from_rational(q).coeffs[0]
        assert c == q and type(c) is Fraction

    def test_equal_fields_still_combine(self):
        twin = NumberField((Fraction(-2), Fraction(0)))
        assert twin is not SQRT2
        assert twin.alpha() * SQRT2.alpha() == SQRT2.from_rational(2)
        assert (twin.alpha() - SQRT2.alpha()).is_zero


# Fields with roots of unity besides +-1: x^2+1, x^2+x+1, x^4+1, x^4-x^2+1
# and x^4+x^3+x^2+x+1 (a of order 4, 3, 8, 12 and 5).
CYCLOTOMIC_FIELDS = [GAUSS, ZETA3] + [
    NumberField(tuple(map(Fraction, tail)))
    for tail in ((1, 0, 0, 0), (1, 0, -1, 0), (1, 1, 1, 1))
]


def nonzero_kernel_elements():
    return st.sampled_from(sorted(KERNEL_FIELDS)).flatmap(
        lambda name: elements(KERNEL_FIELDS[name])
    ).filter(lambda e: not e.is_zero)


def signed_alpha_powers():
    return st.builds(
        lambda field, k, sign: sign * field.alpha() ** k,
        st.sampled_from(CYCLOTOMIC_FIELDS), st.integers(-30, 30),
        st.sampled_from([1, -1]),
    )


class TestRootsOfUnity:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(nonzero_kernel_elements(), signed_alpha_powers()))
    def test_order_matches_candidate_oracle(self, u):
        assert is_root_of_unity(u) == unity_order_oracle(u)

    def test_cyclotomic_generators(self):
        orders = [is_root_of_unity(f.alpha()) for f in CYCLOTOMIC_FIELDS]
        assert orders == [4, 3, 8, 12, 5]
        assert is_root_of_unity(-CYCLOTOMIC_FIELDS[-1].alpha()) == 10

    def test_candidate_orders_degree_two(self):
        assert set(unity_candidates(2)) == {1, 2, 3, 4, 6}

    def test_candidate_orders_degree_one(self):
        assert set(unity_candidates(1)) == {1, 2}

    def test_classical_orders(self):
        assert is_root_of_unity(GAUSS.one()) == 1
        assert is_root_of_unity(GAUSS.from_rational(-1)) == 2
        assert is_root_of_unity(GAUSS.alpha()) == 4
        assert is_root_of_unity(-GAUSS.alpha()) == 4
        assert is_root_of_unity(ZETA3.alpha()) == 3
        assert is_root_of_unity(-ZETA3.alpha()) == 6

    def test_non_units(self):
        assert is_root_of_unity(GAUSS.from_rational(2)) is None
        assert is_root_of_unity(SQRT2.alpha()) is None
        assert is_root_of_unity(GAUSS.one() + GAUSS.alpha()) is None

    def test_camacho_holonomy_is_not_torsion(self):
        field = NumberField((Fraction(1), Fraction(11, 5)))
        h = field.element([8, 5])
        assert is_root_of_unity(h) is None

    def test_zero_rejected(self):
        with pytest.raises(ZeroElement):
            is_root_of_unity(GAUSS.zero())


class TestRank:
    def test_known_integer_ranks(self):
        assert fraction_free_rank([[1, 2], [2, 4]]) == 1
        assert fraction_free_rank([[1, 2], [3, 4]]) == 2
        assert fraction_free_rank([[0, 0], [0, 0]]) == 0
        assert fraction_free_rank([[0, 1], [1, 0], [1, 1]]) == 2
        assert fraction_free_rank([]) == 0

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=3, max_size=3),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=200)
    def test_matches_gaussian_oracle(self, rows):
        expected = fraction_rank([[Fraction(v) for v in row] for row in rows])
        assert fraction_free_rank(rows) == expected

    def test_span_dimension(self):
        a = SQRT2.alpha()
        one = SQRT2.one()
        assert rational_span_dimension([]) == 0
        assert rational_span_dimension([SQRT2.zero()]) == 0
        assert rational_span_dimension([one, one * 2]) == 1
        assert rational_span_dimension([one, a]) == 2
        assert rational_span_dimension([one, a, one + a]) == 2
        # denominators are cleared exactly
        assert rational_span_dimension(
            [SQRT2.element([Fraction(1, 3), Fraction(1, 7)])]
        ) == 1

    def test_span_requires_single_field(self):
        with pytest.raises(FieldMismatch):
            rational_span_dimension([SQRT2.one(), GAUSS.one()])

    @given(st.lists(elements(GAUSS), min_size=1, max_size=6))
    @settings(max_examples=150)
    def test_span_matches_oracle(self, elems):
        expected = fraction_rank([[Fraction(c) for c in e.coeffs] for e in elems])
        assert rational_span_dimension(elems) == expected
        assert rational_span_dimension(elems) <= GAUSS.degree

    def test_span_oracle_across_degrees(self):
        import random

        cube2 = NumberField((Fraction(-2), Fraction(0), Fraction(0)))
        quart2 = NumberField(
            (Fraction(-2), Fraction(0), Fraction(0), Fraction(0))
        )
        fields = (QQ, GAUSS, SQRT2, cube2, quart2)
        for seed in range(500):
            rng = random.Random(seed)
            field = fields[seed % len(fields)]
            elems = [
                field.element([
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    for _ in range(field.degree)
                ])
                for _ in range(rng.randint(0, 8))
            ]
            expected = fraction_rank(
                [[Fraction(c) for c in e.coeffs] for e in elems]
            )
            assert rational_span_dimension(elems) == expected
            assert expected <= min(len(elems), field.degree)
