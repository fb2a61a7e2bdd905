"""Tests for exact arithmetic in Q(e)."""

import random
from fractions import Fraction

import pytest

from wallcross.epsfield import (
    EPS,
    MAX_EPS_DEGREE,
    MAX_LITERAL_DIGITS,
    ONE,
    ZERO,
    EpsPoly,
    EpsRat,
    eps_arith,
    eps_cmp,
    integer_coeffs,
    parse_eps_rat,
    parse_poly,
    parse_rat,
    poly_gcd,
    poly_mul,
    positivity_radius,
)
from wallcross.errors import (
    DegreeOverflow,
    DivisionByZero,
    ParseError,
    PoleAtPoint,
)

e = EPS


def random_eps_rat(rng, max_degree=2, allow_zero=True):
    def poly():
        return EpsPoly([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                        for _ in range(rng.randint(1, max_degree + 1))])

    num = poly()
    if not allow_zero:
        while num.is_zero:
            num = poly()
    den = poly()
    while den.is_zero:
        den = poly()
    return EpsRat(num, den)


# -- comparison contract -------------------------------------------------------


def test_cmp_eps_positive():
    assert eps_cmp(e, 0) == 1


def test_cmp_one_minus_eps():
    assert eps_cmp(1 - e, 1) == -1


def test_cmp_square_over_unit_vs_cube():
    assert eps_cmp(e**2 / (1 + e), e**3) == 1


def test_cmp_is_total_order_on_samples():
    rng = random.Random(1)
    xs = [random_eps_rat(rng) for _ in range(40)]
    for a in xs:
        for b in xs:
            c = eps_cmp(a, b)
            assert c in (-1, 0, 1)
            assert c == -eps_cmp(b, a)


# -- arithmetic contract -------------------------------------------------------


def test_one_minus_eps_plus_eps():
    assert (1 - e) + e == 1


def test_difference_of_squares():
    assert (1 + e) * (1 - e) == 1 - e**2


def test_crossing_parameter_closed_form():
    d, n = 2, 6
    u0 = (1 + e * (d + 1 - n)) / (1 + e * (d + 2 - n))
    assert u0 == (1 - 3 * e) / (1 - 2 * e)
    assert str(u0) == "(1 - 3*e)/(1 - 2*e)"


def test_eps_arith_dispatch():
    assert eps_arith(1, e, "add") == 1 + e
    assert eps_arith(1, e, "sub") == 1 - e
    assert eps_arith(1 + e, 1 - e, "mul") == 1 - e**2
    assert eps_arith(e**2, e, "div") == e
    with pytest.raises(DivisionByZero):
        eps_arith(1, 0, "div")


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        (1 + e) / (e - e)


# -- evaluation ---------------------------------------------------------------


def test_eval_examples():
    assert (1 - e).eval_at(Fraction(1, 10)) == Fraction(9, 10)
    assert (e**2 / (1 + e)).eval_at(0) == 0
    # Independent big-rational computation: (1 - 3/100)/(1 - 2/100) = 97/98.
    assert ((1 - 3 * e) / (1 - 2 * e)).eval_at(Fraction(1, 100)) == Fraction(97, 98)


def test_eval_pole():
    with pytest.raises(PoleAtPoint):
        (1 / (1 - e)).eval_at(1)


# -- normalization invariants ---------------------------------------------------


def test_normal_form_random():
    rng = random.Random(2)
    for _ in range(200):
        x = random_eps_rat(rng)
        if x.is_zero:
            assert x.den == EpsPoly((1,))
            continue
        assert x.den.lowest_coeff() == 1
        assert poly_gcd(x.num, x.den).degree <= 0


def test_degree_guard():
    with pytest.raises(DegreeOverflow):
        EpsPoly([1] * (MAX_EPS_DEGREE + 2))
    big = EpsRat(EpsPoly([0] * 40 + [1]))  # e^40
    with pytest.raises(DegreeOverflow):
        big * big  # degree 80 before any reduction could happen


def test_from_integers_is_the_normal_form():
    rng = random.Random(5)
    for _ in range(100):
        x, y = random_eps_rat(rng), random_eps_rat(rng)
        if y.is_zero:
            continue
        q = x / y
        num, den = integer_coeffs(x.num * y.den, x.den * y.num)
        assert EpsRat.from_integers(num, den) == q
        assert EpsRat.from_integers(num, den).den.lowest_coeff() == 1
    assert EpsRat.from_integers([0, 0], [3]) == ZERO
    assert EpsRat.from_integers([3], [6, 0]) == EpsRat.from_rat(Fraction(1, 2))
    with pytest.raises(DivisionByZero):
        EpsRat.from_integers([1], [0])


def test_from_integers_reduces_past_the_degree_guard():
    # (1 - e)(1 + e)^40 / (1 + e)^41: degree 41 and 41 before the gcd.
    power = [1]
    for _ in range(40):
        power = poly_mul(power, [1, 1])
    x = EpsRat.from_integers(poly_mul(power, [2, -2]), poly_mul(power, [2, 2]))
    assert x == (1 - EPS) / (1 + EPS)
    power = poly_mul(power, power)  # degree 80
    x = EpsRat.from_integers(poly_mul(power, [0, 1]), poly_mul(power, [1, 1]))
    assert x == EPS / (1 + EPS)


# -- field and order axioms -----------------------------------------------------


def test_field_axioms_random_triples():
    rng = random.Random(3)
    for _ in range(300):
        a = random_eps_rat(rng)
        b = random_eps_rat(rng)
        c = random_eps_rat(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a
        assert a + (-a) == ZERO
        if not b.is_zero:
            assert (a / b) * b == a


def test_order_compatibility_random():
    rng = random.Random(4)
    for _ in range(300):
        a = random_eps_rat(rng)
        b = random_eps_rat(rng)
        c = random_eps_rat(rng)
        if a > b:
            assert a + c > b + c
            if c > 0:
                assert a * c > b * c


def test_sign_vs_evaluation_oracle():
    """The symbolic sign must match evaluation below the positivity radius,
    found both by the rigorous bound and by doubling until signs repeat."""
    rng = random.Random(5)
    for _ in range(200):
        a = random_eps_rat(rng)
        b = random_eps_rat(rng)
        diff = a - b
        radius = positivity_radius(diff)
        k = 1
        while Fraction(1, 2**k) >= radius:
            k += 1
        point = Fraction(1, 2**k)
        assert (diff.eval_at(point) > 0) - (diff.eval_at(point) < 0) == eps_cmp(a, b)
        # Sanity probe: double k until two consecutive signs agree.
        def sign_at(kk):
            v = diff.eval_at(Fraction(1, 2**kk))
            return (v > 0) - (v < 0)

        kk = k
        while sign_at(kk) != sign_at(kk + 1):
            kk += 1
        assert sign_at(kk) == eps_cmp(a, b)


# -- text round trip -------------------------------------------------------------


def test_parse_print_round_trip_random():
    rng = random.Random(6)
    for _ in range(200):
        x = random_eps_rat(rng)
        assert parse_eps_rat(str(x)) == x


def test_parse_specific_forms():
    assert parse_eps_rat("(1 - 3*e)/(1 - 2*e)") == (1 - 3 * e) / (1 - 2 * e)
    assert parse_eps_rat("e") == e
    assert parse_eps_rat("-e^2") == -(e**2)
    assert parse_eps_rat("3/4*e") == e * Fraction(3, 4)
    assert parse_eps_rat("1/3 + 1/3*e") == (1 + e) / 3
    assert parse_eps_rat("e**2/(1+e)") == e**2 / (1 + e)
    assert parse_eps_rat("2*(1 - e)") == 2 - 2 * e


def test_parse_rejects_garbage():
    for bad in ("", "1 +", "x", "e^e", "(1", "1 2"):
        with pytest.raises(ParseError):
            parse_eps_rat(bad)


def test_parse_bounds():
    # Literals past the digit limit and exponents past the degree guard are
    # refused before any big number is built.
    with pytest.raises(ParseError, match="digits"):
        parse_eps_rat("1" * (MAX_LITERAL_DIGITS + 1))
    with pytest.raises(ParseError, match="digits"):
        parse_eps_rat("1" * 5000)
    with pytest.raises(ParseError, match="exponent"):
        parse_eps_rat("2^%d" % (MAX_EPS_DEGREE + 1))
    with pytest.raises(ParseError, match="exponent"):
        parse_eps_rat("e^-%d" % (MAX_EPS_DEGREE + 1))
    with pytest.raises(ParseError, match="exponent"):
        parse_eps_rat("2^99999999999999999999999999")
    assert parse_eps_rat("1" * MAX_LITERAL_DIGITS) == int("1" * MAX_LITERAL_DIGITS)
    assert parse_eps_rat("e^40") == EpsRat(EpsPoly([0] * 40 + [1]))
    assert parse_eps_rat("(1+e)^8") == (1 + e) ** 8
    assert parse_eps_rat("e^-64") == 1 / e**64


def test_parse_rejects_non_strings():
    with pytest.raises(ParseError, match="string"):
        parse_eps_rat(1)
    with pytest.raises(ParseError, match="string"):
        parse_rat(1)


def test_parse_poly():
    assert parse_poly("1 + 2*t - t^3", var="t") == (
        Fraction(1),
        Fraction(2),
        Fraction(0),
        Fraction(-1),
    )
    with pytest.raises(ParseError):
        parse_poly("1/(1+t)", var="t")
