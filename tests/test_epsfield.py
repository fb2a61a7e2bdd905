"""Tests for exact arithmetic in Q(e)."""

import random
import time
from fractions import Fraction

import pytest

from wallcross.arrangement import Arrangement
from wallcross.blowup import PairingSurface
from wallcross.epsfield import (
    EPS,
    MAX_EPS_DEGREE,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    ONE,
    ZERO,
    EpsPoly,
    EpsRat,
    _int_gcd,
    _lex_sign,
    _normal_form,
    _pack,
    _unpack,
    clear_denominators,
    eps_cmp,
    exact_rat,
    format_poly,
    integer_coeffs,
    parse_eps_rat,
    parse_int,
    parse_poly,
    parse_rat,
    poly_mul,
    positivity_radius,
)
from wallcross.errors import (
    BadParameters,
    DegreeOverflow,
    DivisionByZero,
    ParseError,
    PoleAtPoint,
    SizeGuard,
)
from wallcross.jets import JetPoly
from wallcross.mixedsub import regular_mixed_subdivision

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


def poly_gcd(a, b):
    """Monic gcd over Q of two EpsPoly values, not both zero, by Euclid's
    algorithm on their Fraction coefficients (`_ref_gcd` below)."""
    return EpsPoly(_ref_gcd(a.coeffs, b.coeffs))


def test_normal_form_random():
    rng = random.Random(2)
    for _ in range(200):
        x = random_eps_rat(rng)
        if x.is_zero:
            assert x.den == EpsPoly((1,))
            continue
        assert x.den.lowest_coeff() == 1
        assert poly_gcd(x.num, x.den).degree <= 0


def test_equal_values_hash_equal():
    # Sets and dict keys mix EpsRat with ints and Fractions: 1 in {ONE}.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    small = st.integers(-3, 3)
    values = st.one_of(
        small,
        st.fractions(-3, 3, max_denominator=3),
        st.builds(
            EpsRat.from_integers,
            st.lists(small, max_size=2),
            st.lists(small, min_size=1, max_size=2).filter(any),
        ),
    )

    @hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @hypothesis.given(values, values)
    def check(x, y):
        if x == y:
            assert hash(x) == hash(y)

    check()
    assert 1 in {ONE} and Fraction(-1, 2) in {(e - 1) / (2 * e + 2) - e / (e + 1)}


def test_packing_keeps_digits_sign_and_differences():
    # Digits below 2^(bits-1) in absolute value round-trip, the packed sign
    # is the lexicographic sign, and packing is linear, so packed ints
    # compare as their vectors do while the differences keep the bound.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def vectors(draw):
        bits, length = draw(st.integers(2, 70)), draw(st.integers(1, 6))
        digit = st.integers(-(2 ** (bits - 2)) + 1, 2 ** (bits - 2) - 1)
        u, v = [draw(st.lists(digit, min_size=length, max_size=length)) for _ in "uv"]
        return bits, u, v

    def sign(x):
        return (x > 0) - (x < 0)

    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(vectors())
    def check(drawn):
        bits, u, v = drawn
        diff = [a - b for a, b in zip(u, v)]
        for w in (u, v, diff):
            assert _unpack(_pack(w, bits), bits, len(w)) == w
            assert sign(_pack(w, bits)) == _lex_sign(w)
        assert _pack(u, bits) - _pack(v, bits) == _pack(diff, bits)

    check()
    assert _pack([-7], 3) == -7 and _unpack(-7, 3, 1) == [-7]


#: Library entry points that read scalars through exact_rat, each with a
#: builder that places one entry and the name its refusal gives that entry.
EXACT_EDGES = {
    "exact_rat": (lambda x: exact_rat(x, "entry %d", 3), "entry 3"),
    "Arrangement": (
        lambda x: Arrangement(1, 4, [[1, 0], [0, 1], [1, 1], [1, x]]),
        "row 4 entry 2",
    ),
    "JetPoly": (lambda x: JetPoly([1, x, 0]), r"jet coefficient of t\^1"),
    "JetPoly.scale": (lambda x: JetPoly([1]).scale(x), "jet scale factor"),
    "PairingSurface matrix": (
        lambda x: PairingSurface([[0, 1], [x, 0]], [1, 1]),
        r"matrix entry \(2, 1\)",
    ),
    "PairingSurface divisor": (
        lambda x: PairingSurface([[0, 1], [1, 0]], [1, x]),
        "divisor entry 2",
    ),
    "regular_mixed_subdivision": (
        lambda x: regular_mixed_subdivision(1, 2, [0, x, 1, 0]),
        "lifting height 2",
    ),
}


# Fraction() reads the float, the bool and both strings.
@pytest.mark.parametrize("value", [0.25, True, "1e-5", "1/2", None])
@pytest.mark.parametrize("edge", sorted(EXACT_EDGES))
def test_library_edge_takes_exact_scalars_only(edge, value):
    build, name = EXACT_EDGES[edge]
    with pytest.raises(BadParameters, match="^%s must be an int or a Fraction, got " % name):
        build(value)
    build(1)
    build(Fraction(1))


def test_exact_rat_keeps_ints_and_fractions():
    assert exact_rat(-4, "x") == -4 and type(exact_rat(-4, "x")) is Fraction
    assert exact_rat(Fraction(2, 6), "x") == Fraction(1, 3)


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
        num, den = integer_coeffs(
            EpsPoly(poly_mul(x.num.coeffs, y.den.coeffs)),
            EpsPoly(poly_mul(x.den.coeffs, y.num.coeffs)),
        )
        assert EpsRat.from_integers(num, den) == q
        assert EpsRat.from_integers(num, den).den.lowest_coeff() == 1
    assert EpsRat.from_integers([0, 0], [3]) == ZERO
    assert EpsRat.from_integers([3], [6, 0]) == EpsRat.from_rat(Fraction(1, 2))
    with pytest.raises(DivisionByZero):
        EpsRat.from_integers([1], [0])


def test_constant_normal_form_matches_the_general_route():
    # A trailing zero coefficient keeps a pair off the one-coefficient
    # branch, so [p, 0] over [q, 0] goes the general route.
    rng = random.Random(17)
    big = 10**1199
    pairs = [(0, 1), (0, -1), (0, -7), (5, 1), (5, -1), (-5, -1), (6, -4), (-6, 4)]
    pairs += [
        (rng.randint(-big, big), rng.choice([1, -1]) * rng.randint(big, 10 * big - 1))
        for _ in range(40)
    ]
    pairs += [(big + 1, -big - 1), (big * 6, -big * 4), (-big, 1), (0, big)]
    while len(pairs) < 2500:
        g, scale = rng.randint(1, 12), 10 ** rng.choice([1, 3, 20])
        pairs.append(
            (g * rng.randint(-scale, scale), g * rng.choice([1, -1]) * rng.randint(1, scale))
        )
    for p, q in pairs:
        got = _normal_form([p], [q])
        assert got == _normal_form([p, 0], [q, 0]), (p, q)
        x = Fraction(p, q)
        assert got == (((x.numerator,) if p else ()), (x.denominator,)), (p, q)
        assert hash(EpsRat.from_integers([p], [q])) == hash(x), (p, q)
    for p in (0, 1, -3, big):
        with pytest.raises(DivisionByZero, match=r"^zero denominator in Q\(e\)$"):
            _normal_form([p], [0])


def test_linear_gcd_matches_the_remainder_sequence():
    # A linear divisor is tested at its root, not by a remainder sequence;
    # against Euclid over Q, with and without a shared root, either order.
    rng = random.Random(19)
    shared = 0
    for _ in range(600):
        scale = 10 ** rng.choice([1, 1, 30])
        v = [rng.randint(-scale, scale), rng.choice([-6, -3, -1, 1, 2, 6]) * rng.randint(1, scale)]
        u = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + [rng.choice([-4, -1, 1, 5])]
        if rng.random() < 0.5:
            u = poly_mul(u, v)
        want = _ref_gcd(_ref_trim(u), _ref_trim(v))
        shared += len(want) == 2
        for got in (_int_gcd(u, v), _int_gcd(v, u)):
            assert tuple(Fraction(c, got[-1]) for c in got) == want, (u, v)
        x = EpsRat.from_integers(u, v)
        assert (x.num.coeffs, x.den.coeffs) == ref_normal(u, v), (u, v)
    assert shared > 250


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


def test_clear_denominators_uses_the_lcm():
    # Entries 1/(1+e)^k, k = 1..8, lowered with the lcm (1+e)^8 of their
    # denominators, not their product (1+e)^36.
    vectors = clear_denominators([1 / (1 + e) ** k for k in range(1, 9)] + [1])
    assert [len(v) for v in vectors] == [9] * 9
    assert vectors[-1] == [1, 8, 28, 56, 70, 56, 28, 8, 1]
    assert vectors[0] == [1, 7, 21, 35, 35, 21, 7, 1, 0]
    # The lcm of 1+e, 1-e and 1-e^2 is 1-e^2, positive near 0.
    vectors = clear_denominators([1 / (1 + e), 1 / (1 - e), 1 / (1 - e**2), 1])
    assert vectors == [[1, -1, 0], [1, 1, 0], [1, 0, 0], [1, 0, -1]]
    assert clear_denominators([1 / (1 + e), 1 / (1 - e), 1]) == [
        [1, -1, 0],
        [1, 1, 0],
        [1, 0, -1],
    ]
    # 1/(2+3e) = (1/2)/(1 + 3/2*e): its primitive denominator is 2+3e.
    assert clear_denominators([1 / (2 + 3 * e), 1]) == [[1, 0], [2, 3]]
    # Rational values keep length one; rational coefficients are cleared.
    assert clear_denominators([Fraction(1, 2), 3, ZERO]) == [[1], [6], [0]]
    assert clear_denominators([(1 + e) / 2, e**2 / (3 - 3 * e)]) == [
        [3, 0, -3],
        [0, 0, 2],
    ]


# -- the Fraction-route reference ---------------------------------------------------
#
# The Q(e) arithmetic and order as they ran before they moved onto integer
# coefficient lists: products and sums of Fraction coefficients, a monic gcd
# by Euclid's algorithm over Q, long division by it, and the sign of the
# difference for the order.  Values are (num, den) pairs of Fraction tuples.


def _ref_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(Fraction(c) for c in p)


def _ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _ref_trim(x + sign * y for x, y in zip(a, b))


def _ref_mul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_divmod(a, b):
    rem, quo = list(a), [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b):
        q = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quo[shift] = q
        for i, c in enumerate(b):
            rem[shift + i] -= q * c
        rem = list(_ref_trim(rem[:-1]))
    return _ref_trim(quo), _ref_trim(rem)


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a)


def ref_normal(num, den):
    num, den = _ref_trim(num), _ref_trim(den)
    assert den
    if not num:
        return (), (Fraction(1),)
    g = _ref_gcd(num, den)
    num, den = _ref_divmod(num, g)[0], _ref_divmod(den, g)[0]
    c = next(x for x in den if x)
    return tuple(x / c for x in num), tuple(x / c for x in den)


def ref_arith(a, b, op):
    (an, ad), (bn, bd) = a, b
    if op == "add":
        return ref_normal(_ref_add(_ref_mul(an, bd), _ref_mul(bn, ad)), _ref_mul(ad, bd))
    if op == "sub":
        return ref_normal(_ref_add(_ref_mul(an, bd), _ref_mul(bn, ad), -1), _ref_mul(ad, bd))
    if op == "mul":
        return ref_normal(_ref_mul(an, bn), _ref_mul(ad, bd))
    return ref_normal(_ref_mul(an, bd), _ref_mul(ad, bn))


def ref_cmp(a, b):
    num, _ = ref_arith(a, b, "sub")
    lowest = next((c for c in num if c), 0)
    return (lowest > 0) - (lowest < 0)


def ref_str(value):
    num, den = value
    if den == (1,):
        return format_poly(num)
    return "(%s)/(%s)" % (format_poly(num), format_poly(den))


def random_raw_operand(rng):
    """Unreduced (num, den) coefficient lists: den = 1, a constant den, c*e^k,
    c/e^k, or a general quotient, sometimes with a shared factor."""

    def coeff(nonzero=False):
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return c if c or not nonzero else Fraction(1)

    def poly(terms):
        return [coeff() for _ in range(rng.randint(1, terms))]

    kind = rng.randrange(5)
    k = rng.randint(1, 5)
    if kind == 0:
        num, den = poly(4), [1]
    elif kind == 1:
        num, den = poly(4), [coeff(nonzero=True)]
    elif kind == 2:
        num, den = [0] * k + [coeff(nonzero=True)], [1]
    elif kind == 3:
        num, den = poly(2), [0] * k + [coeff(nonzero=True)] + poly(2)
    else:
        num, den = poly(3), poly(3)
        if rng.random() < 0.4:
            shared = poly(2) + [1]
            num, den = _ref_mul(num, shared), _ref_mul(den, shared)
    if not _ref_trim(den):
        den = [1]
    return num, den


def _pair(rng):
    raw = random_raw_operand(rng)
    return EpsRat(EpsPoly(raw[0]), EpsPoly(raw[1])), ref_normal(*raw)


def _assert_same(x, ref):
    assert (x.num.coeffs, x.den.coeffs) == ref
    assert str(x) == ref_str(ref)


def test_integer_route_matches_the_fraction_route():
    rng = random.Random(11)
    ops = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
           "mul": lambda a, b: a * b, "div": lambda a, b: a / b}
    for _ in range(400):
        (a, ra), (b, rb) = _pair(rng), _pair(rng)
        _assert_same(a, ra)
        _assert_same(-a, ref_normal(tuple(-c for c in ra[0]), ra[1]))
        for name, op in ops.items():
            if name == "div" and b.is_zero:
                continue
            _assert_same(op(a, b), ref_arith(ra, rb, name))
        c = ref_cmp(ra, rb)
        assert eps_cmp(a, b) == c
        assert (a < b, a <= b, a > b, a >= b) == (c < 0, c <= 0, c > 0, c >= 0)
        assert (a == b) == (c == 0)


def test_sign_and_order_against_sympy_limits():
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("e", positive=True)

    def as_sympy(coeffs):
        return sum(sympy.Rational(c.numerator, c.denominator) * s**k
                   for k, c in enumerate(map(Fraction, coeffs)))

    def limit_sign(expr):
        """The sign of expr as e -> 0+: that of the first nonzero limit of
        expr / e^k, k = 0, 1, ..."""
        expr = sympy.cancel(expr)
        if expr == 0:
            return 0
        for k in range(2 * MAX_EPS_DEGREE + 2):
            lim = sympy.limit(expr / s**k, s, 0, "+")
            if lim != 0:
                return 1 if lim > 0 else -1
        raise AssertionError("no nonzero limit for %s" % expr)

    rng = random.Random(12)
    for _ in range(60):
        raw_a, raw_b = random_raw_operand(rng), random_raw_operand(rng)
        a = EpsRat(EpsPoly(raw_a[0]), EpsPoly(raw_a[1]))
        b = EpsRat(EpsPoly(raw_b[0]), EpsPoly(raw_b[1]))
        sa = as_sympy(raw_a[0]) / as_sympy(raw_a[1])
        sb = as_sympy(raw_b[0]) / as_sympy(raw_b[1])
        assert a.sign() == limit_sign(sa)
        c = limit_sign(sa - sb)
        assert eps_cmp(a, b) == c
        assert (a < b, a <= b, a > b, a >= b) == (c < 0, c <= 0, c > 0, c >= 0)


def test_arithmetic_builds_no_fractions(monkeypatch):
    # Operands and results stay on integer coefficient tuples: the field
    # operations and the order build no Fraction at all.
    rng = random.Random(13)
    values = [EpsRat(EpsPoly(num), EpsPoly(den))
              for num, den in (random_raw_operand(rng) for _ in range(50))]
    built = [0]
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for a, b in zip(values, values[1:] + values[:1]):
        a + b, a - b, a * b, a < b, a == b
        if not b.is_zero:
            a / b
    monkeypatch.undo()
    assert built[0] == 0


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


def test_parse_sign_runs_and_nesting():
    # Sign runs are one loop and nesting has a fixed bound: neither reaches
    # Python's recursion limit.
    assert parse_eps_rat("2*" + "-" * 3000 + "1") == 2
    assert parse_eps_rat("-" * 3001 + "e^2*3") == -3 * e**2
    assert parse_eps_rat("--1 - -e") == 1 + e
    assert parse_eps_rat("-2^2") == -4
    deep = "(" * MAX_NESTING + "1 - e" + ")" * MAX_NESTING
    assert parse_eps_rat(deep) == 1 - e
    assert parse_eps_rat("*".join(["(1/2)"] * 500)) == Fraction(1, 2**500)  # siblings
    with pytest.raises(ParseError, match="nested deeper than %d" % MAX_NESTING):
        parse_eps_rat("(" + deep + ")")
    with pytest.raises(ParseError, match="nested deeper"):
        parse_eps_rat("(" * 400 + "1" + ")" * 400)


@pytest.mark.parametrize("digit", ["²", "٢", "५", "１", "߂"])
def test_parse_accepts_ascii_digits_only(digit):
    # str.isdigit accepts all of these; int() takes some and refuses others.
    for text in ("1/2" + digit, digit, "e^" + digit):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_eps_rat(text)


def test_parse_keeps_coefficients_within_the_digit_limit():
    limit = 10**MAX_LITERAL_DIGITS
    nines = "9" * MAX_LITERAL_DIGITS
    # Powers are refused before they are computed...
    with pytest.raises(ParseError, match="could exceed %d digits" % MAX_LITERAL_DIGITS):
        parse_eps_rat("1/(%s)^5" % nines)
    with pytest.raises(ParseError, match="could exceed"):
        parse_eps_rat("1/2^64^64^4")
    with pytest.raises(ParseError, match="could exceed"):
        parse_eps_rat("(10^50)^20")
    # ...and every sum, product and quotient is checked when it is made.
    with pytest.raises(ParseError, match="a coefficient exceeds %d digits" % MAX_LITERAL_DIGITS):
        parse_eps_rat("%s*%s" % (nines, nines))
    with pytest.raises(ParseError, match="a coefficient exceeds"):
        parse_eps_rat("%s + 1" % nines)
    with pytest.raises(ParseError, match="a coefficient exceeds"):
        parse_eps_rat("1/%s - 1/%s" % (nines, nines[:-1] + "7"))
    assert parse_eps_rat("(10^50)^19") == 10**950
    assert parse_eps_rat("2^64^2^2^2^2") == 2**1024
    assert parse_eps_rat(nines + " - 1") == limit - 2
    assert str(parse_eps_rat("(%s)^1/(1 + e)" % nines)) == "(%s)/(1 + e)" % nines


def test_values_too_long_to_print_raise_a_size_guard():
    # A computed value may pass Python's int-to-str digit limit; printing it
    # is refused with a WallcrossError, not a ValueError.
    huge = EpsRat.from_integers([10**5000, 1], [1])
    with pytest.raises(SizeGuard, match="too long to print"):
        str(huge)
    with pytest.raises(SizeGuard, match="too long to print"):
        str(EpsRat.from_integers([1], [10**5000, 1]))


def test_parse_rejects_non_strings():
    with pytest.raises(ParseError, match="string"):
        parse_eps_rat(1)
    with pytest.raises(ParseError, match="string"):
        parse_rat(1)


def test_parse_rat_matches_fraction_on_plain_rationals():
    # The reader it replaces, on the shapes both accept.
    rng = random.Random(11)
    for _ in range(500):
        p = rng.randint(-(10**40), 10**40)
        q = rng.randint(1, 10**40)
        for text in ("%d" % p, "%d/%d" % (p, q), " %d / %d " % (p, q)):
            assert parse_rat(text) == Fraction(text.replace(" ", ""))
    assert parse_rat("2^-3") == Fraction(1, 8)
    assert parse_rat("(1 - 1/3)*3") == 2
    assert parse_rat("9" * MAX_LITERAL_DIGITS) == 10**MAX_LITERAL_DIGITS - 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("1e4000000", "unknown symbol 'e4000000'"),
        ("1e-300000", "trailing input"),
        ("1_0", "unexpected character '_'"),
        ("0.5", "unexpected character '.'"),
        ("١/٣", "unexpected character '١'"),
        ("１", "unexpected character '１'"),
        ("1" * (MAX_LITERAL_DIGITS + 1), "exceeds the limit of %d" % MAX_LITERAL_DIGITS),
        ("1/" + "7" * 5000, "5000 digits exceeds the limit of %d" % MAX_LITERAL_DIGITS),
        ("2^%d" % (MAX_EPS_DEGREE + 1), "exceeds the limit of %d" % MAX_EPS_DEGREE),
        ("(10^50)^21", "could exceed %d digits" % MAX_LITERAL_DIGITS),
        ("e", "expected a rational number, got 'e'"),
        ("1/(1 + e)", "expected a rational number"),
        ("", "empty expression"),
    ],
)
def test_parse_rat_refuses_what_the_grammar_does_not_hold(text, message):
    with pytest.raises(ParseError, match=message):
        parse_rat(text)


def test_parse_rat_refuses_exponent_notation_at_once():
    # Fraction("1e4000000") builds a 13-million-bit integer in seconds.
    start = time.process_time()
    for text in ("1e4000000", "1e-300000", "1E4000000"):
        with pytest.raises(ParseError):
            parse_rat(text)
    assert time.process_time() - start < 0.1


def test_parse_int():
    for text in ("0", "-0", "7", "-12", "9" * MAX_LITERAL_DIGITS):
        assert parse_int(text) == int(text)
    for text in ("", "-", "--1", "+1", " 1", "1 ", "1_0", "1.0", "1e3", "0x1", "٢", "１", "²"):
        with pytest.raises(ParseError, match="not an integer"):
            parse_int(text)
    with pytest.raises(ParseError, match="1001 digits exceeds the limit of %d" % MAX_LITERAL_DIGITS):
        parse_int("-" + "1" * 1001)
    with pytest.raises(ParseError, match="string"):
        parse_int(3)


def test_parse_poly():
    assert parse_poly("1 + 2*t - t^3", var="t") == (
        Fraction(1),
        Fraction(2),
        Fraction(0),
        Fraction(-1),
    )
    # A constant denominator is not a genuine one.
    assert parse_poly("t/2 + 1/3", var="t") == (Fraction(1, 3), Fraction(1, 2))
    with pytest.raises(ParseError):
        parse_poly("1/(1+t)", var="t")


def poly_texts(rng):
    """Polynomials in t as the parser reads them: sums of rational multiples
    of powers, products of linear factors, and either over a constant that
    may be negative, with their Fraction coefficients."""
    for _ in range(300):
        kind = rng.randrange(3)
        if kind == 0:
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 5))]
            text = " + ".join("(%s)*t^%d" % (c, k) for k, c in enumerate(coeffs))
        elif kind == 1:
            a, b, c, f = (rng.randint(-4, 4) for _ in range(4))
            coeffs = [Fraction(a * c), Fraction(a * f + b * c), Fraction(b * f)]
            text = "(%d + %d*t)*(%d - %d*t)" % (a, b, c, -f)
        else:
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 3))]
            text = "-(%s)" % " + ".join("%d*t^%d" % (c, k) for k, c in enumerate(coeffs))
            coeffs = [-c for c in coeffs]
        if rng.random() < 0.5:
            k = rng.choice((-7, -2, 3, 12))
            text = "(%s)/(%d)" % (text, k)
            coeffs = [c / k for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        yield text, tuple(coeffs)


def test_parse_poly_reads_the_integer_pair_as_the_rational_view_did():
    negative_scale = 0
    for text, coeffs in poly_texts(random.Random(41)):
        got = parse_poly(text, var="t")
        assert got == parse_eps_rat(text, var="t").num.coeffs == coeffs, text
        assert all(type(c) is Fraction for c in got), text
        negative_scale += text.endswith("/(-7)") or text.endswith("/(-2)")
    assert negative_scale > 30
