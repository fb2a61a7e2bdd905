"""Exact arithmetic in the ordered field Q(e) of rational functions in an
infinitesimal e.

An element is a reduced fraction num/den of polynomials in e, stored as two
tuples of integer coefficients, lowest degree first.  In normal form num and
den are coprime, the lowest nonzero coefficient of den is positive and all
their coefficients together have gcd 1, so each element has exactly one
representation and equality is structural.  The order is the one induced by
evaluation at 0 < e << 1: den is positive near 0, so a nonzero element is
positive exactly when the lowest nonzero coefficient of num is positive.
This turns every "for e small enough" comparison into an exact, decidable
one.  The field operations, the order, evaluation and the lowering of
`clear_denominators` all run on these integers.

A lowered vector, the integer coefficients of a polynomial in e, packs into
one int in base 2^bits, lowest degree in the most significant digit
(`_pack`).  Packing is linear, so a sum or difference of packed vectors is
the packed sum or difference.  While every digit of a vector stays below
2^(bits-1) in absolute value, the sign of its packed int is its
lexicographic sign, lowest degree first, which is its sign in Q(e), and
`_unpack` recovers it; so packed ints compare in the order of Q(e) wherever
every compared difference keeps that bound.  Each caller picks bits from
the largest coefficient its sums can reach.  A vector of length 1, a
rational one, packs to its own integer.

Rational coefficients appear only at the edges.  EpsPoly, a polynomial with
Fraction coefficients, is what the public constructor EpsRat(num, den)
takes and what the `num` and `den` properties give back, scaled so that
den's lowest nonzero coefficient is 1; the printed form is built from them.

Plain rationals are handled by fractions.Fraction, re-exported as Rat;
parse_rat and parse_int read rationals and integers in the grammar of the
Q(e) reader, and exact_rat admits the library's scalar arguments: ints and
Fractions, never floats, bools or strings.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd as igcd, lcm
from typing import Iterable, Sequence, Union

from .errors import (
    BadParameters,
    DegreeOverflow,
    DivisionByZero,
    InvariantBreach,
    ParseError,
    PoleAtPoint,
    SizeGuard,
)
from .linalg import _clear

Rat = Fraction

RatLike = Union[int, Fraction]

#: Hard cap on the degree of a stored polynomial, so a runaway computation
#: fails fast.  The weights and liftings of this problem domain stay at low
#: degree; only reduced values are checked, and the parser refuses exponents
#: past the cap.
MAX_EPS_DEGREE = 64

#: The parser refuses integer literals longer than this, well below the
#: 4300-digit limit of Python's int(), and any parsed value, or part of one,
#: with a coefficient longer than this, so every parsed value prints.
MAX_LITERAL_DIGITS = 1000

_COEFF_BOUND = 10**MAX_LITERAL_DIGITS

#: The parser refuses parentheses nested deeper than this; each level takes
#: four frames of Python's recursion limit.
MAX_NESTING = 100


def _ratio(x: RatLike) -> "tuple[int, int]":
    """Numerator and positive denominator of an int or Fraction."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int):
        return int(x), 1
    raise TypeError("expected int or Fraction, got %r" % (x,))


def exact_rat(x: object, what: str, *where: int) -> Fraction:
    """x as a Fraction when it is an int or a Fraction.  A float, a bool, a
    string or anything else raises BadParameters that names x as
    what % where, formatted only then, so no inexact or mistyped entry
    passes at the library's edge."""
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise BadParameters("%s must be an int or a Fraction, got %r" % (what % where, x))


def _check_degree(coeffs: Sequence) -> None:
    if len(coeffs) - 1 > MAX_EPS_DEGREE:
        raise DegreeOverflow(
            "polynomial degree %d exceeds guard %d" % (len(coeffs) - 1, MAX_EPS_DEGREE)
        )


class EpsPoly:
    """Polynomial in e over Q, coefficients stored from degree 0 upward: the
    rational form of an EpsRat's numerator or denominator.

    The zero polynomial has an empty coefficient tuple; otherwise the last
    stored coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [Fraction(*_ratio(c)) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        _check_degree(cs)
        self.coeffs = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def lowest_coeff(self) -> Fraction:
        return next((c for c in self.coeffs if c), Fraction(0))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EpsPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)


# -- integer coefficient lists, lowest degree first ------------------------------


def poly_mul(a: Sequence, b: Sequence) -> list:
    """Product of two coefficient lists of ints or Fractions."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_add(a: Sequence, b: Sequence, sign: int = 1) -> list:
    """a + sign*b for two coefficient lists."""
    return [x + sign * y for x, y in zip_longest(a, b, fillvalue=0)]


def integer_coeffs(*polys: EpsPoly) -> "list[list[int]]":
    """The coefficient lists of polys, all times the lcm of their coefficient
    denominators, so their ratios are kept."""
    return _clear([p.coeffs for p in polys])


def _lex_sign(v: "Iterable[int]") -> int:
    """The sign near e = 0 of a polynomial: that of its lowest nonzero coefficient."""
    for x in v:
        if x:
            return 1 if x > 0 else -1
    return 0


def _trim(v: "Sequence[int]") -> "list[int]":
    v = list(v)
    while v and v[-1] == 0:
        v.pop()
    return v


def _primitive(v: "list[int]") -> "list[int]":
    """A polynomial's coefficient list, the zero one included, with its
    content divided out and its sign kept (vectors up to scale are
    `linalg._primitive`)."""
    g = igcd(*v)
    return [x // g for x in v] if g > 1 else v


def _pseudo_rem(a: "list[int]", b: "list[int]") -> "list[int]":
    """Integer pseudo-remainder of a by b (coefficients low to high)."""
    r = a[:]
    db = len(b) - 1
    lb = b[-1]
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db or not r:
            break
        shift = len(r) - 1 - db
        lead = r[-1]
        r = [lb * x for x in r]
        for i in range(db + 1):
            r[shift + i] -= lead * b[i]
        r.pop()
    return r


def _int_gcd(u: "list[int]", v: "list[int]") -> "list[int]":
    """A primitive gcd of two nonzero trimmed integer polynomials, by a
    primitive-remainder sequence.  A linear v = v0 + v1*e divides u exactly
    when u vanishes at its root -v0/v1, which one integer Horner pass tells."""
    u, v = _primitive(u), _primitive(v)
    if len(u) < len(v):
        u, v = v, u
    if len(v) == 2:
        return [1] if _homogeneous(u, -v[0], v[1], len(u) - 1) else v
    while v:
        u, v = v, _primitive(_pseudo_rem(u, v))
    return u


def _exact_quo(a: "list[int]", b: "list[int]") -> "list[int]":
    """a / b on integers, for a primitive b that divides a over Q (by Gauss's
    lemma the quotient then has integer coefficients)."""
    rem = list(a)
    db, lead = len(b) - 1, b[-1]
    quo = [0] * (len(rem) - db)
    for shift in range(len(quo) - 1, -1, -1):
        q, r = divmod(rem[shift + db], lead)
        if r:
            raise InvariantBreach("inexact integer polynomial division")
        quo[shift] = q
        if q:
            for i, c in enumerate(b):
                rem[shift + i] -= q * c
    if any(rem[:db]):
        raise InvariantBreach("inexact integer polynomial division")
    return quo


def _normal_form(
    num: "Sequence[int]", den: "Sequence[int]"
) -> "tuple[tuple[int, ...], tuple[int, ...]]":
    """The normal form of num/den for integer coefficient lists, lowest
    degree first: the one reduction behind every EpsRat.

    A pair of one coefficient each, p/q with q != 0, is a constant: its
    normal form is p and q divided by one igcd that carries q's sign, and
    () over (1,) for p = 0.  Only the reduced pair has to fit the degree
    guard.
    """
    if len(num) == 1 and len(den) == 1 and den[0]:
        p, q = num[0], den[0]
        if not p:
            return (), (1,)
        g = igcd(p, q) if q > 0 else -igcd(p, q)
        return (p // g,), (q // g,)
    num, den = _trim(num), _trim(den)
    if not den:
        raise DivisionByZero("zero denominator in Q(e)")
    if not num:
        return (), (1,)
    if len(num) > 1 and len(den) > 1:
        g = _int_gcd(num, den)
        if len(g) > 1:
            num, den = _exact_quo(num, g), _exact_quo(den, g)
    c = igcd(*num, *den) * _lex_sign(den)
    if c != 1:
        num, den = [x // c for x in num], [x // c for x in den]
    _check_degree(num)
    _check_degree(den)
    return tuple(num), tuple(den)


def _make(num: "tuple[int, ...]", den: "tuple[int, ...]") -> "EpsRat":
    """An EpsRat from a pair already in normal form."""
    out = object.__new__(EpsRat)
    out.int_num, out.int_den = num, den
    return out


def _cmp(a: "EpsRat", b: "EpsRat") -> int:
    """The sign of a - b near e = 0: the lexicographic sign of
    a.num*b.den - b.num*a.den.  Both denominators are positive near 0, so no
    gcd or normalisation is needed."""
    return _lex_sign(
        poly_add(poly_mul(a.int_num, b.int_den), poly_mul(b.int_num, a.int_den), -1)
    )


def _homogeneous(v: "Sequence[int]", p: int, q: int, degree: int) -> int:
    """q^degree * v(p/q) on integers, for degree >= len(v) - 1, by Horner's rule."""
    acc, qk = 0, 1
    for c in reversed(v):
        acc = acc * p + c * qk
        qk *= q
    return acc * q ** (degree + 1 - len(v))


class EpsRat:
    """Element of Q(e), kept as the integer coefficient tuples `int_num` and
    `int_den` of a reduced fraction, lowest degree first.

    Normal form: gcd(num, den) = 1, den's lowest nonzero coefficient is
    positive and the joint content of the pair is 1, which makes equality
    structural and the sign of the element readable off the numerator's
    lowest nonzero coefficient.  The constructor and the field operations
    all reach it through one routine (`_normal_form`).  The properties `num`
    and `den` give the same fraction as EpsPoly values with Fraction
    coefficients, scaled so that den's lowest nonzero coefficient is 1.
    """

    __slots__ = ("int_num", "int_den")

    def __init__(self, num: EpsPoly, den: EpsPoly = EpsPoly((1,))):
        self.int_num, self.int_den = _normal_form(*integer_coeffs(num, den))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rat(cls, x: RatLike) -> "EpsRat":
        # p/q with q > 0 and gcd(p, q) = 1 is already in normal form.
        p, q = _ratio(x)
        return _make((p,) if p else (), (q,))

    @classmethod
    def from_integers(cls, num: "Sequence[int]", den: "Sequence[int]") -> "EpsRat":
        """num/den for integer coefficient lists, lowest degree first."""
        return _make(*_normal_form(num, den))

    @staticmethod
    def coerce(x: "EpsRatLike") -> "EpsRat":
        if isinstance(x, EpsRat):
            return x
        if isinstance(x, (int, Fraction)):
            return EpsRat.from_rat(x)
        raise TypeError("cannot coerce %r into Q(e)" % (x,))

    # -- rational form ---------------------------------------------------------

    def _rational(self, coeffs: "tuple[int, ...]") -> EpsPoly:
        c = next(x for x in self.int_den if x)
        return EpsPoly([Fraction(x, c) for x in coeffs])

    @property
    def num(self) -> EpsPoly:
        """The numerator, over a denominator with lowest coefficient 1."""
        return self._rational(self.int_num)

    @property
    def den(self) -> EpsPoly:
        """The denominator, scaled to lowest nonzero coefficient 1."""
        return self._rational(self.int_den)

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.int_num

    def is_constant(self) -> bool:
        return len(self.int_num) <= 1 and len(self.int_den) == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise BadParameters("not a constant element of Q(e): %s" % self)
        return Fraction(self.int_num[0] if self.int_num else 0, self.int_den[0])

    def sign(self) -> int:
        """Sign as e -> 0+: the sign of the numerator's lowest nonzero coefficient."""
        return _lex_sign(self.int_num)

    # -- field operations ------------------------------------------------------
    #
    # Each binary operation multiplies out the integer pairs of its operands
    # and normalises the result once.

    def __add__(self, other: "EpsRatLike") -> "EpsRat":
        try:
            o = EpsRat.coerce(other)
        except TypeError:
            return NotImplemented
        an, ad, bn, bd = self.int_num, self.int_den, o.int_num, o.int_den
        return EpsRat.from_integers(
            poly_add(poly_mul(an, bd), poly_mul(bn, ad)), poly_mul(ad, bd)
        )

    __radd__ = __add__

    def __neg__(self) -> "EpsRat":
        # Negating the numerator keeps the normal form.
        return _make(tuple(-x for x in self.int_num), self.int_den)

    def __sub__(self, other: "EpsRatLike") -> "EpsRat":
        try:
            o = EpsRat.coerce(other)
        except TypeError:
            return NotImplemented
        an, ad, bn, bd = self.int_num, self.int_den, o.int_num, o.int_den
        return EpsRat.from_integers(
            poly_add(poly_mul(an, bd), poly_mul(bn, ad), -1), poly_mul(ad, bd)
        )

    def __rsub__(self, other: "EpsRatLike") -> "EpsRat":
        return EpsRat.coerce(other) - self

    def __mul__(self, other: "EpsRatLike") -> "EpsRat":
        try:
            o = EpsRat.coerce(other)
        except TypeError:
            return NotImplemented
        return EpsRat.from_integers(
            poly_mul(self.int_num, o.int_num), poly_mul(self.int_den, o.int_den)
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "EpsRatLike") -> "EpsRat":
        try:
            o = EpsRat.coerce(other)
        except TypeError:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZero("division by zero in Q(e)")
        return EpsRat.from_integers(
            poly_mul(self.int_num, o.int_den), poly_mul(self.int_den, o.int_num)
        )

    def __rtruediv__(self, other: "EpsRatLike") -> "EpsRat":
        return EpsRat.coerce(other) / self

    def __pow__(self, k: int) -> "EpsRat":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if self.is_zero:
                raise DivisionByZero("zero to a negative power")
            return (ONE / self) ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- order ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (EpsRat, int, Fraction)):
            o = EpsRat.coerce(other)
            return self.int_num == o.int_num and self.int_den == o.int_den
        return NotImplemented

    def __hash__(self) -> int:
        # Equal values hash equal: a constant compares equal to its int or
        # Fraction, so it takes that value's hash.
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.int_num, self.int_den))

    def __lt__(self, other: "EpsRatLike") -> bool:
        return _cmp(self, EpsRat.coerce(other)) < 0

    def __le__(self, other: "EpsRatLike") -> bool:
        return _cmp(self, EpsRat.coerce(other)) <= 0

    def __gt__(self, other: "EpsRatLike") -> bool:
        return _cmp(self, EpsRat.coerce(other)) > 0

    def __ge__(self, other: "EpsRatLike") -> bool:
        return _cmp(self, EpsRat.coerce(other)) >= 0

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- evaluation and printing ----------------------------------------------

    def eval_at(self, x: RatLike) -> Fraction:
        """Exact substitution e := x for a rational x."""
        p, q = _ratio(x)
        degree = max(len(self.int_num), len(self.int_den)) - 1
        den = _homogeneous(self.int_den, p, q, degree)
        if den == 0:
            raise PoleAtPoint("denominator vanishes at e = %s" % (x,))
        return Fraction(_homogeneous(self.int_num, p, q, degree), den)

    def __str__(self) -> str:
        # The rational form: both polynomials over den's lowest coefficient.
        c = next(x for x in self.int_den if x)
        num = format_poly(self.int_num, den=c)
        if len(self.int_den) == 1:
            return num
        return "(%s)/(%s)" % (num, format_poly(self.int_den, den=c))

    def __repr__(self) -> str:
        return "EpsRat(%r)" % str(self)


EpsRatLike = Union[EpsRat, int, Fraction]

ZERO = _make((), (1,))
ONE = _make((1,), (1,))
#: The infinitesimal itself.
EPS = _make((0, 1), (1,))


def eps_cmp(a: EpsRatLike, b: EpsRatLike) -> int:
    """Total-order comparison in Q(e): -1, 0 or +1.

    Returns the sign of a - b for every sufficiently small positive rational e.
    """
    return _cmp(EpsRat.coerce(a), EpsRat.coerce(b))


def eval_at(a: EpsRatLike, x: RatLike) -> Fraction:
    """Module-level alias for EpsRat.eval_at."""
    return EpsRat.coerce(a).eval_at(x)


def clear_denominators(values: Sequence[EpsRatLike]) -> "list[list[int]]":
    """Integer coefficient vectors, all of one length, of the values times
    one common factor D*L that is positive near e = 0.

    Each value is num/(c*P), with c the content of its stored denominator
    and P primitive with a positive lowest coefficient.  D is the lcm of the
    P, also primitive with a positive lowest coefficient, so D is positive
    near 0; L is the least integer that makes every num*(D/P)*L/c integral.
    Multiplying by a positive factor keeps every sign, so the sign of a
    value, or of a sum of values minus k*D*L, is the lexicographic sign of
    its integer coefficients, lowest degree first.  D may pass the degree
    guard where no value does.
    """
    # tuple() and *args take lists here, not generators: a tuple made from a
    # generator is allocated at ten slots and shrunk, so CPython's per-size
    # tuple free lists only fill up.
    parts = []
    for x in values:
        x = EpsRat.coerce(x)
        c = igcd(*x.int_den)
        parts.append((x.int_num or (0,), c, tuple([v // c for v in x.int_den])))
    lcm_den = [1]
    for den in set(den for _, _, den in parts):
        den = list(den)
        lcm_den = poly_mul(lcm_den, _exact_quo(den, _int_gcd(lcm_den, den)))
    if _lex_sign(lcm_den) < 0:
        lcm_den = [-x for x in lcm_den]
    # x*D = num*(D/P)/c, in lowest terms.
    scaled = []
    for num, c, den in parts:
        poly = poly_mul(num, _exact_quo(lcm_den, list(den)))
        g = igcd(c, *poly)
        scaled.append(([x // g for x in poly], c // g))
    scale = lcm(*[c for _, c in scaled])
    levels = max(len(poly) for poly, _ in scaled)
    return [
        [x * (scale // c) for x in poly] + [0] * (levels - len(poly)) for poly, c in scaled
    ]


def _pack(coeffs: "Sequence[int]", bits: int) -> int:
    """The coefficients as one int in base 2^bits, lowest degree in the most
    significant digit; its sign is their lexicographic sign while every
    digit is below 2^(bits-1) in absolute value."""
    acc = 0
    for c in coeffs:
        acc = (acc << bits) + c
    return acc


def _unpack(x: int, bits: int, length: int) -> "list[int]":
    """Inverse of _pack for digits of absolute value below 2^(bits-1)."""
    if length == 1:
        return [x]
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    out = [0] * length
    for j in range(length - 1, -1, -1):
        digit = x & mask
        if digit >= half:
            digit -= mask + 1
        out[j] = digit
        x = (x - digit) >> bits
    return out


def positivity_radius(a: EpsRat) -> Fraction:
    """A rational r in (0, 1/2] such that sign(a.eval_at(x)) == a.sign() for
    every rational 0 < x < r.

    Uses the elementary root bound |p(x) - a_v x^v| < |a_v| x^v for
    0 < x < |a_v| / (|a_v| + max|a_i|), applied to numerator and denominator;
    the bound does not change when p is scaled.  For a = 0 the radius is 1/2
    (any point works).
    """

    def bound(p: "tuple[int, ...]") -> Fraction:
        v = next(i for i, c in enumerate(p) if c)
        lead = abs(p[v])
        rest = max((abs(c) for c in p[v + 1 :]), default=0)
        return Fraction(lead, lead + rest) if rest else Fraction(1, 2)

    if a.is_zero:
        return Fraction(1, 2)
    return min(bound(a.int_num), bound(a.int_den), Fraction(1, 2))


# ---------------------------------------------------------------------------
# Text form.  Canonical output looks like "(1 - 3*e)/(1 - 2*e)"; the parser
# accepts any +,-,*,/,^ expression over integers, fractions and the variable,
# so printed values always parse back to the same element.
# ---------------------------------------------------------------------------


def format_poly(coeffs: Sequence[RatLike], var: str = "e", den: int = 1) -> str:
    """Render the polynomial with coefficients coeffs[k]/den (degree-ascending)
    as readable text; den is a positive int."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        p, q = _ratio(c)
        q *= den
        g = igcd(p, q)
        try:
            mag = "%d" % (abs(p) // g) if q == g else "%d/%d" % (abs(p) // g, q // g)
        except ValueError as exc:  # past Python's int-to-str digit limit
            raise SizeGuard(
                "a coefficient of %d bits is too long to print" % max(abs(p), q).bit_length()
            ) from exc
        if k == 0:
            body = mag
        else:
            pow_s = var if k == 1 else "%s^%d" % (var, k)
            body = pow_s if mag == "1" else "%s*%s" % (mag, pow_s)
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    head_sign, head = terms[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, body in terms[1:]:
        out += " %s %s" % (sign, body)
    return out


_DIGITS = "0123456789"


def _tokenize(text: str, var: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("**", i):
            tokens.append("**")
            i += 2
            continue
        if ch in "+-*/^()":
            tokens.append(ch)
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise ParseError(
                    "integer literal of %d digits exceeds the limit of %d"
                    % (j - i, MAX_LITERAL_DIGITS)
                )
            tokens.append(int(text[i:j]))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            name = text[i:j]
            if name != var:
                raise ParseError("unknown symbol %r (variable is %r)" % (name, var))
            tokens.append(var)
            i = j
            continue
        raise ParseError("unexpected character %r in %r" % (ch, text))
    return tokens


class _Parser:
    """Recursive-descent parser evaluating directly in Q(e).

    Every value it makes, whole or partial, keeps its coefficients within
    MAX_LITERAL_DIGITS digits; a power is refused before it is computed when
    its coefficients could pass that bound.
    """

    def __init__(self, tokens, var):
        self.tokens = tokens
        self.pos = 0
        self.var = var
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def signs(self) -> bool:
        """Consume a run of + and - signs; whether it negates."""
        neg = False
        while self.peek() in ("+", "-"):
            neg ^= self.take() == "-"
        return neg

    @staticmethod
    def bounded(value: EpsRat) -> EpsRat:
        if any(abs(c) >= _COEFF_BOUND for c in value.int_num + value.int_den):
            raise ParseError("a coefficient exceeds %d digits" % MAX_LITERAL_DIGITS)
        return value

    def expr(self) -> EpsRat:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = self.bounded(value + rhs if op == "+" else value - rhs)
        return value

    def term(self) -> EpsRat:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            value = self.bounded(value * rhs if op == "*" else value / rhs)
        return value

    def factor(self) -> EpsRat:
        neg = self.signs()
        value = self.atom()
        while self.peek() in ("^", "**"):
            self.take()
            inverse = self.signs()
            k = self.take()
            if not isinstance(k, int):
                raise ParseError("exponent must be an integer")
            if k > MAX_EPS_DEGREE:
                raise ParseError(
                    "exponent %d exceeds the limit of %d" % (k, MAX_EPS_DEGREE)
                )
            # Each coefficient of p^k is at most (sum of |coefficients|)^k.
            bits = max(sum(map(abs, p)) for p in (value.int_num, value.int_den)).bit_length()
            if bits * k > _COEFF_BOUND.bit_length():
                raise ParseError(
                    "a power to %d of coefficients summing to %d bits could exceed %d digits"
                    % (k, bits, MAX_LITERAL_DIGITS)
                )
            value = self.bounded(value ** (-k if inverse else k))
        return -value if neg else value

    def atom(self) -> EpsRat:
        tok = self.take()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError("parentheses nested deeper than %d" % MAX_NESTING)
            value = self.expr()
            if self.take() != ")":
                raise ParseError("unbalanced parentheses")
            self.depth -= 1
            return value
        if isinstance(tok, int):
            return EpsRat.from_rat(tok)
        if tok == self.var:
            return EPS
        raise ParseError("unexpected token %r" % (tok,))


def parse_eps_rat(text: str, var: str = "e") -> EpsRat:
    """Parse a rational-function expression in the given variable."""
    if not isinstance(text, str):
        raise ParseError("expected an expression string, got %r" % (text,))
    if not text.strip():
        raise ParseError("empty expression")
    parser = _Parser(_tokenize(text, var), var)
    value = parser.expr()
    if parser.peek() is not None:
        raise ParseError("trailing input after expression in %r" % text)
    return value


def parse_poly(text: str, var: str = "t") -> "tuple[Fraction, ...]":
    """Parse a polynomial expression; rejects genuine denominators."""
    value = parse_eps_rat(text, var=var)
    if len(value.int_den) != 1:
        raise ParseError("expected a polynomial in %r, got %s" % (var, text))
    c = value.int_den[0]
    return tuple([Fraction(x, c) for x in value.int_num])


def parse_rat(text: str) -> Fraction:
    """Parse an exact rational number such as "3", "-1/2" or "2^-3".

    The grammar is parse_eps_rat's, and the value must be a constant: ASCII
    digits, each literal at most MAX_LITERAL_DIGITS long, with + - * / ^ and
    parentheses.  Decimals ("0.5"), exponent notation ("1e5"), digit
    separators ("1_0") and non-ASCII digits are refused, as in weight entries.
    """
    if not isinstance(text, str):
        raise ParseError("expected a rational number as a string, got %r" % (text,))
    value = parse_eps_rat(text)
    if not value.is_constant():
        raise ParseError("expected a rational number, got %r" % text)
    return value.constant_value()


def parse_int(text: str) -> int:
    """Parse an integer: an optional "-" and at most MAX_LITERAL_DIGITS
    ASCII digits, nothing else."""
    if not isinstance(text, str):
        raise ParseError("expected an integer as a string, got %r" % (text,))
    digits = text[1:] if text.startswith("-") else text
    if not digits or digits.strip(_DIGITS):
        raise ParseError("not an integer: %r" % text)
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ParseError(
            "integer literal of %d digits exceeds the limit of %d"
            % (len(digits), MAX_LITERAL_DIGITS)
        )
    return int(text)
