"""Exact arithmetic in the ordered field Q(e) of rational functions in an
infinitesimal e.

Elements are reduced fractions of polynomials in e with arbitrary-precision
rational coefficients.  The order is the one induced by evaluation at
0 < e << 1: a nonzero element is positive exactly when the lowest-degree
nonzero coefficient of its numerator is positive, once the denominator is
normalized to have lowest-degree coefficient +1.  This turns every
"for e small enough" comparison into an exact, decidable one.

Plain rationals are handled by fractions.Fraction, re-exported as Rat.
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
)

Rat = Fraction

RatLike = Union[int, Fraction]

#: Hard cap on polynomial degree.  Nothing in this problem domain exceeds
#: degree two; a larger degree almost certainly signals a bug upstream.
#: The parser refuses exponents past it as well.
MAX_EPS_DEGREE = 64

#: The parser refuses integer literals longer than this, well below the
#: 4300-digit limit of Python's int().
MAX_LITERAL_DIGITS = 1000


def _as_fraction(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % (x,))


class EpsPoly:
    """Polynomial in e over Q, coefficients stored from degree 0 upward.

    The zero polynomial has an empty coefficient tuple; otherwise the last
    stored coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) - 1 > MAX_EPS_DEGREE:
            raise DegreeOverflow(
                "polynomial degree %d exceeds guard %d" % (len(cs) - 1, MAX_EPS_DEGREE)
            )
        self.coeffs = tuple(cs)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient (-1 for the zero polynomial)."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return -1

    def lowest_coeff(self) -> Fraction:
        v = self.valuation()
        if v < 0:
            return Fraction(0)
        return self.coeffs[v]

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EpsPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "EpsPoly") -> "EpsPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return EpsPoly(out)

    def __neg__(self) -> "EpsPoly":
        return EpsPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "EpsPoly") -> "EpsPoly":
        return self + (-other)

    def __mul__(self, other: "EpsPoly") -> "EpsPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return EpsPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return EpsPoly(out)

    def scale(self, c: RatLike) -> "EpsPoly":
        c = _as_fraction(c)
        return EpsPoly(tuple(c * x for x in self.coeffs))

    def divmod(self, other: "EpsPoly") -> "tuple[EpsPoly, EpsPoly]":
        """Polynomial long division over Q; other must be nonzero."""
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        db, lead = other.degree, other.coeffs[-1]
        quo = [Fraction(0)] * max(0, len(rem) - db)
        while len(rem) - 1 >= db and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < db:
                break
            shift = len(rem) - 1 - db
            q = rem[-1] / lead
            quo[shift] = q
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= q * c
            rem.pop()
        return EpsPoly(quo), EpsPoly(rem)

    def __call__(self, x: RatLike) -> Fraction:
        """Evaluate at a rational point by Horner's rule."""
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


# -- coefficient lists, lowest degree first ------------------------------------


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
    scale = lcm(*(c.denominator for p in polys for c in p.coeffs))
    return [[c.numerator * (scale // c.denominator) for c in p.coeffs] for p in polys]


def _trim(v: "Sequence[int]") -> "list[int]":
    v = list(v)
    while v and v[-1] == 0:
        v.pop()
    return v


def _primitive(v: "list[int]") -> "list[int]":
    g = 0
    for x in v:
        g = igcd(g, x)
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
    primitive-remainder sequence."""
    u, v = _primitive(u), _primitive(v)
    if len(u) < len(v):
        u, v = v, u
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


def poly_gcd(a: EpsPoly, b: EpsPoly) -> EpsPoly:
    """Monic gcd over Q (gcd(0, 0) = 0).

    Runs a primitive-remainder sequence on denominator-cleared integer
    coefficients: for the typical coprime operands this touches no Fraction
    arithmetic beyond the final normalization.
    """
    if a.is_zero:
        return b if b.is_zero else b.scale(1 / b.coeffs[-1])
    if b.is_zero:
        return a.scale(1 / a.coeffs[-1])
    u = _int_gcd(*integer_coeffs(a, b))
    return EpsPoly([Fraction(c, u[-1]) for c in u])


_ZERO_POLY = EpsPoly()
_ONE_POLY = EpsPoly((1,))


class EpsRat:
    """Element of Q(e), kept as a reduced fraction of EpsPoly.

    Normal form: gcd(num, den) = 1 and the lowest-degree nonzero coefficient
    of den equals +1, which makes equality structural and the sign of the
    element readable off the numerator's lowest-degree coefficient.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: EpsPoly, den: EpsPoly = _ONE_POLY):
        if den.is_zero:
            raise DivisionByZero("zero denominator in Q(e)")
        if num.is_zero:
            self.num = _ZERO_POLY
            self.den = _ONE_POLY
            return
        if den.degree == 0:
            # Constant denominators are absorbed outright; no gcd needed.
            c = den.coeffs[0]
            self.num = num if c == 1 else num.scale(1 / c)
            self.den = _ONE_POLY
            return
        if num.degree > 0:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
                if den.degree == 0:
                    c = den.coeffs[0]
                    self.num = num if c == 1 else num.scale(1 / c)
                    self.den = _ONE_POLY
                    return
        c = den.lowest_coeff()
        if c != 1:
            num = num.scale(1 / c)
            den = den.scale(1 / c)
        self.num = num
        self.den = den

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rat(cls, x: RatLike) -> "EpsRat":
        return cls(EpsPoly((_as_fraction(x),)))

    @classmethod
    def from_integers(cls, num: "Sequence[int]", den: "Sequence[int]") -> "EpsRat":
        """num/den for integer coefficient lists, lowest degree first.

        The gcd is taken on the integer lists before any EpsPoly is built, so
        only the reduced quotient has to fit the degree guard.
        """
        num, den = _trim(num), _trim(den)
        if not den:
            raise DivisionByZero("zero denominator in Q(e)")
        if not num:
            return cls(_ZERO_POLY)
        if len(num) > 1 and len(den) > 1:
            g = _int_gcd(num, den)
            if len(g) > 1:
                num, den = _exact_quo(num, g), _exact_quo(den, g)
        c = next(x for x in den if x)
        out = cls.__new__(cls)
        out.num = EpsPoly([Fraction(x, c) for x in num])
        out.den = EpsPoly([Fraction(x, c) for x in den])
        return out

    @staticmethod
    def coerce(x: "EpsRatLike") -> "EpsRat":
        if isinstance(x, EpsRat):
            return x
        if isinstance(x, (int, Fraction)):
            return EpsRat.from_rat(x)
        raise TypeError("cannot coerce %r into Q(e)" % (x,))

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den == _ONE_POLY

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise BadParameters("not a constant element of Q(e): %s" % self)
        return self.num.coeff(0)

    def sign(self) -> int:
        """Sign as e -> 0+: the sign of the numerator's lowest nonzero coefficient."""
        if self.num.is_zero:
            return 0
        return 1 if self.num.lowest_coeff() > 0 else -1

    # -- field operations ------------------------------------------------------

    def __add__(self, other: "EpsRatLike") -> "EpsRat":
        try:
            o = EpsRat.coerce(other)
        except TypeError:
            return NotImplemented
        return EpsRat(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "EpsRat":
        return EpsRat(-self.num, self.den)

    def __sub__(self, other: "EpsRatLike") -> "EpsRat":
        try:
            o = EpsRat.coerce(other)
        except TypeError:
            return NotImplemented
        return EpsRat(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other: "EpsRatLike") -> "EpsRat":
        return EpsRat.coerce(other) - self

    def __mul__(self, other: "EpsRatLike") -> "EpsRat":
        try:
            o = EpsRat.coerce(other)
        except TypeError:
            return NotImplemented
        return EpsRat(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "EpsRatLike") -> "EpsRat":
        try:
            o = EpsRat.coerce(other)
        except TypeError:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZero("division by zero in Q(e)")
        return EpsRat(self.num * o.den, self.den * o.num)

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
            return self.num == o.num and self.den == o.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __lt__(self, other: "EpsRatLike") -> bool:
        return (self - EpsRat.coerce(other)).sign() < 0

    def __le__(self, other: "EpsRatLike") -> bool:
        return (self - EpsRat.coerce(other)).sign() <= 0

    def __gt__(self, other: "EpsRatLike") -> bool:
        return (self - EpsRat.coerce(other)).sign() > 0

    def __ge__(self, other: "EpsRatLike") -> bool:
        return (self - EpsRat.coerce(other)).sign() >= 0

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- evaluation and printing ----------------------------------------------

    def eval_at(self, x: RatLike) -> Fraction:
        """Exact substitution e := x for a rational x."""
        x = _as_fraction(x)
        d = self.den(x)
        if d == 0:
            raise PoleAtPoint("denominator vanishes at e = %s" % x)
        return self.num(x) / d

    def __str__(self) -> str:
        if self.den == _ONE_POLY:
            return format_poly(self.num.coeffs)
        return "(%s)/(%s)" % (format_poly(self.num.coeffs), format_poly(self.den.coeffs))

    def __repr__(self) -> str:
        return "EpsRat(%r)" % str(self)


EpsRatLike = Union[EpsRat, int, Fraction]

ZERO = EpsRat(_ZERO_POLY)
ONE = EpsRat(_ONE_POLY)
#: The infinitesimal itself.
EPS = EpsRat(EpsPoly((0, 1)))


def eps_cmp(a: EpsRatLike, b: EpsRatLike) -> int:
    """Total-order comparison in Q(e): -1, 0 or +1.

    Returns the sign of a - b for every sufficiently small positive rational e.
    """
    return (EpsRat.coerce(a) - EpsRat.coerce(b)).sign()


def eps_arith(a: EpsRatLike, b: EpsRatLike, op: str) -> EpsRat:
    """Field arithmetic by op name: one of "add", "sub", "mul", "div"."""
    a = EpsRat.coerce(a)
    b = EpsRat.coerce(b)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise BadParameters("unknown arithmetic op %r" % op)


def eval_at(a: EpsRatLike, x: RatLike) -> Fraction:
    """Module-level alias for EpsRat.eval_at."""
    return EpsRat.coerce(a).eval_at(x)


def clear_denominators(values: Sequence[EpsRatLike]) -> "list[list[int]]":
    """Integer coefficient vectors, all of one length, of the values times
    one common factor D*L that is positive near e = 0.

    Each denominator in normal form has lowest coefficient +1, so the
    product D of the distinct denominators is positive near 0; L is the lcm
    of the rational coefficients' denominators.  Multiplying by a positive
    factor keeps every sign, so the sign of a value, or of a sum of values
    minus k*D*L, is the lexicographic sign of its integer coefficients,
    lowest degree first.  The products run on plain coefficient lists, so D
    may pass the EpsPoly degree guard where no value does.
    """
    parts = [
        (x.num.coeffs or (0,), x.den.coeffs) if isinstance(x, EpsRat) else ((x,), (1,))
        for x in values
    ]
    dens = set(den for _, den in parts)
    scaled = []
    for num, den in parts:
        poly = list(num)
        for other in dens - {den}:
            poly = poly_mul(poly, other)
        scaled.append(poly)
    scale = lcm(*(x.denominator for poly in scaled for x in poly))
    levels = max(len(poly) for poly in scaled)
    return [
        [int(x * scale) for x in poly] + [0] * (levels - len(poly)) for poly in scaled
    ]


def positivity_radius(a: EpsRat) -> Fraction:
    """A rational r in (0, 1/2] such that sign(a.eval_at(x)) == a.sign() for
    every rational 0 < x < r.

    Uses the elementary root bound |p(x) - a_v x^v| < |a_v| x^v for
    0 < x < |a_v| / (|a_v| + max|a_i|), applied to numerator and denominator.
    For a = 0 the radius is 1/2 (any point works).
    """

    def bound(p: EpsPoly) -> Fraction:
        v = p.valuation()
        lead = abs(p.coeffs[v])
        rest = [abs(c) for c in p.coeffs[v + 1 :]]
        if not rest:
            return Fraction(1, 2)
        m = max(rest)
        return lead / (lead + m)

    if a.is_zero:
        return Fraction(1, 2)
    return min(bound(a.num), bound(a.den), Fraction(1, 2))


# ---------------------------------------------------------------------------
# Text form.  Canonical output looks like "(1 - 3*e)/(1 - 2*e)"; the parser
# accepts any +,-,*,/,^ expression over integers, fractions and the variable,
# so printed values always parse back to the same element.
# ---------------------------------------------------------------------------


def format_poly(coeffs: Sequence[Fraction], var: str = "e") -> str:
    """Render a coefficient tuple (degree-ascending) as a readable polynomial."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            pow_s = var if k == 1 else "%s^%d" % (var, k)
            body = pow_s if mag == 1 else "%s*%s" % (mag, pow_s)
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    head_sign, head = terms[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, body in terms[1:]:
        out += " %s %s" % (sign, body)
    return out


_TOKEN_OPS = ("**", "+", "-", "*", "/", "^", "(", ")")


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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
    """Recursive-descent parser evaluating directly in Q(e)."""

    def __init__(self, tokens, var):
        self.tokens = tokens
        self.pos = 0
        self.var = var

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self) -> EpsRat:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        value = self.term()
        if sign < 0:
            value = -value
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> EpsRat:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self) -> EpsRat:
        if self.peek() in ("+", "-"):
            op = self.take()
            value = self.factor()
            return -value if op == "-" else value
        value = self.atom()
        while self.peek() in ("^", "**"):
            self.take()
            neg = False
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    neg = not neg
            k = self.take()
            if not isinstance(k, int):
                raise ParseError("exponent must be an integer")
            if k > MAX_EPS_DEGREE:
                raise ParseError(
                    "exponent %d exceeds the limit of %d" % (k, MAX_EPS_DEGREE)
                )
            value = value ** (-k if neg else k)
        return value

    def atom(self) -> EpsRat:
        tok = self.take()
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ParseError("unbalanced parentheses")
            return value
        if isinstance(tok, int):
            return EpsRat.from_rat(tok)
        if tok == self.var:
            return EpsRat(EpsPoly((0, 1)))
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
    if value.den != _ONE_POLY:
        raise ParseError("expected a polynomial in %r, got %s" % (var, text))
    return value.num.coeffs


def parse_rat(text: str) -> Fraction:
    """Parse an exact rational number such as "3", "-1/2"."""
    if not isinstance(text, str):
        raise ParseError("expected a rational number as a string, got %r" % (text,))
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("not a rational number: %r" % text) from exc
