"""Divisor classes and intersection numbers on the blow-up of P^d at a point.

Only two divisor classes matter here: H, the pullback of a hyperplane
missing the blown-up point p, and E, the exceptional divisor.  Ampleness of
the log divisors that appear in the degeneration analysis is decided
against three test curve classes:

    e  a line inside E            H.e = 0   E.e = -1
    f  strict transform of a      H.f = 1   E.f =  1
       line through p
    s  strict transform of a      H.s = 1   E.s =  0
       line missing p

A separate, matrix-driven surface model (PairingSurface) covers the
boundary-curve ampleness checks on other toric surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .epsfield import EPS, EpsRat, EpsRatLike, Rat, exact_rat
from .errors import BadParameters, DimensionMismatch, SizeGuard

#: A pairing surface is refused when its estimated work (see PairingSurface)
#: passes this; surfaces near the cap took 1 to 3 s of CPU on a 2-vCPU host.
MAX_PAIRING_WORK = 2 * 10**7


class TestCurve(Enum):
    __test__ = False  # keep pytest from collecting this despite the name

    E_LINE = "e"
    LINE_THROUGH_P = "f"
    LINE_MISSING_P = "s"


#: (H . curve, E . curve) for each test curve class.
PAIRING_TABLE = {
    TestCurve.E_LINE: (0, -1),
    TestCurve.LINE_THROUGH_P: (1, 1),
    TestCurve.LINE_MISSING_P: (1, 0),
}


@dataclass(frozen=True)
class BlowupDivisor:
    """The class h*H + e*E on the blow-up of P^d at a point (d >= 2)."""

    d: int
    h: EpsRat
    e: EpsRat

    def __post_init__(self):
        if self.d < 2:
            raise BadParameters("blow-up divisor classes need d >= 2")
        object.__setattr__(self, "h", EpsRat.coerce(self.h))
        object.__setattr__(self, "e", EpsRat.coerce(self.e))

    def __add__(self, other: "BlowupDivisor") -> "BlowupDivisor":
        if self.d != other.d:
            raise DimensionMismatch("divisors on blow-ups of different dimension")
        return BlowupDivisor(self.d, self.h + other.h, self.e + other.e)

    def scale(self, c: EpsRatLike) -> "BlowupDivisor":
        c = EpsRat.coerce(c)
        return BlowupDivisor(self.d, self.h * c, self.e * c)


def hyperplane_class(d: int) -> BlowupDivisor:
    return BlowupDivisor(d, EpsRat.from_rat(1), EpsRat.from_rat(0))


def exceptional_class(d: int) -> BlowupDivisor:
    return BlowupDivisor(d, EpsRat.from_rat(0), EpsRat.from_rat(1))


def through_p_class(d: int) -> BlowupDivisor:
    """Strict transform of a hyperplane through p: H - E."""
    return BlowupDivisor(d, EpsRat.from_rat(1), EpsRat.from_rat(-1))


def canonical_class(d: int) -> BlowupDivisor:
    """-(d+1)H + (d-1)E."""
    if d < 2:
        raise BadParameters("canonical class of a blow-up needs d >= 2")
    return BlowupDivisor(d, EpsRat.from_rat(-(d + 1)), EpsRat.from_rat(d - 1))


def pair(divisor: BlowupDivisor, curve: TestCurve) -> EpsRat:
    """Bilinear extension of the pairing table."""
    h_dot, e_dot = PAIRING_TABLE[curve]
    return divisor.h * h_dot + divisor.e * e_dot


def degeneration_log_divisor(d: int, n: int, eps: EpsRatLike = EPS) -> BlowupDivisor:
    """Log divisor of the blown-up component of the two-component degeneration.

    Assembled from its summands, never from a pre-simplified form: the
    conductor E, the canonical class, d+1 strict transforms of hyperplanes
    through p with weight 1-eps, and n-d-1 hyperplane classes each weighted
    (1+eps)/(n-d-1).  Collecting terms yields (1-eps*d)H + (eps*(1+d)-1)E.
    """
    if n < d + 3:
        raise BadParameters("need n >= d + 3")
    eps = EpsRat.coerce(eps)
    heavy = through_p_class(d).scale((1 - eps) * (d + 1))
    light = hyperplane_class(d).scale((1 + eps) / (n - d - 1) * (n - d - 1))
    return exceptional_class(d) + canonical_class(d) + heavy + light


def is_ample_blowup(divisor: BlowupDivisor) -> bool:
    """Positivity against e, f and s decides ampleness on this surface model."""
    return all(pair(divisor, curve).sign() > 0 for curve in TestCurve)


def y1_log_divisor(d: int, eps: EpsRatLike = EPS) -> EpsRat:
    """Hyperplane coefficient of the log divisor on the plain-P^d component:
    conductor + canonical + d+1 hyperplanes of weight 1-eps, i.e. 1-(d+1)*eps."""
    if d < 1:
        raise BadParameters("need d >= 1")
    eps = EpsRat.coerce(eps)
    return EpsRat.from_rat(1) + EpsRat.from_rat(-(d + 1)) + (1 - eps) * (d + 1)


def ruled_fiber_degree(d: int, eps: EpsRatLike = EPS) -> EpsRat:
    """Degree on a ruling fiber of the log divisor of an intermediate
    component: canonical + two-piece conductor (E and a hyperplane off p)
    + d+1 weighted strict transforms through p.  Vanishes identically,
    which is what justifies contracting these components fiberwise."""
    if d < 2:
        raise BadParameters("need d >= 2")
    eps = EpsRat.coerce(eps)
    total = (
        canonical_class(d)
        + exceptional_class(d)
        + hyperplane_class(d)
        + through_p_class(d).scale((1 - eps) * (d + 1))
    )
    return pair(total, TestCurve.LINE_THROUGH_P)


@dataclass(frozen=True)
class ModificationChecks:
    on_exceptional: EpsRat
    on_ruling_lower: EpsRat


def modification_checks(n: int, eps: EpsRatLike = EPS) -> ModificationChecks:
    """The two positivity margins of the plane-case modification (d = 2).

    on_exceptional: degree of the modified log divisor on the exceptional
    curve of the small blow-up, 1 - (1-eps) + ((1+eps)/(n-3))*0 = eps.
    on_ruling_lower: the worst-case degree on a ruling through the blown-up
    point, -2 + 2(1-eps) + (1+eps)/(n-3) = (1 + eps(1-2(n-3)))/(n-3).
    Both must be positive for the modification to stay ample.
    """
    if n < 5:
        raise BadParameters("need n >= 5")
    eps = EpsRat.coerce(eps)
    light = (1 + eps) / (n - 3)
    on_exceptional = 1 - (1 - eps) + light * 0
    on_ruling_lower = -2 + (1 - eps) * 2 + light * 1
    return ModificationChecks(on_exceptional, on_ruling_lower)


class PairingSurface:
    """A projective surface described only by its boundary curves.

    matrix[i][j] is the exact intersection number of boundary curves i and j
    (taken as ground truth, symmetric), and divisor[i] is the coefficient of
    curve i in the divisor under test.  On a toric surface the boundary
    curves generate the effective cone, so strict positivity against all of
    them certifies ampleness.

    A surface whose curve degrees would cost more than MAX_PAIRING_WORK is
    refused before any is computed.  Each of the m degrees sums up to m
    products in Q(e).  A partial sum has degree below D, one more than the
    top numerator degree plus the degrees of the distinct denominators, and
    coefficients of about W 64-bit words, the distinct denominators' largest
    coefficients together.  Adding a product to it costs about
    (8 + D*(1 + W))^2, where 8 stands for the fixed cost of a Q(e)
    operation, so the estimate is (m*(8 + D*(1 + W)))^2.
    """

    __slots__ = ("matrix", "divisor")

    def __init__(
        self,
        matrix: Sequence[Sequence[Rat]],
        divisor: Sequence[EpsRatLike],
    ):
        m = len(matrix)
        if m == 0:
            raise BadParameters("a pairing surface needs at least one boundary curve")
        rows = []
        for i, row in enumerate(matrix, 1):
            vec = tuple(
                [exact_rat(x, "matrix entry (%d, %d)", i, j) for j, x in enumerate(row, 1)]
            )
            if len(vec) != m:
                raise DimensionMismatch("intersection matrix must be square")
            rows.append(vec)
        for i in range(m):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise BadParameters("intersection matrix must be symmetric")
        div = tuple(
            [
                x
                if isinstance(x, EpsRat)
                else EpsRat.from_rat(exact_rat(x, "divisor entry %d", i))
                for i, x in enumerate(divisor, 1)
            ]
        )
        if len(div) != m:
            raise DimensionMismatch("divisor coefficient count must match curves")
        dens = {x.int_den for x in div}
        degree = max(len(x.int_num) for x in div) + sum(len(den) - 1 for den in dens)
        words = sum(max(map(abs, den)).bit_length() for den in dens) // 64
        work = (m * (8 + degree * (1 + words))) ** 2
        if work > MAX_PAIRING_WORK:
            raise SizeGuard(
                "pairing surface of %d curves (D = %d, W = %d) needs about %d steps; "
                "capped at %d" % (m, degree, words, work, MAX_PAIRING_WORK)
            )
        self.matrix = tuple(rows)
        self.divisor = div

    @property
    def curve_count(self) -> int:
        return len(self.matrix)

    def curve_degree(self, j: int, coeffs: Optional[Sequence[EpsRat]] = None) -> EpsRat:
        """Pairing of the (given or stored) divisor with boundary curve j."""
        cs = self.divisor if coeffs is None else coeffs
        acc = EpsRat.from_rat(0)
        for i, c in enumerate(cs):
            if self.matrix[i][j]:
                acc = acc + c * self.matrix[i][j]
        return acc


def ample_from_pairing(surface: PairingSurface) -> bool:
    """Strict positivity of the stored divisor against every boundary curve."""
    return all(
        surface.curve_degree(j).sign() > 0 for j in range(surface.curve_count)
    )


def ample_coefficient_threshold(
    surface: PairingSurface, perturbation: Sequence[EpsRatLike]
) -> Optional[EpsRat]:
    """Largest c* such that divisor + c*perturbation stays ample for 0 < c < c*.

    The stored divisor must already be ample.  Returns None when the
    perturbation never hurts (every coefficient works); otherwise
    c* = min over curves with negative perturbation degree of
    (divisor degree) / -(perturbation degree).
    """
    pert = tuple(EpsRat.coerce(x) for x in perturbation)
    if len(pert) != surface.curve_count:
        raise DimensionMismatch("perturbation coefficient count must match curves")
    best: Optional[EpsRat] = None
    for j in range(surface.curve_count):
        base = surface.curve_degree(j)
        if base.sign() <= 0:
            raise BadParameters("base divisor is not ample on curve %d" % j)
        drop = surface.curve_degree(j, pert)
        if drop.sign() < 0:
            bound = base / (-drop)
            if best is None or (bound - best).sign() < 0:
                best = bound
    return best
