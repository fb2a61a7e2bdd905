"""One-parameter degenerations of hyperplanes as truncated jets in t.

A member of a family is a (d+1)-vector (a_0, ..., a_d) of polynomials in t
describing the moving hyperplane a_0(t) + a_1(t)x_1 + ... + a_d(t)x_d = 0
in a fixed affine chart.  The normal form pins the common limit hyperplane
to x_1 = 0: a_1(0) != 0 while every other coefficient vanishes at t = 0.

Blowing up the limit hyperplane once replaces each member by a section of a
P^1-bundle over the exceptional divisor; the section is the affine-linear
function read off the first-order data.  When members agree to higher
order, the blow-up is iterated; only the separation depth s (the first
order at which the normalized members differ) and the order-s data matter,
because the intermediate components are contracted again (their log
divisors have fiber degree zero, see blowup.ruled_fiber_degree).

No jet is divided.  For units a and b, p/a and q/b agree modulo t^(k+1)
exactly when the cross products p*b and q*a do.  The separation pass clears
each member's denominators with one factor, which leaves p/a unchanged, and
builds the integer cross products against the first member one order at a
time, up to the first order s where one is nonzero (see _separate).

Jets are truncated, never lazy: if a family is indistinguishable at its
truncation order, that is an explicit error, not a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .blowup import degeneration_log_divisor, is_ample_blowup, y1_log_divisor
from .epsfield import EPS, EpsRatLike, Rat, exact_rat
from .errors import (
    BadParameters,
    DimensionMismatch,
    IndistinguishableAtTruncation,
    InsufficientTruncation,
    NotInNormalForm,
    SizeGuard,
)
from .linalg import _clear

#: Truncation orders past this are refused: separating a family builds
#: cross products of jets, up to order^2 products of growing integers each.
MAX_JET_ORDER = 64

#: Families are refused past this many coefficient products, estimated as
#: members * (d+1) * order^2 (see check_size); separating one builds at most
#: members * (d+1) * s^2, at depth s < order.  Random dense families in P^2
#: at this cap took 0.11 s (21 members of order 32, at depth 1 or 31) and
#: 0.58 s (1365 members of order 4, mostly parsing) of CPU through `replace`
#: on a 2-vCPU x86_64 host.
MAX_FAMILY_WORK = 2**16


class JetPoly:
    """Truncated polynomial in t: the coefficients of t^0 .. t^(order-1)."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable[Rat], order: int | None = None):
        cs = [exact_rat(c, "jet coefficient of t^%d", k) for k, c in enumerate(coeffs)]
        if order is None:
            order = len(cs)
        if order < 1:
            raise BadParameters("truncation order must be at least 1")
        if order > MAX_JET_ORDER:
            raise SizeGuard(
                "truncation order %d exceeds the cap of %d" % (order, MAX_JET_ORDER)
            )
        if len(cs) > order:
            cs = cs[:order]
        else:
            cs.extend([Fraction(0)] * (order - len(cs)))
        self.coeffs = tuple(cs)
        self.order = order

    def coeff(self, k: int) -> Fraction:
        if k >= self.order:
            raise InsufficientTruncation(
                "coefficient of t^%d beyond truncation order %d" % (k, self.order)
            )
        return self.coeffs[k]

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0]

    def __sub__(self, other: "JetPoly") -> "JetPoly":
        order = min(self.order, other.order)
        return JetPoly(
            [a - b for a, b in zip(self.coeffs[:order], other.coeffs[:order])], order
        )

    def __mul__(self, other: "JetPoly") -> "JetPoly":
        order = min(self.order, other.order)
        out = [Fraction(0)] * order
        for i, a in enumerate(self.coeffs[:order]):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: order - i]):
                out[i + j] += a * b
        return JetPoly(out, order)

    def scale(self, c: Rat) -> "JetPoly":
        c = exact_rat(c, "jet scale factor")
        return JetPoly([c * a for a in self.coeffs], self.order)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, JetPoly):
            return self.coeffs == other.coeffs and self.order == other.order
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs, self.order))

    def __repr__(self) -> str:
        return "JetPoly(%s; order=%d)" % (list(self.coeffs), self.order)


def check_size(members: int, d: int, order: int) -> None:
    """Refuse a family whose separation pass could build more than
    MAX_FAMILY_WORK coefficient products, stating the estimate."""
    work = members * (d + 1) * order * order
    if work > MAX_FAMILY_WORK:
        raise SizeGuard(
            "%d members of %d jets at order %d would take about %s coefficient "
            "products (members x (d+1) x order^2); capped at %s"
            % (members, d + 1, order, format(work, ","), format(MAX_FAMILY_WORK, ","))
        )


def _check_normal_form(member: Sequence[JetPoly]) -> None:
    if len(member) < 2:
        raise BadParameters("a member needs at least two coefficient jets")
    if member[1].constant == 0:
        raise NotInNormalForm("a_1(0) must not vanish")
    for j, poly in enumerate(member):
        if j != 1 and poly.constant != 0:
            raise NotInNormalForm("a_%d(0) must vanish in the fixed chart" % j)


class JetFamily:
    """A family of hyperplane jets sharing the limit hyperplane x_1 = 0."""

    __slots__ = ("d", "members")

    def __init__(self, d: int, members: Sequence[Sequence[JetPoly]]):
        if d < 1:
            raise BadParameters("need d >= 1")
        packed = []
        for member in members:
            member = tuple(member)
            if len(member) != d + 1:
                raise DimensionMismatch(
                    "each member needs d + 1 = %d coefficient jets" % (d + 1)
                )
            _check_normal_form(member)
            packed.append(member)
        if not packed:
            raise BadParameters("family must have at least one member")
        self.d = d
        self.members = tuple(packed)
        check_size(len(packed), d, self.order)

    @property
    def order(self) -> int:
        """Common truncation order: the minimum over all stored jets."""
        return min(p.order for member in self.members for p in member)


@dataclass(frozen=True)
class LimitSection:
    """Affine-linear section of the exceptional P^1-bundle:
    constant + linear[0]*x_2 + ... + linear[d-2]*x_d."""

    constant: Fraction
    linear: tuple[Fraction, ...]


@dataclass(frozen=True)
class DegenerationModel:
    """The broken-pair limit: a plain P^d glued to a blown-up P^d, with the
    light hyperplanes degenerating to sections of the exceptional bundle.

    classes groups member indices (0-based) by coinciding section; depth is
    the separation depth s at which the sections were read.
    """

    d: int
    n: int
    sections: tuple[LimitSection, ...]
    classes: tuple[tuple[int, ...], ...]
    depth: int = 1


def limit_section(member: Sequence[JetPoly]) -> LimitSection:
    """Section cut by one member on the first exceptional divisor.

    Substituting x_1 = t*sigma into the member and letting t -> 0 gives
    sigma = -(a_0'(0) + a_2'(0)x_2 + ... + a_d'(0)x_d) / a_1(0).
    """
    member = tuple(member)
    _check_normal_form(member)
    if min(p.order for p in member) < 2:
        raise InsufficientTruncation("need t^1 coefficients: truncation order >= 2")
    lead = member[1].constant
    constant = -member[0].coeff(1) / lead
    linear = tuple(-p.coeff(1) / lead for p in member[2:])
    return LimitSection(constant, linear)


def _separate(family: JetFamily) -> tuple[int, list[LimitSection]]:
    """The separation depth s and the sections read at order s, from one
    cross-multiplied pass over the family.

    Let p be the first member with unit a, and q another with unit b.  As
    p_j/a - q_j/b = (p_j*b - q_j*a) / (a*b), the cross products vanish below
    t^s, and at t^s q's section is p's plus their coefficient over a(0)*b(0).
    Only p is divided, as a series to order s.  Slot 1 is skipped: its cross
    product a*b - b*a is zero.
    """
    if len(family.members) < 2:
        raise BadParameters("separation needs at least two members")
    order = family.order
    # One factor per member, so each p / a_1 is unchanged.
    first, *rest = [_clear([p.coeffs[:order] for p in member]) for member in family.members]
    a = first[1]
    slots = [0] + list(range(2, family.d + 1))
    for s in range(1, order):
        cross = [[sum(first[j][i] * q[1][s - i] - q[j][i] * a[s - i] for i in range(1, s + 1))
                  for j in slots] for q in rest]
        if any(any(row) for row in cross):
            break
    else:
        raise IndistinguishableAtTruncation("all members agree modulo t^%d" % order)
    # The first member's sections: -(p_j / a) at t^s, by series division.
    base = []
    for j in slots:
        quotient = []
        for k in range(s + 1):
            acc = first[j][k] - sum(a[i] * quotient[k - i] for i in range(1, k + 1))
            quotient.append(Fraction(acc, a[0]))
        base.append(-quotient[s])
    values = [base] + [[c + Fraction(x, a[0] * q[1][0]) for c, x in zip(base, row)]
                       for q, row in zip(rest, cross)]
    return s, [LimitSection(v[0], tuple(v[1:])) for v in values]


def separation_depth(family: JetFamily) -> int:
    """Least k >= 1 at which the normalized members differ.

    Normalization divides each member by its a_1 (a unit), so proportional
    members never separate.  Raises when the truncation order cannot certify
    any separation.
    """
    return _separate(family)[0]


def separated_sections(family: JetFamily) -> list[LimitSection]:
    """Sections of the members on the first exceptional component where they
    split, read off the order-s coefficients of the normalized members.

    Subtracting the shared lower-order jet recenters the iterated blow-up
    chart but leaves the order-s coefficients untouched, so the sections
    depend only on the normalized t^s data.  At s = 1 this agrees with
    limit_section member by member.
    """
    return _separate(family)[1]


def stable_replacement_model(family: JetFamily, n: int) -> DegenerationModel:
    """Assemble the broken-pair model for a family of the n - d - 1 light
    hyperplanes; the d + 1 heavy ones stay linearly general and carry no data."""
    if len(family.members) != n - family.d - 1:
        raise BadParameters(
            "expected %d members for n = %d, got %d"
            % (n - family.d - 1, n, len(family.members))
        )
    depth, sections = _separate(family)
    groups: dict[LimitSection, list[int]] = {}
    for idx, section in enumerate(sections):
        groups.setdefault(section, []).append(idx)
    classes = tuple(tuple(v) for v in groups.values())
    return DegenerationModel(family.d, n, tuple(sections), classes, depth)


def validate_degeneration(model: DegenerationModel, eps: EpsRatLike = EPS) -> bool:
    """Stability of the broken pair for the perturbed weights.

    Checks the coincidence bound (at least two distinct sections, no class
    larger than n-d-2) and the ampleness of both components' log divisors.
    """
    d, n = model.d, model.n
    if d < 2:
        raise BadParameters("the broken-pair model needs d >= 2")
    if len(model.sections) != n - d - 1:
        return False
    if sorted(i for cls in model.classes for i in cls) != list(range(n - d - 1)):
        return False
    if len(model.classes) < 2:
        return False
    if max(len(cls) for cls in model.classes) > n - d - 2:
        return False
    if not is_ample_blowup(degeneration_log_divisor(d, n, eps)):
        return False
    return y1_log_divisor(d, eps).sign() > 0


def normalize_to_common_chart(
    d: int, raw_members: Sequence[Sequence[JetPoly]]
) -> JetFamily:
    """Projective change of coordinates bringing a family into normal form.

    The members must share their t = 0 hyperplane (rows proportional); the
    chart is rotated so that this common limit becomes x_1 = 0.
    """
    members = [tuple(m) for m in raw_members]
    if not members:
        raise BadParameters("family must have at least one member")
    for member in members:
        if len(member) != d + 1:
            raise DimensionMismatch("each member needs d + 1 coefficient jets")
    limits = [tuple(p.constant for p in member) for member in members]
    base = limits[0]
    if all(x == 0 for x in base):
        raise BadParameters("member 1 vanishes identically at t = 0")
    pivot = next(j for j, x in enumerate(base) if x != 0)
    for i, lim in enumerate(limits[1:], start=2):
        # lim is proportional to base exactly when lim = (lim_p / base_p) * base.
        if any(base[pivot] * y != base[j] * lim[pivot] for j, y in enumerate(lim)):
            raise BadParameters("member %d has a different limit hyperplane" % i)
        if all(x == 0 for x in lim):
            raise BadParameters("member %d vanishes identically at t = 0" % i)
    # Invertible map on coefficient vectors: a_pivot/base_pivot lands in
    # slot 1, the complements a_q - (base_q/base_pivot) a_pivot (which
    # vanish at t = 0) fill the remaining slots in index order.
    other_slots = [j for j in range(d + 1) if j != 1]
    other_coords = [q for q in range(d + 1) if q != pivot]
    transformed = []
    for member in members:
        new: list[JetPoly | None] = [None] * (d + 1)
        new[1] = member[pivot].scale(Fraction(1) / base[pivot])
        for slot, q in zip(other_slots, other_coords):
            new[slot] = member[q] - member[pivot].scale(base[q] / base[pivot])
        transformed.append(tuple(new))
    return JetFamily(d, transformed)
