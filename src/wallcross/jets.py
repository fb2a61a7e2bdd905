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

Jets are truncated, never lazy: if a family is indistinguishable at its
truncation order, that is an explicit error, not a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .blowup import degeneration_log_divisor, is_ample_blowup, y1_log_divisor
from .epsfield import EPS, EpsRatLike, Rat
from .errors import (
    BadParameters,
    DimensionMismatch,
    DivisionByZero,
    IndistinguishableAtTruncation,
    InsufficientTruncation,
    NotInNormalForm,
    SizeGuard,
)
from .linalg import rref

#: Truncation orders past this are refused: normalising a member inverts and
#: multiplies jets, at least order^2 operations on growing rationals each.
MAX_JET_ORDER = 64


class JetPoly:
    """Truncated polynomial in t: the coefficients of t^0 .. t^(order-1)."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable[Rat], order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
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

    def truncate(self, order: int) -> "JetPoly":
        return JetPoly(self.coeffs, min(order, self.order))

    def __add__(self, other: "JetPoly") -> "JetPoly":
        order = min(self.order, other.order)
        return JetPoly(
            [a + b for a, b in zip(self.coeffs[:order], other.coeffs[:order])], order
        )

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
        c = Fraction(c)
        return JetPoly([c * a for a in self.coeffs], self.order)

    def inverse(self) -> "JetPoly":
        """Multiplicative inverse of a unit, to the same truncation order."""
        if self.constant == 0:
            raise DivisionByZero("jet is not a unit: constant term vanishes")
        inv = [1 / self.constant]
        for k in range(1, self.order):
            acc = Fraction(0)
            for i in range(1, k + 1):
                acc += self.coeffs[i] * inv[k - i]
            inv.append(-acc / self.constant)
        return JetPoly(inv, self.order)

    def __truediv__(self, other: "JetPoly") -> "JetPoly":
        return self * other.inverse()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, JetPoly):
            return self.coeffs == other.coeffs and self.order == other.order
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs, self.order))

    def __repr__(self) -> str:
        return "JetPoly(%s; order=%d)" % (list(self.coeffs), self.order)


Member = tuple[JetPoly, ...]


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

    @property
    def order(self) -> int:
        """Common truncation order: the minimum over all stored jets."""
        return min(p.order for member in self.members for p in member)

    def normalized_members(self) -> list[Member]:
        """Members divided by their a_1, truncated to the common order."""
        order = self.order
        out = []
        for member in self.members:
            unit = member[1].truncate(order)
            out.append(tuple(p.truncate(order) / unit for p in member))
        return out


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

    classes groups member indices (0-based) by coinciding section.
    """

    d: int
    n: int
    sections: tuple[LimitSection, ...]
    classes: tuple[tuple[int, ...], ...]


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


def separation_depth(family: JetFamily) -> int:
    """Least k >= 1 at which the normalized members differ.

    Normalization divides each member by its a_1 (a unit), so proportional
    members never separate.  Raises when the truncation order cannot certify
    any separation.
    """
    if len(family.members) < 2:
        raise BadParameters("separation needs at least two members")
    members = family.normalized_members()
    order = family.order
    first = members[0]
    for k in range(1, order):
        for other in members[1:]:
            for p, q in zip(first, other):
                if p.coeff(k) != q.coeff(k):
                    return k
    raise IndistinguishableAtTruncation(
        "all members agree modulo t^%d" % order
    )


def separated_sections(family: JetFamily) -> list[LimitSection]:
    """Sections of the members on the first exceptional component where they
    split, read off the order-s coefficients of the normalized members.

    Subtracting the shared lower-order jet recenters the iterated blow-up
    chart but leaves the order-s coefficients untouched, so the sections
    depend only on the normalized t^s data.  At s = 1 this agrees with
    limit_section member by member.
    """
    s = separation_depth(family)
    sections = []
    for member in family.normalized_members():
        constant = -member[0].coeff(s)
        linear = tuple(-p.coeff(s) for p in member[2:])
        sections.append(LimitSection(constant, linear))
    return sections


def stable_replacement_model(family: JetFamily, n: int) -> DegenerationModel:
    """Assemble the broken-pair model for a family of the n - d - 1 light
    hyperplanes; the d + 1 heavy ones stay linearly general and carry no data."""
    if len(family.members) != n - family.d - 1:
        raise BadParameters(
            "expected %d members for n = %d, got %d"
            % (n - family.d - 1, n, len(family.members))
        )
    sections = separated_sections(family)
    groups: dict[LimitSection, list[int]] = {}
    for idx, section in enumerate(sections):
        groups.setdefault(section, []).append(idx)
    classes = tuple(tuple(v) for v in groups.values())
    return DegenerationModel(family.d, n, tuple(sections), classes)


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
    key = rref([base])
    for i, lim in enumerate(limits[1:], start=2):
        if any(x != 0 for x in lim) and rref([lim]) != key:
            raise BadParameters("member %d has a different limit hyperplane" % i)
        if all(x == 0 for x in lim):
            raise BadParameters("member %d vanishes identically at t = 0" % i)
    pivot = next(j for j, x in enumerate(base) if x != 0)
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
