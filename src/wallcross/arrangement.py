"""Hyperplane arrangements in P^d over exact rationals.

An arrangement is an n x (d+1) coefficient matrix, one row per hyperplane,
rows taken up to scale.  Coincident hyperplanes are allowed (the reference
configuration needs them).  The intersection lattice is built exactly; log
canonicity of a weighted arrangement reduces to the flat-sum inequality:
for every nonempty flat, the total weight of the hyperplanes through it
must not exceed its codimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from math import gcd

from .epsfield import EPS, EpsRat, EpsRatLike, Rat
from .errors import BadParameters, DimensionMismatch, PreconditionViolated, SizeGuard
from .linalg import bareiss_rank, rref
from .weights import WeightVector, nt_weights, t_weights

#: Flat-lattice construction refuses to run past this many hyperplanes
#: unless the caller raises the guard explicitly.
MAX_FLAT_COORDS = 16


class Arrangement:
    """n hyperplanes in P^d: row i holds the coefficients of H_i."""

    __slots__ = ("d", "n", "rows")

    def __init__(self, d: int, n: int, rows: Sequence[Sequence[Rat]]):
        if d < 1 or n < d + 3:
            raise BadParameters("need d >= 1 and n >= d + 3, got d=%s n=%s" % (d, n))
        if len(rows) != n:
            raise DimensionMismatch("expected %d rows, got %d" % (n, len(rows)))
        mat = []
        for i, row in enumerate(rows):
            vec = tuple(Fraction(x) for x in row)
            if len(vec) != d + 1:
                raise DimensionMismatch(
                    "row %d has length %d, expected %d" % (i + 1, len(vec), d + 1)
                )
            if all(x == 0 for x in vec):
                raise BadParameters("row %d is zero" % (i + 1))
            mat.append(vec)
        self.d = d
        self.n = n
        self.rows = tuple(mat)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Arrangement):
            return (self.d, self.n, self.rows) == (other.d, other.n, other.rows)
        return NotImplemented

    def __repr__(self) -> str:
        return "Arrangement(d=%d, n=%d)" % (self.d, self.n)


@dataclass(frozen=True)
class Flat:
    """A nonempty intersection flat of the arrangement.

    codim is the rank of the defining rows (1..d; codim d+1 would be empty
    in P^d and never appears here), support lists every hyperplane index
    containing the flat, and basis is the RREF of the defining row space,
    which doubles as a canonical dictionary key.
    """

    codim: int
    support: frozenset[int]
    basis: tuple[tuple[Fraction, ...], ...]

    def sort_key(self):
        return (self.codim, tuple(sorted(self.support)))


def _primitive_direction(row: Sequence[Rat]) -> tuple[int, ...]:
    """Integer representative of a row up to scale: denominators cleared,
    content divided out, first nonzero entry positive."""
    lcm = 1
    for x in row:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in row]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def check_size(n: int, size_guard: int = MAX_FLAT_COORDS) -> None:
    """Refuse flat enumeration past size_guard hyperplanes."""
    if n > size_guard:
        raise SizeGuard(
            "flat enumeration capped at n <= %d (pass size_guard to raise)" % size_guard
        )


def flats(arr: Arrangement, size_guard: int = MAX_FLAT_COORDS) -> list[Flat]:
    """All nonempty intersection flats, each with maximal support.

    Built level by level: distinct hyperplanes first, then closures of
    flat-plus-one-hyperplane intersections.  A maximal support determines
    its flat, so supports double as dedup keys; every flat of the lattice
    is reached this way because removing one generating hyperplane from a
    rank-(c+1) flat leaves a rank-c flat.  The internal arithmetic runs on
    primitive integer rows (fraction-free rank tests); the stored basis is
    the RREF of the generating rows over Q, a canonical row-space key.
    """
    check_size(arr.n, size_guard)
    directions = [_primitive_direction(row) for row in arr.rows]
    by_direction: dict[tuple[int, ...], list[int]] = {}
    for i, direction in enumerate(directions):
        by_direction.setdefault(direction, []).append(i + 1)
    result: list[Flat] = []
    # (flat, generating integer rows) pairs of the current codimension.
    level: list[tuple[Flat, list[tuple[int, ...]]]] = []
    for direction, indices in by_direction.items():
        flat = Flat(1, frozenset(indices), rref([direction]))
        result.append(flat)
        level.append((flat, [direction]))
    seen_supports = {flat.support for flat in result}
    for codim in range(2, arr.d + 1):
        next_level: list[tuple[Flat, list[tuple[int, ...]]]] = []
        for flat, gens in level:
            for j in range(1, arr.n + 1):
                if j in flat.support:
                    continue
                # j outside the support means rank(gens + row_j) = codim.
                cand = gens + [directions[j - 1]]
                support = frozenset(
                    i
                    for i in range(1, arr.n + 1)
                    if bareiss_rank(cand + [directions[i - 1]]) == codim
                )
                if support in seen_supports:
                    continue
                seen_supports.add(support)
                new = Flat(codim, support, rref(cand))
                result.append(new)
                next_level.append((new, cand))
        level = next_level
    result.sort(key=Flat.sort_key)
    return result


@dataclass(frozen=True)
class LogCanonicalVerdict:
    is_lc: bool
    witness: Optional[Flat] = None


@dataclass(frozen=True)
class StabilityVerdict:
    #: "stable", "not-lc" or "not-positive"
    status: str
    witness: Optional[Flat] = None

    @property
    def is_stable(self) -> bool:
        return self.status == "stable"


def _check_weights(arr: Arrangement, b: WeightVector) -> None:
    if (arr.d, arr.n) != (b.d, b.n):
        raise DimensionMismatch(
            "arrangement (d=%d, n=%d) vs weights (d=%d, n=%d)"
            % (arr.d, arr.n, b.d, b.n)
        )


def flat_weight(flat: Flat, b: WeightVector) -> EpsRat:
    acc = EpsRat.from_rat(0)
    for i in flat.support:
        acc = acc + b.entries[i - 1]
    return acc


def is_log_canonical(
    arr: Arrangement, b: WeightVector, size_guard: int = MAX_FLAT_COORDS
) -> LogCanonicalVerdict:
    """Flat-sum log canonicity test.

    The pair is log canonical exactly when every nonempty flat carries total
    weight at most its codimension; the witness of a failure is the first
    violating flat in canonical order.
    """
    _check_weights(arr, b)
    for flat in flats(arr, size_guard=size_guard):
        if (flat_weight(flat, b) - flat.codim).sign() > 0:
            return LogCanonicalVerdict(False, flat)
    return LogCanonicalVerdict(True)


def is_stable(
    arr: Arrangement, b: WeightVector, size_guard: int = MAX_FLAT_COORDS
) -> StabilityVerdict:
    """Stability = positive excess weight plus log canonicity."""
    _check_weights(arr, b)
    if (b.total() - (arr.d + 1)).sign() <= 0:
        return StabilityVerdict("not-positive")
    lc = is_log_canonical(arr, b, size_guard=size_guard)
    if not lc.is_lc:
        return StabilityVerdict("not-lc", lc.witness)
    return StabilityVerdict("stable")


def e_configuration(d: int, n: int) -> Arrangement:
    """The torus-identity configuration: the d+1 coordinate hyperplanes
    followed by n-d-1 copies of the hyperplane x_0 + ... + x_d = 0."""
    if d < 1 or n < d + 3:
        raise BadParameters("need d >= 1 and n >= d + 3")
    rows = []
    for i in range(d + 1):
        rows.append(tuple(1 if j == i else 0 for j in range(d + 1)))
    ones = (1,) * (d + 1)
    rows.extend([ones] * (n - d - 1))
    return Arrangement(d, n, rows)


def is_e_type(arr: Arrangement) -> bool:
    """Projective equivalence with e_configuration: the last n-d-1 rows agree
    as projective points and rows 1..d+2 are linearly general."""
    d, n = arr.d, arr.n
    first_light = arr.rows[d + 1]
    for j in range(d + 2, n):
        if rref([first_light, arr.rows[j]]) != rref([first_light]):
            return False
    head = list(arr.rows[: d + 1]) + [first_light]
    for omit in range(d + 2):
        subset = [row for i, row in enumerate(head) if i != omit]
        if len(rref(subset)) != d + 1:
            return False
    return True


def dichotomy_check(arr: Arrangement, eps: EpsRatLike = EPS) -> bool:
    """Check the stability dichotomy on a single arrangement.

    Requires the arrangement to be stable for the toric weights; returns True
    exactly when being unstable for the perturbed weights coincides with
    being the reference configuration (exclusive or of the two predicates).
    """
    t = t_weights(arr.d, arr.n, eps)
    if not is_stable(arr, t).is_stable:
        raise PreconditionViolated("arrangement is not stable for the toric weights")
    nt_stable = is_stable(arr, nt_weights(arr.d, arr.n, eps)).is_stable
    return nt_stable != is_e_type(arr)
