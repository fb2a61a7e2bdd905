"""Hyperplane arrangements in P^d over exact rationals.

An arrangement is an n x (d+1) coefficient matrix, one row per hyperplane,
rows taken up to scale.  Coincident hyperplanes are allowed (the reference
configuration needs them).  The intersection lattice is built exactly, on
integers, on restricted arrangements (Orlik-Terao, Arrangements of
Hyperplanes, 1992).  A flat F keeps the restrictions to F of the
hyperplanes outside its support, functionals in coordinates of F up to
scale, as primitive keys; at the whole space they are the rows' primitive
directions.  Two hyperplanes cut F in the same flat exactly when their
restrictions are proportional, so each key's class is one cover of F.  A
cover's keys come from F's by one fraction-free step, `linalg._restrict`,
which `is_e_type` also runs on.  The lattice is built once per arrangement
and kept on it.

Log canonicity of a weighted arrangement reduces to the flat-sum
inequality: for every nonempty flat, the total weight of the hyperplanes
through it must not exceed its codimension.  That test runs on the integer
lowering of the weights (see `weights`): one packed-int comparison per flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .epsfield import EPS, EpsRatLike, Rat, exact_rat
from .errors import (
    BadParameters,
    DimensionMismatch,
    InvariantBreach,
    PreconditionViolated,
    SizeGuard,
)
from .linalg import _clear, _independent, _primitive, _restrict
from .weights import WeightVector, _check_shape, _lowered, nt_weights, t_weights

#: Flat-lattice construction refuses to run past this many estimated
#: integer products (see check_size).
MAX_FLAT_WORK = 6_000_000

# Tuples are built from lists, never from a generator: tuple() over an
# iterator of unknown length allocates ten slots and shrinks them, so
# CPython's per-size tuple free lists only fill up.


class Arrangement:
    """n hyperplanes in P^d: row i holds the coefficients of H_i."""

    __slots__ = ("d", "n", "rows", "_flats")

    def __init__(self, d: int, n: int, rows: Sequence[Sequence[Rat]]):
        _check_shape(d, n)
        if len(rows) != n:
            raise DimensionMismatch("expected %d rows, got %d" % (n, len(rows)))
        mat = []
        for i, row in enumerate(rows):
            vec = tuple([exact_rat(x, "row %d entry %d", i + 1, j) for j, x in enumerate(row, 1)])
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
        self._flats = None  # the flat lattice, made on first use

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
    in P^d and never appears here), and support lists every hyperplane index
    containing the flat.  Within one arrangement the support determines the
    flat: its equations are the support rows, of rank codim.
    """

    codim: int
    support: frozenset[int]

    def sort_key(self):
        return (self.codim, tuple(sorted(self.support)))


def _primitive_direction(row: Sequence[Rat]) -> tuple[int, ...]:
    """Integer representative of a row up to scale: denominators cleared,
    content divided out, first nonzero entry positive."""
    return _primitive(_clear([row])[0])


def check_size(d: int, n: int) -> None:
    """Refuse flat enumeration whose estimated work passes MAX_FLAT_WORK.

    W = 16n + sum_{c=0}^{d-1} C(n, c) * n * (d+1-c) * (d+1).  At most
    C(n, c) flats sit at codimension c, and each one in 1..d-1 restricts at
    most n keys of length d+2-c at 2(d+2-c) <= (d+1-c)(d+1) products a key,
    so the sum bounds the walk's integer products.  16 units a hyperplane
    charge its lowering, class and flat, which the products miss (at d = 1
    there are none).  At the cap, d = 1, n = 300,000 and d = 2, n = 997,
    `flats` took 2.4 s and 4.1 s of CPU on rows in [-10^6, 10^6], and
    0.65 s and 0.20 s on rows in [-4, 4].  The sum stops once it passes the
    cap, so the message states a lower bound and a huge n is refused at
    once.  Invalid (d, n) pass through, for the constructors to refuse.
    """
    if d < 1 or n < d + 3:
        return
    work, flats_at = 16 * n, 1  # flats_at = C(n, c)
    for c in range(d):
        work += flats_at * n * (d + 1 - c) * (d + 1)
        if work > MAX_FLAT_WORK:
            raise SizeGuard(
                "flat enumeration for d = %d, n = %d is estimated at %s integer products "
                "or more; capped at %s" % (d, n, format(work, ","), format(MAX_FLAT_WORK, ","))
            )
        flats_at = flats_at * (n - c) // (c + 1)


def _lattice(arr: Arrangement) -> tuple[Flat, ...]:
    """The flats of arr in canonical order; see flats."""
    d = arr.d
    # The restricted arrangement of the whole space: the hyperplanes by
    # primitive direction.
    top: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(arr.rows, 1):
        top.setdefault(_primitive_direction(row), []).append(i)
    # The flats by codimension, sorted one level at a time at the end.
    levels: list[list[Flat]] = [[] for _ in range(d)]
    seen: set[frozenset[int]] = set()
    # Flats to expand, as (support, codim, parent's classes, cut): the
    # classes map each key to its hyperplanes, and the class of key cut
    # cuts the flat out of its parent (None for the whole space).
    stack = [(frozenset(), 0, top, None)]
    while stack:
        support, codim, classes, cut = stack.pop()
        if cut is not None:
            keys = [k for k in classes if k is not cut]
            cover: dict[tuple[int, ...], list[int]] = {}
            for k, r in zip(keys, _restrict(cut, keys)):
                if r is None:
                    raise InvariantBreach(
                        "hyperplane %d contains a flat with support %s"
                        % (min(classes[k]), sorted(support))
                    )
                got = cover.get(r)
                cover[r] = got + classes[k] if got else classes[k]
            classes = cover
        codim += 1
        for w, members in classes.items():
            new = support.union(members)
            if new in seen:
                continue
            seen.add(new)
            levels[codim - 1].append(Flat(codim, new))
            if codim < d:
                stack.append((new, codim, classes, w))
    for level in levels:
        level.sort(key=Flat.sort_key)
    return tuple([flat for level in levels for flat in level])


def flats(arr: Arrangement) -> list[Flat]:
    """All nonempty intersection flats, each with maximal support, in
    canonical order (codimension, then sorted support).

    Built depth first from the whole space.  A flat F carries the
    restricted arrangement: the hyperplanes outside its support grouped by
    their primitive restriction to F (content divided out, first nonzero
    entry positive).  F meets H_i in the zero set of H_i's restriction, so
    the covers of F are the classes, and class C's cover has support
    support(F) | C.  A maximal support determines its flat, so supports are
    the dedup keys and a flat is expanded once; every flat is reached, as
    dropping one of c + 1 independent rows that cut out a rank-(c+1) flat
    leaves a rank-c flat.  A cover below codimension d gets its classes
    when it leaves the stack, by one integer elimination step on its key
    (`linalg._restrict`), so the walk holds one set of restrictions per
    codimension.  A zero restriction would mean the cover's support was not
    maximal, and raises InvariantBreach.

    The lattice is built on the first call and kept on arr; the size guard
    is checked on every call, and each call returns a new list.
    """
    check_size(arr.d, arr.n)
    if arr._flats is None:
        arr._flats = _lattice(arr)
    return list(arr._flats)


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


def is_log_canonical(arr: Arrangement, b: WeightVector) -> LogCanonicalVerdict:
    """Flat-sum log canonicity test.

    The pair is log canonical exactly when every nonempty flat carries total
    weight at most its codimension; the witness of a failure is the first
    violating flat in canonical order.  Each flat sum is compared with its
    codimension on the packed integer lowering of b: a flat sum minus
    codim < n levels is within the packing bound, so the comparison of two
    ints is the sign of the difference near e = 0.
    """
    _check_weights(arr, b)
    low = _lowered(b)
    for flat in flats(arr):
        if sum(low.packed[i - 1] for i in flat.support) > flat.codim * low.packed_unit:
            return LogCanonicalVerdict(False, flat)
    return LogCanonicalVerdict(True)


def is_stable(arr: Arrangement, b: WeightVector) -> StabilityVerdict:
    """Stability = positive excess weight plus log canonicity."""
    _check_weights(arr, b)
    low = _lowered(b)
    if sum(low.packed) <= (arr.d + 1) * low.packed_unit:
        return StabilityVerdict("not-positive")
    lc = is_log_canonical(arr, b)
    if not lc.is_lc:
        return StabilityVerdict("not-lc", lc.witness)
    return StabilityVerdict("stable")


def e_configuration(d: int, n: int) -> Arrangement:
    """The torus-identity configuration: the d+1 coordinate hyperplanes
    followed by n-d-1 copies of the hyperplane x_0 + ... + x_d = 0."""
    _check_shape(d, n)
    rows = []
    for i in range(d + 1):
        rows.append(tuple([1 if j == i else 0 for j in range(d + 1)]))
    ones = (1,) * (d + 1)
    rows.extend([ones] * (n - d - 1))
    return Arrangement(d, n, rows)


def is_e_type(arr: Arrangement) -> bool:
    """Projective equivalence with e_configuration: the last n-d-1 rows agree
    as projective points and rows 1..d+2 are linearly general."""
    d, n = arr.d, arr.n
    first_light = _primitive_direction(arr.rows[d + 1])
    for j in range(d + 2, n):
        if _primitive_direction(arr.rows[j]) != first_light:
            return False
    head = [_primitive_direction(row) for row in arr.rows[: d + 2]]
    return all(_independent(head[:omit] + head[omit + 1 :]) for omit in range(d + 2))


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
