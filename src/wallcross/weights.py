"""The weight domain for n hyperplanes in P^d.

A weight vector assigns each hyperplane a rational (or infinitesimal-aware)
weight in (0, 1].  The domain is cut into chambers by the walls x_I = k;
this module provides the two canonical weight vectors of interest (the
toric one with d+1 heavy entries, and its positive perturbation), exact
wall incidence and segment-crossing computations, and the chamber
predicates, all over Q(e).

Two wall ranges appear on purpose.  The chamber decomposition itself uses
walls with 2 <= |I| <= n-2 and 1 <= k <= d (`chamber_walls`); incidence
reports (`walls_containing`, `segment_walls`) scan every integer level
1 <= k <= |I| for subsets 2 <= |I| <= n-1, because the canonical weight
vectors sit exactly on integer levels just outside the strict range and
those incidences are the ones the closed-form statements describe.

Every incidence is decided on integers.  On first use a weight vector is
lowered once (`clear_denominators`): each entry is multiplied by one common
factor D*L, the lcm D of the entry denominators times an integer lcm L.
Each denominator has lowest coefficient +1, so D*L is positive near e = 0
and keeps every sign.  Entry i becomes an integer coefficient vector N_i
and level k becomes k*D*L, so the sign of
sum_I b_i - k is the lexicographic sign, lowest degree first, of
sum_I N_i - k*D*L.  Each vector is packed into one int in base 2^bits,
lowest degree in the most significant digit.  The base exceeds twice the
largest coefficient that any subset sum minus k*D*L with 0 <= k <= n can
reach, so no digit carries into the next and that sign is the sign of one
int subtraction; a rational vector packs to a plain int.

One enumerator, `_multiplicities`, walks the multiplicity vectors over the
value groups of one or two weight vectors with packed incremental sums, and
drives the walls, the crossings and the chamber predicates.  Q(e) values
are built only for output: one parameter u0 and one crossing point per
distinct u0, from integer polynomials that are reduced by their gcd on
integers first (`EpsRat.from_integers`), so only the reduced values have to
fit the degree guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby, product
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .epsfield import (
    EPS,
    ZERO,
    EpsRat,
    EpsRatLike,
    clear_denominators,
    integer_coeffs,
    poly_add,
    poly_mul,
)
from .errors import BadParameters, DimensionMismatch, SizeGuard

#: Subset enumeration refuses to run past this many coordinates.
MAX_WALL_COORDS = 20


@dataclass(frozen=True)
class Wall:
    """The hyperplane sum_{i in I} x_i = k in the weight domain."""

    I: frozenset[int]
    k: int

    def __post_init__(self):
        if len(self.I) < 2:
            raise BadParameters("wall index set needs at least two elements")
        if self.k < 1:
            raise BadParameters("wall level must be a positive integer")
        if any((not isinstance(i, int)) or i < 1 for i in self.I):
            raise BadParameters("wall indices are 1-based positive integers")

    def sort_key(self):
        return (self.k, tuple(sorted(self.I)))

    def __repr__(self) -> str:
        return "Wall({%s} = %d)" % (",".join(map(str, sorted(self.I))), self.k)


class WeightVector:
    """d, n and n weight entries in Q(e), each in (0, 1]."""

    __slots__ = ("d", "n", "entries", "_lowered")

    def __init__(self, d: int, n: int, entries: Iterable[EpsRatLike]):
        if d < 1 or n < d + 3:
            raise BadParameters("need d >= 1 and n >= d + 3, got d=%s n=%s" % (d, n))
        vals = tuple(EpsRat.coerce(x) for x in entries)
        if len(vals) != n:
            raise DimensionMismatch("expected %d entries, got %d" % (n, len(vals)))
        for i, x in enumerate(vals):
            if x.sign() <= 0 or x > 1:
                raise BadParameters("entry %d = %s is outside (0, 1]" % (i + 1, x))
        self.d = d
        self.n = n
        self.entries = vals
        self._lowered = None  # the integer lowering, made on first use

    def total(self) -> EpsRat:
        acc = self.entries[0]
        for x in self.entries[1:]:
            acc = acc + x
        return acc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WeightVector):
            return (self.d, self.n, self.entries) == (other.d, other.n, other.entries)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.d, self.n, self.entries))

    def __repr__(self) -> str:
        return "WeightVector(d=%d, n=%d, [%s])" % (
            self.d,
            self.n,
            ", ".join(str(x) for x in self.entries),
        )


@dataclass(frozen=True)
class SignVector:
    """Per-wall signs over the canonical chamber wall list for (d, n)."""

    d: int
    n: int
    signs: tuple[int, ...]

    @property
    def on_wall(self) -> bool:
        return 0 in self.signs


@dataclass(frozen=True)
class Crossing:
    """A transversal wall crossing on an open segment of weight vectors."""

    wall: Wall
    u0: EpsRat
    point: WeightVector


def t_weights(d: int, n: int, eps: EpsRatLike = EPS) -> WeightVector:
    """The weight vector (1, ..., 1, eps, ..., eps) with d+1 heavy entries."""
    eps = EpsRat.coerce(eps)
    if eps.sign() <= 0:
        raise BadParameters("eps must be positive")
    return WeightVector(d, n, (1,) * (d + 1) + (eps,) * (n - d - 1))


def nt_weights(d: int, n: int, eps: EpsRatLike = EPS) -> WeightVector:
    """The perturbed weight vector (1-eps, ..., 1-eps, (1+eps)/(n-d-1), ...).

    Its entry total exceeds d+1, so it defines a nonempty stability condition.
    """
    eps = EpsRat.coerce(eps)
    if eps.sign() <= 0:
        raise BadParameters("eps must be positive")
    light = (1 + eps) / (n - d - 1)
    wv = WeightVector(d, n, (1 - eps,) * (d + 1) + (light,) * (n - d - 1))
    if (wv.total() - (d + 1)).sign() <= 0:
        raise BadParameters("entry total must exceed d + 1; eps is too large")
    return wv


def wall_value(wall: Wall, b: WeightVector) -> EpsRat:
    """sum_{i in I} b_i - k, the signed distance function of the wall."""
    if any(i > b.n for i in wall.I):
        raise DimensionMismatch("wall indices exceed n = %d" % b.n)
    acc = EpsRat.from_rat(-wall.k)
    for i in wall.I:
        acc = acc + b.entries[i - 1]
    return acc


def check_size(n: int) -> None:
    """Refuse subset enumeration past MAX_WALL_COORDS coordinates, stating
    the subset count (exactly while it is short)."""
    if n > MAX_WALL_COORDS:
        count = "2^%d = %s" % (n, format(2**n, ",")) if n <= 64 else "2^%d" % n
        raise SizeGuard(
            "n = %d would scan %s subsets; capped at n <= %d" % (n, count, MAX_WALL_COORDS)
        )


# -- integer lowering and the subset enumerator ----------------------------------


class _Lowered(NamedTuple):
    """A weight vector times its common factor D*L, on integers."""

    bits: int
    unit: list[int]  # coefficients of D*L, lowest degree first
    packed_unit: int
    packed: tuple[int, ...]  # b_i * D*L, packed


def _pack(coeffs: Sequence[int], bits: int) -> int:
    acc = 0
    for c in coeffs:
        acc = (acc << bits) + c
    return acc


def _unpack(x: int, bits: int, length: int) -> list[int]:
    """Inverse of _pack for digits of absolute value below 2^(bits-1)."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    out = [0] * length
    for j in range(length - 1, -1, -1):
        digit = x & mask
        if digit >= half:
            digit -= mask + 1
        out[j] = digit
        x = (x - digit) >> bits
    return out


def _lowered(b: WeightVector) -> _Lowered:
    """The integer lowering of b, made on first use and kept on b."""
    if b._lowered is None:
        *coeffs, unit = clear_denominators(b.entries + (1,))
        # Largest coefficient of any subset sum minus k*D*L with k <= n.
        reach = max(
            sum(abs(v[j]) for v in coeffs) + b.n * abs(unit[j]) for j in range(len(unit))
        )
        bits = (2 * reach).bit_length()
        b._lowered = _Lowered(
            bits, unit, _pack(unit, bits), tuple(_pack(v, bits) for v in coeffs)
        )
    return b._lowered


def _value_groups(*lowered: _Lowered) -> list[tuple[tuple[int, ...], list[int]]]:
    """Group coordinate indices by their tuple of packed entries.

    Subset sums only depend on how many indices are taken from each group, so
    enumeration runs over multiplicity vectors instead of raw subsets.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, key in enumerate(zip(*(low.packed for low in lowered)), 1):
        groups.setdefault(key, []).append(i)
    return list(groups.items())


def _multiplicities(groups) -> Iterator[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """Every multiplicity vector m, 0 <= m_g <= |group g|, with its size
    sum(m) and its packed sums sum_g m_g * value_g, one per weight vector.

    An odometer over the groups, last group fastest: each step adds one group
    value or takes back a full group, so a sum costs O(1) amortised additions.
    """
    counts = [len(indices) for _, indices in groups]
    values = [vals for vals, _ in groups]
    mult = [0] * len(groups)
    sums = [0] * len(values[0])
    size = 0
    while True:
        yield tuple(mult), size, tuple(sums)
        g = len(groups) - 1
        while g >= 0 and mult[g] == counts[g]:
            size -= counts[g]
            sums = [s - counts[g] * v for s, v in zip(sums, values[g])]
            mult[g] = 0
            g -= 1
        if g < 0:
            return
        mult[g] += 1
        size += 1
        sums = [s + v for s, v in zip(sums, values[g])]


def _expand_subsets(groups, multiplicities) -> Iterator[frozenset[int]]:
    pools = [
        combinations(indices, m)
        for (_, indices), m in zip(groups, multiplicities)
        if m > 0
    ]
    for pick in product(*pools):
        yield frozenset(i for chunk in pick for i in chunk)


# -- walls and crossings -------------------------------------------------------------


def walls_containing(b: WeightVector) -> list[Wall]:
    """All integer-level walls through b, for subsets 2 <= |I| <= n-1.

    Exhaustive over the value-multiset compression of b; guarded at n <= 20.
    """
    check_size(b.n)
    low = _lowered(b)
    groups = _value_groups(low)
    found = []
    for mult, size, (s,) in _multiplicities(groups):
        if 2 <= size <= b.n - 1:
            k, rest = divmod(s, low.packed_unit)
            if rest == 0:
                found += [Wall(I, k) for I in _expand_subsets(groups, mult)]
    found.sort(key=Wall.sort_key)
    return found


def segment_walls(b: WeightVector, b2: WeightVector) -> list[Crossing]:
    """Every wall crossed transversally by the open segment from b to b2.

    Each crossing reports the exact parameter u0 in (0, 1) and the crossing
    point (1-u0)*b + u0*b2; results are sorted by u0, ties broken by the
    canonical wall order.  Walls containing the whole segment are not
    crossings and are skipped.
    """
    if (b.d, b.n) != (b2.d, b2.n):
        raise DimensionMismatch("weight vectors live in different domains")
    if b == b2:
        raise BadParameters("segment endpoints coincide")
    check_size(b.n)
    low, low2 = _lowered(b), _lowered(b2)
    unit, unit2 = low.packed_unit, low2.packed_unit
    groups = _value_groups(low, low2)
    found = []
    for mult, size, (s, s2) in _multiplicities(groups):
        if not 2 <= size <= b.n - 1:
            continue
        # The levels strictly between the two sums S and S2: from
        # floor(min) + 1 to ceil(max) - 1.
        first = min(s // unit, s2 // unit2) + 1
        last = max(-(-s // unit), -(-s2 // unit2)) - 1
        if first > last:
            continue
        # u0 = (k - S) / (S2 - S) with S = A/D and S2 = A2/D2, as num/den
        # with den = sign * (A2*D - A*D2) > 0 near 0.
        sign = 1 if s2 > first * unit2 else -1
        start = _unpack(s, low.bits, len(low.unit))
        end = _unpack(s2, low2.bits, len(low2.unit))
        den = [
            sign * x
            for x in poly_add(poly_mul(end, low.unit), poly_mul(start, low2.unit), -1)
        ]
        for k in range(first, last + 1):
            num = poly_mul(_unpack(k * unit - s, low.bits, len(low.unit)), low2.unit)
            found.append(([sign * x for x in num], den, k, mult))
    # Every num and den has len(D) + len(D2) - 1 coefficients.  Evaluated at
    # e = 1/B, with B above twice any coefficient of num*den2 - num2*den,
    # num/den is a Fraction in the order of u0 in Q(e), equal exactly when
    # the u0 are.
    top = max((abs(x) for num, den, _, _ in found for x in num + den), default=0)
    bits = (4 * (len(low.unit) + len(low2.unit)) * top * top).bit_length()
    keyed = sorted(
        (
            (Fraction(_pack(num, bits), _pack(den, bits)), num, den, k, mult)
            for num, den, k, mult in found
        ),
        key=itemgetter(0),
    )
    forms = []
    for _, indices in groups:
        x, y = b.entries[indices[0] - 1], b2.entries[indices[0] - 1]
        forms.append(integer_coeffs(x.num, x.den) + integer_coeffs(y.num, y.den))
    crossings = []
    for _, run in groupby(keyed, key=itemgetter(0)):
        run = list(run)
        _, num, den, _, _ = run[0]
        u0 = EpsRat.from_integers(num, den)
        point = _crossing_point(b, groups, forms, u0)
        batch = [
            Crossing(Wall(I, k), u0, point)
            for _, _, _, k, mult in run
            for I in _expand_subsets(groups, mult)
        ]
        batch.sort(key=lambda c: c.wall.sort_key())
        crossings += batch
    return crossings


def _crossing_point(b, groups, forms, u0: EpsRat) -> WeightVector:
    """(1-u0)*b + u0*b2.  With u0 = u/v and forms[g] = (x.num, x.den, y.num,
    y.den) on integers for the entries x of b and y of b2 in group g, the
    entry is (x.num*y.den*(v - u) + y.num*x.den*u) / (x.den*y.den*v): built
    from the entries' own reduced forms, so its degree stays near u0's."""
    u, v = integer_coeffs(u0.num, u0.den)
    w = poly_add(v, u, -1)
    entries = [ZERO] * b.n
    for (_, indices), (xn, xd, yn, yd) in zip(groups, forms):
        top = poly_add(poly_mul(poly_mul(xn, yd), w), poly_mul(poly_mul(yn, xd), u))
        value = EpsRat.from_integers(top, poly_mul(poly_mul(xd, yd), v))
        for j in indices:
            entries[j - 1] = value
    return WeightVector(b.d, b.n, entries)


def _subsets_lex(n: int) -> Iterator[tuple[int, ...]]:
    """Nonempty subsets of {1..n} as sorted tuples, in lexicographic order."""
    stack = [(i,) for i in range(n, 0, -1)]
    while stack:
        cur = stack.pop()
        yield cur
        for i in range(n, cur[-1], -1):
            stack.append(cur + (i,))


def chamber_walls(d: int, n: int) -> Iterator[Wall]:
    """The canonical wall list of the chamber decomposition, in canonical
    order: level k ascending, index sets in lexicographic subset order."""
    for k in range(1, d + 1):
        for subset in _subsets_lex(n):
            if 2 <= len(subset) <= n - 2:
                yield Wall(frozenset(subset), k)


def _chamber_levels(groups, lows, d: int, n: int):
    """For each multiplicity vector of a chamber wall index set,
    2 <= |I| <= n-2: the vector and, per weight vector, the signs of
    S - k for k = 1..d, where S is its subset sum."""
    for mult, size, sums in _multiplicities(groups):
        if 2 <= size <= n - 2:
            yield mult, [
                tuple(
                    (s > k * low.packed_unit) - (s < k * low.packed_unit)
                    for k in range(1, d + 1)
                )
                for s, low in zip(sums, lows)
            ]


def sign_vector(b: WeightVector) -> SignVector:
    """Signs of b against every chamber wall; the chamber certificate."""
    check_size(b.n)
    lows = (_lowered(b),)
    groups = _value_groups(*lows)
    group_of = {i: g for g, (_, indices) in enumerate(groups) for i in indices}
    levels = {mult: signs for mult, (signs,) in _chamber_levels(groups, lows, b.d, b.n)}
    walls = []
    for subset in _subsets_lex(b.n):
        if 2 <= len(subset) <= b.n - 2:
            mult = [0] * len(groups)
            for i in subset:
                mult[group_of[i]] += 1
            walls.append(levels[tuple(mult)])
    # chamber_walls order: level k ascending, then the index sets.
    return SignVector(b.d, b.n, tuple(signs[k] for k in range(b.d) for signs in walls))


def _pair_levels(b: WeightVector, b2: WeightVector):
    """The chamber-wall signs of b and of b2, one multiplicity vector at a time."""
    if (b.d, b.n) != (b2.d, b2.n):
        raise DimensionMismatch("weight vectors live in different domains")
    check_size(b.n)
    lows = (_lowered(b), _lowered(b2))
    for _, levels in _chamber_levels(_value_groups(*lows), lows, b.d, b.n):
        yield levels


def same_chamber(b: WeightVector, b2: WeightVector) -> bool:
    """Whether b and b2 lie in one open chamber.

    Points on a wall belong to no chamber, so any zero sign makes this False.
    """
    for signs, signs2 in _pair_levels(b, b2):
        if 0 in signs or signs != signs2:
            return False
    return True


def in_chamber_closure(b: WeightVector, b2: WeightVector) -> bool:
    """Whether b lies in the closure of the open chamber containing b2."""
    for signs, signs2 in _pair_levels(b, b2):
        if 0 in signs2 or any(x not in (0, y) for x, y in zip(signs, signs2)):
            return False
    return True


def leq(b: WeightVector, b2: WeightVector) -> bool:
    """Entrywise order in Q(e): b_i <= b2_i for every coordinate."""
    if (b.d, b.n) != (b2.d, b2.n):
        raise DimensionMismatch("weight vectors live in different domains")
    return all(x <= y for x, y in zip(b.entries, b2.entries))
