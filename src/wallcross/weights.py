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

Every incidence is decided on integers.  A weight vector is lowered once,
straight from the integer pairs that its entries store: each entry is
multiplied by one common factor that is positive near e = 0, and any
positive factor keeps every sign.  Entry i becomes an integer coefficient
vector N_i and level k becomes k times the factor, so the sign of
sum_I b_i - k is the lexicographic sign, lowest degree first, of sum_I N_i
minus k times the factor.  Most vectors are lowered on first use by
`clear_denominators`, whose factor is D*L: the lcm D of the primitive entry
denominators times an integer L.  Each stored denominator has a positive
lowest coefficient, so D*L is positive near e = 0.  t and nt carry their
lowering from construction, in closed form from eps's stored pair p/q (see
`t_weights` and `nt_weights`); with the joint content divided out it equals
the general route's, field for field.  Each vector is packed into one int
by the rule stated in `epsfield` (`_pack`).  The base exceeds twice the
largest coefficient that any subset sum minus k times the factor with
0 <= k <= n can reach, so that sign is the sign of one int subtraction.

One enumerator, `_multiplicities`, walks the multiplicity vectors over the
value groups of one or two weight vectors with packed incremental sums, and
drives the walls, the crossings and the chamber predicates.  Q(e) values
are built only for output: one parameter u0 and one crossing point per
distinct u0, from integer polynomials that are reduced by their gcd on
integers first (`EpsRat.from_integers`), so only the reduced values have to
fit the degree guard.  The candidate u0 are ordered by exact integer keys:
each unreduced num/den, packed at one base, is u0 at e = 1/B, and
floor(pn * 2^K / pd) with 2^K past every pd^2 keeps the order and the ties
of those fractions.  A crossing point is built on packed ints from the
entries' stored pairs: each value group's three products that do not
depend on u0 are packed once per segment, each distinct u0 packs its
reduced u and v once, and a group's entry is then two int products over
one, in a base read off those products' and the reduced u0's actual
coefficients.  Constants and Q(e) entries take that one path.  The points
and walls built here are valid by construction, so they skip the public
constructors' checks (`_weight_vector`, `_wall`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby, product
from math import gcd as igcd
from math import prod
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .epsfield import (
    EPS,
    ZERO,
    EpsRat,
    EpsRatLike,
    _lex_sign,
    _pack,
    _unpack,
    clear_denominators,
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


def _wall(I: frozenset[int], k: int) -> Wall:
    """Wall(I, k) for an index set and level that the enumeration made valid:
    the same value, without `__post_init__`'s checks."""
    wall = object.__new__(Wall)
    fields = wall.__dict__
    fields["I"], fields["k"] = I, k
    return wall


def _check_shape(d: int, n: int) -> None:
    if d < 1 or n < d + 3:
        raise BadParameters("need d >= 1 and n >= d + 3, got d=%s n=%s" % (d, n))


class WeightVector:
    """d, n and n weight entries in Q(e), each in (0, 1]."""

    __slots__ = ("d", "n", "entries", "_lowered")

    def __init__(self, d: int, n: int, entries: Iterable[EpsRatLike]):
        _check_shape(d, n)
        vals = tuple([EpsRat.coerce(x) for x in entries])
        if len(vals) != n:
            raise DimensionMismatch("expected %d entries, got %d" % (n, len(vals)))
        # x = num/den with den positive near 0, so x <= 1 exactly when
        # num - den <= 0 there.
        for i, x in enumerate(vals):
            if x.sign() <= 0 or _lex_sign(poly_add(x.int_num, x.int_den, -1)) > 0:
                raise BadParameters("entry %d = %s is outside (0, 1]" % (i + 1, x))
        self.d = d
        self.n = n
        self.entries = vals
        # The integer lowering: made on first use, or attached by t_weights
        # and nt_weights.
        self._lowered = None

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


def _weight_vector(d: int, n: int, entries: tuple[EpsRat, ...]) -> WeightVector:
    """WeightVector(d, n, entries) for n entries known to lie in (0, 1], such
    as a convex combination of two weight vectors: the same value, without
    the constructor's checks."""
    out = object.__new__(WeightVector)
    out.d, out.n, out.entries, out._lowered = d, n, entries, None
    return out


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
    """The weight vector (1, ..., 1, eps, ..., eps) with d+1 heavy entries.

    Its lowering is attached in closed form: with eps = p/q as stored, the
    factor q turns the heavy, light and unit entries into q, p and q.
    """
    eps = EpsRat.coerce(eps)
    if eps.sign() <= 0:
        raise BadParameters("eps must be positive")
    _check_shape(d, n)
    wv = WeightVector(d, n, (1,) * (d + 1) + (eps,) * (n - d - 1))
    p, q = eps.int_num, eps.int_den
    _attach_lowering(wv, q, p, q)
    return wv


def nt_weights(d: int, n: int, eps: EpsRatLike = EPS) -> WeightVector:
    """The perturbed weight vector (1-eps, ..., 1-eps, (1+eps)/(n-d-1), ...).

    Its entry total exceeds d+1, so it defines a nonempty stability condition.
    The total is d + 2 - d*eps, so with eps = p/q as stored the excess is
    (q - d*p)/q, and q is positive near e = 0: the check is the sign of
    q - d*p.  The lowering is attached in closed form: with m = n - d - 1,
    the factor m*q turns the heavy, light and unit entries into m*(q - p),
    q + p and m*q.
    """
    eps = EpsRat.coerce(eps)
    if eps.sign() <= 0:
        raise BadParameters("eps must be positive")
    _check_shape(d, n)
    m = n - d - 1
    wv = WeightVector(d, n, (1 - eps,) * (d + 1) + ((1 + eps) / m,) * m)
    p, q = eps.int_num, eps.int_den
    if _lex_sign(poly_add(q, p, -d)) <= 0:
        raise BadParameters("entry total must exceed d + 1; eps is too large")
    heavy = [m * x for x in poly_add(q, p, -1)]
    _attach_lowering(wv, heavy, poly_add(q, p), [m * x for x in q])
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
    """A weight vector times one common factor, positive near e = 0, on
    integers: D*L from `clear_denominators`, or q or m*q in closed form for
    t and nt (see `t_weights`, `nt_weights`)."""

    bits: int
    unit: list[int]  # coefficients of the factor, lowest degree first
    packed_unit: int
    packed: tuple[int, ...]  # b_i times the factor, packed


def _bits(n: int, coeffs: Sequence[Sequence[int]], unit: Sequence[int]) -> int:
    """The packing base: past twice the largest coefficient of any subset sum
    of coeffs minus k*unit with k <= n."""
    reach = max(sum(abs(v[j]) for v in coeffs) + n * abs(unit[j]) for j in range(len(unit)))
    return (2 * reach).bit_length()


def _lowered(b: WeightVector) -> _Lowered:
    """The integer lowering of b, made on first use and kept on b."""
    if b._lowered is None:
        *coeffs, unit = clear_denominators(b.entries + (1,))
        bits = _bits(b.n, coeffs, unit)
        b._lowered = _Lowered(
            bits, unit, _pack(unit, bits), tuple([_pack(v, bits) for v in coeffs])
        )
    return b._lowered


def _attach_lowering(b: WeightVector, heavy, light, unit) -> None:
    """Keep on b the lowering `_lowered` would make, from integer coefficient
    lists of its heavy entries (the first d+1), its light entries and 1, all
    times one factor positive near e = 0: padded to one length, their joint
    content divided out, packed by the same rule."""
    length = max(len(heavy), len(light), len(unit))
    g = igcd(*heavy, *light, *unit)
    heavy, light, unit = [
        [x // g for x in v] + [0] * (length - len(v)) for v in (heavy, light, unit)
    ]
    heavies, lights = b.d + 1, b.n - b.d - 1
    bits = _bits(b.n, [heavy] * heavies + [light] * lights, unit)
    packed = (_pack(heavy, bits),) * heavies + (_pack(light, bits),) * lights
    b._lowered = _Lowered(bits, unit, _pack(unit, bits), packed)


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
        yield frozenset([i for chunk in pick for i in chunk])


# -- walls and crossings -------------------------------------------------------------

#: segment_walls refuses a segment whose estimated work passes this many
#: word products (see `check_segment_size`).
MAX_SEGMENT_WORK = 10**7


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
                found += [_wall(I, k) for I in _expand_subsets(groups, mult)]
    found.sort(key=Wall.sort_key)
    return found


def check_segment_size(low: _Lowered, low2: _Lowered, groups) -> None:
    """Refuse a segment whose estimated work passes MAX_SEGMENT_WORK, stating
    the estimate, before any multiplicity vector is enumerated.

    Each multiplicity vector can give parameters u0 and a crossing point.
    Their sort keys, gcds and products run on integers about as long as one
    packed sum of each endpoint together: W 64-bit words, read off the two
    lowerings' lengths and bits, so the entries' coefficient sizes enter
    here.  Each such operation costs up to about W^2 word products, so the
    estimate is M*W^2 for M multiplicity vectors, the product of |g| + 1
    over the value groups g.
    """
    count = prod([len(indices) + 1 for _, indices in groups])
    words = (len(low.unit) * low.bits + len(low2.unit) * low2.bits) // 64 + 1
    work = count * words * words
    if work > MAX_SEGMENT_WORK:
        raise SizeGuard(
            "segment over %s multiplicity vectors with sums of %d words needs about "
            "%s word products; capped at %s"
            % (format(count, ","), words, format(work, ","), format(MAX_SEGMENT_WORK, ","))
        )


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
    groups = _value_groups(low, low2)
    check_segment_size(low, low2, groups)
    found = _u0_candidates(low, low2, groups, b.n)
    if not found:
        return []
    keyed = sorted(zip(_u0_keys(found), found), key=itemgetter(0))
    runs = [[item for _, item in run] for _, run in groupby(keyed, key=itemgetter(0))]
    u0s = [EpsRat.from_integers(run[0][0], run[0][1]) for run in runs]
    bits, lines = _crossing_lines(b, b2, groups, u0s)
    crossings = []
    for u0, run in zip(u0s, runs):
        point = _crossing_point(b, bits, lines, u0)
        batch = [
            Crossing(_wall(I, k), u0, point)
            for _, _, k, mult in run
            for I in _expand_subsets(groups, mult)
        ]
        batch.sort(key=lambda c: c.wall.sort_key())
        crossings += batch
    return crossings


def _u0_candidates(low: _Lowered, low2: _Lowered, groups, n: int):
    """Per multiplicity vector m of size 2..n-1 and level k strictly between
    its two sums S and S2, the crossing parameter u0 = (k - S) / (S2 - S) as
    (num, den, k, m): num and den unreduced integer coefficient lists of one
    length, den positive near e = 0."""
    unit, unit2 = low.packed_unit, low2.packed_unit
    found = []
    for mult, size, (s, s2) in _multiplicities(groups):
        if not 2 <= size <= n - 1:
            continue
        # The levels strictly between S and S2: from floor(min) + 1 to
        # ceil(max) - 1.
        first = min(s // unit, s2 // unit2) + 1
        last = max(-(-s // unit), -(-s2 // unit2)) - 1
        if first > last:
            continue
        # With S = A/D and S2 = A2/D2, u0 = (k*D - A)*D2 / (A2*D - A*D2), both
        # times the sign that makes the denominator positive near 0.
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
    return found


def _u0_keys(found) -> list[int]:
    """One integer sort key per u0 = num/den in found (coefficient lists of
    one length L, den positive near e = 0), ordered as the u0 are in Q(e)
    and equal exactly when they are.

    Packed in base B = 2^bits, num and den are B^(L-1) times their values at
    e = 1/B, so pn/pd is u0 there, and with B above twice any coefficient of
    num*den2 - num2*den these values keep the order of Q(e).  Two distinct
    fractions p/q < r/s with q, s > 0 differ by at least 1/(q*s), so with
    2^K above every pd^2, floor(pn * 2^K / pd) keeps their order and ties.
    """
    top = max(abs(x) for num, den, _, _ in found for x in num + den)
    bits = (4 * len(found[0][0]) * top * top).bit_length()
    packed = [(_pack(num, bits), _pack(den, bits)) for num, den, _, _ in found]
    shift = 2 * max(pd for _, pd in packed).bit_length()
    return [(pn << shift) // pd for pn, pd in packed]


def _crossing_lines(b, b2, groups, u0s):
    """The packing base for the crossing points at u0s on the segment from b
    to b2, and per value group the packed products (P, Q, R) of its crossing
    entry that do not depend on u0, with their lengths and the group's
    indices: P = xn*yd, Q = yn*xd and R = xd*yd for the stored integer pairs
    of the group's entries x = xn/xd of b and y = yn/yd of b2, P and Q
    padded to one length.

    With u0 = u/v, the entry's numerator P*(v - u) + Q*u has coefficients at
    most (2*|P|_1 + |Q|_1) * m and its denominator R*v at most |R|_1 * m,
    where |.|_1 sums absolute coefficients and m is the largest coefficient
    of the reduced u and v.  The base is past twice both bounds over every
    group and u0, so the packed products unpack digit by digit.
    """
    products = []
    reach = 0
    for _, indices in groups:
        x, y = b.entries[indices[0] - 1], b2.entries[indices[0] - 1]
        xn, xd, yn, yd = x.int_num, x.int_den, y.int_num, y.int_den
        p, q, r = poly_mul(xn, yd), poly_mul(yn, xd), poly_mul(xd, yd)
        length = max(len(p), len(q))
        p += [0] * (length - len(p))
        q += [0] * (length - len(q))
        reach = max(reach, 2 * sum(map(abs, p)) + sum(map(abs, q)), sum(map(abs, r)))
        products.append((p, q, r, indices))
    m = max(max(map(abs, u0.int_num + u0.int_den)) for u0 in u0s)
    bits = (2 * reach * m).bit_length()
    lines = [
        (_pack(p, bits), _pack(q, bits), _pack(r, bits), len(p), len(r), indices)
        for p, q, r, indices in products
    ]
    return bits, lines


def _crossing_point(b, bits, lines, u0: EpsRat) -> WeightVector:
    """(1-u0)*b + u0*b2 for the segment from b to b2 whose `_crossing_lines`
    are (bits, lines).  With u0 = u/v, u and v are packed once, padded to one
    length, and a value group's entry is (P*(v - u) + Q*u) / (R*v): three
    int products per group, unpacked and reduced on integers.  The entry
    lies in (0, 1] as a convex combination of two that do, so the point is
    built without the constructor's checks."""
    u, v = u0.int_num, u0.int_den
    width = max(len(u), len(v))
    pu = _pack(u, bits) << (bits * (width - len(u)))
    pv = _pack(v, bits) << (bits * (width - len(v)))
    pw = pv - pu
    entries = [ZERO] * b.n
    for p, q, r, length, rlength, indices in lines:
        value = EpsRat.from_integers(
            _unpack(p * pw + q * pu, bits, length + width - 1),
            _unpack(r * pv, bits, rlength + width - 1),
        )
        for j in indices:
            entries[j - 1] = value
    return _weight_vector(b.d, b.n, tuple(entries))


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
