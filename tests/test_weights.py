"""Tests for the weight domain: walls, crossings, chamber predicates."""

import itertools
import random
from fractions import Fraction

import pytest

from wallcross.epsfield import EPS, EpsRat
from wallcross.errors import BadParameters, DimensionMismatch, SizeGuard
from wallcross.weights import (
    Crossing,
    Wall,
    WeightVector,
    chamber_walls,
    check_size,
    in_chamber_closure,
    leq,
    nt_weights,
    same_chamber,
    segment_walls,
    sign_vector,
    t_weights,
    wall_value,
    walls_containing,
)

e = EPS

ORACLE_POINTS = (Fraction(1, 97), Fraction(1, 101), Fraction(1, 103))


def brute_walls(b):
    """Independent re-enumeration: raw subsets, plain rational arithmetic at
    three substitution points, intersected."""
    surviving = None
    for q in ORACLE_POINTS:
        entries = [x.eval_at(q) for x in b.entries]
        hits = set()
        for size in range(2, b.n):
            for I in itertools.combinations(range(1, b.n + 1), size):
                total = sum(entries[i - 1] for i in I)
                if total.denominator == 1 and 1 <= total <= size:
                    hits.add((frozenset(I), int(total)))
        surviving = hits if surviving is None else surviving & hits
    return surviving


def brute_crossings(b, b2):
    """Independent segment scan with rational arithmetic at three points."""
    surviving = None
    for q in ORACLE_POINTS:
        xs = [x.eval_at(q) for x in b.entries]
        ys = [x.eval_at(q) for x in b2.entries]
        hits = {}
        for size in range(2, b.n):
            for I in itertools.combinations(range(1, b.n + 1), size):
                a0 = sum(xs[i - 1] for i in I)
                a1 = sum(ys[i - 1] for i in I)
                for k in range(1, size + 1):
                    if (a0 - k) * (a1 - k) < 0:
                        hits[(frozenset(I), k)] = (k - a0) / (a1 - a0)
        if surviving is None:
            surviving = hits
        else:
            surviving = {key: u for key, u in hits.items() if key in surviving}
    return surviving


def random_weight_vector(rng, d, n, with_eps=False):
    while True:
        entries = []
        for _ in range(n):
            base = Fraction(rng.randint(1, 24), 24)
            if with_eps and rng.random() < 0.4:
                entries.append(
                    EpsRat.coerce(base) * (1 - e) if base == 1
                    else EpsRat.coerce(base) + e * Fraction(rng.randint(-2, 2), 3)
                )
            else:
                entries.append(EpsRat.coerce(base))
        try:
            wv = WeightVector(d, n, entries)
        except BadParameters:
            continue
        if (wv.total() - (d + 1)).sign() > 0:
            return wv


# -- canonical weight vectors -----------------------------------------------------


def test_t_weights_examples():
    assert t_weights(2, 6).entries == (EpsRat.from_rat(1),) * 3 + (e,) * 3
    assert t_weights(1, 4).entries == (EpsRat.from_rat(1),) * 2 + (e,) * 2
    assert t_weights(3, 8).entries == (EpsRat.from_rat(1),) * 4 + (e,) * 4


def test_nt_weights_examples():
    nt = nt_weights(2, 6)
    light = (1 + e) / 3
    assert nt.entries == (1 - e,) * 3 + (light,) * 3
    assert nt.total() == 4 - 2 * e
    assert (nt.total() - 3).sign() > 0
    nt15 = nt_weights(1, 5)
    assert nt15.entries == (1 - e,) * 2 + ((1 + e) / 3,) * 3


def test_weights_reject_bad_parameters():
    with pytest.raises(BadParameters):
        t_weights(2, 4)  # n < d + 3
    with pytest.raises(BadParameters):
        t_weights(2, 6, 0)
    with pytest.raises(BadParameters):
        nt_weights(2, 6, Fraction(2, 3))  # total falls below d + 1
    with pytest.raises(BadParameters):
        WeightVector(2, 6, [1, 1, 1, 1, 1, 2])  # entry above 1


# -- wall values -------------------------------------------------------------------


def test_wall_value_examples():
    t = t_weights(2, 6)
    nt = nt_weights(2, 6)
    w = Wall(frozenset({4, 5, 6}), 1)
    assert wall_value(w, t) == 3 * e - 1
    assert wall_value(w, t).sign() < 0
    assert wall_value(w, nt) == e
    assert wall_value(Wall(frozenset({1, 2}), 2), t) == 0


def test_wall_value_dimension_check():
    with pytest.raises(DimensionMismatch):
        wall_value(Wall(frozenset({6, 7}), 1), t_weights(2, 6))


# -- wall incidence ------------------------------------------------------------------


def test_walls_containing_t():
    found = walls_containing(t_weights(2, 6))
    expected = sorted(
        (
            Wall(frozenset(I), len(I))
            for size in (2, 3)
            for I in itertools.combinations((1, 2, 3), size)
        ),
        key=Wall.sort_key,
    )
    assert found == expected
    assert len(found) == 4


def test_walls_containing_nt():
    found = walls_containing(nt_weights(2, 6))
    expected = sorted(
        (Wall(frozenset({i, 4, 5, 6}), 2) for i in (1, 2, 3)),
        key=Wall.sort_key,
    )
    assert found == expected


def test_walls_containing_generic_interior():
    # Algebraically independent-ish entries summing off every integer.
    b = WeightVector(
        2, 6,
        [Fraction(p, q) for p, q in ((1, 2), (1, 3), (3, 5), (5, 7), (7, 11), (10, 13))],
    )
    assert walls_containing(b) == []


def test_walls_containing_matches_brute_force():
    rng = random.Random(11)
    cases = [t_weights(2, 6), nt_weights(2, 6), t_weights(1, 6), nt_weights(1, 6)]
    cases += [random_weight_vector(rng, 2, 6, with_eps=True) for _ in range(10)]
    cases += [random_weight_vector(rng, 1, 6) for _ in range(10)]
    for b in cases:
        assert {(w.I, w.k) for w in walls_containing(b)} == brute_walls(b)


def test_size_guard():
    b = WeightVector(1, 21, [Fraction(1, 2)] * 21)
    message = "n = 21 would scan 2^21 = 2,097,152 subsets; capped at n <= 20"
    for call in (
        lambda: walls_containing(b),
        lambda: segment_walls(b, WeightVector(1, 21, [1] * 21)),
        lambda: sign_vector(b),
        lambda: same_chamber(b, b),
        lambda: in_chamber_closure(b, b),
    ):
        with pytest.raises(SizeGuard) as caught:
            call()
        assert str(caught.value) == message



def test_size_guard_past_the_int_digit_limit():
    # 2^15000 has more digits than int-to-str allows; only the power is shown.
    with pytest.raises(SizeGuard) as caught:
        check_size(15000)
    assert str(caught.value) == "n = 15000 would scan 2^15000 subsets; capped at n <= 20"
    check_size(20)


# -- segment crossings -------------------------------------------------------------


def test_segment_t_to_nt_unique_crossing():
    for d, n in [(1, 4), (1, 5), (2, 6), (2, 7), (3, 8)]:
        crossings = segment_walls(t_weights(d, n), nt_weights(d, n))
        assert len(crossings) == 1
        c = crossings[0]
        assert c.wall == Wall(frozenset(range(d + 2, n + 1)), 1)
        assert c.u0 == (1 + e * (d + 1 - n)) / (1 + e * (d + 2 - n))
        heavy = 1 - e + e**2 / (1 + e * (d + 2 - n))
        light = EpsRat.from_rat(Fraction(1, n - d - 1))
        assert c.point.entries == (heavy,) * (d + 1) + (light,) * (n - d - 1)


def test_t_nt_dichotomy_small_scan():
    for d in (1, 2, 3):
        for n in range(d + 3, 13):
            assert len(segment_walls(t_weights(d, n), nt_weights(d, n))) == 1


def test_crossing_invariants():
    t, nt = t_weights(2, 7), nt_weights(2, 7)
    (c,) = segment_walls(t, nt)
    assert wall_value(c.wall, c.point).is_zero
    assert (c.u0 - 0).sign() > 0 and (c.u0 - 1).sign() < 0
    # Sign change across u0, tested at the midpoints of the two halves.
    for u, expected in ((c.u0 / 2, wall_value(c.wall, t).sign()),
                        ((c.u0 + 1) / 2, wall_value(c.wall, nt).sign())):
        point = WeightVector(
            2, 7, [x * (1 - u) + y * u for x, y in zip(t.entries, nt.entries)]
        )
        assert wall_value(c.wall, point).sign() == expected


def test_segment_walls_matches_brute_force():
    rng = random.Random(12)
    for _ in range(8):
        b = random_weight_vector(rng, 2, 6)
        b2 = random_weight_vector(rng, 2, 6)
        if b == b2:
            continue
        got = segment_walls(b, b2)
        expected = brute_crossings(b, b2)
        assert {(c.wall.I, c.wall.k) for c in got} == set(expected)
        for c in got:
            for q in ORACLE_POINTS:
                assert c.u0.eval_at(q) == expected[(c.wall.I, c.wall.k)]


def test_segment_walls_with_high_degree_denominators():
    # Six distinct cubic denominators per endpoint: the common factors of the
    # two lowerings have degree 18 each, so D*D2*den would pass the degree
    # guard; the points are built from u0 and the entries' reduced forms.
    b = WeightVector(1, 6, [Fraction(1, 2) / (1 + q * e) ** 3 for q in range(1, 7)])
    b2 = WeightVector(1, 6, [Fraction(2, 3) / (1 + q * e) ** 3 for q in range(2, 8)])
    crossings = segment_walls(b, b2)
    assert len(crossings) == 36
    for c in crossings[::12]:
        start, end = (sum(v.entries[i - 1] for i in c.wall.I) for v in (b, b2))
        assert c.u0 == (c.wall.k - start) / (end - start)
        assert c.point.entries == tuple(
            x * (1 - c.u0) + y * c.u0 for x, y in zip(b.entries, b2.entries)
        )


def test_segment_walls_with_shared_denominator_factors():
    # Entries 1/(1+e)^k, k = 1..8: the distinct denominators share factors, so
    # their product (1+e)^36 is far above their lcm (1+e)^8, which the
    # lowering uses.  Only the reduced u0 has to pass the degree guard, as in
    # the Q(e) loops.  (Kept out of the differential corpus: its reference
    # chamber predicates alone take seconds.)
    b = WeightVector(1, 8, [1 / (1 + e) ** k for k in range(1, 9)])
    b2 = WeightVector(1, 8, [Fraction(6, 7) / (1 + e) ** k for k in range(1, 9)])
    crossings = segment_walls(b, b2)
    assert len(crossings) == 8
    assert _crossing_text(crossings) == _crossing_text(ref_segment_walls(b, b2))


def test_segment_rejects_equal_endpoints():
    t = t_weights(2, 6)
    with pytest.raises(BadParameters):
        segment_walls(t, t)


def test_segment_same_chamber_is_empty():
    b = WeightVector(2, 6, [Fraction(9, 10)] * 3 + [Fraction(2, 5)] * 3)
    b2 = WeightVector(2, 6, [Fraction(8, 9)] * 3 + [Fraction(3, 7)] * 3)
    assert same_chamber(b, b2)
    assert segment_walls(b, b2) == []


# -- chamber predicates ---------------------------------------------------------------


def test_same_chamber_reflexive_on_interior():
    b = WeightVector(2, 6, [Fraction(9, 10)] * 3 + [Fraction(2, 5)] * 3)
    assert same_chamber(b, b)
    assert in_chamber_closure(b, b)


def test_wall_points_belong_to_no_chamber():
    t = t_weights(2, 6)  # lies on x_{ij} = 2 chamber walls
    assert sign_vector(t).on_wall
    assert not same_chamber(t, t)


def test_closure_example_near_t():
    # Heavy entries 1 - 1/(d+1) + ehat with ehat = 1/(d+1) - e/3, inside the
    # stated range (1/(d+1) - (n-d-1)e/(d+1), 1/(d+1)) for both cases below;
    # the denominator 3 keeps every heavy/light combination off integer sums.
    for d, n in ((2, 6), (1, 5)):
        t = t_weights(d, n)
        a = WeightVector(d, n, (1 - e / 3,) * (d + 1) + (e,) * (n - d - 1))
        assert not sign_vector(a).on_wall
        assert in_chamber_closure(t, a)
        # Definitional oracle straight from the sign vectors.
        st, sa = sign_vector(t), sign_vector(a)
        assert all(x in (0, y) for x, y in zip(st.signs, sa.signs))


def test_same_chamber_t_and_doubled_lights_for_lines():
    for n in (5, 6, 7):
        t = t_weights(1, n)
        b = WeightVector(1, n, (1 - e, 1 - e) + (2 * e,) * (n - 2))
        assert same_chamber(t, b)


def test_chamber_predicate_coherence():
    rng = random.Random(13)
    for _ in range(30):
        b = random_weight_vector(rng, 1, 6)
        b2 = random_weight_vector(rng, 1, 6)
        if same_chamber(b, b2):
            assert in_chamber_closure(b, b2)
            assert in_chamber_closure(b2, b)
        if not sign_vector(b).on_wall:
            assert in_chamber_closure(b, b)


def test_predicates_match_definitional_oracle():
    """Implementation vs raw-subset Fraction arithmetic on rational vectors."""
    rng = random.Random(14)
    for d, n in ((1, 6), (2, 6)):
        for _ in range(40):
            b = random_weight_vector(rng, d, n)
            b2 = random_weight_vector(rng, d, n)
            signs = []
            for k in range(1, d + 1):
                for size in range(2, n - 1):
                    for I in itertools.combinations(range(1, n + 1), size):
                        row = []
                        for wv in (b, b2):
                            total = sum(wv.entries[i - 1].constant_value() for i in I)
                            row.append((total > k) - (total < k))
                        signs.append(tuple(row))
            oracle_same = all(x == y and x != 0 for x, y in signs)
            oracle_closure = all(y != 0 and x in (0, y) for x, y in signs)
            assert same_chamber(b, b2) == oracle_same
            assert in_chamber_closure(b, b2) == oracle_closure


def test_leq():
    t, nt = t_weights(2, 6), nt_weights(2, 6)
    assert leq(t_weights(2, 6, e), t_weights(2, 6, 2 * e))
    assert not leq(t, nt)  # heavy entries decrease
    assert not leq(nt, t)  # light entries decrease the other way
    a = WeightVector(2, 6, (1 - e / 3,) * 3 + (e,) * 3)
    assert leq(a, t)


def test_chamber_walls_canonical_order():
    walls = list(chamber_walls(1, 5))
    assert len(walls) == 2**5 - 2 - 2 * 5
    keys = [w.sort_key() for w in walls]
    assert keys == sorted(keys)
    assert all(2 <= len(w.I) <= 3 and w.k == 1 for w in walls)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        same_chamber(t_weights(2, 6), t_weights(2, 7))


# -- differential test against the Q(e) subset loops the integer lowering replaced --
#
# The reference below is the EpsRat implementation of the five functions as
# it stood before the weight domain moved to integers: every subset sum,
# level test and crossing is computed in Q(e).  The two predicates are read
# off the Q(e) sign vectors, as the old loops did wall by wall.


def _ref_groups(*vectors):
    groups = {}
    for i in range(1, vectors[0].n + 1):
        groups.setdefault(tuple(v.entries[i - 1] for v in vectors), []).append(i)
    return list(groups.items())


def _ref_subsets(groups, mult):
    pools = [
        itertools.combinations(indices, m)
        for (_, indices), m in zip(groups, mult)
        if m > 0
    ]
    for pick in itertools.product(*pools):
        yield frozenset(i for chunk in pick for i in chunk)


def _ref_mults(groups):
    return itertools.product(*(range(len(indices) + 1) for _, indices in groups))


def ref_walls_containing(b):
    groups = _ref_groups(b)
    found = []
    for mult in _ref_mults(groups):
        if not 2 <= sum(mult) <= b.n - 1:
            continue
        value = EpsRat.from_rat(0)
        for (vals, _), m in zip(groups, mult):
            if m:
                value = value + vals[0] * m
        if not value.is_constant() or value.constant_value().denominator != 1:
            continue
        k = int(value.constant_value())
        if k >= 1:
            found += [Wall(I, k) for I in _ref_subsets(groups, mult)]
    found.sort(key=Wall.sort_key)
    return found


def ref_segment_walls(b, b2):
    groups = _ref_groups(b, b2)
    crossings = []
    for mult in _ref_mults(groups):
        size = sum(mult)
        if not 2 <= size <= b.n - 1:
            continue
        start = EpsRat.from_rat(0)
        end = EpsRat.from_rat(0)
        for (vals, _), m in zip(groups, mult):
            if m:
                start = start + vals[0] * m
                end = end + vals[1] * m
        for k in range(1, size + 1):
            if (start - k).sign() * (end - k).sign() != -1:
                continue
            u0 = (k - start) / (end - start)
            point = WeightVector(
                b.d, b.n, [x * (1 - u0) + y * u0 for x, y in zip(b.entries, b2.entries)]
            )
            crossings += [Crossing(Wall(I, k), u0, point) for I in _ref_subsets(groups, mult)]
    crossings.sort(key=lambda c: (c.u0, c.wall.sort_key()))
    return crossings


def ref_sign_vector(b):
    return tuple(wall_value(w, b).sign() for w in chamber_walls(b.d, b.n))


def ref_same_chamber(signs, signs2):
    return all(s0 != 0 and s0 == s2 for s0, s2 in zip(signs, signs2))


def ref_in_chamber_closure(signs, signs2):
    return all(s2 != 0 and s0 in (0, s2) for s0, s2 in zip(signs, signs2))


def _crossing_text(crossings):
    return [(c.wall, str(c.u0), [str(x) for x in c.point.entries]) for c in crossings]


def _den_vector(rng, d, n):
    """Entries (a + c*e)/(1 + q*e): a non-constant denominator per entry."""
    while True:
        entries = []
        for _ in range(n):
            a = Fraction(rng.randint(1, 23), 24)
            entries.append((a + rng.randint(-2, 2) * e) / (1 + rng.randint(1, 5) * e))
        wv = WeightVector(d, n, entries)
        if (wv.total() - (d + 1)).sign() > 0:
            return wv


def _few_valued_pair(rng, d, n):
    blocks = [rng.randrange(3) for _ in range(n)]
    while True:
        v = [Fraction(x, 24) for x in rng.sample(range(1, 25), 3)]
        w = [Fraction(x, 24) for x in rng.sample(range(1, 25), 3)]
        b = WeightVector(d, n, [v[x] for x in blocks])
        b2 = WeightVector(d, n, [w[x] for x in blocks])
        if b != b2 and (b.total() - d - 1).sign() > 0 and (b2.total() - d - 1).sign() > 0:
            return b, b2


def _packing_pair():
    """Large coprime denominators with d = 3 and n = 9.  The first vector has
    eight entries 1, so its walls reach the level n - 1; the e-coefficients
    are far larger than the constant parts that decide the signs, and carry
    both signs, so a base too small for them or a lost carry shows."""
    p, q, r = 1000003, 999983, 999979
    b = WeightVector(3, 9, [1] * 8 + [1 - 96 * e / p])
    b2 = WeightVector(
        3, 9,
        [Fraction(p + 1, 2 * p) + 88 * e / p] * 4
        + [Fraction(q - 1, 2 * q) - 77 * e / q] * 4
        + [1 - 999 * e / r],
    )
    return b, b2


def _sort_key_pair():
    """Crossings at u0 = 1/(5 - 4000e) and at u0 = 1/3, among others: the
    constant parts decide their order, but the e-part is large enough to
    reverse it when the sort keys evaluate u0 at too large an e."""
    b = WeightVector(1, 4, [Fraction(1, 2)] + [Fraction(1, 4)] * 3)
    b2 = WeightVector(1, 4, [1 - 1000 * e, 1, 1, 1])
    return b, b2


def _differential_corpus():
    rng = random.Random(21)
    pairs = [
        (t_weights(d, n), nt_weights(d, n)) for d in (1, 2, 3) for n in range(d + 3, 8)
    ]
    for k in range(4):
        d = 1 + k % 3
        n = d + 3 + k % 2
        pairs.append((random_weight_vector(rng, d, n), random_weight_vector(rng, d, n)))
        pairs.append(
            (random_weight_vector(rng, d, n, True), random_weight_vector(rng, d, n, True))
        )
    for n in (4, 5):
        pairs.append((_den_vector(rng, 1, n), _den_vector(rng, 1, n)))
        pairs.append((_den_vector(rng, 1, n), random_weight_vector(rng, 1, n, True)))
    for d in (1, 2, 3):
        pairs.append(_few_valued_pair(rng, d, 9))
    pairs += [_packing_pair(), _sort_key_pair()]
    return [(b, b2) for b, b2 in pairs if b != b2]


def test_integer_lowering_matches_the_qe_loops():
    for b, b2 in _differential_corpus():
        assert _crossing_text(segment_walls(b, b2)) == _crossing_text(
            ref_segment_walls(b, b2)
        ), (b, b2)
        signs = {x: ref_sign_vector(x) for x in (b, b2)}
        for x, y in ((b, b2), (b2, b)):
            assert walls_containing(x) == ref_walls_containing(x), x
            assert sign_vector(x).signs == signs[x], x
            assert same_chamber(x, y) == ref_same_chamber(signs[x], signs[y]), (x, y)
            assert in_chamber_closure(x, y) == ref_in_chamber_closure(signs[x], signs[y]), (
                x,
                y,
            )
