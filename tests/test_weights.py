"""Tests for the weight domain: walls, crossings, chamber predicates."""

import collections
import itertools
import random
import re
import sys
import time
from fractions import Fraction

import pytest

from wallcross import epsfield, weights
from wallcross.arrangement import Arrangement, dichotomy_check, e_configuration
from wallcross.epsfield import EPS, ZERO, EpsRat, poly_add, poly_mul
from wallcross.errors import BadParameters, DimensionMismatch, SizeGuard
from wallcross.weights import (
    MAX_SEGMENT_WORK,
    Crossing,
    Wall,
    WeightVector,
    _lowered,
    _pack,
    _u0_candidates,
    _u0_keys,
    _value_groups,
    chamber_walls,
    check_segment_size,
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


def test_named_weights_check_d_and_n_before_building_entries():
    # (1,) * (d + 1) for this d would ask for terabytes.
    for maker in (t_weights, nt_weights):
        with pytest.raises(BadParameters, match="need d >= 1 and n >= d \\+ 3"):
            maker(10**12, 5)
        with pytest.raises(BadParameters, match="need d >= 1 and n >= d \\+ 3"):
            maker(3, 4)


# -- closed-form lowering of t and nt ------------------------------------------------

CLOSED_FORM_EPS = [
    e,
    EpsRat.from_rat(Fraction(1, 100)),
    EpsRat.from_rat(Fraction(1, 2)),
    EpsRat.from_rat(Fraction(1, 3)),
    EpsRat.from_rat(Fraction(2, 7)),
    e**2 + e / 3,
    e / (1 + e),
    (e + e**2) / (1 - 2 * e),
]

CLOSED_FORM_GRID = [
    (d, n, eps) for d in range(1, 5) for n in range(d + 3, d + 9) for eps in CLOSED_FORM_EPS
]


TOTAL_TOO_SMALL = "^entry total must exceed d \\+ 1; eps is too large$"


def _nt_entries(d, n, eps):
    return (1 - eps,) * (d + 1) + ((1 + eps) / (n - d - 1),) * (n - d - 1)


def test_closed_form_lowering_matches_the_general_route():
    checked = 0
    for d, n, eps in CLOSED_FORM_GRID:
        vectors = [t_weights(d, n, eps)]
        if (WeightVector(d, n, _nt_entries(d, n, eps)).total() - (d + 1)).sign() > 0:
            vectors.append(nt_weights(d, n, eps))
        for b in vectors:
            attached = b._lowered
            assert attached is not None
            b._lowered = None  # the general route: clear_denominators
            assert attached == _lowered(b), (b, eps)
            checked += 1
    assert checked > 300


def test_closed_total_check_matches_the_entry_total():
    refused = 0
    for d, n, eps in CLOSED_FORM_GRID:
        excess = (WeightVector(d, n, _nt_entries(d, n, eps)).total() - (d + 1)).sign()
        if excess > 0:
            nt_weights(d, n, eps)
            continue
        with pytest.raises(BadParameters, match=TOTAL_TOO_SMALL):
            nt_weights(d, n, eps)
        refused += 1
    assert refused > 0
    for d in range(1, 5):
        if d > 1:
            with pytest.raises(BadParameters, match=TOTAL_TOO_SMALL):
                nt_weights(d, d + 4, Fraction(1, d))
        nt_weights(d, d + 4, Fraction(1, d) - Fraction(1, 1000))


def test_dichotomy_check_lowers_and_sums_no_qe_vector(monkeypatch):
    calls = {"clear_denominators": 0, "total": 0}
    real_clear, real_total = epsfield.clear_denominators, WeightVector.total

    def counting_clear(values):
        calls["clear_denominators"] += 1
        return real_clear(values)

    def counting_total(self):
        calls["total"] += 1
        return real_total(self)

    monkeypatch.setattr(epsfield, "clear_denominators", counting_clear)
    monkeypatch.setattr(weights, "clear_denominators", counting_clear)
    monkeypatch.setattr(WeightVector, "total", counting_total)
    general = Arrangement(2, 6, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3], [1, -1, 2]])
    assert dichotomy_check(e_configuration(2, 7))
    assert dichotomy_check(general)
    assert dichotomy_check(general, Fraction(1, 100))
    assert calls == {"clear_denominators": 0, "total": 0}
    # The counters see the general route.
    _lowered(WeightVector(2, 6, [Fraction(1, 2)] * 6))
    assert calls["clear_denominators"] == 1


@pytest.mark.parametrize("x", [1, 1 - e, e, (1 + e) / (1 + 2 * e), 1 - e**5])
def test_weight_entries_in_the_unit_interval(x):
    assert WeightVector(1, 4, [Fraction(1, 2), x, 1, 1]).entries[1] == x


@pytest.mark.parametrize("x", [0, -e, 1 + e, (1 + 2 * e) / (1 + e), 1 + e**5])
def test_weight_entries_outside_the_unit_interval(x):
    message = "entry 2 = %s is outside (0, 1]" % EpsRat.coerce(x)
    with pytest.raises(BadParameters, match="^%s$" % re.escape(message)):
        WeightVector(1, 4, [Fraction(1, 2), x, 1, 1])


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
    for d, n in ((2, 5), (2, 6), (3, 6), (3, 7)):
        pairs.append((_den_vector(rng, d, n), _den_vector(rng, d, n)))
    pairs.append((_den_vector(rng, 2, 6), _few_valued_pair(rng, 2, 6)[0]))
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


# -- crossing points against the six-product route they replaced ------------------


def ref_crossing_point(b, b2, groups, u0):
    """(1-u0)*b + u0*b2 as it was built before the u0-independent products
    were formed once per segment: with u0 = u/v and a value group's entries
    x = xn/xd and y = yn/yd, the entry (xn*yd*(v - u) + yn*xd*u) / (xd*yd*v)
    from six products per group and u0."""
    u, v = u0.int_num, u0.int_den
    w = poly_add(v, u, -1)
    entries = [ZERO] * b.n
    for _, indices in groups:
        x, y = b.entries[indices[0] - 1], b2.entries[indices[0] - 1]
        xn, xd, yn, yd = x.int_num, x.int_den, y.int_num, y.int_den
        top = poly_add(poly_mul(poly_mul(xn, yd), w), poly_mul(poly_mul(yn, xd), u))
        value = EpsRat.from_integers(top, poly_mul(poly_mul(xd, yd), v))
        for j in indices:
            entries[j - 1] = value
    return WeightVector(b.d, b.n, entries)


def ref3_crossing_lines(b, b2, groups):
    """Per value group, the products (P, Q, R, indices) of its crossing entry
    that do not depend on u0, as they were formed once per segment before
    the crossing points moved onto packed ints: P = xn*yd, Q = yn*xd and
    R = xd*yd for the stored integer pairs of the group's entries x = xn/xd
    of b and y = yn/yd of b2."""
    lines = []
    for _, indices in groups:
        x, y = b.entries[indices[0] - 1], b2.entries[indices[0] - 1]
        xn, xd, yn, yd = x.int_num, x.int_den, y.int_num, y.int_den
        lines.append((poly_mul(xn, yd), poly_mul(yn, xd), poly_mul(xd, yd), indices))
    return lines


def ref3_crossing_point(b, lines, u0):
    """(1-u0)*b + u0*b2 from `ref3_crossing_lines`, as it was built on
    integer coefficient lists: with u0 = u/v, a value group's entry is
    (P*(v - u) + Q*u) / (R*v), three `poly_mul`s per group and u0, passed
    through the validating constructor."""
    u, v = u0.int_num, u0.int_den
    w = poly_add(v, u, -1)
    entries = [ZERO] * b.n
    for p, q, r, indices in lines:
        top = poly_add(poly_mul(p, w), poly_mul(q, u))
        value = EpsRat.from_integers(top, poly_mul(r, v))
        for j in indices:
            entries[j - 1] = value
    return WeightVector(b.d, b.n, entries)


def _check_points_against(reference):
    """Every crossing point of the differential corpus against reference(b,
    b2, groups) -> (u0 -> point); returns the number of distinct u0."""
    distinct = 0
    for b, b2 in _differential_corpus():
        crossings = segment_walls(b, b2)
        point_at = reference(b, b2, _value_groups(_lowered(b), _lowered(b2)))
        points = {}
        for c in crossings:
            if c.u0 not in points:
                points[c.u0] = point_at(c.u0)
        ref = [Crossing(c.wall, c.u0, points[c.u0]) for c in crossings]
        assert _crossing_text(crossings) == _crossing_text(ref), (b, b2)
        distinct += len(points)
    return distinct


def test_crossing_points_match_the_six_product_route():
    def six(b, b2, groups):
        return lambda u0: ref_crossing_point(b, b2, groups, u0)

    assert _check_points_against(six) > 100


def test_crossing_points_match_the_three_product_route():
    def three(b, b2, groups):
        lines = ref3_crossing_lines(b, b2, groups)
        return lambda u0: ref3_crossing_point(b, lines, u0)

    assert _check_points_against(three) > 100


def test_crossing_lines_and_u0_are_packed_once(monkeypatch):
    # Each value group's three products are packed once per segment, each
    # distinct u0 packs its reduced u and v once, and the sort keys pack
    # each candidate's num and den once.
    b, b2 = _packing_pair()
    low, low2 = _lowered(b), _lowered(b2)
    groups = _value_groups(low, low2)
    candidates = len(_u0_candidates(low, low2, groups, b.n))
    calls = collections.Counter()
    u0_packs = []

    def counting_pack(coeffs, bits):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
            frame = frame.f_back
        caller = frame.f_code.co_name
        calls[caller] += 1
        if caller == "_crossing_point":
            u0_packs.append(coeffs)
        return _pack(coeffs, bits)

    monkeypatch.setattr(weights, "_pack", counting_pack)
    crossings = segment_walls(b, b2)
    monkeypatch.undo()
    u0s = list(dict.fromkeys(c.u0 for c in crossings))
    assert len(groups) == 3 and len(u0s) > 1 and candidates >= len(u0s)
    assert calls == {
        "_crossing_lines": 3 * len(groups),
        "_crossing_point": 2 * len(u0s),
        "_u0_keys": 2 * candidates,
    }
    expected = [x for u0 in u0s for x in (u0.int_num, u0.int_den)]
    assert len(u0_packs) == len(expected)
    assert all(got is want for got, want in zip(u0_packs, expected))


def _ranks(values):
    """Each value's place among the distinct values: equal ranks lists mean
    the same order and the same ties."""
    place = {v: i for i, v in enumerate(sorted(set(values)))}
    return [place[v] for v in values]


def test_integer_u0_keys_order_as_fraction_keys():
    # The Fraction keys they replaced: num and den packed at the same base,
    # divided.  The Q(e) values are the independent order.
    compared = ties = 0
    for b, b2 in _differential_corpus():
        low, low2 = _lowered(b), _lowered(b2)
        found = _u0_candidates(low, low2, _value_groups(low, low2), b.n)
        if not found:
            continue
        top = max(abs(x) for num, den, _, _ in found for x in num + den)
        bits = (4 * (len(low.unit) + len(low2.unit)) * top * top).bit_length()
        fraction_keys = [Fraction(_pack(num, bits), _pack(den, bits)) for num, den, _, _ in found]
        values = [EpsRat.from_integers(num, den) for num, den, _, _ in found]
        ranks = _ranks(_u0_keys(found))
        assert ranks == _ranks(fraction_keys) == _ranks(values), (b, b2)
        compared += len(found)
        ties += len(found) - len(set(ranks))
    assert compared > 400 and ties > 10


def test_integer_u0_keys_separate_close_fractions():
    # Ratios of consecutive Fibonacci numbers are Farey neighbours: two of
    # them differ by exactly 1/(q*s), the least gap the keys must resolve.
    fib = [1, 1]
    while len(fib) < 60:
        fib.append(fib[-1] + fib[-2])
    ratios = [Fraction(fib[i], fib[i + 1]) for i in range(20, 58)]
    for length in (1, 3):
        pad = [0] * (length - 1)
        found = [([x.numerator] + pad, [x.denominator] + pad, 0, ()) for x in ratios]
        found += [([2 * x.numerator] + pad, [2 * x.denominator] + pad, 0, ()) for x in ratios]
        assert _ranks(_u0_keys(found)) == _ranks(ratios + ratios)


def test_built_points_and_walls_equal_validated_ones():
    walls = points = 0
    for b, b2 in _differential_corpus():
        built = walls_containing(b) + walls_containing(b2)
        crossings = segment_walls(b, b2)
        built += [c.wall for c in crossings]
        for w in built:
            validated = Wall(w.I, w.k)
            assert type(w) is Wall and w == validated and hash(w) == hash(validated)
            assert repr(w) == repr(validated)
        for c in crossings:
            validated = WeightVector(b.d, b.n, c.point.entries)
            assert type(c.point) is WeightVector and c.point == validated
            assert _lowered(c.point) == _lowered(validated)
        walls += len(built)
        points += len(crossings)
    assert walls > 1000 and points > 1000


@pytest.mark.parametrize(
    "I, k, message",
    [
        ({1}, 1, "at least two elements"),
        ({1, 2}, 0, "positive integer"),
        ({0, 1}, 1, "1-based positive integers"),
        ({Fraction(1, 2), 2}, 1, "1-based positive integers"),
        ({"1", 2}, 1, "1-based positive integers"),
    ],
)
def test_public_wall_constructor_still_validates(I, k, message):
    with pytest.raises(BadParameters, match=message):
        Wall(frozenset(I), k)


def test_public_weight_vector_constructor_still_validates():
    b, b2 = _packing_pair()
    point = segment_walls(b, b2)[0].point
    entries = list(point.entries)
    for bad in (ZERO, -e, 1 + e, entries[0] + 1):
        with pytest.raises(BadParameters, match="is outside \\(0, 1\\]"):
            WeightVector(point.d, point.n, [bad] + entries[1:])


# -- the coefficient-size guard on segments ---------------------------------------


def _long_entries(count, digits, seed=5):
    """count entries a/b in (1/2, 1) with b of the given number of digits."""
    rng = random.Random(seed)
    entries = []
    for _ in range(count):
        den = rng.randrange(10 ** (digits - 1), 10**digits)
        entries.append(Fraction(rng.randrange(den // 2 + 1, den), den))
    return entries


SEGMENT_GUARD = (
    "^segment over ([0-9,]+) multiplicity vectors with sums of ([0-9]+) words needs "
    "about ([0-9,]+) word products; capped at 10,000,000$"
)


def test_segment_guard_refuses_long_coefficients_at_once(monkeypatch):
    # 8 entries of about 990 digits against t: this segment ran about 20 s
    # of CPU before the guard.
    b = WeightVector(1, 8, _long_entries(8, 990))
    monkeypatch.setattr(weights, "_u0_candidates", _refuse_to_enumerate)
    start = time.process_time()
    with pytest.raises(SizeGuard) as caught:
        segment_walls(b, t_weights(1, 8))
    assert time.process_time() - start < 1
    match = re.match(SEGMENT_GUARD, str(caught.value))
    assert match, str(caught.value)
    count, words, work = (int(x.replace(",", "")) for x in match.groups())
    assert count == 2**8 and work == count * words * words > MAX_SEGMENT_WORK


def _refuse_to_enumerate(*args):
    raise RuntimeError("enumerated a segment that its size guard refuses")


def test_segment_guard_passes_the_test_inputs():
    # 6 entries of about 900 digits against t run in about a second; the
    # differential corpus stays far below the cap.
    b = WeightVector(1, 6, _long_entries(6, 900))
    for pair in [(b, t_weights(1, 6))] + _differential_corpus():
        lows = [_lowered(x) for x in pair]
        check_segment_size(*lows, _value_groups(*lows))


def test_entry_bounds_and_crossings_compare_no_qe_values(monkeypatch):
    # Entry bounds are read off num - den and crossings are ordered on
    # integer keys: building the pair and crossing it makes no Q(e)
    # comparison.
    calls = [0]
    original = epsfield._cmp

    def counting_cmp(a, c):
        calls[0] += 1
        return original(a, c)

    monkeypatch.setattr(epsfield, "_cmp", counting_cmp)
    b, b2 = _packing_pair()
    crossings = segment_walls(b, b2)
    work = calls[0]
    assert e < 1  # the counter sees a comparison
    monkeypatch.undo()
    assert crossings and work == 0 and calls[0] == 1
