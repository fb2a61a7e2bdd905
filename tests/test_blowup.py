"""Tests for intersection numbers on the blow-up surface model."""

import random
from fractions import Fraction

import pytest

from wallcross.blowup import (
    MAX_PAIRING_WORK,
    BlowupDivisor,
    PairingSurface,
    TestCurve,
    ample_coefficient_threshold,
    ample_from_pairing,
    canonical_class,
    degeneration_log_divisor,
    exceptional_class,
    hyperplane_class,
    is_ample_blowup,
    modification_checks,
    pair,
    ruled_fiber_degree,
    through_p_class,
    y1_log_divisor,
)
from wallcross.epsfield import EPS, EpsRat
from wallcross.errors import BadParameters, DimensionMismatch, SizeGuard

e = EPS
E_LINE, F_LINE, S_LINE = (
    TestCurve.E_LINE,
    TestCurve.LINE_THROUGH_P,
    TestCurve.LINE_MISSING_P,
)


def test_canonical_class():
    assert canonical_class(2).h == -3 and canonical_class(2).e == 1
    assert canonical_class(3).h == -4 and canonical_class(3).e == 2
    for d in (2, 3, 5):
        assert pair(canonical_class(d), F_LINE) == -2
    with pytest.raises(BadParameters):
        canonical_class(1)


def test_pairing_examples():
    assert pair(BlowupDivisor(2, 1, 0), F_LINE) == 1
    assert pair(BlowupDivisor(2, 0, 1), E_LINE) == -1
    assert pair(BlowupDivisor(2, 2, -1), S_LINE) == 2


def test_pairing_bilinearity():
    rng = random.Random(31)
    for _ in range(40):
        a = BlowupDivisor(2, rng.randint(-5, 5), rng.randint(-5, 5))
        b = BlowupDivisor(2, rng.randint(-5, 5) + e, rng.randint(-5, 5) * e)
        c = EpsRat.from_rat(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        for curve in TestCurve:
            assert pair(a + b, curve) == pair(a, curve) + pair(b, curve)
            assert pair(a.scale(c), curve) == pair(a, curve) * c


def test_degeneration_log_divisor_collected_form():
    for d in (2, 3, 4):
        for n in (d + 3, d + 5):
            divisor = degeneration_log_divisor(d, n)
            assert divisor.h == 1 - e * d
            assert divisor.e == e * (1 + d) - 1


def test_degeneration_log_divisor_pairings():
    for d in (2, 3, 4):
        divisor = degeneration_log_divisor(d, d + 3)
        assert pair(divisor, E_LINE) == 1 - e * (1 + d)
        assert pair(divisor, F_LINE) == e
        assert pair(divisor, S_LINE) == 1 - e * d
        assert is_ample_blowup(divisor)


def test_is_ample_counterexamples():
    assert not is_ample_blowup(hyperplane_class(2))  # nef only: zero on e
    assert not is_ample_blowup(canonical_class(2))


def test_y1_log_divisor():
    assert y1_log_divisor(2) == 1 - 3 * e
    assert y1_log_divisor(2).sign() > 0
    assert y1_log_divisor(1) == 1 - 2 * e
    assert y1_log_divisor(2, Fraction(1, 3)) == 0


def test_ruled_fiber_degree():
    for d in (2, 3, 4, 7):
        assert ruled_fiber_degree(d).is_zero
    # Replacing the two-piece conductor by E alone drops the degree to -1.
    d = 3
    partial = (
        canonical_class(d)
        + exceptional_class(d)
        + through_p_class(d).scale((1 - e) * (d + 1))
    )
    assert pair(partial, F_LINE) == -1
    # The weighted terms pair to zero with f, so the weight does not matter.
    full_weight = (
        canonical_class(d)
        + exceptional_class(d)
        + hyperplane_class(d)
        + through_p_class(d).scale(d + 1)
    )
    assert pair(full_weight, F_LINE) == 0


def test_modification_checks():
    mc = modification_checks(6)
    assert mc.on_exceptional == e
    assert mc.on_ruling_lower == (1 - 5 * e) / 3
    assert modification_checks(7).on_ruling_lower == (1 - 7 * e) / 4
    for n in range(5, 12):
        mc = modification_checks(n)
        assert mc.on_exceptional.sign() > 0
        assert mc.on_ruling_lower.sign() > 0
        assert mc.on_ruling_lower == (1 + e * (1 - 2 * (n - 3))) / (n - 3)
    with pytest.raises(BadParameters):
        modification_checks(4)


# -- pairing surfaces ------------------------------------------------------------


def test_quadric_surface_rulings():
    # P^1 x P^1, boundary curves the two rulings; divisor of bidegree (1, 1).
    surface = PairingSurface([[0, 1], [1, 0]], [1, 1])
    assert ample_from_pairing(surface)
    assert not ample_from_pairing(PairingSurface([[0, 1], [1, 0]], [1, 0]))


def test_blowup_model_as_pairing_surface():
    # Boundary curves of the blown-up plane: E, two rulings (H - E), one
    # free line (H); intersection numbers follow from H^2 = 1, E^2 = -1.
    matrix = [
        [-1, 1, 1, 0],
        [1, 0, 0, 1],
        [1, 0, 0, 1],
        [0, 1, 1, 1],
    ]
    divisor = degeneration_log_divisor(2, 6)
    surface = PairingSurface(matrix, [divisor.e, 0, 0, divisor.h])
    assert ample_from_pairing(surface) == is_ample_blowup(divisor)
    bad = BlowupDivisor(2, 1, 0)
    assert ample_from_pairing(PairingSurface(matrix, [bad.e, 0, 0, bad.h])) is False


def test_pairing_surface_validation():
    with pytest.raises(BadParameters):
        PairingSurface([[0, 1], [2, 0]], [1, 1])  # not symmetric
    with pytest.raises(DimensionMismatch):
        PairingSurface([[0, 1], [1, 0]], [1, 1, 1])
    with pytest.raises(BadParameters):
        PairingSurface([], [])  # no boundary curves


def test_pairing_surface_work_guard():
    # (m*(8 + D*(1 + W)))^2: D is one more than the top numerator degree
    # plus the distinct denominators' degrees, W their size in 64-bit words.
    def surface(m, divisor):
        return PairingSurface([[int(i != j) for j in range(m)] for i in range(m)], divisor)

    assert surface(300, [EPS] * 300).curve_count == 300  # (300*(8 + 2))^2
    with pytest.raises(SizeGuard, match="needs about 100000000 steps"):
        surface(1000, [EPS] * 1000)
    distinct = [1 / (1 + k * EPS) for k in range(1, 33)]
    assert surface(32, distinct).curve_count == 32  # (32*(8 + 33*(1 + 2)))^2
    with pytest.raises(SizeGuard, match=r"40 curves \(D = 41, W = 2\)"):
        surface(40, [1 / (1 + k * EPS) for k in range(1, 41)])
    # Coefficient size counts: 8 distinct 300-digit denominators.
    big = [1 / (1 + (10**299 + k) * EPS) for k in range(8)]
    with pytest.raises(SizeGuard, match="capped at %d" % MAX_PAIRING_WORK):
        surface(8, big)


def test_small_coefficient_threshold_property():
    """For an ample base divisor and an arbitrary perturbation there is a
    rational c* > 0 with base + c*perturbation ample for all 0 < c < c*."""
    rng = random.Random(32)
    trials = 0
    while trials < 40:
        m = rng.randint(2, 4)
        matrix = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                matrix[i][j] = matrix[j][i] = rng.randint(-2, 3)
        base = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        surface = PairingSurface(matrix, base)
        if not ample_from_pairing(surface):
            continue
        trials += 1
        perturbation = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
        threshold = ample_coefficient_threshold(surface, perturbation)
        if threshold is None:
            c = EpsRat.from_rat(rng.randint(1, 100))
        else:
            assert threshold.sign() > 0
            c = threshold / 2
        shifted = [b + c * p for b, p in zip(surface.divisor, perturbation)]
        assert ample_from_pairing(PairingSurface(matrix, shifted))


def test_threshold_requires_ample_base():
    surface = PairingSurface([[0, 1], [1, 0]], [1, 0])
    with pytest.raises(BadParameters):
        ample_coefficient_threshold(surface, [1, 1])
