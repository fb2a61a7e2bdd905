"""Tests for jet families, limit sections and the degeneration model."""

import random
from fractions import Fraction

import pytest

from wallcross.errors import (
    BadParameters,
    IndistinguishableAtTruncation,
    InsufficientTruncation,
    NotInNormalForm,
    SizeGuard,
    WallcrossError,
)
from wallcross.jets import (
    MAX_FAMILY_WORK,
    DegenerationModel,
    JetFamily,
    JetPoly,
    LimitSection,
    _separate,
    limit_section,
    normalize_to_common_chart,
    separated_sections,
    separation_depth,
    stable_replacement_model,
    validate_degeneration,
)

T = 6


def jp(*coeffs, order=T):
    return JetPoly(coeffs, order)


def section_oracle(member, xs):
    """Independent check of a limit section at a sample point.

    Substituting x_1 = t*sigma into the member, the strict transform at t=0
    solves sigma = -(a_0(t) + sum a_j(t) x_j) / (t a_1(t)) in the limit.
    The numerator vanishes at t = 0, so divide by t as polynomials and read
    the value at t = 0 exactly.
    """
    d = len(member) - 1
    order = min(p.order for p in member)
    numerator = [Fraction(0)] * order
    for k in range(order):
        numerator[k] += member[0].coeffs[k]
        for j in range(2, d + 1):
            numerator[k] += member[j].coeffs[k] * xs[j - 2]
    assert numerator[0] == 0
    shifted = numerator[1:]  # exact division by t
    return -shifted[0] / member[1].constant


def reference_inverse(unit):
    """Multiplicative inverse of a unit jet, to the same truncation order."""
    inv = [1 / unit.constant]
    for k in range(1, unit.order):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += unit.coeffs[i] * inv[k - i]
        inv.append(-acc / unit.constant)
    return JetPoly(inv, unit.order)


def reference_normalized_members(family):
    """Members divided by their a_1 as power series, truncated to the common
    order: the normalisation that the cross-multiplied pass replaces."""
    order = family.order
    out = []
    for member in family.members:
        inverse = reference_inverse(JetPoly(member[1].coeffs, order))
        out.append(tuple(JetPoly(p.coeffs, order) * inverse for p in member))
    return out


def reference_separate(family):
    """Depth and sections by comparing the normalized members order by order."""
    members = reference_normalized_members(family)
    first = members[0]
    for s in range(1, family.order):
        if any(p.coeffs[s] != q.coeffs[s] for other in members[1:] for p, q in zip(first, other)):
            break
    else:
        raise IndistinguishableAtTruncation("all members agree modulo t^%d" % family.order)
    return s, [
        LimitSection(-m[0].coeffs[s], tuple(-p.coeffs[s] for p in m[2:])) for m in members
    ]


def eval_section(section, xs):
    return section.constant + sum(c * x for c, x in zip(section.linear, xs))


def random_normalized_member(rng, d, split_deg, split_vec, order=T):
    """A member whose normalized jet agrees with a shared profile below
    split_deg and carries split_vec at degree split_deg, then noise above."""
    member = []
    for j in range(d + 1):
        coeffs = [Fraction(0)] * order
        if j == 1:
            coeffs[0] = Fraction(1)
        for k in range(1, order):
            if k < split_deg:
                coeffs[k] = Fraction((j * 7 + k * 3) % 5, 3)  # shared profile
            elif k == split_deg:
                coeffs[k] = split_vec[j]
            else:
                coeffs[k] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        member.append(JetPoly(coeffs, order))
    return tuple(member)


def random_unit(rng, order=T):
    coeffs = [Fraction(rng.choice((1, 2, 3, -1)))]
    coeffs += [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(order - 1)]
    return JetPoly(coeffs, order)


def random_family(rng, d, members, depth, order=T):
    """Family with known separation depth, wrapped in random unit rescalings.

    The degree-depth vectors keep coordinate 1 at zero (that slot is pinned
    by normalization), so distinct vectors stay distinct after normalizing.
    """
    vecs = set()
    while len(vecs) < 2:
        vecs = {
            tuple(
                Fraction(0) if j == 1 else Fraction(rng.randint(-3, 3))
                for j in range(d + 1)
            )
            for _ in range(members)
        }
    vecs = list(vecs)
    packed = []
    for i in range(members):
        raw = random_normalized_member(rng, d, depth, vecs[i % len(vecs)], order)
        unit = random_unit(rng, order)
        packed.append(tuple(p * unit for p in raw))
    return JetFamily(d, packed), depth


# -- limit sections ---------------------------------------------------------------


def test_limit_section_forced_constant():
    assert limit_section((jp(0, 1), jp(1))) == LimitSection(Fraction(-1), ())
    assert limit_section((jp(0, 3), jp(2))) == LimitSection(Fraction(-3, 2), ())


def test_limit_section_with_linear_part():
    section = limit_section((jp(0, 5, 1), jp(1, 7), jp(0, 1)))
    assert section == LimitSection(Fraction(-5), (Fraction(-1),))


def test_limit_section_matches_series_oracle():
    rng = random.Random(41)
    for _ in range(30):
        d = rng.choice((2, 3))
        member = []
        for j in range(d + 1):
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(T)]
            if j != 1:
                coeffs[0] = Fraction(0)
            elif coeffs[0] == 0:
                coeffs[0] = Fraction(1)
            member.append(JetPoly(coeffs, T))
        member = tuple(member)
        section = limit_section(member)
        for _ in range(3):
            xs = [Fraction(rng.randint(-4, 4)) for _ in range(d - 1)]
            assert eval_section(section, xs) == section_oracle(member, xs)


def test_limit_section_requires_normal_form():
    with pytest.raises(NotInNormalForm):
        limit_section((jp(1, 1), jp(1)))  # a_0(0) != 0
    with pytest.raises(NotInNormalForm):
        limit_section((jp(0, 1), jp(0, 1)))  # a_1(0) == 0


def test_limit_section_requires_order_two():
    with pytest.raises(InsufficientTruncation):
        limit_section((JetPoly([0], 1), JetPoly([1], 1)))


# -- separation depth ----------------------------------------------------------------


def test_depth_first_order_difference():
    fam = JetFamily(2, [(jp(0, 1), jp(1), jp(0, 2)), (jp(0, 2), jp(1), jp(0, 2))])
    assert separation_depth(fam) == 1


def test_depth_second_order_difference():
    fam = JetFamily(
        2,
        [
            (jp(0, 1, 5), jp(1), jp(0, 2)),
            (jp(0, 1, 7), jp(1), jp(0, 2)),
        ],
    )
    assert separation_depth(fam) == 2


def test_depth_is_scale_invariant():
    # Proportional members never separate, whatever the raw coefficients say.
    base = (jp(0, 1, 5), jp(1, 2), jp(0, 2))
    doubled = tuple(p.scale(2) for p in base)
    fam = JetFamily(2, [base, doubled])
    with pytest.raises(IndistinguishableAtTruncation):
        separation_depth(fam)


def test_depth_monotonicity():
    rng = random.Random(42)
    for depth in (1, 2, 3, 4):
        fam, _ = random_family(rng, 2, 3, depth)
        assert separation_depth(fam) >= depth
        members = reference_normalized_members(fam)
        for a, b in zip(members, members[1:]):
            agree = all(
                p.coeffs[:depth] == q.coeffs[:depth] for p, q in zip(a, b)
            )
            assert agree


def test_depth_matches_construction_oracle():
    rng = random.Random(43)
    for _ in range(50):
        d = rng.choice((2, 3))
        depth = rng.randint(1, 4)
        fam, expected = random_family(rng, d, rng.randint(2, 5), depth)
        assert separation_depth(fam) == expected


def differential_family(rng):
    """A family for the differential test: d in {1, 2, 3}, 2-6 members,
    order 2-8, split at a random depth (at or past the order, the members
    are indistinguishable), random unit rescalings, some members duplicated
    or rescaled copies of another, and some jets two orders longer."""
    d = rng.choice((1, 2, 3))
    order = rng.randint(2, 8)
    depth = order if rng.random() < 0.1 else rng.randint(1, order - 1)
    vecs = [
        tuple(Fraction(0) if j == 1 else Fraction(rng.randint(-2, 2)) for j in range(d + 1))
        for _ in range(rng.randint(2, 3))
    ]
    members = []
    for i in range(rng.randint(2, 6)):
        if members and rng.random() < 0.2:
            raw = rng.choice(members)
        else:
            raw = random_normalized_member(rng, d, depth, vecs[i % len(vecs)], order)
        if rng.random() < 0.4:
            unit = random_unit(rng, order)
            raw = tuple(p * unit for p in raw)
        members.append(raw)
    for i, member in enumerate(members):
        members[i] = tuple(
            JetPoly(list(p.coeffs) + [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                      for _ in range(2)], order + 2)
            if rng.random() < 0.15
            else p
            for p in member
        )
    return JetFamily(d, members)


def outcome(separate, family):
    try:
        return separate(family)
    except WallcrossError as exc:
        return type(exc), str(exc)


def test_separation_pass_matches_the_series_reference():
    rng = random.Random(50)
    kinds = set()
    for _ in range(1000):
        family = differential_family(rng)
        expected = outcome(reference_separate, family)
        assert outcome(_separate, family) == expected
        kinds.add(expected[0] if isinstance(expected[0], type) else "depth %d" % expected[0])
    assert IndistinguishableAtTruncation in kinds and {"depth 1", "depth 4"} <= kinds


# -- separated sections ----------------------------------------------------------------


def test_sections_at_depth_one_match_limit_section():
    fam = JetFamily(2, [(jp(0, 1), jp(1), jp(0, 2)), (jp(0, 2), jp(1), jp(0, 5))])
    assert separation_depth(fam) == 1
    assert separated_sections(fam) == [limit_section(m) for m in fam.members]


def test_engineered_second_order_split():
    """All first-order data equal; second order splits into two classes."""
    shared = (0, 3)
    fam = JetFamily(
        2,
        [
            (jp(*shared, 1), jp(1), jp(0, 2, 0)),
            (jp(*shared, 1), jp(1), jp(0, 2, 0)),
            (jp(*shared, 9), jp(1), jp(0, 2, 4)),
        ],
    )
    assert separation_depth(fam) == 2
    sections = separated_sections(fam)
    assert len(set(sections)) == 2
    assert sections[0] == sections[1] != sections[2]


def test_sections_shift_identically_under_common_perturbation():
    rng = random.Random(44)
    fam, depth = random_family(rng, 2, 3, 2)
    base = separated_sections(fam)
    normalized = reference_normalized_members(fam)
    shift = [Fraction(3), Fraction(0), Fraction(-2)]
    shifted_members = []
    for member in normalized:
        shifted = []
        for j, p in enumerate(member):
            coeffs = list(p.coeffs)
            coeffs[depth] += shift[j]
            shifted.append(JetPoly(coeffs, p.order))
        shifted_members.append(tuple(shifted))
    shifted_fam = JetFamily(2, shifted_members)
    assert separation_depth(shifted_fam) == depth
    moved = separated_sections(shifted_fam)
    delta = LimitSection(
        base[0].constant - moved[0].constant,
        tuple(a - b for a, b in zip(base[0].linear, moved[0].linear)),
    )
    for before, after in zip(base, moved):
        assert before.constant - after.constant == delta.constant
        assert tuple(a - b for a, b in zip(before.linear, after.linear)) == delta.linear
    # Coincidence pattern is untouched.
    def pattern(sections):
        groups = {}
        for i, s in enumerate(sections):
            groups.setdefault(s, []).append(i)
        return sorted(map(tuple, groups.values()))

    assert pattern(base) == pattern(moved)


def test_sections_ignore_higher_order_noise():
    rng = random.Random(45)
    for _ in range(20):
        fam, depth = random_family(rng, rng.choice((2, 3)), 3, rng.randint(1, 3))
        base = separated_sections(fam)
        noisy_members = []
        for member in fam.members:
            noisy = []
            for p in member:
                coeffs = list(p.coeffs)
                for k in range(depth + 1, p.order):
                    coeffs[k] += Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                noisy.append(JetPoly(coeffs, p.order))
            noisy_members.append(tuple(noisy))
        noisy_fam = JetFamily(fam.d, noisy_members)
        assert separation_depth(noisy_fam) == depth
        assert separated_sections(noisy_fam) == base


def test_sections_ignore_truncation_increase():
    fam = JetFamily(2, [(jp(0, 1, 5), jp(1), jp(0, 2)), (jp(0, 1, 7), jp(1), jp(0, 2))])
    wide = JetFamily(
        2,
        [
            tuple(JetPoly(p.coeffs, T + 4) for p in member)
            for member in fam.members
        ],
    )
    assert separated_sections(wide) == separated_sections(fam)


def test_sections_unit_rescale_invariance():
    rng = random.Random(46)
    for _ in range(20):
        fam, _ = random_family(rng, 2, 3, rng.randint(1, 3))
        rescaled = []
        for member in fam.members:
            unit = random_unit(rng)
            rescaled.append(tuple(p * unit for p in member))
        assert separated_sections(JetFamily(2, rescaled)) == separated_sections(fam)


# -- degeneration model -------------------------------------------------------------


def test_model_generic_family_all_distinct():
    rng = random.Random(47)
    fam, _ = random_family(rng, 2, 3, 1)
    model = stable_replacement_model(fam, 6)
    assert len(model.sections) == 3
    assert validate_degeneration(model)


def test_model_boundary_coincidence_still_valid():
    # n - d - 2 of the n - d - 1 members share their jet: largest legal class.
    d, n = 2, 7
    members = [
        (jp(0, 1), jp(1), jp(0, 2)),
        (jp(0, 1), jp(1), jp(0, 2)),
        (jp(0, 1), jp(1), jp(0, 2)),
        (jp(0, 5), jp(1), jp(0, 2)),
    ]
    model = stable_replacement_model(JetFamily(d, members), n)
    assert max(len(c) for c in model.classes) == n - d - 2
    assert validate_degeneration(model)


def test_model_rejects_fully_coincident_family():
    members = [(jp(0, 1), jp(1), jp(0, 2))] * 3
    with pytest.raises(IndistinguishableAtTruncation):
        stable_replacement_model(JetFamily(2, members), 6)


def test_validate_rejects_all_equal_sections():
    section = LimitSection(Fraction(1), (Fraction(0),))
    model = DegenerationModel(2, 6, (section,) * 3, ((0, 1, 2),))
    assert not validate_degeneration(model)


def test_validate_rejects_large_eps():
    rng = random.Random(48)
    fam, _ = random_family(rng, 2, 3, 1)
    model = stable_replacement_model(fam, 6)
    assert not validate_degeneration(model, Fraction(1, 2))  # eps = 1/d kills s


def test_member_count_must_match():
    rng = random.Random(49)
    fam, _ = random_family(rng, 2, 3, 1)
    with pytest.raises(BadParameters):
        stable_replacement_model(fam, 7)


# -- chart normalization ----------------------------------------------------------------


def test_normalize_to_common_chart():
    # Common limit hyperplane x_0 + 2x_1 + x_2 = 0, different jets above it.
    raw = [
        (jp(1, 1), jp(2, 1), jp(1, 3)),
        (jp(1, 0, 4), jp(2, 2), jp(1, 1)),
    ]
    fam = normalize_to_common_chart(2, raw)
    for member in fam.members:
        assert member[1].constant != 0
        assert member[0].constant == 0 and member[2].constant == 0
    assert separation_depth(fam) == 1


def test_normalize_rejects_mismatched_limits():
    raw = [
        (jp(1, 1), jp(2, 1), jp(1, 3)),
        (jp(1, 0), jp(3, 2), jp(1, 1)),  # limit (1, 3, 1) not proportional
    ]
    with pytest.raises(BadParameters):
        normalize_to_common_chart(2, raw)


def test_normalize_accepts_a_negatively_scaled_limit():
    raw = [
        (jp(1, 1), jp(2, 1), jp(1, 3)),
        (jp(-2, 1), jp(-4, 2), jp(-2, 1)),  # limit (-2, -4, -2) = -2 * (1, 2, 1)
    ]
    fam = normalize_to_common_chart(2, raw)
    assert [member[1].constant for member in fam.members] == [1, -2]


def test_family_work_guard():
    # members * (d+1) * order^2: 21 * 3 * 32^2 = 64,512 fits, 22 members do not.
    member = (jp(0, 1, order=32), jp(1, order=32), jp(0, 2, order=32))
    assert 21 * 3 * 32**2 <= MAX_FAMILY_WORK < 22 * 3 * 32**2
    assert len(JetFamily(2, [member] * 21).members) == 21
    with pytest.raises(SizeGuard, match="22 members of 3 jets at order 32 would take about 67,584"):
        JetFamily(2, [member] * 22)
    # The estimate uses the common order, the least order of any jet.
    short = (jp(0, 1, order=4), jp(1, order=32), jp(0, 2, order=32))
    assert len(JetFamily(2, [short] * 22).members) == 22
