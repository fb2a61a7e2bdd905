"""Tests for arrangements, flats and the stability dichotomy."""

import itertools
import random
from fractions import Fraction

import pytest

import wallcross.arrangement as arrangement_module
from wallcross.arrangement import (
    Arrangement,
    Flat,
    LogCanonicalVerdict,
    _primitive_direction,
    dichotomy_check,
    e_configuration,
    flats,
    is_e_type,
    is_log_canonical,
    is_stable,
)
from wallcross.epsfield import EPS, EpsRat
from wallcross.errors import BadParameters, InvariantBreach, PreconditionViolated, SizeGuard
from wallcross.linalg import _independent, _primitive
from wallcross.weights import WeightVector, nt_weights, t_weights

from reference_linalg import bareiss_rank, flat_work, kernel_flats, rref
from reference_linalg import primitive as reference_primitive
from reference_linalg import restrict as reference_restrict

e = EPS


# -- independent oracles -------------------------------------------------------


def det_laplace(m):
    """Determinant by recursive cofactor expansion; the slow, obvious path."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_laplace(minor)
    return total


def minor_rank(rows):
    """Rank as the largest size of a nonzero minor."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return 0
    n_rows, n_cols = len(rows), len(rows[0])
    for size in range(min(n_rows, n_cols), 0, -1):
        for rsel in itertools.combinations(range(n_rows), size):
            for csel in itertools.combinations(range(n_cols), size):
                sub = [[rows[r][c] for c in csel] for r in rsel]
                if det_laplace(sub) != 0:
                    return size
    return 0


def brute_flats(arr):
    """All (codim, support) pairs from exhaustive subset ranks, where
    support(S) = {i : rank(S + i) == rank(S)}; dedup by support."""
    found = {}
    for size in range(1, arr.n + 1):
        for S in itertools.combinations(range(arr.n), size):
            rows = [arr.rows[i] for i in S]
            rank = minor_rank(rows)
            if rank > arr.d:
                continue
            support = frozenset(
                i + 1
                for i in range(arr.n)
                if minor_rank(rows + [arr.rows[i]]) == rank
            )
            found[support] = rank
    return {(rank, support) for support, rank in found.items()}


def reference_flats(arr):
    """The lattice built with one Bareiss rank per (flat, j, i), as flats did
    before it moved to integer kernel bases: the reference it must match."""
    directions = [_primitive_direction(row) for row in arr.rows]
    by_direction = {}
    for i, direction in enumerate(directions):
        by_direction.setdefault(direction, []).append(i + 1)
    result = []
    level = []
    for direction, indices in by_direction.items():
        flat = Flat(1, frozenset(indices))
        result.append(flat)
        level.append((flat, [direction]))
    seen_supports = {flat.support for flat in result}
    for codim in range(2, arr.d + 1):
        next_level = []
        for flat, gens in level:
            for j in range(1, arr.n + 1):
                if j in flat.support:
                    continue
                cand = gens + [directions[j - 1]]
                support = frozenset(
                    i
                    for i in range(1, arr.n + 1)
                    if bareiss_rank(cand + [directions[i - 1]]) == codim
                )
                if support in seen_supports:
                    continue
                seen_supports.add(support)
                new = Flat(codim, support)
                result.append(new)
                next_level.append((new, cand))
        level = next_level
    result.sort(key=Flat.sort_key)
    return result


def reference_flat_weight(flat, b):
    acc = EpsRat.from_rat(0)
    for i in flat.support:
        acc = acc + b.entries[i - 1]
    return acc


def reference_lc_witness(lattice, b):
    """The first flat whose Q(e) weight exceeds its codimension, or None."""
    for flat in lattice:
        if (reference_flat_weight(flat, b) - flat.codim).sign() > 0:
            return flat
    return None


def reference_verdict(arr, lattice, b):
    """(status, witness) of is_stable from Q(e) sums over lattice."""
    if (b.total() - (arr.d + 1)).sign() <= 0:
        return "not-positive", None
    witness = reference_lc_witness(lattice, b)
    return ("stable", None) if witness is None else ("not-lc", witness)


def e_image(rng, d, n):
    """A projective image of e_configuration(d, n): rows times an invertible
    integer matrix, each row rescaled."""
    while True:
        m = [[rng.randint(-2, 2) for _ in range(d + 1)] for _ in range(d + 1)]
        if bareiss_rank(m) == d + 1:
            break
    rows = []
    for row in e_configuration(d, n).rows:
        scale = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 3)))
        rows.append([scale * sum(row[k] * m[k][j] for k in range(d + 1)) for j in range(d + 1)])
    return Arrangement(d, n, rows)


def lattice_corpus():
    """Seeded arrangements: rows in [-2, 2], so coincident and concurrent
    hyperplanes are common, for d in {1, 2, 3} and n up to 12, and
    projective images of e_configuration."""
    rng = random.Random(29)
    corpus = []
    for _ in range(60):
        d = rng.randint(1, 3)
        n = rng.randint(d + 3, 12 if d < 3 else 9)
        rows = []
        while len(rows) < n:
            row = [rng.randint(-2, 2) for _ in range(d + 1)]
            if any(row):
                rows.append(row)
        corpus.append(Arrangement(d, n, rows))
    for d, n in ((1, 4), (1, 7), (2, 6), (2, 9), (2, 12), (3, 7), (3, 10)):
        corpus.append(e_image(rng, d, n))
    return corpus


def random_arrangement(rng, d, n):
    while True:
        rows = [[rng.randint(-4, 4) for _ in range(d + 1)] for _ in range(n)]
        if any(all(x == 0 for x in row) for row in rows):
            continue
        return Arrangement(d, n, rows)


def random_t_stable(rng, d, n):
    while True:
        arr = random_arrangement(rng, d, n)
        if is_stable(arr, t_weights(d, n)).is_stable and not is_e_type(arr):
            return arr


# -- rank ----------------------------------------------------------------------


def test_rank_oracle_agreement():
    rng = random.Random(21)
    for _ in range(60):
        d = rng.randint(1, 3)
        n = rng.randint(2, 8)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d + 1)]
            for _ in range(n)
        ]
        assert bareiss_rank(rows) == minor_rank(rows) == len(rref(rows))


# -- flats ------------------------------------------------------------------------


def test_flats_coordinate_hyperplanes():
    for d in (2, 3):
        n = d + 3
        rows = [[1 if j == i else 0 for j in range(d + 1)] for i in range(d + 1)]
        # Pad with generic extra hyperplanes to reach a legal n.
        rows += [[1, 2, 5][: d + 1] if d == 2 else [1, 2, 5, 11]] * 0
        rng = random.Random(d)
        while len(rows) < n:
            cand = [rng.randint(1, 7) for _ in range(d + 1)]
            rows.append(cand)
        arr = Arrangement(d, n, rows)
        all_flats = flats(arr)
        from math import comb

        for c in range(1, d + 1):
            coord = [
                f
                for f in all_flats
                if f.support <= set(range(1, d + 2)) and f.codim == c
            ]
            assert len(coord) == comb(d + 1, c)


def test_flats_e_configuration_match_brute_force():
    arr = e_configuration(2, 6)
    got = {(f.codim, f.support) for f in flats(arr)}
    assert got == brute_flats(arr)
    lines = [f for f in flats(arr) if f.codim == 1]
    points = [f for f in flats(arr) if f.codim == 2]
    assert len(lines) == 4
    assert frozenset({4, 5, 6}) in {f.support for f in lines}
    assert len(points) == 6


def test_flats_random_match_brute_force():
    rng = random.Random(22)
    for _ in range(5):
        arr = random_arrangement(rng, 2, 6)
        assert {(f.codim, f.support) for f in flats(arr)} == brute_flats(arr)


def test_flats_coincident_rows():
    arr = Arrangement(2, 5, [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    doubled = [f for f in flats(arr) if f.codim == 1 and f.support == {1, 2}]
    assert len(doubled) == 1


def test_flats_support_is_maximal():
    arr = e_configuration(3, 7)
    for f in flats(arr):
        rows = [arr.rows[i - 1] for i in f.support]
        for i in range(1, arr.n + 1):
            if i not in f.support:
                assert bareiss_rank(rows + [arr.rows[i - 1]]) > f.codim


def _refuse_lattice(arr):
    raise AssertionError("built the lattice of an arrangement past the flat guard")


def test_flats_size_guard(monkeypatch):
    # W = 16n + sum_{c<d} C(n, c)*n*(d+1-c)*(d+1), summed until it passes
    # the cap.
    monkeypatch.setattr(arrangement_module, "_lattice", _refuse_lattice)
    with pytest.raises(SizeGuard) as caught:
        flats(e_configuration(13, 16))
    assert str(caught.value) == (
        "flat enumeration for d = 13, n = 16 is estimated at 14,635,072 integer "
        "products or more; capped at 6,000,000"
    )
    with pytest.raises(SizeGuard, match="d = 2, n = 1000000 is estimated at 25,000,000 "):
        arrangement_module.check_size(2, 1_000_000)
    # At d = 1 the walk makes no products: the per-hyperplane term alone
    # bounds n.
    arrangement_module.check_size(1, 300_000)
    with pytest.raises(SizeGuard, match="d = 1, n = 300001 is estimated at 6,000,020 "):
        arrangement_module.check_size(1, 300_001)
    monkeypatch.undo()
    assert len(flats(e_configuration(2, 17))) == 10
    rng = random.Random(34)
    assert len(flats(random_arrangement(rng, 2, 100))) > 1000
    # The largest estimates accepted at d = 5..7 (n = 25, 19, 16).
    for d, n in ((5, 25), (6, 19), (7, 16)):
        arrangement_module.check_size(d, n)
        with pytest.raises(SizeGuard):
            arrangement_module.check_size(d, n + 1)


def parallel_rows_arrangement(rng, d, n):
    """Small rows in [-1, 1] where about a third are rescaled copies of an
    earlier row: many coincident and concurrent hyperplanes."""
    rows = []
    while len(rows) < n:
        if rows and rng.random() < 0.35:
            scale = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 5)))
            rows.append([scale * x for x in rng.choice(rows)])
            continue
        row = [rng.randint(-1, 1) for _ in range(d + 1)]
        if any(row):
            rows.append(row)
    return Arrangement(d, n, rows)


def test_primitive_matches_the_generator_reference():
    rng = random.Random(35)
    leading_zeros = 0
    for _ in range(6000):
        length = rng.randint(1, 6)
        zeros = min(rng.choice((0, 0, 1, 2, 5)), length - 1)
        while True:
            v = [0] * zeros + [rng.randint(-50, 50) for _ in range(length - zeros)]
            if any(v):
                break
        leading_zeros += v[0] == 0
        assert _primitive(v) == reference_primitive(v), v
    assert leading_zeros > 1500


def test_lattice_matches_the_generator_kernels(monkeypatch):
    # The restricted walk against the kernel walk it replaced, and against
    # itself with the restriction step written with generators.
    rng = random.Random(36)
    corpus = [parallel_rows_arrangement(rng, d, n) for d, n in ((2, 8), (3, 8), (4, 8), (4, 9))]
    corpus += [e_image(rng, d, n) for d, n in ((1, 5), (2, 9), (3, 10), (4, 8))]
    corpus += lattice_corpus()
    got = [arrangement_module._lattice(arr) for arr in corpus]
    for arr, lattice in zip(corpus, got):
        assert [(f.codim, f.support) for f in lattice] == kernel_flats(arr.d, arr.rows), arr.rows
    monkeypatch.setattr(arrangement_module, "_restrict", reference_restrict)
    assert [arrangement_module._lattice(arr) for arr in corpus] == got


def test_flats_match_the_bareiss_reference():
    rng = random.Random(32)
    four = [parallel_rows_arrangement(rng, 4, n) for n in (7, 8, 8)]
    four.append(e_image(rng, 4, 8))
    for arr in lattice_corpus() + four:
        got = [(f.codim, f.support) for f in flats(arr)]
        want = [(f.codim, f.support) for f in reference_flats(arr)]
        assert got == want == kernel_flats(arr.d, arr.rows), arr.rows


def test_flat_support_rows_cut_out_the_flat():
    # A flat's equations are its support rows: they have rank codim, and any
    # other row of the arrangement raises the rank.
    rng = random.Random(33)
    four = [parallel_rows_arrangement(rng, 4, 8), e_image(rng, 4, 8)]
    for arr in lattice_corpus() + four:
        for f in flats(arr):
            rows = [arr.rows[i - 1] for i in sorted(f.support)]
            assert bareiss_rank(rows) == f.codim, (arr.rows, f)
            for i in range(1, arr.n + 1):
                if i not in f.support:
                    assert bareiss_rank(rows + [arr.rows[i - 1]]) == f.codim + 1


def test_a_flat_inside_a_hyperplane_outside_its_support_is_a_breach(monkeypatch):
    # A restriction that keeps only the first coordinate restricts to a line
    # inside the cover, a smaller flat than the one its support names, which
    # some hyperplane outside the support contains: its restriction is zero.
    real = arrangement_module._restrict

    def to_a_line(w, rows):
        return [None if r is None or not r[0] else (1,) for r in real(w, rows)]

    monkeypatch.setattr(arrangement_module, "_restrict", to_a_line)
    with pytest.raises(InvariantBreach, match="contains a flat with support"):
        flats(e_configuration(2, 6))


def test_the_flat_guard_bounds_the_products_of_the_walk(restrict_products):
    rng = random.Random(37)
    corpus = lattice_corpus()
    corpus += [parallel_rows_arrangement(rng, d, n) for d, n in ((2, 12), (3, 9), (4, 8), (4, 9))]
    corpus += [e_image(rng, d, n) for d, n in ((2, 9), (3, 10), (4, 8))]
    corpus += [random_arrangement(rng, d, n) for d, n in ((2, 100), (3, 30), (4, 16))]
    largest = 0
    for arr in corpus:
        restrict_products[0] = 0
        flats(arr)
        assert restrict_products[0] <= flat_work(arr.d, arr.n), arr.rows
        largest = max(largest, restrict_products[0] / flat_work(arr.d, arr.n))
    assert largest > 0.2


def independence_corpus(rng):
    """Integer row sets of 1..5 rows of length 1..5, with entries in
    [-3, 3]; about half are made dependent by a zero row, a multiple of an
    earlier row, the negated sum of earlier rows (a zero-sum set) or an
    integer combination of two of them."""
    for _ in range(3000):
        length = rng.randint(1, 5)
        count = rng.randint(1, min(length, 5))
        rows = [[rng.randint(-3, 3) for _ in range(length)] for _ in range(count)]
        kind = rng.choice(("none", "zero", "multiple", "zero-sum", "combination"))
        if count > 1 and kind != "none":
            j = rng.randrange(1, count)
            earlier = rows[:j]
            if kind == "zero":
                rows[j] = [0] * length
            elif kind == "multiple":
                k = rng.choice((-3, -1, 2, 5))
                rows[j] = [k * x for x in rng.choice(earlier)]
            elif kind == "zero-sum":
                rows[j] = [-sum(col) for col in zip(*earlier)]
            else:
                a, b = rng.choice(earlier), rng.choice(earlier)
                s, t = rng.randint(-2, 2), rng.randint(-2, 2)
                rows[j] = [s * x + t * y for x, y in zip(a, b)]
        yield [tuple(row) for row in rows]


def test_independent_matches_the_bareiss_rank():
    dependent = 0
    total = 0
    for rows in independence_corpus(random.Random(38)):
        want = bareiss_rank(rows) == len(rows)
        assert _independent(rows) == want, rows
        dependent += not want
        total += 1
    assert 0.4 < dependent / total < 0.6


# -- independent log-canonicity oracle ---------------------------------------------


def subset_ranks(arr):
    """rank(X) for every subset X of hyperplanes, indexed by bitmask."""
    return [
        bareiss_rank([arr.rows[i] for i in range(arr.n) if mask >> i & 1])
        for mask in range(1 << arr.n)
    ]


def subset_lc_oracle(arr, ranks, b):
    """Log canonicity as b(X) <= r(X) for every subset X with r(X) <= d.

    Closing X under the hyperplanes through its flat adds only weights
    >= 0 and keeps the rank, so this is the flat-sum test with no lattice:
    all 2^n subsets, Q(e) sums built one element at a time.
    """
    sums = [EpsRat.from_rat(0)] * (1 << arr.n)
    for mask in range(1, 1 << arr.n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + b.entries[low.bit_length() - 1]
        if ranks[mask] <= arr.d and sums[mask] > ranks[mask]:
            return False
    return True


def _light(rng):
    return Fraction(rng.randint(1, 11), 12) + rng.randint(-2, 2) * e


def _tie_weights(rng, arr, flat, excess):
    """Weights under which flat weighs exactly its codimension plus excess*e;
    the other entries are random."""
    entries = [_light(rng) for _ in range(arr.n)]
    support = sorted(flat.support)
    base = Fraction(flat.codim, len(support))
    if base == 1:
        shifts = [0] * len(support)
        shifts[0] = min(excess, 0)
    else:
        shifts = [rng.randint(-2, 2) for _ in support]
        shifts[-1] += excess - sum(shifts)
    for i, shift in zip(support, shifts):
        entries[i - 1] = base + shift * e
    return WeightVector(arr.d, arr.n, entries)


def verdict_corpus():
    """(arrangement, reference lattice, weight vectors): t, nt, random
    symbolic weights with (1 + q*e) denominators, flats weighing exactly
    their codimension or e more or less, and totals of exactly d + 1."""
    rng = random.Random(30)
    for arr in lattice_corpus():
        d, n = arr.d, arr.n
        lattice = reference_flats(arr)
        vectors = [t_weights(d, n), nt_weights(d, n)]
        for _ in range(2):
            vectors.append(WeightVector(d, n, [
                _light(rng) / (1 + rng.randint(0, 3) * e) for _ in range(n)
            ]))
        for excess in (0, 1, -1):
            vectors.append(_tie_weights(rng, arr, rng.choice(lattice), excess))
        vectors.append(WeightVector(d, n, [Fraction(d + 1, n)] * n))
        shifts = [rng.randint(-1, 1) for _ in range(n - 1)]
        vectors.append(WeightVector(d, n, [
            Fraction(d + 1, n) + s * e for s in shifts + [-sum(shifts)]
        ]))
        yield arr, lattice, vectors


def test_flat_sums_match_the_qe_reference():
    statuses = set()
    for arr, lattice, vectors in verdict_corpus():
        for b in vectors:
            verdict = is_stable(arr, b)
            want = reference_verdict(arr, lattice, b)
            assert (verdict.status, verdict.witness) == want, (arr.rows, b)
            witness = reference_lc_witness(lattice, b)
            assert is_log_canonical(arr, b) == LogCanonicalVerdict(witness is None, witness)
            statuses.add(want[0])
    assert statuses == {"stable", "not-lc", "not-positive"}


def oracle_corpus():
    """(arrangement, weight vectors), n <= 10: random, parallel-row and
    e_configuration arrangements under random rational weights, t, nt,
    random Q(e) weights and weights putting the closure of a random subset
    exactly at, above and below its rank."""
    rng = random.Random(33)
    arrangements = [e_configuration(d, n) for d, n in ((1, 5), (2, 6), (2, 9), (3, 7), (3, 10))]
    for _ in range(10):
        d = rng.randint(1, 3)
        arrangements.append(random_arrangement(rng, d, rng.randint(d + 3, 9)))
        arrangements.append(parallel_rows_arrangement(rng, d, rng.randint(d + 3, 9)))
    arrangements.append(parallel_rows_arrangement(rng, 2, 10))
    for arr in arrangements:
        d, n = arr.d, arr.n
        ranks = subset_ranks(arr)
        vectors = [t_weights(d, n), nt_weights(d, n)]
        vectors.append(WeightVector(d, n, [Fraction(rng.randint(1, 12), 12) for _ in range(n)]))
        vectors.append(WeightVector(d, n, [
            _light(rng) / (1 + rng.randint(0, 3) * e) for _ in range(n)
        ]))
        for excess in (0, 1, -1):
            mask = rng.randrange(1, 1 << n)
            while ranks[mask] > d:
                mask &= mask - 1
            closure = frozenset(
                i + 1 for i in range(n) if ranks[mask | 1 << i] == ranks[mask]
            )
            vectors.append(_tie_weights(rng, arr, Flat(ranks[mask], closure), excess))
        yield arr, ranks, vectors


def test_log_canonicity_matches_the_subset_oracle():
    answers = set()
    for arr, ranks, vectors in oracle_corpus():
        for b in vectors:
            verdict = is_log_canonical(arr, b)
            assert verdict.is_lc == subset_lc_oracle(arr, ranks, b), (arr.rows, b)
            answers.add(verdict.is_lc)
            if not verdict.is_lc:
                witness = verdict.witness
                mask = sum(1 << (i - 1) for i in witness.support)
                assert ranks[mask] == witness.codim
                assert sum(b.entries[i - 1] for i in witness.support) > witness.codim
    assert answers == {True, False}


def reference_is_e_type(arr):
    """is_e_type by RREF over Q, as it was before it moved to integers."""
    d, n = arr.d, arr.n
    first_light = arr.rows[d + 1]
    for j in range(d + 2, n):
        if rref([first_light, arr.rows[j]]) != rref([first_light]):
            return False
    head = list(arr.rows[: d + 1]) + [first_light]
    return all(
        len(rref(head[:omit] + head[omit + 1 :])) == d + 1 for omit in range(d + 2)
    )


def test_is_e_type_matches_the_rref_reference():
    rng = random.Random(31)
    answers = set()
    for arr in lattice_corpus():
        variants = [arr]
        for _ in range(3):
            rows = [list(row) for row in arr.rows]
            rows[rng.randrange(arr.n)] = rng.choice(rows)
            variants.append(Arrangement(arr.d, arr.n, rows))
        for variant in variants:
            assert is_e_type(variant) == reference_is_e_type(variant), variant.rows
            answers.add(is_e_type(variant))
    assert answers == {True, False}


def test_flats_cache_returns_a_new_list():
    arr = e_configuration(2, 7)
    first = flats(arr)
    expected = list(first)
    first.clear()
    assert flats(arr) == expected
    flats(arr).append(None)
    assert flats(arr) == expected


def test_dichotomy_builds_the_lattice_once(monkeypatch):
    built = []
    real = arrangement_module._lattice

    def counting(arr):
        built.append(arr)
        return real(arr)

    monkeypatch.setattr(arrangement_module, "_lattice", counting)
    arr = e_configuration(2, 7)
    assert dichotomy_check(arr)
    assert built == [arr]
    assert is_stable(arr, t_weights(2, 7)).is_stable
    assert len(built) == 1


# -- log canonicity and stability ------------------------------------------------


def test_e_configuration_states_the_shape_it_refuses():
    for d, n in ((0, 5), (2, 4), (-1, 1)):
        with pytest.raises(BadParameters) as caught:
            e_configuration(d, n)
        assert str(caught.value) == "need d >= 1 and n >= d + 3, got d=%d n=%d" % (d, n)


def test_e_configuration_rows():
    arr = e_configuration(2, 6)
    assert arr.rows[:3] == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert arr.rows[3:] == ((1, 1, 1),) * 3
    assert e_configuration(1, 4).rows == ((1, 0), (0, 1), (1, 1), (1, 1))


def test_e_configuration_lc_for_t():
    for d, n in ((1, 5), (2, 6), (2, 7), (3, 8)):
        assert is_log_canonical(e_configuration(d, n), t_weights(d, n)).is_lc


def test_e_configuration_not_lc_for_nt():
    for d, n in ((1, 5), (2, 6), (2, 7), (3, 8)):
        verdict = is_log_canonical(e_configuration(d, n), nt_weights(d, n))
        assert not verdict.is_lc
        assert verdict.witness.support == frozenset(range(d + 2, n + 1))
        assert verdict.witness.codim == 1


def test_linearly_general_always_lc():
    rng = random.Random(23)
    for _ in range(5):
        arr = random_arrangement(rng, 2, 6)
        all_flats = flats(arr)
        if any(len(f.support) > f.codim for f in all_flats):
            continue  # not linearly general, skip
        b = WeightVector(2, 6, [Fraction(rng.randint(1, 10), 10) for _ in range(6)])
        assert is_log_canonical(arr, b).is_lc


def test_stability_verdicts():
    rng = random.Random(24)
    arr = random_t_stable(rng, 2, 6)
    assert is_stable(arr, nt_weights(2, 6)).is_stable
    assert is_stable(e_configuration(2, 6), nt_weights(2, 6)).status == "not-lc"
    flat_weights = WeightVector(2, 6, [Fraction(1, 2)] * 6)  # total 3, not above d+1
    assert is_stable(e_configuration(2, 6), flat_weights).status == "not-positive"


# -- dichotomy ---------------------------------------------------------------------


def test_dichotomy_on_e_configuration():
    assert dichotomy_check(e_configuration(2, 7))
    assert is_e_type(e_configuration(2, 7))


def test_dichotomy_on_random_t_stable():
    rng = random.Random(25)
    for _ in range(25):
        arr = random_t_stable(rng, 2, rng.choice((6, 7)))
        assert dichotomy_check(arr)


def test_dichotomy_concurrent_lights():
    # Lights distinct but all through [1:1:1], a point off every heavy line;
    # they also avoid the heavy pairwise intersection points, so the only
    # large flat is the light concurrency point: nt-stable branch.
    rows = [[1, 0, 0], [0, 1, 0], [1, 1, 1],
            [2, -3, 1], [3, -4, 1], [1, -3, 2], [5, -7, 2]]
    arr = Arrangement(2, 7, rows)
    assert is_stable(arr, t_weights(2, 7)).is_stable
    assert not is_e_type(arr)
    point_flat = [f for f in flats(arr) if f.support >= {4, 5, 6, 7}]
    assert point_flat and point_flat[0].codim == 2
    assert dichotomy_check(arr)


def test_dichotomy_precondition():
    # Three coincident heavy hyperplanes are never stable for the toric weights.
    rows = [[1, 0, 0], [1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    with pytest.raises(PreconditionViolated):
        dichotomy_check(Arrangement(2, 6, rows))


# -- structural properties -----------------------------------------------------------


def test_lc_monotonicity():
    rng = random.Random(26)
    for _ in range(15):
        arr = random_arrangement(rng, 2, 6)
        entries = [Fraction(rng.randint(1, 10), 10) for _ in range(6)]
        b = WeightVector(2, 6, entries)
        smaller = WeightVector(
            2, 6, [x * Fraction(rng.randint(1, 10), 10) for x in entries]
        )
        if is_log_canonical(arr, b).is_lc:
            assert is_log_canonical(arr, smaller).is_lc


def test_nt_check_matches_case_split():
    """Per flat, the exact verdict for the perturbed weights must equal the
    direct four-case transcription (valid for toric-stable arrangements)."""
    rng = random.Random(27)
    for _ in range(20):
        d, n = 2, rng.choice((6, 7))
        arr = random_arrangement(rng, d, n)
        if not is_stable(arr, t_weights(d, n)).is_stable:
            continue
        nt = nt_weights(d, n)
        for flat in flats(arr):
            m1 = len(flat.support & set(range(1, d + 2)))
            m2 = len(flat.support & set(range(d + 2, n + 1)))
            c = flat.codim
            if m2 == 0:
                case_ok = True
            elif m1 == 0 and m2 < n - d - 1:
                case_ok = True
            else:
                case_ok = c >= 2
            total = sum(
                (nt.entries[i - 1] for i in flat.support), start=EPS - EPS
            )
            assert ((total - c).sign() <= 0) == case_ok


def test_projective_invariance():
    rng = random.Random(28)
    d, n = 2, 6
    for _ in range(10):
        arr = random_arrangement(rng, d, n)
        b = WeightVector(d, n, [Fraction(rng.randint(1, 10), 10) for _ in range(n)])
        base = is_log_canonical(arr, b).is_lc
        # Row rescaling.
        scaled = Arrangement(
            d, n,
            [
                [x * Fraction(rng.randint(1, 5)) for x in row]
                for row in arr.rows
            ],
        )
        assert is_log_canonical(scaled, b).is_lc == base
        # Right multiplication by an invertible matrix.
        while True:
            m = [[rng.randint(-2, 2) for _ in range(d + 1)] for _ in range(d + 1)]
            if det_laplace([[Fraction(x) for x in row] for row in m]) != 0:
                break
        moved = Arrangement(
            d, n,
            [
                [sum(row[i] * m[i][j] for i in range(d + 1)) for j in range(d + 1)]
                for row in arr.rows
            ],
        )
        assert is_log_canonical(moved, b).is_lc == base
        assert is_stable(moved, b).status == is_stable(arr, b).status


def test_rejects_zero_row():
    with pytest.raises(BadParameters):
        Arrangement(2, 6, [[0, 0, 0]] + [[1, 0, 0]] * 5)
