"""Tests for regular mixed subdivisions, fiber vertices and defect cells."""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from wallcross import mixedsub
from wallcross.epsfield import EPS, EpsPoly, EpsRat, clear_denominators, poly_mul
from wallcross.errors import (
    BadParameters,
    DegreeOverflow,
    DimensionMismatch,
    InvariantBreach,
    NotFine,
    SizeGuard,
    WrongDimension,
)
from wallcross.mixedsub import (
    MixedCell,
    MixedSubdivision,
    Point,
    cell_vertices,
    cell_volume,
    dual_graph,
    fiber_vertex,
    qcartier_defect_cells,
    regular_mixed_subdivision,
)

import reference_mixedsub as reference
from reference_linalg import bareiss_rank

e = EPS


def simplex_vertices(d: int) -> tuple[Point, ...]:
    """Vertices of Delta_d in R^d: the origin and the standard basis."""
    verts = [tuple(Fraction(0) for _ in range(d))]
    for i in range(d):
        verts.append(tuple(Fraction(1 if j == i else 0) for j in range(d)))
    return tuple(verts)


@dataclass(frozen=True)
class CayleyConfig:
    """The Cayley embedding of m copies of Delta_d in R^(d+m-1).

    Point (i, v) is the vertex v of copy i placed at marker mu_i, where
    mu_1 = 0 and mu_i = e_(i-1).  tags[k] records (copy, vertex) of the
    k-th point; copies are 1-based, vertices 0-based.
    """

    d: int
    m: int
    tags: tuple[tuple[int, int], ...]
    points: tuple[Point, ...]


def cayley_config(d: int, m: int) -> CayleyConfig:
    if d < 1 or m < 1:
        raise BadParameters("need d >= 1 and m >= 1")
    verts = simplex_vertices(d)
    tags = []
    points = []
    for copy in range(1, m + 1):
        marker = tuple(Fraction(1 if copy == i else 0) for i in range(2, m + 1))
        for v, coords in enumerate(verts):
            tags.append((copy, v))
            points.append(coords + marker)
    return CayleyConfig(d, m, tuple(tags), tuple(points))


def faces_of(subdivision):
    return sorted(
        tuple(tuple(sorted(f)) for f in cell.faces) for cell in subdivision.cells
    )


def rank_lifting(m, perm):
    """d = 1 lifting realizing the switch order perm: copy perm[j] is the
    (j+1)-st to move, because cheaper slope differences switch earlier."""
    pos = {copy: j + 1 for j, copy in enumerate(perm)}
    lift = []
    for copy in range(1, m + 1):
        lift += [Fraction(0), Fraction(pos[copy])]
    return lift


def permutohedron_vertex(m, perm):
    """Closed form for the fiber vertex of the switch order perm: the copy
    switching at step p spends m - p cells at 1 and half a cell moving."""
    pos = {copy: j + 1 for j, copy in enumerate(perm)}
    return tuple((Fraction(2 * (m - pos[i]) + 1, 2),) for i in range(1, m + 1))


def facet_scan(subdivision):
    """Brute-force facet matching: enumerate each cell's geometric facets
    and pair up identical ones."""
    facets = {}
    for idx, cell in enumerate(subdivision.cells):
        vs = cell_vertices(cell)
        if subdivision.d == 1:
            items = [(vs[0],), (vs[-1],)]
        else:
            k = len(vs)
            items = [tuple(sorted((vs[i], vs[(i + 1) % k]))) for i in range(k)]
        for facet in items:
            facets.setdefault(facet, []).append(idx)
    assert all(len(cells) <= 2 for cells in facets.values())
    return {tuple(cells) for cells in facets.values() if len(cells) == 2}


def polytope_contains(vertices, point, d):
    if d == 1:
        return vertices[0][0] <= point[0] <= vertices[-1][0]
    k = len(vertices)
    for i in range(k):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % k]
        if (bx - ax) * (point[1] - ay) - (by - ay) * (point[0] - ax) < 0:
            return False
    return True


# -- construction ----------------------------------------------------------------


def test_interval_example():
    S = regular_mixed_subdivision(1, 2, [0, 0, 0, 1])
    assert faces_of(S) == [((0, 1), (0,)), ((1,), (0, 1))]
    # The cells are [0,1]+{0} and {1}+[0,1].
    polys = sorted(cell_vertices(c) for c in S.cells)
    assert polys == [
        ((Fraction(0),), (Fraction(1),)),
        ((Fraction(1),), (Fraction(2),)),
    ]
    assert S.is_fine


def test_zero_lifting_single_coarse_cell():
    S = regular_mixed_subdivision(1, 3, [0] * 6)
    assert len(S.cells) == 1
    assert not S.is_fine
    with pytest.raises(NotFine):
        fiber_vertex(S)


def test_plane_fine_subdivision_shape():
    # A fine mixed subdivision of 2*Delta_2 consists of the two pure
    # triangles and a single unit parallelogram: three cells of total
    # area 2 (an inverted triangle is not a Minkowski cell, so four upright
    # triangles can never appear).
    rng = random.Random(51)
    for _ in range(10):
        lift = [Fraction(rng.randint(0, 100)) for _ in range(6)]
        S = regular_mixed_subdivision(2, 2, lift)
        assert sum(cell_volume(c) for c in S.cells) == 2
        if S.is_fine:
            sizes = sorted(sum(len(f) for f in c.faces) for c in S.cells)
            assert len(S.cells) == 3
            assert sizes == [4, 4, 4]  # 3+1, 1+3, 2+2


def test_volume_partition_random():
    rng = random.Random(52)
    for d, m in ((1, 4), (2, 2), (2, 3), (2, 4)):
        for _ in range(8):
            lift = [Fraction(rng.randint(0, 500)) for _ in range(m * (d + 1))]
            S = regular_mixed_subdivision(d, m, lift)
            total = sum(cell_volume(c) for c in S.cells)
            assert total == Fraction(m**d, 1 if d == 1 else 2)


def test_cells_have_disjoint_interiors_at_desk_scale():
    rng = random.Random(53)
    for _ in range(5):
        lift = [Fraction(rng.randint(0, 60)) for _ in range(9)]
        S = regular_mixed_subdivision(2, 3, lift)
        polys = [cell_vertices(c) for c in S.cells]
        for (i, p), (j, q) in itertools.combinations(enumerate(polys), 2):
            # Barycenter of one cell never sits inside another.
            bar = tuple(sum(v[k] for v in p) / len(p) for k in range(2))
            assert not polytope_contains(q, bar, 2)


def test_cayley_config_spans():
    for d, m in ((1, 3), (2, 3), (2, 5)):
        config = cayley_config(d, m)
        assert len(config.points) == m * (d + 1)
        base = config.points[0]
        diffs = [
            tuple(x - y for x, y in zip(p, base)) for p in config.points[1:]
        ]
        assert bareiss_rank(diffs) == d + m - 1


def test_parameter_validation():
    with pytest.raises(BadParameters):
        regular_mixed_subdivision(3, 2, [0] * 8)
    with pytest.raises(SizeGuard):
        regular_mixed_subdivision(1, 7, [0] * 14)
    with pytest.raises(DimensionMismatch):
        regular_mixed_subdivision(2, 2, [0] * 5)


# -- dual graph -------------------------------------------------------------------


def test_dual_graph_single_cell():
    S = regular_mixed_subdivision(1, 2, [0, 0, 0, 0])
    g = dual_graph(S)
    assert g.cell_count == 1 and g.edges == ()


def test_dual_graph_interval_path():
    S = regular_mixed_subdivision(1, 2, [0, 0, 0, 1])
    g = dual_graph(S)
    assert g.cell_count == 2
    assert len(g.edges) == 1
    assert g.edges[0].facet == ((Fraction(1),),)


def test_dual_graph_refuses_overlapping_cells():
    # Cells sharing two facets, or a facet with three owners, overlap: no
    # coherent subdivision has them, so dual_graph reports a breach instead
    # of an edge.  So does a cell that is not full-dimensional.
    plane = regular_mixed_subdivision(2, 2, [0, 0, 1, 0, 1, 0])
    line = regular_mixed_subdivision(1, 2, [0, 0, 0, 1])
    point = MixedCell(2, (frozenset({0}),) * 2)
    for S, cells in (
        (plane, plane.cells[:1] * 2),
        (line, line.cells[:1] * 2),
        (plane, plane.cells[:1] * 3),
        (plane, plane.cells[:1] + (point,)),
    ):
        bad = mixedsub.MixedSubdivision(S.d, 2, S.lifting, cells)
        with pytest.raises(InvariantBreach):
            dual_graph(bad)


def test_dual_graph_matches_facet_scan():
    rng = random.Random(54)
    for d, m in ((1, 4), (2, 2), (2, 3), (2, 4)):
        for _ in range(6):
            lift = [Fraction(rng.randint(0, 300)) for _ in range(m * (d + 1))]
            S = regular_mixed_subdivision(d, m, lift)
            got = {(edge.cell_a, edge.cell_b) for edge in dual_graph(S).edges}
            assert got == facet_scan(S)


def differential_subdivisions():
    """Random rational, coarse (heights in [0, 2]) and Q(e) liftings for
    d = 1, 2 and every m up to 6."""
    rng = random.Random(63)
    for index in range(432):
        d, m = 1 + index % 2, 1 + index // 2 % 6
        kind = ("rational", "coarse", "eps")[index // 12 % 3]
        count = m * (d + 1)
        if kind == "rational":
            lift = [Fraction(rng.randint(0, 10**4), rng.randint(1, 9)) for _ in range(count)]
        elif kind == "coarse":
            lift = [rng.randint(0, 2) for _ in range(count)]
        else:
            lift = [EpsRat.from_rat(rng.randint(0, 6)) + e * rng.randint(-3, 3) for _ in range(count)]
        yield regular_mixed_subdivision(d, m, lift)


def test_dual_graph_and_fiber_vertex_match_the_hull_reference():
    fine = coarse = 0
    for S in differential_subdivisions():
        assert dual_graph(S) == reference.dual_graph(S), S.lifting
        if S.is_fine:
            fine += 1
            assert fiber_vertex(S) == reference.fiber_vertex(S), S.lifting
        else:
            coarse += 1
            with pytest.raises(NotFine):
                fiber_vertex(S)
    assert fine > 200 and coarse > 40


def test_cell_geometry_matches_the_hull_reference_on_every_small_cell():
    # Every tuple of faces for d = 1 with m <= 6 and d = 2 with m <= 4,
    # fine or not, full-dimensional or not.
    count = 0
    for d, top in ((1, 6), (2, 4)):
        faces = [frozenset(c) for k in range(1, d + 2) for c in itertools.combinations(range(d + 1), k)]
        for m in range(1, top + 1):
            for combo in itertools.product(faces, repeat=m):
                cell = MixedCell(d, combo)
                assert cell_vertices(cell) == reference.cell_vertices(cell), combo
                assert cell_volume(cell) == reference.cell_volume(cell), combo
                count += 1
    assert count == 3892


@pytest.mark.parametrize(
    "cell",
    [
        MixedCell(2, (frozenset(),)),
        MixedCell(2, (frozenset({0, 1}), frozenset())),
        MixedCell(2, (frozenset({5}),)),
        MixedCell(2, (frozenset({0}), frozenset({1, 3}))),
        MixedCell(1, (frozenset({2}),)),
        MixedCell(1, (frozenset({-1, 0}),)),
        MixedCell(2, ()),
        MixedCell(3, (frozenset({0, 1, 2, 3}),)),
    ],
)
def test_malformed_cells_raise_bad_parameters(cell):
    with pytest.raises(BadParameters):
        cell_vertices(cell)
    with pytest.raises(BadParameters):
        cell_volume(cell)


def test_dual_graph_connected_generic():
    rng = random.Random(55)
    for _ in range(5):
        lift = [Fraction(rng.randint(0, 400)) for _ in range(9)]
        S = regular_mixed_subdivision(2, 3, lift)
        g = dual_graph(S)
        adjacency = {i: set() for i in range(g.cell_count)}
        for edge in g.edges:
            adjacency[edge.cell_a].add(edge.cell_b)
            adjacency[edge.cell_b].add(edge.cell_a)
        seen = {0}
        stack = [0]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        assert seen == set(range(g.cell_count))


# -- fiber vertices ------------------------------------------------------------------


def test_two_subdivisions_of_the_segment_pair():
    va = fiber_vertex(regular_mixed_subdivision(1, 2, [0, 0, 0, 1])).blocks
    vb = fiber_vertex(regular_mixed_subdivision(1, 2, [0, 1, 0, 0])).blocks
    assert va != vb
    assert va == (vb[1], vb[0])  # swapping the copies swaps the blocks


def test_permutohedron_vertices_exhaustive():
    for m in (2, 3, 4, 5):
        got = set()
        expected = set()
        for perm in itertools.permutations(range(1, m + 1)):
            S = regular_mixed_subdivision(1, m, rank_lifting(m, perm))
            assert S.is_fine
            got.add(fiber_vertex(S).blocks)
            expected.add(permutohedron_vertex(m, perm))
        assert len(got) == len(expected)
        assert got == expected
        # Every vertex is a permutation pattern of the half-integer ladder.
        ladder = {Fraction(2 * k + 1, 2) for k in range(m)}
        for vertex in got:
            assert {block[0] for block in vertex} == ladder


def test_random_liftings_stay_inside_the_vertex_set():
    rng = random.Random(56)
    m = 3
    allowed = {
        permutohedron_vertex(m, perm)
        for perm in itertools.permutations(range(1, m + 1))
    }
    for _ in range(25):
        lift = [Fraction(rng.randint(0, 1000)) for _ in range(2 * m)]
        S = regular_mixed_subdivision(1, m, lift)
        if S.is_fine:
            assert fiber_vertex(S).blocks in allowed


def reference_fiber_vertex(subdivision):
    """Blocks summed from the barycenters of the faces' simplex vertices."""
    d = subdivision.d
    verts = simplex_vertices(d)
    blocks = [[Fraction(0)] * d for _ in range(subdivision.m)]
    for cell in subdivision.cells:
        vol = cell_volume(cell)
        for i, face in enumerate(cell.faces):
            for j in range(d):
                blocks[i][j] += vol * sum(verts[v][j] for v in face) / len(face)
    return tuple(tuple(b) for b in blocks)


def test_fiber_vertices_match_the_barycenter_reference():
    rng = random.Random(61)
    fine = 0
    for index in range(300):
        d = 1 + index % 2
        m = rng.randint(1, 6 if d == 1 else 5)
        top = rng.choice((3, 50, 10**4))
        S = regular_mixed_subdivision(d, m, [rng.randint(0, top) for _ in range(m * (d + 1))])
        if S.is_fine:
            fine += 1
            assert fiber_vertex(S).blocks == reference_fiber_vertex(S), (d, S.lifting)
    assert fine > 200


# -- epsilon refinement -----------------------------------------------------------------


def test_infinitesimal_refinement_is_fine_and_refines():
    rng = random.Random(57)
    cases = [
        (1, 3, [Fraction(0)] * 6),
        (2, 2, [Fraction(0)] * 6),
        (2, 3, [Fraction(x) for x in (0, 0, 1, 0, 0, 1, 2, 2, 2)]),
    ]
    for d, m, base in cases:
        coarse = regular_mixed_subdivision(d, m, base)
        lift = [
            EpsRat.from_rat(h) + e * rng.randint(1, 10**6) for h in base
        ]
        refined = regular_mixed_subdivision(d, m, lift)
        assert refined.is_fine
        for cell in refined.cells:
            assert any(
                all(f <= g for f, g in zip(cell.faces, other.faces))
                for other in coarse.cells
            )


def reference_lower_cells(points, heights, groups):
    """The former Q(e) lower-hull scan, kept as the reference: solve for the
    affine function through each lifted subset by Gaussian elimination over
    Q(e) and test every point against it with field comparisons."""

    def solve(matrix, rhs):
        n = len(matrix)
        aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if pivot_row is None:
                return None
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            piv = aug[col][col]
            aug[col] = [x / piv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
        return [aug[r][n] for r in range(n)]

    dim = len(points[0])
    group_count = len(set(groups))
    cells = []
    for subset in itertools.combinations(range(len(points)), dim + 1):
        if len({groups[i] for i in subset}) != group_count:
            continue
        if any(set(subset) <= cell for cell in cells):
            continue
        matrix = [list(points[i]) + [Fraction(1)] for i in subset]
        coeffs = solve(matrix, [heights[i] for i in subset])
        if coeffs is None:
            continue
        alpha, beta = coeffs[:dim], coeffs[dim]
        values = [
            sum(a * x for a, x in zip(alpha, p)) + beta - heights[i]
            for i, p in enumerate(points)
        ]
        if any(v > 0 for v in values):
            continue
        cell = frozenset(i for i, v in enumerate(values) if v == 0)
        if cell not in cells:
            cells.append(cell)
    return cells


def reference_faces(d, m, lifting):
    config = cayley_config(d, m)
    heights = [h if isinstance(h, EpsRat) else Fraction(h) for h in lifting]
    copy_of = [tag[0] for tag in config.tags]
    out = []
    for raw in reference_lower_cells(config.points, heights, copy_of):
        faces = [[] for _ in range(m)]
        for idx in raw:
            copy, v = config.tags[idx]
            faces[copy - 1].append(v)
        out.append(tuple(tuple(sorted(f)) for f in faces))
    return sorted(out)


def int_det(matrix):
    """Fraction-free (Bareiss) determinant of a small integer matrix."""
    m = [row[:] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for col in range(n - 1):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def int_normal(rows):
    """Integer null vector of the k x (k+1) rows: the generalized cross
    product, whose j-th entry is the signed minor with column j deleted."""
    normal = []
    sign = 1
    for j in range(len(rows) + 1):
        minor = [row[:j] + row[j + 1 :] for row in rows]
        normal.append(sign * int_det(minor))
        sign = -sign
    return normal


def scan_lower_cells(points, heights, groups):
    """The former integer lower-hull scan, kept as the reference: every
    lifted (D+1)-subset meeting every copy spans a hyperplane with integer
    normal (gamma, delta, c); no point hangs below it when every
    t = gamma.q + delta + c*h_q has the sign of c or vanishes, and the
    points with t = 0 form a cell.  t is linear in the height column, so its
    coefficient of e^k is the same test on the heights h_k, taken in order
    of k while t ties."""
    n = len(points)
    dim = len(points[0])
    group_count = len(set(groups))
    levels = len(heights[0])
    lifted = [
        [list(p) + [1, heights[i][k]] for i, p in enumerate(points)]
        for k in range(levels)
    ]
    cells = []
    for subset in itertools.combinations(range(n), dim + 1):
        if len({groups[i] for i in subset}) != group_count:
            continue
        if any(set(subset) <= cell for cell in cells):
            continue
        normal = int_normal([lifted[0][i] for i in subset])
        c = normal[-1]
        if c == 0:
            continue
        normals = [normal]
        below = False
        on_face = []
        for i, row in enumerate(lifted[0]):
            t = sum(a * x for a, x in zip(normal, row))
            if t == 0:
                for k in range(1, levels):
                    if k == len(normals):
                        normals.append(int_normal([lifted[k][j] for j in subset]))
                    t = sum(a * x for a, x in zip(normals[k], lifted[k][i]))
                    if t:
                        break
            if t == 0:
                on_face.append(i)
            elif (t > 0) != (c > 0):
                below = True
                break
        if below:
            continue
        cell = frozenset(on_face)
        if cell not in cells:
            cells.append(cell)
    return cells


def lifting_makers(rng):
    """Height makers for generic, coarse (often non-fine), linear Q(e) and
    (1+q*e)-denominator liftings."""

    def linear():
        return rng.randint(0, 2) + rng.randint(-2, 2) * e

    return (
        lambda: Fraction(rng.randint(0, 10**4), rng.randint(1, 3)),
        lambda: Fraction(rng.randint(0, 2)),
        linear,
        lambda: linear() / (1 + rng.randint(-3, 3) * e),
    )


def test_lower_cells_match_the_integer_scan():
    # Potentials against the subset scan on the same integer heights.  The
    # scan costs up to 0.5 s per lifting of d = 2, m = 4 and of d = 1,
    # m = 6, so the larger shapes get fewer rounds.
    rng = random.Random(60)
    makers = lifting_makers(rng)
    shapes = [(1, m) for m in range(1, 7)] + [(1, m) for m in range(1, 5)] * 2
    shapes += [(2, m) for m in (1, 2, 3)] * 4 + [(2, 4)] * 2
    fine = 0
    for d, m in shapes:
        config = cayley_config(d, m)
        points = [tuple(int(x) for x in p) for p in config.points]
        groups = [tag[0] for tag in config.tags]
        for make in makers:
            heights = clear_denominators([make() for _ in range(m * (d + 1))])
            got = mixedsub._lower_cells(heights, d)
            want = scan_lower_cells(points, heights, groups)
            assert len(got) == len(set(got))
            assert sorted(map(sorted, got)) == sorted(map(sorted, want)), (d, heights)
            fine += all(len(cell) == m + d for cell in want)
    assert 0 < fine < len(shapes) * len(makers)


def test_packed_lower_cells_match_the_tuple_reference():
    # The packed potentials against the coefficient-tuple routine they
    # replaced, on the same integer heights.  The adversarial Q(e) heights
    # h +- T*e + c*e^2 tie often in their leading terms and make hop sums
    # with large digits; a packing base taken from 2*top instead of 16*top
    # gets 410 of the 3,400 liftings before the last corpus wrong.  The last
    # corpus takes 1000-digit numerators and denominators, the longest
    # literals the CLI reads, at the largest m.
    rng = random.Random(62)
    shapes = [(1, m) for m in range(1, 7)] + [(2, m) for m in range(1, 5)]
    corpus = []
    for make in lifting_makers(rng):
        corpus += [(d, [make() for _ in range(m * (d + 1))]) for d, m in shapes * 10]
    for T in (1, 3, 10):
        for d, m in shapes * 100:
            lift = [
                rng.randint(0, 1) + rng.choice((-T, T)) * e + rng.randint(-T, T) * e**2
                for _ in range(m * (d + 1))
            ]
            corpus.append((d, lift))
    for d in (1, 2, 1, 2):
        lift = [
            Fraction(rng.randrange(10**1000), rng.randrange(10**999, 10**1000))
            for _ in range(6 * (d + 1))
        ]
        corpus.append((d, lift))
    fine = 0
    for d, lift in corpus:
        heights = clear_denominators(lift)
        got = mixedsub._lower_cells(heights, d)
        want = reference._lower_cells(heights, d)
        assert len(got) == len(set(got))
        assert set(got) == set(want), (d, lift)
        fine += all(len(cell) == len(heights) // (d + 1) + d for cell in want)
    assert 0 < fine < len(corpus)


def test_lower_cells_match_field_scan_on_perturbed_liftings():
    rng = random.Random(59)

    # Small ranges, so that many point tests tie in their leading terms.
    def rat(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 2))

    def linear():
        return rng.randint(0, 2) + rng.randint(-2, 2) * e

    makers = (
        linear,
        lambda: rat(0, 2) + rat(-1, 1) * e + rat(-4, 4) * e**2,
        lambda: linear() / (1 + rat(-3, 3) * e),
        lambda: rng.choice([Fraction(rng.randint(0, 2)), linear()]),
    )
    shapes = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))
    for index in range(48):
        d, m = shapes[index % len(shapes)]
        make = makers[(index // len(shapes)) % len(makers)]
        lift = [make() for _ in range(m * (d + 1))]
        got = faces_of(regular_mixed_subdivision(d, m, lift))
        assert got == reference_faces(d, m, lift), (d, m, lift)


def test_lowering_exceeds_the_epspoly_degree_guard():
    # Nine distinct denominators of degree 8: their product has degree 72,
    # past MAX_EPS_DEGREE, although every height stays within it.
    lift = [(i % 3 + (i - 4) * e) / (1 + (i + 1) * e) ** 8 for i in range(9)]
    with pytest.raises(DegreeOverflow):
        product = EpsPoly((1,))
        for h in lift:
            product = EpsPoly(poly_mul(product.coeffs, h.den.coeffs))
    S = regular_mixed_subdivision(2, 3, lift)
    assert faces_of(S) == [
        ((0,), (0,), (0, 1, 2)),
        ((0,), (0, 1), (1, 2)),
        ((0,), (0, 1, 2), (2,)),
        ((0, 1), (1,), (1, 2)),
        ((0, 1), (1, 2), (2,)),
        ((0, 1, 2), (2,), (2,)),
    ]


def test_cell_missing_a_copy_raises(monkeypatch):
    # Points 0..2 are the vertices of copy 1 alone.
    monkeypatch.setattr(mixedsub, "_lower_cells", lambda *args: [frozenset({0, 1, 2})])
    with pytest.raises(InvariantBreach):
        regular_mixed_subdivision(2, 2, [0, 0, 1, 0, 1, 0])


def test_cells_that_do_not_cover_raise(monkeypatch):
    found = mixedsub._lower_cells
    monkeypatch.setattr(mixedsub, "_lower_cells", lambda *args: found(*args)[1:])
    for d, lift in ((1, [0, 0, 0, 1]), (2, [0, 0, 1, 0, 1, 0])):
        with pytest.raises(InvariantBreach, match="cell volumes sum to"):
            regular_mixed_subdivision(d, 2, lift)


# -- defect cells --------------------------------------------------------------------


def test_defect_cell_constructed():
    # Lower-hull derivation: heights (0,0,1 | 0,1,0) support the square
    # [0,1]^2 = {0,e1} + {0,e2} plus the two pure triangles; the square's
    # only boundary contact off its two full edges is the corner (1,1).
    S = regular_mixed_subdivision(2, 2, [0, 0, 1, 0, 1, 0])
    defects = qcartier_defect_cells(S)
    assert len(defects) == 1
    defect = defects[0]
    assert sorted(tuple(sorted(f)) for f in defect.cell.faces) == [(0, 1), (0, 2)]
    assert defect.boundary == "x+y=m"
    assert defect.vertex == (Fraction(1), Fraction(1))


def test_no_defects_when_parallelograms_share_boundary_edges():
    # Frozen from a seeded scan: three parallelogram cells, none with an
    # isolated boundary contact.
    lift = [Fraction(x) for x in (24, 26, 2, 16, 32, 31, 25, 19, 30)]
    S = regular_mixed_subdivision(2, 3, lift)
    paras = [
        c for c in S.cells if sorted(len(f) for f in c.faces) == [1, 2, 2]
    ]
    assert len(paras) == 3
    assert qcartier_defect_cells(S) == []


def test_defect_contacts_are_unique_over_random_liftings():
    rng = random.Random(58)
    for m in (2, 3, 4):
        for _ in range(25):
            lift = [Fraction(rng.randint(0, 200)) for _ in range(3 * m)]
            S = regular_mixed_subdivision(2, m, lift)
            for defect in qcartier_defect_cells(S):  # raises on a double contact
                verts = cell_vertices(defect.cell)
                assert defect.vertex in verts
                on_boundary = [
                    p
                    for p in verts
                    if p[0] == 0 or p[1] == 0 or p[0] + p[1] == m
                ]
                # The isolated contact is a vertex of the cell on the boundary.
                assert defect.vertex in on_boundary


def is_unit_parallelogram(cell):
    """The criterion by edge directions: exactly two segment faces, the rest
    points, with independent directions (a nonzero 2x2 determinant)."""
    verts = simplex_vertices(2)
    dirs = []
    for face in cell.faces:
        if len(face) == 1:
            continue
        if len(face) != 2:
            return False
        a, b = sorted(face)
        dirs.append([x - y for x, y in zip(verts[b], verts[a])])
    return len(dirs) == 2 and dirs[0][0] * dirs[1][1] != dirs[0][1] * dirs[1][0]


def reference_defect_cells(subdivision):
    """The former vertex scan: unit parallelograms by edge directions, and
    the contacts from the cell polygon's vertices on each boundary line."""
    m = subdivision.m
    boundaries = (
        ("x=0", lambda p: p[0] == 0),
        ("y=0", lambda p: p[1] == 0),
        ("x+y=m", lambda p: p[0] + p[1] == m),
    )
    defects = []
    for index, cell in enumerate(subdivision.cells):
        if not is_unit_parallelogram(cell):
            continue
        verts = cell_vertices(cell)
        isolated = []
        for name, on_line in boundaries:
            contact = [p for p in verts if on_line(p)]
            if len(contact) == 1:
                isolated.append((name, contact[0]))
        if len(isolated) > 1:
            raise InvariantBreach("two isolated contacts")
        if isolated:
            defects.append((index,) + isolated[0])
    return defects


def defect_outcome(scan, subdivision):
    """(index, boundary, vertex) of each defect cell, or the error raised."""
    try:
        found = scan(subdivision)
    except InvariantBreach:
        return InvariantBreach
    return [x if isinstance(x, tuple) else (x.index, x.boundary, x.vertex) for x in found]


def test_defect_faces_match_the_vertex_scan_on_every_small_cell():
    # Every tuple of faces with m <= 4 copies, offered as a one-cell
    # subdivision: parallelograms or not, fine or not.
    faces = [frozenset(c) for k in (1, 2, 3) for c in itertools.combinations(range(3), k)]
    defects = 0
    for m in (1, 2, 3, 4):
        for combo in itertools.product(faces, repeat=m):
            S = MixedSubdivision(2, m, (), (MixedCell(2, combo),))
            got = defect_outcome(qcartier_defect_cells, S)
            assert got == defect_outcome(reference_defect_cells, S), combo
            defects += len(got)
    assert defects > 100


def test_defect_faces_match_the_vertex_scan_on_random_liftings():
    rng = random.Random(62)
    defects = 0
    for index in range(600):
        m = 2 + index % 5
        top = rng.choice((2, 30, 10**4))
        S = regular_mixed_subdivision(2, m, [rng.randint(0, top) for _ in range(3 * m)])
        got = defect_outcome(qcartier_defect_cells, S)
        assert got == defect_outcome(reference_defect_cells, S), S.lifting
        defects += len(got)
    assert defects > 100


def test_defect_requires_dimension_two():
    S = regular_mixed_subdivision(1, 2, [0, 0, 0, 1])
    with pytest.raises(WrongDimension):
        qcartier_defect_cells(S)
