"""Coherent mixed subdivisions of the scaled simplex m*Delta_d.

A mixed subdivision decomposes the Minkowski sum of m copies of the unit
simplex Delta_d into cells F_1 + ... + F_m, one face per copy.  Coherent
ones are produced here from a lifting function via the Cayley trick: lift
the m(d+1) points of the Cayley embedding of the m copies, take the lower
hull, and read each full-dimensional lower face as a tuple of faces.  The
subdivision is fine when every cell's face dimensions add up to d; a
lifting whose subdivision is not fine is flagged non-generic, with the
coarse cells still returned.

Vertices of the fiber polytope of the summing projection Delta_d^m ->
m*Delta_d are volume-weighted barycenter vectors of fine subdivisions; for
d = 1 they sweep out a permutohedron.  The unit-parallelogram cells are the
surfaces on which the weight change can fail to stay Q-Cartier: the failure
happens exactly when such a cell meets the boundary of m*Delta_2 in an
isolated vertex, and the cell geometry allows that for at most one of the
three boundary edges.

Everything is exact: orientation tests, hull computations, areas.  A
lifting in Q(e) is an infinitesimal perturbation (Edelsbrunner-Muecke,
"Simulation of Simplicity", 1990); it is scaled by one common factor that
is positive near e = 0 into integer polynomials in e, and the one integer
hull scan takes each orientation sign power of e by power of e.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence

from .epsfield import EpsRat, clear_denominators
from .errors import (
    BadParameters,
    DimensionMismatch,
    InvariantBreach,
    NotFine,
    SizeGuard,
    WrongDimension,
)

MAX_COPIES = 6

Point = tuple[Fraction, ...]
#: Lifting values may be exact rationals or elements of Q(e); an
#: infinitesimally perturbed lifting refines the unperturbed subdivision.
Height = Fraction | EpsRat


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


@dataclass(frozen=True)
class MixedCell:
    """One cell of a mixed subdivision: a face of Delta_d per copy, each
    face given by its vertex index set."""

    d: int
    faces: tuple[frozenset[int], ...]

    @property
    def is_fine(self) -> bool:
        return sum(len(f) - 1 for f in self.faces) == self.d

    def sort_key(self):
        return tuple(tuple(sorted(f)) for f in self.faces)


@dataclass(frozen=True)
class MixedSubdivision:
    d: int
    m: int
    lifting: tuple[Height, ...]
    cells: tuple[MixedCell, ...]

    @property
    def is_fine(self) -> bool:
        return all(cell.is_fine for cell in self.cells)

    @property
    def non_generic(self) -> bool:
        """Set exactly when the lifting produced a non-fine subdivision."""
        return not self.is_fine


@dataclass(frozen=True)
class FiberVertex:
    """A vertex of the fiber polytope, one R^d block per copy."""

    d: int
    m: int
    blocks: tuple[Point, ...]


@dataclass(frozen=True)
class DualGraphEdge:
    cell_a: int
    cell_b: int
    #: Endpoints (d = 2) or the single point (d = 1) of the shared facet.
    facet: tuple[Point, ...]


@dataclass(frozen=True)
class DualGraph:
    cell_count: int
    edges: tuple[DualGraphEdge, ...]


@dataclass(frozen=True)
class DefectCell:
    """A unit-parallelogram cell meeting the boundary in an isolated vertex."""

    index: int
    cell: MixedCell
    boundary: str
    vertex: Point


def _int_det(matrix: list[list[int]]) -> int:
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


def _normal(rows: list[list[int]]) -> list[int]:
    """Integer null vector of the k x (k+1) rows: the generalized cross
    product, whose j-th entry is the signed minor with column j deleted."""
    normal = []
    sign = 1
    for j in range(len(rows) + 1):
        minor = [row[:j] + row[j + 1 :] for row in rows]
        normal.append(sign * _int_det(minor))
        sign = -sign
    return normal


def _lower_cells(
    points: Sequence[tuple[int, ...]],
    heights: Sequence[Sequence[int]],
    groups: Sequence[int],
) -> list[frozenset[int]]:
    """Full-dimensional faces of the lower hull of the lifted points.

    heights[i] holds the integer coefficients (h_0, h_1, ...) of the height
    of point i as a polynomial in e; a rational lifting has one level.
    The supporting hyperplane of a lifted (D+1)-subset is carried by the
    integer null vector (gamma, delta, c) of its rows (p, 1, h); no point
    hangs below it when every t = gamma.q + delta + c*h_q has the sign of c
    or vanishes, and then the points with t = 0 form a cell.  t is linear in
    the height column and c does not involve it, so the coefficient of e^k
    in t is the same test on the heights h_k; the sign of t is that of its
    first nonzero coefficient, and higher ones are computed only on ties.
    Subsets missing a point group (copy) are affinely degenerate, and
    subsets inside a found cell add nothing: both are skipped.
    """
    n = len(points)
    dim = len(points[0])
    group_count = len(set(groups))
    levels = len(heights[0])
    lifted = [
        [list(p) + [1, heights[i][k]] for i, p in enumerate(points)]
        for k in range(levels)
    ]
    cells: list[frozenset[int]] = []
    for subset in combinations(range(n), dim + 1):
        if len({groups[i] for i in subset}) != group_count:
            continue
        sub = set(subset)
        if any(sub <= cell for cell in cells):
            continue
        normal = _normal([lifted[0][i] for i in subset])
        c = normal[-1]
        if c == 0:
            continue  # affinely degenerate subset
        normals = [normal]
        below = False
        on_face: list[int] = []
        for i, row in enumerate(lifted[0]):
            t = sum(a * x for a, x in zip(normal, row))
            if t == 0:
                for k in range(1, levels):
                    if k == len(normals):
                        normals.append(_normal([lifted[k][j] for j in subset]))
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


def regular_mixed_subdivision(
    d: int, m: int, lifting: Sequence[Height]
) -> MixedSubdivision:
    """Mixed subdivision of m*Delta_d induced by lifting the Cayley points.

    The lifting assigns one height per (copy, vertex), copy-major:
    (copy 1 vertex 0, ..., copy 1 vertex d, copy 2 vertex 0, ...); values
    may be rational or live in Q(e).  Non-generic liftings are legal; the
    result is then flagged via non_generic and fiber_vertex will refuse it.

    Every lifting is lowered to integers before the one hull scan: each
    height num/den has den's lowest coefficient +1 (a rational has den = 1),
    so the product D of the distinct denominators is positive near e = 0,
    and an integer lcm L clears the rational coefficients of each h*D.
    Scaling all heights by one positive D*L keeps the lower hull, and a sign
    in Q(e) is taken power of e by power of e on the integer coefficients.
    """
    if d not in (1, 2):
        raise BadParameters("mixed subdivisions implemented for d in {1, 2}")
    if m < 1:
        raise BadParameters("need m >= 1")
    if m > MAX_COPIES:
        raise SizeGuard("mixed subdivisions capped at m <= %d" % MAX_COPIES)
    heights = tuple(
        x if isinstance(x, EpsRat) else Fraction(x) for x in lifting
    )
    if len(heights) != m * (d + 1):
        raise DimensionMismatch(
            "lifting needs m*(d+1) = %d values, got %d" % (m * (d + 1), len(heights))
        )
    config = cayley_config(d, m)
    copy_of = [tag[0] for tag in config.tags]
    int_points = [tuple(int(x) for x in p) for p in config.points]
    raw_cells = _lower_cells(int_points, clear_denominators(heights), copy_of)
    cells = []
    for raw in raw_cells:
        faces = [set() for _ in range(m)]
        for idx in raw:
            copy, v = config.tags[idx]
            faces[copy - 1].add(v)
        if not all(faces):
            raise InvariantBreach("a full-dimensional lower cell misses a copy")
        cells.append(MixedCell(d, tuple(frozenset(f) for f in faces)))
    cells.sort(key=MixedCell.sort_key)
    subdivision = MixedSubdivision(d, m, heights, tuple(cells))
    total = sum(cell_volume(c) for c in subdivision.cells)
    expected = Fraction(m**d, 1 if d == 1 else 2)
    if total != expected:
        raise InvariantBreach(
            "cell volumes sum to %s, expected %s" % (total, expected)
        )
    return subdivision


# -- exact cell geometry -----------------------------------------------------


def _convex_hull_2d(points: Sequence[Point]) -> list[Point]:
    """Counterclockwise hull by monotone chain; collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return list(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def cell_vertices(cell: MixedCell) -> tuple[Point, ...]:
    """Vertices of the Minkowski sum polytope of the cell, in canonical
    order (sorted for segments, counterclockwise hull for polygons)."""
    verts = simplex_vertices(cell.d)
    sums = set()
    for pick in product(*cell.faces):
        total = tuple(
            sum(verts[v][i] for v in pick) for i in range(cell.d)
        )
        sums.add(total)
    if cell.d == 1:
        lo = min(sums)
        hi = max(sums)
        return (lo,) if lo == hi else (lo, hi)
    return tuple(_convex_hull_2d(list(sums)))


def cell_volume(cell: MixedCell) -> Fraction:
    """Length (d = 1) or area (d = 2) of the cell polytope."""
    vs = cell_vertices(cell)
    if cell.d == 1:
        return vs[-1][0] - vs[0][0] if len(vs) == 2 else Fraction(0)
    if len(vs) < 3:
        return Fraction(0)
    acc = Fraction(0)
    for i in range(len(vs)):
        x0, y0 = vs[i]
        x1, y1 = vs[(i + 1) % len(vs)]
        acc += x0 * y1 - x1 * y0
    return abs(acc) / 2


def _barycenter(face: frozenset[int], d: int) -> Point:
    verts = simplex_vertices(d)
    k = len(face)
    return tuple(
        sum(verts[v][i] for v in face) / k for i in range(d)
    )


def fiber_vertex(subdivision: MixedSubdivision) -> FiberVertex:
    """Volume-weighted barycenter vector of a fine mixed subdivision.

    Block i is the sum over cells of vol(cell) * barycenter(F_i); distinct
    fine subdivisions give distinct vertices of the fiber polytope of the
    summing projection.
    """
    if not subdivision.is_fine:
        raise NotFine("fiber vertices are attached to fine subdivisions only")
    d, m = subdivision.d, subdivision.m
    blocks = [[Fraction(0)] * d for _ in range(m)]
    for cell in subdivision.cells:
        vol = cell_volume(cell)
        for i, face in enumerate(cell.faces):
            bc = _barycenter(face, d)
            for j in range(d):
                blocks[i][j] += vol * bc[j]
    return FiberVertex(d, m, tuple(tuple(b) for b in blocks))


def _affine_dim(points: Sequence[Point]) -> int:
    if not points:
        return -1
    base = points[0]
    diffs = [tuple(x - y for x, y in zip(p, base)) for p in points[1:]]
    from .linalg import bareiss_rank

    return bareiss_rank(diffs) if diffs else 0


def dual_graph(subdivision: MixedSubdivision) -> DualGraph:
    """Cells as nodes, shared facets as labeled edges.

    Cells of a coherent subdivision meet face to face, so the shared facet
    of two cells is spanned by their common polytope vertices; an edge is
    recorded when those span dimension d-1.
    """
    cells = subdivision.cells
    vert_sets = [frozenset(cell_vertices(c)) for c in cells]
    edges = []
    for a, b in combinations(range(len(cells)), 2):
        common = sorted(vert_sets[a] & vert_sets[b])
        if not common:
            continue
        if _affine_dim(common) == subdivision.d - 1:
            if subdivision.d == 1:
                facet = (common[0],)
            else:
                facet = (common[0], common[-1])
            edges.append(DualGraphEdge(a, b, facet))
    return DualGraph(len(cells), tuple(edges))


def _parallelogram_faces(cell: MixedCell) -> Optional[tuple[Point, Point]]:
    """The two independent edge directions if the cell is a unit
    parallelogram (exactly two segment faces, the rest points)."""
    verts = simplex_vertices(cell.d)
    dirs = []
    for face in cell.faces:
        if len(face) == 1:
            continue
        if len(face) != 2:
            return None
        a, b = sorted(face)
        dirs.append(tuple(x - y for x, y in zip(verts[b], verts[a])))
    if len(dirs) != 2:
        return None
    d1, d2 = dirs
    if d1[0] * d2[1] - d1[1] * d2[0] == 0:
        return None
    return d1, d2


def qcartier_defect_cells(subdivision: MixedSubdivision) -> list[DefectCell]:
    """Unit-parallelogram cells meeting the boundary of m*Delta_2 in an
    isolated vertex.

    For each parallelogram cell the contact with each of the three boundary
    edges of m*Delta_2 is a face of the cell: empty, a vertex, or an edge.
    The cell is reported when exactly one contact is an isolated vertex (the
    other two may be edges or empty); its geometry forbids two isolated
    contacts, and such a state raises InvariantBreach rather than passing
    silently.
    """
    if subdivision.d != 2:
        raise WrongDimension("defect detection is defined for d = 2 only")
    m = subdivision.m
    boundaries = (
        ("x=0", lambda p: p[0] == 0),
        ("y=0", lambda p: p[1] == 0),
        ("x+y=m", lambda p: p[0] + p[1] == m),
    )
    defects = []
    for index, cell in enumerate(subdivision.cells):
        if _parallelogram_faces(cell) is None:
            continue
        verts = cell_vertices(cell)
        isolated = []
        for name, on_line in boundaries:
            contact = [p for p in verts if on_line(p)]
            if len(contact) == 1:
                isolated.append((name, contact[0]))
        if len(isolated) > 1:
            raise InvariantBreach(
                "parallelogram cell %d has %d isolated boundary contacts"
                % (index, len(isolated))
            )
        if len(isolated) == 1:
            name, point = isolated[0]
            defects.append(DefectCell(index, cell, name, point))
    return defects
