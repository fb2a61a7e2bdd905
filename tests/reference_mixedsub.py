"""Code that `wallcross.mixedsub` ran before, kept word for word as the
test reference.

- The cell geometry from before each cell's vertices were read off support
  directions: lattice-point Minkowski sums, a monotone-chain hull, a
  Fraction shoelace, the Fraction fiber-vertex sum and the pairwise
  dual-graph scan.
- `_lower_cells` from before the heights were packed into ints: potentials
  and slacks as coefficient tuples, compared in tuple order.
"""

from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from wallcross.errors import InvariantBreach, NotFine
from wallcross.mixedsub import (
    DualGraph,
    DualGraphEdge,
    FiberVertex,
    MixedCell,
    MixedSubdivision,
    Point,
)



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
    order (sorted for segments, counterclockwise hull for polygons).

    The sum is built one face at a time on integer lattice points, so it
    never holds more than the C(m+d, d) points of m*Delta_d.
    """
    d = cell.d
    units = [tuple([int(v == k + 1) for k in range(d)]) for v in range(d + 1)]
    sums = {(0,) * d}
    for face in cell.faces:
        sums = {tuple([a + b for a, b in zip(p, units[v])]) for p in sums for v in face}
    if d == 1:
        lo, hi = min(sums), max(sums)
        hull = [lo] if lo == hi else [lo, hi]
    else:
        hull = _convex_hull_2d(list(sums))
    return tuple([tuple([Fraction(x) for x in p]) for p in hull])


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


def fiber_vertex(subdivision: MixedSubdivision) -> FiberVertex:
    """Volume-weighted barycenter vector of a fine mixed subdivision.

    Block i is the sum over cells of vol(cell) * barycenter(F_i); distinct
    fine subdivisions give distinct vertices of the fiber polytope of the
    summing projection.  Vertex v > 0 of Delta_d is the unit vector e_v, so
    coordinate j of the barycenter of F is 1/|F| when j + 1 is in F and 0
    otherwise.
    """
    if not subdivision.is_fine:
        raise NotFine("fiber vertices are attached to fine subdivisions only")
    d, m = subdivision.d, subdivision.m
    blocks = [[Fraction(0)] * d for _ in range(m)]
    for cell in subdivision.cells:
        vol = cell_volume(cell)
        for block, face in zip(blocks, cell.faces):
            share = vol / len(face)
            for v in face:
                if v:
                    block[v - 1] += share
    return FiberVertex(d, m, tuple([tuple(b) for b in blocks]))


def dual_graph(subdivision: MixedSubdivision) -> DualGraph:
    """Cells as nodes, shared facets as labeled edges.

    Cells of a coherent subdivision meet face to face, so two cells meet in
    a common face whose vertices are their common polytope vertices.  For
    d <= 2 that face is a facet exactly when they share d vertices; sharing
    more would make the cells overlap and raises InvariantBreach.
    """
    d = subdivision.d
    cells = subdivision.cells
    vert_sets = [frozenset(cell_vertices(c)) for c in cells]
    edges = []
    for a, b in combinations(range(len(cells)), 2):
        common = vert_sets[a] & vert_sets[b]
        if len(common) > d:
            raise InvariantBreach(
                "cells %d and %d share %d vertices" % (a, b, len(common))
            )
        if len(common) == d:
            edges.append(DualGraphEdge(a, b, tuple(sorted(common))))
    return DualGraph(len(cells), tuple(edges))


def _lower_cells(heights: Sequence[Sequence[int]], d: int) -> list[frozenset[int]]:
    """Full-dimensional faces of the lower hull of the lifted Cayley points,
    as sets of point indices (copy-major, d + 1 points per copy).

    heights[k] holds the integer coefficients of the height of point k as a
    polynomial in e, lowest degree first, all of one length, so tuple order
    is the order of Q(e) and only additions and comparisons are needed.

    An affine function on the Cayley points takes the value y_j + z_i at
    vertex j of copy i, with y_0 = 0.  It supports a lower face when
    y_j + z_i <= h_ij everywhere, with equality exactly on the face, so
    z_i = min_j (h_ij - y_j) and copy i meets the face in its argmin set.
    The face is full-dimensional exactly when its tight bipartite graph on
    copies and vertices is connected, i.e. the argmin sets connect the
    vertices 0..d.  Then y is fixed by a spanning tree on the vertices whose
    edges a-b are hops h_ib - h_ia through one copy; y is a vertex of the
    arrangement of the m tropical hyperplanes (Develin-Sturmfels, "Tropical
    convexity", 2004).  For d = 1 the tree is one hop, y_1 = h_i1 - h_i0;
    for d = 2 it is a path centred at vertex 0, 1 or 2 through copies i and
    k, which gives at most 3m^2 candidates.  Each candidate whose argmin
    sets connect the vertices is a cell, and every cell arises this way.
    A non-generic lifting yields its coarse cells directly.
    """
    m = len(heights) // (d + 1)
    h = [[tuple(heights[i * (d + 1) + j]) for j in range(d + 1)] for i in range(m)]

    def minus(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple([a - b for a, b in zip(u, v)])

    def plus(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple([a + b for a, b in zip(u, v)])

    def hop(i: int, a: int, b: int) -> tuple[int, ...]:
        return minus(h[i][b], h[i][a])

    zero = (0,) * len(h[0][0])
    if d == 1:
        candidates = {(zero, hop(i, 0, 1)) for i in range(m)}
    else:
        candidates = set()
        for i, k in product(range(m), repeat=2):
            y1, y2 = hop(i, 0, 1), hop(k, 0, 2)
            candidates.add((zero, y1, y2))
            candidates.add((zero, y1, plus(y1, hop(k, 1, 2))))
            candidates.add((zero, plus(y2, hop(i, 2, 1)), y2))
    cells = set()
    for y in candidates:
        component = list(range(d + 1))
        cell = []
        for i in range(m):
            slack = [minus(h[i][j], y[j]) for j in range(d + 1)]
            z = min(slack)
            tight = [j for j in range(d + 1) if slack[j] <= z]
            merged = {component[j] for j in tight}
            component = [min(merged) if c in merged else c for c in component]
            cell += [i * (d + 1) + j for j in tight]
        if len(set(component)) == 1:
            cells.add(frozenset(cell))
    return list(cells)
