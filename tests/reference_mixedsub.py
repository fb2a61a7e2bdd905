"""The cell geometry that `wallcross.mixedsub` ran before it read each
cell's vertices off support directions, kept word for word as the test
reference: lattice-point Minkowski sums, a monotone-chain hull, a Fraction
shoelace, the Fraction fiber-vertex sum and the pairwise dual-graph scan."""

from fractions import Fraction
from itertools import combinations
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
