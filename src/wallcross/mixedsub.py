"""Coherent mixed subdivisions of the scaled simplex m*Delta_d.

A mixed subdivision decomposes the Minkowski sum of m copies of the unit
simplex Delta_d into cells F_1 + ... + F_m, one face per copy.  Coherent
ones are produced here from a lifting function via the Cayley trick: lift
the m(d+1) points of the Cayley embedding of the m copies, take the lower
hull, and read each full-dimensional lower face as a tuple of faces.  The
subdivision is fine when every cell's face dimensions add up to d; a
non-generic lifting gives a subdivision that is not fine, whose coarse
cells are still returned.

The lower faces are found without a hull computation.  An affine function
on the Cayley points is y_j + z_i at vertex j of copy i, so a lower face is
a potential y in R^d with z_i = min_j (h_ij - y_j), and it is a cell when
the argmin sets of the copies connect all d + 1 vertices.  Such potentials
are the vertices of the arrangement of m tropical hyperplanes
(Develin-Sturmfels, "Tropical convexity", 2004); each is a sum of height
differences along a spanning tree, so for d <= 2 at most 3m^2 candidates
are checked, with additions and comparisons only.

Vertices of the fiber polytope of the summing projection Delta_d^m ->
m*Delta_d are volume-weighted barycenter vectors of fine subdivisions; for
d = 1 they sweep out a permutohedron.  The unit-parallelogram cells are the
surfaces on which the weight change can fail to stay Q-Cartier: the failure
happens exactly when such a cell meets the boundary of m*Delta_2 in an
isolated vertex, and the cell geometry allows that for at most one of the
three boundary edges.

A cell's polytope needs no hull either: its edges are parallel to edges of
Delta_d, so its vertices are its support vertices in a few fixed directions,
read off the faces' vertex sets by one integer routine (Gritzmann-Sturmfels,
"Minkowski addition of polytopes", 1993).

Everything is exact: potentials, cell vertices and twice the cell volumes
are integers, and Fractions appear only in the outputs.  A lifting in Q(e)
is an infinitesimal perturbation (Edelsbrunner-Muecke, "Simulation of
Simplicity", 1990); it is scaled by one common factor that is positive near
e = 0 into integer polynomials in e, each packed into one int that
compares in the order of Q(e) (see `epsfield`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .epsfield import EpsRat, _pack, clear_denominators, exact_rat
from .errors import (
    BadParameters,
    DimensionMismatch,
    InvariantBreach,
    NotFine,
    SizeGuard,
    WrongDimension,
)

MAX_COPIES = 6

# Per-call tuples are built from lists, never from a generator or map():
# tuple() over an iterator of unknown length allocates ten slots and shrinks
# them, so CPython's per-size tuple free lists only fill up.  After 12,000
# subdivisions they held about 1.4 MB more than with list-built tuples.

Point = tuple[Fraction, ...]
#: Lifting values may be exact rationals or elements of Q(e); an
#: infinitesimally perturbed lifting refines the unperturbed subdivision.
Height = Fraction | EpsRat


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
        return tuple([tuple(sorted(f)) for f in self.faces])


@dataclass(frozen=True)
class MixedSubdivision:
    d: int
    m: int
    lifting: tuple[Height, ...]
    cells: tuple[MixedCell, ...]

    @property
    def is_fine(self) -> bool:
        return all(cell.is_fine for cell in self.cells)


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


def _lower_cells(heights: Sequence[Sequence[int]], d: int) -> list[frozenset[int]]:
    """Full-dimensional faces of the lower hull of the lifted Cayley points,
    as sets of point indices (copy-major, d + 1 points per copy).

    heights[k] holds the integer coefficients of the height of point k as a
    polynomial in e, lowest degree first, all of one length.

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

    Each height is packed once into an int (see `epsfield`), and int order
    is the order of Q(e) while each compared difference has digits below
    2^(bits-1): coordinate j of two candidates, told apart by the candidate
    set, and two slacks h_ij - y_j of one copy, compared by min and the
    tight test.  One candidate coordinate sums at most 4 signed heights and
    the others 2, so each difference sums at most 8, with digits within
    8*top for top the largest |coefficient|: (16*top).bit_length() bits do.
    """
    bits = (16 * max([abs(c) for v in heights for c in v])).bit_length()
    h = [_pack(v, bits) for v in heights]
    rows = [h[i : i + d + 1] for i in range(0, len(h), d + 1)]
    if d == 1:
        candidates = {(0, b - a) for a, b in rows}
    else:
        candidates = set()
        for (a0, a1, a2), (b0, b1, b2) in product(rows, repeat=2):
            y1, y2 = a1 - a0, b2 - b0
            candidates.add((0, y1, y2))
            candidates.add((0, y1, y1 + b2 - b1))
            candidates.add((0, y2 + a1 - a2, y2))
    cells = set()
    for y in candidates:
        component = list(range(d + 1))
        cell = []
        for i, row in enumerate(rows):
            slack = [a - b for a, b in zip(row, y)]
            z = min(slack)
            tight = [j for j in range(d + 1) if slack[j] == z]
            merged = {component[j] for j in tight}
            component = [min(merged) if c in merged else c for c in component]
            cell += [i * (d + 1) + j for j in tight]
        if len(set(component)) == 1:
            cells.add(frozenset(cell))
    return list(cells)


def check_size(m: int) -> None:
    """Refuse subdivisions of more than MAX_COPIES copies."""
    if m > MAX_COPIES:
        raise SizeGuard("mixed subdivisions capped at m <= %d" % MAX_COPIES)


def regular_mixed_subdivision(
    d: int, m: int, lifting: Sequence[Height]
) -> MixedSubdivision:
    """Mixed subdivision of m*Delta_d induced by lifting the Cayley points.

    The lifting assigns one height per (copy, vertex), copy-major:
    (copy 1 vertex 0, ..., copy 1 vertex d, copy 2 vertex 0, ...); values
    may be rational or live in Q(e).  Non-generic liftings are legal; the
    result then has is_fine False and fiber_vertex will refuse it.

    Every lifting is lowered to integers before the one lower-hull routine:
    each height num/den has den's lowest coefficient +1 (a rational has
    den = 1), so the lcm D of the denominators is positive near e = 0, and
    an integer lcm L clears the rational coefficients of each h*D.  Scaling
    all heights by one positive D*L keeps the lower hull, and `_lower_cells`
    packs each into an int that compares in the order of Q(e).  A height
    that is not an EpsRat must be an int or a Fraction.
    """
    if d not in (1, 2):
        raise BadParameters("mixed subdivisions implemented for d in {1, 2}")
    if m < 1:
        raise BadParameters("need m >= 1")
    check_size(m)
    heights = [x if isinstance(x, EpsRat) else exact_rat(x, "lifting height %d", i)
               for i, x in enumerate(lifting, 1)]
    if len(heights) != m * (d + 1):
        raise DimensionMismatch(
            "lifting needs m*(d+1) = %d values, got %d" % (m * (d + 1), len(heights))
        )
    cells = []
    for raw in _lower_cells(clear_denominators(heights), d):
        faces = [set() for _ in range(m)]
        for idx in raw:
            copy, v = divmod(idx, d + 1)
            faces[copy].add(v)
        if not all(faces):
            raise InvariantBreach("a full-dimensional lower cell misses a copy")
        cells.append(MixedCell(d, tuple([frozenset(f) for f in faces])))
    cells.sort(key=MixedCell.sort_key)
    subdivision = MixedSubdivision(d, m, tuple(heights), tuple(cells))
    total = sum([_twice_volume(_polygon(c)) for c in subdivision.cells])
    expected = 2 * m if d == 1 else m * m
    if total != expected:
        raise InvariantBreach(
            "cell volumes sum to %s, expected %s"
            % (Fraction(total, 2), Fraction(expected, 2))
        )
    return subdivision


# -- exact cell geometry -----------------------------------------------------

# Every edge of a cell is parallel to an edge of Delta_d, so its outer normal
# is one of +-(1, 0), +-(0, 1), +-(1, 1) for d = 2 (+-1 for d = 1).  One
# direction inside each open sector between those normals, counterclockwise,
# meets every vertex of the cell in turn, and no direction ties two vertices
# of Delta_d.
_DIRECTIONS = {
    1: ((-1,), (1,)),
    2: ((2, 1), (1, 2), (-1, 1), (-2, -1), (-1, -2), (1, -1)),
}


def _polygon(cell: MixedCell) -> list[tuple[int, ...]]:
    """Integer vertices of the cell polytope F_1 + ... + F_m in canonical
    order: counterclockwise from the smallest for a polygon, sorted when
    there are at most two.

    The vertex of a Minkowski sum that is extreme in direction u is the sum
    of each summand's extreme vertex (Gritzmann-Sturmfels, "Minkowski
    addition of polytopes", 1993).  Vertex v > 0 of Delta_d is e_v, so the
    cell's vertex in each fixed direction is (faces picking vertex 1, faces
    picking vertex 2).
    """
    d = cell.d
    if d not in _DIRECTIONS or not cell.faces:
        raise BadParameters("a cell needs d in {1, 2} and at least one face")
    for i, face in enumerate(cell.faces, 1):
        if not face or not face.issubset(range(d + 1)):
            raise BadParameters("face %d must be a nonempty set of vertices in 0..%d" % (i, d))
    ring = []
    for u in _DIRECTIONS[d]:
        # Vertex 0 is the origin and v > 0 is e_v, so v scores ((0,) + u)[v].
        score = ((0,) + u).__getitem__
        picks = [max(face, key=score) for face in cell.faces]
        ring.append((picks.count(1), picks.count(2))[:d])
    ring = [p for p, q in zip(ring, ring[1:] + ring[:1]) if p != q] or ring[:1]
    if len(ring) <= 2:
        return sorted(ring)
    k = ring.index(min(ring))
    return ring[k:] + ring[:k]


def _twice_volume(ring: list[tuple[int, ...]]) -> int:
    """Twice the length (d = 1) or area (d = 2) of a polygon from _polygon."""
    if len(ring[0]) == 1:
        return 2 * (ring[-1][0] - ring[0][0])
    return sum(
        [x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(ring, ring[1:] + ring[:1])]
    )


def cell_vertices(cell: MixedCell) -> tuple[Point, ...]:
    """Vertices of the Minkowski sum polytope of the cell, in canonical
    order: counterclockwise from the smallest for a polygon, sorted when
    there are at most two.  A face that is empty or names a vertex outside
    0..d raises BadParameters."""
    return tuple([tuple([Fraction(x) for x in p]) for p in _polygon(cell)])


def cell_volume(cell: MixedCell) -> Fraction:
    """Length (d = 1) or area (d = 2) of the cell polytope."""
    return Fraction(_twice_volume(_polygon(cell)), 2)


def fiber_vertex(subdivision: MixedSubdivision) -> FiberVertex:
    """Volume-weighted barycenter vector of a fine mixed subdivision.

    Block i is the sum over cells of vol(cell) * barycenter(F_i); distinct
    fine subdivisions give distinct vertices of the fiber polytope of the
    summing projection.  Vertex v > 0 of Delta_d is the unit vector e_v, so
    coordinate j of the barycenter of F is 1/|F| when j + 1 is in F and 0
    otherwise.  With |F| <= 3, each share vol/|F| is 6 * twice-volume / |F|
    twelfths, an integer count of them.
    """
    if not subdivision.is_fine:
        raise NotFine("fiber vertices are attached to fine subdivisions only")
    d, m = subdivision.d, subdivision.m
    blocks = [[0] * d for _ in range(m)]
    for cell in subdivision.cells:
        twice = _twice_volume(_polygon(cell))
        for block, face in zip(blocks, cell.faces):
            share = 6 * twice // len(face)
            for v in face:
                if v:
                    block[v - 1] += share
    return FiberVertex(d, m, tuple([tuple([Fraction(x, 12) for x in b]) for b in blocks]))


def dual_graph(subdivision: MixedSubdivision) -> DualGraph:
    """Cells as nodes, shared facets as labeled edges.

    Each cell's facets (its endpoints for d = 1, its polygon edges for
    d = 2) are keyed by their sorted points, and a facet owned by two cells
    is an edge between them.  Cells of a coherent subdivision meet face to
    face, so a facet with three owners, or two cells sharing two facets,
    would make cells overlap and raises InvariantBreach.  Edges come sorted
    by their cell pair.
    """
    owners: dict[tuple[tuple[int, ...], ...], list[int]] = {}
    for index, cell in enumerate(subdivision.cells):
        ring = _polygon(cell)
        if len(ring) <= subdivision.d:
            raise InvariantBreach("cell %d is not full-dimensional" % index)
        if subdivision.d == 1:
            facets = [(ring[0],), (ring[-1],)]
        else:
            facets = [tuple(sorted(pq)) for pq in zip(ring, ring[1:] + ring[:1])]
        for facet in facets:
            owners.setdefault(facet, []).append(index)
    shared = {}
    for facet, cells in owners.items():
        if len(cells) > 2:
            raise InvariantBreach("%d cells share the facet %s" % (len(cells), facet))
        if len(cells) == 2:
            pair = tuple(cells)
            if pair in shared:
                raise InvariantBreach("cells %d and %d share two facets" % pair)
            shared[pair] = facet
    edges = [
        DualGraphEdge(a, b, tuple([tuple([Fraction(x) for x in p]) for p in facet]))
        for (a, b), facet in sorted(shared.items())
    ]
    return DualGraph(len(subdivision.cells), tuple(edges))


def qcartier_defect_cells(subdivision: MixedSubdivision) -> list[DefectCell]:
    """Unit-parallelogram cells meeting the boundary of m*Delta_2 in an
    isolated vertex.

    A cell is a unit parallelogram exactly when every face has at most two
    vertices and two faces are distinct edges: any two distinct edges of
    Delta_2 are independent.  For each parallelogram cell the contact with
    each of the three boundary edges of m*Delta_2 is a face of the cell:
    empty, a vertex, or an edge.  The cell is reported when exactly one
    contact is an isolated vertex (the other two may be edges or empty); its
    geometry forbids two isolated contacts, and such a state raises
    InvariantBreach rather than passing silently.

    The contacts are read off the faces.  Vertex v > 0 of Delta_2 is e_v,
    so each boundary line of m*Delta_2 holds one edge of Delta_2 in every
    copy: x=0 the edge {0, 2}, y=0 {0, 1} and x+y=m {1, 2}.  A cell meets
    the line in the Minkowski sum of its faces' vertices on that edge, or
    not at all when some face misses it.  So the contact is an isolated
    vertex exactly when every face meets the edge in one vertex, and that
    vertex is (faces at vertex 1, faces at vertex 2).  A face with all three
    vertices meets every edge in two, so the parallelogram test need not
    look at it.
    """
    if subdivision.d != 2:
        raise WrongDimension("defect detection is defined for d = 2 only")
    defects = []
    for index, cell in enumerate(subdivision.cells):
        edges = [face for face in cell.faces if len(face) == 2]
        if len(edges) != 2 or edges[0] == edges[1]:
            continue
        isolated = []
        for name, edge in (("x=0", {0, 2}), ("y=0", {0, 1}), ("x+y=m", {1, 2})):
            contact = [face & edge for face in cell.faces]
            if all(len(hit) == 1 for hit in contact):
                hits = [v for hit in contact for v in hit]
                isolated.append((name, (Fraction(hits.count(1)), Fraction(hits.count(2)))))
        if len(isolated) > 1:
            raise InvariantBreach(
                "parallelogram cell %d has %d isolated boundary contacts"
                % (index, len(isolated))
            )
        if len(isolated) == 1:
            name, point = isolated[0]
            defects.append(DefectCell(index, cell, name, point))
    return defects
