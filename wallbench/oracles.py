"""Independent answers for the benchmark's checks.

Nothing here calls wallcross.  Weight entries are linear elements a + c*e of
Q(e), held as pairs of Fractions; every input the benchmark generates has
this form, including the toric weights t and their perturbation nt.  The
order of Q(e) on such pairs is lexicographic: the constant decides, and the
e-coefficient breaks ties.  Subset sums are enumerated by brute force over
bit masks, the way acceptance criterion 8 does it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

Lin = tuple[Fraction, Fraction]


def lin_sign(a: Fraction, c: Fraction) -> int:
    """Sign of a + c*e for every small enough positive e."""
    if a:
        return 1 if a > 0 else -1
    return (c > 0) - (c < 0)


def subset_sums(entries: list[Lin]) -> list[Lin]:
    """Sum of the entries selected by every bit mask over the coordinates."""
    sums: list[Lin] = [(Fraction(0), Fraction(0))]
    for a, c in entries:
        sums += [(sa + a, sc + c) for sa, sc in sums]
    return sums


def _members(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(n) if mask >> i & 1)


def walls_through(entries: list[Lin]) -> list[tuple[int, tuple[int, ...]]]:
    """(k, I) for every integer level k >= 1 with sum_I = k, 2 <= |I| <= n-1,
    in the canonical order: k ascending, then I as a sorted tuple."""
    n = len(entries)
    found = []
    for mask, (a, c) in enumerate(subset_sums(entries)):
        size = bin(mask).count("1")
        if 2 <= size <= n - 1 and c == 0 and a.denominator == 1 and a >= 1:
            found.append((int(a), _members(mask, n)))
    found.sort()
    return found


def crossed_walls(b: list[Lin], b2: list[Lin]) -> set[tuple[int, tuple[int, ...]]]:
    """(k, I) for every wall sum_I = k, 1 <= k <= |I|, 2 <= |I| <= n-1, whose
    value has strictly opposite signs at the two endpoints."""
    n = len(b)
    found = set()
    for mask, ((a1, c1), (a2, c2)) in enumerate(zip(subset_sums(b), subset_sums(b2))):
        size = bin(mask).count("1")
        if not 2 <= size <= n - 1:
            continue
        for k in range(1, size + 1):
            if lin_sign(a1 - k, c1) * lin_sign(a2 - k, c2) == -1:
                found.add((k, _members(mask, n)))
    return found


def chamber_predicates(b: list[Lin], b2: list[Lin], d: int) -> dict[str, bool]:
    """same_chamber, in_chamber_closure both ways and leq, from the signs of
    both points against every chamber wall 2 <= |I| <= n-2, 1 <= k <= d."""
    n = len(b)
    pairs = []
    for mask, ((a1, c1), (a2, c2)) in enumerate(zip(subset_sums(b), subset_sums(b2))):
        if not 2 <= bin(mask).count("1") <= n - 2:
            continue
        for k in range(1, d + 1):
            pairs.append((lin_sign(a1 - k, c1), lin_sign(a2 - k, c2)))
    return {
        "same_chamber": all(x == y and x != 0 for x, y in pairs),
        "first_in_closure_of_second": all(y != 0 and x in (0, y) for x, y in pairs),
        "second_in_closure_of_first": all(x != 0 and y in (0, x) for x, y in pairs),
        "leq": all(lin_sign(a1 - a2, c1 - c2) <= 0 for (a1, c1), (a2, c2) in zip(b, b2)),
        "geq": all(lin_sign(a2 - a1, c2 - c1) <= 0 for (a1, c1), (a2, c2) in zip(b, b2)),
    }


# -- mixed subdivisions -------------------------------------------------------


def _simplex_vertex(v: int, d: int) -> tuple[int, ...]:
    return tuple(1 if v == i + 1 else 0 for i in range(d))


def minkowski_points(faces, d: int) -> set[tuple[int, ...]]:
    """Every sum of one vertex per face: the point set of the cell."""
    sums = set()
    for pick in product(*faces):
        sums.add(tuple(sum(_simplex_vertex(v, d)[i] for v in pick) for i in range(d)))
    return sums


def hull_2d(points) -> list[tuple[int, int]]:
    """Counterclockwise convex hull by gift wrapping, collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    hull = []
    current = pts[0]
    while True:
        hull.append(current)
        candidate = pts[0] if pts[0] != current else pts[1]
        for p in pts:
            if p == current:
                continue
            turn = cross(current, candidate, p)
            farther = (p[0] - current[0]) ** 2 + (p[1] - current[1]) ** 2 > (
                candidate[0] - current[0]
            ) ** 2 + (candidate[1] - current[1]) ** 2
            if turn < 0 or (turn == 0 and farther):
                candidate = p
        current = candidate
        if current == hull[0]:
            return hull


def cell_volume(faces, d: int) -> Fraction:
    """Length (d = 1) or area (d = 2) of the Minkowski sum of the faces."""
    if d == 1:
        return Fraction(sum(len(f) - 1 for f in faces))
    hull = hull_2d(minkowski_points(faces, d))
    twice = sum(
        hull[i][0] * hull[(i + 1) % len(hull)][1] - hull[(i + 1) % len(hull)][0] * hull[i][1]
        for i in range(len(hull))
    ) if len(hull) >= 3 else 0
    return Fraction(abs(twice), 2)


def cell_facets(faces, d: int) -> list[tuple]:
    """Facets of a cell as sorted point tuples: endpoints for d = 1, edges for d = 2."""
    if d == 1:
        pts = sorted(minkowski_points(faces, d))
        return [(pts[0],), (pts[-1],)]
    hull = hull_2d(minkowski_points(faces, d))
    return [tuple(sorted((hull[i], hull[(i + 1) % len(hull)]))) for i in range(len(hull))]


def shared_facet_pairs(cells, d: int) -> tuple[set[tuple[int, int]], int]:
    """Cell index pairs sharing a facet, and the most cells found on one facet."""
    owners: dict[tuple, list[int]] = {}
    for index, faces in enumerate(cells):
        for facet in cell_facets(faces, d):
            owners.setdefault(facet, []).append(index)
    pairs = {tuple(idx) for idx in owners.values() if len(idx) == 2}
    return pairs, max((len(idx) for idx in owners.values()), default=0)


def defect_cells(cells, m: int) -> list[tuple[int, str, tuple[int, int]]]:
    """Unit parallelograms of m*Delta_2 with exactly one isolated boundary contact."""
    found = []
    for index, faces in enumerate(cells):
        edges = [tuple(sorted(f)) for f in faces if len(f) == 2]
        if len(edges) != 2 or any(len(f) not in (1, 2) for f in faces):
            continue
        (a1, b1), (a2, b2) = edges
        u = [x - y for x, y in zip(_simplex_vertex(b1, 2), _simplex_vertex(a1, 2))]
        v = [x - y for x, y in zip(_simplex_vertex(b2, 2), _simplex_vertex(a2, 2))]
        if u[0] * v[1] - u[1] * v[0] == 0:
            continue
        verts = hull_2d(minkowski_points(faces, 2))
        isolated = []
        for name, on_line in (
            ("x=0", lambda p: p[0] == 0),
            ("y=0", lambda p: p[1] == 0),
            ("x+y=m", lambda p: p[0] + p[1] == m),
        ):
            contact = [p for p in verts if on_line(p)]
            if len(contact) == 1:
                isolated.append((index, name, contact[0]))
        if len(isolated) == 1:
            found.append(isolated[0])
    return found
