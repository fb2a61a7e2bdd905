"""Test-side linear algebra that shares no code with the integer kernels in
`wallcross.linalg`: a fraction-free (Bareiss) matrix rank, the reduced row
echelon form over Q, a canonical basis of a row space, the primitive key
and the restriction step written with next() over a generator, the
references for `linalg`'s loops, the flat lattice by the level walk on
integer kernel bases that `wallcross.arrangement` ran before it walked the
restricted arrangement, and the flat guard's estimate of that walk's work."""

from fractions import Fraction
from math import comb, gcd
from typing import Sequence

Row = Sequence[Fraction]


def _integer_rows(rows):
    """Clear denominators row by row: rank is invariant under row scaling."""
    out = []
    for row in rows:
        if all(isinstance(x, int) for x in row):
            out.append(list(row))
            continue
        lcm = 1
        for x in row:
            d = Fraction(x).denominator
            lcm = lcm * d // gcd(lcm, d)
        out.append([int(x * lcm) for x in row])
    return out


def bareiss_rank(rows):
    """Matrix rank by fraction-free (Bareiss) elimination on integer rows."""
    m = _integer_rows(rows)
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    col = 0
    while rank < n_rows and col < n_cols:
        pivot_row = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if pivot_row is None:
            col += 1
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        piv = m[rank][col]
        for r in range(rank + 1, n_rows):
            for c in range(col + 1, n_cols):
                m[r][c] = (m[r][c] * piv - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = piv
        rank += 1
        col += 1
    return rank


def rref(rows: Sequence[Row]) -> tuple[tuple[Fraction, ...], ...]:
    """Reduced row echelon form with zero rows dropped.

    The result is a canonical basis of the row space, usable as a
    dictionary key for deduplicating subspaces.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return ()
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == n_rows:
            break
    return tuple(tuple(row) for row in m[:r])




def primitive(ints):
    """A nonzero integer vector up to scale: content divided out, first
    nonzero entry positive."""
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple([x // g for x in ints]) if g != 1 else tuple(ints)


def restrict(w, rows):
    """The rows restricted to w.x = 0, each up to scale, or None for a row
    proportional to w: the primitive vectors of w_t0*r - r_t0*w with
    coordinate t0 dropped, for the first t0 with w_t0 != 0."""
    t0 = next(t for t, x in enumerate(w) if x)
    out = []
    for r in rows:
        v = [w[t0] * a - r[t0] * b for a, b in zip(r, w)]
        del v[t0]
        out.append(primitive(v) if any(v) else None)
    return out


def meet(kernel, row):
    """An integer basis of {x in span(kernel) : row.x = 0}, or None when row
    is orthogonal to all of kernel: the primitive vectors of
    v_t0*k_t - v_t*k_t0 for the first pivot t0 with v_t0 = row.k_t0 != 0."""
    vals = [sum(a * b for a, b in zip(row, k)) for k in kernel]
    t0 = next((t for t, v in enumerate(vals) if v), None)
    if t0 is None:
        return None
    p, k0 = vals[t0], kernel[t0]
    return [
        primitive([p * a - v * b for a, b in zip(k, k0)])
        for t, (v, k) in enumerate(zip(vals, kernel))
        if t != t0
    ]


def kernel_flats(d, rows):
    """(codim, support) of every nonempty flat of the arrangement with these
    rows in P^d, sorted, with 1-based supports.

    The level walk on integer kernel bases: each flat F keeps a basis
    k_1..k_r of its linear subspace, each hyperplane outside its support
    restricts to (dir.k_1, ..., dir.k_r), the classes of proportional
    restrictions are F's covers, and `meet` gives each new cover below
    codimension d its basis.
    """
    directions = [primitive(row) for row in _integer_rows(rows)]
    found = []
    seen = set()
    whole = [tuple(int(s == t) for t in range(d + 1)) for s in range(d + 1)]
    level = [(frozenset(), whole)]
    for codim in range(1, d + 1):
        next_level = []
        for support, kernel in level:
            classes = {}
            for i, direction in enumerate(directions, 1):
                if i in support:
                    continue
                restriction = [sum(a * b for a, b in zip(direction, k)) for k in kernel]
                assert any(restriction), (i, sorted(support))
                classes.setdefault(primitive(restriction), []).append(i)
            for members in classes.values():
                new = support.union(members)
                if new in seen:
                    continue
                seen.add(new)
                found.append((codim, tuple(sorted(new))))
                if codim < d:
                    next_level.append((new, meet(kernel, directions[members[0] - 1])))
        level = next_level
    return [(codim, frozenset(support)) for codim, support in sorted(found)]


def flat_work(d, n):
    """The flat guard's estimate for n hyperplanes in P^d: 16 units a
    hyperplane, plus for each codimension c < d at most C(n, c) flats, each
    restricting at most n rows at (d+1-c)(d+1) products a row."""
    return 16 * n + sum(comb(n, c) * n * (d + 1 - c) * (d + 1) for c in range(d))
