"""Test-side linear algebra that shares no code with the integer kernels in
`wallcross.linalg`: a fraction-free (Bareiss) matrix rank, the reduced row
echelon form over Q, a canonical basis of a row space, and the primitive
key and elimination step as `linalg` wrote them with next() over a
generator, the reference for its loops."""

from fractions import Fraction
from math import gcd
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
