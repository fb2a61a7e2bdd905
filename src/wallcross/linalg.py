"""Exact linear algebra over Q: the reduced row echelon form that
`Flat.basis` reports.  The flat lattice itself runs on integer kernel bases
in `arrangement`.  Everything works on sequences of ints or
fractions.Fraction; nothing here ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = Sequence[Fraction]


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


