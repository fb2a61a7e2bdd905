"""Exact linear algebra on integer vectors: the one home of the kernels that
decide the flat lattice, linear independence and the integer lowering of
rational data.

Rational input is lowered once by `_clear`, which multiplies a list of
vectors by the lcm of all their denominators, so their ratios are kept; a
vector is taken up to scale by `_primitive`.  The only elimination is
`_restrict`: one fraction-free step that restricts linear functionals on a
space to the hyperplane where one of them vanishes, in coordinates of that
hyperplane.  The flat lattice (`arrangement`) walks the restricted
arrangement with it, and `_independent` runs on it too; the Q(e)
constructor (`epsfield`) and the jet separation pass (`jets`) lower through
`_clear`.  Nothing here ever touches floating point, and this module
imports nothing from the package.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Optional, Sequence


def _clear(vectors: Sequence[Sequence]) -> list[list[int]]:
    """The vectors of ints or Fractions, all times the lcm of their
    denominators: one factor for all of them, so their ratios are kept."""
    scale = lcm(*[c.denominator for v in vectors for c in v])
    return [[c.numerator * (scale // c.denominator) for c in v] for v in vectors]


def _primitive(ints: Sequence[int]) -> Optional[tuple[int, ...]]:
    """A nonzero integer vector up to scale: content divided out, first
    nonzero entry positive.  None for the zero vector."""
    g = gcd(*ints)
    if not g:
        return None
    # A loop, not next() over a generator: this builds every restriction
    # key of the flat lattice, and a generator costs a frame per call.
    for x in ints:
        if x:
            if x < 0:
                g = -g
            break
    return tuple([x // g for x in ints]) if g != 1 else tuple(ints)


def _restrict(
    w: tuple[int, ...], rows: Sequence[tuple[int, ...]]
) -> list[Optional[tuple[int, ...]]]:
    """The functionals rows restricted to the hyperplane w.x = 0, each up to
    scale, or None for a row proportional to w (it vanishes there).

    One fraction-free elimination step (Bareiss): with t0 the first nonzero
    coordinate of w, the vectors e_t*w[t0] - e_t0*w[t] for t != t0 are a
    basis of the hyperplane, and row r takes the values of
    w[t0]*r - r[t0]*w on it, that vector with coordinate t0 dropped.
    """
    for t0, p in enumerate(w):
        if p:
            break
    out: list[Optional[tuple[int, ...]]] = []
    for r in rows:
        q = r[t0]
        v = [p * a - q * b for a, b in zip(r, w)] if q else list(r)
        del v[t0]
        out.append(_primitive(v))
    return out


def _independent(rows: Sequence[Sequence[int]]) -> bool:
    """Whether the integer rows are linearly independent: none is zero, and
    restricted to the zero set of the first, the others are independent."""
    keys = [_primitive(r) for r in rows]
    while keys and None not in keys:
        keys = _restrict(keys[0], keys[1:])
    return not keys
