"""Exact linear algebra on integer vectors: the one home of the kernels that
decide the flat lattice, linear independence and the integer lowering of
rational data.

Rational input is lowered once by `_clear`, which multiplies a list of
vectors by the lcm of all their denominators, so their ratios are kept; a
vector is taken up to scale by `_primitive`.  The only elimination is
`_meet`: one fraction-free step that cuts an integer kernel basis by one
more row.  The flat lattice (`arrangement`), `is_e_type`, the Q(e)
constructor (`epsfield`) and the jet separation pass (`jets`) all run on
these.  Nothing here ever touches floating point, and this module imports
nothing from the package.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import Sequence


def _clear(vectors: Sequence[Sequence]) -> list[list[int]]:
    """The vectors of ints or Fractions, all times the lcm of their
    denominators: one factor for all of them, so their ratios are kept."""
    scale = lcm(*[c.denominator for v in vectors for c in v])
    return [[c.numerator * (scale // c.denominator) for c in v] for v in vectors]


def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """A nonzero integer vector up to scale: content divided out, first
    nonzero entry positive."""
    g = gcd(*ints)
    # A loop, not next() over a generator: this builds every restriction
    # key of the flat lattice, and a generator costs a frame per call.
    for x in ints:
        if x:
            if x < 0:
                g = -g
            break
    return tuple([x // g for x in ints]) if g != 1 else tuple(ints)


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _meet(kernel: list[tuple[int, ...]], row: tuple[int, ...]):
    """An integer basis of {x in span(kernel) : row.x = 0}, or None when row
    is orthogonal to all of kernel (the hyperplane contains the flat).

    One fraction-free elimination step: with v_t = row.k_t and a pivot t0
    where v_t0 != 0, the primitive vectors of v_t0*k_t - v_t*k_t0 for
    t != t0.
    """
    vals = [_dot(row, k) for k in kernel]
    for t0, p in enumerate(vals):
        if p:
            break
    else:
        return None
    k0 = kernel[t0]
    return [
        _primitive([p * a - v * b for a, b in zip(k, k0)])
        for t, (v, k) in enumerate(zip(vals, kernel))
        if t != t0
    ]


def _whole_space(dim: int) -> list[tuple[int, ...]]:
    return [tuple([int(s == t) for t in range(dim)]) for s in range(dim)]


def _independent(rows: list[tuple[int, ...]]) -> bool:
    """Whether the integer rows are linearly independent: each one meets the
    kernel of those before it in a smaller subspace."""
    kernel = _whole_space(len(rows[0]))
    for row in rows:
        kernel = _meet(kernel, row)
        if kernel is None:
            return False
    return True
