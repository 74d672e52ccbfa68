"""Exact linear algebra: the shared kernels.

All but `solve_unique` compute over the field of their inputs.  Matrices
are lists of lists of field elements, row major; the code uses only
+, -, *, / and comparison with 0.  Two ints may also appear, and
every field absorbs them: the 0 of an entry no arithmetic reached
(`zeros`, an empty sum) and the 1 of a free `null_space` coordinate or of
the seed of `tridiagonal_kernel`.  No division has two int operands, as
int / int is a float.

Everything here is sized for the desk scale of this package (dimension at
most a few dozen).  `mat_mul`, the dense product of `OpMatrix`, is the
reference the tests compare the checks' integer-row products
(`qcore._mul_rows`) against; no check calls it.  It pairs each nonzero
entry with the nonzero (column, value) pairs of one right-factor row,
listed once per call, so a banded matrix costs O(bandwidth) per row.
`rref`, and so `null_space`, run Gauss-Jordan elimination one row at a
time and skip zero entries.  `solve_unique` is an integer kernel for ints
and Fractions: it clears each row of [a | b] to integers once
(`qcore.over_common_denominator`), eliminates fraction-free (Bareiss 1968)
up to the row that makes the column rank full, and checks the rows left by
substituting its solution on integers, so a tall system of many dependent
rows costs one integer dot product per extra row.
`tridiagonal_kernel` runs the fraction-free three-term recurrence of a
tridiagonal matrix, on integers when its bands are integers, for the
kernels of `brf.check_partner`.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from math import gcd
from typing import Sequence

from .qcore import RankDeficient, SingularSystem, over_common_denominator

__all__ = ["zeros", "mat_mul", "rref", "solve_unique", "null_space", "tridiagonal_kernel"]

Matrix = list[list]
Vector = list


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    k, m = len(b), len(b[0])
    assert all(len(row) == k for row in a), "inner dimensions must agree"
    nonzeros = [[(j, v) for j, v in enumerate(brow) if v] for brow in b]
    out = zeros(len(a), m)
    for arow, orow in zip(a, out):
        for av, pairs in zip(arow, nonzeros):
            if av == 0:
                continue
            for j, v in pairs:
                orow[j] += av * v
    return out


def rref(a: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    basis: Matrix = []
    pivots: list[int] = []
    zero_rows = []
    for row in a:
        row = list(row)
        for c, brow in zip(pivots, basis):
            f = row[c]
            if f != 0:
                row = [x - f * y if y else x for x, y in zip(row, brow)]
        c = next((j for j, x in enumerate(row) if x != 0), None)
        if c is None:
            zero_rows.append(row)
            continue
        inv = 1 / row[c]
        row = [x * inv if x else x for x in row]
        for i, brow in enumerate(basis):
            f = brow[c]
            if f != 0:
                basis[i] = [x - f * y if y else x for x, y in zip(brow, row)]
        k = bisect.bisect(pivots, c)
        pivots.insert(k, c)
        basis.insert(k, row)
    return basis + zero_rows, pivots


def solve_unique(a: Sequence[Sequence], b: Sequence) -> list[Fraction]:
    """The unique x with a x = b, as Fractions, for a and b of ints and
    Fractions; a may be rectangular (over-determined).

    A new row is cleared of each pivot column by an integer combination with
    that pivot's row, in pivot order, and its content is divided out.  A
    column rank of a below full after all rows raises RankDeficient, whether
    or not the system is consistent; a row that reduces to its b entry alone
    or that x does not satisfy then raises SingularSystem.
    """
    cols = len(a[0]) if a else 0
    rows = (over_common_denominator([*row, v])[0] for row, v in zip(a, b))
    basis: Matrix = []  # in pivot order, each row zero left of its pivot
    pivots: list[int] = []
    inconsistent = False
    for row in rows:
        for c, brow in zip(pivots, basis):
            if f := row[c]:
                row = [brow[c] * x - f * y for x, y in zip(row, brow)]
        if not (g := gcd(*row)):
            continue
        c = next(j for j, x in enumerate(row) if x)
        if c == cols:
            inconsistent = True
            continue
        k = bisect.bisect(pivots, c)
        pivots.insert(k, c)
        basis.insert(k, [x // g for x in row])
        if len(pivots) == cols:
            break
    if len(pivots) < cols:
        raise RankDeficient("solution is not unique")
    nums, den = [0] * cols, 1  # x = nums / den, by back substitution
    for j in reversed(range(cols)):
        row = basis[j]
        t = row[cols] * den - sum(u * n for u, n in zip(row[j + 1:cols], nums[j + 1:]))
        nums = [n * row[j] for n in nums]
        nums[j], den = t, den * row[j]
    if inconsistent or any(sum(u * n for u, n in zip(row, nums) if u) != row[cols] * den
                           for row in rows):
        raise SingularSystem("system is inconsistent")
    return [Fraction(n, den) for n in nums]


def null_space(a: Sequence[Sequence]) -> list[Vector]:
    """Basis of the exact null space {v : a v = 0}."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def tridiagonal_kernel(sub: Sequence, diag: Sequence, sup: Sequence) -> tuple[Vector, object]:
    """The fraction-free three-term recurrence of the tridiagonal matrix with
    subdiagonal `sub`, diagonal `diag` and superdiagonal `sup`, every `sup`
    entry nonzero (Bareiss 1968): n_0 = 1 and

        n_{i+1} = -(sub_{i-1} sup_{i-1} n_{i-1} + diag_i n_i),

    so v_i = n_i sup_i ... sup_{n-2} satisfies rows 0..n-2.  Returns (v, r),
    r the last row's residual of v: the kernel is span(v) when r is 0 and
    {0} otherwise.  Ring operations only, so integer bands give integers.
    """
    n = len(diag)
    nums = [1]
    for i in range(n):
        nums.append(-(diag[i] * nums[i] + (sub[i - 1] * sup[i - 1] * nums[i - 1] if i else 0)))
    v, scale = [nums[n - 1]], 1
    for i in range(n - 2, -1, -1):
        scale *= sup[i]
        v.append(nums[i] * scale)
    return v[::-1], -nums[n]
