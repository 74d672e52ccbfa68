"""Exact linear algebra over the field of its inputs: the shared kernels.

Matrices are lists of lists of field elements, row major; the code uses
only +, -, *, / and comparison with 0.  Two ints may also appear, and
every field absorbs them: the 0 of an entry no arithmetic reached
(`zeros`, an empty sum) and the 1 of a free `null_space` coordinate or of
the seed of `tridiagonal_kernel`.  No division has two int operands, as
int / int is a float.

Everything here is sized for the desk scale of this package (dimension at
most a few dozen).  `mat_mul`, the product of `OpMatrix` (not of the word
products of `algebra.evaluate_poly`, which are `qcore._mul_rows`), pairs
each nonzero entry with the nonzero (column, value) pairs of one
right-factor row, listed once per call, so a banded matrix costs
O(bandwidth) per row.  The dense kernels (`rref`, `solve_unique`,
`null_space`) share one Gauss-Jordan loop, `_reduce`, which takes the rows
one at a time and skips zero entries: `rref`, and so `null_space`, reduce
every row, and `solve_unique` stops at the row that makes the column rank
full and checks the rows left by substituting its solution, so a tall
system of many dependent rows costs one substitution per extra row.
`tridiagonal_kernel` runs the fraction-free three-term recurrence of a
tridiagonal matrix, on integers when its bands are integers, for the
kernels of `brf.check_partner`.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Sequence

from .qcore import RankDeficient, SingularSystem

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


def _reduce(a: Sequence[Sequence]) -> Iterator[tuple[Matrix, list[int], Vector | None]]:
    """Gauss-Jordan elimination of the rows of `a`, one row at a time.

    After each row it yields (basis, pivots, zero): the nonzero rows of the
    reduced row echelon form of the rows taken so far, in pivot order, their
    pivot columns, and the row just taken if it reduced to zero (else None).
    A new row is cleared of every pivot column, scaled to 1 at its first
    nonzero entry, and then cleared from the basis rows, so the basis stays
    reduced after each step and the caller may stop at any row.
    """
    basis: Matrix = []
    pivots: list[int] = []
    for row in a:
        row = list(row)
        for c, brow in zip(pivots, basis):
            f = row[c]
            if f != 0:
                row = [x - f * y if y else x for x, y in zip(row, brow)]
        c = next((j for j, x in enumerate(row) if x != 0), None)
        if c is None:
            yield basis, pivots, row
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
        yield basis, pivots, None


def rref(a: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    basis: Matrix = []
    pivots: list[int] = []
    zero_rows = []
    for basis, pivots, zero in _reduce(a):
        if zero is not None:
            zero_rows.append(zero)
    return basis + zero_rows, pivots


def solve_unique(a: Sequence[Sequence], b: Sequence) -> Vector:
    """The unique x with a x = b, from [a | b] reduced row by row.

    Accepts rectangular (over-determined) systems.  The reduction stops at
    the first row that brings the column rank of a to full: the basis then
    holds x, and every row not yet taken is checked by substituting x, in
    the field of the entries.  A column rank of a below full after all rows
    raises RankDeficient, whether or not the system is consistent; a pivot
    in the b column or a row that x does not satisfy then raises
    SingularSystem.
    """
    cols = len(a[0]) if a else 0
    rows = [list(row) + [v] for row, v in zip(a, b)]
    full = list(range(cols))
    basis: Matrix = []
    pivots: list[int] = []
    taken = 0
    for taken, (basis, pivots, _) in enumerate(_reduce(rows), 1):
        if pivots[:cols] == full:
            break
    if pivots[:cols] != full:
        raise RankDeficient("solution is not unique")
    x = [row[cols] for row in basis[:cols]]
    if cols in pivots or any(sum(c * v for c, v in zip(row, x) if c) != row[cols]
                             for row in rows[taken:]):
        raise SingularSystem("system is inconsistent")
    return x


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
