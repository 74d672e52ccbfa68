"""Dense exact linear algebra over the rationals.

Matrices are lists of lists of Fractions, row major.  Everything here is
sized for the desk scale of this package (dimension at most a few dozen),
so plain Gaussian elimination with exact arithmetic is the right tool.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .qcore import SingularSystem

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(row) == k for row in a), "inner dimensions must agree"
    out = zeros(n, m)
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for t in range(k):
            av = arow[t]
            if av == 0:
                continue
            brow = b[t]
            for j in range(m):
                if brow[j]:
                    orow[j] += av * brow[j]
    return out


def mat_vec(a: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vector:
    assert all(len(row) == len(v) for row in a)
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), Fraction(0)) for row in a]


def transpose(a: Sequence[Sequence[Fraction]]) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_add(a, b) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c: Fraction, a) -> Matrix:
    return [[c * x for x in row] for row in a]


def is_zero(a) -> bool:
    return all(x == 0 for row in a for x in row)


def max_abs(a) -> Fraction:
    return max((abs(x) for row in a for x in row), default=Fraction(0))


def rref(a: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def solve_unique(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Vector:
    """Exact solution of a linear system with a unique solution.

    Accepts rectangular (over-determined) systems; raises SingularSystem if
    the system is inconsistent or the solution is not unique.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [b[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        raise SingularSystem("system is inconsistent")
    if len(pivots) < cols:
        raise SingularSystem("solution is not unique")
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def null_space(a: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Basis of the exact null space {v : a v = 0}."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve_lower_triangular(
    lower: Sequence[Sequence[Fraction]], rhs: Sequence[Sequence[Fraction]]
) -> Matrix:
    """Solve lower @ W = rhs column by column by forward substitution."""
    n = len(lower)
    m = len(rhs[0])
    w = zeros(n, m)
    for j in range(m):
        for i in range(n):
            if lower[i][i] == 0:
                raise SingularSystem(f"zero diagonal entry at row {i}")
            acc = rhs[i][j]
            for t in range(i):
                if lower[i][t] and w[t][j]:
                    acc -= lower[i][t] * w[t][j]
            w[i][j] = acc / lower[i][i]
    return w
