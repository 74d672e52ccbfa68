"""Exact linear algebra over the rationals, dense and structured.

Matrices are lists of lists of Fractions, row major.  Everything here is
sized for the desk scale of this package (dimension at most a few dozen).
The dense kernels (`rref`, `solve_unique`, `null_space`) are plain
Gaussian elimination.  The structured ones exploit what the operators of
this package look like: `mat_mul` and `mat_vec` skip zero entries, so a
banded matrix costs O(bandwidth) per row; `tridiagonal_null_space` solves
the three-term recurrence of a tridiagonal matrix and falls back to
`null_space` when the matrix is not one it can prove a kernel for; and
`cauchy_solve` inverts a Cauchy matrix by Lagrange interpolation.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
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
    """a @ v, multiplying only where both the entry and the component are
    nonzero, so a banded matrix costs O(bandwidth) products per row."""
    assert all(len(row) == len(v) for row in a)
    return [sum((x * y for x, y in zip(row, v) if x and y), Fraction(0)) for row in a]


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


def tridiagonal_null_space(a: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """The basis `null_space(a)` returns, by the three-term recurrence when it can.

    When `a` is square, zero outside its three central diagonals, and every
    superdiagonal entry is nonzero, rows 0..n-2 fix v_{i+1} from v_{i-1} and
    v_i, so the kernel is at most one-dimensional and every kernel vector is
    a multiple of the v with v_0 = 1.  The last row's residual then decides:
    the kernel is span(v) when it is 0 and {0} otherwise, so the dimension
    is proved, not sampled.  v is scaled to the basis `null_space` returns
    (1 at its last nonzero entry, the free column of the echelon form).
    Any other matrix goes to `null_space`.
    """
    n = len(a)
    if (n == 0 or any(len(row) != n for row in a)
            or any(a[i][j] for i in range(n) for j in range(n) if abs(i - j) > 1)
            or not all(a[i][i + 1] for i in range(n - 1))):
        return null_space(a)
    v = [Fraction(1)]
    for i in range(n):
        acc = a[i][i] * v[i] + (a[i][i - 1] * v[i - 1] if i else 0)
        if i == n - 1:
            break
        v.append(-acc / a[i][i + 1])
    if acc:  # the last row's residual
        return []
    last = next(x for x in reversed(v) if x)
    return [[x / last for x in v]]


def cauchy_solve(s: Sequence[Fraction], t: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
    """The c with sum_k c_k / (s_k - t_x) = y_x for every x, in O(n^2).

    With Q(t) = prod_j (s_j - t) and W(t) = prod_x (t - t_x), the sum is
    P(t)/Q(t) for the polynomial P of degree < n with P(t_x) = y_x Q(t_x).
    Lagrange interpolation through the t_x gives P(s_k), and
    c_k = P(s_k) / prod_{j != k} (s_j - s_k).  Raises SingularSystem when two
    s or two t coincide, or an s coincides with a t.
    """
    n = len(s)
    if len(t) != n or len(y) != n:
        raise SingularSystem(f"a Cauchy system needs n = {n} nodes of each kind")
    diff = [[sk - tx for sk in s] for tx in t]  # diff[x][k] = s_k - t_x
    if any(not v for row in diff for v in row):
        raise SingularSystem("a pole s coincides with a node t")
    g = []  # g_x = y_x Q(t_x) / W'(t_x)
    for x, tx in enumerate(t):
        w_t = prod(tx - t[j] for j in range(n) if j != x)
        if not w_t:
            raise SingularSystem(f"node t_{x} = {tx} is repeated")
        g.append(y[x] * prod(diff[x]) / w_t)
    c = []
    for k, sk in enumerate(s):
        q_s = prod(s[j] - sk for j in range(n) if j != k)
        if not q_s:
            raise SingularSystem(f"pole s_{k} = {sk} is repeated")
        w_s = prod(row[k] for row in diff)  # W(s_k)
        c.append(w_s / q_s * sum(gx / row[k] for gx, row in zip(g, diff)))
    return c
