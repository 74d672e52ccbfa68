"""The difference operators X, Y, Z and the factorization operator V.

All four act on the (N+1)-dimensional space of functions on the grid
x = 0..N and are materialized as exact (N+1)x(N+1) matrices in two bases:

* Point basis: entry [x][y] is the coefficient of f(y) in (M f)(x).  X and
  Z are lower bidiagonal, Y is tridiagonal, V is lower Hessenberg.
* Phi basis: column n holds the expansion coefficients of M phi_n over the
  rational basis phi_m(x) = (q^-x; q)_m / (A q^-x; q)_m.  Matrices act on
  coefficient vectors (c_0..c_N), so M_point @ Phi = Phi @ M_phi with
  Phi[x][n] = phi_n(x).

phi_{N+1} vanishes identically on the grid, which is what truncates the
raising terms at n = N exactly.

Where the coefficients are declared: X, Y and Z in both bases, and V in
the phi basis, are three-term actions, each one (raise, stay, lower) entry
of `_BANDS` that `band_coefficients` reads and one placement puts into the
matrix; V's phi band is `qcore.eigenvalue` and the lowering step of the
recurrence `brf.phi_expansion` reads from it.  V in the point basis has a
full lowering tail and keeps its own formulas in `_v_point`, so that
Y = X V checks two independent declarations.

Every entry is derived from (q, A, B), so the matrices live in their field;
`GridVector` and `OpMatrix` store the values they are given, and an entry
no term reaches stays the int 0 of `linalg.zeros`.  `OpMatrix @ OpMatrix`
is the dense `linalg.mat_mul`, the tests' reference; no check calls it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Union

from . import linalg
from .qcore import (
    DimensionMismatch,
    PoleOnGrid,
    QParams,
    ZeroWeight,
    eigenvalue,
    qnum,
    qpoch,
    qpow,
    validate_params,
)

__all__ = [
    "Basis",
    "Operator",
    "GridVector",
    "OpMatrix",
    "phi_function",
    "band_coefficients",
    "build_operator",
    "basis_change",
    "weighted_adjoint",
]


class Basis(enum.Enum):
    POINT = "point"
    PHI = "phi"


class Operator(enum.Enum):
    X = "X"
    Y = "Y"
    Z = "Z"
    V = "V"


@dataclass(frozen=True)
class GridVector:
    """Exact function values (f(0), ..., f(N)) for one parameter instance."""

    values: tuple
    params: QParams

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.params.N + 1:
            raise DimensionMismatch(
                f"expected {self.params.N + 1} values, got {len(self.values)}"
            )

    def __getitem__(self, x: int):
        return self.values[x]

    def __iter__(self) -> Iterator:
        return iter(self.values)


@dataclass(frozen=True)
class OpMatrix:
    """Immutable exact matrix tagged with its basis and parameter instance."""

    entries: tuple[tuple, ...]
    basis: Basis
    params: QParams

    def __post_init__(self):
        n1 = self.params.N + 1
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if len(rows) != n1 or any(len(r) != n1 for r in rows):
            raise DimensionMismatch(f"operator matrix must be {n1}x{n1}")

    def __getitem__(self, i: int) -> tuple:
        return self.entries[i]

    def rows(self) -> list[list]:
        return [list(r) for r in self.entries]

    def __matmul__(self, other: Union["OpMatrix", GridVector]):
        if isinstance(other, OpMatrix):
            if self.basis is not other.basis or self.params != other.params:
                raise DimensionMismatch("operands live in different bases or instances")
            return OpMatrix(linalg.mat_mul(self.entries, other.entries), self.basis, self.params)
        if isinstance(other, GridVector):
            if self.basis is not Basis.POINT or self.params != other.params:
                raise DimensionMismatch("grid values take a point-basis matrix of their instance")
            return GridVector(tuple(sum(a * v for a, v in zip(row, other.values) if a and v)
                                    for row in self.entries), self.params)
        return NotImplemented


def phi_function(p: QParams, n: int, x: int):
    """phi_n(x) = (q^-x; q)_n / (A q^-x; q)_n, exact; PoleOnGrid on a zero denominator."""
    den = qpoch(p.A * p.q**-x, n, p.q)
    if den == 0:
        raise PoleOnGrid(f"phi_{n}({x}) has a vanishing denominator (A is a grid power of q)")
    return qpoch(p.q**-x, n, p.q) / den


def _y_point(p: QParams, x: int) -> tuple:
    up = qpow(p, -x, 0, 1) * qnum(p, x - p.N) * qnum(p, x + 1, -1) * qnum(p, x, -1)
    down = qpow(p, -x) * qnum(p, x) * qnum(p, x - p.N, -1, 1) * qnum(p, x, -1)
    return up, -(up + down), down


def _z_point(p: QParams, x: int) -> tuple:
    # lower is [-x]_q / [alpha - x]_q; its numerator vanishes at x = 0, which
    # spares the off-grid term the division by [alpha]_q (zero at A = 1);
    # at x >= 1 a zero denominator is a pole on the grid, as in V's tail
    num, den = qnum(p, -x), qnum(p, -x, 1)
    if num != 0 and den == 0:
        raise PoleOnGrid(f"Z's lowering term has a pole at x = {x}: [alpha - {x}]_q = 0")
    return 0, -p.q**0, num / den if num != 0 else num


def _y_phi(p: QParams, n: int) -> tuple:
    nu1 = -qnum(p, -n) * qnum(p, n) * qnum(p, n - p.N, 0, 1)
    nu2 = (qnum(p, -n) * qnum(p, n - p.N, 0, 1) * qnum(p, n, -1)
           + qpow(p, 0, -1, 1) * qnum(p, n) * qnum(p, n - p.N - 1) * qnum(p, 1 - n))
    nu3 = -qpow(p, 0, -2, 1) * qnum(p, n) * qnum(p, n - p.N - 1) * qnum(p, 1 - n, 1)
    return nu1, nu2, nu3


# The banded operators: for each (operator, basis) the coefficients
# (raise, stay, lower) at index i, as a function of (p, i).  In the point
# basis they multiply f(x+1), f(x), f(x-1) in (M f)(x), row i = x; in the
# phi basis phi_{n+1}, phi_n, phi_{n-1} in M phi_n, column i = n.  An
# operator without a term declares the int 0.
_BANDS = {
    (Operator.X, Basis.POINT): lambda p, x: (0, qnum(p, x, -1), -qpow(p, 0, -1) * qnum(p, x)),
    (Operator.Y, Basis.POINT): _y_point,
    (Operator.Z, Basis.POINT): _z_point,
    (Operator.X, Basis.PHI): lambda p, n: (-qnum(p, n), qnum(p, n, -1), 0),
    (Operator.Y, Basis.PHI): _y_phi,
    (Operator.Z, Basis.PHI): lambda p, n: (p.q**0, -p.q**0, 0),
    (Operator.V, Basis.PHI): lambda p, n: (
        0, eigenvalue(n, p), qpow(p, 1 - n, -1, 1) * qnum(p, n) * qnum(p, n - p.N - 1)),
}


def band_coefficients(which: Operator, basis: Basis, p: QParams, i: int) -> tuple:
    """The declared (raise, stay, lower) coefficients of `which` at index i,
    row i in the point basis and column i in the phi basis, including those
    the matrix drops off the grid.  V in the point basis is lower
    Hessenberg, not banded, and raises KeyError."""
    return _BANDS[(which, basis)](p, i)


def _place(which: Operator, basis: Basis, p: QParams) -> linalg.Matrix:
    """The matrix of a `_BANDS` declaration, without the terms that would
    reach off the grid: raise at i = N and lower at i = 0."""
    n1 = p.N + 1
    m = linalg.zeros(n1, n1)
    for i in range(n1):
        for j, c in zip((i + 1, i, i - 1), band_coefficients(which, basis, p, i)):
            if 0 <= j < n1:
                if basis is Basis.POINT:
                    m[i][j] = c
                else:
                    m[j][i] = c
    return m


def _v_point(p: QParams) -> linalg.Matrix:
    # Lower Hessenberg: one raising term, a multiplicative term, and a full
    # lowering tail whose k-th coefficient is tail q^k phi_k(x).  The tail
    # is a running product over k of the factor ratio
    # q (1 - q^d) / (1 - A q^d), d = k - 1 - x, tabulated once per d; None
    # marks the d where phi_k(x) has a pole.
    n1 = p.N + 1
    q, A = p.q, p.A
    m = linalg.zeros(n1, n1)
    ratio = {}
    for d in range(-p.N, 0):
        den = 1 - A * q**d
        ratio[d] = None if den == 0 else q * (1 - q**d) / den
    for x in range(n1):
        up = qpow(p, -x, 0, 1) * qnum(p, x - p.N) * qnum(p, x + 1, -1)
        if x < p.N:
            m[x][x + 1] = up
        m[x][x] = (
            qpow(p, 1 - x, -1, 1) * qnum(p, x) * qnum(p, x - p.N - 1)
            - up
            - qpow(p, -x) * qnum(p, x) * qnum(p, x - p.N, -1, 1)
        )
        entry = qpow(p, 1 - x, -1, 1) * qnum(p, -1, 1, -1) * qnum(p, -1, 1)
        for k in range(1, x + 1):
            r = ratio[k - 1 - x]
            if r is None:
                raise PoleOnGrid(
                    f"phi_{k}({x}) has a vanishing denominator (A is a grid power of q)")
            entry *= r
            m[x][x - k] = entry
    return m


def build_operator(which: Operator, basis: Basis, p: QParams) -> OpMatrix:
    """Exact matrix of one of the four operators in the requested basis."""
    if (which, basis) == (Operator.V, Basis.POINT):
        return OpMatrix(_v_point(p), basis, p)
    return OpMatrix(_place(which, basis, p), basis, p)


def basis_change(p: QParams) -> OpMatrix:
    """Matrix Phi with Phi[x][n] = phi_n(x), connecting the two bases.

    Raises PoleOnGrid when A = q^m for m in [-(N-1), N], which puts a
    denominator zero of some phi_n on the grid.
    """
    rep = validate_params(p, p.N)
    if rep.basis_pole is not None:
        raise PoleOnGrid(rep.basis_pole)
    n1 = p.N + 1
    m = [[phi_function(p, n, x) for n in range(n1)] for x in range(n1)]
    return OpMatrix(m, Basis.POINT, p)


def weighted_adjoint(m: OpMatrix, w: GridVector) -> OpMatrix:
    """Adjoint with respect to the weighted pairing: W^-1 M^T W."""
    if m.basis is not Basis.POINT:
        raise DimensionMismatch("weighted adjoints are defined in the point basis")
    if any(v == 0 for v in w):
        raise ZeroWeight("weight vector has a zero entry")
    n1 = m.params.N + 1
    out = linalg.zeros(n1, n1)
    for r in range(n1):
        for c in range(n1):
            if m[c][r]:
                out[r][c] = w[c] * m[c][r] / w[r]
    return OpMatrix(out, Basis.POINT, m.params)
