"""Identities of the operators proved for every index and every N.

Every coefficient `operators.band_coefficients` declares is a product of
brackets [i + j alpha + k beta]_q and monomials q^i A^j B^k whose i is
linear in the index n and in N.  Called at symbolic n and N, through a
stand-in for `QParams` whose q, A, B and N are sympy symbols, `qpow` and
`qnum` form q**(a n + b N + c), and writing T = q^n and S = q^N turns each
coefficient into a rational function of (q, A, B, T, S).  An identity whose
coefficients vanish in Q(q, A, B, T, S) then holds at every n and every N.
sympy is a test-only dependency: the library never imports it.
"""

import dataclasses

import pytest

sympy = pytest.importorskip("sympy")

from qhahn import operators  # noqa: E402
from qhahn.operators import Basis, Operator, band_coefficients  # noqa: E402

q, A, B, T, S = sympy.symbols("q A B T S")
n, N = sympy.symbols("n N", integer=True)


@dataclasses.dataclass(frozen=True)
class SymbolicParams:
    """A stand-in for `QParams` with symbols for q, A, B and N."""

    q: object
    A: object
    B: object
    N: object


P = SymbolicParams(q, A, B, N)


def phi_band(op, i):
    """The declared (raise, stay, lower) phi-basis coefficients of `op` at
    the symbolic index i, as rational functions of (q, A, B, T, S)."""
    out = [sympy.expand_power_exp(c).subs({q**n: T, q**N: S})
           for c in band_coefficients(op, Basis.PHI, P, i)]
    assert all(c.free_symbols <= {q, A, B, T, S} for c in out)
    return out


def factorization_residuals():
    """The coefficients of phi_{n+1}, phi_n and phi_{n-1} in (X V - Y) phi_n,
    column n of X_phi V_phi - Y_phi, cancelled in Q(q, A, B, T, S).

    V phi_n = lambda_n phi_n + s_n phi_{n-1} (V has no raising term) and
    X phi_m = r_m phi_{m+1} + d_m phi_m (X has no lowering term), so
    X V phi_n = lambda_n r_n phi_{n+1} + (lambda_n d_n + s_n r_{n-1}) phi_n
    + s_n d_{n-1} phi_{n-1}.  The first shift is the raise that the finite
    matrices drop at n = N, on both sides.  They represent the operators on
    the grid exactly all the same: that coefficient multiplies phi_{N+1},
    and phi_{N+1}(x) = (q^-x; q)_{N+1} / (A q^-x; q)_{N+1} vanishes at every
    x = 0..N, since its numerator has the factor 1 - q^-x q^x.  At n = 0 the
    lowering terms would reach phi_{-1}; s_0 and Y's lower coefficient carry
    [0]_q, so that shift is 0 = 0 and the matrices drop nothing there.
    """
    x_n, x_below = phi_band(Operator.X, n), phi_band(Operator.X, n - 1)
    _, lam, s = phi_band(Operator.V, n)
    y = phi_band(Operator.Y, n)
    return [sympy.cancel(c) for c in (lam * x_n[0] - y[0],
                                      lam * x_n[1] + s * x_below[0] - y[1],
                                      s * x_below[1] - y[2])]


def test_x_v_equals_y_in_the_phi_basis_for_every_n_and_N():
    # Y = X V in the phi basis, where V's band is the step of
    # `brf.phi_expansion` and carries the eigenvalues on its diagonal
    assert factorization_residuals() == [0, 0, 0]


def test_a_shifted_v_coefficient_fails_for_every_n_and_N(monkeypatch):
    # 1/7 added to V's lower coefficient breaks the two shifts it enters
    good = operators._BANDS[(Operator.V, Basis.PHI)]
    monkeypatch.setitem(operators._BANDS, (Operator.V, Basis.PHI),
                        lambda p, i: (*good(p, i)[:2], good(p, i)[2] + sympy.Rational(1, 7)))
    assert [r != 0 for r in factorization_residuals()] == [False, True, True]
