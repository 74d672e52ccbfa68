"""Identities of the operators proved for every index and every N.

Every coefficient `operators.band_coefficients` declares is a product of
brackets [i + j alpha + k beta]_q and monomials q^i A^j B^k whose i is
linear in the index n and in N.  Called at symbolic n and N, through a
stand-in for `QParams` whose q, A, B and N are sympy symbols, `qpow` and
`qnum` form q**(a n + b N + c), and writing T = q^n and S = q^N turns each
coefficient into a rational function of (q, A, B, T, S).  An identity whose
coefficients vanish in Q(q, A, B, T, S) then holds at every n and every N.
A second index k is written K = q^k.
sympy is a test-only dependency: the library never imports it.
"""

import dataclasses

import pytest

sympy = pytest.importorskip("sympy")

from qhahn import operators  # noqa: E402
from qhahn.operators import Basis, Operator, band_coefficients  # noqa: E402

q, A, B, T, K, S = sympy.symbols("q A B T K S")
n, k, x, N = sympy.symbols("n k x N", integer=True)


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
    the symbolic index i, as rational functions of (q, A, B, T, K, S)."""
    out = [sympy.expand_power_exp(c).subs({q**n: T, q**k: K, q**N: S})
           for c in band_coefficients(op, Basis.PHI, P, i)]
    assert all(c.free_symbols <= {q, A, B, T, K, S} for c in out)
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


def gevp_residual(step_shift=0):
    """The coefficient of phi_k in (Y - lambda_n X) U_n, divided by C_{n,k},
    cancelled in Q(q, A, B, T, K, S).

    `brf.phi_expansion` builds U_n = sum_k C_{n,k} phi_k by C_{n,k+1} / C_{n,k}
    = (lambda_n - lambda_k) / s_{k+1}, with lambda_k and s_k the diagonal and
    lower coefficients of V's phi band; so C_{n,k-1} / C_{n,k} = s_k /
    (lambda_n - lambda_{k-1}).  Column m of a phi-basis matrix sends phi_m to
    phi_{m+1}, phi_m and phi_{m-1}, so phi_k gathers the raise of column k-1,
    the stay of column k and the lower of column k+1.  `step_shift` is added
    to s_{k+1}, the negative control.
    """
    lam_n = phi_band(Operator.V, n)[1]
    _, lam_k, s_k = phi_band(Operator.V, k)
    lam_below = phi_band(Operator.V, k - 1)[1]
    s_above = phi_band(Operator.V, k + 1)[2] + step_shift

    def pencil(m):
        return [y - lam_n * c for y, c in zip(phi_band(Operator.Y, m), phi_band(Operator.X, m))]

    return sympy.cancel(pencil(k - 1)[0] * s_k / (lam_n - lam_below) + pencil(k)[1]
                        + pencil(k + 1)[2] * (lam_n - lam_k) / s_above)


def test_gevp_holds_on_the_expansion_coefficients_for_every_n_and_N():
    # Y U_n = lambda_n X U_n, coefficient by coefficient in the phi basis
    assert gevp_residual() == 0


def test_a_shifted_expansion_step_fails_the_gevp_for_every_n_and_N():
    assert gevp_residual(sympy.Rational(1, 7)) != 0


def test_z_lowering_in_the_point_basis_is_a_ratio_of_brackets():
    # [-x]_q / [alpha - x]_q at symbolic x, a value and not a truthiness
    # test; at x = 0 its numerator [0]_q is 0, also at A = 1, where the
    # denominator [alpha]_q is 0 too
    raise_, stay, lower = band_coefficients(Operator.Z, Basis.POINT, P, x)
    assert (raise_, stay) == (0, -1)
    assert sympy.cancel(lower - (1 - q**-x) / (1 - A * q**-x)) == 0
    for p in (P, SymbolicParams(q, 1, B, N)):
        assert band_coefficients(Operator.Z, Basis.POINT, p, 0)[2] == 0
