from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhahn.brf import Instance, partner_family
from qhahn.gevp import check_factorization
from qhahn.qcore import (
    InvalidParams,
    QParams,
    ZeroDenominator,
    frac_str,
    phi_series,
    qnum,
    qpoch,
    qpow,
    scalar,
    validate_params,
)

from conftest import CANONICAL, PANEL

rationals = st.fractions(
    min_value=F(-4), max_value=F(4), max_denominator=16
).filter(lambda x: x != 0)


def test_scalar_coercions():
    assert scalar(3) == F(3)
    assert scalar("3/4") == F(3, 4)
    assert scalar(F(5, 7)) == F(5, 7)
    with pytest.raises(TypeError):
        scalar(0.5)


@given(st.fractions(max_denominator=10 **6))
def test_frac_str_round_trip(x):
    assert F(frac_str(x)) == x


def test_qpoch_hand_values():
    # (1/2; 1/2)_2 = (1 - 1/2)(1 - 1/4)
    assert qpoch(F(1, 2), 2, F(1, 2)) == F(3, 8)
    assert qpoch(F(1, 3), 0, F(1, 2)) == 1
    # a numerator entry q^0 = 1 kills every factor
    assert qpoch(1, 3, F(1, 2)) == 0
    with pytest.raises(ValueError):
        qpoch(F(1, 2), -1, F(1, 2))


@given(rationals, st.integers(0, 6), st.integers(0, 6), rationals)
@settings(max_examples=40)
def test_qpoch_splits_multiplicatively(base, j, k, q):
    # (a; q)_{j+k} = (a; q)_j * (a q^j; q)_k
    assert qpoch(base, j + k, q) == qpoch(base, j, q) * qpoch(base * q**j, k, q)


def test_qnum_hand_value():
    # [2]_q at q = 1/2 is (1 - 1/4)/(1 - 1/2)
    assert qnum(CANONICAL, 2) == F(3, 2)
    assert qnum(CANONICAL, 0) == 0
    assert qnum(CANONICAL, 1) == 1


def test_qpow_is_monomial():
    p = CANONICAL
    assert qpow(p, 2, 1, -1) == p.q**2 * p.A / p.B


@given(st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=40)
def test_bracket_addition_law(a, b):
    # [a + b] = [a] + q^a [b], the defining cocycle of the q-bracket
    p = CANONICAL
    assert qnum(p, a + b) == qnum(p, a) + qpow(p, a) * qnum(p, b)


@given(st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 2))
@settings(max_examples=40)
def test_bracket_addition_law_mixed_exponents(i, j, k):
    # the same law with alpha and beta contributions in the exponent
    p = CANONICAL
    assert qnum(p, i + 1, j, k) == qnum(p, 1) + qpow(p, 1) * qnum(p, i, j, k)


@given(
    st.integers(1, 5),
    rationals,
    rationals,
    st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=8),
)
@settings(max_examples=40)
def test_phi_series_q_vandermonde(n, b, c, q):
    # terminating 2phi1(q^-n, b; c; q, c q^n / b) = (c/b; q)_n / (c; q)_n
    if qpoch(c, n, q) == 0 or b == 0:
        return
    closed = qpoch(c / b, n, q) / qpoch(c, n, q)
    series = phi_series([q**-n, b], [c], c * q**n / b, q, n + 1)
    assert series == closed


def test_phi_series_terminates():
    # extra terms beyond the q^-n cutoff contribute exactly zero
    q = F(1, 2)
    short = phi_series([q**-2, F(1, 3)], [F(1, 5)], F(1, 7), q, 3)
    long = phi_series([q**-2, F(1, 3)], [F(1, 5)], F(1, 7), q, 12)
    assert short == long


def test_validate_params_flags_basis_pole():
    report = validate_params(QParams(F(1, 2), F(1), F(1, 512), 3), 3)
    assert not report.valid
    assert report.basis_pole is not None
    assert any("basis_pole" in issue for issue in report.issues())


@pytest.mark.parametrize("p", [
    QParams(F(1, 2), F(3), F(12), 3), QParams(F(1, 2), F(3), F(24), 3),
    QParams(F(1, 2), F(3), F(48), 3), QParams(F(1, 2), F(5), F(20), 2),
], ids=["A3-B12-N3", "A3-B24-N3", "A3-B48-N3", "A5-B20-N2"])
def test_validate_params_flags_the_reflected_basis_pole(p):
    # B/A = q^-2, q^-3, q^-4 put a basis pole of the reflected instance
    # (1/q, A/(B q^2), 1/B) on its grid; no other guard sees it
    report = validate_params(p, p.N)
    assert report.issues() == [f"reflected_basis_pole: {report.reflected_basis_pole}"]
    with pytest.raises(ZeroDenominator):
        partner_family(p)


@pytest.mark.parametrize("N", [0, 1, 2, 3, 4])
def test_reflected_basis_pole_flag_spans_exactly_the_partner_poles(N):
    # B/A = q^e: the flag covers e in [-N-1, N-2]; where the weight guard
    # does not (e <= -2) the partner family cannot be built, and an instance
    # no guard flags builds it
    q, A = F(1, 2), F(3)
    for e in range(-N - 4, N + 2):
        p = QParams(q, A, A * q**e, N)
        report = validate_params(p, N)
        assert (report.reflected_basis_pole is not None) == (-N - 1 <= e <= N - 2)
        assert (report.weight_denominator is not None) == (-1 <= e <= N - 2)
        if report.valid:
            partner_family(p)
        elif e <= -2:
            with pytest.raises(ZeroDenominator):
                partner_family(p)


@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_basis_pole_flag_spans_the_family_poles_and_the_x_diagonal(N):
    # A = q^e: the flag covers e in [1-N, N] and always [0, N], where X's
    # diagonal [x - alpha]_q vanishes at x = e (A = 1 at N = 0 included);
    # an instance no guard flags factors Y = X V
    q, B = F(1, 2), F(1, 5)
    for e in range(-N - 2, N + 3):
        p = QParams(q, q**e, B, N)
        report = validate_params(p, N)
        assert (report.basis_pole is not None) == (min(1 - N, 0) <= e <= N)
        if report.valid:
            assert check_factorization(Instance(p)).status == "pass"


def test_validate_params_accepts_panel():
    for p in PANEL:
        assert validate_params(p, p.N).valid


def test_validate_params_rejects_bad_nmax():
    with pytest.raises(InvalidParams):
        validate_params(CANONICAL, 7)
