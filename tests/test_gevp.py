from fractions import Fraction as F

import pytest

from qhahn import brf, gevp
from qhahn.brf import Instance, brf_family, eigenvalue
from qhahn.gevp import (
    MuCoefficients,
    check_contiguity,
    check_difference_equation,
    check_gevp,
    check_recurrence,
    check_tridiagonal_actions,
    mu_coefficients,
)
from qhahn.qcore import DegenerateDenominator, QParams, qnum, validate_params

from conftest import CANONICAL, PANEL, SMALL_PANEL


def test_gevp_exact_on_panel():
    for p in PANEL:
        assert check_gevp(Instance(p)).status == "pass"


def test_difference_equation_exact_on_panel():
    for p in PANEL:
        assert check_difference_equation(Instance(p)).status == "pass"


def test_recurrence_exact_on_panel():
    for p in PANEL:
        assert check_recurrence(Instance(p)).status == "pass"


def test_tridiagonal_actions_exact_on_panel():
    for p in PANEL:
        assert check_tridiagonal_actions(Instance(p)).status == "pass"


def test_contiguity_exact_on_panel():
    for p in PANEL:
        assert check_contiguity(Instance(p)).status == "pass"


def _perturb_eigenvalue(monkeypatch, n_tamper, delta):
    good = brf.eigenvalue
    monkeypatch.setattr(
        brf, "eigenvalue", lambda n, p: good(n, p) + (delta if n == n_tamper else 0))


def test_gevp_detects_wrong_eigenvalue(canonical, monkeypatch):
    _perturb_eigenvalue(monkeypatch, 1, 1)
    report = check_gevp(Instance(canonical))
    assert report.status == "fail"
    assert [v["n"] for v in report.violations] == [1]


def test_difference_equation_detects_wrong_eigenvalue(canonical, monkeypatch):
    _perturb_eigenvalue(monkeypatch, 2, F(1, 7))
    report = check_difference_equation(Instance(canonical))
    assert report.status == "fail"
    assert {v["n"] for v in report.violations} == {2}


def _tamper_mu(monkeypatch, n_tamper, slot, delta):
    good = gevp.mu_coefficients

    def tampered(n, p):
        mu = good(n, p)
        if n != n_tamper:
            return mu
        bumped = list(mu.mu)
        bumped[slot] += delta
        return MuCoefficients(tuple(bumped), p, n)

    monkeypatch.setattr(gevp, "mu_coefficients", tampered)


def test_recurrence_detects_mu_perturbation(canonical, monkeypatch):
    _tamper_mu(monkeypatch, 1, 1, F(1, 3))
    assert check_recurrence(Instance(canonical)).status == "fail"


def test_recurrence_rejects_uncorrected_mu8(canonical, monkeypatch):
    # the n-independent part of mu8 differs by exactly -1 from the naive
    # sigma difference; restoring the +1 must break the recurrence
    _tamper_mu(monkeypatch, 1, 7, F(1))
    assert check_recurrence(Instance(canonical)).status == "fail"


def test_tridiagonal_detects_mu_perturbation(canonical, monkeypatch):
    _tamper_mu(monkeypatch, 2, 4, F(1, 5))
    report = check_tridiagonal_actions(Instance(canonical))
    assert report.status == "fail"
    assert {(v["op"], v["n"]) for v in report.violations} == {("Y", 2)}


def test_mu_eigenvalue_coupling():
    # the Y row of the mu table is the X row scaled by lambda_n
    for p in SMALL_PANEL:
        for n in range(p.N + 1):
            mu = mu_coefficients(n, p)
            lam = eigenvalue(n, p)
            for i in (1, 2, 3):
                assert mu[i + 3] == lam * mu[i]


def test_mu_boundary_overrides():
    # raising coefficients vanish at n = N, lowering ones at n = 0
    for p in SMALL_PANEL:
        top = mu_coefficients(p.N, p)
        assert top[1] == 0 and top[4] == 0 and top[7] == 0
        bottom = mu_coefficients(0, p)
        assert bottom[3] == 0 and bottom[6] == 0 and bottom[9] == 0


@pytest.mark.parametrize("N", [2, 3, 4])
def test_bracket_guard_fires_exactly_where_mu_coefficients_raise(N):
    # B = q^e over every e that zeroes a bracket, with a margin: the guard
    # up to n flags bracket_denominator exactly when a mu table up to n raises
    q, A = F(1, 2), F(3)
    raised_at = []
    for e in range(-2 * N - 3, 2 * N + 4):
        p = QParams(q, A, q**e, N)
        raised = False
        for n in range(N + 1):
            try:
                mu_coefficients(n, p)
            except DegenerateDenominator:
                raised = True
                raised_at.append((e, n))
            assert (validate_params(p, n).bracket_denominator is not None) == raised
    assert raised_at


def test_contiguity_rejects_shift_onto_pole():
    # A = q^-3 shifts onto A' = q^-2, a basis pole at N = 3; the check
    # refuses the instance with a skip instead of reporting a hollow pass
    p = QParams(F(7, 5), F(125, 343), F(282475249, 9765625), 3)
    report = check_contiguity(Instance(p))
    assert report.status == "skip"
    assert report.skipped.startswith("shifted instance invalid for contiguity: basis_pole")
    assert not report.violations and not report.details


def test_recurrence_connects_neighbors(canonical):
    # spot check the three-term identity at one interior point by hand
    fam = brf_family(canonical)
    n, x = 1, 2
    mu = mu_coefficients(n, canonical)
    lhs = (mu[1] * fam.members[2][x] + mu[2] * fam.members[1][x]
           + mu[3] * fam.members[0][x])
    rhs = -qnum(canonical, x, -1) * (
        mu[7] * fam.members[2][x] + mu[8] * fam.members[1][x]
        + mu[9] * fam.members[0][x])
    assert lhs == rhs
