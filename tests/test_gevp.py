from fractions import Fraction as F

from qhahn.brf import brf_family, eigenvalue
from qhahn.gevp import (
    MuCoefficients,
    check_contiguity,
    check_difference_equation,
    check_gevp,
    check_recurrence,
    check_tridiagonal_actions,
    mu_coefficients,
)
from qhahn.qcore import QParams, qnum

from conftest import CANONICAL, PANEL, SMALL_PANEL


def test_gevp_exact_on_panel():
    for p in PANEL:
        assert check_gevp(p).status == "pass"


def test_difference_equation_exact_on_panel():
    for p in PANEL:
        assert check_difference_equation(p).status == "pass"


def test_recurrence_exact_on_panel():
    for p in PANEL:
        assert check_recurrence(p).status == "pass"


def test_tridiagonal_actions_exact_on_panel():
    for p in PANEL:
        assert check_tridiagonal_actions(p).status == "pass"


def test_contiguity_exact_on_panel():
    for p in PANEL:
        assert check_contiguity(p).status == "pass"


def test_gevp_detects_wrong_eigenvalue(canonical):
    lams = [eigenvalue(n, canonical) for n in range(canonical.N + 1)]
    lams[1] += 1
    report = check_gevp(canonical, lambdas=lams)
    assert report.status == "fail"
    assert any(v.get("n") == 1 for v in report.violations)


def test_difference_equation_detects_wrong_eigenvalue(canonical):
    lams = [eigenvalue(n, canonical) for n in range(canonical.N + 1)]
    lams[2] += F(1, 7)
    assert check_difference_equation(canonical, lambdas=lams).status == "fail"


def _tampered_table(p, n_tamper, slot, delta):
    table = []
    for n in range(p.N + 1):
        mu = mu_coefficients(n, p)
        if n == n_tamper:
            bumped = list(mu.mu)
            bumped[slot] += delta
            mu = MuCoefficients(tuple(bumped), p, n)
        table.append(mu)
    return table


def test_recurrence_detects_mu_perturbation(canonical):
    table = _tampered_table(canonical, 1, 1, F(1, 3))
    assert check_recurrence(canonical, mu_table=table).status == "fail"


def test_recurrence_rejects_uncorrected_mu8(canonical):
    # the n-independent part of mu8 differs by exactly -1 from the naive
    # sigma difference; restoring the +1 must break the recurrence
    table = _tampered_table(canonical, 1, 7, F(1))
    assert check_recurrence(canonical, mu_table=table).status == "fail"


def test_tridiagonal_detects_mu_perturbation(canonical):
    table = _tampered_table(canonical, 2, 4, F(1, 5))
    assert check_tridiagonal_actions(canonical, mu_table=table).status == "fail"


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


def test_contiguity_rejects_shift_onto_pole():
    # A = q^-3 shifts onto A' = q^-2, a basis pole at N = 3; the check
    # refuses the instance with a skip instead of reporting a hollow pass
    p = QParams(F(7, 5), F(125, 343), F(282475249, 9765625), 3)
    report = check_contiguity(p)
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
