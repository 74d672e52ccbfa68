import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhahn import brf, gevp, operators, reports
from qhahn.brf import BRFFamily, Instance, brf_family
from qhahn.gevp import (
    MuCoefficients,
    check_contiguity,
    check_difference_equation,
    check_factorization,
    check_gevp,
    check_recurrence,
    check_tridiagonal_actions,
    mu_coefficients,
)
from qhahn.operators import Basis, Operator, OpMatrix, band_coefficients
from qhahn.qcore import (
    DegenerateDenominator,
    InvalidParams,
    QParams,
    eigenvalue,
    frac_str,
    qnum,
    qpow,
    validate_params,
)
from qhahn.reports import CheckReport

from conftest import (
    CANONICAL,
    PANEL,
    SMALL_PANEL,
    bumped_family,
    dense_check_factorization,
    outcome,
)


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


def _reach_off_grid(monkeypatch, op, slot, x):
    """Make the declared point-basis coefficient `slot` of `op` at x nonzero."""
    good = gevp.band_coefficients

    def reaching(which, basis, p, at):
        coeffs = list(good(which, basis, p, at))
        coeffs[slot] += which is op and at == x
        return tuple(coeffs)

    monkeypatch.setattr(gevp, "band_coefficients", reaching)


@pytest.mark.parametrize("slot, x, problem", [
    (0, 3, "off-grid raising coefficient nonzero"),
    (2, 0, "off-grid lowering coefficient nonzero"),
])
def test_difference_equation_reads_the_off_grid_coefficients(canonical, monkeypatch,
                                                             slot, x, problem):
    # no matrix row holds the coefficient of U_n(N+1) or U_n(-1): the check
    # reads Y's from its declaration, so a nonzero one fails every n at that x
    _reach_off_grid(monkeypatch, Operator.Y, slot, x)
    report = check_difference_equation(Instance(canonical))
    assert report.violations == [{"n": n, "x": x, "residual": problem} for n in range(4)]


def test_difference_equation_reads_the_off_grid_x_coefficient(canonical, monkeypatch):
    # X's lowering coefficient q^-alpha [x]_q at x = 0 multiplies U_n(-1)
    _reach_off_grid(monkeypatch, Operator.X, 2, 0)
    report = check_difference_equation(Instance(canonical))
    assert report.violations == [
        {"n": n, "x": 0, "residual": "off-grid [x]_q coefficient nonzero"} for n in range(4)]


def _tamper_mu(monkeypatch, n_tamper, slot, delta):
    good = gevp.mu_coefficients

    def tampered(n, p):
        mu = good(n, p)
        if n != n_tamper:
            return mu
        bumped = list(mu.mu)
        bumped[slot] += delta
        return MuCoefficients(tuple(bumped))

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


@pytest.mark.parametrize("op", "XYZ")
@pytest.mark.parametrize("edge", ["raising", "lowering"])
def test_banded_checks_report_a_coefficient_that_reaches_past_the_family(canonical,
                                                                        monkeypatch, edge, op):
    # U_{N+1} and U_{-1} are not members: a nonzero raising mu at n = N or
    # lowering mu at n = 0 is named at that n, not dropped; the recurrence
    # reads the X and Z expansions only
    n, at, slot = (canonical.N, "N", 0) if edge == "raising" else (0, "0", 2)
    _tamper_mu(monkeypatch, n, "XYZ".index(op) * 3 + slot, F(1))
    inst = Instance(canonical)
    problem = f"{edge} coefficient nonzero at n = {at}"
    assert check_tridiagonal_actions(inst).violations == [{"op": op, "n": n, "residual": problem}]
    assert check_recurrence(inst).violations == (
        [] if op == "Y" else [{"n": n, "residual": problem}])


@pytest.mark.parametrize("read, error, message", [
    (lambda p: mu_coefficients(-1, p), InvalidParams, "index n = -1 must lie in 0..N = 3"),
    (lambda p: mu_coefficients(p.N + 1, p), InvalidParams, "index n = 4 must lie in 0..N = 3"),
    (lambda p: mu_coefficients(0, p)[0], IndexError, "mu label 0 out of range 1..9"),
    (lambda p: mu_coefficients(0, p)[10], IndexError, "mu label 10 out of range 1..9"),
], ids=["n-below", "n-above", "label-0", "label-10"])
def test_mu_table_refuses_an_index_outside_its_range(canonical, read, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        read(canonical)


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


def test_contiguity_skips_an_invalid_base_instance():
    # A = q^-2 is a basis pole at N = 3: the base instance's own guard, read
    # from `Instance.issues`, makes the check a skip before any shift
    p = QParams(F(1, 2), F(4), F(1, 512), 3)
    report = check_contiguity(Instance(p))
    assert report.status == "skip"
    assert report.skipped == ("base instance invalid for contiguity: "
                              + "; ".join(validate_params(p, p.N).issues()))
    assert report.skipped.startswith("base instance invalid for contiguity: basis_pole")
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


# The five banded checks as they were before their integer kernels: Fraction
# mat-vecs and sums over the values, kept as the oracles of the integer form.

def fraction_gevp(inst):
    p = inst.p
    report = CheckReport(check="gevp", params=p.as_dict())
    fam = inst.family
    x_op, y_op = inst.ops["X"], inst.ops["Y"]
    residuals = []
    for n, u in enumerate(fam.members):
        resid = [a - fam.lambdas[n] * b for a, b in zip(y_op @ u, x_op @ u)]
        worst = max(abs(v) for v in resid)
        residuals.append(frac_str(worst))
        if any(resid):
            report.add_violation(n=n, residual=frac_str(worst))
    report.details["residuals"] = residuals
    report.details["lambdas"] = [frac_str(v) for v in fam.lambdas]
    return report


def fraction_difference_equation(inst):
    p = inst.p
    report = CheckReport(check="difference_equation", params=p.as_dict())
    fam = inst.family
    coeffs = [(*band_coefficients(Operator.Y, Basis.POINT, p, x), qnum(p, x, -1),
               qpow(p, 0, -1) * qnum(p, x)) for x in range(p.N + 1)]
    for n, u in enumerate(fam.members):
        lam = fam.lambdas[n]
        for x, (up, stay, down, diag, drop) in enumerate(coeffs):
            lhs = stay * u[x]
            if x < p.N:
                lhs += up * u[x + 1]
            elif up != 0:
                report.add_violation(n=n, x=x, residual="off-grid raising coefficient nonzero")
                continue
            if x > 0:
                lhs += down * u[x - 1]
            elif down != 0:
                report.add_violation(n=n, x=x, residual="off-grid lowering coefficient nonzero")
                continue
            rhs = lam * diag * u[x]
            if x > 0:
                rhs -= lam * drop * u[x - 1]
            elif drop != 0:
                report.add_violation(n=n, x=x, residual="off-grid [x]_q coefficient nonzero")
                continue
            if lhs != rhs:
                report.add_violation(n=n, x=x, residual=frac_str(lhs - rhs))
    return report


def fraction_three_term(members, mu3, n, N):
    raising, diag, lowering = mu3
    out = [diag * v for v in members[n]]
    if n < N:
        out = [a + raising * v for a, v in zip(out, members[n + 1])]
    elif raising != 0:
        return None, "raising coefficient nonzero at n = N"
    if n > 0:
        out = [a + lowering * v for a, v in zip(out, members[n - 1])]
    elif lowering != 0:
        return None, "lowering coefficient nonzero at n = 0"
    return out, None


def fraction_recurrence(inst):
    p = inst.p
    report = CheckReport(check="recurrence", params=p.as_dict())
    fam = inst.family
    for n in range(p.N + 1):
        mu = gevp.mu_coefficients(n, p)
        lhs, problem = fraction_three_term(fam.members, (mu[1], mu[2], mu[3]), n, p.N)
        if problem:
            report.add_violation(n=n, residual=problem)
            continue
        zside, problem = fraction_three_term(fam.members, (mu[7], mu[8], mu[9]), n, p.N)
        if problem:
            report.add_violation(n=n, residual=problem)
            continue
        for x in range(p.N + 1):
            rhs = -qnum(p, x, -1) * zside[x]
            if lhs[x] != rhs:
                report.add_violation(n=n, x=x, residual=frac_str(lhs[x] - rhs))
    return report


def fraction_tridiagonal_actions(inst):
    p = inst.p
    report = CheckReport(check="tridiagonal_actions", params=p.as_dict())
    fam = inst.family
    table = [gevp.mu_coefficients(n, p) for n in range(p.N + 1)]
    for name, labels in (("X", (1, 2, 3)), ("Y", (4, 5, 6)), ("Z", (7, 8, 9))):
        op = inst.ops[name]
        for n in range(p.N + 1):
            expansion, problem = fraction_three_term(
                fam.members, tuple(table[n][ell] for ell in labels), n, p.N)
            if problem:
                report.add_violation(op=name, n=n, residual=problem)
                continue
            resid = [a - b for a, b in zip(op @ fam.members[n], expansion)]
            if any(resid):
                report.add_violation(op=name, n=n, residual=frac_str(max(abs(v) for v in resid)))
    return report


def fraction_contiguity(inst):
    p = inst.p
    report = CheckReport(check="contiguity", params=p.as_dict())
    shifted = QParams(p.q, p.q * p.A, p.B, p.N)
    for params, tag in ((p, "base"), (shifted, "shifted")):
        issues = validate_params(params, p.N).issues()
        if issues:
            report.skipped = f"{tag} instance invalid for contiguity: " + "; ".join(issues)
            return report
    fam = inst.family
    fam_shift = Instance(shifted).family
    scale = qnum(p, 0, -1)
    report.details["scale"] = frac_str(scale)
    x_op, y_op, z_op = inst.ops["X"], inst.ops["Y"], inst.ops["Z"]
    for n in range(p.N + 1):
        u, u_shift = fam.members[n], fam_shift.members[n]
        lam = fam.lambdas[n]
        resid_x = [a - scale * b for a, b in zip(x_op @ u, u_shift)]
        if any(resid_x):
            report.add_violation(op="X", n=n, residual=frac_str(max(abs(v) for v in resid_x)))
        resid_y = [a - (scale * lam) * b for a, b in zip(y_op @ u, u_shift)]
        if any(resid_y):
            report.add_violation(op="Y", n=n, residual=frac_str(max(abs(v) for v in resid_y)))
        zu = z_op @ u
        for x in range(p.N + 1):
            rhs = -scale / qnum(p, x, -1) * u_shift[x]
            if zu[x] != rhs:
                report.add_violation(op="Z", n=n, x=x, residual=frac_str(zu[x] - rhs))
    return report


BANDED = [
    (check_gevp, fraction_gevp),
    (check_difference_equation, fraction_difference_equation),
    (check_recurrence, fraction_recurrence),
    (check_tridiagonal_actions, fraction_tridiagonal_actions),
    (check_contiguity, fraction_contiguity),
]


QS = [F(1, 2), F(-1, 2), F(2), F(2, 3), F(3, 2), F(-3)]


BUMPS = [1, -1, F(1, 7), F(-5, 3)]


@st.composite
def guarded_instances(draw):
    """A guard-valid instance with A, B signed powers of q (where coefficients
    vanish) or small rationals."""
    q = draw(st.sampled_from(QS))
    base = st.one_of(
        st.builds(lambda s, e: s * q**e, st.sampled_from([1, -1]), st.integers(-6, 6)),
        st.fractions(min_value=-7, max_value=7, max_denominator=7).filter(bool))
    p = QParams(q, draw(base), draw(base), draw(st.integers(0, 5)))
    assume(validate_params(p, p.N).valid)
    return p


@st.composite
def banded_cases(draw):
    """A `guarded_instances` instance and one family entry bumped, or none."""
    p = draw(guarded_instances())
    bump = None
    if draw(st.booleans()):
        bump = (draw(st.integers(0, p.N)), draw(st.integers(0, p.N)),
                draw(st.sampled_from(BUMPS)))
    return p, bump


@settings(max_examples=80, deadline=None)
@given(banded_cases())
def test_integer_checks_report_as_the_fraction_checks(case):
    p, bump = case
    with pytest.MonkeyPatch.context() as mp:
        if bump:
            mp.setattr(brf, "brf_family", bumped_family(p, *bump))
        inst = Instance(p)
        for check, oracle in BANDED:
            assert check(inst).as_dict() == oracle(inst).as_dict()


def bump_v(mp, p, basis, data):
    """Add a `BUMPS` value to one entry of V in `basis`, drawn from `data`:
    in the point basis to the shared matrix, as `build_operator` returns it
    to `brf`; in the phi basis to a coefficient of its band declaration that
    the matrix keeps (stay at column i, or lower at column i >= 1)."""
    delta = data.draw(st.sampled_from(BUMPS))
    if basis is Basis.POINT:
        i, j = data.draw(st.integers(0, p.N)), data.draw(st.integers(0, p.N))
        good = brf.build_operator

        def bumped(which, b, params):
            m = good(which, b, params)
            if (which, b) != (Operator.V, Basis.POINT):
                return m
            rows = m.rows()
            rows[i][j] += delta
            return OpMatrix(rows, b, params)

        mp.setattr(brf, "build_operator", bumped)
    else:
        i, slot = data.draw(st.sampled_from(
            [(n, 1) for n in range(p.N + 1)] + [(n, 2) for n in range(1, p.N + 1)]))
        good = operators._BANDS[(Operator.V, Basis.PHI)]

        def band(params, n):
            c = list(good(params, n))
            if n == i:
                c[slot] += delta
            return tuple(c)

        mp.setitem(operators._BANDS, (Operator.V, Basis.PHI), band)


def report_json(result):
    """A report as its serialized `as_dict`, key order included; an error
    as `outcome` gives it."""
    return json.dumps(result.as_dict()) if isinstance(result, CheckReport) else result


@settings(max_examples=60, deadline=None)
@given(guarded_instances(), st.sampled_from([None, Basis.POINT, Basis.PHI]), st.data())
def test_integer_factorization_reports_as_the_dense_check(p, basis, data):
    # passing, or with one V entry bumped in either basis, the integer-row
    # check writes the report the dense OpMatrix products wrote, residual
    # strings and violation order included
    with pytest.MonkeyPatch.context() as mp:
        if basis is not None:
            bump_v(mp, p, basis, data)
        inst = Instance(p)
        result = outcome(check_factorization, inst)
        assert report_json(result) == report_json(outcome(dense_check_factorization, inst))
    if isinstance(result, CheckReport):
        assert result.status == ("pass" if basis is None else "fail")
        assert [v["basis"] for v in result.violations][:1] == (
            [] if basis is None else [basis.value])


def test_each_banded_check_catches_a_bumped_family_value(canonical, monkeypatch):
    n_bump, x_bump = 2, 1
    monkeypatch.setattr(brf, "brf_family", bumped_family(canonical, n_bump, x_bump, F(1, 1000)))
    inst = Instance(canonical)
    for check, _ in BANDED:
        report = check(inst)
        assert report.status == "fail", report.check
        assert n_bump in {v["n"] for v in report.violations}, report.check
        with_x = [v["x"] for v in report.violations if "x" in v]
        assert not with_x or x_bump in with_x, report.check
    # the x-resolved reports name the bumped point and only the rows it enters
    assert {(v["n"], v["x"]) for v in check_recurrence(inst).violations} == {
        (n, x_bump) for n in (n_bump - 1, n_bump, n_bump + 1)}
    assert {v["n"] for v in check_contiguity(inst).violations} == {n_bump}
    assert ("Z", n_bump, x_bump) in {
        (v["op"], v["n"], v.get("x")) for v in check_contiguity(inst).violations}


def test_a_doubled_row_scale_fails_every_check_that_relates_two_rows(canonical, monkeypatch):
    # U_2 doubled through its row scale alone: gevp and the difference
    # equation are homogeneous in U_n and pass; the checks that relate U_2 to
    # its neighbours, the shifted family, the partners or the phi expansion fail
    good, n = brf.brf_family, 2

    def doubled(p):
        fam = good(p)
        if p != canonical:
            return fam
        rows = list(fam.rows)
        rows[n] = (rows[n][0], 2 * rows[n][1])
        return BRFFamily(tuple(rows), fam.lambdas, p)

    monkeypatch.setattr(brf, "brf_family", doubled)
    inst = Instance(canonical)
    checks = [check for check, _ in BANDED] + [brf.check_biorthogonality,
                                               brf.check_partial_fractions]
    reports = {check.__name__: check(inst) for check in checks}
    assert {name: r.status for name, r in reports.items()} == {
        "check_gevp": "pass", "check_difference_equation": "pass",
        "check_recurrence": "fail", "check_tridiagonal_actions": "fail",
        "check_contiguity": "fail", "check_biorthogonality": "fail",
        "check_partial_fractions": "fail"}
    assert {v["n"] for v in reports["check_recurrence"].violations} == {n - 1, n, n + 1}
    assert {v["n"] for v in reports["check_contiguity"].violations} == {n}
    assert [(v["n"], v["m"]) for v in reports["check_biorthogonality"].violations] == [(n, n)]
    assert [v["n"] for v in reports["check_partial_fractions"].violations] == [n]


def test_passing_entries_build_no_fraction_residual(monkeypatch):
    # a passing (n, x) is an integer comparison: the residual Fraction is
    # built only for a violating entry, by the shared kernel in reports
    def no_residual(*args):
        raise AssertionError("a residual Fraction was built on a passing entry")

    monkeypatch.setattr(reports, "Fraction", no_residual)
    for p in PANEL:
        for check, _ in BANDED:
            assert check(Instance(p)).status == "pass"
