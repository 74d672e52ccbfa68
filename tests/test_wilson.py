import functools
import math
import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qhahn import brf, qcore, wilson
from qhahn.qcore import (
    InvalidParams,
    QHahnError,
    QParams,
    ZeroDenominator,
    frac_str,
    phi_series,
    qpoch,
    validate_params,
)
from qhahn.wilson import (
    HahnParams,
    WilsonParams,
    check_hahn_biorthogonality,
    check_wilson_biorthogonality,
    hahn_h,
    hahn_u,
    hahn_v,
    hahn_weight,
    induced_wilson_params,
    limit_u,
    limit_v,
    qto1_convergence_check,
    wilson_h,
    wilson_limit_check,
    wilson_u,
    wilson_v,
    wilson_weight,
)

from conftest import (
    CANONICAL,
    NORM_REVERSIONS,
    WORKLOAD_SEEDS,
    count_builds,
    former_brf_u,
    former_hahn_row,
    former_partner_family,
    former_series_tables,
    former_wilson_guard,
    former_wilson_norms,
    former_wilson_row,
    former_wilson_weights,
    outcome,
    revert_norm_correction,
    wilson_workload,
)

WILSON_PANEL = [
    WilsonParams(F(1, 2), F(3), F(5), F(7), F(11), 2),
    WilsonParams(F(1, 2), F(3), F(5), F(7), F(11), 4),
    WilsonParams(F(2, 3), F(5), F(7), F(11), F(13), 3),
    WilsonParams(F(1, 2), F(3), F(5), F(7), F(11), 0),
]
HAHN_PANEL = [
    HahnParams(F(-5), F(9), 3),
    HahnParams(F(-7, 2), F(17, 2), 4),
    HahnParams(F(-7), F(12), 6),
]
LIMIT_INSTANCE = QParams(F(1, 2), F(8), F(1, 32), 2)


def test_parameter_constraints_hold_by_construction():
    for wp in WILSON_PANEL:
        assert wp.qa * wp.qb == wp.q ** -wp.N
        assert wp.qa * wp.qb * wp.qc * wp.qd * wp.qe * wp.qf == wp.q


def test_u0_and_v0_are_one():
    wp = WILSON_PANEL[0]
    assert wilson_u(0, wp) == wilson_v(0, wp) == [1] * (wp.N + 1)


def test_wilson_biorthogonality_exact():
    for wp in WILSON_PANEL:
        report = check_wilson_biorthogonality(wp)
        assert report.status == "pass", report.violations[:2]


def test_wilson_norms_are_nonzero():
    wp = WILSON_PANEL[0]
    for n in range(wp.N + 1):
        assert wilson_h(n, wp) != 0


def test_n0_instance_reduces_to_total_mass():
    # at N = 0 the only identity is w_0 = h_0, with u_0 = v_0 = 1
    wp = WILSON_PANEL[3]
    assert wilson_weight(0, wp) == wilson_h(0, wp)


def test_gram_diagonal_matches_h_directly():
    wp = WILSON_PANEL[0]
    for n in range(wp.N + 1):
        gram = sum(wilson_weight(x, wp) * u * v
                   for x, (u, v) in enumerate(zip(wilson_u(n, wp), wilson_v(n, wp))))
        assert gram == wilson_h(n, wp)


@pytest.mark.parametrize("knob", ["include_qn", "squared_head", "anchored_tail"])
def test_each_norm_correction_is_load_bearing(knob, monkeypatch):
    # reverting any one of the three corrections must break biorthogonality
    wp = WILSON_PANEL[0]
    revert_norm_correction(monkeypatch, knob)
    report = check_wilson_biorthogonality(wp)
    assert report.status == "fail"


def test_uncorrected_norms_differ_pointwise():
    wp = WILSON_PANEL[0]
    n = 1
    good = wilson_h(n, wp)
    for factor in NORM_REVERSIONS.values():
        assert good * factor(n, wp) != good


def test_wilson_limit_decays_geometrically():
    report = wilson_limit_check(LIMIT_INSTANCE, [8, 12, 16, 20], F(3))
    assert report.status == "pass"
    assert float(report.details["ratio_bound_float"]) < 1
    devs = [F(v) for v in report.details["deviations"].values()]
    assert all(a > b for a, b in zip(devs, devs[1:]))


def test_wilson_limit_canonical_instance_further_out(canonical):
    # the canonical instance carries a larger constant; further along the
    # sequence it shows the same q^4 ratio
    report = wilson_limit_check(canonical, [16, 20, 24, 28], F(3))
    assert report.status == "pass"
    assert float(report.details["ratio_bound_float"]) < F(1, 10)


LONG_M_LIST = [8, 12, 16, 20, 24, 28, 40]


def test_wilson_limit_rate_passes_on_the_true_targets():
    # the last ratio is about q^12 = 1/4096, well inside the bound q^6
    report = wilson_limit_check(LIMIT_INSTANCE, LONG_M_LIST, F(3))
    assert report.status == "pass"


def test_wilson_limit_rate_catches_a_target_off_by_a_constant(monkeypatch):
    # h_1 + 1/1000 still leaves a strictly decreasing deviation sequence,
    # but it stalls at 1/1000: the last ratio is near 1, above |q|^6
    good = wilson.bare_norm
    monkeypatch.setattr(wilson, "bare_norm", lambda n, q, A, B, N: good(n, q, A, B, N)
                        + (F(1, 1000) if n == 1 else 0))
    report = wilson_limit_check(LIMIT_INSTANCE, LONG_M_LIST, F(3))
    assert report.status == "fail"
    assert [v["m"] for v in report.violations] == [40]
    assert report.violations[0]["residual"].startswith("last ratio")
    assert F(report.details["ratio_bound"]) < 1


def test_wilson_limit_catches_a_path_that_does_not_move(monkeypatch):
    # every m given the first m's instance: the deviation stays where it was
    first = induced_wilson_params(LIMIT_INSTANCE, 8, F(3))
    monkeypatch.setattr(wilson, "induced_wilson_params", lambda p, m, qc: first)
    report = wilson_limit_check(LIMIT_INSTANCE, [8, 12, 16, 20], F(3))
    assert report.violations == [
        {"m": m, "residual": "deviation failed to decrease"} for m in (12, 16, 20)]


def test_wilson_limit_requires_shrinking_q():
    grow = QParams(F(3, 2), F(32, 243), F(19683, 512), 3)
    with pytest.raises(InvalidParams):
        wilson_limit_check(grow, [8, 12], F(3))


def test_wilson_limit_rejects_a_guard_flagged_instance():
    # A = 8 = q^-3 is a basis pole at N = 4: named by the guard, not a
    # ZeroDenominator from inside a limit target
    with pytest.raises(InvalidParams, match="basis_pole"):
        wilson_limit_check(QParams(F(1, 2), F(8), F(1, 32), 4), [8, 12], F(3))


def test_wilson_limit_rejects_a_reflected_basis_pole():
    # B/A = q^-2: limit_v is the series of the reflected instance, whose
    # basis pole lands on the grid
    with pytest.raises(InvalidParams, match="reflected_basis_pole"):
        wilson_limit_check(QParams(F(1, 2), F(3), F(12), 3), [8, 12], F(3))


@pytest.mark.parametrize("make", [
    lambda N: QParams(F(1, 2), F(3), F(1, 5), N),
    lambda N: WilsonParams(F(1, 2), F(3), F(5), F(7), F(11), N),
    lambda N: HahnParams(F(-5), F(9), N),
], ids=["QParams", "WilsonParams", "HahnParams"])
def test_parameter_classes_reject_a_bool_grid_size(make):
    make(1)
    for N in (True, False):
        with pytest.raises(InvalidParams, match="N must be a nonnegative integer"):
            make(N)


@pytest.mark.parametrize("make, message", [
    (lambda: QParams(F(1, 2), F(0), F(1, 5), 2), "A and B must be nonzero"),
    (lambda: QParams(F(1, 2), F(3), F(0), 2), "A and B must be nonzero"),
    (lambda: WilsonParams(F(1), F(3), F(5), F(7), F(11), 2), "q must avoid 0, 1, -1"),
    (lambda: WilsonParams(F(1, 2), F(3), F(0), F(7), F(11), 2), "parameter values must be nonzero"),
], ids=["QParams-A", "QParams-B", "WilsonParams-q", "WilsonParams-qc"])
def test_parameter_classes_reject_a_degenerate_value(make, message):
    with pytest.raises(InvalidParams, match=f"^{message}$"):
        make()


def test_wilson_limit_skips_degenerate_members():
    # m = 0 makes qa = 1, a degenerate head; with fewer than two valid
    # members left the check reports a skip instead of a verdict
    report = wilson_limit_check(LIMIT_INSTANCE, [0, 8], F(3))
    assert report.status == "skip"


def test_induced_params_satisfy_wilson_constraints():
    for m in (8, 12):
        wp = induced_wilson_params(CANONICAL, m, F(3))
        assert wp.qa == CANONICAL.q ** -m
        assert wp.qa * wp.qb == wp.q ** -wp.N
        assert wp.qa * wp.qb * wp.qc * wp.qd * wp.qe * wp.qf == wp.q


def test_limit_targets_match_brf_series():
    for p in (CANONICAL, LIMIT_INSTANCE):
        for n in range(p.N + 1):
            pref = brf.u_prefactor(n, p)
            assert [pref * y for y in limit_u(n, p.q, p.A, p.B, p.N)] == list(brf.brf_u(n, p))


def test_limit_v_is_reflected_u():
    for p in (CANONICAL, LIMIT_INSTANCE):
        refl = brf.reflected_params(p)
        for n in range(p.N + 1):
            assert limit_v(n, p.q, p.A, p.B, p.N) == limit_u(
                n, refl.q, refl.A, refl.B, refl.N)[::-1]


def test_limit_u0_is_one_even_in_floating_point():
    # the n = 0 member is identically 1, so its q -> 1 deviation vanishes
    # exactly at every h
    with mpmath.workprec(60):
        q = mpmath.exp(mpmath.mpf(1) / 8)
        assert limit_u(0, q, q**-5, q**9, 2) == [1] * 3


def former_limit_rows(n, q, A, B, N):
    """limit_u and limit_v as they were summed before their factored form,
    one `phi_series` per grid point x, each as its values or ZeroDenominator."""
    top, rows = [q ** (-n), q ** (n - N) * B], []
    for num, den, z in ((lambda x: q ** (-x), lambda x: q ** (-x) * A, A / B),
                        (lambda x: q ** (x - N), lambda x: q ** (x - N + 2) * B / A, q)):
        try:
            rows.append([phi_series([*top, num(x)], [q ** (-N), den(x)], z, q, n + 1)
                         for x in range(N + 1)])
        except ZeroDenominator:
            rows.append(ZeroDenominator)
    return rows


def limit_rows(n, q, A, B, N):
    """limit_u and limit_v, each as its values or ZeroDenominator."""
    rows = []
    for target in (limit_u, limit_v):
        try:
            rows.append(target(n, q, A, B, N))
        except ZeroDenominator:
            rows.append(ZeroDenominator)
    return rows


@st.composite
def limit_arguments(draw):
    """(n, q, A, B, N) with q of either sign, n = 0..N, and A and B/A either
    any rational or a power of q, which puts a zero factor on some offset."""
    q = draw(st.fractions(-3, 3, max_denominator=5).filter(lambda v: v not in (0, 1, -1)))
    N = draw(st.integers(0, 4))
    factor = st.one_of(st.integers(-N - 3, N + 3).map(lambda j: q**j),
                       st.fractions(-9, 9, max_denominator=7).filter(bool))
    A = draw(factor)
    return draw(st.integers(0, N)), q, A, A * draw(factor), N


@settings(max_examples=300, deadline=None)
@given(limit_arguments())
@example((0, F(-1, 2), F(3), F(1, 5), 3))
@example((2, F(1, 2), F(4), F(1, 5), 3))  # A = q^-2: 1 - q^(k-x) A vanishes at x = k + 2
def test_factored_limit_targets_are_the_phi_series_sums(arguments):
    # every value exactly, over x < n and x >= n, and ZeroDenominator where a
    # phi_series sum of the row raises it
    assert limit_rows(*arguments) == former_limit_rows(*arguments)


@pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
def test_factored_limit_targets_are_the_phi_series_sums_at_workload_size(seed):
    p = wilson_workload(seed)[2]
    for n in range(p.N + 1):
        assert limit_rows(n, p.q, p.A, p.B, p.N) == former_limit_rows(n, p.q, p.A, p.B, p.N)


def qto1_limit_rows(alpha, beta, N, h, prec):
    """The factored and the phi_series limit rows at q = e^h, A = q^alpha, B = q^beta,
    as `_qto1_table` evaluates them, with 2^-prec."""
    with mpmath.workprec(prec):
        q = mpmath.exp(mpmath.mpf(h.numerator) / h.denominator)
        args = (q, q**alpha, q**beta, N)
        return ([limit_rows(n, *args) for n in range(N + 1)],
                [former_limit_rows(n, *args) for n in range(N + 1)], mpmath.eps)


def worst_ulps(new, old, eps) -> float:
    """max |a - b| / max(|b|, 1) over the values, in units of eps."""
    return max(float(abs(a - b) / max(abs(b), 1) / eps)
               for rows, former in zip(new, old) for row, row0 in zip(rows, former)
               for a, b in zip(row, row0))


@pytest.mark.parametrize("prec", [53, 200])
def test_factored_limit_targets_agree_with_phi_series_on_the_qto1_instance(prec):
    # the shipped q -> 1 instance at its h_list: a few ulps (22 at most
    # when measured); the check reports its deviations to 8 digits
    for h in (F(1, 8), F(1, 16), F(1, 32)):
        assert worst_ulps(*qto1_limit_rows(-3, 5, 2, h, prec)) <= 32


@settings(max_examples=60, deadline=None)
@given(st.integers(-8, 8), st.integers(-8, 12), st.integers(0, 3),
       st.sampled_from([F(1, 8), F(1, 16), F(1, 32)]), st.sampled_from([53, 200]))
def test_factored_limit_targets_agree_with_phi_series_over_mpmath(alpha, beta, N, h, prec):
    # on guarded integer exponents the two orders differ by the roundoff of
    # the factors 1 - q^d, d h small, and of cancelling terms: at most 2^10
    # ulps of max(|value|, 1) (710 when measured at N = 3)
    try:
        HahnParams(alpha, beta, N)
    except InvalidParams:
        assume(False)
    assert worst_ulps(*qto1_limit_rows(alpha, beta, N, h, prec)) <= 2**10


@pytest.mark.parametrize("target", ["limit_u", "limit_v"])
def test_wilson_limit_catches_a_target_with_its_x_part_moved_by_one(monkeypatch, target):
    # sigma_{d+1} in place of sigma_d, that is (a, b) -> (q a, q b): the same
    # row at shift 0, and a deviation that stalls at shift 1
    def moved(shift):
        def row(n, q, A, B, N):
            top, den, s = [q ** (-n), q ** (n - N) * B], [q ** (-N)], q**shift
            if target == "limit_u":
                return wilson._limit_row(n, q, N, A / B, top, den, (s, s * A), -1)
            return wilson._limit_row(n, q, N, q, top, den,
                                     (s * q ** (-N), s * q ** (2 - N) * B / A), 1)
        return row

    p = LIMIT_INSTANCE
    for n in range(p.N + 1):
        assert moved(0)(n, p.q, p.A, p.B, p.N) == getattr(wilson, target)(n, p.q, p.A, p.B, p.N)
    monkeypatch.setattr(wilson, target, moved(1))
    report = wilson_limit_check(p, LONG_M_LIST, F(3))
    assert report.status == "fail"


def test_hahn_biorthogonality_exact():
    for hp in HAHN_PANEL:
        assert check_hahn_biorthogonality(hp).status == "pass"


def test_hahn_biorthogonality_catches_a_wrong_norm(monkeypatch):
    # one closed-form norm off by 1 fails the diagonal entry (1, 1) only
    monkeypatch.setattr(
        wilson, "hahn_h", lambda n, hp: hahn_h(n, hp) + (1 if n == 1 else 0))
    report = check_hahn_biorthogonality(HAHN_PANEL[0])
    assert report.status == "fail"
    assert report.violations == [{"n": 1, "m": 1, "residual": "-1/1"}]


def test_hahn_biorthogonality_catches_a_mixed_partner(monkeypatch):
    # v_3 + v_1 pairs with u_1 to h_1: one off-diagonal violation
    hp = HAHN_PANEL[0]
    good = wilson._hahn_rows
    monkeypatch.setattr(
        wilson, "_hahn_rows",
        lambda m, hp, i: [(a * d + b * c, b * d) for (a, b), (c, d) in zip(
            good(m, hp, i), good(1, hp, i) if (m, i) == (3, 1) else [(0, 1)] * (hp.N + 1))])
    report = check_hahn_biorthogonality(hp)
    assert report.status == "fail"
    assert report.violations == [{"n": 1, "m": 3, "residual": frac_str(hahn_h(1, hp))}]


@functools.cache
def _former_scans(N, a=None, c=None):
    """The message of the loops HahnParams ran before its closed forms, norm
    aside, for a or for c = b - a alone: the weight scan, which reads c only,
    then the series scan over x, n <= N and j < n of (a - x) + j and of
    (x - N + b - a + 2) + j."""
    if c is not None:
        for x in range(N + 1):
            if x > 0 and (c - N + 2) + (x - 1) == 0:
                return "weight denominator vanishes"
    for n in range(N + 1):
        for x in range(N + 1):
            for j in range(n):
                if ((a is not None and (a - x) + j == 0)
                        or (c is not None and (x - N + c + 2) + j == 0)):
                    return "series denominator vanishes"
    return None


@functools.cache
def _former_norm_scan(N, c=None, b=None):
    """The former norm test, run after the scans above, for c = b - a or for
    b alone: a zero factor of (a - b - 1)_N = (-c - 1)_N or of (1 + b - N)_{2N}."""
    if c is not None and any(-c - 1 + j == 0 for j in range(N)):
        return "norm denominator vanishes"
    if b is not None and any(1 + b - N + j == 0 for j in range(2 * N)):
        return "norm denominator vanishes"
    return None


def test_hahn_guard_closed_forms_match_the_former_scans():
    values = sorted({F(k, d) for k in range(-24, 25) for d in (1, 2, 3)})
    mismatches = []
    for N in range(7):
        for a in values:
            for b in values:
                try:
                    HahnParams(a, b, N)
                    got = None
                except InvalidParams as exc:
                    got = str(exc)
                expected = (_former_scans(N, c=b - a) or _former_scans(N, a=a)
                            or _former_norm_scan(N, c=b - a) or _former_norm_scan(N, b=b))
                if got != expected:
                    mismatches.append((a, b, N, got))
    assert mismatches == []


def _former_wilson_guard(q, qa, qc, qd, qe, N):
    """The denominator guard WilsonParams ran before its lookup table, whose
    series scan tested every base of every (n, x) against q^-j for each j < n."""
    qb, qf = q**-N / qa, q ** (N + 1) / (qc * qd * qe)
    if qa * qa == 1:
        return "weight head 1 - qa^2 vanishes"
    for _, den_base in wilson._weight_pairs(q, qa, qb, qc, qd, qe, qf):
        for j in range(N):
            if den_base * q**j == 1:
                return f"weight denominator vanishes at x={j + 1}"
    wp = _unguarded(WilsonParams, q=q, qa=qa, qc=qc, qd=qd, qe=qe, N=N)
    for role, (a, e) in enumerate(((qa, qe), (qb, qf))):
        if a == e:
            return "very-well-poised head 1 - qa/qe vanishes"
        for n in range(N + 1):
            for x in range(N + 1):
                _, den = _bases_at(wp, role, n, x)
                for base in den:
                    for j in range(n):
                        if base * q**j == 1:
                            return f"series denominator vanishes at n={n}, x={x}, k={j + 1}"
    norm_den = [(base, N) for base in wilson._h_den_bases(q, qa, qb, qc, qd, qe, qf)]
    for n in range(N + 1):
        norm_den += wilson._h_tail_den(q, qa, qb, qe, qf, n)
    if any(qpoch(base, length, q) == 0 for base, length in norm_den):
        return "norm denominator vanishes"
    return None


def test_wilson_guard_lookup_matches_the_former_scan():
    # powers of q for qa, qc, qe put the series bases on q^-j at several
    # (n, x, k), and the weight tests before the scan fire too
    outcomes, mismatches = Counter(), []
    for q in (F(1, 2), F(-3, 2)):
        powers = [q**e for e in range(-3, 4)]
        for N in (1, 3):
            for qa in powers:
                for qc in (*powers[::2], F(3)):
                    for qe in (*powers[1::2], F(-5)):
                        try:
                            WilsonParams(q, qa, qc, F(7), qe, N)
                            got = None
                        except InvalidParams as exc:
                            got = str(exc)
                        if got != _former_wilson_guard(q, qa, qc, F(7), qe, N):
                            mismatches.append((q, qa, qc, qe, N, got))
                        outcomes[got] += 1
    assert mismatches == []
    assert outcomes[None] and {
        "series denominator vanishes at n=1, x=2, k=1",
        "series denominator vanishes at n=3, x=0, k=3"} <= set(outcomes)


def test_hahn_u0_is_one():
    for hp in HAHN_PANEL:
        assert hahn_u(0, hp) == [1] * (hp.N + 1)


def test_hahn_total_mass_is_h0():
    for hp in HAHN_PANEL:
        total = sum(hahn_weight(x, hp) for x in range(hp.N + 1))
        assert total == hahn_h(0, hp)
        assert total != 1  # the q = 1 weight is not normalized


def test_hahn_values_are_rational_and_finite():
    hp = HAHN_PANEL[0]
    for n in range(hp.N + 1):
        assert all(isinstance(y, F) for y in hahn_u(n, hp) + hahn_v(n, hp))


def test_qto1_convergence_order_one():
    hp = HahnParams(F(-3), F(5), 2)
    report = qto1_convergence_check(hp, [F(1, 8), F(1, 16), F(1, 32)])
    assert report.status == "pass"
    devs = [float(v) for v in report.details["deviations"].values()]
    assert all(a > b for a, b in zip(devs, devs[1:]))
    for order in report.details["orders"]:
        assert 0.5 <= order <= 2


def test_qto1_orders_march_to_linear():
    hp = HahnParams(F(-5), F(9), 3)
    report = qto1_convergence_check(hp, [F(1, 16), F(1, 32), F(1, 64), F(1, 128)])
    assert report.status == "pass"
    orders = report.details["orders"]
    assert all(b > a for a, b in zip(orders, orders[1:]))
    assert abs(orders[-1] - 1) < 0.1


@pytest.mark.parametrize("deviation, residual", [
    (lambda h: mpmath.mpf(1) / 1000, "deviation failed to decrease"),
    (lambda h: (mpmath.mpf(h.numerator) / h.denominator) ** 3,
     "measured order 3.000 outside [0.5, 2]"),
], ids=["stalls", "cubic"])
def test_qto1_catches_a_deviation_that_stalls_or_scales_like_h_cubed(monkeypatch, deviation,
                                                                      residual):
    # q-side values off the exact q = 1 ones by deviation(h), the same at
    # both precisions: a constant offset never decreases, and an h^3 one
    # has order 3, outside the window about 1
    hp = HahnParams(F(-3), F(5), 2)
    exact = wilson._flat(wilson._table(hahn_weight, hahn_u, hahn_v, hahn_h, hp.N, hp))
    monkeypatch.setattr(wilson, "_qto1_table", lambda hp, h, prec: [
        mpmath.mpf(v.numerator) / v.denominator + deviation(h) for v in exact])
    report = qto1_convergence_check(hp, [F(1, 8), F(1, 16), F(1, 32)])
    assert report.violations == [{"h": h, "residual": residual} for h in ("1/16", "1/32")]


def test_qto1_requires_integer_exponents():
    with pytest.raises(InvalidParams):
        qto1_convergence_check(HahnParams(F(-7, 2), F(17, 2), 4), [F(1, 8), F(1, 16)])


def test_qto1_requires_positive_h():
    with pytest.raises(InvalidParams):
        qto1_convergence_check(HahnParams(F(-3), F(5), 2), [F(1, 8), F(-1, 16)])


@pytest.mark.parametrize("h_list", [[], [F(1, 8)]], ids=["empty", "one"])
def test_qto1_with_fewer_than_two_h_values_is_a_skip(h_list):
    # no pair of deviations, so no order: the check must not pass vacuously
    report = qto1_convergence_check(HahnParams(F(-3), F(5), 2), h_list)
    assert report.status == "skip"
    assert report.skipped == "fewer than two h values to measure an order"


def test_qto1_precision_loss_is_a_violation_left_out_of_the_fit():
    # at h = 10^-12 the 53-bit roundoff swamps the deviation being measured
    hp = HahnParams(F(-3), F(5), 2)
    report = qto1_convergence_check(hp, [F(1, 8), F(1, 10**12)])
    assert report.status == "fail"
    assert [v["h"] for v in report.violations] == ["1/1000000000000"]
    assert report.violations[0]["residual"].startswith("precision loss: roundoff")
    assert list(report.details["deviations"]) == ["1/8"]
    assert report.details["orders"] == []


def _bases_at(wp, role, n, x):
    """The declared 10phi9 bases of u_n (role 0) or v_n (role 1) at (n, x),
    as `phi_series` takes them."""
    _, *bases = wp._series_bases[role]
    return tuple([c * wp.q ** (dn * n + dx * x) for c, dn, dx in b] for b in bases)


def _u_value(wp, role, n, x):
    """The 10phi9 as (S(q) - h S(q^3)) / (1 - h), h = qa/qe, where S(z) is the
    `phi_series` over the declared bases: term by term this is the
    very-well-poised factor (1 - h q^{2k}) / (1 - h) times q^k."""
    q, h = wp.q, wp.qa / wp.qe if role == 0 else wp.qb / wp.qf
    num, den = _bases_at(wp, role, n, x)
    return (phi_series(num, den, q, q, n + 1) - h * phi_series(num, den, q**3, q, n + 1)) / (1 - h)


def _u_value_direct(wp, role, n, x):
    """The 10phi9 summed term by term, every Pochhammer symbol rebuilt."""
    q = wp.q
    head = wp.qa / wp.qe if role == 0 else wp.qb / wp.qf
    head_den = 1 - head
    if head_den == 0:
        raise ZeroDenominator("very-well-poised head vanishes")
    num_bases, den_bases = _bases_at(wp, role, n, x)
    total = q * 0
    for k in range(n + 1):
        den = qpoch(q, k, q)
        for base in den_bases:
            den = den * qpoch(base, k, q)
        if den == 0:
            raise ZeroDenominator(f"series denominator vanishes at k={k}")
        num = (1 - head * q ** (2 * k)) / head_den * q**k
        for base in num_bases:
            num = num * qpoch(base, k, q)
        total = total + num / den
    return total


def _hahn_parameters(hp, n, x):
    """The 3F2 top and bottom parameters of u_n(x) and of its partner v_n(x)."""
    a, b, N = hp.alpha, hp.beta, hp.N
    return (([-n, n + b - N, -x], [-N, a - x]),
            ([-n, n + b - N, x - N], [-N, x - N + b - a + 2]))


def _f32(top, bottom, terms):
    """The 3F2 by a running term, multiplied by prod (t + k) / ((k + 1) prod (b + k))."""
    total = term = F(1)
    for k in range(terms - 1):
        den = (k + 1) * math.prod(b + k for b in bottom)
        if den == 0:
            raise ZeroDenominator(f"series denominator vanishes at k={k + 1}")
        term = term * math.prod(t + k for t in top) / den
        total += term
    return total


def _f32_direct(top, bottom, terms):
    """The 3F2 summed term by term, every rising factorial rebuilt."""
    total = F(0)
    for k in range(terms):
        den = wilson._rising(1, k)
        for b in bottom:
            den = den * wilson._rising(b, k)
        if den == 0:
            raise ZeroDenominator(f"series denominator vanishes at k={k}")
        num = F(1)
        for t in top:
            num = num * wilson._rising(t, k)
        total = total + num / den
    return total


def assert_wilson_rows_match_the_oracles(wp):
    grid = range(wp.N + 1)
    for role, row in enumerate((wilson_u, wilson_v)):
        for n in grid:
            got = row(n, wp)
            assert got == [_u_value(wp, role, n, x) for x in grid], (wp, n)
            assert got == [_u_value_direct(wp, role, n, x) for x in grid], (wp, n)


def assert_hahn_rows_match_the_oracles(hp):
    grid = range(hp.N + 1)
    for which, row in enumerate((hahn_u, hahn_v)):
        for n in grid:
            got = row(n, hp)
            for oracle in (_f32, _f32_direct):
                assert got == [oracle(*_hahn_parameters(hp, n, x)[which], n + 1)
                               for x in grid], (hp, n)


small_rationals = st.builds(F, st.integers(-13, 13).filter(bool), st.integers(1, 5))


@st.composite
def wilson_params(draw):
    q = draw(st.sampled_from([F(1, 2), F(-1, 2), F(2, 3), F(3, 2), F(-3, 5)]))
    qa, qc, qd, qe = (draw(small_rationals) for _ in range(4))
    try:
        return WilsonParams(q, qa, qc, qd, qe, draw(st.integers(1, 4)))
    except InvalidParams:
        assume(False)


@st.composite
def hahn_params(draw):
    try:
        return HahnParams(draw(small_rationals), draw(small_rationals), draw(st.integers(1, 6)))
    except InvalidParams:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(wilson_params())
def test_wilson_series_equal_the_direct_term_sum(wp):
    assert_wilson_rows_match_the_oracles(wp)


@settings(max_examples=40, deadline=None)
@given(hahn_params())
def test_hahn_series_equal_the_direct_term_sum(hp):
    assert_hahn_rows_match_the_oracles(hp)


def test_rows_equal_both_oracles_at_workload_size():
    # multi-word values: a 10phi9 at N = 10 and a Hahn 3F2 at N = 16
    assert_wilson_rows_match_the_oracles(WilsonParams(F(1, 2), F(-3), F(5), F(-7), F(11), 10))
    assert_hahn_rows_match_the_oracles(HahnParams(F(-7, 2), F(27, 2), 16))


@pytest.mark.parametrize("m", range(8, 21))
def test_rows_equal_both_oracles_on_the_limit_path(m):
    # qa = q^-m is tall: the integer pairs of the kernel carry big numbers
    assert_wilson_rows_match_the_oracles(induced_wilson_params(LIMIT_INSTANCE, m, F(3)))


def _unguarded(cls, **fields):
    """An instance of a frozen parameter class built past its guard."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


VANISHING_DENOMINATORS = [
    # qa qc = q^-1: the constant factor 1 - qa qc q^k vanishes at k = 1
    (wilson_u, _unguarded(WilsonParams, q=F(1, 2), qa=F(3), qc=F(2, 3), qd=F(7), qe=F(11), N=3), 2),
    # qa/qe = q^-2: the x-part 1 - q^{1+k+x} qa/qe vanishes at k + x = 1
    (wilson_u, _unguarded(WilsonParams, q=F(1, 2), qa=F(4), qc=F(5), qd=F(7), qe=F(1), N=3), 1),
    # qb qc = q^-1 in the partner's roles
    (wilson_v, _unguarded(WilsonParams, q=F(1, 2), qa=F(3), qc=F(3, 4), qd=F(7), qe=F(11), N=3), 2),
    # alpha = 2: the bottom alpha - x + k vanishes at x = 2, k = 0
    (hahn_u, _unguarded(HahnParams, alpha=F(2), beta=F(17, 2), N=3), 1),
    # beta = alpha: the bottom x - N + 2 + k vanishes at x = 1, k = 0
    (hahn_v, _unguarded(HahnParams, alpha=F(1, 2), beta=F(1, 2), N=3), 1),
    # A = q^-1: the bottom 1 - A q^{k-x} of U_n's 3phi2 vanishes at k - x = 1
    (brf.brf_u, QParams(F(1, 2), F(2), F(1, 5), 3), 2),
]
VANISHING_IDS = ["wilson_u-constant", "wilson_u-x-part", "wilson_v-constant", "hahn_u", "hahn_v",
                 "brf_u"]

# Each row function and its `former_series_rows` oracle, as (n, params) -> values.
FORMER_ROWS = {
    wilson_u: lambda n, wp: former_wilson_row(n, wp, 0),
    wilson_v: lambda n, wp: former_wilson_row(n, wp, 1),
    hahn_u: lambda n, hp: former_hahn_row(n, hp, 0),
    hahn_v: lambda n, hp: former_hahn_row(n, hp, 1),
    brf.brf_u: former_brf_u,
}


@pytest.mark.parametrize("row, params, n", VANISHING_DENOMINATORS, ids=VANISHING_IDS)
def test_a_vanishing_denominator_is_a_zero_denominator(row, params, n):
    # the guards reject these instances; past them, a tabulated denominator
    # that vanishes for some k < n raises ZeroDenominator, not ZeroDivisionError,
    # and the row below, which never reaches that k, is still summed
    with pytest.raises(ZeroDenominator, match="series denominator vanishes"):
        row(n, params)
    assert len(list(row(n - 1, params))) == params.N + 1


@pytest.mark.parametrize("row, params, n", VANISHING_DENOMINATORS, ids=VANISHING_IDS)
def test_a_vanishing_denominator_raises_the_former_kernels_message(row, params, n):
    # the row that reads the vanishing factor raises the per-row kernel's
    # exact message, and the row below has its values
    expected = outcome(FORMER_ROWS[row], n, params)
    assert expected[0] is ZeroDenominator
    assert outcome(row, n, params) == expected
    assert list(row(n - 1, params)) == FORMER_ROWS[row](n - 1, params)


def seeded_qparams(seed: int, q: F, N: int) -> QParams:
    """A generic q-Hahn instance drawn the way the benchmark draws its
    `large_n` one (A, B signed ratios of distinct odd primes), at a given q."""
    rng = random.Random(seed)
    while True:
        a, b = rng.sample((3, 5, 7, 11), 2)
        p = QParams(q, F(rng.choice((1, -1)) * a), F(rng.choice((1, -1)), b), N)
        if validate_params(p, N).valid:
            return p


@pytest.mark.parametrize("q", [F(1, 2), F(-1, 2), F(2), F(-2)], ids=str)
@pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
def test_qhahn_rows_equal_the_former_kernel_at_workload_size(seed, q):
    # every row of U_n and of the partner family at N = 24, as equal Fractions
    p = seeded_qparams(seed, q, 24)
    assert [list(brf.brf_u(n, p)) for n in range(p.N + 1)] == [
        former_brf_u(n, p) for n in range(p.N + 1)]
    assert [list(v) for v in brf.partner_family(p).members] == former_partner_family(p)


@pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
def test_wilson_and_hahn_rows_equal_the_former_kernel_at_workload_size(seed):
    # the benchmark's 10phi9 (N = 10) and Hahn (N = 16) instances and its
    # limit path at m = 8..20
    wps, hps, limit, _, qc = wilson_workload(seed)
    for wp in wps + [induced_wilson_params(limit, m, qc) for m in range(8, 21)]:
        for row in (wilson_u, wilson_v):
            for n in range(wp.N + 1):
                assert row(n, wp) == FORMER_ROWS[row](n, wp), (wp, n)
    for hp in hps:
        for row in (hahn_u, hahn_v):
            for n in range(hp.N + 1):
                assert row(n, hp) == FORMER_ROWS[row](n, hp), (hp, n)


QHAHN_ROWS = [CANONICAL, QParams(F(1, 2), F(-5), F(1, 7), 6),
              QParams(F(-2, 3), F(7, 3), F(5, 11), 5), QParams(F(2), F(-3), F(1, 5), 4)]


def former_qhahn_row(n, p):
    """Row n of U_n's 3phi2 at p, its prefactor divided out again."""
    return [v / brf.u_prefactor(n, p) for v in former_brf_u(n, p)]


# (label, series tables, N, row n of the series at scale 1 by `former_series_rows`)
SERIES_CASES = [
    *[(f"q-Hahn {p}", p._row_tables, p.N, functools.partial(former_qhahn_row, p=p))
      for p in QHAHN_ROWS],
    *[(f"reflected {p}", r._row_tables, p.N, functools.partial(former_qhahn_row, p=r))
      for p in QHAHN_ROWS for r in [brf.reflected_params(p)]],
    *[(f"10phi9 role {role} {wp}", wp._row_tables[role], wp.N,
       lambda n, wp=wp, role=role: [(1 - wp._series_bases[role][0]) * v
                                    for v in former_wilson_row(n, wp, role)])
      for wp in WILSON_PANEL for role in (0, 1)],
    *[(f"Hahn role {role} {hp}", hp._row_tables[role], hp.N,
       functools.partial(former_hahn_row, hp=hp, role=role))
      for hp in HAHN_PANEL for role in (0, 1)],
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SERIES_CASES), st.integers(0, 6),
       st.one_of(st.just(F(0)), st.fractions(min_value=-9, max_value=9, max_denominator=9)))
@example(SERIES_CASES[0], 0, F(-2, 3))  # n = 0 and a negative scale
@example(SERIES_CASES[-1], 5, F(0))  # a zero row
def test_the_kernel_row_form_is_the_content_free_former_row(case, k, scale):
    # the unreduced pairs of `_series_rows`, reduced once per row, are the
    # content-free form (ints, s), gcd(ints) = 1 and s > 0, of the former
    # kernel's Fractions; a zero row is all zeros over some s > 0
    _, tables, N, former = case
    n = k % (N + 1)
    ints, s = qcore._row_form(qcore._series_rows(tables, n, scale))
    values = [scale * v for v in former(n)]
    d = math.lcm(*(v.denominator for v in values))
    nums = [(v * d).numerator for v in values]
    c = math.gcd(*nums)
    if c:
        assert (ints, s) == ([a // c for a in nums], F(c, d))
    else:
        assert ints == nums and s > 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(QHAHN_ROWS + WILSON_PANEL + HAHN_PANEL), st.integers(0, 6))
def test_the_fraction_edges_return_the_former_values(params, k):
    # the API edges that form Fractions from the pairs: U_n, the partner
    # family's members, and the u and v rows of the 10phi9 and of the Hahn 3F2
    n = k % (params.N + 1)
    if isinstance(params, QParams):
        assert list(brf.brf_u(n, params)) == former_brf_u(n, params)
        assert [list(v) for v in brf.partner_family(params).members] == (
            former_partner_family(params))
    else:
        rows = (wilson_u, wilson_v) if isinstance(params, WilsonParams) else (hahn_u, hahn_v)
        for row in rows:
            assert row(n, params) == FORMER_ROWS[row](n, params)


def test_a_base_depending_on_both_n_and_x_is_rejected():
    # the kernel splits each term ratio into an n-part and an x-part
    q = F(1, 2)
    with pytest.raises(QHahnError, match=r"series base \(3, 1, -1\) depends on both n and x"):
        qcore._series_tables([(1, -1, 0), (3, 1, -1)], [(q, 0, 0)], q, q, 3)


def test_the_series_kernel_takes_only_ints_and_fractions():
    # a float q would otherwise be read as the binary fraction it stores
    p = _unguarded(QParams, q=0.5, A=F(3), B=F(1, 5), N=3)
    with pytest.raises(QHahnError, match="integer kernels take ints and Fractions, not float"):
        brf.brf_u(1, p)
    tables = QParams(F(1, 2), F(3), F(1, 5), 3)._row_tables
    with pytest.raises(QHahnError, match="integer kernels take ints and Fractions, not float"):
        qcore._series_rows(tables, 1, 0.5)


def test_row_tables_are_built_once_per_instance_and_series(monkeypatch):
    # one build per parameter object across the family, later rows and the
    # Gram tables, one `_series_tables` call per series; the partner family
    # builds its reflected instance's
    built, series = [], []
    for cls in (QParams, WilsonParams, HahnParams):
        count_builds(monkeypatch, cls, "_row_tables", built)
    for module in (qcore, wilson):
        monkeypatch.setattr(module, "_series_tables",
                            functools.partial(lambda good, *a: series.append(1) or good(*a),
                                              module._series_tables))
    fresh = (lambda: QParams(F(1, 2), F(-5), F(1, 7), 6),
             lambda: WilsonParams(F(1, 2), F(3), F(5), F(7), F(11), 4),
             lambda: HahnParams(F(-7), F(12), 6))
    p, wp, hp = (make() for make in fresh)
    brf.brf_family(p)
    for n in range(p.N + 1):
        brf.brf_u(n, p)
    assert (len(built), len(series)) == (1, 1)
    brf.partner_family(p)
    assert (len(built), len(series)) == (2, 2)
    for _ in range(2):
        wilson._table(wilson_weight, wilson_u, wilson_v, wilson_h, wp.N, wp)
        wilson._table(hahn_weight, hahn_u, hahn_v, hahn_h, hp.N, hp)
    assert (len(built), len(series)) == (4, 6)
    # the tables live on the object and stay out of ==, hash, repr and as_dict
    for obj, make in zip((p, wp, hp), fresh):
        twin = make()
        assert "_row_tables" in vars(obj) and "_row_tables" not in vars(twin)
        assert (obj, hash(obj), repr(obj), obj.as_dict()) == (twin, hash(twin), repr(twin),
                                                              twin.as_dict())


@pytest.mark.parametrize("row, params", [
    (brf.brf_u, CANONICAL), (wilson_u, WILSON_PANEL[1]), (wilson_v, WILSON_PANEL[1]),
    (hahn_u, HAHN_PANEL[1]), (hahn_v, HAHN_PANEL[1]),
], ids=["brf_u", "wilson_u", "wilson_v", "hahn_u", "hahn_v"])
def test_each_terminating_series_is_one_call_to_the_qcore_kernel(row, params, monkeypatch):
    # the 3phi2 of U_n, the 10phi9 and the Hahn 3F2 share one integer Horner
    # kernel: each row of n >= 1 is one call to it, and a second kernel
    # summing a row would show as a missing call
    kernel, calls = qcore._series_rows, []

    def counted(*args):
        calls.append(args[-2])
        return kernel(*args)

    for module in (qcore, brf, wilson):
        assert module._series_rows is kernel
        monkeypatch.setattr(module, "_series_rows", counted)
    for n in range(1, params.N + 1):
        row(n, params)
    assert calls == list(range(1, params.N + 1))


def test_norm_heads_are_built_once_per_instance(monkeypatch):
    # the n-independent heads of wilson_h and hahn_h, not one per n, and the
    # weight and norm tables, not one per x or n; fresh instances, since each
    # caches its tables
    wp, hp = WilsonParams(F(1, 2), F(3), F(5), F(7), F(11), 4), HahnParams(F(-7), F(12), 6)
    calls = []
    good_bases, good_rising = wilson._h_den_bases, wilson._rising

    def rising(a, k):
        if (a, k) == (hp.alpha - hp.beta - 1, hp.N):
            calls.append("hahn head")
        return good_rising(a, k)

    monkeypatch.setattr(wilson, "_h_den_bases", lambda *a: calls.append("wilson head") or good_bases(*a))
    monkeypatch.setattr(wilson, "_rising", rising)
    for cls in (WilsonParams, HahnParams):
        for name in ("_weights", "_norms"):
            count_builds(monkeypatch, cls, name, calls)
    for _ in range(2):
        assert check_wilson_biorthogonality(wp).status == "pass"
        assert check_hahn_biorthogonality(hp).status == "pass"
    assert calls == ["_weights", "_norms", "wilson head", "_weights", "_norms", "hahn head"]


def former_wilson_weight(x, wp):
    """wilson_weight as it was before its table, every Pochhammer product
    rebuilt from its first factor at each x: the oracle of the running product."""
    q, qa = wp.q, wp.qa
    head_den = qpoch(q, x, q) * (1 - qa * qa)
    if head_den == 0:
        raise ZeroDenominator("weight head denominator vanishes")
    out = q**x * qpoch(qa * qa, x, q) * (1 - qa * qa * q ** (2 * x)) / head_den
    for num_base, den_base in wilson._weight_pairs(q, qa, wp.qb, wp.qc, wp.qd, wp.qe, wp.qf):
        den = qpoch(den_base, x, q)
        if den == 0:
            raise ZeroDenominator("weight denominator vanishes")
        out = out * qpoch(num_base, x, q) / den
    return out


def former_wilson_h(n, wp):
    """wilson_h as it was before its table: the head, then the tail at n."""
    q, qa, qb, qc, qd, qe, qf = wp.q, wp.qa, wp.qb, wp.qc, wp.qd, wp.qe, wp.qf
    tail_num = math.prod(qpoch(base, n, q) for base in (
        q, q**n / (qe * qf), qc * qd, q * qa / qe, q * qb / qf))
    tail_den = math.prod(qpoch(base, length, q)
                         for base, length in wilson._h_tail_den(q, qa, qb, qe, qf, n))
    if tail_den == 0:
        raise ZeroDenominator("norm denominator vanishes")
    num = math.prod(qpoch(base, wp.N, q)
                    for base in (q * qa * qa, q / (qc * qd), q / (qc * qe), q / (qd * qe)))
    den = math.prod(qpoch(base, wp.N, q) for base in wilson._h_den_bases(q, qa, qb, qc, qd, qe, qf))
    if den == 0:
        raise ZeroDenominator("norm denominator vanishes")
    return num / den * tail_num / tail_den * q ** (-n)


def former_hahn_weight(x, hp):
    """hahn_weight as it was before its table."""
    den = wilson._rising(1, x) * wilson._rising(hp.beta - hp.alpha - hp.N + 2, x)
    if den == 0:
        raise ZeroDenominator("weight denominator vanishes")
    return F(wilson._rising(-hp.N, x)) * wilson._rising(1 - hp.alpha, x) / den


def former_hahn_h(n, hp):
    """hahn_h as it was before its table."""
    b, N = hp.beta, hp.N
    den = wilson._rising(-N, n) * wilson._rising(1 + b - N, 2 * n)
    if den == 0:
        raise ZeroDenominator("norm denominator vanishes")
    head_den = wilson._rising(hp.alpha - b - 1, N)
    if head_den == 0:
        raise ZeroDenominator("norm denominator vanishes")
    head = F(wilson._rising(-b, N)) / head_den
    return head * wilson._rising(1, n) * wilson._rising(b + 1, n) * wilson._rising(n + b - N, n) / den


def _outcome(value):
    try:
        return value()
    except ZeroDenominator as exc:
        return str(exc)


def _tables_against_the_former_bodies(wp_list, hp_list):
    for wp in wp_list:
        for i in range(wp.N + 1):
            assert _outcome(lambda: wilson_weight(i, wp)) == _outcome(lambda: former_wilson_weight(i, wp))
            assert _outcome(lambda: wilson_h(i, wp)) == _outcome(lambda: former_wilson_h(i, wp))
    for hp in hp_list:
        for i in range(hp.N + 1):
            assert _outcome(lambda: hahn_weight(i, hp)) == _outcome(lambda: former_hahn_weight(i, hp))
            assert _outcome(lambda: hahn_h(i, hp)) == _outcome(lambda: former_hahn_h(i, hp))


SMALL_N = ([WilsonParams(F(1, 2), F(3), F(5), F(7), F(11), N) for N in (0, 1)]
           + [WilsonParams(F(-2, 3), F(5), F(-7), F(11), F(13), N) for N in (0, 1)],
           [HahnParams(F(-5), F(9), N) for N in (0, 1)]
           + [HahnParams(F(-7, 2), F(17, 2), N) for N in (0, 1)])


def test_tables_equal_the_former_bodies_on_the_panels_and_at_small_n():
    _tables_against_the_former_bodies(WILSON_PANEL + SMALL_N[0], HAHN_PANEL + SMALL_N[1])


@pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
def test_tables_equal_the_former_bodies_on_the_workload_draws(seed):
    # the benchmark's 10phi9 and Hahn draws, and the 10phi9 instances of its
    # limit path, whose qa = q^-m make the largest numbers
    wp_list, hp_list, limit, m_list, qc = wilson_workload(seed)
    induced = [induced_wilson_params(limit, m, qc) for m in m_list]
    _tables_against_the_former_bodies(wp_list + induced, hp_list)


def test_a_vanishing_table_factor_raises_where_the_former_bodies_do():
    # past the guards: a weight denominator (q qa/qe; q)_x with qa/qe = q^-2,
    # the weight head 1 - qa^2, a norm tail denominator (q/(qe qf); q)_{2n}
    # with qe qf = q^4, the Hahn weight's (b - a - N + 2)_x and the Hahn
    # norm's (1 + b - N)_{2n}; each raises at the x or n it raised at before
    # the tables, with the message it raised, and keeps the values below it
    q = F(1, 2)
    wp_list = [_unguarded(WilsonParams, q=q, qa=F(4), qc=F(5), qd=F(7), qe=F(1), N=4),
               _unguarded(WilsonParams, q=q, qa=F(-1), qc=F(5), qd=F(7), qe=F(11), N=3),
               _unguarded(WilsonParams, q=q, qa=F(3), qc=q / 7, qd=F(7), qe=F(11), N=4)]
    hp_list = [_unguarded(HahnParams, alpha=F(1, 2), beta=F(3, 2), N=4),
               _unguarded(HahnParams, alpha=F(-7, 2), beta=F(1), N=4)]
    _tables_against_the_former_bodies(wp_list, hp_list)
    assert [_outcome(lambda: wilson_weight(x, wp_list[0])) for x in (1, 2)][1] == (
        "weight denominator vanishes")
    assert isinstance(_outcome(lambda: wilson_h(1, wp_list[2])), F)
    assert _outcome(lambda: wilson_h(2, wp_list[2])) == "norm denominator vanishes"
    assert isinstance(_outcome(lambda: hahn_h(1, hp_list[1])), F)
    assert _outcome(lambda: hahn_h(2, hp_list[1])) == "norm denominator vanishes"


def _on_powers(q, parameters):
    """qa, qc, qd, qe from (exponent, sign) entries: sign q^exponent, or the
    generic 3, 5, 7, 11 for exponent None."""
    return [F(generic) if e is None else sign * q**e
            for (e, sign), generic in zip(parameters, (3, 5, 7, 11))]


wilson_parameter = st.tuples(st.one_of(st.none(), st.integers(-6, 6)), st.sampled_from((1, -1)))


def _guard_and_tables(q, qa, qc, qd, qe, N):
    """The guard, the weight table and the norm table of one unguarded 10phi9
    instance, each with its `former_` oracle, as outcome pairs."""
    wp = _unguarded(WilsonParams, q=q, qa=qa, qc=qc, qd=qd, qe=qe, N=N)
    return [(outcome(new, wp), outcome(old, wp)) for new, old in (
        (wilson._validate_denominators, former_wilson_guard),
        (WilsonParams._weights.func, former_wilson_weights),
        (WilsonParams._norms.func, former_wilson_norms))]


# q = 1/2 instances on which each guard branch fires, in the guard's order,
# and one that passes it
GUARD_BRANCHES = [
    (dict(qa=F(-1), qc=F(5), qd=F(7), qe=F(11), N=3), "weight head 1 - qa^2 vanishes"),
    (dict(qa=F(4), qc=F(5), qd=F(7), qe=F(11), N=2), "weight denominator vanishes at x=2"),
    (dict(qa=F(3), qc=F(5), qd=F(7), qe=F(3), N=3), "very-well-poised head 1 - qa/qe vanishes"),
    (dict(qa=F(3), qc=F(2, 3), qd=F(7), qe=F(11), N=3),
     "series denominator vanishes at n=2, x=0, k=2"),
    (dict(qa=F(3), qc=F(1, 28), qd=F(7), qe=F(11), N=3), "norm denominator vanishes"),
    (dict(qa=F(3), qc=F(5), qd=F(7), qe=F(11), N=0), None),
]


@pytest.mark.parametrize("params, message", GUARD_BRANCHES,
                         ids=["weight-head", "weight", "head", "series", "norm", "N0"])
def test_each_guard_branch_raises_the_former_guards_message(params, message):
    # the lookups raise the scan's class and message, branch by branch, and
    # the tables built past the guard equal the Fraction bodies
    (guard, former_guard), *tables = _guard_and_tables(F(1, 2), **params)
    assert guard == former_guard == (None if message is None else (InvalidParams, message))
    for new, old in tables:
        assert new == old


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([F(1, 2), F(-1, 2), F(2, 3), F(-3, 2), F(3)]),
       st.lists(wilson_parameter, min_size=4, max_size=4), st.integers(0, 4))
@example(F(1, 2), [(1, 1), (None, 1), (None, 1), (None, 1)], 0)  # N = 0 on a power of q
@example(F(1, 2), [(-2, 1), (3, 1), (None, 1), (None, 1)], 3)  # a weight denominator
@example(F(1, 2), [(-1, 1), (None, 1), (0, 1), (None, 1)], 1)  # the norm head's (q qa/qd; q)_1
def test_guard_and_tables_equal_the_former_fraction_bodies(q, parameters, N):
    # parameters on powers of q put weight, series and norm factors on zero;
    # the guard raises the former class and message first, and past it each
    # table keeps its values and stops, or raises, where the former one did
    qa, qc, qd, qe = _on_powers(q, parameters)
    for new, old in _guard_and_tables(q, qa, qc, qd, qe, N):
        assert new == old


def test_series_tables_equal_the_tables_built_from_factor(monkeypatch):
    # the power table and the once-taken pairs give every `_row_tables` entry
    # as the former per-(base, exponent) `_factor` did, for the three series,
    # past the guards too, where a vanishing denominator is recorded
    objects = (QParams(F(1, 2), F(-5), F(1, 7), 6), QParams(F(-2, 3), F(3), F(1, 5), 0),
               *WILSON_PANEL, *HAHN_PANEL, *(params for _, params, _ in VANISHING_DENOMINATORS))

    def fresh():  # copies, since each object caches its tables
        return [_unguarded(type(obj), **{f.name: getattr(obj, f.name) for f in fields(obj)})
                for obj in objects]

    tables = [obj._row_tables for obj in fresh()]
    for module in (qcore, wilson):
        monkeypatch.setattr(module, "_series_tables", former_series_tables)
    assert tables == [obj._row_tables for obj in fresh()]
    assert tables[-1][3]  # the last object, at A = q^-1, records its zero


def test_a_norm_denominator_vanishing_only_at_n_equal_n_is_rejected():
    # qc qd = q^{1-N} puts qe qf = q^{2N}, so only the last factor of
    # (q/(qe qf); q)_{2N} vanishes: the guard, which reads the n = N factor
    # list alone, still sees it
    q, qa, qd, qe, N = F(1, 2), F(3), F(7), F(11), 3
    qc = q ** (1 - N) / qd
    qb, qf = q**-N / qa, q ** (N + 1) / (qc * qd * qe)
    bases = [(b, N) for b in wilson._h_den_bases(q, qa, qb, qc, qd, qe, qf)]
    assert all(qpoch(b, k, q) for b, k in bases + wilson._h_tail_den(q, qa, qb, qe, qf, N - 1))
    with pytest.raises(InvalidParams, match="norm denominator vanishes"):
        WilsonParams(q, qa, qc, qd, qe, N)


@pytest.mark.parametrize("fn, params", [
    (wilson_weight, WILSON_PANEL[0]), (wilson_h, WILSON_PANEL[0]),
    (hahn_weight, HAHN_PANEL[0]), (hahn_h, HAHN_PANEL[0]),
], ids=["wilson_weight", "wilson_h", "hahn_weight", "hahn_h"])
def test_an_index_outside_the_grid_is_invalid(fn, params):
    # a table lookup would wrap -1 to the last entry
    for i in (-1, params.N + 1):
        with pytest.raises(InvalidParams, match=f"= {i} must lie in 0..N = {params.N}"):
            fn(i, params)


def _pochhammer_lengths(monkeypatch, build):
    """The sum of the lengths passed to qpoch and to the Hahn rising factorial,
    and of the factors the 10phi9 tables multiply through `qcore._factors`,
    while `build()` runs, in every module that calls them."""
    lengths = []
    good_qpoch, good_rising, good_factors = qcore.qpoch, wilson._rising, qcore._factors

    def counted_qpoch(base, k, q):
        lengths.append(k)
        return good_qpoch(base, k, q)

    def counted_rising(a, k):
        lengths.append(k)
        return good_rising(a, k)

    def counted_factors(powers, pairs, ds):
        lengths.append(len(pairs) * len(ds))
        return good_factors(powers, pairs, ds)

    with monkeypatch.context() as mp:
        for module in (qcore, brf, wilson):
            if getattr(module, "qpoch", None) is good_qpoch:
                mp.setattr(module, "qpoch", counted_qpoch)
        mp.setattr(wilson, "_rising", counted_rising)
        mp.setattr(wilson, "_factors", counted_factors)
        build()
    return sum(lengths)


def test_pochhammer_work_grows_linearly_in_n(monkeypatch):
    # one instance's Wilson and Hahn Gram inputs (guards included) and the
    # q-Hahn weight, family and partners: doubling N may at most about double
    # the Pochhammer factors built, for each of the three; per-index products
    # quadruple it
    def build_wilson(N):
        wp = WilsonParams(F(1, 2), F(3), F(5), F(7), F(11), N)
        wilson._table(wilson_weight, wilson_u, wilson_v, wilson_h, N, wp)

    def build_hahn(N):
        hp = HahnParams(F(-53, 2), F(19), N)
        wilson._table(hahn_weight, hahn_u, hahn_v, hahn_h, N, hp)

    def build_qhahn(N):
        p = QParams(F(1, 2), F(-5), F(1, 7), N)
        brf.weight_vector(p)
        brf.brf_family(p)
        brf.partner_family(p)

    for build in (build_wilson, build_hahn, build_qhahn):
        small, large = (_pochhammer_lengths(monkeypatch, lambda: build(N)) for N in (8, 16))
        assert 0 < large <= 2.5 * small, build.__name__
