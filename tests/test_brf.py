import math
from fractions import Fraction as F

import pytest

from qhahn import brf, linalg, operators, qcore
from qhahn.brf import (
    Instance,
    bare_norm,
    bare_weight,
    brf_family,
    partner_scale,
    brf_u,
    check_biorthogonality,
    check_partial_fractions,
    check_partner,
    check_weight,
    norm_h,
    partial_fraction,
    partner_family,
    phi_expansion,
    reflected_params,
    u_prefactor,
    weight_scale,
    weight_vector,
)
from qhahn.gevp import check_factorization
from qhahn.operators import (
    Basis,
    GridVector,
    OpMatrix,
    Operator,
    phi_function,
    weighted_adjoint,
)
from qhahn.qcore import (
    InvalidParams,
    PoleOnGrid,
    QHahnError,
    QParams,
    ZeroDenominator,
    eigenvalue,
    frac_str,
    phi_series,
    qnum,
    qpoch,
    qpow,
    validate_params,
)
from qhahn.reports import CheckReport

from conftest import (
    CANONICAL,
    PANEL,
    SMALL_PANEL,
    WORKLOAD_SEEDS,
    bumped_family,
    count_builds,
    fraction_gram,
    tridiagonal_null_space,
    wilson_workload,
    with_row,
)


def inner_product(f, g, w):
    """(f, g)_w = sum_x w_x f(x) g(x), the direct pairing."""
    return sum(w[x] * f[x] * g[x] for x in range(len(w.values)))


def test_u0_is_constant_one():
    for p in SMALL_PANEL:
        assert all(v == 1 for v in brf_u(0, p))


def test_u1_frozen_values(canonical):
    assert [v for v in brf_u(1, canonical)] == [
        F(7, 1023), F(1063, 2079), F(25, 33), F(7399, 8415),
    ]


def recurrence_u(n, p):
    """Grid values of U_n summed over the rational basis phi_k with the
    coefficients of `phi_expansion`: the route independent of `brf_u`."""
    coeffs = phi_expansion(p)[n]
    return tuple(sum(c * phi_function(p, k, x) for k, c in enumerate(coeffs))
                 for x in range(p.N + 1))


def test_series_and_recurrence_routes_agree():
    for p in SMALL_PANEL:
        for n in range(p.N + 1):
            assert brf_u(n, p).values == recurrence_u(n, p)


def test_family_eigenvalues_match_closed_form():
    for p in SMALL_PANEL:
        fam = brf_family(p)
        for n in range(p.N + 1):
            assert fam.lambdas[n] == eigenvalue(n, p)
            assert eigenvalue(n, p) == qnum(p, -n) * qnum(p, n - p.N, 0, 1)
    assert eigenvalue(0, CANONICAL) == 0


def test_weight_normalized_and_involutive():
    for p in PANEL:
        w = weight_vector(p)
        assert sum(F(v) for v in w) == 1
        assert check_weight(Instance(p)).status == "pass"


def test_weight_reflection_pointwise(canonical):
    w = weight_vector(canonical)
    refl = weight_vector(reflected_params(canonical))
    for x in range(canonical.N + 1):
        assert w[x] == refl[canonical.N - x]


def test_weight_catches_swapped_values(canonical, monkeypatch):
    # w_0 and w_1 swapped at both instances keeps the total but breaks the
    # reflection at every grid point
    good = brf.weight_vector

    def swapped(p):
        w = list(good(p))
        w[0], w[1] = w[1], w[0]
        return GridVector(tuple(w), p)

    monkeypatch.setattr(brf, "weight_vector", swapped)
    report = check_weight(Instance(canonical))
    assert report.details["total"] == "1/1"
    assert [v["x"] for v in report.violations] == [0, 1, 2, 3]


def test_weight_frozen_head(canonical):
    assert weight_vector(canonical)[0] == F(1648709053, 1626603520)


def test_reflection_is_involutive():
    for p in SMALL_PANEL:
        assert reflected_params(reflected_params(p)) == p


def test_biorthogonality_exact():
    for p in PANEL:
        assert check_biorthogonality(Instance(p)).status == "pass"


def test_biorthogonality_directly(canonical):
    w = weight_vector(canonical)
    fam = brf_family(canonical)
    partners = partner_family(canonical).members
    for n in range(canonical.N + 1):
        for m in range(canonical.N + 1):
            ip = inner_product(fam.members[n], partners[m], w)
            if n == m:
                assert ip == norm_h(canonical)[n]
            else:
                assert ip == 0


def test_biorthogonality_catches_a_wrong_norm(canonical, monkeypatch):
    # one closed-form norm off by 1 fails the diagonal entry (2, 2) only
    good = brf.norm_h
    monkeypatch.setattr(
        brf, "norm_h", lambda p: tuple(h + (1 if n == 2 else 0) for n, h in enumerate(good(p))))
    report = check_biorthogonality(Instance(canonical))
    assert report.status == "fail"
    assert report.violations == [{"n": 2, "m": 2, "residual": "-1/1"}]


def mixed_partners(m, k):
    """partner_family with partner_m + partner_k in place of partner_m, in its row form."""
    good = brf.partner_family

    def mixed(p):
        fam = good(p)
        (a, s), (b, t) = fam.rows[m], fam.rows[k]
        return with_row(fam, m, [x * s + y * t for x, y in zip(a, b)])

    return mixed


def test_biorthogonality_catches_a_mixed_partner(canonical, monkeypatch):
    # partner_3 + partner_1 pairs with U_1 to H_1: one off-diagonal violation
    h1 = norm_h(canonical)[1]
    monkeypatch.setattr(brf, "partner_family", mixed_partners(3, 1))
    report = check_biorthogonality(Instance(canonical))
    assert report.status == "fail"
    assert report.violations == [{"n": 1, "m": 3, "residual": frac_str(h1)}]


def test_norms_frozen_and_nonzero(canonical):
    frozen = [
        F(131068),
        F(-3788288, 8415),
        F(969801728, 975143719),
        F(-70934069248, 83184978108375),
    ]
    assert list(norm_h(canonical)) == frozen
    for p in SMALL_PANEL:
        assert 0 not in norm_h(p)


def test_partner_is_reflected_family():
    for p in SMALL_PANEL:
        assert check_partner(Instance(p)).status == "pass"


def mixed_partner_2(monkeypatch, p):
    """An `Instance` of p whose partner_2 is partner_2 + partner_1."""
    monkeypatch.setattr(brf, "partner_family", mixed_partners(2, 1))
    return Instance(p)


def wrong_lambda_2(monkeypatch, p):
    """An `Instance` of p whose lambda_2 is off by 1."""
    good = brf.eigenvalue
    monkeypatch.setattr(brf, "eigenvalue", lambda n, params: good(n, params) + (1 if n == 2 else 0))
    return Instance(p)


def perturbed_entry(p, g, i, j, delta):
    """An `Instance` of p whose point-basis `g` has delta added at [i][j]."""
    inst = Instance(p)
    rows = inst.ops[g].rows()
    rows[i][j] += delta
    inst.ops[g] = OpMatrix(rows, Basis.POINT, p)
    return inst


def test_partner_catches_a_mixed_partner(canonical, monkeypatch):
    # partner_2 + partner_1 is no eigenvector of V*, and X* of the kernel is
    # not proportional to it
    report = check_partner(mixed_partner_2(monkeypatch, canonical))
    assert [(v["m"], v["kind"]) for v in report.violations] == [(2, "eigen"), (2, "collinearity")]


def test_partner_catches_a_wrong_eigenvalue(canonical, monkeypatch):
    # lambda_2 + 1 is no eigenvalue: V* partner_2 misses it, and the pencil
    # Y* - lambda X* has a trivial kernel
    report = check_partner(wrong_lambda_2(monkeypatch, canonical))
    assert [(v["m"], v["kind"]) for v in report.violations] == [(2, "eigen"), (2, "kernel")]
    assert report.violations[1]["residual"] == "dimension 0"


def test_partner_catches_a_wrong_entry_in_the_tail_of_v():
    # V[N][0] + 1 leaves the pencil alone and breaks V* partner_m = lambda_m
    # partner_m for every m; the integer test reports the residual of the
    # dense V* for each failing m
    inst = perturbed_entry(QParams(F(1, 2), F(3), F(1, 5), 6), "V", 6, 0, 1)
    vs = weighted_adjoint(inst.ops["V"], inst.weight)
    expected = []
    for m, (lam, pm) in enumerate(zip(inst.family.lambdas, inst.partners.members)):
        resid = [a - lam * b for a, b in zip(vs @ pm, pm)]
        if any(resid):
            expected.append({"m": m, "kind": "eigen",
                             "residual": frac_str(max(abs(r) for r in resid))})
    assert len(expected) == 7
    assert check_partner(inst).violations == expected


def test_partner_forms_no_adjoint_passing_or_failing(monkeypatch):
    # with weighted_adjoint raising wherever the package binds it, the V-tail
    # control still reports the dense route's eigen residuals, read off the
    # integers the check holds, and a passing instance still passes
    failing = perturbed_entry(QParams(F(1, 2), F(3), F(1, 5), 6), "V", 6, 0, 1)
    expected = dense_partner_violations(failing)

    def refuse(*args):
        raise AssertionError("check_partner formed a dense adjoint")

    monkeypatch.setattr(operators, "weighted_adjoint", refuse)
    monkeypatch.setattr(brf, "weighted_adjoint", refuse, raising=False)
    report = check_partner(failing)
    assert len(expected) == 7 and {kind for _, kind, _ in expected} == {"eigen"}
    assert [(v["m"], v["kind"], v["residual"]) for v in report.violations] == expected
    assert check_partner(Instance(QParams(F(1, 2), F(-5), F(1, 7), 8))).status == "pass"


def dense_partner_violations(inst):
    """(m, kind, residual) of every violation by the dense route: V*, X* and
    Y* from `weighted_adjoint`, the pencil Y* - lambda_m X* on its three
    diagonals, its kernel from `tridiagonal_null_space`, and X* of it."""
    n1 = inst.p.N + 1
    xs, ys, vs = (weighted_adjoint(inst.ops[g], inst.weight) for g in "XYV")
    out = []
    for m, (lam, pm) in enumerate(zip(inst.family.lambdas, inst.partners.members)):
        resid = [a - lam * b for a, b in zip(vs @ pm, pm)]
        if any(resid):
            out.append((m, "eigen", frac_str(max(abs(r) for r in resid))))
        pencil = linalg.zeros(n1, n1)
        for i in range(n1):
            for j in range(max(i - 1, 0), min(i + 2, n1)):
                pencil[i][j] = ys[i][j] - lam * xs[i][j]
        kernel = tridiagonal_null_space(pencil)
        if len(kernel) != 1:
            out.append((m, "kernel", f"dimension {len(kernel)}"))
            continue
        image = list(xs @ GridVector(kernel[0], inst.p))
        x0 = next((x for x, v in enumerate(pm) if v), None)
        r = 0 if x0 is None else image[x0] / pm[x0]
        if r == 0 or image != [r * v for v in pm]:
            out.append((m, "collinearity", "not proportional"))
    return out


@pytest.mark.parametrize("make", [
    wrong_lambda_2,
    mixed_partner_2,
    lambda mp, p: perturbed_entry(p, "Y", 3, 3, F(1, 7)),
    lambda mp, p: perturbed_entry(p, "X", 4, 3, F(1, 7)),
], ids=["wrong-lambda-2", "mixed-partner", "y-diagonal", "x-subdiagonal"])
def test_partner_integer_route_equals_the_dense_route(monkeypatch, make):
    inst = make(monkeypatch, QParams(F(1, 2), F(3), F(1, 5), 6))
    expected = dense_partner_violations(inst)
    assert expected
    assert [(v["m"], v["kind"], v["residual"]) for v in check_partner(inst).violations] == expected


def bumped(vector, x):
    """`vector` with 1/7 added at x."""
    return GridVector(tuple(v + (F(1, 7) if y == x else 0) for y, v in enumerate(vector)),
                      vector.params)


@pytest.mark.parametrize("p", [QParams(F(1, 2), F(-5), F(1, 7), 16),
                               QParams(F(-2, 3), F(7, 3), F(5, 11), 18)],
                         ids=lambda p: f"N{p.N}-A{p.A}")
@pytest.mark.parametrize("bump", ["none", "partner", "weight"])
def test_instance_rows_report_as_the_fraction_and_dense_routes(p, bump):
    # the Gram on the family rows and the weighted partner rows against the
    # Fraction sums, and check_partner against the dense adjoints, on values
    # many machine words long; a partner value or a weight off by 1/7 fails both
    assert validate_params(p, p.N).valid
    inst = Instance(p)
    if bump == "partner":
        vars(inst)["partners"] = with_row(inst.partners, 5, bumped(inst.partners.members[5], 9))
    elif bump == "weight":
        vars(inst)["weight"] = bumped(inst.weight, 9)
    assert max(abs(v.numerator).bit_length() for u in inst.partners.members for v in u) > 128
    gram = check_biorthogonality(inst)
    assert gram.as_dict() == fraction_gram(
        CheckReport(check="biorthogonality", params=p.as_dict()),
        inst.weight, inst.family.members, inst.partners.members, norm_h(p)).as_dict()
    partner = check_partner(inst)
    assert [(v["m"], v["kind"], v["residual"]) for v in partner.violations] == (
        dense_partner_violations(inst))
    assert {gram.status, partner.status} == {"pass" if bump == "none" else "fail"}


def test_partner_pencil_with_a_zero_superdiagonal_entry_reaches_null_space(monkeypatch):
    # Y[4][3] = lambda_2 X[4][3] zeroes the superdiagonal entry (3, 4) of
    # (Y - lambda_2 X)^T, and of no other m's pencil
    p = QParams(F(1, 2), F(3), F(1, 5), 6)
    ops = Instance(p).ops
    inst = perturbed_entry(p, "Y", 4, 3, brf.eigenvalue(2, p) * ops["X"][4][3] - ops["Y"][4][3])
    calls = []
    good = linalg.null_space
    monkeypatch.setattr(linalg, "null_space", lambda a: calls.append(a) or good(a))
    report = check_partner(inst)
    assert len(calls) == 1
    assert [(v["m"], v["kind"], v["residual"]) for v in report.violations] == (
        dense_partner_violations(inst))


@pytest.mark.parametrize("q", [F(1, 2), F(-2, 3)])
@pytest.mark.parametrize("N", range(2, 6))
def test_valid_instance_with_b_equal_to_a_q_n_minus_1_passes_through_null_space(
        monkeypatch, q, N):
    # B = A q^(N-1): Y[1][0] carries [1 - N - alpha + beta]_q = [0]_q and
    # lambda_0 = 0, so (Y - lambda_0 X)^T has a zero superdiagonal entry at
    # m = 0 and no other; the dense fallback proves that kernel on its own
    p = QParams(q, F(3), 3 * q ** (N - 1), N)
    assert validate_params(p, N).valid
    inst = Instance(p)
    assert inst.ops["Y"][1][0] == 0 and inst.family.lambdas[0] == 0
    calls = []
    good = linalg.null_space
    monkeypatch.setattr(linalg, "null_space", lambda a: calls.append(a) or good(a))
    assert check_partner(inst).status == "pass"
    assert len(calls) == 1


@pytest.mark.parametrize("p", [QParams(F(1, 2), F(3), F(1, 5), 8),
                               QParams(F(1, 2), F(3), 3 * F(1, 2) ** 4, 5)],
                         ids=["tridiagonal_kernel", "null_space"])
def test_partner_hands_a_content_free_kernel_vector_to_the_collinearity_test(monkeypatch, p):
    # the kernel vectors g of (Y - lambda_m X)^T carry a common factor (118 of
    # 157 bits at m = 4 of the first instance); the collinearity test takes g
    # over its gcd, from either route, and a mixed partner_2 still fails it
    kernels, dense, applied = [], [], []
    tridiagonal_kernel, null_space, apply = linalg.tridiagonal_kernel, linalg.null_space, brf._apply

    def tridiagonal(*args):
        g, residual = tridiagonal_kernel(*args)
        kernels.append(g)
        return g, residual

    def null(a):
        vs = null_space(a)
        dense.extend(qcore.over_common_denominator(v)[0] for v in vs)
        return vs

    monkeypatch.setattr(linalg, "tridiagonal_kernel", tridiagonal)
    monkeypatch.setattr(linalg, "null_space", null)
    monkeypatch.setattr(brf, "_apply", lambda rows, c: applied.append(c) or apply(rows, c))
    assert check_partner(Instance(p)).status == "pass"
    assert len(dense) == (p.B == p.A * p.q ** (p.N - 1))
    assert max(math.gcd(*g) for g in kernels + dense) > 1
    assert len(applied) == 2 * (p.N + 1)  # per m: V^T h_m, then X^T g
    assert [math.gcd(*g) for g in applied[1::2]] == [1] * (p.N + 1)
    report = check_partner(mixed_partner_2(monkeypatch, p))
    assert (2, "collinearity") in [(v["m"], v["kind"]) for v in report.violations]


def test_partner_values_from_reflection(canonical):
    # partner_n(x) is the reflected-instance U_n read backwards, times one
    # instance-wide constant
    refl = reflected_params(canonical)
    c = partner_scale(canonical)
    for n, partner in enumerate(partner_family(canonical).members):
        mirrored = brf_u(n, refl)
        for x in range(canonical.N + 1):
            assert partner[x] == c * mirrored[canonical.N - x]


def test_h0_equals_partner_scale():
    # U_0 and the bare reflected series are both 1, the weight sums to 1,
    # so the n = 0 norm collapses to the partner constant alone
    for p in SMALL_PANEL:
        assert norm_h(p)[0] == partner_scale(p)


def test_phi_expansion_reconstructs(canonical):
    for n, coeffs in enumerate(phi_expansion(canonical)):
        assert len(coeffs) == n + 1
        u = brf_u(n, canonical)
        for x in range(canonical.N + 1):
            recon = sum(coeffs[k] * phi_function(canonical, k, x) for k in range(n + 1))
            assert recon == u[x]


def test_u_prefactor_scales_series_head(canonical):
    # the prefactor is the n-dependent constant multiplying the bare series;
    # at n = 0 both the series and U_0 are 1, so it must be 1 there
    assert u_prefactor(0, canonical) == 1


def residues(n, u):
    """`partial_fraction` of U_n, given as grid values, from row n of `phi_expansion`."""
    row = qcore._row_form([v.as_integer_ratio() for v in u])
    return partial_fraction(phi_expansion(u.params)[n], row, u.params)


def phi_row_oracle(n, p):
    """C_{n,0..n} by the per-n recurrence in Fraction, every lambda_k and step
    computed afresh."""
    coeffs = [u_prefactor(n, p)]
    for k in range(n):
        step = qpow(p, -k, -1, 1) * qnum(p, k + 1) * qnum(p, k - p.N)
        coeffs.append((eigenvalue(n, p) - eigenvalue(k, p)) / step * coeffs[-1])
    return tuple(coeffs)


def eta_oracle(coeffs, p):
    """eta_j = sum_{k>j} C_{n,k} rho_{k,j} / (1 - q) in Fraction Horner form,
    over r_d = (1 - q^d/A) / (1 - q^d) and the head rho_{j+1,j} / (1 - q)."""
    n, q, A = len(coeffs) - 1, p.q, p.A
    r = {d: (1 - q**d / A) / (1 - q**d) for d in range(1 - n, n) if d}
    head, eta = (1 - 1 / A) / (1 - q), []
    for j in range(n):
        if j:
            head *= r[-j]
        acc = coeffs[n]
        for k in range(n - 1, j, -1):
            acc = coeffs[k] + r[k - j] * acc
        eta.append(head * acc)
    return tuple(eta)


@pytest.mark.parametrize("p", [p for p in PANEL if validate_params(p, p.N).valid]
                         + [QParams(F(1, 2), F(3), F(1, 5), 12),
                            QParams(F(1, 2), F(-5), F(1, 7), 24)],
                         ids=lambda p: f"N{p.N}-A{p.A}")
def test_phi_rows_and_residues_equal_the_fraction_oracles(p):
    # the one-table rows and the integer Horner residues against the per-n
    # Fraction recurrence and the Fraction Horner sum
    rows = phi_expansion(p)
    assert rows == tuple(phi_row_oracle(n, p) for n in range(p.N + 1))
    for coeffs, row in zip(rows, brf_family(p).rows):
        assert partial_fraction(coeffs, row, p) == eta_oracle(coeffs, p)


def test_partial_fractions_frozen(canonical):
    assert residues(0, brf_u(0, canonical)) == ()
    assert residues(1, brf_u(1, canonical)) == (F(2032, 33),)


def test_partial_fractions_verified_on_panel():
    for p in SMALL_PANEL:
        assert check_partial_fractions(Instance(p)).status == "pass"
        # the expansion itself raises if the reconstruction fails off-support
        for n in range(p.N + 1):
            residues(n, brf_u(n, p))


def test_partial_fraction_basis_has_the_right_poles(canonical):
    # the n = 1 expansion must reproduce U_1 through 1/[alpha + k - x]
    u = brf_u(1, canonical)
    eta = residues(1, u)
    for x in range(canonical.N + 1):
        assert 1 + eta[0] / qnum(canonical, -x, 1) == u[x]


def test_norm_closed_form_matches_direct_sum():
    # the closed form against the direct sum (U_n, partner_n)_w
    for p in SMALL_PANEL:
        w = weight_vector(p)
        h = norm_h(p)
        for n, partner in enumerate(partner_family(p).members):
            assert h[n] == inner_product(brf_u(n, p), partner, w)


def test_norm_h_equals_the_product_with_the_weight_normalization():
    # the weight normalization cancels the n-independent head of bare_norm,
    # which norm_h therefore leaves out
    for p in PANEL + [QParams(F(1, 2), F(-5), F(1, 7), 12)]:
        assert weight_scale(p) * bare_norm(0, p.q, p.A, p.B, p.N) == 1
        h = norm_h(p)
        for n in range(p.N + 1):
            assert h[n] == (
                partner_scale(p) * u_prefactor(n, p) * u_prefactor(n, reflected_params(p))
                * weight_scale(p) * bare_norm(n, p.q, p.A, p.B, p.N))



@pytest.mark.parametrize("k", range(-7, 5))
def test_norm_h_raises_at_the_first_n_the_per_n_products_do(k):
    # B = q^k puts a zero into the prefactor denominators (k in -N..-1) or
    # into (q^{1-N} B; q)_{2n} (k in -N..N-1); the running products raise the
    # error the per-n Pochhammer products raise first, or give their values
    p = QParams(F(1, 2), F(3), F(1, 2) ** k, 4)

    def per_n(n):
        return (partner_scale(p) * u_prefactor(n, p) * u_prefactor(n, reflected_params(p))
                * brf._bare_norm_n(n, p.q, p.B, p.N))

    def outcome(norms):
        try:
            return norms()
        except ZeroDenominator as exc:
            return str(exc)

    expected = outcome(lambda: tuple(per_n(n) for n in range(p.N + 1)))
    assert outcome(lambda: norm_h(p)) == expected


def former_u_prefactor(n, p):
    """u_prefactor as it was before its table, both Pochhammer products
    rebuilt from their first factor at each n: the oracle of the running product."""
    den = qpoch(qpow(p, -n, 0, -1), n, p.q)
    if den == 0:
        raise ZeroDenominator("(q^{-n}/B; q)_n vanishes in the U_n prefactor")
    return qpoch(qpow(p, -p.N), n, p.q) / den


def weight_oracle(p):
    """c bare_weight(x) at x = 0..N, c = weight_scale(p): the per-x display
    that `weight_vector` steps through."""
    c = weight_scale(p)
    return [c * bare_weight(x, p.q, p.A, p.B, p.N) for x in range(p.N + 1)]


def outcome(value):
    try:
        return value()
    except ZeroDenominator as exc:
        return str(exc)


TABLE_INSTANCES = ([p for p in PANEL if validate_params(p, p.N).valid]
                   + [wilson_workload(seed)[2] for seed in WORKLOAD_SEEDS]
                   + [QParams(F(1, 2), F(3), F(1, 5), N) for N in (0, 1)]
                   + [QParams(F(-2, 3), F(7, 3), F(5, 11), N) for N in (0, 1)])


@pytest.mark.parametrize("p", TABLE_INSTANCES, ids=lambda p: f"N{p.N}-A{p.A}-B{p.B}")
def test_prefactors_and_weight_equal_their_per_index_oracles(p):
    # the 11 valid panel instances, the limit instances of the benchmark's
    # wilson workload, and N = 0, 1; the reflected instance's prefactors too
    for r in (p, reflected_params(p)):
        assert [u_prefactor(n, r) for n in range(r.N + 1)] == [
            former_u_prefactor(n, r) for n in range(r.N + 1)]
    assert list(weight_vector(p).values) == weight_oracle(p)


@pytest.mark.parametrize("N", [1, 3, 5])
def test_weight_vector_raises_where_bare_weight_does(N):
    # B/A = q^e with e in [-1, N-2]: validate_params flags a weight
    # denominator; weight_vector raises bare_weight's error at the same x
    q, A = F(1, 2), F(3)
    seen = 0
    for e in range(-N - 2, N + 1):
        p = QParams(q, A, A * q**e, N)
        flagged = validate_params(p, N).weight_denominator is not None
        expected = outcome(lambda: weight_oracle(p))
        assert flagged == isinstance(expected, str)
        if flagged:
            assert expected.startswith("weight denominator vanishes at x = ")
            with pytest.raises(ZeroDenominator, match=f"^{expected}$"):
                weight_vector(p)
            seen += 1
        else:
            assert list(weight_vector(p).values) == expected
    assert seen == N


@pytest.mark.parametrize("k", range(1, 5))
def test_a_vanishing_prefactor_raises_from_its_first_n(k):
    # B = q^-k puts 1 - q^-k/B = 0 into (q^{-n}/B; q)_n for every n >= k
    p = QParams(F(1, 2), F(3), F(2) ** k, 4)
    got = [outcome(lambda: u_prefactor(n, p)) for n in range(p.N + 1)]
    assert got == [outcome(lambda: former_u_prefactor(n, p)) for n in range(p.N + 1)]
    assert got[k - 1] != got[k] == "(q^{-n}/B; q)_n vanishes in the U_n prefactor"
    with pytest.raises(ZeroDenominator, match="U_n prefactor"):
        brf_u(k, p)


def test_a_prefactor_index_outside_the_grid_is_invalid(canonical):
    for n in (-1, canonical.N + 1):
        with pytest.raises(InvalidParams, match=f"family index n = {n} must lie in 0..N"):
            u_prefactor(n, canonical)


def doubled_weight(mp):
    """weight_vector(CANONICAL) with its normalization doubled, so it sums to 2."""
    mp.setattr(brf, "weight_scale", lambda p: 2 * weight_scale(p))
    return weight_vector(CANONICAL)


@pytest.mark.parametrize("make, error, message", [
    (lambda mp: weight_scale(QParams(F(1, 2), F(3), F(1, 2), 3)), ZeroDenominator,
     "(1/B; q)_N vanishes in the weight normalization"),
    (lambda mp: bare_norm(0, F(1, 2), F(1, 5), F(1, 5), 3), ZeroDenominator,
     "norm denominator vanishes"),
    (doubled_weight, QHahnError, "weight normalization failed: sum = 2"),
], ids=["weight-scale", "bare-norm-head", "weight-sum"])
def test_closed_forms_name_what_fails(monkeypatch, make, error, message):
    # B = q makes (1/B; q)_N vanish, A = B makes (A/(qB); q)_N vanish, and
    # a weight that does not sum to 1 is refused, not normalized
    with pytest.raises(error) as info:
        make(monkeypatch)
    assert type(info.value) is error and str(info.value) == message


def test_prefactor_tables_are_built_once_per_instance(monkeypatch):
    # the family and the phi-expansion share p's table; the partner family
    # builds one for its reflected instance, not one per m
    built = []
    count_builds(monkeypatch, QParams, "_u_prefactors", built)
    p = QParams(F(1, 2), F(-5), F(1, 7), 6)
    brf_family(p)
    phi_expansion(p)
    assert len(built) == 1
    partner_family(p)
    assert len(built) == 2


def direct_series_u(n, p):
    """U_n(x) as its prefactor times the 3phi2 summed term by term by phi_series."""
    return [u_prefactor(n, p) * phi_series(
        num=[qpow(p, -n), qpow(p, n - p.N, 0, 1), qpow(p, -x)],
        den=[qpow(p, -p.N), qpow(p, -x, 1)], z=p.A / p.B, q=p.q, terms=n + 1)
        for x in range(p.N + 1)]


@pytest.mark.parametrize("p", [p for p in PANEL if validate_params(p, p.N).valid]
                         + [QParams(F(1, 2), F(-5), F(1, 7), 24),
                            QParams(F(-2, 3), F(7, 3), F(5, 11), 16)],
                         ids=lambda p: f"N{p.N}-A{p.A}")
def test_factored_series_equals_the_direct_sum(p):
    for n in range(p.N + 1):
        assert list(brf_u(n, p).values) == direct_series_u(n, p)


def test_partial_fraction_rejects_a_perturbed_value_before_n(canonical):
    # eta comes from the phi-coefficients, not from u, so the verification
    # sees the perturbation at the point itself
    n = canonical.N
    u = brf_u(n, canonical)
    for x in range(n):
        bad = GridVector(
            tuple(v + (F(1, 7) if y == x else 0) for y, v in enumerate(u)), canonical)
        with pytest.raises(QHahnError, match=f"expansion of U_{n} fails at x = {x}$"):
            residues(n, bad)


@pytest.mark.parametrize("p", [CANONICAL, QParams(F(1, 2), F(3), F(1, 5), 12)],
                         ids=["canonical", "N12"])
def test_partial_fraction_rejects_a_value_perturbed_at_the_last_point(p):
    # the verification runs over the whole grid, its last point included
    for n in range(1, p.N + 1):
        u = brf_u(n, p)
        bad = GridVector(u.values[:-1] + (u[p.N] + F(1, 10**9),), p)
        with pytest.raises(QHahnError, match=f"expansion of U_{n} fails at x = {p.N}"):
            residues(n, bad)


@pytest.mark.parametrize("p", [p for p in PANEL if validate_params(p, p.N).valid]
                         + [QParams(F(1, 2), F(3), F(1, 5), 12)],
                         ids=lambda p: f"N{p.N}-A{p.A}")
def test_partial_fraction_equals_the_dense_solve(p):
    # the residues read off the phi-coefficients against Gaussian elimination
    # on the first n grid points of U_n = 1 + sum_k eta_k / [alpha+k-x]_q
    for n in range(1, p.N + 1):
        u = brf_u(n, p)
        system = [[1 / qnum(p, k - x, 1) for k in range(n)] for x in range(n)]
        assert list(residues(n, u)) == linalg.solve_unique(
            system, [u[x] - 1 for x in range(n)])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_partial_fraction_catches_a_perturbed_phi_coefficient(canonical, monkeypatch, k):
    # the partial fractions come from the recurrence route, so one wrong
    # coefficient C_{N,k} must fail against the series values of U_N; C_0 is
    # the prefactor, which both routes share
    p, good = canonical, brf.phi_expansion

    def off(params):
        rows = [list(row) for row in good(params)]
        rows[p.N][k] += F(1, 10**6)
        return tuple(map(tuple, rows))

    monkeypatch.setattr(brf, "phi_expansion", off)
    with pytest.raises(QHahnError, match=f"expansion of U_{p.N} fails"):
        partial_fraction(off(p)[p.N], brf_family(p).rows[p.N], p)
    report = check_partial_fractions(Instance(p))
    assert report.status == "fail"
    assert [v["n"] for v in report.violations] == [p.N]


def test_partial_fractions_report_a_u0_that_is_not_one(canonical, monkeypatch):
    # U_0 has no poles, so its partial fractions are the constant 1 alone
    monkeypatch.setattr(brf, "brf_family", bumped_family(canonical, 0, 1, F(1, 7)))
    report = check_partial_fractions(Instance(canonical))
    assert report.violations == [{"n": 0, "residual": "U_0 is not identically 1"}]


def test_phi_expansion_reads_its_step_from_the_v_phi_band(monkeypatch):
    # one declaration: V's phi lower coefficient at n = 2, doubled, is the
    # step to C_{n,2}, so the recurrence route fails for every U_n that
    # reaches phi_2, and the factorization fails in the phi basis only
    p = QParams(F(1, 2), F(3), F(1, 5), 4)
    good = operators._BANDS[(Operator.V, Basis.PHI)]
    monkeypatch.setitem(operators._BANDS, (Operator.V, Basis.PHI), lambda params, i: (
        *good(params, i)[:2], good(params, i)[2] * (2 if i == 2 else 1)))
    inst = Instance(p)
    assert [v["n"] for v in check_partial_fractions(inst).violations] == [2, 3, 4]
    assert [v["basis"] for v in check_factorization(inst).violations] == ["phi"]


def test_partial_fraction_raises_pole_on_grid_only_where_row_n_meets_the_pole():
    # A = q^-2 puts the pole at d = k - x = 2: the basis table spans k < N and
    # holds it, but rows n <= 2 meet d in [-N, n-1] only, so they fail just
    # their expansion, and rows 3 and 4 raise PoleOnGrid
    p = QParams(F(1, 2), F(4), F(1, 5), 4)
    u = GridVector((F(2),) * (p.N + 1), p)
    for n in (1, 2):
        with pytest.raises(QHahnError, match=f"expansion of U_{n} fails") as exc:
            residues(n, u)
        assert not isinstance(exc.value, PoleOnGrid)
    for n in (3, 4):
        with pytest.raises(PoleOnGrid, match="A q\\^2 = 1"):
            residues(n, u)


@pytest.mark.parametrize("power", [2, -2])
def test_partial_fraction_pole_on_the_grid_is_a_library_error(power):
    # A = q^power puts a pole of 1/[alpha+k-x]_q on the grid (s_k = t_x)
    p = QParams(F(1, 2), F(1, 2) ** power, F(1, 5), 4)
    u = GridVector((F(2),) * (p.N + 1), p)
    with pytest.raises(PoleOnGrid):
        residues(3, u)
