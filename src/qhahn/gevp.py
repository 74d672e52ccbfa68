"""Bispectral verification for the rational family U_n.

Two generalized eigenvalue equations are checked exactly on the grid:
the difference equation in x driven by the pencil (X, Y) with eigenvalue
lambda_n, and the recurrence in n driven by the pencil (X, Z) with
x-dependent eigenvalue -[x-alpha]_q.  Both reduce to the tridiagonal
actions of X, Y, Z on the U_n basis with the mu coefficient table.

The factorization Y = X V of the pencil is checked here too, in both
bases, as a product of integer rows (`qcore._mul_rows`), with a
forward-substitution oracle on the dense Fraction rows.

The five banded checks compare rows of two tables that `Instance` builds
once: `images`, X U_n, Y U_n and Z U_n as integer band products, and
`expansions`, their mu three-term expansions, both in units of U_n's row
scale s_n, a neighbour's (or the shifted family's) ratio s_m / s_n folded
into its Fraction coefficient.  Each identity at (n, x) is compared with
those coefficients by `reports._residuals`, the comparison the Gram and
partner checks share, and only a violating entry builds its Fraction
residual, scaled back by s_n.

Boundary convention: values off the grid (U_n at x = -1 or x = N+1, and
family members U_{-1}, U_{N+1}) never enter because their coefficients
vanish; the checkers verify that vanishing instead of assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .brf import Instance
from .operators import Basis, Operator, band_coefficients, build_operator
from .qcore import (
    DegenerateDenominator,
    InvalidParams,
    QParams,
    SingularSystem,
    _integer_rows,
    _mul_rows,
    _pair,
    _sub_rows,
    eigenvalue,
    frac_str,
    mu_brackets,
    over_common_denominator,
    qnum,
    qpow,
)
from .reports import CheckReport, _flag_worst, _fractions, _residuals

__all__ = [
    "MuCoefficients",
    "mu_coefficients",
    "check_gevp",
    "check_factorization",
    "check_difference_equation",
    "check_recurrence",
    "check_tridiagonal_actions",
    "check_contiguity",
]


@dataclass(frozen=True)
class MuCoefficients:
    """The nine coefficients of the tridiagonal actions of X, Y, Z on U_n.

    mu[0..2] expand X U_n over (U_{n+1}, U_n, U_{n-1}), mu[3..5] expand
    Y U_n, mu[6..8] expand Z U_n.  mu[3+i] = lambda_n mu[i], mu[0] =
    -[n]_q mu[6], mu[2] = -[N-beta-n]_q mu[8], and at n = N the raising
    coefficients mu[0], mu[3], mu[6] are zero.
    """

    mu: tuple

    def __getitem__(self, ell: int):
        """1-based accessor matching the superscript labels (1..9)."""
        if not 1 <= ell <= 9:
            raise IndexError(f"mu label {ell} out of range 1..9")
        return self.mu[ell - 1]


def mu_coefficients(n: int, p: QParams) -> MuCoefficients:
    """Exact mu table for index n, with the n = N raising override."""
    if not 0 <= n <= p.N:
        raise InvalidParams(f"index n = {n} must lie in 0..N = {p.N}")
    N = p.N
    brackets = mu_brackets(n, p)
    for label, d in brackets:
        if d == 0:
            raise DegenerateDenominator(f"{label} vanishes at n = {n}")
    d_mid, d_up, d_down, d_mid1 = (d for _, d in brackets)

    if n == N:
        mu7 = 0 * p.q
    else:
        mu7 = (
            qpow(p, -n, -1)
            * qnum(p, n + 1, 0, 1) * qnum(p, N - n, 0, -1)
            / (d_mid * d_up)
        )
    mu1 = -qnum(p, n) * mu7
    mu2 = qpow(p, 0, -1) * (
        -qnum(p, 0, 1)
        + qnum(p, -n)
        + qnum(p, n) * qnum(p, 1 - n) * qnum(p, n, 0, 1) / d_down
        - qnum(p, -n) * qnum(p, n + 1) * qnum(p, n + 1, 0, 1) / d_up
    )
    # mu8 = sigma_n - sigma_{n+1} - 1 where sigma_n is the phi-coefficient
    # ratio q^{beta-alpha+n-N} [n]_q [N+1-n]_q / [2n-1+beta-N]_q; the edge
    # values sigma_0 = sigma_{N+1} = 0 make the one formula cover all n.
    sigma_n = qpow(p, n - N, -1, 1) * qnum(p, n) * qnum(p, N + 1 - n) / d_down
    sigma_next = qpow(p, n + 1 - N, -1, 1) * qnum(p, n + 1) * qnum(p, N - n) / d_up
    mu8 = sigma_n - sigma_next - 1
    mu9 = (
        qpow(p, 0, -1)
        * qnum(p, -n) * qnum(p, N - n + 1)
        / (d_mid * d_mid1)
    )
    mu3 = -qnum(p, N - n, 0, -1) * mu9
    lam = eigenvalue(n, p)
    mu = (mu1, mu2, mu3, lam * mu1, lam * mu2, lam * mu3, mu7, mu8, mu9)
    return MuCoefficients(mu)


def check_gevp(inst: Instance) -> CheckReport:
    """Y U_n = lambda_n X U_n with exactly zero residual for every n."""
    report = CheckReport(check="gevp", params=inst.p.as_dict())
    images, family = inst.images, inst.family
    report.details["residuals"] = [
        _flag_worst(report, _residuals(images["Y"][n], images["X"][n], lam, s), n=n)
        for n, (lam, (_, s)) in enumerate(zip(family.lambdas, family.rows))]
    report.details["lambdas"] = [frac_str(v) for v in inst.family.lambdas]
    return report


def check_factorization(inst: Instance) -> CheckReport:
    """Check Y = X V exactly in both bases, plus a forward-substitution oracle.

    X V - Y is formed on integer rows, the point basis once per instance
    (`Instance.xv_minus_y`, a premise of `brf.check_partner`).  The oracle,
    a second algorithm in a second arithmetic, recomputes V on the dense
    Fraction rows as the bidiagonal solve X W = Y, W_i = (Y_i - X_{i,i-1}
    W_{i-1}) / X_{i,i} row by row, and compares W with V entry by entry.
    """
    p = inst.p
    report = CheckReport(check="factorization", params=p.as_dict())
    phi = {g: _integer_rows(build_operator(Operator(g), Basis.PHI, p)) for g in "XYV"}
    for basis, diff in ((Basis.POINT, inst.xv_minus_y),
                        (Basis.PHI, _sub_rows(_mul_rows(phi["X"], phi["V"]), phi["Y"]))):
        resid = _fractions(diff)
        report.details[f"{basis.value}_residual"] = _flag_worst(report, resid, basis=basis.value)
    x, solved = inst.ops["X"], []
    for i, row in enumerate(inst.ops["Y"]):
        if x[i][i] == 0:
            raise SingularSystem(f"zero diagonal entry at row {i}")
        if i and x[i][i - 1]:
            row = [a - x[i][i - 1] * w if w else a for a, w in zip(row, solved[-1])]
        solved.append([a / x[i][i] for a in row])
    forward_ok = solved == inst.ops["V"].rows()
    report.details["forward_solve_matches"] = forward_ok
    if not forward_ok:
        report.add_violation(basis="point", residual="forward substitution mismatch")
    return report


def check_difference_equation(inst: Instance) -> CheckReport:
    """Three-term difference equation in x for every (n, x), exactly.

    A_1(x) U_n(x+1) + A_0(x) U_n(x) + A_2(x) U_n(x-1)
      = lambda_n ([x-alpha]_q U_n(x) - q^{-alpha} [x]_q U_n(x-1)),

    row x of Y U_n = lambda_n X U_n, as in `check_gevp`, with a violation
    per (n, x).  A matrix row cannot show a coefficient that would reach off
    the grid, so those three are read from the `band_coefficients`
    declarations and must vanish: A_1 at x = N, A_2 and q^{-alpha} [x]_q
    (X's lowering coefficient) at x = 0.
    """
    p, N = inst.p, inst.p.N
    report = CheckReport(check="difference_equation", params=p.as_dict())
    problems = [None] * (N + 1)
    if band_coefficients(Operator.X, Basis.POINT, p, 0)[2]:
        problems[0] = "off-grid [x]_q coefficient nonzero"
    if band_coefficients(Operator.Y, Basis.POINT, p, 0)[2]:
        problems[0] = "off-grid lowering coefficient nonzero"
    if band_coefficients(Operator.Y, Basis.POINT, p, N)[0]:
        problems[N] = "off-grid raising coefficient nonzero"
    images, family = inst.images, inst.family
    for n, (lam, (_, s)) in enumerate(zip(family.lambdas, family.rows)):
        resid = _residuals(images["Y"][n], images["X"][n], lam, s)
        for x, (problem, r) in enumerate(zip(problems, resid)):
            if problem:
                report.add_violation(n=n, x=x, residual=problem)
            elif r is not None:
                report.add_violation(n=n, x=x, residual=frac_str(r))
    return report


def _three_term(mu3: Sequence, n: int, rows: Sequence, ratios: Sequence):
    """mu3[0] U_{n+1} + mu3[1] U_n + mu3[2] U_{n-1} at every x, as integer
    pairs (numerator, E) in units of s_n, from the family's `BRFFamily.rows`
    (ints, s_m), a neighbour's coefficient times its `ratios` entry s_m / s_n.
    An absent member is dropped only when its coefficient vanishes.  Returns
    (pairs, problem); `Instance.expansions` holds one per operator and n."""
    N = len(rows) - 1
    (raising, diag, lowering), (up, down) = mu3, ratios
    if n == N and raising != 0:
        return None, "raising coefficient nonzero at n = N"
    if n == 0 and lowering != 0:
        return None, "lowering coefficient nonzero at n = 0"
    terms = {m: c for m, c in ((n + 1, raising * up), (n, diag), (n - 1, lowering * down))
             if 0 <= m <= N}
    ints, e = over_common_denominator(terms.values())
    return [(sum(map(mul, ints, col)), e) for col in zip(*(rows[m][0] for m in terms))], None


def _brackets(inst: Instance) -> list[tuple[int, int]]:
    """[x-alpha]_q, X's diagonal, at x = 0..N as integer pairs."""
    return [_pair(inst.ops["X"][x][x]) for x in range(inst.p.N + 1)]


def check_recurrence(inst: Instance) -> CheckReport:
    """Recurrence in n at every grid point, exactly.

    mu1 U_{n+1} + mu2 U_n + mu3 U_{n-1}
      = -[x-alpha]_q (mu7 U_{n+1} + mu8 U_n + mu9 U_{n-1}).
    """
    report = CheckReport(check="recurrence", params=inst.p.as_dict())
    brackets = _brackets(inst)
    for n, ((lhs, problem), (zside, z_problem), (_, s)) in enumerate(
            zip(inst.expansions["X"], inst.expansions["Z"], inst.family.rows)):
        if problem or z_problem:
            report.add_violation(n=n, residual=problem or z_problem)
            continue
        rhs = [(-xd * z, ex * e) for (z, e), (xd, ex) in zip(zside, brackets)]
        for x, r in enumerate(_residuals(lhs, rhs, 1, s)):
            if r is not None:
                report.add_violation(n=n, x=x, residual=frac_str(r))
    return report


def check_tridiagonal_actions(inst: Instance) -> CheckReport:
    """X, Y, Z applied to U_n match their three-term mu expansions exactly."""
    report = CheckReport(check="tridiagonal_actions", params=inst.p.as_dict())
    for name in "XYZ":
        for n, (image, (expansion, problem), (_, s)) in enumerate(
                zip(inst.images[name], inst.expansions[name], inst.family.rows)):
            if problem:
                report.add_violation(op=name, n=n, residual=problem)
                continue
            _flag_worst(report, _residuals(image, expansion, 1, s), op=name, n=n)
    return report


def check_contiguity(inst: Instance) -> CheckReport:
    """X, Y, Z map the family at A to the family at qA, exactly.

    X U_n -> [-alpha]_q U'_n;  Y U_n -> [-alpha]_q lambda_n U'_n;
    Z U_n -> -([-alpha]_q/[x-alpha]_q) U'_n pointwise, where U' is the
    family at the shifted instance (q, qA, B, N), compared as its ints with
    the ratio s'_n / s_n of the two row scales folded into the coefficient.
    An instance whose shift fails the parameter guards (say, onto a basis
    pole) is a skip.
    """
    p = inst.p
    report = CheckReport(check="contiguity", params=p.as_dict())
    shifted = Instance(QParams(p.q, p.q * p.A, p.B, p.N))
    for target, tag in ((inst, "base"), (shifted, "shifted")):
        if target.issues:
            report.skipped = f"{tag} instance invalid for contiguity: " + "; ".join(target.issues)
            return report
    images, family = inst.images, inst.family
    scale = qnum(p, 0, -1)  # [-alpha]_q
    report.details["scale"] = frac_str(scale)
    brackets = _brackets(inst)
    for n, (lam, (_, s), (ints, s_shift)) in enumerate(
            zip(family.lambdas, family.rows, shifted.family.rows)):
        ratio, u_shift = scale * s_shift / s, [(v, 1) for v in ints]
        for name, factor in (("X", ratio), ("Y", ratio * lam)):
            _flag_worst(report, _residuals(images[name][n], u_shift, factor, s), op=name, n=n)
        rhs = [(-ex * v, xd) for v, (xd, ex) in zip(ints, brackets)]
        for x, r in enumerate(_residuals(images["Z"][n], rhs, ratio, s)):
            if r is not None:
                report.add_violation(op="Z", n=n, x=x, residual=frac_str(r))
    return report
