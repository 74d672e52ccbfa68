"""Bispectral verification for the rational family U_n.

Two generalized eigenvalue equations are checked exactly on the grid:
the difference equation in x driven by the pencil (X, Y) with eigenvalue
lambda_n, and the recurrence in n driven by the pencil (X, Z) with
x-dependent eigenvalue -[x-alpha]_q.  Both reduce to the tridiagonal
actions of X, Y, Z on the U_n basis with the mu coefficient table.

The factorization Y = X V of the pencil is checked here too, in both
bases.

Boundary convention: values off the grid (U_n at x = -1 or x = N+1, and
family members U_{-1}, U_{N+1}) never enter because their coefficients
vanish; the checkers verify that vanishing instead of assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .brf import Instance
from .operators import (
    Basis,
    GridVector,
    Operator,
    build_operator,
    y_shift_coefficients,
)
from .qcore import (
    DegenerateDenominator,
    InvalidParams,
    QParams,
    eigenvalue,
    frac_str,
    mu_brackets,
    qnum,
    qpow,
    validate_params,
)
from .reports import CheckReport

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
    params: QParams
    n: int

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
    return MuCoefficients(mu=mu, params=p, n=n)


def check_gevp(inst: Instance) -> CheckReport:
    """Y U_n = lambda_n X U_n with exactly zero residual for every n."""
    p = inst.p
    report = CheckReport(check="gevp", params=p.as_dict())
    fam = inst.family
    x_op, y_op = inst.ops["X"], inst.ops["Y"]
    residuals = []
    for n, u in enumerate(fam.members):
        resid = (y_op @ u) - fam.lambdas[n] * (x_op @ u)
        worst = max(abs(v) for v in resid)
        residuals.append(frac_str(worst))
        if not resid.is_zero():
            report.add_violation(n=n, residual=frac_str(worst))
    report.details["residuals"] = residuals
    report.details["lambdas"] = [frac_str(v) for v in fam.lambdas]
    return report


def check_factorization(inst: Instance) -> CheckReport:
    """Check Y = X V exactly in both bases, plus a forward-substitution oracle.

    The oracle recomputes V in the point basis as the bidiagonal solve
    X W = Y and compares W with the constructed V entry by entry.
    """
    p = inst.p
    report = CheckReport(check="factorization", params=p.as_dict())
    phi = {g: build_operator(Operator(g), Basis.PHI, p) for g in "XYV"}
    for basis, ops in ((Basis.POINT, inst.ops), (Basis.PHI, phi)):
        resid = (ops["X"] @ ops["V"]) - ops["Y"]
        report.details[f"{basis.value}_residual"] = frac_str(resid.max_abs())
        if not resid.is_zero():
            report.add_violation(basis=basis.value, residual=frac_str(resid.max_abs()))
    solved = linalg.solve_lower_triangular(inst.ops["X"].rows(), inst.ops["Y"].rows())
    forward_ok = solved == inst.ops["V"].rows()
    report.details["forward_solve_matches"] = forward_ok
    if not forward_ok:
        report.add_violation(basis="point", residual="forward substitution mismatch")
    return report


def check_difference_equation(inst: Instance) -> CheckReport:
    """Three-term difference equation in x for every (n, x), exactly.

    A_1(x) U_n(x+1) + A_0(x) U_n(x) + A_2(x) U_n(x-1)
      = lambda_n ([x-alpha]_q U_n(x) - q^{-alpha} [x]_q U_n(x-1)).
    """
    p = inst.p
    report = CheckReport(check="difference_equation", params=p.as_dict())
    fam = inst.family
    coeffs = [(*y_shift_coefficients(p, x), qnum(p, x, -1), qpow(p, 0, -1) * qnum(p, x))
              for x in range(p.N + 1)]
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


def _three_term(members: Sequence[GridVector], mu3: Sequence, n: int,
                N: int) -> tuple[GridVector | None, str | None]:
    """Combine mu-weighted neighbors of U_n, dropping absent members only
    when their coefficient vanishes.  Returns (vector, problem)."""
    raising, diag, lowering = mu3
    out = diag * members[n]
    if n < N:
        out = out + raising * members[n + 1]
    elif raising != 0:
        return None, "raising coefficient nonzero at n = N"
    if n > 0:
        out = out + lowering * members[n - 1]
    elif lowering != 0:
        return None, "lowering coefficient nonzero at n = 0"
    return out, None


def check_recurrence(inst: Instance) -> CheckReport:
    """Recurrence in n at every grid point, exactly.

    mu1 U_{n+1} + mu2 U_n + mu3 U_{n-1}
      = -[x-alpha]_q (mu7 U_{n+1} + mu8 U_n + mu9 U_{n-1}).
    """
    p = inst.p
    report = CheckReport(check="recurrence", params=p.as_dict())
    fam = inst.family
    for n in range(p.N + 1):
        mu = mu_coefficients(n, p)
        lhs, problem = _three_term(fam.members, (mu[1], mu[2], mu[3]), n, p.N)
        if problem:
            report.add_violation(n=n, residual=problem)
            continue
        zside, problem = _three_term(fam.members, (mu[7], mu[8], mu[9]), n, p.N)
        if problem:
            report.add_violation(n=n, residual=problem)
            continue
        for x in range(p.N + 1):
            rhs = -qnum(p, x, -1) * zside[x]
            if lhs[x] != rhs:
                report.add_violation(n=n, x=x, residual=frac_str(lhs[x] - rhs))
    return report


def check_tridiagonal_actions(inst: Instance) -> CheckReport:
    """X, Y, Z applied to U_n match their three-term mu expansions exactly."""
    p = inst.p
    report = CheckReport(check="tridiagonal_actions", params=p.as_dict())
    fam = inst.family
    table = [mu_coefficients(n, p) for n in range(p.N + 1)]
    for name, labels in (("X", (1, 2, 3)), ("Y", (4, 5, 6)), ("Z", (7, 8, 9))):
        op = inst.ops[name]
        for n in range(p.N + 1):
            mu = table[n]
            expansion, problem = _three_term(
                fam.members, tuple(mu[ell] for ell in labels), n, p.N)
            if problem:
                report.add_violation(op=name, n=n, residual=problem)
                continue
            resid = (op @ fam.members[n]) - expansion
            if not resid.is_zero():
                worst = max(abs(v) for v in resid)
                report.add_violation(op=name, n=n, residual=frac_str(worst))
    return report


def check_contiguity(inst: Instance) -> CheckReport:
    """X, Y, Z map the family at A to the family at qA, exactly.

    X U_n -> [-alpha]_q U'_n;  Y U_n -> [-alpha]_q lambda_n U'_n;
    Z U_n -> -([-alpha]_q/[x-alpha]_q) U'_n pointwise, where U' is the
    family at the shifted instance (q, qA, B, N).  An instance whose shift
    fails the parameter guards (say, onto a basis pole) is a skip.
    """
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
    scale = qnum(p, 0, -1)  # [-alpha]_q
    report.details["scale"] = frac_str(scale)
    x_op, y_op, z_op = inst.ops["X"], inst.ops["Y"], inst.ops["Z"]
    for n in range(p.N + 1):
        u, u_shift = fam.members[n], fam_shift.members[n]
        lam = fam.lambdas[n]
        resid_x = (x_op @ u) - scale * u_shift
        if not resid_x.is_zero():
            report.add_violation(op="X", n=n, residual=frac_str(max(abs(v) for v in resid_x)))
        resid_y = (y_op @ u) - (scale * lam) * u_shift
        if not resid_y.is_zero():
            report.add_violation(op="Y", n=n, residual=frac_str(max(abs(v) for v in resid_y)))
        zu = z_op @ u
        for x in range(p.N + 1):
            rhs = -scale / qnum(p, x, -1) * u_shift[x]
            if zu[x] != rhs:
                report.add_violation(op="Z", n=n, x=x, residual=frac_str(zu[x] - rhs))
    return report
