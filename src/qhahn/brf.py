"""Biorthogonal rational functions of q-Hahn type.

The family U_0..U_N on the grid x = 0..N solves the generalized eigenvalue
problem Y U_n = lambda_n X U_n with lambda_n = [-n]_q [n+beta-N]_q.  Each
U_n is degree-n rational in the q-bracket variable with poles at the fixed
locations [x-alpha-k]_q = 0, and is computed here along two independent
routes (a terminating basic hypergeometric sum, `brf_u`, summed by the
integer kernel `qcore._series_rows` that the 10phi9 and Hahn rows share,
from tables built once per instance, and the recurrence over the basis phi_k,
`phi_expansion`, which gives the coefficients of all N+1 members at once
and reads its eigenvalues and steps from V's phi band).
`partial_fraction` reads the residues of U_n off its row in integer Horner
form, and `check_partial_fractions` verifies that expansion against the
family row on the whole grid, so a verify run compares the two routes.
`brf_family` reduces each series row once to the content-free integer form
every check reads; only `brf_u` and `BRFFamily.members` form Fractions.
`check_partner` tests the adjoint statements on the transposes, on the
integer columns of X, Y and V, and forms no adjoint, passing or failing;
it and the Gram read the weighted partner rows, built once per instance.

The biorthogonal partner family, `partner_family`, is a parameter
reflection of the same family: partner_m(x) = -q^{-1} [alpha-beta-1]_q *
U_m(N-x) evaluated at (q, A, B) -> (1/q, A/(B q^2), 1/B).  Against the
normalized weight w the two families pair diagonally:
(U_n, partner_m)_w = delta_{nm} H_n.

The bare weight and bare norm (`bare_weight`, `bare_norm`) take (q, A, B, N)
in any field, and `qhahn.wilson` uses both as the targets of its limit checks.
Over Fraction, `weight_vector`, the U_n prefactors (built once per instance)
and `norm_h` are running products over x or n, O(N) products for N+1 values;
`norm_h` leaves out the factors that cancel against the weight normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Sequence

from . import linalg
from .operators import (
    Basis,
    GridVector,
    OpMatrix,
    Operator,
    band_coefficients,
    build_operator,
)
from .qcore import (
    PoleOnGrid,
    QHahnError,
    QParams,
    ZeroDenominator,
    _apply,
    _entry,
    _content_free,
    _integer_rows,
    _pair,
    _row_form,
    _running,
    _series_rows,
    eigenvalue,
    frac_str,
    over_common_denominator,
    qnum,
    qpoch,
    qpow,
    validate_params,
)
from .reports import CheckReport, _flag_worst, _residuals, check_gram

__all__ = [
    "bare_weight",
    "weight_vector",
    "weight_scale",
    "reflected_params",
    "u_prefactor",
    "partner_scale",
    "phi_expansion",
    "brf_u",
    "BRFFamily",
    "brf_family",
    "partner_family",
    "Instance",
    "bare_norm",
    "norm_h",
    "partial_fraction",
    "check_weight",
    "check_biorthogonality",
    "check_partner",
    "check_partial_fractions",
]


def weight_scale(p: QParams) -> Fraction:
    """x-independent factor that normalizes the bare weight to total 1."""
    den = qpoch(qpow(p, 0, 0, -1), p.N, p.q)
    if den == 0:
        raise ZeroDenominator("(1/B; q)_N vanishes in the weight normalization")
    return qpow(p, p.N, -p.N) * qpoch(qpow(p, -1, 1, -1), p.N, p.q) / den


def bare_weight(x: int, q, A, B, N: int):
    """Bare weight (q B)^x (q^-N; q)_x (q/A; q)_x / ((q; q)_x (q^{2-N} B/A; q)_x)
    in q's field: exact over Fraction, and the q -> 1 target over mpmath."""
    den = qpoch(q, x, q) * qpoch(q**(2 - N) * B / A, x, q)
    if den == 0:
        raise ZeroDenominator(f"weight denominator vanishes at x = {x}")
    return (q * B) ** x * qpoch(q ** (-N), x, q) * qpoch(q / A, x, q) / den


def weight_vector(p: QParams) -> GridVector:
    """Normalized biorthogonality weight on the grid; sum is exactly 1: over Fraction,
    the second display of `weight_scale(p)` times `bare_weight`, stepped in x."""
    q, A, B, N = p.q, p.A, p.B, p.N
    w = _running(weight_scale(p), ((q * B * (1 - q**(x - 1 - N)) * (1 - q**x / A),
                                    (1 - q**x) * (1 - q**(x + 1 - N) * B / A))
                                   for x in range(1, N + 1)))
    if len(w) <= N:
        raise ZeroDenominator(f"weight denominator vanishes at x = {len(w)}")
    total = sum(w)
    if total != 1:
        raise QHahnError(f"weight normalization failed: sum = {total}")
    return GridVector(tuple(w), p)


def reflected_params(p: QParams) -> QParams:
    """Parameter reflection (q, A, B) -> (1/q, A/(B q^2), 1/B); N fixed.

    In exponent terms this is alpha -> beta - alpha + 2, beta -> beta under
    q -> 1/q.  Applying it twice returns the original instance.
    """
    return QParams(1 / p.q, p.A / (p.B * p.q**2), 1 / p.B, p.N)


def u_prefactor(n: int, p: QParams) -> Fraction:
    """(q^-N; q)_n / (q^{-n-beta}; q)_n, the normalization making U_n(x) -> 1."""
    return _entry(p._u_prefactors, n, p.N, "family index n",
                  "(q^{-n}/B; q)_n vanishes in the U_n prefactor")


def partner_scale(p: QParams) -> Fraction:
    """-q^-1 [alpha - beta - 1]_q, the constant in front of the partner family."""
    return -qpow(p, -1) * qnum(p, -1, 1, -1)


def phi_expansion(p: QParams) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficients of U_0..U_N over the rational basis phi_k: row n holds
    C_{n,0..n}, the coefficients of U_n.

    V phi_k = lambda_k phi_k + s_k phi_{k-1}, V's phi band, so V U_n = lambda_n U_n
    is the two-term recurrence C_{n,k+1} = (lambda_n - lambda_k) / s_{k+1} C_{n,k}
    from C_{n,0}, the prefactor, read from one table of
    `band_coefficients(Operator.V, Basis.PHI, p, k)` built once for all n.
    """
    band = [band_coefficients(Operator.V, Basis.PHI, p, k) for k in range(p.N + 1)]
    rows = []
    for n, (_, lam, _) in enumerate(band):
        row = [u_prefactor(n, p)]
        for k in range(n):
            row.append((lam - band[k][1]) / band[k + 1][2] * row[-1])
        rows.append(tuple(row))
    return tuple(rows)


def brf_u(n: int, p: QParams) -> GridVector:
    """Grid values of U_n, as its prefactor times the terminating 3phi2

        3phi2(q^-n, q^{n-N} B, q^-x; q^-N, A q^-x; q, A/B),

    summed at x = 0..N by the shared integer kernel `qcore._series_rows` from
    the tables `QParams._row_tables`, built once per instance, with the
    prefactor folded in, one Fraction per value.  The q^-x base ends the sum
    at k = x and q^-n at k = n.  A denominator 1 - A q^d that vanishes for
    some d in [-N, n-1] raises ZeroDenominator, whatever x it belongs to.
    `phi_expansion` is the independent second route.
    """
    pref = u_prefactor(n, p)  # raises InvalidParams for n outside 0..N
    return GridVector(tuple(Fraction(*v) for v in _series_rows(p._row_tables, n, pref)), p)


@dataclass(frozen=True)
class BRFFamily:
    """N + 1 grid functions f_0..f_N of one instance p with their eigenvalues.
    Row n is the content-free `qcore._row_form` (ints, s), f_n(x) = ints[x] s,
    which every check reads; `members`, the Fraction values, are formed on
    first use only."""

    rows: tuple[tuple[list[int], Fraction], ...]
    lambdas: tuple[Fraction, ...]
    p: QParams

    @cached_property
    def members(self) -> tuple[GridVector, ...]:
        return tuple(GridVector(tuple(v * s for v in ints), self.p) for ints, s in self.rows)


def _family(p: QParams, at: QParams, scales, order: int = 1) -> BRFFamily:
    """The rows of `at`'s 3phi2 with `scales` folded in, each in `order` and
    reduced once, as a `BRFFamily` of p with the eigenvalues lambda_n of p."""
    return BRFFamily(tuple(_row_form(_series_rows(at._row_tables, n, s)[::order])
                           for n, s in enumerate(scales)),
                     tuple(eigenvalue(n, p) for n in range(p.N + 1)), p)


def brf_family(p: QParams) -> BRFFamily:
    """U_0..U_N, the rows of `brf_u` reduced once each."""
    return _family(p, p, (u_prefactor(n, p) for n in range(p.N + 1)))


def partner_family(p: QParams) -> BRFFamily:
    """The partner family, partner_m(x) = `partner_scale(p)` U_m(N - x) at
    `reflected_params(p)` for m = 0..N, with lambda_m, its eigenvalue of V*."""
    refl, c = reflected_params(p), partner_scale(p)
    return _family(p, refl, (c * u_prefactor(m, refl) for m in range(p.N + 1)), -1)


@dataclass(frozen=True)
class Instance:
    """One instance and the objects its checks share, each built on first use;
    a verify run builds one per `instances` entry for all five q-Hahn suites.
    The checks read both families as `BRFFamily.rows`; the banded `gevp`
    checks compare rows of `images` and `expansions`, the operator actions
    on the family and their mu expansions, in units of each row's scale.

    The builders are called through their modules' globals, looked up at call
    time, so a substitute installed there (a monkeypatch, a tracer) is cached.
    """

    p: QParams

    @cached_property
    def issues(self) -> list[str]:
        """The `validate_params` issues of p at n_max = N, empty when p is valid."""
        return validate_params(self.p, self.p.N).issues()

    @cached_property
    def family(self) -> BRFFamily:
        return brf_family(self.p)

    @cached_property
    def partners(self) -> BRFFamily:
        return partner_family(self.p)

    @cached_property
    def weight(self) -> GridVector:
        return weight_vector(self.p)

    @cached_property
    def partner_rows(self) -> list[tuple[list[int], Fraction]]:
        """w partner_m = t_m h_m for m = 0..N as `qcore._content_free` rows (h_m, t_m)."""
        w, e = over_common_denominator(self.weight)
        return [_content_free(list(map(mul, w, ints)), e / s) for ints, s in self.partners.rows]

    @cached_property
    def ops(self) -> dict[str, OpMatrix]:
        """Point-basis matrices of X, Y, Z and V, keyed by letter."""
        return {op.value: build_operator(op, Basis.POINT, self.p) for op in Operator}

    @cached_property
    def words(self) -> dict[tuple[str, ...], list[tuple[dict[int, int], int]]]:
        """Products of `ops` by word as `_integer_rows`, from the identity and
        the letters' `op_rows`; `evaluate_poly` adds the rest."""
        return {(): [({i: 1}, 1) for i in range(self.p.N + 1)]} | {
            (g,): rows for g, rows in self.op_rows.items()}

    @cached_property
    def constants(self):
        """The closed-form structure constants, `algebra.structure_constants(p)`."""
        from . import algebra  # algebra imports this module

        return algebra.structure_constants(self.p)

    @cached_property
    def op_rows(self) -> dict[str, list[tuple[dict[int, int], int]]]:
        """X, Y, Z and V of `ops` as `_integer_rows`, so a banded row is short."""
        return {g: _integer_rows(m) for g, m in self.ops.items()}

    @cached_property
    def images(self) -> dict[str, list[list[tuple[int, int]]]]:
        """X U_n, Y U_n and Z U_n for n = 0..N, keyed by letter: `_apply` of
        `op_rows` to the ints of each family row, integer pairs in units of its scale."""
        return {g: [_apply(self.op_rows[g], c) for c, _ in self.family.rows] for g in "XYZ"}

    @cached_property
    def expansions(self) -> dict[str, list[tuple]]:
        """The mu three-term expansions of X U_n, Y U_n and Z U_n for n = 0..N,
        keyed by letter, as `gevp._three_term` gives them from one
        `gevp.mu_coefficients(n, p)` per n: (pairs, None), or (None, the problem
        of a coefficient that reaches past the family)."""
        from . import gevp  # gevp imports this module

        rows, N = self.family.rows, self.p.N
        s = [t for _, t in rows]
        ratios = [(s[n + 1] / s[n] if n < N else 1, s[n - 1] / s[n] if n else 1)
                  for n in range(N + 1)]  # s_{n+1} / s_n and s_{n-1} / s_n, shared by X, Y, Z
        mus = [gevp.mu_coefficients(n, self.p) for n in range(N + 1)]
        return {g: [gevp._three_term([mu[3 * i + ell] for ell in (1, 2, 3)], n, rows, ratios[n])
                    for n, mu in enumerate(mus)] for i, g in enumerate("XYZ")}


def bare_norm(n: int, q, A, B, N: int):
    """Bare diagonal norm in q's field, as `bare_weight`:

        q^{N(alpha-1)} (1/B; q)_N / (A/(Bq); q)_N * `_bare_norm_n`.
    """
    den = qpoch(A / (q * B), N, q)
    if den == 0:
        raise ZeroDenominator("norm denominator vanishes")
    return A**N * q ** (-N) * qpoch(1 / B, N, q) / den * _bare_norm_n(n, q, B, N)


def _bare_norm_n(n: int, q, B, N: int):
    """The factor of `bare_norm` that depends on n, 1 at n = 0:

        q^{-Nn} (q; q)_n (qB; q)_n (q^{n-N} B; q)_n / ((q^-N; q)_n (q^{1-N} B; q)_{2n}).
    """
    den = qpoch(q ** (-N), n, q) * qpoch(q ** (1 - N) * B, 2 * n, q)
    if den == 0:
        raise ZeroDenominator("norm denominator vanishes")
    return q ** (-N * n) * qpoch(q, n, q) * qpoch(q * B, n, q) * qpoch(q ** (n - N) * B, n, q) / den


def norm_h(p: QParams) -> tuple[Fraction, ...]:
    """Biorthogonality norms H_0..H_N, (U_n, partner_n)_w = H_n, in closed form.

    H_n is the product of the partner constant, the two series prefactors
    (the partner's at the reflected instance), the weight normalization and
    the bare diagonal norm.  The weight normalization is the reciprocal of
    the n-independent head of `bare_norm`, so only `_bare_norm_n` remains,
    and (q^-N; q)_n and (qB; q)_n cancel between it and the prefactors:

        H_n = c q^{-Nn} (q; q)_n (q^N; 1/q)_n / ((q^{-n}/B; q)_n E_n f_{2n}),

    with c = `partner_scale(p)`, f_j = 1 - q^{j-N} B, E_n = f_1 ... f_{n-1}
    (the factors of (q^{1-N} B; q)_{2n} that (q^{n-N} B; q)_n leaves), and
    H_0 = c.  Each factor is a running product over n, so all N+1 norms take
    O(N) products.  A cancelled denominator still raises ZeroDenominator at
    the first n where it vanishes, in the order the factors appear: the
    prefactor at p, at the reflected instance, then the bare norm.
    `check_biorthogonality` compares H_n with the sum.
    """
    q, B, N = p.q, p.B, p.N
    c = partner_scale(p)
    out = [c]
    t, e = c, q**0  # c q^{-Nn} (q; q)_n (q^N; 1/q)_n / (q^{-n}/B; q)_n, and E_n
    for n in range(1, N + 1):
        pre = 1 - q**-n / B  # the new factor of (q^{-n}/B; q)_n = prod_{j<=n} (1 - q^-j/B)
        if pre == 0 or 1 - q**n * B == 0:  # the latter is the reflected one, of (qB; q)_n
            raise ZeroDenominator("(q^{-n}/B; q)_n vanishes in the U_n prefactor")
        f_odd, f_even = (1 - q**(j - N) * B for j in (2 * n - 1, 2 * n))
        if 1 - q**(n - 1 - N) == 0 or f_odd == 0 or f_even == 0:  # (q^-N; q)_n (q^{1-N} B; q)_{2n}
            raise ZeroDenominator("norm denominator vanishes")
        t *= q**-N * (1 - q**n) * (1 - q**(N - n + 1)) / pre
        out.append(t / (e * f_even))
        e *= 1 - q**(n - N) * B
    return tuple(out)


def partial_fraction(coeffs: Sequence[Fraction], row, p: QParams) -> tuple[Fraction, ...]:
    """Residue coefficients eta_{n,0..n-1} with U_n = 1 + sum_k eta_k/[alpha+k-x]_q.

    `coeffs` is row n of `phi_expansion`, C_{n,0..n}, and `row` is U_n's
    `BRFFamily.rows` entry at p.  The basis functions 1/[alpha+k-x]_q carry the n simple
    poles of U_n and vanish in the x -> infinity normalization limit, so the
    constant term is exactly 1.  eta is read off the C_{n,k}: each phi_k
    splits into simple fractions, phi_k = A^-k + sum_{j<k} rho_{k,j} /
    (1 - A q^{j-x}), with rho_{j+1,j} = prod_{d=0..j} (1 - q^-d/A) /
    prod_{d=1..j} (1 - q^-d) and rho_{k+1,j} = rho_{k,j} r_{k-j}, r_d =
    (1 - q^d/A) / (1 - q^d).  So eta_j = sum_{k>j} C_{n,k} rho_{k,j} / (1 - q),
    summed in Horner form on integers: the C_{n,k} over one denominator, r_d
    and the basis values as integer pairs from integer powers of q, and one
    Fraction per eta_j.  Raises PoleOnGrid when a basis function of U_n has
    a pole on the grid (A q^{k-x} = 1, k < n).

    The expansion is then verified against `row` on all N+1 grid points, so it
    compares the recurrence route (`phi_expansion`) with the route that built
    `row` (`brf_family` in `check_partial_fractions`).  The verification is integer
    arithmetic: eta_k = e_k / E over one denominator, and at each x the
    reconstruction over E L_x, one integer dot product with the basis row of
    `QParams._basis_grid` (built once per instance for all n), is compared
    with U_n(x) = ints[x] s cross-multiplied.
    """
    ints, (sn, sd) = row[0], _pair(row[1])
    n = len(coeffs) - 1
    if n == 0:
        if any(v * sn != sd for v in ints):
            raise QHahnError("U_0 is not identically 1")
        return ()
    poles, r, grid = p._basis_grid
    if poles and poles[0] < n:  # row n meets d = k - x in [-N, n-1]
        raise PoleOnGrid(f"1/[alpha+k-x]_q has a pole on the grid: A q^{poles[0]} = 1")
    (a, b), (an, ad) = _pair(p.q), _pair(p.A)
    c, c_den = over_common_denominator(coeffs)
    hn, hd = b * (an - ad), an * (b - a)  # rho_{j+1,j} / (1 - q)
    eta = []
    for j in range(n):
        if j:
            hn, hd = hn * r[-j][0], hd * r[-j][1]
        top, bottom = c[n], 1
        for k in range(n - 1, j, -1):
            rn, rd = r[k - j]
            top, bottom = c[k] * rd * bottom + rn * top, rd * bottom
        eta.append(Fraction(hn * top, hd * bottom * c_den))
    e, e_den = over_common_denominator(eta)
    for x, ((l_x, basis), v) in enumerate(zip(grid, ints)):
        recon = e_den * l_x + sum(map(mul, e, basis))  # zip stops at k = n - 1
        if recon * sd != v * sn * e_den * l_x:
            raise QHahnError(f"partial-fraction expansion of U_{n} fails at x = {x}")
    return tuple(eta)


def check_weight(inst: Instance) -> CheckReport:
    """Weight normalization and the reflection symmetry w_x = w'_{N-x}."""
    p = inst.p
    report = CheckReport(check="weight", params=p.as_dict())
    w = inst.weight
    report.details["total"] = frac_str(sum(w))
    refl = weight_vector(reflected_params(p))
    for x in range(p.N + 1):
        if w[x] != refl[p.N - x]:
            report.add_violation(x=x, residual=frac_str(w[x] - refl[p.N - x]))
    return report


def check_biorthogonality(inst: Instance) -> CheckReport:
    """(U_n, partner_m)_w = delta_{nm} H_n with H_n nonzero, all pairs."""
    return check_gram(CheckReport(check="biorthogonality", params=inst.p.as_dict()),
                      inst.family.rows, inst.partner_rows, norm_h(inst.p))


def check_partner(inst: Instance) -> CheckReport:
    """Adjoint characterization of the partner family.

    For each m, V* partner_m = lambda_m partner_m, and the null space of the
    pencil Y* - lambda_m X* is one-dimensional with X* applied to it
    collinear with partner_m.

    As M* = W^-1 M^T W, W the diagonal of nonzero weights, each part is
    tested on transposes with g_m = w partner_m = t_m h_m (`partner_rows`)
    in integers: the columns of X, Y and V go over one denominator each
    (a_y / e_y) once per call, and every comparison is `reports._residuals`.
    - Eigen: V^T g_m = lambda_m g_m.  With (V^T h_m)_y = s_y / e_y, the
      residual (V* partner_m - lambda_m partner_m)_y is exactly
      (s_y / e_y - lambda_m h_y) t_m / w_y, so a failing m reports its
      max |.| from the integers the test holds, with no adjoint formed.
    - Kernel: ker(Y* - lambda_m X*) = W^-1 ker((Y - lambda_m X)^T), whose
      rows, the columns of Y - lambda_m X over integers, are read on their
      three diagonals only (X is lower bidiagonal, Y tridiagonal).
      `linalg.tridiagonal_kernel` gives its vector g and proves the
      dimension; a zero superdiagonal entry sends the band, as Fractions, to
      `linalg.null_space` instead.  A valid instance can have one: at
      B = A q^(N-1), Y[1][0] = [1 - N - alpha + beta]_q = 0 and lambda_0 = 0.
    - Collinearity: X* W^-1 g is collinear with partner_m exactly when X^T g
      is collinear with g_m; g, from either route, goes in divided by its gcd.
    """
    p = inst.p
    n1 = p.N + 1
    report = CheckReport(check="partner", params=p.as_dict())
    xc, yc, vc = (_integer_rows(zip(*inst.ops[g])) for g in "XYV")  # the columns
    for m, (lam, (h, t)) in enumerate(zip(inst.family.lambdas, inst.partner_rows)):
        hs = [(v, 1) for v in h]
        resid = _residuals(_apply(vc, h), hs, lam, 1)
        _flag_worst(report, [r and r * t / w for r, w in zip(resid, inst.weight)],
                    m=m, kind="eigen")
        num, den = _pair(lam)
        band = [[den * ex * ycol.get(j, 0) - num * ey * xcol.get(j, 0) for j in (i - 1, i, i + 1)]
                for i, ((xcol, ex), (ycol, ey)) in enumerate(zip(xc, yc))]
        sub, diag, sup = [t[0] for t in band[1:]], [t[1] for t in band], [t[2] for t in band[:-1]]
        if all(sup):
            g, residual = linalg.tridiagonal_kernel(sub, diag, sup)
            kernel = [] if residual else [g]
        else:
            dense = [[Fraction(band[i][j - i + 1]) if abs(i - j) < 2 else 0 for j in range(n1)]
                     for i in range(n1)]
            kernel = [over_common_denominator(v)[0] for v in linalg.null_space(dense)]
        if len(kernel) != 1:
            report.add_violation(m=m, kind="kernel", residual=f"dimension {len(kernel)}")
            continue
        g = _content_free(kernel[0], 1)[0]
        image = _apply(xc, g)  # (X^T g)(y) = s / e
        # collinearity: X^T g = r g_m, r read at g_m's first nonzero entry y0;
        # r = 0 also when g_m is zero
        y0 = next((y for y, v in enumerate(h) if v), None)
        r = 0 if y0 is None else Fraction(image[y0][0], image[y0][1] * h[y0])
        if r == 0 or any(v is not None for v in _residuals(image, hs, r, 1)):
            report.add_violation(m=m, kind="collinearity", residual="not proportional")
    return report


def check_partial_fractions(inst: Instance) -> CheckReport:
    """For every n, the partial fractions read off row n of `phi_expansion`,
    built once per call, reproduce the family row of U_n on the whole grid:
    the series route against the recurrence route."""
    report = CheckReport(check="partial_fractions", params=inst.p.as_dict())
    sizes = []
    for n, (row, coeffs) in enumerate(zip(inst.family.rows, phi_expansion(inst.p))):
        try:
            eta = partial_fraction(coeffs, row, inst.p)
        except QHahnError as exc:
            report.add_violation(n=n, residual=str(exc))
            continue
        sizes.append(len(eta))
    report.details["pole_counts"] = sizes
    return report
