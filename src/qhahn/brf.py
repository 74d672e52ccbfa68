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
`check_partner` tests the adjoint statements on the transposes and forms no
adjoint: the eigen part on V's integer rows, its rank-one tail eliminated, in
O(N) per m, and the pencil's kernel from Y = X V (`Instance.xv_minus_y`, which
`gevp.check_factorization` reports), so a passing m forms no kernel.  It and
the Gram read the weighted partner rows, built once per instance.

The biorthogonal partner family, `partner_family`, is a parameter
reflection of the same family: partner_m(x) = -q^{-1} [alpha-beta-1]_q *
U_m(N-x) evaluated at (q, A, B) -> (1/q, A/(B q^2), 1/B).  Against the
normalized weight w the two families pair diagonally:
(U_n, partner_m)_w = delta_{nm} H_n.

The bare weight and bare norm (`bare_weight`, `bare_norm`) take (q, A, B, N)
in any field, and `qhahn.wilson` uses both as the targets of its limit checks.
Over Fraction, `weight_vector`, the U_n prefactors (built once per instance)
and `norm_h` step over x or n on integer factor pairs, one Fraction per value;
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
    _factors,
    _integer_rows,
    _monomial,
    _mul_rows,
    _pair,
    _powers,
    _row_form,
    _running,
    _series_rows,
    _sub_rows,
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
    """The factor q^N A^-N (q^-1 A/B; q)_N / (1/B; q)_N normalizing the bare weight to total 1."""
    N, powers = p.N, _powers(p.q, 0, p.N)
    dn, dd = _factors(powers, [_monomial(p, 0, 0, -1)], range(N))
    if dn == 0:
        raise ZeroDenominator("(1/B; q)_N vanishes in the weight normalization")
    (mn, md), (nn, nd) = _monomial(p, N, -N), _factors(powers, [_monomial(p, -1, 1, -1)], range(N))
    return Fraction(mn * nn * dd, md * nd * dn)


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
    N, powers, (bn, bd) = p.N, _powers(p.q, -p.N, p.N + 1), _monomial(p, 1, 0, 1)
    # q B (1 - q^{x-1-N}) (1 - q^x / A) / ((1 - q^x) (1 - q^{x+1-N} B / A)), each pair at one d
    nums, dens = [(1, 1), _monomial(p, N + 1, -1)], [(1, 1), _monomial(p, 1 - N, -1, 1)]
    steps = ((_factors(powers, nums, (x - 1 - N,)), _factors(powers, dens, (x,)))
             for x in range(1, N + 1))
    w = _running(weight_scale(p), ((bn * an * cd, bd * ad * cn) for (an, ad), (cn, cd) in steps))
    if len(w) <= N:
        raise ZeroDenominator(f"weight denominator vanishes at x = {len(w)}")
    ints, d = over_common_denominator(w)
    if sum(ints) != d:
        raise QHahnError(f"weight normalization failed: sum = {Fraction(sum(ints), d)}")
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
        the letters' `op_rows`; `algebra._word_rows` adds the rest."""
        return {(): [({i: 1}, 1) for i in range(self.p.N + 1)]} | {
            (g,): rows for g, rows in self.op_rows.items()}

    @cached_property
    def constants(self):
        """The closed-form structure constants, `algebra.structure_constants(p)`."""
        from . import algebra  # algebra imports this module

        return algebra.structure_constants(self.p)

    @cached_property
    def relations(self) -> dict:
        """Both algebras' relations as free polynomials, `algebra._relation_polys(self)`."""
        from . import algebra

        return algebra._relation_polys(self)

    @cached_property
    def relation_rows(self) -> dict:
        """Both algebras' relations as integer rows, `algebra._relation_rows(self)`."""
        from . import algebra

        return algebra._relation_rows(self)

    @cached_property
    def op_rows(self) -> dict[str, list[tuple[dict[int, int], int]]]:
        """X, Y, Z and V of `ops` as `_integer_rows`, so a banded row is short."""
        return {g: _integer_rows(m) for g, m in self.ops.items()}

    @cached_property
    def xv_minus_y(self) -> list[tuple[dict[int, int], int]]:
        """X V - Y of `op_rows` as `_integer_rows`, which `gevp.check_factorization`
        reports and `check_partner` reads as a premise."""
        rows = self.op_rows
        return _sub_rows(_mul_rows(rows["X"], rows["V"]), rows["Y"])

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
    H_0 = c.  H_n / H_{n-1} is one integer pair of `_factors` pairs, so all
    N+1 norms take O(N) products.  A cancelled denominator still raises ZeroDenominator at
    the first n where it vanishes, in the order the factors appear: the
    prefactor at p, at the reflected instance, then the bare norm.
    `check_biorthogonality` compares H_n with the sum.
    """
    N, powers, one = p.N, _powers(p.q, -p.N, p.N + 1), (1, 1)
    f = [_factors(powers, [p._pairs[2]], (j - N,)) for j in range(2 * N + 1)]
    out = [partner_scale(p)]
    for n in range(1, N + 1):
        if f[N + n][0] == 0:  # 1 - q^n B, of (qB; q)_n, and of (q^{-n}/B; q)_n up to -q^-n/B
            raise ZeroDenominator("(q^{-n}/B; q)_n vanishes in the U_n prefactor")
        if f[2 * n - 1][0] == 0 or f[2 * n][0] == 0:  # (q^-N; q)_n has no zero
            raise ZeroDenominator("norm denominator vanishes")
        # H_n / H_{n-1} = -q^{n-N} B (1 - q^n) (1 - q^{N-n+1}) f_{2n-2} / (f_{N+n} f_{n-1} f_{2n})
        (hn, hd), (mn, md) = _pair(out[-1]), _monomial(p, n - N, 0, 1)
        (an, ad), (sn, sd), (en, ed) = _factors(powers, [one], (n, N - n + 1)), f[N + n], f[2 * n]
        (gn, gd), (kn, kd) = (f[2 * n - 2], f[n - 1]) if n > 1 else (one, one)  # E_1 = 1
        out.append(Fraction(-hn * mn * an * gn * kd * sd * ed, hd * md * ad * gd * kn * sn * en))
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
    collinear with partner_m.  As M* = W^-1 M^T W, W the diagonal of
    nonzero weights, each part is tested on transposes with g_m = w
    partner_m = t_m h_m (`partner_rows`) in integers, read from `op_rows`.
    - Eigen, O(N) per m: below its diagonal V[x][y] = c_x F(x) / F(y) (the
      tail of `operators._v_point`) has rank one, so with rho_y = V[N][y] /
      V[N][y+1] = pn / pd, L V^T, L unit upper bidiagonal with -rho_y at
      (y, y+1), is V's band plus a sparse defect: the x > y+1 where
      a_xy pd = a_x,y+1 pn fails, one integer test each per call.  z =
      L (V^T - lambda_m) h_m, two banded products, is zero exactly when
      the part holds; a failing m solves L r = z back from y = N for its
      exact residual (V* partner_m - lambda_m partner_m)_y = r_y t_m / w_y.
    - Kernel and collinearity from Y = X V: with `Instance.xv_minus_y`
      zero, X lower bidiagonal with no zero diagonal entry, Y tridiagonal,
      h_m nonzero, no zero (Y - lambda_m X)[i+1][i] (so the kernel of
      (Y - lambda_m X)^T = (V - lambda_m)^T X^T has dimension at most 1)
      and the eigen part passing, X^-T h_m spans that kernel and X^T of it
      is h_m: m passes and no kernel is formed.
    - Any other m: ker((Y - lambda_m X)^T), W ker(Y* - lambda_m X*), is read
      on its three diagonals, the integer columns of Y - lambda_m X.
      `linalg.tridiagonal_kernel` gives its vector g and proves the
      dimension; a zero superdiagonal entry, as at m = 0 of a valid instance
      with B = A q^(N-1), where Y[1][0] = [0]_q and lambda_0 = 0, sends the
      band, as Fractions, to `linalg.null_space`.  X* W^-1 g is collinear
      with partner_m exactly when X^T g, g over its gcd, is with g_m.
    """
    p, N = inst.p, inst.p.N
    report = CheckReport(check="partner", params=p.as_dict())
    xr, yr, vr = (inst.op_rows[g] for g in "XYV")
    an = vr[N][0]
    rho = [Fraction(an.get(y, 0), an[y + 1]) if y < N - 1 and an.get(y + 1) else 0
           for y in range(N + 1)]  # 0 where no tail is left or V[N][y+1] = 0
    lrows, bt = [], []
    for y, (pn, pd) in enumerate(map(_pair, rho)):
        lrows.append(({y: pd, y + 1: -pn} if pn else {y: 1}, pd))
        bt.append([Fraction(c, pd * e) if (c := pd * a.get(y, 0) - pn * a.get(y + 1, 0)) else 0
                   for a, e in vr])  # row y of L V^T
    brows = _integer_rows(bt)
    factored = (not any(r for r, _ in inst.xv_minus_y)
                and all(a.keys() <= {i - 1, i} and a.get(i) for i, (a, _) in enumerate(xr))
                and all(a.keys() <= {i - 1, i, i + 1} for i, (a, _) in enumerate(yr)))
    xc = yc = None
    for m, (lam, (h, t)) in enumerate(zip(inst.family.lambdas, inst.partner_rows)):
        z = _residuals(_apply(brows, h), _apply(lrows, h), lam, 1)
        resid, r = [None] * (N + 1), 0
        if any(z):  # solve L r = z
            for y in range(N, -1, -1):
                r = (z[y] or 0) + rho[y] * r
                resid[y] = r or None
        _flag_worst(report, [r and r * t / w for r, w in zip(resid, inst.weight)],
                    m=m, kind="eigen")
        num, den = _pair(lam)
        if factored and any(h) and not any(resid) and all(
                den * yr[i][0].get(i - 1, 0) * xr[i][1] != num * xr[i][0].get(i - 1, 0) * yr[i][1]
                for i in range(1, N + 1)):
            continue
        if xc is None:
            xc, yc = (_integer_rows(zip(*inst.ops[g])) for g in "XY")  # the columns
        band = [[den * ex * ycol.get(j, 0) - num * ey * xcol.get(j, 0) for j in (i - 1, i, i + 1)]
                for i, ((xcol, ex), (ycol, ey)) in enumerate(zip(xc, yc))]
        sub, diag, sup = [t[0] for t in band[1:]], [t[1] for t in band], [t[2] for t in band[:-1]]
        if all(sup):
            g, residual = linalg.tridiagonal_kernel(sub, diag, sup)
            kernel = [] if residual else [g]
        else:
            dense = [[Fraction(band[i][j - i + 1]) if abs(i - j) < 2 else 0 for j in range(N + 1)]
                     for i in range(N + 1)]
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
        if r == 0 or any(v is not None for v in _residuals(image, [(v, 1) for v in h], r, 1)):
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
