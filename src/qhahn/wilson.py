"""Terminating very-well-poised 10phi9 biorthogonal family and its limits.

The family u_n, v_n is biorthogonal on x = 0..N against the weight w_x,
with diagonal norms h_n, all in exact rational arithmetic; w_x and h_n are
running products over x and n, built once per parameter object, each step's
factors 1 - c q^j multiplied as one integer pair (`qcore._factors`).  Each of
the 15 bases of the 10phi9 is c q^{dn n + dx x}, dn, dx in {-1, 0, 1}, dn dx = 0,
declared once in `WilsonParams._series_bases`, so its term ratio is a part
in k + dn n times a part in k + dx x, both tabulated once per parameter object
(`WilsonParams._row_tables`).  The kernel `qcore._series_rows` sums a whole
row u_n(0..N) from them in integer Horner form, one integer pair per value,
with the very-well-poised factor (1 - h q^{2k}) / (1 - h), h = qa/qe, as the
weight.  The q = 1 Hahn 3F2, weight and norms are built the same ways, and
so is `brf.brf_u`'s 3phi2.  Both Gram checks take those pairs, the weight
folded into each u row, as content-free integer rows to `check_gram`
(`_row_gram`); `wilson_u`, `hahn_u` and their partners make them Fractions.

Two degenerations are verified.  Sending qa -> infinity along qa = q^{-m}
(|q| < 1) collapses the family onto the rational functions of the brf
module.  The limit targets are brf's bare weight and norm (`bare_weight`,
`bare_norm`) and the 3phi2 series `limit_u`/`limit_v`, summed here from their
own display in q's field, a route independent of `brf.brf_u` and of the
integer kernel: each row in Horner form from its term ratio, split into a
part free of x and a part in one offset k -+ x (`_limit_row`).  Exact
deviations from them must decrease, with the last ratio at most
|q|^{(m1 - m0)/2}.  Sending q -> 1 with integer exponents yields an
ordinary hypergeometric family (Hahn type) whose biorthogonality is checked
exactly, with a floating-point convergence certificate for the q -> 1
approach itself, through the same targets over mpmath.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod

from .brf import bare_norm, bare_weight
from .qcore import (
    InvalidParams,
    QParams,
    ZeroDenominator,
    _entry,
    _ExactParams,
    _factors,
    _pair,
    _powers,
    _row_form,
    _running,
    _series_rows,
    _series_tables,
    frac_str,
    scalar,
    validate_params,
)
from .reports import CheckReport, check_gram

__all__ = [
    "WilsonParams",
    "wilson_weight",
    "wilson_u",
    "wilson_v",
    "wilson_h",
    "check_wilson_biorthogonality",
    "limit_u",
    "limit_v",
    "induced_wilson_params",
    "wilson_limit_check",
    "HahnParams",
    "hahn_weight",
    "hahn_u",
    "hahn_v",
    "hahn_h",
    "check_hahn_biorthogonality",
    "qto1_convergence_check",
]


@dataclass(frozen=True)
class WilsonParams(_ExactParams):
    """Free parameters (q, qa, qc, qd, qe, N); qb and qf are derived.

    The products qa*qb = q^{-N} and qa*qb*qc*qd*qe*qf = q hold by
    construction.  Validation scans every denominator factor appearing in
    the weight, the two series, and the norms for x, n <= N.
    """

    q: Fraction
    qa: Fraction
    qc: Fraction
    qd: Fraction
    qe: Fraction
    N: int

    def __post_init__(self):
        super().__post_init__()
        if self.q == 0 or self.q == 1 or self.q == -1:
            raise InvalidParams("q must avoid 0, 1, -1")
        if 0 in (self.qa, self.qc, self.qd, self.qe):
            raise InvalidParams("parameter values must be nonzero")
        _validate_denominators(self)

    @property
    def qb(self) -> Fraction:
        return self.q ** (-self.N) / self.qa

    @property
    def qf(self) -> Fraction:
        return self.q ** (self.N + 1) / (self.qc * self.qd * self.qe)

    @cached_property
    def _series_bases(self) -> tuple:
        """(h, num, den) of u_n and of its partner v_n: the very-well-poised
        h = qa/qe and the 8 numerator and 7 denominator bases of the 10phi9
        ((q; q)_k aside), each a triple (c, dn, dx) for the base
        c q^{dn n + dx x}.  The partner swaps a <-> b and e <-> f, but its
        grid stays anchored to the original head, so its series variable
        q^x s has s = qa/qb.  The one declaration the row kernel, the guard
        and the tests read."""
        q, qc, qd, out = self.q, self.qc, self.qd, []
        for qa, qb, qe, qf, s in ((self.qa, self.qb, self.qe, self.qf, Fraction(1)),
                                  (self.qb, self.qa, self.qf, self.qe, self.qa / self.qb)):
            num = ((1, -1, 0), (qa / qe, 0, 0), (q / (qc * qe), 0, 0), (q / (qd * qe), 0, 0),
                   (q / (qe * qb), 0, 0), (1 / (qe * qf), 1, 0), (qa * qa * s, 0, 1),
                   (1 / s, 0, -1))
            den = ((qa * qb, 0, 0), (qa * qc, 0, 0), (qa * qd, 0, 0), (q * qa / qe, 1, 0),
                   (q * qa * qf, -1, 0), (q / (qe * qa * s), 0, -1), (q * s * qa / qe, 0, 1))
            out.append((qa / qe, num, den))
        return tuple(out)

    @cached_property
    def _row_tables(self) -> tuple:
        """The `_series_tables` of u_n and v_n: each `_series_bases` entry with (q; q)_k,
        z = q and the weights 1 - h q^{2k}, which `_wilson_rows` divides by 1 - h."""
        q, powers = self.q, _powers(self.q, 0, 2 * self.N + 1)
        return tuple(_series_tables(num, [(q, 0, 0), *den], q, q, self.N,
                                    [_factors(powers, [_pair(h)], (2 * k,))
                                     for k in range(self.N + 1)])
                     for h, num, den in self._series_bases)

    @cached_property
    def _weights(self) -> list[Fraction]:
        """The `_running` table of `wilson_weight`, stepped by (qa^2, `_weight_pairs`),
        each step's products of factors 1 - c q^j one `_factors` pair."""
        q, qa, N = self.q, self.qa, self.N
        if qa * qa == 1:
            raise ZeroDenominator("weight head denominator vanishes")
        pairs = [(qa * qa, q), *_weight_pairs(q, qa, self.qb, self.qc, self.qd, self.qe, self.qf)]
        nums, dens = ([*map(_pair, bases)] for bases in zip(*pairs))
        powers, (top, bottom) = _powers(q, 0, 2 * N + 1), _pair(q)
        steps = ((_factors(powers, nums, (j,)), _factors(powers, dens, (j,))) for j in range(N))
        run = _running(q**0, ((top * an * bd, bottom * ad * bn) for (an, ad), (bn, bd) in steps))
        hn, hd = _factors(powers, nums[:1], (0,))  # 1 - qa^2
        ends = (_factors(powers, nums[:1], (2 * x,)) for x in range(len(run)))
        return [r * Fraction(en * hd, ed * hn) for r, (en, ed) in zip(run, ends)]

    @cached_property
    def _norms(self) -> list[Fraction]:
        """The `_running` table of `wilson_h`, tested on `_h_tail_den`; with c = q/(qe qf),
        (q^n/(qe qf); q)_n / (c; q)_{2n} is (1 - c q^{n-1}) / ((c; q)_n (1 - c q^{2n-1})).
        The head's Pochhammer products and each step's factors are `_factors` pairs."""
        q, qa, qb, qc, qd, qe, qf, N = (self.q, self.qa, self.qb, self.qc, self.qd, self.qe,
                                        self.qf, self.N)
        powers, (top, bottom) = _powers(q, -1, 2 * N), _pair(q)
        dn, dd = _factors(powers, [*map(_pair, _h_den_bases(q, qa, qb, qc, qd, qe, qf))], range(N))
        if dn == 0:
            raise ZeroDenominator("norm denominator vanishes")
        hn, hd = _factors(powers, [*map(_pair, (q * qa * qa, q / (qc * qd), q / (qc * qe),
                                                q / (qd * qe)))], range(N))
        (c, _), *tail = _h_tail_den(q, qa, qb, qe, qf, 1)
        cs, nums = [_pair(c)], [*map(_pair, (q, qc * qd, q * qa / qe, q * qb / qf))]
        dens = cs + [_pair(b) for b, _ in tail]
        steps = ((j, _factors(powers, nums, (j,)), _factors(powers, dens, (j,))) for j in range(N))
        run = _running(Fraction(hn * dd, hd * dn), (
            (bottom * an * bd, top * ad * bn, _factors(powers, cs, (2 * j, 2 * j + 1))[0])
            for j, (an, ad), (bn, bd) in steps))
        ends = ((_factors(powers, cs, (n - 1,)), _factors(powers, cs, (2 * n - 1,)))
                for n in range(len(run)))
        return [s * Fraction(an * bd, ad * bn) if n else s
                for n, (s, ((an, ad), (bn, bd))) in enumerate(zip(run, ends))]


def _weight_pairs(q, qa, qb, qc, qd, qe, qf):
    return [(qa * s, q * qa / s) for s in (qb, qc, qd, qe, qf)]


def _h_den_bases(q, qa, qb, qc, qd, qe, qf):
    return [qb * qf, q * qa / qc, q * qa / qd, q * qa / qe]


def _h_tail_den(q, qa, qb, qe, qf, n: int):
    """The (base, length) Pochhammer factors of the norm's n-dependent denominator."""
    return [(q / (qe * qf), 2 * n), (qa * qb, n), (1 / (qb * qe), n), (1 / (qa * qf), n)]


def _validate_denominators(wp: WilsonParams) -> None:
    q, N = wp.q, wp.N
    # (c; q)_L vanishes when c = q^-j with 0 <= j < L; a series base
    # c q^{dn n + dx x} needs j + dn n + dx x in [0, n), so -j lies in [-2N, N]
    # (the default exponent 1 of a c off the table puts j = -1 out of range)
    exponents = {q**m: m for m in range(-2 * N, N + 1)}
    if wp.qa * wp.qa == 1:
        raise InvalidParams("weight head 1 - qa^2 vanishes")
    for _, den_base in _weight_pairs(q, wp.qa, wp.qb, wp.qc, wp.qd, wp.qe, wp.qf):
        if 0 <= (j := -exponents.get(den_base, 1)) < N:
            raise InvalidParams(f"weight denominator vanishes at x={j + 1}")
    # series denominators are needed for both the family and its partner
    for h, _, den in wp._series_bases:
        if h == 1:
            raise InvalidParams("very-well-poised head 1 - qa/qe vanishes")
        powers = [(exponents[c], dn, dx) for c, dn, dx in den if c in exponents]
        for n in range(N + 1):
            for x in range(N + 1):
                for m, dn, dx in powers:
                    j = -m - dn * n - dx * x
                    if 0 <= j < n:
                        raise InvalidParams(
                            f"series denominator vanishes at n={n}, x={x}, k={j + 1}")
    # the tail's factor sets nest in n, so the n = N list holds all of them
    qa, qb, qc, qd, qe, qf = wp.qa, wp.qb, wp.qc, wp.qd, wp.qe, wp.qf
    norm_den = [(base, N) for base in _h_den_bases(q, qa, qb, qc, qd, qe, qf)]
    if any(0 <= -exponents.get(base, 1) < length
           for base, length in norm_den + _h_tail_den(q, qa, qb, qe, qf, N)):
        raise InvalidParams("norm denominator vanishes")


def wilson_weight(x: int, wp: WilsonParams) -> Fraction:
    return _entry(wp._weights, x, wp.N, "grid point x", "weight denominator vanishes")


def _wilson_rows(n: int, wp: WilsonParams, i: int) -> list[tuple[int, int]]:
    """Row n of `WilsonParams._row_tables`[i] as the kernel's integer pairs, the
    weights divided by 1 - h, which the `WilsonParams` guard keeps nonzero."""
    return _series_rows(wp._row_tables[i], n, 1 / (1 - wp._series_bases[i][0]))


def wilson_u(n: int, wp: WilsonParams) -> list[Fraction]:
    return [Fraction(*v) for v in _wilson_rows(n, wp, 0)]


def wilson_v(n: int, wp: WilsonParams) -> list[Fraction]:
    return [Fraction(*v) for v in _wilson_rows(n, wp, 1)]


def wilson_h(n: int, wp: WilsonParams) -> Fraction:
    """Diagonal norm: the n-independent head times its tail in n, from the
    table `WilsonParams._norms`.  It carries three corrections to the printed formula:
    the q^{-n} factor, the (q*qa^2; q)_N head (printed (q*qa; q)_N) and the
    (q*qa/qe; q)_n tail factor (printed (q*qc/qe; q)_n).  Reverting any one
    of them breaks a diagonal identity on a generic instance.
    """
    return _entry(wp._norms, n, wp.N, "norm index n", "norm denominator vanishes")


def _table(weight, u, v, h, N: int, *params):
    """One family on the grid x, n = 0..N as (w, u, v, h): the lists w[x],
    u[n], v[n] and h[n] of weight(x, *params), the rows u(n, *params) and
    v(n, *params) over x, and h(n, *params)."""
    grid = range(N + 1)
    return ([weight(x, *params) for x in grid], [u(n, *params) for n in grid],
            [v(n, *params) for n in grid], [h(n, *params) for n in grid])


def _flat(table) -> list:
    """Every value of a `_table`, in one fixed order."""
    w, u, v, h = table
    return [*w, *h, *(y for rows in (u, v) for row in rows for y in row)]


def _row_gram(report: CheckReport, params, weight, rows, h) -> CheckReport:
    """`check_gram` on the kernel's integer pairs rows(n, params, i) of u_n (i = 0) and
    v_m (i = 1), the weight folded into each u row, each row reduced once by
    `_row_form`; weights, u rows, v rows and norms are built in that order."""
    grid = range(params.N + 1)
    w = [_pair(weight(x, params)) for x in grid]
    left = [_row_form([(a * wn, b * wd) for (a, b), (wn, wd) in zip(rows(n, params, 0), w)])
            for n in grid]
    right = [_row_form(rows(m, params, 1)) for m in grid]
    return check_gram(report, left, right, [h(n, params) for n in grid])


def check_wilson_biorthogonality(wp: WilsonParams) -> CheckReport:
    """Sum_x w_x u_n v_m = delta_{nm} h_n, all pairs, exact."""
    return _row_gram(CheckReport(check="wilson_biorthogonality", params=wp.as_dict()), wp,
                     wilson_weight, _wilson_rows, wilson_h)


def _limit_row(n: int, q, N: int, z, num, den, sigma, sign: int) -> list:
    """Row x = 0..N of the terminating sum_{k <= n} t_k, t_0 = 1, in q's field, whose
    term ratio t_{k+1} / t_k = rho_k sigma_{k + sign x} splits into the x-free
    rho_k = z prod_num (1 - q^k c) / ((1 - q^{k+1}) prod_den (1 - q^k c)), once per
    k < n, and sigma_d = (1 - q^d a) / (1 - q^d b), (a, b) = sigma, once per offset
    d; each value in Horner form 1 + r_0 (1 + r_1 (... (1 + r_{n-1}))).  It is the
    row of `phi_series` sums over x, and raises ZeroDenominator where one of
    them does: at a vanishing denominator factor of some k < n."""
    if not n:
        return [q**0] * (N + 1)
    ds = range(-N, n) if sign < 0 else range(N + n)  # the offsets k + sign x, k < n, x <= N
    power, (a, b) = {d: q**d for d in (*ds, n)}, sigma

    def below(c, d):
        if (f := 1 - power[d] * c) == 0:
            raise ZeroDenominator(f"denominator factor 1 - q^{d} ({c}) vanishes")
        return f

    rho = [z * prod(1 - power[k] * c for c in num) / prod(below(c, k) for c in (q, *den))
           for k in range(n)]
    sig = {d: (1 - power[d] * a) / below(b, d) for d in ds}
    out = []
    for x in range(N + 1):
        total = q**0
        for k in reversed(range(n)):
            total = 1 + rho[k] * sig[k + sign * x] * total
        out.append(total)
    return out


def limit_u(n: int, q, A, B, N: int) -> list:
    """The 3phi2(q^-n, q^(n-N) B, q^-x; q^-N, q^-x A; q, A/B) over x = 0..N."""
    return _limit_row(n, q, N, A / B, [q ** (-n), q ** (n - N) * B], [q ** (-N)], (1, A), -1)


def limit_v(n: int, q, A, B, N: int) -> list:
    """The 3phi2(q^-n, q^(n-N) B, q^(x-N); q^-N, q^(x-N+2) B/A; q, q) over x = 0..N."""
    return _limit_row(n, q, N, q, [q ** (-n), q ** (n - N) * B], [q ** (-N)],
                      (q ** (-N), q ** (2 - N) * B / A), 1)


def induced_wilson_params(p: QParams, m: int, qc: Fraction) -> WilsonParams:
    """Wilson parameters whose qa -> infinity limit lands on the instance p,
    taken along qa = q^{-m}:  qe = q/(A*qa), qd = q*B/qc, with qb and qf
    fixed by the constraints."""
    qa = p.q ** (-m)
    qe = p.q / (p.A * qa)
    qd = p.q * p.B / scalar(qc)
    return WilsonParams(p.q, qa, scalar(qc), qd, qe, p.N)


def wilson_limit_check(p: QParams, m_list: list[int], qc: Fraction) -> CheckReport:
    """Exact deviations of (w, u, v, h) from their limit targets shrink
    geometrically along qa = q^{-m}: strictly decreasing, with the largest
    successive ratio recorded (below 1, as only a decreasing step gives a
    ratio).  A correct target leaves a deviation of order |q|^m, so the last
    ratio d_{m1}/d_{m0} must also be at most |q|^{(m1 - m0)/2}; a target off
    by a constant stalls it near 1.  Raises InvalidParams when |q| >= 1,
    qc = 0 (the path divides by it) or `validate_params` flags p.
    """
    report = CheckReport(check="wilson_limit", params=p.as_dict())
    if not -1 < p.q < 1:
        raise InvalidParams("the limit path needs |q| < 1")
    if scalar(qc) == 0:
        raise InvalidParams("the limit path needs qc != 0")
    issues = validate_params(p, p.N).issues()
    if issues:
        raise InvalidParams("; ".join(issues))
    targets = _flat(_table(bare_weight, limit_u, limit_v, bare_norm, p.N, p.q, p.A, p.B, p.N))
    deltas: list[tuple[int, Fraction]] = []
    skipped_ms = []
    for m in m_list:
        try:
            wp = induced_wilson_params(p, m, qc)
        except InvalidParams as exc:
            skipped_ms.append({"m": m, "reason": str(exc)})
            continue
        values = _flat(_table(wilson_weight, wilson_u, wilson_v, wilson_h, p.N, wp))
        deltas.append((m, max(abs(a - b) for a, b in zip(values, targets))))
    report.details["deviations"] = {str(m): frac_str(d) for m, d in deltas}
    if skipped_ms:
        report.details["skipped_m"] = skipped_ms
    if len(deltas) < 2:
        report.skipped = "fewer than two valid points on the limit path"
        return report
    ratios = []
    for (m0, d0), (m1, d1) in zip(deltas, deltas[1:]):
        if d0 == 0 or d1 >= d0:
            report.add_violation(m=m1, residual="deviation failed to decrease")
            continue
        ratios.append(d1 / d0)
    if ratios:
        bound = max(ratios)
        report.details["ratio_bound"] = frac_str(bound)
        report.details["ratio_bound_float"] = float(bound)
    (m0, d0), (m1, d1) = deltas[-2:]
    if d1 < d0 and d1 * d1 > d0 * d0 * abs(p.q) ** (m1 - m0):
        report.add_violation(
            m=m1, residual=f"last ratio {float(d1 / d0):.4g} above |q|^(({m1} - {m0})/2)")
    return report


def _rising(a, k: int):
    out = 1
    for j in range(k):
        out = out * (a + j)
    return out


@dataclass(frozen=True)
class HahnParams(_ExactParams):
    """Rational exponents (alpha, beta) and grid size N for the q = 1 family."""

    alpha: Fraction
    beta: Fraction
    N: int

    def __post_init__(self):
        super().__post_init__()
        a, b, N = self.alpha, self.beta, self.N
        # the zero factors of (b-a-N+2)_x, (a-x)_n and (x-N+b-a+2)_n, x, n <= N,
        # and of the norm's (1+b-N)_{2N}; its (a-b-1)_N vanishes exactly
        # where the weight test fires
        if (b - a).denominator == 1 and -1 <= b - a <= N - 2:
            raise InvalidParams("weight denominator vanishes")
        if N >= 1 and any(v.denominator == 1 and lo <= v <= hi
                          for v, lo, hi in ((a, 1 - N, N), (b - a, -N - 1, N - 2))):
            raise InvalidParams("series denominator vanishes")
        if N >= 1 and b.denominator == 1 and -N <= b <= N - 1:
            raise InvalidParams("norm denominator vanishes")

    @cached_property
    def _row_tables(self) -> tuple:
        """The `_series_tables` of the 3F2 of u_n and of its partner v_n, (1)_k
        first below, each parameter a triple (c, dn, dx) for c + dn n + dx x."""
        a, b, N = self.alpha, self.beta, self.N
        top, bottom = [(0, -1, 0), (b - N, 1, 0)], [(1, 0, 0), (-N, 0, 0)]
        return tuple(_series_tables(num, den, None, 1, N)
                     for num, den in ((top + [(0, 0, -1)], bottom + [(a, 0, -1)]),
                                      (top + [(-N, 0, 1)], bottom + [(b - a + 2 - N, 0, 1)])))

    @cached_property
    def _weights(self) -> list[Fraction]:
        """The `_running` table of `hahn_weight`."""
        a, b, N = self.alpha, self.beta, self.N
        return _running(Fraction(1), (((x - 1 - N) * (x - a), x * (b - a - N + 1 + x))
                                      for x in range(1, N + 1)))

    @cached_property
    def _norms(self) -> list[Fraction]:
        """The `_running` table of `hahn_h`, tested on (1 + b - N)_{2n}; with f_i = b - N + i,
        (n + b - N)_n / (1 + b - N)_{2n} is f_n / ((1 + b - N)_n f_{2n})."""
        a, b, N = self.alpha, self.beta, self.N
        den = _rising(a - b - 1, N)
        if den == 0:
            raise ZeroDenominator("norm denominator vanishes")
        run = _running(Fraction(_rising(-b, N)) / den, (
            (n * (b + n), (n - 1 - N) * (b - N + n), b - N + 2 * n - 1, b - N + 2 * n)
            for n in range(1, N + 1)))
        return [s * (b - N + n) / (b - N + 2 * n) if n else s for n, s in enumerate(run)]


def hahn_weight(x: int, hp: HahnParams) -> Fraction:
    return _entry(hp._weights, x, hp.N, "grid point x", "weight denominator vanishes")


def _hahn_rows(n: int, hp: HahnParams, i: int) -> list[tuple[int, int]]:
    """Row n of `HahnParams._row_tables`[i] as the kernel's integer pairs."""
    return _series_rows(hp._row_tables[i], n, 1)


def hahn_u(n: int, hp: HahnParams) -> list[Fraction]:
    return [Fraction(*v) for v in _hahn_rows(n, hp, 0)]


def hahn_v(n: int, hp: HahnParams) -> list[Fraction]:
    return [Fraction(*v) for v in _hahn_rows(n, hp, 1)]


def hahn_h(n: int, hp: HahnParams) -> Fraction:
    """Diagonal norm: the head times its tail in n, from `HahnParams._norms`."""
    return _entry(hp._norms, n, hp.N, "norm index n", "norm denominator vanishes")


def check_hahn_biorthogonality(hp: HahnParams) -> CheckReport:
    """Sum_x w_x u_n v_m = delta_{nm} h_n at q = 1, exact; the weight is
    not normalized, so the n = m = 0 case doubles as its total mass."""
    return _row_gram(CheckReport(check="hahn_biorthogonality", params=hp.as_dict()), hp,
                     hahn_weight, _hahn_rows, hahn_h)


def _qto1_table(hp: HahnParams, h: Fraction, prec: int):
    """All (w, u, v, h) q-side values at q = e^h with the given precision."""
    import mpmath
    with mpmath.workprec(prec):
        q = mpmath.exp(mpmath.mpf(h.numerator) / mpmath.mpf(h.denominator))
        A = q ** int(hp.alpha)
        B = q ** int(hp.beta)
        table = _table(bare_weight, limit_u, limit_v, bare_norm, hp.N, q, A, B, hp.N)
        return [mpmath.mpf(v) for v in _flat(table)]


def qto1_convergence_check(hp: HahnParams, h_list: list[Fraction]) -> CheckReport:
    """Deviation of the q-side quantities at q = e^h from their q = 1 values
    decreases along h_list with measured order about 1 (window [1/2, 2]).
    With fewer than two h values no order can be measured: a skip.

    Each evaluation runs at 200-bit and 53-bit precision; the spread between
    the two estimates roundoff.  An h whose roundoff is not safely below the
    deviation being measured is a violation and stays out of the order fit.
    """
    import mpmath
    report = CheckReport(check="qto1_convergence", params=hp.as_dict())
    if hp.alpha.denominator != 1 or hp.beta.denominator != 1:
        raise InvalidParams("the q -> 1 sweep needs integer exponents")
    h_list = [scalar(h) for h in h_list]
    if any(h <= 0 for h in h_list):
        raise InvalidParams("h values must be positive")
    if len(h_list) < 2:
        report.skipped = "fewer than two h values to measure an order"
        return report
    exact = _flat(_table(hahn_weight, hahn_u, hahn_v, hahn_h, hp.N, hp))
    with mpmath.workprec(220):
        exact_f = [mpmath.mpf(v.numerator) / mpmath.mpf(v.denominator) for v in exact]
    devs = []
    for h in h_list:
        hi = _qto1_table(hp, h, 200)
        lo = _qto1_table(hp, h, 53)
        with mpmath.workprec(220):
            dev = max(abs(a - b) for a, b in zip(hi, exact_f))
            err = max(abs(a - b) for a, b in zip(hi, lo))
            if err * 16 > dev:
                report.add_violation(h=frac_str(h), residual=(
                    f"precision loss: roundoff {mpmath.nstr(err)} not below"
                    f" deviation {mpmath.nstr(dev)}"))
                continue
        devs.append((h, dev))
    report.details["deviations"] = {frac_str(h): mpmath.nstr(d, 8) for h, d in devs}
    orders = []
    for (h0, d0), (h1, d1) in zip(devs, devs[1:]):
        if d1 >= d0:
            report.add_violation(h=frac_str(h1), residual="deviation failed to decrease")
            continue
        order = mpmath.log(d0 / d1) / mpmath.log(
            mpmath.mpf(h0.numerator) * h1.denominator
            / (mpmath.mpf(h0.denominator) * h1.numerator))
        orders.append(float(order))
        if not 0.5 <= order <= 2:
            report.add_violation(
                h=frac_str(h1), residual=f"measured order {float(order):.3f} outside [0.5, 2]")
    report.details["orders"] = orders
    return report
