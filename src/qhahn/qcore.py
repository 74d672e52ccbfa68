"""Exact rational arithmetic and q-calculus primitives.

The number type is decided here, at the boundary: the parameter classes
store their values through `scalar`, which admits ints, "num/den" strings
and Fractions and rejects floats.  The code past it (these primitives,
`linalg`, the operators, the free-algebra polynomials `algebra.NCPoly` and
the checks) uses only field operations and derives every constant from the
instance, so it computes in its field.
The exceptions are the integer kernels, `_series_rows`, `_factors` (the
products of factors 1 - c q^d that the series tables, the U_n prefactors and the
weight and norm tables of both families step by), the `QParams` tables of `qpow`
and `qnum`, `brf.partial_fraction` (on `QParams._basis_grid`), `brf.check_partner`,
the Gram kernel `reports.check_gram` of all three families, `algebra.evaluate_poly`,
`linalg.solve_unique` and the banded checks of `gevp`: they work on integers,
most on rows over one denominator (`over_common_denominator`), the family
rows content free (`_row_form`).  A value becomes integers only in `_pair`,
the one gate, which raises a QHahnError naming the type of anything but an
int or a Fraction.  The checks among them compare
through `reports._residuals`.  The integer row form is
`_integer_rows`, each row as its nonzero entries over one denominator;
`_apply` applies it to an integer vector, `_sum_rows` sums its rows,
`_mul_rows` multiplies two and `_sub_rows` subtracts two, for every
matrix identity a check proves (`brf.Instance.op_rows` and `words`).

The deformation parameters enter only through the three base values q, A,
B, where A and B play the role of the powers q^alpha and q^beta of two
formal exponents alpha, beta; no logarithm is ever taken.  An exponent
expression q^(i + j*alpha + k*beta) is evaluated exactly as
`qpow(p, i, j, k)` = q**i * A**j * B**k, and its bracket as `qnum`; each
value is computed once per parameter object, in a table keyed by (i, j, k)
that lives on the object (not in a global cache, which would keep every
instance alive) and stays out of its ==, hash, repr and `as_dict`.  A `QParams` makes
each entry one Fraction of its `_monomial` pair; any other field keeps the generic product.

`qpoch` and `phi_series` are field-generic: they use only ring operations
and division on their arguments, so the same code runs over Fraction and
over mpmath floats; `phi_series`, one sum per call, is the tests' oracle for
every series row.  `_series_rows` is the one integer Horner kernel of the
three terminating series, U_n's 3phi2 (`brf.brf_u`), the 10phi9 and the
Hahn 3F2 (`wilson`): each parameter class keeps the `_series_tables` of its
series as `_row_tables`, built once per object like `qpow`'s, and each row
is one call.  It takes ints and Fractions only and returns unreduced integer
pairs: the families and the 10phi9 and Hahn Grams reduce each row once
(`_row_form`), the rest make Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import Sequence

__all__ = [
    "QHahnError",
    "InvalidParams",
    "ZeroDenominator",
    "PoleOnGrid",
    "ZeroWeight",
    "DimensionMismatch",
    "DegenerateDenominator",
    "SingularSystem",
    "RankDeficient",
    "ConfigError",
    "scalar",
    "frac_str",
    "over_common_denominator",
    "QParams",
    "qpow",
    "qnum",
    "qpoch",
    "phi_series",
    "eigenvalue",
    "mu_brackets",
    "ValidationReport",
    "validate_params",
]

class QHahnError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(QHahnError):
    """Parameter instance violates a precondition."""


class ZeroDenominator(QHahnError):
    """A denominator q-Pochhammer factor vanishes inside a series."""


class PoleOnGrid(QHahnError):
    """A rational basis function has a pole at a grid point."""


class ZeroWeight(QHahnError):
    """A weight entry vanishes where an inverse is required."""


class DimensionMismatch(QHahnError):
    """Operands live on grids of different sizes."""


class DegenerateDenominator(QHahnError):
    """A recurrence-coefficient denominator bracket vanishes."""


class SingularSystem(QHahnError):
    """An exact linear system has no unique solution."""


class RankDeficient(SingularSystem):
    """A linear system, such as a coefficient-recovery ansatz, does not have
    full column rank."""


class ConfigError(QHahnError):
    """A panel configuration file is malformed."""


def scalar(x) -> Fraction:
    """Coerce an int, a "num/den" string, or a Fraction to an exact rational; a
    bool is not a number here."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def frac_str(x: Fraction) -> str:
    """Serialize an exact rational as "num/den" (denominator always shown)."""
    return f"{x.numerator}/{x.denominator}"


def _pair(v) -> tuple[int, int]:
    """An int or a Fraction, not a bool, as (numerator, denominator): the integer
    kernels' one gate."""
    if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
        return v.as_integer_ratio()
    raise QHahnError(f"integer kernels take ints and Fractions, not {type(v).__name__}")


def over_common_denominator(values) -> tuple[list[int], int]:
    """Integers c_i and the least d > 0 with values[i] = c_i / d, the form the kernels
    compare: ints alone as they are (d = 1), else each value through `_pair`."""
    if all(type(v) is int for v in values):
        return list(values), 1
    pairs = [_pair(v) for v in values]
    d = math.lcm(*(den for _, den in pairs))
    return [num * (d // den) for num, den in pairs], d


def _content_free(ints, den) -> tuple[list[int], Fraction]:
    """ints / den as (ints / c, c / den), c = gcd(ints), or 1 for a zero row."""
    c = math.gcd(*ints) or 1
    return [v // c for v in ints], Fraction(c, den)


def _row_form(pairs) -> tuple[list[int], Fraction]:
    """The values a / b of integer pairs (a, b) as a `_content_free` row (ints, s),
    a / b = ints[x] s: over the lcm of the b, one lcm and one gcd for the row."""
    d = math.lcm(*(b for _, b in pairs))
    return _content_free([a * (d // b) for a, b in pairs], d)


def _integer_rows(rows) -> list[tuple[dict[int, int], int]]:
    """Each row as ({j: a_j}, e) with row[j] = a_j / e on its nonzero
    entries, so a banded row is short."""
    out = []
    for row in rows:
        entries = {j: v for j, v in enumerate(row) if v}
        ints, e = over_common_denominator(entries.values())
        out.append((dict(zip(entries, ints)), e))
    return out


def _apply(rows, c) -> list[tuple[int, int]]:
    """(M c)(i) as integer pairs (numerator, e_i), for M given as
    `_integer_rows` and c a list of ints."""
    return [(sum(a * c[j] for j, a in entries.items()), e) for entries, e in rows]


def _sum_rows(terms, den: int = 1) -> tuple[dict[int, int], int]:
    """sum_t (n_t / d_t) row_t / den for terms (n_t, d_t, row_t) of ints and
    `_integer_rows` rows, as one such row over one lcm, reduced by one gcd."""
    lcm = math.lcm(*(d * e for _, d, (_, e) in terms))
    acc: dict[int, int] = {}
    for n, d, (row, e) in terms:
        f = n * (lcm // (d * e))
        for j, a in row.items():
            acc[j] = acc.get(j, 0) + f * a
    g = math.gcd(*acc.values(), den * lcm)
    return {j: v // g for j, v in acc.items() if v}, den * lcm // g


def _mul_rows(a, b) -> list[tuple[dict[int, int], int]]:
    """The product of two matrices given as `_integer_rows`, in that form."""
    return [_sum_rows([(x, 1, b[k]) for k, x in entries.items()], e) for entries, e in a]


def _sub_rows(a, b) -> list[tuple[dict[int, int], int]]:
    """The difference of two matrices given as `_integer_rows`, in that form."""
    return [_sum_rows([(1, 1, x), (-1, 1, y)]) for x, y in zip(a, b)]


@dataclass(frozen=True)
class _ExactParams:
    """Base of the frozen parameter classes: each field but the last, N, is
    an exact rational stored through `scalar`, and N is a nonnegative int."""

    def __post_init__(self):
        for f in fields(self)[:-1]:
            object.__setattr__(self, f.name, scalar(getattr(self, f.name)))
        if not isinstance(self.N, int) or isinstance(self.N, bool) or self.N < 0:
            raise InvalidParams(f"N must be a nonnegative integer, got {self.N!r}")

    def as_dict(self) -> dict:
        """The fields, rationals as "num/den"; derived values stay out."""
        return {f.name: frac_str(getattr(self, f.name)) for f in fields(self)[:-1]} | {"N": self.N}


@dataclass(frozen=True)
class QParams(_ExactParams):
    """One exact parameter instance (q, A, B, N) on the grid x = 0..N."""

    q: Fraction
    A: Fraction
    B: Fraction
    N: int

    def __post_init__(self):
        super().__post_init__()
        if self.q in (0, 1, -1):
            raise InvalidParams(f"q must avoid 0 and +-1, got {self.q}")
        if self.A == 0 or self.B == 0:
            raise InvalidParams("A and B must be nonzero")

    @cached_property
    def _pairs(self) -> tuple:
        """q, A and B through `_pair`, the factors of every `_monomial`."""
        return _pair(self.q), _pair(self.A), _pair(self.B)

    @cached_property
    def _u_prefactors(self) -> list[Fraction]:
        """The `_running` table of `brf.u_prefactor`; (q^{-n}/B; q)_n = prod_{i<=n} (1 - q^-i/B)."""
        N, powers, b = self.N, _powers(self.q, -self.N, 0), self._pairs[2][::-1]
        steps = ((_factors(powers, [(1, 1)], (n - 1 - N,)), _factors(powers, [b], (-n,)))
                 for n in range(1, N + 1))
        return _running(Fraction(1), ((an * bd, ad * bn) for (an, ad), (bn, bd) in steps))

    @cached_property
    def _row_tables(self) -> tuple:
        """The `_series_tables` of `brf.brf_u`'s 3phi2, base c q^{dn n + dx x} as (c, dn, dx)."""
        q, N = self.q, self.N
        return _series_tables([(1, -1, 0), (qpow(self, -N, 0, 1), 1, 0), (1, 0, -1)],
                              [(q, 0, 0), (qpow(self, -N), 0, 0), (self.A, 0, -1)],
                              q, self.A / self.B, N)

    @cached_property
    def _basis_grid(self) -> tuple:
        """`brf.partial_fraction`'s tables for all n: the poles, d in [-N, N)
        with A q^d = 1; r_d = (1 - q^d/A) / (1 - q^d) as pairs, 0 < |d| < N; and
        per x, L_x and c_{k-x} L_x / g_{k-x} for k < N, with c_d / g_d =
        1/[alpha+d]_q reduced (0/1 at a pole) and L_x the lcm of the g_d."""
        (a, b), (an, ad) = _pair(self.q), _pair(self.A)
        basis, r = {}, {}
        for d, (top, bottom) in _powers(self.q, -self.N, self.N).items():
            den = ad * bottom - an * top
            basis[d] = _pair(Fraction((b - a) * ad * bottom, b * den)) if den else None
            if d:
                r[d] = (an * bottom - ad * top, an * (bottom - top))
        grid = []
        for x in range(self.N + 1):
            terms = [basis[k - x] or (0, 1) for k in range(self.N)]
            l_x = math.lcm(*(g for _, g in terms))
            grid.append((l_x, [c * (l_x // g) for c, g in terms]))
        return [d for d, v in basis.items() if v is None], r, grid


def _running(start: Fraction, steps) -> list[Fraction]:
    """[start, ...] by the ratios num/den of `steps` (num, den, *tested), up to a zero factor."""
    out = [start]
    for num, den, *tested in steps:
        if den == 0 or 0 in tested:
            break
        top, bottom = _pair(out[-1])
        out.append(Fraction(top * num, bottom * den))
    return out


def _entry(table: list, i: int, N: int, index: str, message: str):
    """Entry i of a `_running` table of N + 1 values, ZeroDenominator(message) past its end."""
    if not 0 <= i <= N:
        raise InvalidParams(f"{index} = {i} must lie in 0..N = {N}")
    if i >= len(table):
        raise ZeroDenominator(message)
    return table[i]


def _monomial(p: QParams, i: int = 0, j: int = 0, k: int = 0) -> tuple[int, int]:
    """q^i A^j B^k as one unreduced integer pair, from the `QParams._pairs` of p."""
    top = bottom = 1
    for (a, b), e in zip(p._pairs, (i, j, k)):
        top, bottom = (top * a**e, bottom * b**e) if e >= 0 else (top * b**-e, bottom * a**-e)
    return top, bottom


def qpow(p: QParams, i: int = 0, j: int = 0, k: int = 0) -> Fraction:
    """The monomial q^(i + j*alpha + k*beta) = q^i A^j B^k, exactly; each
    (i, j, k) is computed once, in a table on p (for a `QParams` from `_monomial`)."""
    table = vars(p).setdefault("_qpow", {})
    if (i, j, k) not in table:
        table[i, j, k] = (Fraction(*_monomial(p, i, j, k)) if isinstance(p, QParams)
                          else p.q**i * p.A**j * p.B**k)
    return table[i, j, k]


def qnum(p: QParams, i: int = 0, j: int = 0, k: int = 0) -> Fraction:
    """q-number [i + j*alpha + k*beta]_q = (1 - q^i A^j B^k)/(1 - q); each
    (i, j, k) is computed once, in a table on p (for a `QParams` from `_monomial`)."""
    table = vars(p).setdefault("_qnum", {})
    if (i, j, k) not in table:
        if isinstance(p, QParams):
            (top, bottom), (a, b) = _monomial(p, i, j, k), p._pairs[0]
            table[i, j, k] = Fraction((bottom - top) * b, bottom * (b - a))
        else:
            table[i, j, k] = (1 - qpow(p, i, j, k)) / (1 - p.q)
    return table[i, j, k]


def eigenvalue(n: int, p: QParams) -> Fraction:
    """lambda_n = [-n]_q [n + beta - N]_q."""
    return qnum(p, -n) * qnum(p, n - p.N, 0, 1)


def mu_brackets(n: int, p: QParams) -> tuple[tuple[str, Fraction], ...]:
    """The four labelled q-brackets that the mu coefficients of index n divide by."""
    N = p.N
    return (
        ("[N - beta - 2n]_q", qnum(p, N - 2 * n, 0, -1)),
        ("[2n + 1 + beta - N]_q", qnum(p, 2 * n + 1 - N, 0, 1)),
        ("[2n - 1 + beta - N]_q", qnum(p, 2 * n - 1 - N, 0, 1)),
        ("[N - beta - 2n + 1]_q", qnum(p, N - 2 * n + 1, 0, -1)),
    )


def qpoch(base, k: int, q):
    """q-Pochhammer (base; q)_k = prod_{j=0}^{k-1} (1 - q^j * base).

    The product starts from q**0, so the result lives in q's field even for
    k = 0 (an int 1 would later turn int/int divisions into floats).
    """
    if k < 0:
        raise ValueError(f"q-Pochhammer length must be nonnegative, got {k}")
    out = q**0
    f = base
    for _ in range(k):
        out *= 1 - f
        f *= q
    return out


def phi_series(num: Sequence, den: Sequence, z, q, terms: int):
    """Truncated basic hypergeometric sum in q's field (exact over Fraction).

    Returns sum_{k=0}^{terms-1} of
        prod_i (num_i; q)_k / ((q; q)_k * prod_j (den_j; q)_k) * z^k.
    The caller chooses the truncation; for a terminating series a numerator
    entry q^(-n) makes every term beyond k = n vanish, so terms = n + 1 is
    exact.  Raises ZeroDenominator if (q; q)_k or any (den_j; q)_k vanishes
    for some k < terms.
    """
    total = q * 0
    term = q**0
    qk = q**0  # q^k
    for k in range(terms):
        total += term
        if k == terms - 1:
            break
        ratio = z
        for av in num:
            ratio *= 1 - qk * av
        qk1 = qk * q
        if qk1 == 1:
            raise ZeroDenominator(f"(q; q)_{k + 1} vanishes (q^{k + 1} = 1)")
        denom = 1 - qk1
        for bv in den:
            f = 1 - qk * bv
            if f == 0:
                raise ZeroDenominator(
                    f"denominator Pochhammer ({bv}; q)_k vanishes at factor index {k}"
                )
            denom *= f
        term = term * ratio / denom
        qk = qk1
    return total


def _powers(q, lo: int, hi: int) -> dict[int, tuple[int, int]]:
    """q^d = up / down for lo <= d < hi, up and down powers of q's numerator
    and denominator."""
    qn, qd = _pair(q)
    return {d: (qn**d, qd**d) if d >= 0 else (qd**-d, qn**-d) for d in range(lo, hi)}


def _factors(powers, pairs, ds) -> tuple[int, int]:
    """prod (1 - c q^d) over the bases c, as integer pairs, and the d in ds,
    as one unreduced integer pair, q^d from `_powers`: (c; q)_L for range(L)."""
    pn = pd = 1
    for d in ds:
        up, down = powers[d]
        for cn, cd in pairs:
            pn, pd = pn * (cd * down - cn * up), pd * cd * down
    return pn, pd


def _ratios(tables, i: int, length: int) -> list[tuple[int, int]]:
    """[prod_s tables[s][k + s i] for k < length] as integer pairs, each
    reduced once by one gcd, up to the first zero."""
    out = []
    for k in range(length):
        pn = pd = 1
        for s, table in tables.items():
            tn, td = table[k + s * i]
            pn, pd = pn * tn, pd * td
        if not pn:
            break
        out.append((pn // (g := math.gcd(pn, pd)), pd // g))
    return out


def _series_tables(num, den, q, z, N: int, weights=None) -> tuple:
    """The tables, built once per parameter object, that `_series_rows` sums
    the rows n = 0..N of one terminating series from.  Its term ratio
    t_{k+1} / t_k = z prod_num f / prod_den f, f = 1 - c q^d (c + d for q None,
    an ordinary series), with d = k + dn n + dx x for each base (c, dn, dx),
    dn, dx in {-1, 0, 1} not both nonzero, splits as alpha_n(k) beta_x(k): one
    table per dn by k + dn n, z in the dn = 0 one, and for every x the `_ratios`
    of one table per dx.  `den` holds the k! base; the weights w_0..w_N (all 1 if None) are
    integer pairs.  A vanishing denominator factor is only recorded here.
    """
    parts, zeros = ({0: dict.fromkeys(range(N), _pair(z))}, {}), []  # n-, x-part: s -> d -> pair
    powers = None if q is None else _powers(q, -N, 2 * N)
    for bases, below in ((num, False), (den, True)):
        for c, dn, dx in bases:
            if dn and dx:
                raise QHahnError(f"series base ({c}, {dn}, {dx}) depends on both n and x")
            table = parts[bool(dx)].setdefault(s := dn or dx, {})
            cn, cd = pair = _pair(c)
            for d in range(min(0, s * N), N + max(0, s * N)):
                fn, fd = (cn + d * cd, cd) if q is None else _factors(powers, [pair], (d,))
                if below and not fn:
                    zeros.append((c, dn, dx, d))
                tn, td = table.get(d, (1, 1))
                table[d] = (tn * fd, td * fn) if below else (tn * fn, td * fd)
    return N, parts[0], [_ratios(parts[1], x, N) for x in range(N + 1)], zeros, weights


def _series_rows(tables, n: int, scale) -> list[tuple[int, int]]:
    """Row n of a series of `_series_tables`: scale sum_{k <= n} w_k t_k at
    x = 0..N, each in Horner form w_0 + rho_0 (w_1 + rho_1 (...)) on integers
    up to its first zero ratio, as one unreduced integer pair.  A tabulated denominator that
    vanishes at some k < n raises ZeroDenominator, whatever x it belongs to;
    a row below it is still summed."""
    N, alphas, betas, zeros, weights = tables
    sn, sd = _pair(scale)
    for c, dn, dx, d in zeros:  # d - dn n is k + dx x
        if n and min(0, dx * N) <= d - dn * n < n + max(0, dx * N):
            raise ZeroDenominator(f"series denominator vanishes at n={n}: "
                                  f"base ({c}, {dn}, {dx}) at k + {dx} x = {d - dn * n}")
    alpha, rows = _ratios(alphas, n, n), []
    for beta in betas:
        m = min(len(alpha), len(beta))
        pairs = zip(reversed(alpha[:m]), reversed(beta[:m]))
        if weights:
            top, bottom = weights[m]
            for ((an, ad), (bn, bd)), (wn, wd) in zip(pairs, reversed(weights[:m])):
                top, bottom = wn * ad * bd * bottom + wd * an * bn * top, wd * ad * bd * bottom
        else:
            top = bottom = 1
            for (an, ad), (bn, bd) in pairs:
                rb = ad * bd * bottom
                top, bottom = rb + an * bn * top, rb
        rows.append((sn * top, sd * bottom))
    return rows


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the parameter guards; one witness string per triggered flag.

    Flags:
      basis_pole            A equals a power q^m with m in [-(n_max-1), N] or in
                            [0, N]: a rational basis function has a pole on
                            the grid, or (m = x) X's diagonal [x - alpha]_q
                            vanishes, which it does at n_max = 0 too.
      reflected_basis_pole  B/A equals q^(m-2) with m in [-(n_max-1), N]: the
                            basis pole of the reflected instance
                            (1/q, A/(B q^2), 1/B) that the partner family and
                            the limit target v_n are evaluated at.
      weight_denominator    a weight denominator Pochhammer factor vanishes.
      eigenvalue_collision  the eigenvalue list is not pairwise distinct.
      bracket_denominator   a recurrence-coefficient denominator bracket vanishes.

    weight_denominator fires only with reflected_basis_pole (its B = A q^(m-2)
    has m in [1, N]), eigenvalue_collision only with bracket_denominator (its
    B = q^(N-s) has s in [1, 2 n_max - 1]; the brackets cover [-1, 2 n_max + 1]).
    """

    basis_pole: str | None = None
    reflected_basis_pole: str | None = None
    weight_denominator: str | None = None
    eigenvalue_collision: str | None = None
    bracket_denominator: str | None = None

    @property
    def valid(self) -> bool:
        return not self.issues()

    def issues(self) -> list[str]:
        return [f"{f.name}: {getattr(self, f.name)}" for f in fields(self)
                if getattr(self, f.name) is not None]


def validate_params(p: QParams, n_max: int) -> ValidationReport:
    """Check a parameter instance against the degeneracy obstructions.

    n_max is the largest family index the caller intends to use (usually N).
    """
    if n_max < 0 or n_max > p.N:
        raise InvalidParams(f"n_max must lie in 0..N = {p.N}, got {n_max}")
    # A and B/A are each q^m for one m at most, q no root of unity; N + 1 is in no span
    N, exponents = p.N, {p.q**m: m for m in range(-1 - n_max, p.N + 1)}
    a, ba = (exponents.get(v, N + 1) for v in (p.A, p.B / p.A))
    span, pole_span = range(1 - n_max, N + 1), range(min(1 - n_max, 0), N + 1)
    basis_pole = f"A = q^{a} with {a} in [{pole_span[0]}, {N}]" if a in pole_span else None
    reflected_basis_pole = (
        f"B/A = q^{ba}, so the reflected A/(B q^2) = (1/q)^{ba + 2} with {ba + 2} in "
        f"[{span[0]}, {N}]" if ba + 2 in span else None)
    weight_denominator = (f"B/A = q^{ba} makes a weight denominator vanish"
                          if -1 <= ba <= N - 2 else None)
    lam = [eigenvalue(n, p) for n in range(n_max + 1)]
    eigenvalue_collision = next((f"lambda_{n} = lambda_{m} = {lam[n]}" for n in range(n_max + 1)
                                 for m in range(n + 1, n_max + 1) if lam[n] == lam[m]), None)
    bracket_denominator = next((f"{label} at n={n} vanishes" for n in range(n_max + 1)
                                for label, d in mu_brackets(n, p) if d == 0), None)

    return ValidationReport(
        basis_pole=basis_pole,
        reflected_basis_pole=reflected_basis_pole,
        weight_denominator=weight_denominator,
        eigenvalue_collision=eigenvalue_collision,
        bracket_denominator=bracket_denominator,
    )
