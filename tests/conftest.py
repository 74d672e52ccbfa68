import functools
import importlib.util
import math
import pathlib
from fractions import Fraction as F

import pytest

from qhahn import brf, linalg, qcore, wilson
from qhahn.operators import Basis, OpMatrix, Operator, build_operator
from qhahn.qcore import (
    InvalidParams,
    QHahnError,
    QParams,
    RankDeficient,
    SingularSystem,
    ZeroDenominator,
    _running,
    frac_str,
    qpoch,
    qpow,
)
from qhahn.reports import CheckReport

# Canonical instance used wherever a single generic instance suffices.
CANONICAL = QParams(F(1, 2), F(32), F(1, 512), 3)

# The versioned verification panel (mirrors data/default_panel.json).
PANEL = [
    QParams(F(1, 2), F(32), F(1, 512), 3),
    QParams(F(1, 2), F(32), F(1, 2048), 4),
    QParams(F(2, 3), F(81, 16), F(256, 6561), 2),
    QParams(F(3, 2), F(32, 243), F(19683, 512), 3),
    QParams(F(5, 7), F(117649, 15625), F(9765625, 282475249), 4),
    QParams(F(1, 2), F(3), F(1, 512), 3),
    QParams(F(2, 3), F(2187, 128), F(4096, 531441), 5),
    QParams(F(1, 2), F(256), F(1, 32768), 6),
    QParams(F(1, 2), F(512), F(1, 131072), 8),
    QParams(F(1, 2), F(32), F(1, 128), 1),
    QParams(F(7, 5), F(15625, 117649), F(282475249, 9765625), 3),
]

# Subset with q on both sides of 1 and a non-q-power A, for slower checks.
SMALL_PANEL = [PANEL[0], PANEL[2], PANEL[3], PANEL[5], PANEL[9]]

# Seeds of the benchmark's seeded workloads: its default, one more, and its held-out seed.
WORKLOAD_SEEDS = (1, 7, 104729)


@functools.cache
def wilson_workload(seed: int):
    """The instances of the benchmark's `wilson` workload at `seed`, drawn by
    the unedited perfbench/workloads.py: its 10phi9 instances, its Hahn
    instances, and its Wilson-limit instance with the path's (m_list, qc)."""
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    config = workloads.make_config("wilson", seed, root / "src")
    limit = config["limits"]["wilson"]
    return ([wilson.WilsonParams(**entry) for entry in config["wilson_instances"]],
            [wilson.HahnParams(**entry) for entry in config["hahn_instances"]],
            QParams(**limit["instance"]), limit["m_list"], F(limit["qc"]))


# The three printed-formula corrections built into the 10phi9 norm, each as
# the factor that turns the corrected norm wilson_h(n, wp) back into the
# printed one: without q^{-n}, with the head (q*qa; q)_N in place of
# (q*qa^2; q)_N, and with the tail factor (q*qc/qe; q)_n in place of
# (q*qa/qe; q)_n.
NORM_REVERSIONS = {
    "include_qn": lambda n, wp: wp.q**n,
    "squared_head": lambda n, wp: (
        qpoch(wp.q * wp.qa, wp.N, wp.q) / qpoch(wp.q * wp.qa * wp.qa, wp.N, wp.q)),
    "anchored_tail": lambda n, wp: (
        qpoch(wp.q * wp.qc / wp.qe, n, wp.q) / qpoch(wp.q * wp.qa / wp.qe, n, wp.q)),
}


def revert_norm_correction(monkeypatch, knob):
    """Substitute the printed norm with one correction reverted for wilson_h."""
    good, factor = wilson.wilson_h, NORM_REVERSIONS[knob]
    monkeypatch.setattr(wilson, "wilson_h", lambda n, wp: good(n, wp) * factor(n, wp))


def tridiagonal_null_space(a):
    """The basis `linalg.null_space(a)` returns, by `linalg.tridiagonal_kernel`
    when it can: the oracle that ties the recurrence to elimination.

    When `a` is square, zero outside its three central diagonals, and every
    superdiagonal entry is nonzero, rows 0..n-2 fix v_{i+1} from v_{i-1} and
    v_i, so the kernel is at most one-dimensional and the last row's residual
    decides it.  The kernel vector is scaled to the basis `null_space` returns
    (1 at its last nonzero entry, the free column of the echelon form).  Any
    other matrix goes to `linalg.null_space`, looked up at call time so that a
    counting substitute sees the call.
    """
    n = len(a)
    if (n == 0 or any(len(row) != n for row in a)
            or any(a[i][j] for i in range(n) for j in range(n) if abs(i - j) > 1)
            or not all(a[i][i + 1] for i in range(n - 1))):
        return linalg.null_space(a)
    if n == 1:  # [[d]] has no a[0][1]: no kernel, or the free coordinate 1 of `null_space`
        return [] if a[0][0] else [[1]]
    v, residual = linalg.tridiagonal_kernel([a[i + 1][i] for i in range(n - 1)],
                                            [a[i][i] for i in range(n)],
                                            [a[i][i + 1] for i in range(n - 1)])
    if residual:
        return []
    last = next(x for x in reversed(v) if x)
    return [[x / last for x in v]]


def solve_by_rref(a, b):
    """A `Fraction` solve of a x = b, the oracle of the fraction-free
    `linalg.solve_unique`: one full `rref` of [a | b], then the rank test
    before the consistency test."""
    cols = len(a[0])
    red, pivots = linalg.rref([list(row) + [v] for row, v in zip(a, b)])
    if pivots[:cols] != list(range(cols)):
        raise RankDeficient("solution is not unique")
    if cols in pivots:
        raise SingularSystem("system is inconsistent")
    return [red[r][cols] for r in range(cols)]


def outcome(fn, *args):
    """What fn(*args) returns, or the class and message of the QHahnError it raises."""
    try:
        return fn(*args)
    except QHahnError as exc:
        return type(exc), str(exc)


def identity(n, one):
    """The n x n identity with the field's `one` on its diagonal."""
    return [[one if i == j else 0 for j in range(n)] for i in range(n)]


def dense_evaluate_poly(poly, inst):
    """`algebra.evaluate_poly` on dense matrices in the field of the
    instance: the oracle of its integer rows, and the evaluator of the
    algebra over any field of (q, A, B).

    A word's matrix is its longest proper prefix's times its last letter's,
    by `linalg.mat_mul` from the identity and `inst.ops`, and the sum
    c_w W_w is taken entry by entry.
    """
    p = inst.p
    prods = {(): identity(p.N + 1, p.q**0)} | {(g,): m.entries for g, m in inst.ops.items()}
    acc = linalg.zeros(p.N + 1, p.N + 1)
    for word, coeff in poly.terms.items():
        for k in range(2, len(word) + 1):
            if word[:k] not in prods:
                prods[word[:k]] = linalg.mat_mul(prods[word[:k - 1]], prods[word[k - 1:k]])
        for arow, prow in zip(acc, prods[word]):
            for j, v in enumerate(prow):
                if v:
                    arow[j] += coeff * v
    return OpMatrix(acc, Basis.POINT, p)


def dense_difference(a, b):
    """a - b entry by entry, for two dense matrices given as rows."""
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_max_abs(rows):
    """max |entry| of a dense matrix, the int 0 when it is empty."""
    return max((abs(v) for row in rows for v in row), default=0)


def dense_is_zero(rows):
    """Every entry of a dense matrix vanishes."""
    return all(v == 0 for row in rows for v in row)


def dense_check_factorization(inst):
    """`gevp.check_factorization` on dense `OpMatrix` products: X @ V - Y
    entry by entry from `.entries` in both bases, then the same
    forward-substitution oracle.  The oracle of the integer-row check."""
    p = inst.p
    report = CheckReport(check="factorization", params=p.as_dict())
    phi = {g: build_operator(Operator(g), Basis.PHI, p) for g in "XYV"}
    for basis, ops in ((Basis.POINT, inst.ops), (Basis.PHI, phi)):
        resid = dense_difference((ops["X"] @ ops["V"]).entries, ops["Y"].entries)
        report.details[f"{basis.value}_residual"] = frac_str(dense_max_abs(resid))
        if not dense_is_zero(resid):
            report.add_violation(basis=basis.value, residual=frac_str(dense_max_abs(resid)))
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


def fraction_gram(report, weights, us, vs, norms):
    """check_gram as it was before its integer kernel: a Fraction sum per entry."""
    for n, hn in enumerate(norms):
        if hn == 0:
            report.add_violation(n=n, m=n, residual="diagonal norm vanishes")
        wu = [w * a for w, a in zip(weights, us[n])]
        for m, v in enumerate(vs):
            total = sum(c * b for c, b in zip(wu, v))
            expected = hn if n == m else 0
            if total != expected:
                report.add_violation(n=n, m=m, residual=frac_str(total - expected))
    report.details["norms"] = [frac_str(h) for h in norms]
    return report


def count_builds(monkeypatch, cls, name: str, calls: list) -> None:
    """Append `name` to `calls` each time the cached property cls.name is
    built, that is once per instance unless something rebuilds it."""
    good = vars(cls)[name].func
    prop = functools.cached_property(lambda self: calls.append(name) or good(self))
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)


def with_row(family, n, values):
    """`family`, a `brf.BRFFamily`, with row n replaced by the content-free
    row form of the Fractions `values`."""
    rows = list(family.rows)
    rows[n] = qcore._row_form([F(v).as_integer_ratio() for v in values])
    return brf.BRFFamily(tuple(rows), family.lambdas, family.p)


def bumped_family(target, n_bump, x_bump, delta):
    """brf_family with U_n(x) + delta at the target instance only, in its row form."""
    good = brf.brf_family

    def family(p):
        fam = good(p)
        if p != target:
            return fam
        ints, s = fam.rows[n_bump]
        values = [v * s for v in ints]
        values[x_bump] += delta
        return with_row(fam, n_bump, values)

    return family


@pytest.fixture
def canonical():
    return CANONICAL


def former_series_rows(num, den, factor, z, weights, n: int, N: int) -> list[F]:
    """The series kernel as it was when every row rebuilt its tables: the
    oracle of `qcore._series_tables` and `qcore._series_rows`.

    The terminating sums  sum_{k <= n} w_k t_k  at x = 0..N, where t_0 = 1 and

        t_{k+1} / t_k = z prod_num factor(c, d) / prod_den factor(c, d),

    d = k + dn n + dx x for each base (c, dn, dx); `den` holds the k! base.
    `factor` and the weights w_0..w_n are integer pairs.  The ratio is z times
    one table per dx, indexed by k + dx x, built for this row alone.  Each sum
    stops at its first zero ratio and is summed in Horner form on integers.
    A tabulated denominator factor that vanishes raises ZeroDenominator,
    whatever x it belongs to.
    """
    if n == 0:
        return [F(*weights[0])] * (N + 1)
    tables = {0: dict.fromkeys(range(n), z.as_integer_ratio())}  # dx -> {k + dx x: pair}
    for bases, below in ((num, False), (den, True)):
        for c, dn, dx in bases:
            table = tables.setdefault(dx, {})
            for e in range(min(0, dx * N), n + max(0, dx * N)):
                fn, fd = factor(c, e + dn * n)
                if below:
                    if not fn:
                        raise ZeroDenominator(f"series denominator vanishes at n={n}: "
                                              f"base ({c}, {dn}, {dx}) at k + {dx} x = {e}")
                    fn, fd = fd, fn
                tn, td = table.get(e, (1, 1))
                table[e] = (tn * fn, td * fd)
    for table in tables.values():
        for e, (tn, td) in table.items():
            g = math.gcd(tn, td)
            table[e] = (tn // g, td // g)
    rows = []
    for x in range(N + 1):
        rhos = []
        for k in range(n):
            rn = rd = 1
            for dx, table in tables.items():
                tn, td = table[k + dx * x]
                rn, rd = rn * tn, rd * td
            if not rn:
                break
            rhos.append((rn, rd))
        top, bottom = weights[len(rhos)]
        for (rn, rd), (wn, wd) in zip(reversed(rhos), reversed(weights[:len(rhos)])):
            top, bottom = wn * rd * bottom + wd * rn * top, wd * rd * bottom
        rows.append(F(top, bottom))
    return rows


def former_q_factor(q):
    """The factor of a basic series for `former_series_rows`: 1 - c q^d."""
    qn, qd = q.as_integer_ratio()

    def factor(c, d):
        cn, cd = c.as_integer_ratio()
        up, down = (qn**d, qd**d) if d >= 0 else (qd**-d, qn**-d)
        return cd * down - cn * up, cd * down
    return factor


def former_brf_u(n, p):
    """The values of `brf.brf_u` by `former_series_rows`, times the prefactor."""
    pref, q, N = brf.u_prefactor(n, p), p.q, p.N
    rows = former_series_rows([(1, -1, 0), (qpow(p, -N, 0, 1), 1, 0), (1, 0, -1)],
                              [(q, 0, 0), (qpow(p, -N), 0, 0), (p.A, 0, -1)],
                              former_q_factor(q), p.A / p.B, [(1, 1)] * (n + 1), n, N)
    return [pref * v for v in rows]


def former_partner_family(p):
    """The values of `brf.partner_family` from `former_brf_u` at the reflected instance."""
    refl, c = brf.reflected_params(p), brf.partner_scale(p)
    return [[c * v for v in reversed(former_brf_u(m, refl))] for m in range(p.N + 1)]


def former_wilson_row(n, wp, role):
    """Row n of u (role 0) or v (role 1) of a 10phi9 by `former_series_rows`,
    from `WilsonParams._series_bases`, with the very-well-poised factor
    (1 - h q^{2k}) / (1 - h) as the weight."""
    h, num, den = wp._series_bases[role]
    if h == 1:
        raise ZeroDenominator("very-well-poised head vanishes")
    factor = former_q_factor(wp.q)
    hn, hd = factor(h, 0)
    weights = [(wn * hd, wd * hn) for wn, wd in (factor(h, 2 * k) for k in range(n + 1))]
    return former_series_rows(num, [(wp.q, 0, 0), *den], factor, wp.q, weights, n, wp.N)


def former_hahn_row(n, hp, role):
    """Row n of u (role 0) or v (role 1) of the Hahn 3F2 by `former_series_rows`,
    each parameter a triple (c, dn, dx) for c + dn n + dx x, (1)_k first below."""
    a, b, N = hp.alpha, hp.beta, hp.N
    top, bottom = [(0, -1, 0), (b - N, 1, 0)], [(1, 0, 0), (-N, 0, 0)]
    num, den = ((top + [(0, 0, -1)], bottom + [(a, 0, -1)]),
                (top + [(-N, 0, 1)], bottom + [(b - a + 2 - N, 0, 1)]))[role]
    return former_series_rows(num, den, lambda c, d: (c.numerator + d * c.denominator,
                                                      c.denominator),
                              1, [(1, 1)] * (n + 1), n, N)


def former_wilson_weights(wp):
    """`WilsonParams._weights` as it was before its integer pairs, each step's
    factors 1 - c q^j multiplied as Fractions: the oracle of the weight table."""
    q, qa = wp.q, wp.qa
    if qa * qa == 1:
        raise ZeroDenominator("weight head denominator vanishes")
    pairs = [(qa * qa, q), *wilson._weight_pairs(q, qa, wp.qb, wp.qc, wp.qd, wp.qe, wp.qf)]
    run = _running(q**0, ((q * math.prod(1 - a * q**j for a, _ in pairs),
                           math.prod(1 - b * q**j for _, b in pairs)) for j in range(wp.N)))
    return [r * (1 - qa * qa * q ** (2 * x)) / (1 - qa * qa) for x, r in enumerate(run)]


def former_wilson_norms(wp):
    """`WilsonParams._norms` as it was before its integer pairs, its head from
    `qpoch` products: the oracle of the norm table."""
    q, qa, qb, qc, qd, qe, qf = wp.q, wp.qa, wp.qb, wp.qc, wp.qd, wp.qe, wp.qf
    den = math.prod(qpoch(base, wp.N, q) for base in wilson._h_den_bases(q, qa, qb, qc, qd, qe, qf))
    if den == 0:
        raise ZeroDenominator("norm denominator vanishes")
    head = math.prod(qpoch(base, wp.N, q) for base in (
        q * qa * qa, q / (qc * qd), q / (qc * qe), q / (qd * qe))) / den
    (c, _), *dens = wilson._h_tail_den(q, qa, qb, qe, qf, 1)
    nums = (q, qc * qd, q * qa / qe, q * qb / qf)
    run = _running(head, ((math.prod(1 - b * q**j for b in nums),
                           q * (1 - c * q**j) * math.prod(1 - b * q**j for b, _ in dens),
                           1 - c * q**(2 * j), 1 - c * q**(2 * j + 1)) for j in range(wp.N)))
    return [s * (1 - c * q ** (n - 1)) / (1 - c * q ** (2 * n - 1)) if n else s
            for n, s in enumerate(run)]


def former_wilson_guard(wp):
    """`wilson._validate_denominators` as it was before its lookups: each
    weight denominator scanned as den_base q^j == 1 and each norm factor
    multiplied out by `qpoch`.  The oracle of the guard's messages and order."""
    q = wp.q
    if wp.qa * wp.qa == 1:
        raise InvalidParams("weight head 1 - qa^2 vanishes")
    for _, den_base in wilson._weight_pairs(q, wp.qa, wp.qb, wp.qc, wp.qd, wp.qe, wp.qf):
        for j in range(wp.N):
            if den_base * q**j == 1:
                raise InvalidParams(f"weight denominator vanishes at x={j + 1}")
    exponents = {q**m: m for m in range(-2 * wp.N, wp.N + 1)}
    for h, _, den in wp._series_bases:
        if h == 1:
            raise InvalidParams("very-well-poised head 1 - qa/qe vanishes")
        powers = [(exponents[c], dn, dx) for c, dn, dx in den if c in exponents]
        for n in range(wp.N + 1):
            for x in range(wp.N + 1):
                for m, dn, dx in powers:
                    j = -m - dn * n - dx * x
                    if 0 <= j < n:
                        raise InvalidParams(
                            f"series denominator vanishes at n={n}, x={x}, k={j + 1}")
    qa, qb, qc, qd, qe, qf = wp.qa, wp.qb, wp.qc, wp.qd, wp.qe, wp.qf
    norm_den = [(base, wp.N) for base in wilson._h_den_bases(q, qa, qb, qc, qd, qe, qf)]
    if any(qpoch(base, length, q) == 0
           for base, length in norm_den + wilson._h_tail_den(q, qa, qb, qe, qf, wp.N)):
        raise InvalidParams("norm denominator vanishes")


def former_series_tables(num, den, q, z, N: int, weights=None) -> tuple:
    """`qcore._series_tables` as it was before its power table: each tabulated
    pair built from the former `qcore._factor(q, c, d)`, `former_q_factor` or,
    for q None, c + d, per base and exponent."""
    factor = former_q_factor(q) if q is not None else (
        lambda c, d: (c.numerator + d * c.denominator, c.denominator))
    parts, zeros = ({0: dict.fromkeys(range(N), z.as_integer_ratio())}, {}), []
    for bases, below in ((num, False), (den, True)):
        for c, dn, dx in bases:
            table = parts[bool(dx)].setdefault(s := dn or dx, {})
            for d in range(min(0, s * N), N + max(0, s * N)):
                fn, fd = factor(c, d)
                if below and not fn:
                    zeros.append((c, dn, dx, d))
                tn, td = table.get(d, (1, 1))
                table[d] = (tn * fd, td * fn) if below else (tn * fn, td * fd)
    return N, parts[0], [qcore._ratios(parts[1], x, N) for x in range(N + 1)], zeros, weights


P = 2**61 - 1


class GF:
    """An element of the prime field Z/P: a field other than Fraction that
    mixes with ints only, so a Fraction or a float meeting it raises TypeError."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % P

    @staticmethod
    def _lift(x):
        return x.v if isinstance(x, GF) else x if type(x) is int else None

    def _op(f):
        def op(self, other):
            o = GF._lift(other)
            return NotImplemented if o is None else GF(f(self.v, o))
        return op

    __add__ = __radd__ = _op(lambda a, b: a + b)
    __mul__ = __rmul__ = _op(lambda a, b: a * b)
    __sub__ = _op(lambda a, b: a - b)
    __rsub__ = _op(lambda a, b: b - a)
    __truediv__ = _op(lambda a, b: a * pow(b, -1, P))
    __rtruediv__ = _op(lambda a, b: b * pow(a, -1, P))

    def __neg__(self):
        return GF(-self.v)

    def __eq__(self, other):
        o = GF._lift(other)
        return NotImplemented if o is None else self.v == o % P

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"GF({self.v})"
