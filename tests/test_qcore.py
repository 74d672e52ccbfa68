import inspect
import itertools
import json
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhahn import cli, wilson
from qhahn.algebra import NCPoly, evaluate_poly
from qhahn.brf import (
    Instance,
    brf_family,
    norm_h,
    partial_fraction,
    partner_family,
    reflected_params,
    weight_scale,
    weight_vector,
)
from qhahn.gevp import check_factorization
from qhahn.linalg import solve_unique
from qhahn.qcore import (
    InvalidParams,
    QHahnError,
    QParams,
    ValidationReport,
    ZeroDenominator,
    _series_rows,
    frac_str,
    over_common_denominator,
    phi_series,
    qnum,
    qpoch,
    qpow,
    scalar,
    validate_params,
)
from qhahn.reports import CheckReport, _residuals, check_gram

from conftest import (
    CANONICAL,
    GF,
    PANEL,
    former_norm_h,
    former_qnum,
    former_qpow,
    former_u_prefactors,
    former_validate_params,
    former_weight_scale,
    former_weight_vector,
    outcome,
)

rationals = st.fractions(
    min_value=F(-4), max_value=F(4), max_denominator=16
).filter(lambda x: x != 0)


def test_scalar_coercions():
    assert scalar(3) == F(3)
    assert scalar("3/4") == F(3, 4)
    assert scalar(F(5, 7)) == F(5, 7)
    for value in (0.5, True):
        with pytest.raises(TypeError):
            scalar(value)


@pytest.mark.parametrize("params, field", [
    pytest.param(p, f.name, id=f"{type(p).__name__}-{f.name}")
    for p in (CANONICAL, wilson.WilsonParams(F(1, 2), F(3), F(5), F(7), F(11), 2),
              wilson.HahnParams(F(-5), F(9), 3))
    for f in fields(p)[:-1]])
@pytest.mark.parametrize("value", [True, False])
def test_a_bool_is_no_rational_field(params, field, value):
    # int(True) is 1, but a bool is no exact parameter: each rational field of
    # the three parameter classes refuses it before a guard or a series reads it
    with pytest.raises(TypeError, match="as an exact rational"):
        replace(params, **{field: value})


@given(st.fractions(max_denominator=10 **6))
def test_frac_str_round_trip(x):
    assert F(frac_str(x)) == x


def test_qpoch_hand_values():
    # (1/2; 1/2)_2 = (1 - 1/2)(1 - 1/4)
    assert qpoch(F(1, 2), 2, F(1, 2)) == F(3, 8)
    assert qpoch(F(1, 3), 0, F(1, 2)) == 1
    # a numerator entry q^0 = 1 kills every factor
    assert qpoch(1, 3, F(1, 2)) == 0
    with pytest.raises(ValueError):
        qpoch(F(1, 2), -1, F(1, 2))


@given(rationals, st.integers(0, 6), st.integers(0, 6), rationals)
@settings(max_examples=40)
def test_qpoch_splits_multiplicatively(base, j, k, q):
    # (a; q)_{j+k} = (a; q)_j * (a q^j; q)_k
    assert qpoch(base, j + k, q) == qpoch(base, j, q) * qpoch(base * q**j, k, q)


def test_qnum_hand_value():
    # [2]_q at q = 1/2 is (1 - 1/4)/(1 - 1/2)
    assert qnum(CANONICAL, 2) == F(3, 2)
    assert qnum(CANONICAL, 0) == 0
    assert qnum(CANONICAL, 1) == 1


def test_qpow_is_monomial():
    p = CANONICAL
    assert qpow(p, 2, 1, -1) == p.q**2 * p.A / p.B


# The panel, each instance's reflection and its shift A -> qA (the partner
# family's and the contiguity check's instances), and q = -2/3 and q = 2.
TABLED = [r for p in PANEL
          for r in (p, reflected_params(p), QParams(p.q, p.q * p.A, p.B, p.N))] + [
    QParams(F(-2, 3), F(7, 3), F(5, 11), 5), QParams(F(2), F(-5), F(1, 7), 4)]


def assert_tables_hold_the_direct_formulas(p, one):
    q, A, B, N = p.q, p.A, p.B, p.N
    for i in range(-2 * N - 2, 2 * N + 3):
        for j in range(-2, 3):
            for k in range(-2, 3):
                mono = q**i * A**j * B**k
                for _ in range(2):  # the miss, then the table
                    assert qpow(p, i, j, k) == mono
                    assert qnum(p, i, j, k) == (one - mono) / (one - q)
                assert type(qpow(p, i, j, k)) is type(mono)
                assert qnum(p, i, j, k) is vars(p)["_qnum"][i, j, k]


@pytest.mark.parametrize("p", TABLED, ids=lambda p: f"q{p.q}-A{p.A}-N{p.N}")
def test_tabulated_brackets_equal_the_direct_formulas(p):
    assert_tables_hold_the_direct_formulas(p, 1)


def test_tabulated_brackets_stay_field_generic():
    # the same tables over Q(q, A, B), through the algebra tests' stand-in
    sympy = pytest.importorskip("sympy")
    from test_algebra_field import FieldParams

    _, q, A, B = sympy.field("q,A,B", sympy.QQ)
    assert_tables_hold_the_direct_formulas(FieldParams(q, A, B, 2), q**0)


def assert_integer_tables_equal_the_former_bodies(p, keys):
    """qpow, qnum, the U_n prefactors, the weight and the norms of p equal their
    former Fraction bodies: the same values, or the same error and message."""
    for key in keys:
        for fn, former in ((qpow, former_qpow), (qnum, former_qnum)):
            value = fn(p, *key)
            assert value == former(p, *key) and type(value) is F
            assert fn(p, *key) is value  # read from the table
    assert p._u_prefactors == former_u_prefactors(p)
    assert outcome(weight_scale, p) == outcome(former_weight_scale, p)
    assert outcome(lambda p: weight_vector(p).values, p) == outcome(former_weight_vector, p)
    assert outcome(norm_h, p) == outcome(former_norm_h, p)


@st.composite
def signed_instances(draw):
    """An instance with q, A and B of either sign, A and B often signed powers
    of q, so the guards fire; N <= 8, unguarded."""
    q = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(
        lambda v: v not in (0, 1, -1)))
    base = st.one_of(
        st.builds(lambda s, e: s * q**e, st.sampled_from([1, -1]), st.integers(-9, 9)),
        st.fractions(min_value=-7, max_value=7, max_denominator=7).filter(bool))
    return QParams(q, draw(base), draw(base), draw(st.integers(0, 8)))


@settings(max_examples=150, deadline=None)
@given(signed_instances(), st.lists(st.tuples(*[st.integers(-12, 12)] * 3), max_size=8))
def test_integer_tables_equal_the_former_fraction_bodies(p, keys):
    assert_integer_tables_equal_the_former_bodies(p, keys)


# Instances past the guards, each with the error it must raise where:
# (1/B; q)_N in the weight scale, a weight step at x = 2, the U_n prefactor
# at n = 1 and n = 2 (its table stops there), and f_2 of the norm at n = 1.
GUARDED = [
    (QParams(F(1, 2), F(3), F(1, 2), 3), weight_scale,
     "(1/B; q)_N vanishes in the weight normalization"),
    (QParams(F(-2), F(3), F(3), 3), weight_vector, "weight denominator vanishes at x = 2"),
    (QParams(F(1, 2), F(3), F(2), 3), norm_h, "(q^{-n}/B; q)_n vanishes in the U_n prefactor"),
    (QParams(F(1, 2), F(3), F(4), 3), norm_h, "(q^{-n}/B; q)_n vanishes in the U_n prefactor"),
    (QParams(F(-3), F(-1, 5), F(-3), 2), norm_h, "norm denominator vanishes"),
]


@pytest.mark.parametrize("p, fn, message", GUARDED, ids=lambda v: getattr(v, "__name__", None))
def test_guarded_instances_raise_where_the_former_bodies_did(p, fn, message):
    assert outcome(fn, p) == (ZeroDenominator, message)
    assert_integer_tables_equal_the_former_bodies(p, [(1, -1, 2), (-p.N, 0, 1)])


def test_guard_table_gives_the_former_flags_and_witnesses():
    # ROADMAP item 4's bands: A and B powers of q or generic, every n_max <= N
    seen = set()
    for q in (F(1, 2), F(-1, 2), F(2), F(1, 3), F(3, 2), F(-3)):
        values = {q**e for e in range(-4, 5)} | {F(3), F(-1, 5), F(7, 3), F(1)}
        for A, B in itertools.product(values, repeat=2):
            for N in range(1, 5):
                p = QParams(q, A, B, N)
                for n_max in range(N + 1):
                    report = validate_params(p, n_max)
                    assert report == former_validate_params(p, n_max)
                    seen.update(f.name for f in fields(report) if getattr(report, f.name))
    assert seen == {f.name for f in fields(ValidationReport)}


class MissLog(dict):
    """A bracket table that records the key of every value stored in it."""

    def __init__(self):
        super().__init__()
        self.misses = []

    def __setitem__(self, key, value):
        self.misses.append(key)
        super().__setitem__(key, value)


@pytest.mark.parametrize("p", [PANEL[0], PANEL[4], QParams(F(-2, 3), F(7, 3), F(5, 11), 5)],
                         ids=lambda p: f"q{p.q}-N{p.N}")
def test_each_bracket_is_computed_once_per_parameter_object(p):
    p = QParams(p.q, p.A, p.B, p.N)  # tables of its own
    logs = {name: vars(p).setdefault(name, MissLog()) for name in ("_qpow", "_qnum")}

    def build():
        inst = Instance(p)
        return inst.ops, inst.expansions, inst.constants, inst.family

    build()
    for log in logs.values():
        assert log.misses and len(log.misses) == len(set(log.misses))
    counts = {name: len(log.misses) for name, log in logs.items()}
    build()  # a second instance on the same p computes no bracket again
    assert {name: len(log.misses) for name, log in logs.items()} == counts


def test_filled_tables_change_no_parameter_view_and_reach_no_report():
    p, fresh = (QParams(F(1, 2), F(-5), F(1, 7), 4) for _ in range(2))
    checks = [check for name in ("gevp", "biortho", "algebra", "casimir", "potential")
              for check in inspect.getclosurevars(cli.SUITES[name]).nonlocals["checks"]]

    def reports():
        inst = Instance(p)
        return json.dumps([check(inst).as_dict() for check in checks], sort_keys=True)

    first = reports()
    assert vars(p)["_qpow"] and vars(p)["_qnum"] and "_qnum" not in vars(fresh)
    assert p == fresh and hash(p) == hash(fresh)
    assert repr(p) == repr(fresh) and p.as_dict() == fresh.as_dict()
    assert "_qpow" not in first and "_qnum" not in first
    assert reports() == first  # read from the filled tables


@given(st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=40)
def test_bracket_addition_law(a, b):
    # [a + b] = [a] + q^a [b], the defining cocycle of the q-bracket
    p = CANONICAL
    assert qnum(p, a + b) == qnum(p, a) + qpow(p, a) * qnum(p, b)


@given(st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 2))
@settings(max_examples=40)
def test_bracket_addition_law_mixed_exponents(i, j, k):
    # the same law with alpha and beta contributions in the exponent
    p = CANONICAL
    assert qnum(p, i + 1, j, k) == qnum(p, 1) + qpow(p, 1) * qnum(p, i, j, k)


@given(
    st.integers(1, 5),
    rationals,
    rationals,
    st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=8),
)
@settings(max_examples=40)
def test_phi_series_q_vandermonde(n, b, c, q):
    # terminating 2phi1(q^-n, b; c; q, c q^n / b) = (c/b; q)_n / (c; q)_n
    if qpoch(c, n, q) == 0 or b == 0:
        return
    closed = qpoch(c / b, n, q) / qpoch(c, n, q)
    series = phi_series([q**-n, b], [c], c * q**n / b, q, n + 1)
    assert series == closed


def test_phi_series_terminates():
    # extra terms beyond the q^-n cutoff contribute exactly zero
    q = F(1, 2)
    short = phi_series([q**-2, F(1, 3)], [F(1, 5)], F(1, 7), q, 3)
    long = phi_series([q**-2, F(1, 3)], [F(1, 5)], F(1, 7), q, 12)
    assert short == long


@pytest.mark.parametrize("q, den, message", [
    (F(-1), [F(1, 5)], "(q; q)_2 vanishes (q^2 = 1)"),
    (F(1, 2), [F(1)], "denominator Pochhammer (1; q)_k vanishes at factor index 0"),
], ids=["q-pochhammer", "denominator-base"])
def test_phi_series_names_a_vanishing_denominator(q, den, message):
    with pytest.raises(ZeroDenominator) as info:
        phi_series([F(1, 3)], den, F(1, 7), q, 3)
    assert str(info.value) == message


def test_validate_params_flags_basis_pole():
    report = validate_params(QParams(F(1, 2), F(1), F(1, 512), 3), 3)
    assert not report.valid
    assert report.basis_pole is not None
    assert any("basis_pole" in issue for issue in report.issues())


@pytest.mark.parametrize("p", [
    QParams(F(1, 2), F(3), F(12), 3), QParams(F(1, 2), F(3), F(24), 3),
    QParams(F(1, 2), F(3), F(48), 3), QParams(F(1, 2), F(5), F(20), 2),
], ids=["A3-B12-N3", "A3-B24-N3", "A3-B48-N3", "A5-B20-N2"])
def test_validate_params_flags_the_reflected_basis_pole(p):
    # B/A = q^-2, q^-3, q^-4 put a basis pole of the reflected instance
    # (1/q, A/(B q^2), 1/B) on its grid; no other guard sees it
    report = validate_params(p, p.N)
    assert report.issues() == [f"reflected_basis_pole: {report.reflected_basis_pole}"]
    with pytest.raises(ZeroDenominator):
        partner_family(p)


@pytest.mark.parametrize("N", [0, 1, 2, 3, 4])
def test_reflected_basis_pole_flag_spans_exactly_the_partner_poles(N):
    # B/A = q^e: the flag covers e in [-N-1, N-2]; where the weight guard
    # does not (e <= -2) the partner family cannot be built, and an instance
    # no guard flags builds it
    q, A = F(1, 2), F(3)
    for e in range(-N - 4, N + 2):
        p = QParams(q, A, A * q**e, N)
        report = validate_params(p, N)
        assert (report.reflected_basis_pole is not None) == (-N - 1 <= e <= N - 2)
        assert (report.weight_denominator is not None) == (-1 <= e <= N - 2)
        if report.valid:
            partner_family(p)
        elif e <= -2:
            with pytest.raises(ZeroDenominator):
                partner_family(p)


@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_basis_pole_flag_spans_the_family_poles_and_the_x_diagonal(N):
    # A = q^e: the flag covers e in [1-N, N] and always [0, N], where X's
    # diagonal [x - alpha]_q vanishes at x = e (A = 1 at N = 0 included);
    # an instance no guard flags factors Y = X V
    q, B = F(1, 2), F(1, 5)
    for e in range(-N - 2, N + 3):
        p = QParams(q, q**e, B, N)
        report = validate_params(p, N)
        assert (report.basis_pole is not None) == (min(1 - N, 0) <= e <= N)
        if report.valid:
            assert check_factorization(Instance(p)).status == "pass"


def test_validate_params_accepts_panel():
    for p in PANEL:
        assert validate_params(p, p.N).valid


def test_validate_params_rejects_bad_nmax():
    with pytest.raises(InvalidParams):
        validate_params(CANONICAL, 7)


# Each integer kernel fed one value that is neither an int nor a Fraction; the
# Gram's weights and rows go in as the 10phi9 and Hahn checks read them.
HAHN = wilson.HahnParams(F(-5), F(9), 3)
GATED = {
    "check_gram-weights": lambda v: wilson._row_gram(
        CheckReport("gram", {}), HAHN, lambda x, hp: v, wilson._hahn_rows, wilson.hahn_h),
    "check_gram-rows": lambda v: wilson._row_gram(
        CheckReport("gram", {}), HAHN, wilson.hahn_weight,
        lambda n, hp, i: _series_rows(hp._row_tables[i], n, v), wilson.hahn_h),
    "check_gram-norms": lambda v: check_gram(CheckReport("gram", {}), [([1, 1], F(1))],
                                             [([1, 1], F(1))], [v]),
    "evaluate_poly": lambda v: evaluate_poly(NCPoly({("X",): v}), Instance(CANONICAL)),
    "partial_fraction": lambda v: partial_fraction([v, 1, 1], brf_family(CANONICAL).rows[2],
                                                   CANONICAL),
    "_residuals": lambda v: _residuals([(1, 1)], [(1, 1)], v, 1),
    "solve_unique": lambda v: solve_unique([[v]], [1]),
    "_series_rows": lambda v: _series_rows(CANONICAL._row_tables, 1, v),
    "over_common_denominator": lambda v: over_common_denominator([1, v]),
}


@pytest.mark.parametrize("kernel", GATED)
@pytest.mark.parametrize("value", [0.5, GF(1), True], ids=["float", "GF", "bool"])
def test_every_integer_kernel_takes_values_apart_through_the_one_gate(kernel, value):
    # `qcore._pair` is where an exact value becomes integers: a float is not
    # read as the binary fraction it stores, a bool not as 0 or 1, nor a wrong
    # reason raised, and an element of another field is not an AttributeError
    with pytest.raises(QHahnError) as info:
        GATED[kernel](value)
    assert type(info.value) is QHahnError
    assert str(info.value) == f"integer kernels take ints and Fractions, not {type(value).__name__}"


def test_weight_and_collision_flags_fire_only_where_two_others_do():
    # weight_denominator: B/A = q^(N-2-j), j < N, is B = A q^(m-2) with
    # m = N - j in [1, N], inside the reflected span for every n_max.
    # eigenvalue_collision: lambda_n - lambda_m is a multiple of
    # (q^n - q^m)(q^(-n-m) - B q^-N), so B = q^(N-s), s = n + m in
    # [1, 2 n_max - 1], and the four brackets cover s in [-1, 2 n_max + 1]
    fired = Counter()
    for q in (F(1, 2), F(-1, 3), F(3, 2)):
        for A, N in itertools.product((F(3), F(-5, 7), q**2), range(7)):
            bs = {q**k for k in range(-N - 3, N + 4)} | {A * q**k for k in range(-N - 3, N + 3)}
            for B, n_max in itertools.product(bs, range(N + 1)):
                report = validate_params(QParams(q, A, B, N), n_max)
                fired.update(f.name for f in fields(report) if getattr(report, f.name))
                assert report.weight_denominator is None or report.reflected_basis_pole
                assert report.eigenvalue_collision is None or report.bracket_denominator
    assert set(fired) == {f.name for f in fields(ValidationReport)}

