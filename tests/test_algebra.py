import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhahn import algebra
from qhahn.algebra import (
    NCPoly,
    casimir_meta,
    casimir_rqhahn,
    check_casimir_meta,
    check_casimir_rqhahn,
    check_meta_relations,
    check_potential_meta,
    check_potential_rqhahn,
    check_rqhahn_relations,
    check_structure_constants,
    cyclic_derivative,
    evaluate_poly,
    meta_relation_polys,
    potential_meta,
    potential_rqhahn,
    rqhahn_relation_polys,
    solve_structure_constants,
    structure_constants,
)
from qhahn.brf import Instance
from qhahn.operators import Basis, Operator, OpMatrix, build_operator
from qhahn.qcore import QHahnError, QParams, RankDeficient, _integer_rows, frac_str, qnum, qpow

from conftest import (
    CANONICAL,
    PANEL,
    SMALL_PANEL,
    dense_difference,
    dense_evaluate_poly,
    dense_is_zero,
    dense_max_abs,
    identity,
    outcome,
    solve_by_rref,
)

words = st.text(alphabet="XYZV", min_size=0, max_size=3)
coeffs = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=6)
polys = st.dictionaries(words, coeffs, max_size=3).map(
    lambda d: NCPoly({tuple(w): c for w, c in d.items()})
)


def same(a, b):
    """Two NCPolys are one element: the same terms."""
    return a.terms == b.terms


@given(polys, polys, polys)
@settings(max_examples=30)
def test_ncpoly_ring_laws(a, b, c):
    assert same((a + b) + c, a + (b + c))
    assert same(a + b, b + a)
    assert (a - a).is_zero()


@given(polys, coeffs)
@settings(max_examples=30)
def test_ncpoly_scalar_action(a, c):
    assert same(c * a, NCPoly({w: c * v for w, v in a.terms.items()}))


def former_terms(terms):
    """The former constructor, which added every coefficient to the stored
    one or 0: the oracle of the terms an NCPoly holds."""
    normal = {}
    for word, coeff in terms.items():
        if coeff == 0:
            continue
        key = tuple(word)
        total = normal.get(key, 0) + coeff
        if total == 0:
            normal.pop(key, None)
        else:
            normal[key] = total
    return normal


def former_sum(a, b):
    merged = dict(a.terms)
    for word, coeff in b.terms.items():
        merged[word] = merged.get(word, 0) + coeff
    return former_terms(merged)


def typed(terms):
    return [(word, coeff, type(coeff)) for word, coeff in terms.items()]


# A word given as a str and as a tuple is one word twice; the small values
# cancel often, and zeros are given too.
term_maps = st.dictionaries(
    st.text(alphabet="XY", max_size=3).flatmap(lambda w: st.sampled_from([w, tuple(w)])),
    st.one_of(st.sampled_from([0, 1, -1, 2, F(0), F(1), F(-1), F(1, 2), F(-1, 2)]),
              st.integers(-3, 3), coeffs),
    max_size=8)


@given(term_maps, term_maps)
@settings(max_examples=200)
def test_ncpoly_terms_are_those_of_the_former_constructor(t, u):
    # values, types and order: a report that prints or sums the terms is unchanged
    a, b = NCPoly(t), NCPoly(u)
    assert typed(a.terms) == typed(former_terms(t))
    assert typed((a + b).terms) == typed(former_sum(a, b))
    assert typed((a - b).terms) == typed(former_sum(a, NCPoly(former_terms(
        {w: -c for w, c in b.terms.items()}))))
    former = {}
    for word, coeff in a.terms.items():
        for s, letter in enumerate(word):
            if letter == "X":
                rest = word[s + 1:] + word[:s]
                former[rest] = former.get(rest, 0) + coeff
    assert typed(cyclic_derivative(a, "X").terms) == typed(former_terms(former))


def test_ncpoly_unit_and_monomials():
    # the empty word is the unit; coefficients are kept as given, and a zero
    # one is never stored
    assert NCPoly.monomial("").terms == {(): 1}
    assert NCPoly.monomial("XY", F(1, 3)).terms == {("X", "Y"): F(1, 3)}
    assert NCPoly.monomial("X", 0).terms == {}
    assert NCPoly({"X": 1, "Y": F(0)}).terms == {("X",): 1}
    assert type(NCPoly.monomial("X").terms[("X",)]) is int


def test_cyclic_derivative_displayed_rule():
    # d[XY]/dX = Y, d[XXX]/dX = 3 X^2, d[XYZ]/dY = ZX
    assert same(cyclic_derivative(NCPoly.monomial("XY"), "X"), NCPoly.monomial("Y"))
    assert same(cyclic_derivative(NCPoly.monomial("XXX"), "X"), NCPoly.monomial("XX", 3))
    assert same(cyclic_derivative(NCPoly.monomial("XYZ"), "Y"), NCPoly.monomial("ZX"))
    assert same(cyclic_derivative(NCPoly.monomial("XY"), "Z"), NCPoly())


@given(st.text(alphabet="XYZV", max_size=5), st.sampled_from("XYZV"))
@settings(max_examples=50)
def test_cyclic_derivative_reads_every_rotation_alike(word, gen):
    # the derivative reads a word cyclically, so a potential may store any
    # rotation of each of its words
    deriv = cyclic_derivative(NCPoly.monomial(word), gen)
    for i in range(len(word)):
        assert same(cyclic_derivative(NCPoly.monomial(word[i:] + word[:i]), gen), deriv)


@given(polys, polys, coeffs, st.sampled_from("XYZV"))
@settings(max_examples=30)
def test_cyclic_derivative_is_linear(a, b, c, gen):
    lhs = cyclic_derivative(a + c * b, gen)
    rhs = cyclic_derivative(a, gen) + c * cyclic_derivative(b, gen)
    assert same(lhs, rhs)


# words over X, Y, Z, V with all their prefixes, the empty word included, so
# products of shared prefixes are reused
prefix_closed_polys = st.lists(
    st.tuples(st.text(alphabet="XYZV", max_size=4), coeffs), max_size=4).map(
    lambda items: NCPoly({tuple(w[:k]): c for w, c in items for k in range(len(w) + 1)}))
CANONICAL_INST = Instance(CANONICAL)


@given(prefix_closed_polys)
@settings(max_examples=30, deadline=None)
def test_evaluate_poly_equals_an_identity_started_fold(poly):
    one = OpMatrix(identity(CANONICAL.N + 1, CANONICAL.q**0), Basis.POINT, CANONICAL)
    acc = [[0] * (CANONICAL.N + 1) for _ in range(CANONICAL.N + 1)]
    for word, coeff in poly.terms.items():
        prod = one
        for letter in word:
            prod = prod @ CANONICAL_INST.ops[letter]
        acc = [[a + coeff * v for a, v in zip(ra, rp)] for ra, rp in zip(acc, prod.entries)]
    fold = OpMatrix(acc, Basis.POINT, CANONICAL)
    assert dense_evaluate_poly(poly, CANONICAL_INST) == fold
    assert evaluate_poly(poly, CANONICAL_INST) == _integer_rows(fold)


# words of length 0..4 over X, Y, Z, V, V-heavy ones among them (V is lower
# Hessenberg, so its products fill the lower triangle)
ORACLE_WORDS = ["", "X", "Y", "Z", "V", "XX", "XY", "YX", "XZ", "ZX", "ZZ", "ZV", "VZ", "VV",
                "YV", "XYZ", "VZZ", "ZVX", "VVV", "XYZV", "VVVV", "YXVZ", "ZZZZ", "VXYV"]
ORACLE_COEFFS = [1, -2, F(3, 7), F(-5, 11), 3, F(1, 2)]


@pytest.mark.parametrize("p", PANEL + [QParams(F(1, 2), F(3), F(1, 5), 0),
                                       QParams(F(1, 2), F(-5), F(1, 7), 24)],
                         ids=[f"panel{i}" for i in range(len(PANEL))] + ["N0", "N24"])
def test_evaluate_poly_equals_the_dense_oracle(p):
    # the integer rows against dense Fraction products: one polynomial over
    # every word, one int-only, and the relations and Casimirs, whose sums
    # cancel to zero or to a scalar
    inst = Instance(p)
    polys = [NCPoly({tuple(w): ORACLE_COEFFS[i % len(ORACLE_COEFFS)]
                     for i, w in enumerate(ORACLE_WORDS)}),
             NCPoly({tuple(w): (-1) ** i * i for i, w in enumerate(ORACLE_WORDS)}),
             *rqhahn_relation_polys(inst).values(), *meta_relation_polys(inst).values(),
             casimir_rqhahn(inst), casimir_meta(inst)]
    for poly in polys:
        value = evaluate_poly(poly, inst)
        assert value == _integer_rows(dense_evaluate_poly(poly, inst))
        # ints only, and only the nonzero entries: an entry the sum cancels is left out
        assert all(type(e) is int and all(type(a) is int and a for a in row.values())
                   for row, e in value)


def dense_integer_rows(poly, inst):
    """`dense_evaluate_poly` in the form `evaluate_poly` returns."""
    return _integer_rows(dense_evaluate_poly(poly, inst))


def zero_rows(p):
    """The zero matrix of p's grid in the form `evaluate_poly` returns."""
    return [({}, 1)] * (p.N + 1)


def _bump_v(inst):
    # V[2][1] + 1/7, before any integer rows or word products are read from it
    v = inst.ops["V"].rows()
    v[2][1] += F(1, 7)
    inst.ops["V"] = OpMatrix(v, Basis.POINT, inst.p)


FAILING_CHECKS = [check_rqhahn_relations, check_meta_relations, check_casimir_rqhahn,
                  check_casimir_meta]


@pytest.mark.parametrize("perturb, Ns, failing", [
    (lambda mp, inst: _tamper_constants(mp, "xi", 5, lambda v: v + 1), (0, 1, 3, 8),
     {"rqhahn_relations"}),
    (lambda mp, inst: _tamper_constants(mp, "gamma", 1, lambda v: v + F(1, 3)), (0, 1, 3, 8),
     {"casimir_rqhahn"}),
    (lambda mp, inst: _bump_v(inst), (3,), {"meta_relations", "casimir_meta"}),
], ids=["xi5+1", "gamma2+1/3", "V21+1/7"])
def test_failing_reports_are_those_of_the_dense_oracle(monkeypatch, perturb, Ns, failing):
    # a failing report carries its residuals: the integer rows must give the
    # ones dense Fraction products give, violations and residual norms
    # included.  V[2][1] is interior: a bump of V[N][0] is not seen by
    # casimir_meta
    for N in Ns:
        p = QParams(F(1, 2), F(3), F(1, 5), N)
        runs = []
        for evaluate in (evaluate_poly, dense_integer_rows):
            with monkeypatch.context() as mp:
                mp.setattr(algebra, "evaluate_poly", evaluate)
                inst = Instance(p)
                perturb(mp, inst)
                runs.append([check(inst).as_dict() for check in FAILING_CHECKS])
        assert runs[0] == runs[1]
        assert {report["check"] for report in runs[0] if report["status"] == "fail"} == failing


@pytest.mark.parametrize("word, letter", [("W", "W"), ("XWZ", "W"), ("Xx", "x")])
def test_evaluate_poly_names_an_unknown_letter(word, letter):
    with pytest.raises(QHahnError, match=f"word '{word}': letter '{letter}' is not X, Y, Z or V"):
        evaluate_poly(NCPoly.monomial(word), Instance(CANONICAL))


def test_evaluate_poly_matches_matrix_products(canonical):
    mats = {g.value: build_operator(g, Basis.POINT, canonical) for g in Operator}
    poly = NCPoly.monomial("XZ", F(2)) + NCPoly.monomial("Y", F(-1, 3))
    direct = [[F(2) * a + F(-1, 3) * b for a, b in zip(ra, rb)]
              for ra, rb in zip((mats["X"] @ mats["Z"]).entries, mats["Y"].entries)]
    assert evaluate_poly(poly, Instance(canonical)) == _integer_rows(direct)


def test_rqhahn_relations_exact_on_panel():
    for p in PANEL:
        assert check_rqhahn_relations(Instance(p)).status == "pass"


def test_meta_relations_exact_on_panel():
    for p in PANEL:
        assert check_meta_relations(Instance(p)).status == "pass"


def _tamper_constants(monkeypatch, field, i, change):
    good = algebra.structure_constants

    def tampered(p):
        sc = good(p)
        values = list(getattr(sc, field))
        values[i] = change(values[i])
        return dataclasses.replace(sc, **{field: tuple(values)})

    monkeypatch.setattr(algebra, "structure_constants", tampered)


def test_relation_negative_control_xi5(canonical, monkeypatch):
    _tamper_constants(monkeypatch, "xi", 5, lambda v: v + 1)
    report = check_rqhahn_relations(Instance(canonical))
    assert report.status == "fail"
    assert [v["relation"] for v in report.violations] == ["ZY"]


def test_relation_negative_control_eta2_sign(canonical, monkeypatch):
    # the sign of eta_2 is load-bearing: its flip must break the ZV relation
    _tamper_constants(monkeypatch, "eta", 2, lambda v: -v)
    report = check_meta_relations(Instance(canonical))
    assert report.status == "fail"
    assert [v["relation"] for v in report.violations] == ["ZV"]


def test_solve_back_reports_a_shifted_closed_form_as_one_discrepancy(canonical, monkeypatch):
    # the solve-back reads the matrices only, so a closed-form xi_5 off by 1
    # leaves the solved value as it was and disagrees with it in xi_5 alone
    true = structure_constants(canonical).xi[5]
    _tamper_constants(monkeypatch, "xi", 5, lambda v: v + 1)
    report = check_structure_constants(Instance(canonical))
    assert report.violations == [{"constant": "xi_5", "kind": "DISCREPANCY",
                                  "solved": frac_str(true), "closed_form": frac_str(true + 1)}]


def test_relation_table_negative_control(canonical, monkeypatch):
    # xi_8 in place of xi_5 on the X term of ZY, in the one table both the
    # relation check and the solve-back read: both fail
    table = dict(algebra._RQHAHN_RELATIONS)
    table["ZY"] = [(8 if i == 5 else i, words) for i, words in table["ZY"]]
    monkeypatch.setattr(algebra, "_RQHAHN_RELATIONS", table)
    inst = Instance(canonical)
    report = check_rqhahn_relations(inst)
    assert report.status == "fail"
    assert [v["relation"] for v in report.violations] == ["ZY"]
    report = check_structure_constants(inst)
    assert report.status == "fail"
    assert report.violations == [
        {"kind": "QHahnError", "message": "xi_8 disagrees between the ZY and YX solves"}]


# Tampered XZ rows of the relation table: the X term dropped, so that
# X Z - q Z X is outside the span of the rest; xi_6 declared a fixed -1; and
# Z^2 read as the unit, which leaves X Z - q Z X in the span on the diagonal
# and the subdiagonal, the entries the ansatz touches, and outside it on the
# second subdiagonal, which only the left side touches.
TAMPERED_XZ = [[(None, ("ZZ",)), (None, ("Z",))],
               [(None, ("ZZ",)), (None, ("Z",)), (None, ("X",))],
               [(None, ("",)), (None, ("Z",)), (6, ("X",))]]


@pytest.mark.parametrize("xz, kind, message", [
    (TAMPERED_XZ[0], "SingularSystem", "system is inconsistent"),
    (TAMPERED_XZ[1], "QHahnError", "relation XZ solved with unexpected fixed coefficients"),
    (TAMPERED_XZ[2], "SingularSystem", "system is inconsistent"),
])
def test_solve_back_failure_is_a_violation(canonical, monkeypatch, xz, kind, message):
    monkeypatch.setattr(algebra, "_RQHAHN_RELATIONS", {**algebra._RQHAHN_RELATIONS, "XZ": xz})
    report = check_structure_constants(Instance(canonical))
    assert report.status == "fail"
    assert report.violations == [{"kind": kind, "message": message}]


def dense_solve_relation(lhs, ansatz, what):
    """The dense solve of one relation, the oracle of `algebra._solve_relation`:
    every one of the (N+1)^2 entries of the `evaluate_poly` matrices is an
    equation of a `Fraction` system, solved by `solve_by_rref`."""
    def flatten(rows):
        return [F(row[j], e) if j in row else 0 for row, e in rows for j in range(len(rows))]

    try:
        return solve_by_rref([list(col) for col in zip(*map(flatten, ansatz))], flatten(lhs))
    except RankDeficient:
        raise RankDeficient(f"ansatz for {what} is linearly dependent at this instance") from None


@pytest.mark.parametrize("p, xz", [(p, None) for p in PANEL]
                         + [(QParams(F(1, 2), F(3), F(1, 5), n), None) for n in range(13)]
                         + [(CANONICAL, xz) for xz in TAMPERED_XZ]
                         # Z^2 + Z beside Z^2 and Z: a dependent ansatz at every N
                         + [(CANONICAL, [(None, ("ZZ",)), (None, ("Z",)), (6, ("X",)),
                                         (None, ("ZZ", "Z"))])],
                         ids=[f"panel{i}" for i in range(len(PANEL))]
                         + [f"N{n}" for n in range(13)]
                         + ["X-dropped", "xi6-fixed", "ZZ-as-unit", "dependent"])
def test_solve_back_equals_the_dense_fraction_solve(monkeypatch, p, xz):
    # the same solution, or the same exception class and message
    if xz is not None:
        monkeypatch.setattr(algebra, "_RQHAHN_RELATIONS", {**algebra._RQHAHN_RELATIONS, "XZ": xz})
    inst = Instance(p)
    solved = outcome(solve_structure_constants, inst)
    monkeypatch.setattr(algebra, "_solve_relation", dense_solve_relation)
    assert solved == outcome(solve_structure_constants, inst)


@pytest.mark.parametrize("n, relation", [(0, "XZ"), (1, "ZY"), (2, "YX")])
def test_solve_back_skips_a_dependent_ansatz_at_small_n(n, relation):
    # the first relation whose ansatz is dependent names the skip
    report = check_structure_constants(Instance(QParams(F(1, 2), F(3), F(1, 5), n)))
    assert report.status == "skip"
    assert report.skipped == f"ansatz for relation {relation} is linearly dependent at this instance"
    assert report.violations == []


def test_structure_constant_closed_forms(canonical):
    # spot anchors: xi_2 = q^-1 [beta - N], eta_1 = [beta - N + 1],
    # gamma_2 = [beta - N + 1]
    p = canonical
    sc = Instance(p).constants
    assert sc == structure_constants(p)
    assert sc.xi[2] == qpow(p, -1) * qnum(p, -p.N, 0, 1)
    assert sc.eta[1] == qnum(p, 1 - p.N, 0, 1)
    assert sc.gamma[1] == qnum(p, 1 - p.N, 0, 1)
    assert sc.eta[2] == qpow(p, -p.N, 0, 1) * qnum(p, 2)


def test_solve_back_recovers_constants():
    for p in PANEL:
        report = check_structure_constants(Instance(p))
        if p.N <= 2:
            assert report.status == "skip"
        else:
            assert report.status == "pass"


def test_solve_back_equals_closed_forms(canonical):
    inst = Instance(canonical)
    assert solve_structure_constants(inst) == inst.constants.xi


def test_casimirs_central_on_panel():
    for p in PANEL:
        inst = Instance(p)
        assert check_casimir_rqhahn(inst).status == "pass"
        assert check_casimir_meta(inst).status == "pass"


def test_casimir_matrices_shape(canonical):
    # the realization sits on the zero surface of the cubic Casimir and
    # maps the meta Casimir to a nonzero scalar
    inst = Instance(canonical)
    assert evaluate_poly(casimir_rqhahn(inst), inst) == zero_rows(canonical)
    scalar = identity(canonical.N + 1, F(-773977, 131072))
    assert evaluate_poly(casimir_meta(inst), inst) == _integer_rows(scalar)


def test_casimir_reports_scalar_flag(canonical):
    inst = Instance(canonical)
    r = check_casimir_meta(inst)
    assert r.details["is_scalar"] is True
    r2 = check_casimir_rqhahn(inst)
    assert r2.details["is_scalar"] is True


def test_casimir_rqhahn_must_vanish_not_only_commute(canonical, monkeypatch):
    # Q + I still commutes with every generator; the claim for the rational
    # q-Hahn Casimir is Q = 0 and for the meta one a given scalar, so only
    # those claims fail; the empty word is I
    for name in ("casimir_rqhahn", "casimir_meta"):
        good = getattr(algebra, name)
        monkeypatch.setattr(algebra, name,
                            lambda inst, good=good: good(inst) + NCPoly.monomial(""))
    inst = Instance(canonical)
    report = check_casimir_rqhahn(inst)
    assert report.status == "fail"
    assert report.violations == [{"claim": "zero", "residual": "1/1"}]
    assert check_casimir_meta(inst).violations == [{"claim": "value", "residual": "1/1"}]


@pytest.mark.parametrize("p", [
    CANONICAL,
    QParams(F(1, 2), F(3), F(1, 5), 7),
    QParams(F(-2, 3), F(-5), F(1, 7), 7),
    QParams(F(2), F(3, 7), F(-5, 11), 9),
])
def test_casimir_meta_takes_its_value(p):
    # the scalar against its expanded form over one denominator
    q, A, B, N = p.q, p.A, p.B, p.N
    c = -(A * B * (1 - q) * (A - 1)
          + q**N * (A**2 * (2 - q) + A * B * (q**2 - q - 1) + B - A)) / (A**2 * q**N * (1 - q)**2)
    report = check_casimir_meta(Instance(p))
    assert report.status == "pass"
    assert set(report.details["diagonal"]) == {frac_str(c)}


def test_casimir_meta_value_is_asserted(canonical, monkeypatch):
    # a value shifted by 1/3 fails only the value claim
    good = algebra._casimir_meta_value
    monkeypatch.setattr(algebra, "_casimir_meta_value", lambda p: good(p) + F(1, 3))
    report = check_casimir_meta(Instance(canonical))
    assert report.violations == [{"claim": "value", "residual": "1/3"}]
    assert report.details["is_scalar"] is True


@pytest.mark.parametrize("i", range(5))
def test_casimir_rqhahn_negative_control_each_gamma(canonical, monkeypatch, i):
    _tamper_constants(monkeypatch, "gamma", i, lambda v: v + 1)
    report = check_casimir_rqhahn(Instance(canonical))
    assert report.status == "fail"
    assert report.violations[-1]["claim"] == "zero"


def _dense_commutator_violations(casimir, inst, generators):
    """The violations of the commutators Q g - g Q as dense Fraction products
    of `OpMatrix`, subtracted entry by entry: the oracle of the integer-row
    commutators."""
    q_mat = dense_evaluate_poly(casimir, inst)
    out = []
    for g in generators:
        comm = dense_difference((q_mat @ inst.ops[g]).entries, (inst.ops[g] @ q_mat).entries)
        if not dense_is_zero(comm):
            out.append({"generator": g, "residual": frac_str(dense_max_abs(comm))})
    return out


@pytest.mark.parametrize("i", range(5))
@pytest.mark.parametrize("N", [1, 3, 6])
def test_casimir_commutator_residuals_are_those_of_dense_products(monkeypatch, i, N):
    # gamma_i + 1 adds a word that is not central; the failing commutators
    # report the max |entry| that dense products report
    _tamper_constants(monkeypatch, "gamma", i, lambda v: v + 1)
    inst = Instance(QParams(F(1, 2), F(3), F(1, 5), N))
    report = check_casimir_rqhahn(inst)
    expected = _dense_commutator_violations(casimir_rqhahn(inst), inst, "XYZ")
    assert [v for v in report.violations if "generator" in v] == expected
    if N > 1:
        assert expected


def test_casimir_meta_must_be_scalar(canonical, monkeypatch):
    # adding the word XZ fails the scalar claim as well as centrality
    good = algebra.casimir_meta
    monkeypatch.setattr(algebra, "casimir_meta", lambda inst: good(inst) + NCPoly.monomial("XZ"))
    report = check_casimir_meta(Instance(canonical))
    assert report.status == "fail"
    assert report.details["is_scalar"] is False
    assert [v.get("generator") for v in report.violations] == ["X", "V", "Z", None]
    inst = Instance(canonical)
    assert report.violations[:3] == _dense_commutator_violations(
        algebra.casimir_meta(inst), inst, "XVZ")
    assert report.violations[-1] == {"claim": "scalar", "residual": "not a scalar matrix"}


def test_casimir_meta_scalar_flag_reads_the_off_diagonal(canonical, monkeypatch):
    # the word Z adds -1 to every diagonal entry, which stays constant, and
    # Z's lowering entries below it: the matrix is no scalar
    good = algebra.casimir_meta
    monkeypatch.setattr(algebra, "casimir_meta", lambda inst: good(inst) + NCPoly.monomial("Z"))
    report = check_casimir_meta(Instance(canonical))
    assert len(set(report.details["diagonal"])) == 1
    assert report.details["is_scalar"] is False
    assert report.violations[-1] == {"claim": "scalar", "residual": "not a scalar matrix"}


def test_potentials_give_relations_with_unit_scale():
    for p in SMALL_PANEL:
        for check in (check_potential_rqhahn, check_potential_meta):
            report = check(Instance(p))
            assert report.status == "pass"
            assert set(report.details["scales"].values()) == {"-1/1"}


def test_potential_scale_of_int_coefficients_is_exact(canonical):
    # d[XY]/dX = Y against the relation 2Y: the scale 1/2 divides two int
    # coefficients, which must give a Fraction, not the float 0.5
    report = algebra._potential_report(
        "potential", Instance(canonical), NCPoly.monomial("XY"),
        {"r": NCPoly.monomial("Y", 2)}, (("X", "r"),))
    assert report.status == "pass"
    assert report.details["scales"] == {"X->r": "1/2"}


@pytest.mark.parametrize("name, check, word", [
    ("potential_rqhahn", check_potential_rqhahn, "XXY"),
    ("potential_meta", check_potential_meta, "XVV"),
])
def test_potential_catches_an_extra_word(canonical, monkeypatch, name, check, word):
    # one extra word puts a stray word into two derivatives
    good = getattr(algebra, name)
    monkeypatch.setattr(algebra, name, lambda inst: good(inst) + NCPoly.monomial(word))
    report = check(Instance(canonical))
    assert report.status == "fail"
    assert len(report.violations) == 2
    assert all(v["word"] and v["residual"] == "1/1" for v in report.violations)


@pytest.mark.parametrize("check, potential, relations, pairs", [
    (check_potential_rqhahn, "potential_rqhahn", "rqhahn_relation_polys",
     (("Y", "XZ"), ("X", "ZY"), ("Z", "YX"))),
    (check_potential_meta, "potential_meta", "meta_relation_polys",
     (("V", "XZ"), ("X", "ZV"), ("Z", "VX"))),
], ids=["rqhahn", "meta"])
def test_potential_flags_a_zero_relation_and_a_zero_scale(canonical, monkeypatch, check,
                                                          potential, relations, pairs):
    # a relation that is zero in the free algebra fixes no scale, and a zero
    # potential has derivatives of scale 0: neither may pass
    good = getattr(algebra, relations)
    monkeypatch.setattr(algebra, relations, lambda inst: {**good(inst), pairs[0][1]: NCPoly({})})
    monkeypatch.setattr(algebra, potential, lambda inst: NCPoly({}))
    report = check(Instance(canonical))
    assert report.violations == [
        {"generator": pairs[0][0], "relation": pairs[0][1], "residual": "relation is zero"}] + [
        {"generator": gen, "relation": rel, "residual": "zero scale"} for gen, rel in pairs[1:]]


def test_potential_derivative_matches_relation_poly(canonical):
    # one pair spelled out: d(Phi)/dY + the XZ relation = 0 in the free algebra
    inst = Instance(canonical)
    phi = potential_rqhahn(inst)
    rel = rqhahn_relation_polys(inst)["XZ"]
    assert (cyclic_derivative(phi, "Y") + rel).is_zero()


def test_meta_potential_derivative_matches_relation_poly(canonical):
    inst = Instance(canonical)
    psi = potential_meta(inst)
    rel = meta_relation_polys(inst)["XZ"]
    assert (cyclic_derivative(psi, "V") + rel).is_zero()


def test_relation_polys_evaluate_to_zero(canonical):
    inst = Instance(canonical)
    for poly in rqhahn_relation_polys(inst).values():
        assert evaluate_poly(poly, inst) == zero_rows(canonical)
    for poly in meta_relation_polys(inst).values():
        assert evaluate_poly(poly, inst) == zero_rows(canonical)


def test_casimir_poly_has_cubic_leading_terms(canonical):
    inst = Instance(canonical)
    assert casimir_rqhahn(inst).terms[tuple("XYZ")] == 1 - canonical.q
    assert casimir_meta(inst).terms[tuple("XVZ")] == 1 - canonical.q
