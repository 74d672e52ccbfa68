"""The cubic algebras realized by the operator triplet.

Two presentations are verified.  The rational q-Hahn algebra is generated
by (X, Y, Z) with three q-commutator relations whose structure constants
xi_0..xi_8 are explicit rationals in (q, A, B, N); the meta algebra is
generated by (X, V, Z) with constants eta_0..eta_3.  Each algebra carries
a cubic Casimir element (gamma constants) and derives from a potential:
an ordinary polynomial whose cyclic derivatives, which read each word
cyclically, reproduce the defining relations up to one overall scale per
pair.  The relations are checked as exact matrix identities in the grid
realization; independently xi_0..xi_8 are solved back from the matrices
and compared with their closed forms (eta and gamma are not solved back);
the potential claim is checked in the free algebra (NCPoly), not through
matrices, so that it cannot hold by representation-specific accident.

The five relations (XZ is in both algebras) are one table, read once per
`brf.Instance`: as free polynomials in the field of the instance
(`Instance.relations`, read by the potentials) and as integer rows over
Fraction (`Instance.relation_rows`: each left side and word sum, read by
both relation checks and the solve-back).  Each word's matrix is multiplied
out once per instance (`Instance.words`), for the relations and Casimirs
alike.  A Casimir whose matrix is scalar commutes with every generator, so
its commutators are formed only when it is not.  NCPoly stores the
coefficients it is given, so the polynomials live in any field of (q, A, B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import linalg
from .brf import Instance
from .qcore import (
    QHahnError,
    QParams,
    RankDeficient,
    _mul_rows,
    _pair,
    _sub_rows,
    _sum_rows,
    frac_str,
    qnum,
    qpow,
)
from .reports import CheckReport, _flag_worst, _fractions

__all__ = [
    "NCPoly",
    "cyclic_derivative",
    "evaluate_poly",
    "StructureConstants",
    "structure_constants",
    "rqhahn_relation_polys",
    "meta_relation_polys",
    "potential_rqhahn",
    "potential_meta",
    "casimir_rqhahn",
    "casimir_meta",
    "check_rqhahn_relations",
    "check_meta_relations",
    "check_casimir_rqhahn",
    "check_casimir_meta",
    "check_potential_rqhahn",
    "check_potential_meta",
    "solve_structure_constants",
    "check_structure_constants",
]

Word = tuple[str, ...]


class NCPoly:
    """Polynomial in a free associative algebra over the field of its
    coefficients.

    Words are tuples of generator letters; the empty word is the unit.  A
    word given as a str is its tuple of letters.  Coefficients are stored as
    given (Fractions from an instance, ints, or elements of any other field)
    and a zero coefficient is never stored.  A coefficient is added only to
    one that its word already holds, so a word met once keeps its
    coefficient object and costs no addition.  The potentials are NCPolys
    too: `cyclic_derivative` reads each of their words cyclically, so any
    rotation of a word stands for it.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, object] | None = None):
        self.terms = _merge({}, ((tuple(w), c) for w, c in (terms or {}).items() if c != 0))

    @classmethod
    def _normal(cls, terms: dict[Word, object]) -> "NCPoly":
        """The NCPoly of terms already in normal form: tuple words, no zero coefficient."""
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def monomial(cls, letters: str, coeff=1) -> "NCPoly":
        return cls({tuple(letters): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "NCPoly") -> "NCPoly":
        return NCPoly._normal(_merge(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __neg__(self) -> "NCPoly":
        return NCPoly._normal({w: -c for w, c in self.terms.items()})

    def __rmul__(self, coeff) -> "NCPoly":
        return NCPoly({w: coeff * v for w, v in self.terms.items()})


def _merge(terms: dict[Word, object], items) -> dict[Word, object]:
    """terms with each (word, nonzero coeff) of items added in: a word met
    first keeps its coefficient, and a sum that cancels is dropped."""
    for word, coeff in items:
        if word not in terms:
            terms[word] = coeff
        elif (total := terms[word] + coeff) == 0:
            del terms[word]
        else:
            terms[word] = total
    return terms


def cyclic_derivative(phi: NCPoly, gen: str) -> NCPoly:
    """Noncommutative cyclic partial derivative.

    For each occurrence of gen at position s in a word, contribute the word
    read cyclically starting just after s.  Every rotation of a word has the
    same derivative, so phi may store any one of them.
    """
    out: dict[Word, object] = {}
    for word, coeff in phi.terms.items():
        for s, letter in enumerate(word):
            if letter != gen:
                continue
            rest = word[s + 1:] + word[:s]
            out[rest] = out[rest] + coeff if rest in out else coeff
    return NCPoly(out)


def _word_rows(word: Word, inst: Instance) -> list[tuple[dict[int, int], int]]:
    """A word's matrix as integer rows, kept in `inst.words`: its longest
    proper prefix's times its last letter's, multiplied out once per instance."""
    prods = inst.words
    for k, g in enumerate(word, 1):
        if word[:k] not in prods:
            if g not in inst.ops:
                raise QHahnError(f"word {''.join(word)!r}: letter {g!r} is not X, Y, Z or V")
            prods[word[:k]] = _mul_rows(prods[word[:k - 1]], prods[(g,)])
    return prods[word]


def evaluate_poly(poly: NCPoly, inst: Instance) -> list[tuple[dict[int, int], int]]:
    """Evaluate an ordinary polynomial at the instance's point-basis
    matrices `inst.ops`, over Fraction, as rows of `qcore._integer_rows`:
    each row of the sum is one `_sum_rows` of the words' `_word_rows`, and
    no entry becomes a Fraction."""
    words = [_word_rows(w, inst) for w in poly.terms]
    coeffs = [_pair(c) for c in poly.terms.values()]
    return [_sum_rows([(*c, m[i]) for c, m in zip(coeffs, words) if m[i][0]])
            for i in range(inst.p.N + 1)]


@dataclass(frozen=True)
class StructureConstants:
    """xi (rational q-Hahn relations), gamma (Casimir), eta (meta relations)."""

    xi: tuple[Fraction, ...]
    gamma: tuple[Fraction, ...]
    eta: tuple[Fraction, ...]


def structure_constants(p: QParams) -> StructureConstants:
    q = p.q
    xi0 = -qnum(p, 0, -1) * qnum(p, 0, -1, 1)
    xi1 = -qpow(p, -p.N - 1, 0, 1) * qnum(p, 3)
    xi2 = qpow(p, -1) * qnum(p, -p.N, 0, 1)
    xi3 = qnum(p, -p.N - 1, 0, 1) + qpow(p, -p.N, 0, 1)
    xi4 = -qpow(p, -p.N - 1, 0, 1)
    xi5 = (
        qnum(p, 0, -1, 1) + qnum(p, 1, -1, 1)
        + qpow(p, -p.N, 0, 1) * (1 + qnum(p, 0, -1) + qnum(p, -1, -1))
    )
    xi6 = -(1 - q)
    xi7 = qpow(p, -p.N, 0, 1) * qnum(p, -1, -1) - qnum(p, 0, -1) * qnum(p, -p.N, 0, 1)
    xi8 = qpow(p, -1) * qnum(p, -p.N, -1, 1) - qnum(p, 0, -1) * qnum(p, -p.N, 0, 1)

    g1 = -qpow(p, -p.N, 0, 1) - qnum(p, 2 - p.N, 0, 1)
    g2 = qnum(p, 1 - p.N, 0, 1)
    g3 = -qpow(p, -p.N, 0, 1) * qnum(p, 0, -1) - qnum(p, 1, -1, 1) - qpow(p, 1 - p.N, 0, 1)
    g4 = (
        qpow(p, -p.N, 0, 1) + qnum(p, 0, -1, 1) + qnum(p, 1, -1, 1)
        + qnum(p, 0, -1) * qnum(p, 1 - p.N, 0, 1)
    )
    g5 = (
        qnum(p, 1, -1, 1) + qpow(p, -p.N, 0, 1) * qnum(p, 0, -1)
        + qnum(p, 0, -1) * qnum(p, 0, -1, 1)
    )

    e0 = qnum(p, 0, -1) * qnum(p, -p.N, 0, 1) + qpow(p, -1) * qnum(p, 1, -1, 1)
    e1 = qnum(p, 1 - p.N, 0, 1)
    # eta_2 sign: the grid realization forces the X coefficient of the third
    # meta relation to be -q^{beta-N}[2]_q, and the potential's [X^2] term
    # must then carry -eta_2/2; both displayed formulas hold exactly iff
    # eta_2 = +q^{beta-N}[2]_q.
    e2 = qpow(p, -p.N, 0, 1) * qnum(p, 2)
    e3 = qnum(p, 1, -1, 1) + qpow(p, -p.N, 0, 1) * qnum(p, 0, -1)

    return StructureConstants(
        xi=(xi0, xi1, xi2, xi3, xi4, xi5, xi6, xi7, xi8),
        gamma=(g1, g2, g3, g4, g5),
        eta=(e0, e1, e2, e3),
    )


# The relations of both algebras, keyed by ab for ab - q ba = right-hand
# side: XZ, ZY and YX generate the rational q-Hahn algebra, XZ, VX and ZV the
# meta one.  Each right-hand term is (key, words): the coefficient of the key
# (`_coefficients`) times the sum of the words.  The relation polynomials,
# the matrix checks and the solve-back all read this table.
_RQHAHN_RELATIONS = {
    "XZ": [(None, ("ZZ",)), (None, ("Z",)), (6, ("X",))],
    "ZY": [(1, ("XX",)), (3, ("XZ", "ZX")), (4, ("ZZ",)), (5, ("X",)), (6, ("Y",)),
           (7, ("Z",)), (0, ("",))],
    "YX": [(3, ("XX",)), (4, ("XZ", "ZX")), (None, ("YZ", "ZY")), (2, ("ZZ",)), (7, ("X",)),
           (None, ("Y",)), (8, ("Z",)), (0, ("",))],
    "VX": [(None, ("VZ", "ZV")), ("eta1", ("X",)), (None, ("V",)), ("-eta1/q", ("Z",)),
           ("-eta0", ("",))],
    "ZV": [("-eta2", ("X",)), ("q-1", ("V",)), ("eta1", ("Z",)), ("eta3", ("",))],
}
_RQHAHN, _META = ("XZ", "ZY", "YX"), ("XZ", "VX", "ZV")


def _coefficients(inst: Instance) -> dict:
    """The value at inst of each coefficient key of the relation table: None
    is the fixed -1, an int i is xi_i, and a str spells a meta coefficient."""
    (e0, e1, e2, e3), q = inst.constants.eta, inst.p.q
    return {None: -1, **dict(enumerate(inst.constants.xi)), "eta1": e1, "-eta1/q": -e1 / q,
            "-eta0": -e0, "-eta2": -e2, "q-1": q - 1, "eta3": e3}


def _relation_polys(inst: Instance) -> dict[str, NCPoly]:
    """Left-minus-right of every relation of the table as a free polynomial,
    in the field of the instance; `Instance.relations` keeps them."""
    c, q = _coefficients(inst), inst.p.q
    return {name: sum((NCPoly(dict.fromkeys(words, -c[key])) for key, words in terms),
                      NCPoly({name: 1, name[::-1]: -q}))
            for name, terms in _RQHAHN_RELATIONS.items()}


def _relation_rows(inst: Instance) -> dict[str, list[tuple[int, int, list]]]:
    """Every relation of the table as the `_sum_rows` terms (n, d, rows) of
    left minus right side: ab - q ba, then each right-hand word sum times
    minus its coefficient.  A single word is its `_word_rows`; a sum of words
    is evaluated once for all relations; `Instance.relation_rows` keeps them."""
    c, q = _coefficients(inst), inst.p.q
    sums = {words: (_word_rows(tuple(words[0]), inst) if len(words) == 1
                    else evaluate_poly(NCPoly(dict.fromkeys(words, 1)), inst))
            for words in dict.fromkeys(w for terms in _RQHAHN_RELATIONS.values() for _, w in terms)}
    return {name: [(1, 1, evaluate_poly(NCPoly({name: 1, name[::-1]: -q}), inst)),
                   *((*_pair(-c[key]), sums[words]) for key, words in terms)]
            for name, terms in _RQHAHN_RELATIONS.items()}


def rqhahn_relation_polys(inst: Instance) -> dict[str, NCPoly]:
    """Left-minus-right of the three rational q-Hahn relations, as free polynomials."""
    return {name: inst.relations[name] for name in _RQHAHN}


def meta_relation_polys(inst: Instance) -> dict[str, NCPoly]:
    """Left-minus-right of the three meta algebra relations (generators X, V, Z);
    the XZ relation is the rational q-Hahn one."""
    return {name: inst.relations[name] for name in _META}


def potential_rqhahn(inst: Instance) -> NCPoly:
    xi, q = inst.constants.xi, inst.p.q
    return NCPoly({"XYZ": q, "YXZ": -1, "XXX": xi[1] / 3, "ZZZ": xi[2] / 3, "XXZ": xi[3],
                   "XZZ": xi[4], "YZZ": -1, "XX": xi[5] / 2, "XY": xi[6], "XZ": xi[7], "YZ": -1,
                   "ZZ": xi[8] / 2, "X": xi[0], "Z": xi[0]})


def potential_meta(inst: Instance) -> NCPoly:
    eta, q = inst.constants.eta, inst.p.q
    # [Z] carries -eta_0: the derivative in Z must reproduce the second
    # relation, whose constant term is pinned by the grid realization, and
    # the word-level solve returns -eta_0 uniquely (all other coefficients
    # land on their displayed values).
    return NCPoly({"XVZ": q, "VXZ": -1, "VZZ": -1, "XV": q - 1, "VZ": -1, "XZ": eta[1],
                   "ZZ": -(eta[1] / (2 * q)), "XX": -(eta[2] / 2), "Z": -eta[0], "X": eta[3]})


def casimir_rqhahn(inst: Instance) -> NCPoly:
    """Cubic Casimir element of the rational q-Hahn algebra on (X, Y, Z)."""
    p, g = inst.p, inst.constants.gamma
    q = p.q
    return NCPoly({"XYZ": 1 - q, "XXX": qpow(p, 1 - p.N, 0, 1), "XXZ": g[0], "XZZ": g[1],
                   "YZZ": q, "XX": g[2], "XY": 1 - q, "XZ": g[3], "YZ": 2 * q - 1, "X": g[4],
                   "Y": q - 1})


def casimir_meta(inst: Instance) -> NCPoly:
    """Cubic Casimir element of the meta algebra on (X, V, Z)."""
    p, g, eta = inst.p, inst.constants.gamma, inst.constants.eta
    q = p.q
    return NCPoly({"XVZ": 1 - q, "VZZ": q, "XX": qpow(p, 1 - p.N, 0, 1), "XV": 1 - q,
                   "XZ": g[0], "VZ": 2 * q - 1, "ZZ": eta[1], "X": g[2], "V": q - 1, "Z": g[3]})


def _relation_report(check: str, inst: Instance, names: tuple[str, ...]) -> CheckReport:
    """Each named relation's residual from the `relation_rows` the checks
    share, one `_sum_rows` per row."""
    report = CheckReport(check=check, params=inst.p.as_dict())
    norms = {}
    for name in names:
        terms = inst.relation_rows[name]
        resid = [_sum_rows([(n, d, m[i]) for n, d, m in terms]) for i in range(inst.p.N + 1)]
        norms[name] = _flag_worst(report, _fractions(resid), relation=name)
    report.details["residual_norms"] = norms
    return report


def check_rqhahn_relations(inst: Instance) -> CheckReport:
    """The three rational q-Hahn relations as exact matrix identities."""
    return _relation_report("rqhahn_relations", inst, _RQHAHN)


def check_meta_relations(inst: Instance) -> CheckReport:
    """The three meta algebra relations as exact matrix identities."""
    return _relation_report("meta_relations", inst, _META)


def _casimir_report(check: str, inst: Instance, casimir: NCPoly,
                    generators: str) -> tuple[CheckReport, list]:
    """Report on the Casimir's matrix in the grid realization, with a
    violation for each generator a matrix that is not scalar fails to commute
    with; the claim about its value is the caller's.  Returns the report and
    the matrix as `evaluate_poly` rows."""
    report = CheckReport(check=check, params=inst.p.as_dict())
    q_rows = evaluate_poly(casimir, inst)
    diag = [Fraction(row.get(i, 0), e) for i, (row, e) in enumerate(q_rows)]
    report.details["diagonal"] = [frac_str(v) for v in diag]
    report.details["is_scalar"] = scalar = len(set(diag)) == 1 and all(
        row.keys() <= {i} for i, (row, _) in enumerate(q_rows))
    if not scalar:  # a scalar matrix commutes with every generator
        for g in generators:
            left, right = _mul_rows(q_rows, inst.op_rows[g]), _mul_rows(inst.op_rows[g], q_rows)
            if left != right:
                _flag_worst(report, _fractions(_sub_rows(left, right)), generator=g)
    return report, q_rows


def check_casimir_rqhahn(inst: Instance) -> CheckReport:
    """The rational q-Hahn Casimir commutes with X, Y and Z and is the zero
    matrix: the grid realization sits on its zero surface."""
    report, q_rows = _casimir_report("casimir_rqhahn", inst, casimir_rqhahn(inst), "XYZ")
    if any(row for row, _ in q_rows):
        _flag_worst(report, _fractions(q_rows), claim="zero")
    return report


def _casimir_meta_value(p: QParams):
    """The scalar the meta Casimir takes in the grid realization,
    q^{-N-alpha+beta} [alpha]_q - [-alpha]_q [beta-alpha]_q - [1-alpha+beta]_q."""
    return (qpow(p, -p.N, -1, 1) * qnum(p, 0, 1) - qnum(p, 0, -1) * qnum(p, 0, -1, 1)
            - qnum(p, 1, -1, 1))


def check_casimir_meta(inst: Instance) -> CheckReport:
    """The meta Casimir commutes with X, V and Z and is a scalar matrix, the
    scalar `_casimir_meta_value`; the diagonal is recorded."""
    report, q_rows = _casimir_report("casimir_meta", inst, casimir_meta(inst), "XVZ")
    gap = Fraction(q_rows[0][0].get(0, 0), q_rows[0][1]) - _casimir_meta_value(inst.p)
    if not report.details["is_scalar"]:
        report.add_violation(claim="scalar", residual="not a scalar matrix")
    elif gap:
        report.add_violation(claim="value", residual=frac_str(abs(gap)))
    return report


def _potential_report(check: str, inst: Instance, phi: NCPoly, rels: dict[str, NCPoly],
                      pairs: tuple[tuple[str, str], ...]) -> CheckReport:
    """Cyclic derivatives of the potential reproduce the relations.

    For each (generator, relation) pair the unique scale c with
    d(Phi)/d(gen) = c * (relation left-minus-right) is determined from the
    least word and then every coefficient is compared exactly; c must be
    a nonzero constant.  c is computed in the instance's field, so that two
    int coefficients never divide into a float.
    """
    report = CheckReport(check=check, params=inst.p.as_dict())
    one = inst.p.q**0
    scales = {}
    for gen, rel_name in pairs:
        deriv = cyclic_derivative(phi, gen)
        rel = rels[rel_name]
        if rel.is_zero():
            report.add_violation(generator=gen, relation=rel_name, residual="relation is zero")
            continue
        ref_word = min(rel.terms)
        c = one * deriv.terms.get(ref_word, 0) / rel.terms[ref_word]
        if c == 0:
            report.add_violation(generator=gen, relation=rel_name, residual="zero scale")
            continue
        diff = deriv - c * rel
        if not diff.is_zero():
            word, coeff = sorted(diff.terms.items())[0]
            report.add_violation(
                generator=gen, relation=rel_name,
                word="".join(word) or "1", residual=frac_str(coeff),
            )
            continue
        scales[f"{gen}->{rel_name}"] = frac_str(c)
    report.details["scales"] = scales
    return report


def check_potential_rqhahn(inst: Instance) -> CheckReport:
    """The derivatives of the rational q-Hahn potential in Y, X and Z give
    the XZ, ZY and YX relations."""
    return _potential_report("potential_rqhahn", inst, potential_rqhahn(inst),
                             rqhahn_relation_polys(inst), (("Y", "XZ"), ("X", "ZY"), ("Z", "YX")))


def check_potential_meta(inst: Instance) -> CheckReport:
    """The derivatives of the meta potential in V, X and Z give the XZ, ZV
    and VX relations."""
    return _potential_report("potential_meta", inst, potential_meta(inst),
                             meta_relation_polys(inst), (("V", "XZ"), ("X", "ZV"), ("Z", "VX")))


def _solve_relation(lhs: list, ansatz: list[list], what: str) -> list[Fraction]:
    """The unique coefficients c with lhs = sum_k c_k ansatz_k, all `evaluate_poly`
    rows; a dependent ansatz is a RankDeficient naming `what`.

    Each entry (i, j) that lhs or an ansatz member touches is one equation,
    on integers: scaled by the lcm of row i's denominators.  An entry none
    of them touches is 0 = 0, so it is never formed.
    """
    a, b = [], []
    for i, (row, e) in enumerate(lhs):
        members = [m[i] for m in ansatz]
        lcm = math.lcm(e, *(f for _, f in members))
        scaled = [(r, lcm // f) for r, f in members]
        for j in sorted(set(row).union(*(r for r, _ in members))):
            a.append([r.get(j, 0) * s for r, s in scaled])
            b.append(row.get(j, 0) * (lcm // e))
    try:  # columns of the system are the ansatz members
        return linalg.solve_unique(a, b)
    except RankDeficient:
        raise RankDeficient(f"ansatz for {what} is linearly dependent at this instance") from None


def solve_structure_constants(inst: Instance) -> tuple[Fraction, ...]:
    """Recover xi_0..xi_8 from the matrices alone, by exact solves.

    Each xi relation's `relation_rows` give its left side and ansatz, and
    every coefficient of its table row is unknown, the fixed -1s too (the
    Z^2, Z coefficients of the first relation and the {Y,Z}, Y coefficients
    of the third): their solved values must be -1, which guards the relation
    shape itself, and a xi solved in two relations must take one value.  The
    gamma and eta constants are not solved for.
    """
    xi: dict[int, Fraction] = {}
    solved_in: dict[int, str] = {}
    for name in _RQHAHN:
        lhs, *ansatz = (m for *_, m in inst.relation_rows[name])
        sol = _solve_relation(lhs, ansatz, f"relation {name}")
        for (i, _), value in zip(_RQHAHN_RELATIONS[name], sol):
            if i is None:
                if value != -1:
                    raise QHahnError(f"relation {name} solved with unexpected fixed coefficients")
            elif i not in xi:
                xi[i], solved_in[i] = value, name
            elif xi[i] != value:
                raise QHahnError(f"xi_{i} disagrees between the {solved_in[i]} and {name} solves")
    return tuple(xi[i] for i in range(9))


def check_structure_constants(inst: Instance) -> CheckReport:
    """Solved-back xi constants agree with their closed forms.

    A rank-deficient ansatz (small N) marks the instance skipped rather
    than failed.  A solve-back that fails otherwise (an inconsistent
    system, a fixed coefficient solved to a value other than -1, a xi
    solved to two values) is one violation carrying the exception class as
    its kind and its message.  Any disagreement with a closed form is
    reported as a DISCREPANCY carrying both values.
    """
    report = CheckReport(check="structure_constants", params=inst.p.as_dict())
    try:
        solved = solve_structure_constants(inst)
    except RankDeficient as exc:
        report.skipped = str(exc)
        return report
    except QHahnError as exc:
        report.add_violation(kind=type(exc).__name__, message=str(exc))
        return report
    closed = inst.constants.xi
    for i in range(9):
        if solved[i] != closed[i]:
            report.add_violation(
                constant=f"xi_{i}", kind="DISCREPANCY",
                solved=frac_str(solved[i]), closed_form=frac_str(closed[i]),
            )
    report.details["xi"] = [frac_str(v) for v in solved]
    return report
