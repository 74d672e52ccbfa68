"""Acceptance gate: one test (and one printed verdict line) per criterion.

Every criterion runs over the shipped versioned panel so a green run here
certifies exactly what `qhahn verify` ships with.
"""

import json
from fractions import Fraction as F
from importlib import resources

from qhahn import algebra, brf, gevp, wilson
from qhahn.brf import Instance
from qhahn.cli import _parse_hahn, _parse_qparams, _parse_wilson

from conftest import NORM_REVERSIONS, revert_norm_correction


def _load_panel():
    path = resources.files("qhahn").joinpath("data/default_panel.json")
    return json.loads(path.read_text())


_CONFIG = _load_panel()
INSTANCES = [_parse_qparams(e) for e in _CONFIG["instances"]]
WILSON_INSTANCES = [_parse_wilson(e) for e in _CONFIG["wilson_instances"]]
HAHN_INSTANCES = [_parse_hahn(e) for e in _CONFIG["hahn_instances"]]
LIMITS = _CONFIG["limits"]


def _verdict(num, title, ok):
    print(f"criterion {num:02d} {title}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {title} failed"


def test_c01_gevp_exactness():
    ok = all(gevp.check_gevp(Instance(p)).status == "pass" for p in INSTANCES)
    _verdict(1, "generalized eigenvalue identity exact on the panel", ok)


def test_c02_factorization_in_both_bases():
    ok = all(gevp.check_factorization(Instance(p)).status == "pass" for p in INSTANCES)
    _verdict(2, "Y = X V exact in both bases", ok)


def test_c03_biorthogonality_with_closed_form_norms():
    ok = True
    for p in INSTANCES:
        ok = ok and brf.check_biorthogonality(Instance(p)).status == "pass"
        # check_biorthogonality compares each Gram diagonal with norm_h
        ok = ok and 0 not in brf.norm_h(p)
    _verdict(3, "biorthogonality exact with nonzero closed-form norms", ok)


def test_c04_bispectral_pair_with_negative_controls(monkeypatch):
    ok = True
    for p in INSTANCES:
        inst = Instance(p)
        ok = ok and gevp.check_difference_equation(inst).status == "pass"
        ok = ok and gevp.check_recurrence(inst).status == "pass"
        ok = ok and gevp.check_tridiagonal_actions(inst).status == "pass"
    # a perturbed eigenvalue and a perturbed recurrence entry must be caught
    p = INSTANCES[0]
    with monkeypatch.context() as m:
        eigenvalue = brf.eigenvalue
        m.setattr(brf, "eigenvalue", lambda n, q: eigenvalue(n, q) + (1 if n == 1 else 0))
        ok = ok and gevp.check_gevp(Instance(p)).status == "fail"
    with monkeypatch.context() as m:
        mu_coefficients = gevp.mu_coefficients

        def bumped(n, q):
            mu = list(mu_coefficients(n, q).mu)
            mu[7] += 1 if n == 1 else 0
            return gevp.MuCoefficients(tuple(mu))

        m.setattr(gevp, "mu_coefficients", bumped)
        ok = ok and gevp.check_recurrence(Instance(p)).status == "fail"
    _verdict(4, "difference equation and recurrence exact, tampering detected", ok)


def test_c05_contiguity_under_parameter_shift():
    ok = all(gevp.check_contiguity(Instance(p)).status == "pass" for p in INSTANCES)
    _verdict(5, "contiguity relations exact under A -> qA", ok)


def test_c06_algebra_relations_and_solved_constants():
    ok = True
    solvable = 0
    for p in INSTANCES:
        inst = Instance(p)
        ok = ok and algebra.check_rqhahn_relations(inst).status == "pass"
        ok = ok and algebra.check_meta_relations(inst).status == "pass"
        report = algebra.check_structure_constants(inst)
        ok = ok and report.status in ("pass", "skip")
        if report.status == "pass":
            solvable += 1
    ok = ok and solvable >= 5  # solve-back certified on every full-rank instance
    _verdict(6, "commutation relations exact, constants recovered by solve-back", ok)


def test_c07_casimirs_are_central():
    ok = all(
        check(Instance(p)).status == "pass"
        for p in INSTANCES
        for check in (algebra.check_casimir_rqhahn, algebra.check_casimir_meta)
    )
    _verdict(7, "both Casimir elements commute with all generators", ok)


def test_c08_potentials_generate_relations():
    ok = True
    for p in INSTANCES:
        for check in (algebra.check_potential_rqhahn, algebra.check_potential_meta):
            report = check(Instance(p))
            ok = ok and report.status == "pass"
            ok = ok and set(report.details["scales"].values()) == {"-1/1"}
    _verdict(8, "cyclic-derivative potentials reproduce every relation", ok)


def test_c09_wilson_biorthogonality_and_corrections(monkeypatch):
    ok = all(
        wilson.check_wilson_biorthogonality(wp).status == "pass"
        for wp in WILSON_INSTANCES
    )
    generic = WILSON_INSTANCES[0]
    for knob in NORM_REVERSIONS:
        with monkeypatch.context() as m:
            revert_norm_correction(m, knob)
            reverted = wilson.check_wilson_biorthogonality(generic)
        ok = ok and reverted.status == "fail"
    _verdict(9, "Wilson functions biorthogonal, norm corrections load-bearing", ok)


def test_c10_limit_chains():
    wl = LIMITS["wilson"]
    p = _parse_qparams(wl["instance"])
    report = wilson.wilson_limit_check(p, wl["m_list"], F(wl["qc"]))
    ok = report.status == "pass" and float(report.details["ratio_bound_float"]) < 1
    ok = ok and all(
        wilson.check_hahn_biorthogonality(hp).status == "pass"
        for hp in HAHN_INSTANCES
    )
    qt = LIMITS["qto1"]
    hp = _parse_hahn(qt["instance"])
    qreport = wilson.qto1_convergence_check(hp, [F(h) for h in qt["h_list"]])
    ok = ok and qreport.status == "pass"
    ok = ok and all(0.5 <= o <= 2 for o in qreport.details["orders"])
    _verdict(10, "both limit chains verified (geometric decay, exact and q -> 1)", ok)


def test_c11_weight_involution():
    ok = all(brf.check_weight(Instance(p)).status == "pass" for p in INSTANCES)
    _verdict(11, "weight reflection symmetry exact on the panel", ok)
