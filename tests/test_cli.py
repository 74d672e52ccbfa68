import csv
import hashlib
import importlib.util
import inspect
import io
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from functools import cached_property
from importlib import resources

import pytest

from qhahn import algebra, brf, cli, gevp, linalg, qcore
from qhahn.algebra import NCPoly
from qhahn.brf import Instance, brf_u, weight_vector
from qhahn.operators import Basis, Operator, build_operator
from qhahn.qcore import QParams
from qhahn.reports import CheckReport

from conftest import CANONICAL, ROOT, perfbench_workloads, tridiagonal_null_space


def default_panel_path():
    return str(resources.files("qhahn").joinpath("data/default_panel.json"))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


MINIMAL = {
    "instances": [{"q": "1/2", "A": "32", "B": "1/512", "N": 3}],
}


QHAHN_CHECKS = {
    "algebra": ["rqhahn_relations", "meta_relations", "structure_constants"],
    "biortho": ["weight", "biorthogonality", "partner", "partial_fractions"],
    "casimir": ["casimir_rqhahn", "casimir_meta"],
    "gevp": ["gevp", "factorization", "difference_equation", "recurrence",
             "tridiagonal_actions", "contiguity"],
    "potential": ["potential_rqhahn", "potential_meta"],
}
QHAHN_SUITES = sorted(QHAHN_CHECKS)


def run_suite(name, config):
    """One suite alone, on entries parsed for it: every Instance is fresh."""
    return cli.SUITES[name](config, {}, cli._instance_entries(config))


def test_default_panel_runs_clean(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--config", default_panel_path(), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["fail"] == 0
    assert report["summary"]["pass"] > 0
    assert set(report["suites"]) == set(cli.SUITES)
    assert report["artifact"]["name"] == "qhahn"
    assert len(report["config_sha256"]) == 64
    # the report contract: everything but timing is pinned byte for byte
    report.pop("timing")
    digest = hashlib.sha256((json.dumps(report, sort_keys=True) + "\n").encode()).hexdigest()
    assert digest == "6ffc191b0a3e094d7e675acc6469a9b163dba78752a4bf7d63d7e7df17a0925f"


@pytest.mark.parametrize("workload", ["large_n", "wilson"])
def test_seeded_workloads_match_the_reference_digests(workload, tmp_path):
    # the benchmark's seeded configs at its default seed, built by the unedited
    # perfbench/workloads.py: their reports, timing aside, are pinned there too
    workloads = perfbench_workloads()
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    config = workloads.make_config(workload, reference["default_seed"], ROOT / "src")
    config_path, out = tmp_path / "config.json", tmp_path / "report.json"
    config_path.write_bytes(workloads.config_bytes(workload, config, ROOT / "src"))
    cli.run_verify(str(config_path), None, str(out))
    report = json.loads(out.read_text())
    assert report["summary"]["fail"] == 0
    report.pop("timing")
    digest = hashlib.sha256((json.dumps(report, sort_keys=True) + "\n").encode()).hexdigest()
    assert digest == reference["digests"][workload]


def test_single_suite_single_instance(tmp_path):
    config = write_config(tmp_path, MINIMAL)
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--config", config, "--suite", "gevp", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert list(report["suites"]) == ["gevp"]
    assert all(r["status"] == "pass" for r in report["suites"]["gevp"])


def test_invalid_instance_is_skipped_not_dropped(tmp_path):
    config = write_config(tmp_path, {
        "instances": [
            {"q": "1/2", "A": "1", "B": "1/512", "N": 3},
            {"q": "1/2", "A": "32", "B": "1/512", "N": 3},
        ],
    })
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--config", config, "--suite", "biortho", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    statuses = [r["status"] for r in report["suites"]["biortho"]]
    assert "skip" in statuses and "pass" in statuses and "fail" not in statuses
    skipped = [r for r in report["suites"]["biortho"] if r["status"] == "skip"]
    assert all("pole" in r["reason"] for r in skipped)


def test_contiguity_shift_onto_pole_is_a_skip_not_an_abort(tmp_path):
    # A = 8 = q^-3 is valid at N = 3, but the shift A -> qA = q^-2 lands on
    # a basis pole; only the contiguity check is affected
    config = write_config(tmp_path, {
        "instances": [{"q": "1/2", "A": "8", "B": "1/512", "N": 3}],
    })
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--config", config, "--suite", "gevp", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())["suites"]["gevp"]
    status = {r["check"]: r["status"] for r in reports}
    assert len(reports) == 6
    assert status.pop("contiguity") == "skip"
    assert list(status.values()) == ["pass"] * 5
    skipped = next(r for r in reports if r["check"] == "contiguity")
    assert "basis_pole" in skipped["reason"]


def test_guard_skips_are_named_as_the_reports(tmp_path):
    # A = 1 puts a basis pole on the grid: every gevp check of that instance
    # is a skip, named as the same check's report on a valid instance
    config = write_config(tmp_path, {
        "instances": [
            {"q": "1/2", "A": "1", "B": "1/512", "N": 3},
            {"q": "1/2", "A": "32", "B": "1/512", "N": 3},
        ],
    })
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--config", config, "--suite", "gevp", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())["suites"]["gevp"]
    skipped = [r["check"] for r in reports if r["status"] == "skip"]
    passed = [r["check"] for r in reports if r["status"] == "pass"]
    assert len(skipped) == 6
    assert skipped == passed


def test_unit_a_at_grid_size_zero_is_six_gevp_skips(tmp_path):
    # A = 1 = q^0 zeroes X's only diagonal entry [0 - alpha]_q; the guard
    # flags it instead of the factorization and contiguity checks raising
    entry = {"q": "1/2", "A": "1", "B": "-8", "N": 0}
    config = write_config(tmp_path, {"instances": [entry]})
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--config", config, "--suite", "gevp", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())["suites"]["gevp"]
    assert [r["status"] for r in reports] == ["skip"] * 6
    assert all(r["reason"] == "basis_pole: A = q^0 with 0 in [0, 0]" for r in reports)


def test_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    # perfbench/tracing.py wraps library names from outside the package; a
    # refactor that moves one fails here with MissingTarget.  It finds a
    # q-Hahn suite's checks in the list the suite's closure holds, and so
    # does perfbench/workloads.check_count.
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    checks = {name: [c.__name__.removeprefix("check_")
                     for c in tracing.suite_checks(cli.SUITES[name])] for name in QHAHN_SUITES}
    assert checks == QHAHN_CHECKS
    config = write_config(tmp_path, MINIMAL)
    tracer = tracing.Tracer()
    with tracer.patch():
        assert cli.run_verify(config, QHAHN_SUITES, str(tmp_path / "report.json")) == 0
    tracer.summary()  # raises MissingTarget for a check that ran untraced
    assert {span[0] for span in tracer.spans} >= (
        {"check." + c for names in checks.values() for c in names}
        | {"cli.suite." + name for name in QHAHN_SUITES}
        | {"brf.brf_family", "algebra.structure_constants", "algebra.evaluate_poly",
           "linalg.solve_unique", "operators.build_operator", "qcore.validate_params"})


def test_qparams_checks_are_plain_functions_named_after_their_reports():
    # guard skips and outside instrumentation both name a check by __name__;
    # the q-Hahn suites hold their checks in a list in the suite's closure
    inst = Instance(CANONICAL)
    checks = [check for suite in cli.SUITES.values() for cell in suite.__closure__ or ()
              if isinstance(cell.cell_contents, list) for check in cell.cell_contents]
    assert len(checks) == 17
    for check in checks:
        assert inspect.isfunction(check)
        assert check.__name__ == "check_" + check(inst).check


def test_gevp_suite_builds_each_shared_object_once(monkeypatch):
    calls = []

    def counting(kind, fn):
        def wrapper(*args, **kwargs):
            calls.append((kind, args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(brf, "brf_family", counting("family", brf.brf_family))
    monkeypatch.setattr(gevp, "mu_coefficients", counting("mu", gevp.mu_coefficients))
    monkeypatch.setattr(brf, "validate_params", counting("guard", brf.validate_params))
    built = counting("operator", build_operator)
    for module in (brf, gevp):
        monkeypatch.setattr(module, "build_operator", built)
    rows = cached_property(counting("op_rows", Instance.op_rows.func))
    rows.__set_name__(Instance, "op_rows")
    monkeypatch.setattr(Instance, "op_rows", rows)
    reports = run_suite("gevp", MINIMAL)
    assert [r["status"] for r in reports] == ["pass"] * 6
    p = CANONICAL
    shifted = QParams(p.q, p.q * p.A, p.B, p.N)
    assert [args for kind, args in calls if kind == "family"] == [(p,), (shifted,)]
    # one guard per instance: the CLI's of the base, which contiguity reads, then the shift's
    assert [args for kind, args in calls if kind == "guard"] == [(p, p.N), (shifted, p.N)]
    operators = Counter(args for kind, args in calls if kind == "operator")
    assert operators == Counter([(op, Basis.POINT, p) for op in Operator]
                                + [(Operator(g), Basis.PHI, p) for g in "XYV"])
    # the integer rows of the operators at the base; the families are rows already
    assert [(kind, args[0].p) for kind, args in calls if kind.endswith("_rows")] == [
        ("op_rows", p)]
    # one mu table, shared by the recurrence and the tridiagonal actions
    assert [args for kind, args in calls if kind == "mu"] == [(n, p) for n in range(p.N + 1)]


def test_biortho_suite_builds_the_partner_rows_and_the_basis_grid_once(monkeypatch):
    # the Gram and check_partner share Instance.partner_rows, and every n's
    # partial_fraction reads the one basis grid of the instance's QParams
    calls = []
    for cls, name in ((Instance, "partner_rows"), (QParams, "_basis_grid")):
        good = vars(cls)[name].func
        rows = cached_property(lambda self, name=name, good=good: (
            calls.append((name, getattr(self, "p", self))) or good(self)))
        rows.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, rows)
    good = brf.partial_fraction
    monkeypatch.setattr(brf, "partial_fraction", lambda coeffs, row, p: (
        calls.append(("partial_fraction", p, len(coeffs) - 1)) or good(coeffs, row, p)))
    config = {"instances": MINIMAL["instances"] + [{"q": "1/2", "A": "-5", "B": "1/7", "N": 6}]}
    reports = run_suite("biortho", config)
    assert [r["status"] for r in reports] == ["pass"] * 8
    instances = [CANONICAL, QParams(F(1, 2), F(-5), F(1, 7), 6)]
    assert Counter(calls) == Counter(
        [(name, p) for p in instances for name in ("partner_rows", "_basis_grid")]
        + [("partial_fraction", p, n) for p in instances for n in range(p.N + 1)])


def test_gevp_suite_forms_each_image_and_expansion_once(monkeypatch):
    # the five banded checks compare rows of Instance.images and
    # Instance.expansions: X U_n, Y U_n, Z U_n and their mu expansions are
    # formed once per (operator, n), from one mu table, and only at the base
    # instance (contiguity reads the shifted family alone)
    calls = []
    for module, name in ((brf, "_apply"), (gevp, "_three_term"), (gevp, "mu_coefficients")):
        good = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, name=name, good=good: (
            calls.append((name, args)) or good(*args)))
    entries = cli._instance_entries(MINIMAL)
    reports = cli.SUITES["gevp"](MINIMAL, {}, entries)
    assert [r["status"] for r in reports] == ["pass"] * 6
    made = list(calls)
    inst = entries[0][2]
    p, rows = inst.p, inst.family.rows
    letter = {id(m): g for g, m in inst.op_rows.items()}
    index = {id(c): n for n, (c, _) in enumerate(rows)}
    applied = [(letter[id(args[0])], index[id(args[1])]) for kind, args in made if kind == "_apply"]
    assert Counter(applied) == Counter((g, n) for g in "XYZ" for n in range(p.N + 1))
    mus = [gevp.mu_coefficients(n, p).mu for n in range(p.N + 1)]
    expanded = [args for kind, args in made if kind == "_three_term"]
    assert Counter((tuple(mu3), n) for mu3, n, *_ in expanded) == Counter(
        (mu[i:i + 3], n) for n, mu in enumerate(mus) for i in (0, 3, 6))
    assert all(family is rows for _, _, family, _ in expanded)
    assert [args for kind, args in made if kind == "mu_coefficients"] == [
        (n, p) for n in range(p.N + 1)]


@pytest.mark.parametrize("suite", ["algebra", "casimir", "potential"])
def test_algebra_suites_build_the_structure_constants_once(monkeypatch, suite):
    # every builder of the suite reads the one `Instance.constants`
    calls = []
    good = algebra.structure_constants
    monkeypatch.setattr(algebra, "structure_constants", lambda p: calls.append(p) or good(p))
    reports = run_suite(suite, MINIMAL)
    assert {r["status"] for r in reports} == {"pass"}
    assert calls == [CANONICAL]


def test_one_verify_run_builds_each_object_once_per_entry(tmp_path, monkeypatch):
    # the five q-Hahn suites of one run share one Instance per entry
    calls = []

    def counting(name, fn, key=lambda *args: args):
        def wrapper(*args):
            calls.append((name, sys._getframe(1).f_code.co_name, key(*args)))
            return fn(*args)
        return wrapper

    for fn in (brf.brf_family, algebra.structure_constants, build_operator, qcore._mul_rows):
        wrapper = counting(fn.__name__, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("qhahn") and getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, wrapper)
    members = cached_property(counting("members", brf.BRFFamily.members.func))
    members.__set_name__(brf.BRFFamily, "members")
    monkeypatch.setattr(brf.BRFFamily, "members", members)
    monkeypatch.setattr(brf, "GridVector", counting("GridVector", brf.GridVector))
    monkeypatch.setattr(algebra, "evaluate_poly", counting(
        "evaluate_poly", algebra.evaluate_poly,
        lambda poly, inst: (inst.p, frozenset(poly.terms.items()))))
    monkeypatch.setattr(algebra, "_relation_polys", counting(
        "relation_polys", algebra._relation_polys, lambda inst: inst.p))
    entries = MINIMAL["instances"] + [{"q": "1/2", "A": "-5", "B": "1/7", "N": 6}]
    out = tmp_path / "report.json"
    assert cli.run_verify(write_config(tmp_path, {"instances": entries}), QHAHN_SUITES,
                          str(out)) == 0
    assert json.loads(out.read_text())["summary"] == {"pass": 34, "fail": 0, "skip": 0}
    made = list(calls)
    ps = [cli._parse_qparams(entry) for entry in entries]

    def made_by(name):
        return Counter(args for kind, _, args in made if kind == name)

    # one family per entry, and one at the shifted instance of check_contiguity
    assert made_by("brf_family") == Counter(
        [(p,) for p in ps] + [(QParams(p.q, p.q * p.A, p.B, p.N),) for p in ps])
    assert made_by("structure_constants") == Counter((p,) for p in ps)
    # the checks read both families as integer rows: no family or partner
    # values are formed, and the weights, of p and of the reflected instance
    # in check_weight, are the only grid vectors built
    assert made_by("members") == Counter()
    assert Counter(args[1] for args in made_by("GridVector").elements()) == Counter(
        [p for p in ps] + [brf.reflected_params(p) for p in ps])
    # the point-basis X, Y, Z, V of each entry, and the phi-basis X, Y, V of
    # check_factorization
    assert made_by("build_operator") == Counter(
        [(op, Basis.POINT, p) for p in ps for op in Operator]
        + [(Operator(g), Basis.PHI, p) for p in ps for g in "XYV"])
    # each word prefix is multiplied out once per entry, as integer rows
    # (the entries' sizes tell them apart)
    expected = Counter()
    for p in ps:
        inst = Instance(p)
        polys = [*inst.relations.values(), algebra.casimir_rqhahn(inst), algebra.casimir_meta(inst)]
        expected[p.N + 1] = len({word[:k] for poly in polys for word in poly.terms
                                 for k in range(2, len(word) + 1)})
    assert Counter(len(args[0]) for kind, caller, args in made
                   if kind == "_mul_rows" and caller == "_word_rows") == expected
    # both Casimirs are scalar matrices here, so no commutator is formed
    assert not any(kind == "_mul_rows" and caller == "_casimir_report" for kind, caller, _ in made)
    # each relation's left side, each sum of two or more words and each
    # Casimir is evaluated once per entry; a single word is read from its
    # word products, and the relation polynomials are built once per entry
    table = algebra._RQHAHN_RELATIONS
    expected = Counter()
    for p in ps:
        inst = Instance(p)
        polys = [NCPoly({name: 1, name[::-1]: -p.q}) for name in table]
        polys += [NCPoly(dict.fromkeys(words, 1))
                  for words in {w for terms in table.values() for _, w in terms if len(w) > 1}]
        polys += [algebra.casimir_rqhahn(inst), algebra.casimir_meta(inst)]
        expected.update((p, frozenset(poly.terms.items())) for poly in polys)
    assert Counter(args for kind, _, args in made if kind == "evaluate_poly") == expected
    assert made_by("relation_polys") == Counter(ps)


def each_check_on_its_own_instance(name, instances):
    """The reports of suite `name` with every check of every entry run on an
    Instance of its own, built for that check alone."""
    checks = next(cell.cell_contents for cell in cli.SUITES[name].__closure__
                  if isinstance(cell.cell_contents, list))
    return [report for entry in instances for check in checks
            for report in cli._qparams_suite([check])(
                {}, {}, cli._instance_entries({"instances": [entry]}))]


@pytest.mark.parametrize("instances", [
    json.loads(pathlib.Path(default_panel_path()).read_text())["instances"],
    [{"q": "1/2", "A": "-5", "B": "1/7", "N": 16}],
], ids=["panel", "generic-n16"])
def test_shared_instances_report_what_fresh_ones_do(tmp_path, instances):
    # a check that mutates an object its Instance caches (images, op_rows,
    # the word products, ...) changes what a later check of the run
    # reads, in its own suite or another; run alone, no check reads a
    # neighbour's leftovers
    out = tmp_path / "report.json"
    cli.run_verify(write_config(tmp_path, {"instances": instances}), QHAHN_SUITES, str(out))
    shared = json.loads(out.read_text())["suites"]
    fresh = {name: each_check_on_its_own_instance(name, instances) for name in QHAHN_SUITES}
    assert json.loads(json.dumps(fresh)) == shared


@pytest.mark.parametrize("instances, message", [
    ("not a list", "instances must be a list, got 'not a list'"),
    ([{"A": "3", "B": "1/5", "N": 2}],
     "instance needs keys q, A, B, N: {'A': '3', 'B': '1/5', 'N': 2}"),
], ids=["not-a-list", "no-q"])
def test_malformed_instances_fail_only_a_run_that_reads_them(tmp_path, capsys,
                                                             instances, message):
    # only the q-Hahn suites read `instances`: without one of them a malformed
    # section is never parsed, and with one the run is a config error
    wilson_entry = {"q": "1/2", "qa": "3", "qc": "5", "qd": "7", "qe": "11", "N": 2}
    config = write_config(tmp_path, {"instances": instances, "wilson_instances": [wilson_entry]})
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--config", config, "--suite", "wilson", "hahn", "limits",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"] == {"pass": 1, "fail": 0, "skip": 0}
    assert capsys.readouterr().err == ""
    assert cli.main(["verify", "--config", config, "--suite", "hahn", "potential"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_gevp_suite_passes_on_a_generic_instance_at_n16():
    # multi-word family values, which the panel's N <= 8 never reaches here
    generic = {"instances": [{"q": "1/2", "A": "-5", "B": "1/7", "N": 16}]}
    reports = run_suite("gevp", generic)
    assert [(r["check"], r["status"]) for r in reports] == [
        (check, "pass") for check in ("gevp", "factorization", "difference_equation",
                                      "recurrence", "tridiagonal_actions", "contiguity")]


def test_biortho_suite_takes_the_structured_kernels(monkeypatch):
    # on a generic instance the family, the partner kernels and the partial
    # fractions come from the factored series, the three-term recurrence and
    # the phi-coefficients: no dense elimination and no generic series
    calls = Counter()
    for module, name in ((linalg, "null_space"), (linalg, "solve_unique"),
                         (qcore, "phi_series")):
        fn = getattr(module, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("qhahn") and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting)
    generic = {"instances": [{"q": "1/2", "A": "-5", "B": "1/7", "N": 6}]}
    reports = run_suite("biortho", generic)
    assert [r["status"] for r in reports] == ["pass"] * 4
    assert calls == Counter()
    # the counters are live: a pencil with a zero superdiagonal entry falls back
    tridiagonal_null_space([[F(0), F(0)], [F(1), F(0)]])
    assert calls == Counter({"null_space": 1})


def test_invalid_wilson_and_hahn_entries_are_skips_carrying_the_entry(tmp_path):
    wilson_entry = {"q": "1/2", "qa": "1", "qc": "5", "qd": "7", "qe": "11", "N": 2}
    hahn_entry = {"alpha": "-5", "beta": "9", "N": -1}
    config = write_config(tmp_path, {
        "wilson_instances": [wilson_entry], "hahn_instances": [hahn_entry],
    })
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--config", config, "--suite", "wilson", "hahn",
                     "--out", str(out)])
    assert code == 0
    suites = json.loads(out.read_text())["suites"]
    assert suites["wilson"] == [{
        "check": "wilson_biorthogonality", "params": wilson_entry, "status": "skip",
        "reason": "weight head 1 - qa^2 vanishes", "violations": [], "details": {},
    }]
    assert suites["hahn"] == [{
        "check": "hahn_biorthogonality", "params": hahn_entry, "status": "skip",
        "reason": "N must be a nonnegative integer, got -1", "violations": [], "details": {},
    }]


VALID_INSTANCE = {"q": "1/2", "A": "3", "B": "1/5", "N": 2}


@pytest.mark.parametrize("section, check, entry, reason", [
    ("wilson", "wilson_limit", {"q": "1", "A": "8", "B": "1/32", "N": 2}, "q must avoid"),
    ("wilson", "wilson_limit", {"q": "3/2", "A": "8", "B": "1/32", "N": 2},
     "the limit path needs |q| < 1"),
    ("wilson", "wilson_limit", {"q": "1/2", "A": "8", "B": "1/32", "N": 4}, "basis_pole: A = q^-3"),
    ("wilson", "wilson_limit", {"q": "1/2", "A": "8", "B": "1/32", "N": 0},
     "the limit path needs N >= 1"),
    ("qto1", "qto1_convergence", {"alpha": "-3", "beta": "5", "N": -1},
     "N must be a nonnegative integer"),
    ("qto1", "qto1_convergence", {"alpha": "-7/2", "beta": "17/2", "N": 4},
     "the q -> 1 sweep needs integer exponents"),
    ("qto1", "qto1_convergence", {"alpha": "-3", "beta": "5", "N": 0},
     "the q -> 1 sweep needs N >= 1"),
], ids=["wilson-qparams", "wilson-q-above-1", "wilson-guard", "wilson-n0", "qto1-hahnparams",
        "qto1-exponents", "qto1-n0"])
def test_invalid_limit_instance_is_a_skip_carrying_the_entry(
        tmp_path, section, check, entry, reason):
    # a rejected limit instance is one skip; the other suites' results stay
    config = write_config(tmp_path, {
        "instances": [VALID_INSTANCE], "limits": {section: {"instance": entry}},
    })
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--config", config, "--suite", "limits", "gevp",
                     "--out", str(out)])
    assert code == 0
    suites = json.loads(out.read_text())["suites"]
    assert [r["status"] for r in suites["gevp"]] == ["pass"] * 6
    [skip] = suites["limits"]
    assert skip["reason"].startswith(reason)
    assert skip == {"check": check, "params": entry, "status": "skip",
                    "reason": skip["reason"], "violations": [], "details": {}}


def test_wilson_limit_with_qc_zero_is_a_skip_carrying_the_entry(tmp_path):
    # the limit path divides by qc: a rejected parameter, not a traceback
    entry = {"q": "1/2", "A": "3", "B": "1/5", "N": 2}
    config = write_config(tmp_path, {
        "instances": [VALID_INSTANCE], "limits": {"wilson": {"instance": entry, "qc": "0"}},
    })
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--config", config, "--suite", "limits", "gevp",
                     "--out", str(out)])
    assert code == 0
    suites = json.loads(out.read_text())["suites"]
    assert [r["status"] for r in suites["gevp"]] == ["pass"] * 6
    assert suites["limits"] == [{
        "check": "wilson_limit", "params": entry, "status": "skip",
        "reason": "the limit path needs qc != 0", "violations": [], "details": {}}]


REFLECTED_POLE = {"q": "1/2", "A": "3", "B": "12", "N": 3}


def test_reflected_basis_pole_is_one_skip_per_biortho_check(tmp_path):
    # B/A = q^-2 puts a pole of the partner family's series on the grid
    config = write_config(tmp_path, {"instances": [REFLECTED_POLE, VALID_INSTANCE]})
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--config", config, "--suite", "biortho", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())["suites"]["biortho"]
    assert [r["status"] for r in reports] == ["skip"] * 4 + ["pass"] * 4
    assert [r["check"] for r in reports[:4]] == [r["check"] for r in reports[4:]]
    assert all(r["reason"].startswith("reflected_basis_pole: B/A = q^-2")
               for r in reports[:4])


def test_reflected_basis_pole_limit_instance_is_a_wilson_limit_skip(tmp_path):
    config = write_config(tmp_path, {
        "instances": [VALID_INSTANCE], "limits": {"wilson": {"instance": REFLECTED_POLE}},
    })
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--config", config, "--suite", "limits", "gevp",
                     "--out", str(out)])
    assert code == 0
    suites = json.loads(out.read_text())["suites"]
    assert [r["status"] for r in suites["gevp"]] == ["pass"] * 6
    [skip] = suites["limits"]
    assert skip["check"] == "wilson_limit" and skip["status"] == "skip"
    assert skip["params"] == REFLECTED_POLE
    assert skip["reason"].startswith("reflected_basis_pole: B/A = q^-2")


def test_qto1_precision_loss_is_a_failing_check_in_a_written_report(tmp_path):
    config = write_config(tmp_path, {
        "instances": [VALID_INSTANCE],
        "limits": {"qto1": {"instance": {"alpha": "-3", "beta": "5", "N": 2},
                            "h_list": ["1/8", "1/1000000000000"]}},
    })
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--config", config, "--suite", "limits", "gevp",
                     "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    [qto1] = report["suites"]["limits"]
    assert qto1["status"] == "fail"
    assert [v["h"] for v in qto1["violations"]] == ["1/1000000000000"]
    assert qto1["violations"][0]["residual"].startswith("precision loss: ")
    assert report["summary"] == {"pass": 6, "fail": 1, "skip": 0}


def test_solve_back_disagreement_is_a_failing_check_in_a_written_report(
        tmp_path, monkeypatch):
    # xi_8 in place of xi_5 in the ZY row: the solve-back finds two values of xi_8
    table = dict(algebra._RQHAHN_RELATIONS)
    table["ZY"] = [(8 if i == 5 else i, words) for i, words in table["ZY"]]
    monkeypatch.setattr(algebra, "_RQHAHN_RELATIONS", table)
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--config", write_config(tmp_path, MINIMAL),
                     "--suite", "algebra", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    status = {r["check"]: r["status"] for r in report["suites"]["algebra"]}
    assert status == {"rqhahn_relations": "fail", "meta_relations": "pass",
                      "structure_constants": "fail"}
    [solve_back] = [r for r in report["suites"]["algebra"] if r["check"] == "structure_constants"]
    assert solve_back["violations"] == [
        {"kind": "QHahnError", "message": "xi_8 disagrees between the ZY and YX solves"}]


def test_timing_has_the_seconds_of_each_check_that_ran(tmp_path):
    config = write_config(tmp_path, {
        "instances": [VALID_INSTANCE, VALID_INSTANCE, {"q": "1/2", "A": "1", "B": "1/512", "N": 3}],
        "hahn_instances": [{"alpha": "-5", "beta": "9", "N": 3}],
    })
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--config", config, "--suite", "biortho", "hahn",
                     "--out", str(out)]) == 0
    timing = json.loads(out.read_text())["timing"]
    per_check = timing["per_check_seconds"]
    assert {suite: sorted(checks) for suite, checks in per_check.items()} == {
        "biortho": ["biorthogonality", "partial_fractions", "partner", "weight"],
        "hahn": ["hahn_biorthogonality"]}
    for suite, checks in per_check.items():
        assert all(seconds >= 0 for seconds in checks.values())
        assert sum(checks.values()) <= timing["per_suite_seconds"][suite]


def test_instance_rejected_by_qparams_is_a_skip_per_check(tmp_path):
    # q = 1 is rejected by QParams itself: each gevp check of that entry is a
    # skip carrying the entry as given, and the next instance still runs
    bad = {"q": "1", "A": "3", "B": "1/5", "N": 2}
    config = write_config(tmp_path, {
        "instances": [bad, {"q": "1/2", "A": "3", "B": "1/5", "N": 2}],
    })
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--config", config, "--suite", "gevp", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())["suites"]["gevp"]
    assert [r["status"] for r in reports] == ["skip"] * 6 + ["pass"] * 6
    assert [r["check"] for r in reports[:6]] == [r["check"] for r in reports[6:]]
    assert all(r["params"] == bad and "q must avoid" in r["reason"] for r in reports[:6])


@pytest.mark.parametrize("config, suite", [
    ({"suites": 5}, None),
    ({"instances": 3}, "gevp"),
    ({"wilson_instances": 7}, "wilson"),
    ({"limits": {"wilson": 5}}, "limits"),
    ({"limits": {"wilson": {"instance": {"q": "1/2", "A": "8", "B": "1/32", "N": 2},
                            "m_list": 8}}}, "limits"),
    ({"limits": {"wilson": {"instance": {"q": "1/2", "A": "8", "B": "1/32", "N": 2},
                            "m_list": [8, "12"]}}}, "limits"),
    ([MINIMAL], None),
    ({"instances": [{**MINIMAL["instances"][0], "N": "3"}]}, "gevp"),
    ({"instances": [{**MINIMAL["instances"][0], "q": "one half"}]}, "gevp"),
], ids=["suites", "instances", "wilson_instances", "limits.wilson", "m_list", "m_list-entry",
        "root", "N", "q"])
def test_malformed_config_shape_is_config_error(tmp_path, capsys, config, suite):
    path = write_config(tmp_path, config)
    argv = ["verify", "--config", path] + (["--suite", suite] if suite else [])
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


WILSON_LIMIT = {"instance": {"q": "1/2", "A": "8", "B": "1/32", "N": 2}}
QTO1 = {"instance": {"alpha": "-3", "beta": "5", "N": 2}}


@pytest.mark.parametrize("limits, message", [
    ({"wilson": {**WILSON_LIMIT, "m_list": [20, 16, 12, 8]}}, "m_list must be strictly increasing"),
    ({"wilson": {**WILSON_LIMIT, "m_list": [8, 12, 12, 16]}}, "m_list must be strictly increasing"),
    ({"qto1": {**QTO1, "h_list": ["1/32", "1/16", "1/8"]}}, "h_list must be strictly decreasing"),
    ({"qto1": {**QTO1, "h_list": ["1/8", "2/16", "1/32"]}}, "h_list must be strictly decreasing"),
], ids=["m_list-reversed", "m_list-duplicate", "h_list-reversed", "h_list-duplicate"])
def test_a_misordered_limit_list_is_a_config_error_naming_it(tmp_path, capsys, limits, message):
    # a list in the wrong order would read as a limit whose deviations fail
    # to decrease; the config is at fault, so the exit code is 2, not 1
    config = write_config(tmp_path, {"limits": limits})
    assert cli.main(["verify", "--config", config, "--suite", "limits"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("config, key, section", [
    ({"suites": ["wilson"], "wilson_instance": []}, "wilson_instance", "the top level"),
    ({"limits": {"wilsn": WILSON_LIMIT}}, "limits.wilsn", "limits"),
    ({"limits": {"wilson": {**WILSON_LIMIT, "m_lst": [8, 12]}}}, "limits.wilson.m_lst",
     "limits.wilson"),
    ({"limits": {"qto1": {**QTO1, "hlist": ["1/8", "1/16"]}}}, "limits.qto1.hlist", "limits.qto1"),
], ids=["top", "limits", "limits.wilson", "limits.qto1"])
def test_a_config_key_verify_never_reads_is_a_config_error_naming_it(tmp_path, capsys,
                                                                     config, key, section):
    # a misspelt key would leave its section at the default: the wilson
    # suite would pass on no instance at all, whichever suites are selected
    path = write_config(tmp_path, {"version": 1, **config})
    assert cli.main(["verify", "--config", path, "--suite", "wilson"]) == 2
    assert capsys.readouterr().err.startswith(f"error: unknown config key {key!r}; {section} takes ")


def test_only_the_qto1_check_imports_mpmath(tmp_path):
    # the exact suites and export run without mpmath; the same run with a
    # q -> 1 entry added must load it, so the probe can fail
    exact = {"instances": [VALID_INSTANCE],
             "wilson_instances": [{"q": "1/2", "qa": "3", "qc": "5", "qd": "7", "qe": "11", "N": 2}],
             "hahn_instances": [{"alpha": "-5", "beta": "9", "N": 3}],
             "limits": {"wilson": WILSON_LIMIT}}
    paths = [write_config(tmp_path, exact, "exact.json"),
             write_config(tmp_path, {**exact, "limits": {"wilson": WILSON_LIMIT, "qto1": QTO1}},
                          "qto1.json")]
    reports = [tmp_path / "exact_report.json", tmp_path / "qto1_report.json"]
    code = f"""
import sys
before = set(sys.modules)
import qhahn, qhahn.cli
new = {{m.split('.')[0] for m in set(sys.modules) - before}}
print(sorted(new - set(sys.stdlib_module_names) - {{'qhahn'}}))
print(qhahn.cli.run_verify({paths[0]!r}, None, {str(reports[0])!r}))
print(qhahn.cli.main(['export', '--what', 'matrix', '--which', 'Z', '--params', '1/2,32,1/512,3',
                      '--format', 'json', '--out', {str(tmp_path / 'z.json')!r}]))
print('mpmath' in sys.modules)
print(qhahn.cli.run_verify({paths[1]!r}, None, {str(reports[1])!r}))
print('mpmath' in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env)
    assert out.stdout.split() == ["[]", "0", "0", "False", "0", "True"]
    [wilson_limit] = json.loads(reports[0].read_text())["suites"]["limits"]
    assert wilson_limit["check"] == "wilson_limit" and wilson_limit["status"] == "pass"
    [_, qto1] = json.loads(reports[1].read_text())["suites"]["limits"]
    assert qto1["check"] == "qto1_convergence" and qto1["status"] == "pass"


def test_report_is_deterministic(tmp_path):
    config = write_config(tmp_path, MINIMAL)
    texts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli.main(["verify", "--config", config, "--out", str(out)]) == 0
        texts.append(out.read_text())
    parsed = [json.loads(t) for t in texts]
    for r in parsed:
        r.pop("timing")
    assert json.dumps(parsed[0], sort_keys=True) == json.dumps(parsed[1], sort_keys=True)
    # timing is isolated in its own top-level key, so the rest of the
    # serialized report is byte-identical too
    stripped = []
    for t in texts:
        obj = json.loads(t)
        obj["timing"] = None
        stripped.append(json.dumps(obj, sort_keys=True, indent=2))
    assert stripped[0] == stripped[1]


def test_empty_suite_selection_is_config_error(tmp_path):
    config = write_config(tmp_path, {**MINIMAL, "suites": []})
    assert cli.main(["verify", "--config", config]) == 2


def test_unknown_suite_is_config_error(tmp_path):
    config = write_config(tmp_path, {**MINIMAL, "suites": ["nope"]})
    assert cli.main(["verify", "--config", config]) == 2


def test_malformed_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["verify", "--config", str(path)]) == 2


def test_missing_config_is_config_error(tmp_path):
    assert cli.main(["verify", "--config", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("suite, payload, value", [
    ("gevp", {"instances": [{**VALID_INSTANCE, "q": 1 / 3}]}, 1 / 3),
    ("limits", {"limits": {"wilson": {"instance": VALID_INSTANCE, "qc": 0.5}}}, 0.5),
    ("limits", {"limits": {"qto1": {"instance": {"alpha": "-3", "beta": "5", "N": 2},
                                    "h_list": ["1/8", 0.0625]}}}, 0.0625),
], ids=["instance-q", "wilson-qc", "qto1-h_list"])
def test_a_json_float_is_a_config_error_naming_it(tmp_path, capsys, suite, payload, value):
    # rationals are "num/den" strings or ints: a float such as 1/3 would
    # otherwise be read as its 16-digit decimal
    config = write_config(tmp_path, payload)
    assert cli.main(["verify", "--config", config, "--suite", suite]) == 2
    assert f"bad rational {value!r}" in capsys.readouterr().err


def test_failing_check_exits_one(tmp_path, monkeypatch):
    # exit-code plumbing: inject a suite that reports one failure
    def broken_suite(config, seconds, entries):
        report = CheckReport(check="synthetic", params={})
        report.add_violation(reason="synthetic failure")
        return [report.as_dict()]

    monkeypatch.setitem(cli.SUITES, "gevp", broken_suite)
    config = write_config(tmp_path, MINIMAL)
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--config", config, "--suite", "gevp", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["summary"]["fail"] == 1


def test_export_matrix_structure(tmp_path):
    out = tmp_path / "z.json"
    code = cli.main([
        "export", "--what", "matrix", "--which", "Z",
        "--params", "1/2,32,1/512,3", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["what"] == "matrix" and payload["basis"] == "point"
    rows = payload["rows"]
    direct = build_operator(Operator.Z, Basis.POINT, QParams(F(1, 2), F(32), F(1, 512), 3))
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            assert F(cell) == direct.entries[i][j]
            if not 0 <= i - j <= 1:
                assert F(cell) == 0  # lower-bidiagonal structure


def test_export_weight_small_instance(tmp_path):
    out = tmp_path / "w.json"
    code = cli.main([
        "export", "--what", "weight", "--params", "1/2,32,1/128,1",
        "--format", "json", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    values = [F(v) for v in payload["values"]]
    assert len(values) == 2
    assert sum(values) == 1


def test_export_round_trip_exact(tmp_path):
    p = QParams(F(1, 2), F(32), F(1, 512), 3)
    out = tmp_path / "u.json"
    assert cli.main([
        "export", "--what", "brf", "--which", "2",
        "--params", "1/2,32/1,1/512,3", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert [F(v) for v in payload["values"]] == list(brf_u(2, p).values)


def test_export_csv_round_trip(tmp_path):
    p = QParams(F(1, 2), F(32), F(1, 512), 3)
    out = tmp_path / "w.csv"
    assert cli.main([
        "export", "--what", "weight", "--params", "1/2,32,1/512,3",
        "--format", "csv", "--out", str(out),
    ]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["x", "value"]
    values = [F(v) for _, v in rows[1:]]
    assert values == [v for v in weight_vector(p)]


def test_export_matrix_csv_preserves_entries(tmp_path):
    p = QParams(F(1, 2), F(32), F(1, 512), 2)
    out = tmp_path / "x.csv"
    assert cli.main([
        "export", "--what", "matrix", "--which", "X",
        "--params", "1/2,32,1/512,2", "--format", "csv", "--out", str(out),
    ]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    direct = build_operator(Operator.X, Basis.POINT, p)
    for i, row in enumerate(rows):
        assert [F(v) for v in row] == list(direct.entries[i])


def test_export_phi_basis(tmp_path):
    out = tmp_path / "zphi.json"
    assert cli.main([
        "export", "--what", "matrix", "--which", "Z", "--basis", "phi",
        "--params", "1/2,32,1/512,3", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["basis"] == "phi"
    direct = build_operator(Operator.Z, Basis.PHI, QParams(F(1, 2), F(32), F(1, 512), 3))
    assert [[F(c) for c in row] for row in payload["rows"]] == [
        list(r) for r in direct.entries
    ]


def test_export_rejects_invalid_instance():
    assert cli.main([
        "export", "--what", "weight", "--params", "1/2,1,1/512,3",
    ]) == 2


def test_export_rejects_bad_arguments(capsys):
    for what, which, params, message in [
        ("matrix", "Q", "1/2,32,1/512,3", "--which must be one of X, Y, Z, V for matrices"),
        ("brf", "9", "1/2,32,1/512,3", "brf index n=9 outside 0..3"),
        ("brf", "one", "1/2,32,1/512,3", "--which must be an index n for brf, got 'one'"),
        ("brf", "1", "1/2,32,1/512", "--params must be q,A,B,N"),
        ("brf", "1", "1/2,32,1/512,three", "N must be an integer, got 'three'"),
    ]:
        assert cli.main(["export", "--what", what, "--which", which, "--params", params]) == 2
        assert message in capsys.readouterr().err


def test_export_payload_names_an_unknown_target():
    # the CLI's --what choices stop an unknown target before the payload is built
    with pytest.raises(qcore.ConfigError, match="unknown export target 'trace'"):
        cli._export_payload("trace", None, CANONICAL, Basis.POINT)


@pytest.mark.parametrize("what", ["matrix", "brf"])
def test_export_names_a_missing_which(capsys, what):
    # a matrix or a family member needs --which: the error names the flag,
    # not a default the user never typed
    assert cli.main(["export", "--what", what, "--params", "1/2,32,1/512,3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --what {what} needs --which\n"


@pytest.mark.parametrize("basis", ["point", "phi"])
@pytest.mark.parametrize("what, which", [("brf", "2"), ("weight", "w")])
def test_export_basis_applies_to_matrices_only(capsys, what, which, basis):
    # point values have no basis: the flag is a usage error, not ignored
    assert cli.main(["export", "--what", what, "--which", which, "--basis", basis,
                     "--params", "1/2,32,1/512,3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --basis applies to matrices only; --what {what} "
                            "is point values\n")


def test_fraction_serialization_always_carries_denominator(tmp_path):
    out = tmp_path / "u0.json"
    assert cli.main([
        "export", "--what", "brf", "--which", "0",
        "--params", "1/2,32,1/512,2", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["values"] == ["1/1", "1/1", "1/1"]
