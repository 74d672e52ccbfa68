"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import setup_probe  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qhahn import brf, cli, gevp, operators  # noqa: E402

SMALL = {
    "instances": [{"q": "1/2", "A": "3", "B": "1/5", "N": 3}],
    "wilson_instances": [{"q": "1/2", "qa": "3", "qc": "5", "qd": "7", "qe": "11", "N": 2}],
    "hahn_instances": [{"alpha": "-5", "beta": "9", "N": 3}],
    "limits": {"wilson": {"instance": {"q": "1/2", "A": "3", "B": "1/5", "N": 2},
                          "m_list": [8, 12, 16]}},
}


def _write(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path, tmp_path / "report.json"


def test_traced_pass_gives_the_untraced_report(tmp_path):
    config_path, report_path = _write(tmp_path, SMALL)
    checks = workloads.check_count(SMALL)
    plain = run.run_pass(cli, config_path, report_path, checks)
    originals = (gevp.build_operator, brf.brf_family, operators.OpMatrix.__matmul__,
                 dict(cli.SUITES))
    tracer = tracing.Tracer()
    with tracer.patch():
        assert gevp.build_operator is not originals[0]
        traced = run.run_pass(cli, config_path, report_path, checks)
    assert (gevp.build_operator, brf.brf_family, operators.OpMatrix.__matmul__,
            dict(cli.SUITES)) == originals
    assert plain.checks == traced.checks == checks == 20
    assert plain.failed == traced.failed == 0
    assert traced.digest == plain.digest is not None

    summary = tracer.summary()
    assert set(summary) == set(tracing.per_layer_units())
    for name in ("operators.build_operator.calls", "brf.brf_family.calls",
                 "operators.OpMatrix.matmul.calls", "qcore.validate_params.calls",
                 "wilson.wilson_u.calls", "linalg.rref.calls"):
        assert summary[name] > 0, name
    for check in tracing.CHECK_NAMES:
        if check != "qto1_convergence":
            assert summary[f"check.{check}.s"] > 0, check
    assert 0 < summary["brf.brf_family.distinct_frac"] < 1
    assert summary["brf.max_bits"] > 0
    tracer.write(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == len(tracer.spans)


@pytest.mark.parametrize("config, checks, error", [
    # A -> qA moves this valid instance onto a basis pole inside check_contiguity.
    ({"suites": ["gevp"], "instances": [{"q": "1/2", "A": "8", "B": "1/512", "N": 3}]},
     6, "InvalidParams"),
    ({"suites": ["limits"], "limits": {"wilson": {
        "instance": {"q": "1/2", "A": "8", "B": "1/32", "N": 4}, "m_list": [8, 12, 16, 20]}}},
     1, "ZeroDenominator"),
])
def test_escaping_exception_fails_every_check_of_the_call(tmp_path, config, checks, error):
    config_path, report_path = _write(tmp_path, config)
    assert workloads.check_count(config) == checks
    result = run.run_pass(cli, config_path, report_path, checks)
    assert result.checks == result.failed == checks
    assert result.digest is None
    assert result.escaped.startswith(error + ":")
    assert '"A": "8/1"' in result.escaped
    assert not run.is_correct("large_n", 2, [result], run.load_reference())


@pytest.mark.parametrize("target", [
    ("LAYER_TARGETS", ("qhahn.brf", "brf_family_renamed", "brf.brf_family")),
    ("METHOD_TARGETS", ("qhahn.operators", "OpMatrix", "__rmatmul__", "operators.x")),
    ("CHECK_TARGETS", ("qhahn.wilson", "check_moved")),
])
def test_missing_target_is_an_error(monkeypatch, target):
    table, entry = target
    monkeypatch.setattr(tracing, table, getattr(tracing, table) + [entry])
    originals = (brf.brf_family, gevp.build_operator, dict(cli.SUITES))
    with pytest.raises(tracing.MissingTarget):
        with tracing.Tracer().patch():
            pass
    assert (brf.brf_family, gevp.build_operator, dict(cli.SUITES)) == originals


def test_untraced_check_is_an_error(monkeypatch):
    monkeypatch.setattr(tracing, "CHECK_NAMES", [c for c in tracing.CHECK_NAMES if c != "weight"]
                        + ["renamed"])
    tracer = tracing.Tracer()
    with tracer.patch():
        brf.check_weight(setup_probe.parse(cli, SMALL)[0])
    with pytest.raises(tracing.MissingTarget, match="check.weight"):
        tracer.summary()


def test_seeded_workloads_are_reproducible_and_guarded():
    src = HERE.parent / "src"
    for workload in ("large_n", "wilson"):
        first = workloads.make_config(workload, 5, src)
        assert workloads.make_config(workload, 5, src) == first
        assert workloads.make_config(workload, 6, src) != first
        assert len(setup_probe.parse(cli, first)) == workloads.input_size(first)["instances"]
    size = workloads.input_size(workloads.make_config("large_n", 5, src))
    assert size == {"n_max": 24, "instances": 1, "checks": 17}
    panel = workloads.make_config("panel", 5, src)
    assert workloads.input_size(panel) == {"n_max": 8, "instances": 20, "checks": 196}


@pytest.mark.parametrize("trace, keys", [
    (0, {"verify_s", "setup_s", "peak_rss_mib"}),
    (1, set(tracing.per_layer_units()) | {"trace.overhead_frac", "check_fail_frac"}),
])
def test_result_line(capsys, trace, keys):
    assert run.main(["--workload", "panel", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] == 196 * (1 + trace)
    assert set(result["metrics"]) == keys
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def _busy(seconds):
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        pass
    return time.perf_counter() - t0


def test_sampler_samples_during_the_section_and_takes_its_time_out():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        wall = _busy(0.35)
    assert len(sampler.samples) in (3, 4)
    assert 0 < sampler.spent < wall / 5
    assert sampler.scaled(wall) == (wall - sampler.spent) * speed.speed(sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    with speed.Sampler() as short:
        wall = _busy(0.01)
    assert len(short.samples) == 1 and short.spent == 0
    assert short.scaled(wall) == wall * speed.REFERENCE_CHUNK_S / short.samples[0]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "panel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
