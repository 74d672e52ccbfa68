"""qhahn benchmark: one workload per invocation, in one process, no threads.

    python3 perfbench/run.py --workload panel|large_n|wilson --seed N --seconds S --trace 0|1

Each pass is one full `qhahn.cli.run_verify` over the workload's config, the
call behind `qhahn verify`.  Every time reported is in reference seconds:
wall seconds scaled by the machine speed measured alongside them (see
speed.py), because this kind of shared machine drifts in speed by a third.  `--trace 0` times untraced passes, with set-up
probes spread between them, within `--seconds` in all, and reports the
end-to-end metrics; `--trace 1` alternates untraced and traced passes for
`--seconds` and reports the per-layer metrics, or exits 3 without a result
when a traced name has moved.  Every pass is checked: its report
(timing removed) must hash to the same digest as every other pass, to the
reference digest where one is recorded, and generated workloads must pass
every check.  Human-readable lines come first; the last line of stdout is the
JSON result.  Run from the root of a qhahn source tree; exits 2 without a
result anywhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 31

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Pass:
    seconds: float  # reference seconds
    wall: float
    samples: list[float]  # speed sampler chunk times
    checks: int
    failed: int
    digest: str | None = None
    all_pass: bool = False
    escaped: str | None = None


def report_digest(report: dict) -> str:
    """sha256 of the report without its timing, the recipe the panel
    reference was recorded with (trailing newline included)."""
    report = {k: v for k, v in report.items() if k != "timing"}
    return hashlib.sha256((json.dumps(report, sort_keys=True) + "\n").encode()).hexdigest()


def describe_escape(exc: BaseException) -> str:
    """Exception class, message, the check it left and the instance it hit,
    read from the traceback's qhahn frames."""
    from qhahn.qcore import QParams
    from qhahn.wilson import HahnParams, WilsonParams

    check = instance = None
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        if not frame.f_globals.get("__name__", "").startswith("qhahn"):
            continue
        name = frame.f_code.co_name
        if check is None and (name.startswith("check_") or name.endswith("_check")):
            check = name
        if instance is None:
            instance = next((v.as_dict() for v in frame.f_locals.values()
                             if isinstance(v, (QParams, WilsonParams, HahnParams))), None)
    return f"{type(exc).__name__}: {exc} [check {check}, instance {json.dumps(instance)}]"


def run_pass(cli, config_path: Path, report_path: Path, checks: int) -> Pass:
    """One timed `run_verify`, with the machine's speed sampled during it.
    An exception escaping it fails every check of the call; it ends this pass
    only, never the benchmark."""
    escaped = None
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        try:
            cli.run_verify(str(config_path), None, str(report_path))
        except Exception as exc:
            escaped = exc
        wall = time.perf_counter() - t0
    seconds = sampler.scaled(wall)
    if escaped is not None:
        return Pass(seconds, wall, sampler.samples, checks, checks,
                    escaped=describe_escape(escaped))
    with open(report_path) as fh:
        report = json.load(fh)
    summary = report["summary"]
    attempted = sum(summary.values())
    return Pass(seconds, wall, sampler.samples, attempted, summary.get("fail", 0),
                report_digest(report), all_pass=summary.get("pass", 0) == attempted)


def setup_probe(config_path: Path):
    """A function that returns the wall seconds of one fresh interpreter
    running the set-up probe, from its start to the end of its set-up on the
    system-wide monotonic clock.  A probe is too short for the speed sampler:
    `setup_s` scales the probes' median by the speed sampled over the run's
    passes, between which the probes are spread.  The wait blocks: a wait
    with a timeout polls, and its 50 ms steps would quantize the reading."""
    cmd = [sys.executable, "-I", str(HERE / "setup_probe.py"), str(SRC), str(config_path)]

    def probe() -> float:
        t0 = time.perf_counter()
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
        return float(out) - t0

    return probe


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import mpmath

    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(), "commit": git_commit()}


def timed_passes(run, seconds: float, probe=None) -> tuple[list, list[float]]:
    """Repeat `run` until another round would overrun `seconds` (one round at
    least).  With `probe`, SETUP_RUNS probes are spread between the rounds in
    step with the elapsed time, so they sample the same stretch of machine
    speed as the rounds; the first probe, which may compile bytecode, is not
    kept."""
    rounds, probes = [], []
    if probe:
        probe()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run())
        last = time.perf_counter() - t0
        if probe:
            elapsed = time.perf_counter() - start
            due = SETUP_RUNS * min(1.0, elapsed / seconds) if seconds > 0 else SETUP_RUNS
            while len(probes) < due:
                probes.append(probe())
        if time.perf_counter() - start + last > seconds:
            break
    while probe and len(probes) < SETUP_RUNS:
        probes.append(probe())
    return rounds, probes


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def is_correct(workload: str, seed: int, passes: list[Pass], reference: dict) -> bool:
    digests = {p.digest for p in passes}
    if None in digests or len(digests) != 1:
        return False
    if workload == "panel" or seed == reference["default_seed"]:
        return digests == {reference["digests"][workload]}
    return all(p.all_pass for p in passes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the reference seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qhahn" / "cli.py").is_file():
        print(f"error: no qhahn sources at {SRC}; run from a qhahn source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from qhahn import cli

    reference = load_reference()
    seed = reference["default_seed"] if args.seed is None else args.seed
    config = workloads.make_config(args.workload, seed, SRC)
    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-{seed}"
    config_path = WORK / f"{stem}.json"
    config_path.write_bytes(workloads.config_bytes(args.workload, config, SRC))
    report_path = WORK / f"{stem}-report.json"
    size = workloads.input_size(config)
    print("env", json.dumps(environment()))
    print("input", json.dumps({"workload": args.workload, "seed": seed, **size}))

    def one_pass() -> Pass:
        return run_pass(cli, config_path, report_path, size["checks"])

    if args.trace:
        tracer = tracing.Tracer()

        def pair():
            plain = one_pass()
            tracer.reset()
            with tracer.patch():
                traced = one_pass()
            return plain, traced, tracer.summary(traced.seconds / traced.wall)

        try:
            rounds, _ = timed_passes(pair, args.seconds)
        except tracing.MissingTarget as exc:
            print(f"error: instrumentation out of date: {exc}", file=sys.stderr)
            return 3
        tracer.write(WORK / f"{stem}-spans.jsonl")
        passes = [p for plain, traced, _ in rounds for p in (plain, traced)]
        plain_s = statistics.median(r[0].seconds for r in rounds)
        traced_s = statistics.median(r[1].seconds for r in rounds)
        units = tracing.per_layer_units()
        values = {name: statistics.median(r[2][name] for r in rounds) for name in units}
        values["trace.overhead_frac"] = traced_s / plain_s - 1
        units["trace.overhead_frac"] = "ratio"
        values["check_fail_frac"] = sum(p.failed for p in passes) / sum(p.checks for p in passes)
        units["check_fail_frac"] = "ratio"
        print("passes", json.dumps({"untraced_s": [round(r[0].seconds, 4) for r in rounds],
                                    "traced_s": [round(r[1].seconds, 4) for r in rounds]}))
    else:
        passes, setup = timed_passes(one_pass, args.seconds, setup_probe(config_path))
        times = [p.seconds for p in passes]
        run_speed = speed.speed([s for p in passes for s in p.samples])
        values = {"verify_s": statistics.median(times),
                  "setup_s": statistics.median(setup) * run_speed,
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = {"verify_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
        print("passes", json.dumps({"count": len(times), "verify_s": [round(t, 4) for t in times],
                                    "wall_s": [round(p.wall, 4) for p in passes],
                                    "setup_wall_s": [round(t, 4) for t in setup],
                                    "speed": round(run_speed, 4)}))

    for p in passes:
        if p.escaped:
            print("escaped", p.escaped)
    correct = is_correct(args.workload, seed, passes, reference)
    if not correct:
        print("incorrect", json.dumps(sorted({str(p.digest) for p in passes})))
    attempted = sum(p.checks for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
