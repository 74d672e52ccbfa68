"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/collect.py --out results.json

For every workload it makes one `run.py --trace 0` run per seed 1-10 and one
`--trace 1` run at seed 1, in sequence, each for `run_seconds` of
BENCHMARK.json.  Per end-to-end metric it records every value, the median,
and the quartile spread (Q3 - Q1) / median as `statistics.quantiles(values,
n=4)` gives the quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SEEDS = list(range(1, 11))
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    info = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines[:-1]}
    return {"seed": seed, "env": json.loads(info["env"]), "input": json.loads(info["input"]),
            "passes": json.loads(info["passes"]), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    out = {"seconds": SECONDS, "seeds": SEEDS, "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, 0))
            print(workload, seed, json.dumps(runs[-1]["result"]), flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "values": values}
        traced = run_once(workload, SEEDS[0], 1)
        out["workloads"][workload] = {
            "env": runs[0]["env"], "input": runs[0]["input"],
            "all_correct": all(r["result"]["correct"] for r in runs + [traced]),
            "end_to_end": summary, "runs": runs, "traced": traced}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    for workload, data in out["workloads"].items():
        for name, s in data["end_to_end"].items():
            print(f"{workload:8} {name:14} median {s['median']:.4f}  spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
