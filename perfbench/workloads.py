"""Workload configs for the qhahn benchmark.

Each workload is a `qhahn verify` config, the same JSON a user passes to
`--config`.  Seeded workloads draw their instances with `random.Random(seed)`
and accept a candidate only through the library's own guards
(`validate_params` and the `WilsonParams` / `HahnParams` constructors); no
check is ever run to choose an input.  The draws keep the height of every
parameter in a narrow band so that one seed costs about as much as another.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

# The five q-Hahn suites; `large_n` runs exactly these.
QHAHN_SUITES = ["algebra", "biortho", "casimir", "gevp", "potential"]
# Suites that run one check per entry of a config section.
ONE_CHECK_PER_ENTRY = {"wilson": "wilson_instances", "hahn": "hahn_instances", "limits": "limits"}

LARGE_N = 24
WILSON_N = 10
HAHN_N = 16
LIMIT_N = 5
WILSON_COUNT = 2
HAHN_COUNT = 3
MAX_DRAWS = 1000

WORKLOADS = ("panel", "large_n", "wilson")


def shipped_panel(src: Path) -> dict:
    with open(src / "qhahn" / "data" / "default_panel.json") as fh:
        return json.load(fh)


def _sign(rng: random.Random) -> int:
    return rng.choice((1, -1))


def _draw_qparams(rng: random.Random, N: int, qs: tuple[str, ...]):
    """q of height 2 and A, B signed ratios of distinct odd primes, so no
    monomial q^i A^j B^k with (j, k) != (0, 0) is 1 and the instance is generic."""
    from qhahn.qcore import QParams, validate_params

    for _ in range(MAX_DRAWS):
        a, b = rng.sample((3, 5, 7, 11), 2)
        p = QParams(Fraction(rng.choice(qs)), Fraction(_sign(rng) * a), Fraction(_sign(rng), b), N)
        if validate_params(p, N).valid:
            return p
    raise RuntimeError("no valid q-Hahn instance drawn")


def _draw_wilson(rng: random.Random):
    from qhahn.qcore import InvalidParams
    from qhahn.wilson import WilsonParams

    for _ in range(MAX_DRAWS):
        qa, qc, qd, qe = (_sign(rng) * v for v in rng.sample((3, 5, 7, 11, 13), 4))
        try:
            return WilsonParams(Fraction(rng.choice(("1/2", "-1/2"))), qa, qc, qd, qe, WILSON_N)
        except InvalidParams:
            continue
    raise RuntimeError("no valid Wilson instance drawn")


def _draw_hahn(rng: random.Random):
    from qhahn.qcore import InvalidParams
    from qhahn.wilson import HahnParams

    for _ in range(MAX_DRAWS):
        alpha = Fraction(-rng.randrange(35, 60), 2)
        beta = Fraction(rng.randrange(35, 60), 2)
        try:
            return HahnParams(alpha, beta, HAHN_N)
        except InvalidParams:
            continue
    raise RuntimeError("no valid Hahn instance drawn")


def make_config(workload: str, seed: int, src: Path) -> dict:
    """The verify config of one workload; `panel` ignores the seed."""
    if workload == "panel":
        return shipped_panel(src)
    rng = random.Random(seed)
    if workload == "large_n":
        p = _draw_qparams(rng, LARGE_N, ("1/2", "-1/2", "2", "-2"))
        return {"suites": QHAHN_SUITES, "instances": [p.as_dict()]}
    if workload == "wilson":
        wilson = [_draw_wilson(rng).as_dict() for _ in range(WILSON_COUNT)]
        hahn = [_draw_hahn(rng).as_dict() for _ in range(HAHN_COUNT)]
        limit = _draw_qparams(rng, LIMIT_N, ("1/2", "-1/2"))
        # The q -> 1 check keeps the shipped instance and h_list: at larger N
        # those h values are pre-asymptotic and the measured order is off.
        qto1 = shipped_panel(src)["limits"]["qto1"]
        return {
            "suites": ["hahn", "limits", "wilson"],
            "wilson_instances": wilson,
            "hahn_instances": hahn,
            "limits": {
                "wilson": {"instance": limit.as_dict(), "m_list": [8, 12, 16, 20], "qc": "3"},
                "qto1": qto1,
            },
        }
    raise ValueError(f"unknown workload {workload!r}")


def config_bytes(workload: str, config: dict, src: Path) -> bytes:
    """The shipped panel file as it is, or a canonical serialization, so the
    report's config_sha256 depends on the config's content only."""
    if workload == "panel":
        return (src / "qhahn" / "data" / "default_panel.json").read_bytes()
    return (json.dumps(config, sort_keys=True, indent=1) + "\n").encode()


def entries(config: dict) -> list[dict]:
    """Every instance entry of the config, limit instances included."""
    return (config.get("instances", []) + config.get("wilson_instances", [])
            + config.get("hahn_instances", [])
            + [section["instance"] for section in config.get("limits", {}).values()])


def check_count(config: dict) -> int:
    """Checks one full `run_verify` pass over the config attempts: a q-Hahn
    suite runs each check its `cli.SUITES` closure captured on every panel
    instance."""
    from qhahn.cli import SUITES
    from tracing import suite_checks

    n = 0
    for name in set(config.get("suites") or SUITES):
        if name in ONE_CHECK_PER_ENTRY:
            n += len(config.get(ONE_CHECK_PER_ENTRY[name], []))
        else:
            n += len(suite_checks(SUITES[name])) * len(config.get("instances", []))
    return n


def input_size(config: dict) -> dict:
    """N, instance count and check count of one pass: the base of every ratio."""
    found = entries(config)
    return {"n_max": max(e["N"] for e in found), "instances": len(found),
            "checks": check_count(config)}
