"""Command-line entry point: run verification suites over parameter panels
and export matrices / function values with exact "num/den" serialization.

Exit codes: 0 = all selected checks pass (skips allowed), 1 = at least one
check failed, 2 = configuration or usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import sys
import time
from fractions import Fraction

from . import __version__
from . import algebra, brf, gevp, wilson
from .operators import Basis, Operator, build_operator
from .qcore import ConfigError, InvalidParams, QParams, frac_str, validate_params
from .reports import CheckReport

__all__ = ["main", "run_verify", "run_export", "SUITES"]


def _parse_scalar(text) -> Fraction:
    if isinstance(text, float):
        raise ConfigError(f"bad rational {text!r}: a float is not exact; write it as \"num/den\"")
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r}: {exc}") from None


def _instance_parser(make, label: str):
    """Parser for one kind of instance: the fields of the parameter class
    `make`, its rationals and then the integer N, passed in that order."""
    keys = [f.name for f in dataclasses.fields(make)]

    def parse(entry: dict):
        try:
            *rationals, n = (entry[k] for k in keys)
        except (KeyError, TypeError):
            raise ConfigError(f"{label} needs keys {', '.join(keys)}: {entry!r}") from None
        if not isinstance(n, int) or isinstance(n, bool):
            raise ConfigError(f"N must be an integer: {n!r}")
        return make(*map(_parse_scalar, rationals), n)

    return parse


_parse_qparams = _instance_parser(QParams, "instance")
_parse_wilson = _instance_parser(wilson.WilsonParams, "wilson instance")
_parse_hahn = _instance_parser(wilson.HahnParams, "hahn instance")


def _section(config: dict, key: str, kind: type, default):
    """config[key], or `default` when it is absent or null; a value of any
    other JSON shape than `kind` (list or dict) is a ConfigError."""
    value = config.get(key)
    if value is None:
        return default
    if not isinstance(value, kind):
        shape = "an object" if kind is dict else "a list"
        raise ConfigError(f"{key} must be {shape}, got {value!r}")
    return value


# The keys `run_verify` reads, nested as in the config; `version` is only documented.
_CONFIG_KEYS = dict.fromkeys(("version", "suites", "instances", "wilson_instances",
                              "hahn_instances"), {}) | {
    "limits": {"wilson": dict.fromkeys(("instance", "m_list", "qc"), {}),
               "qto1": dict.fromkeys(("instance", "h_list"), {})}}


def _check_keys(config: dict, known: dict, section: str = "") -> None:
    """A ConfigError naming the first key, at any level `known` lists the keys
    of, that a verify run would never read: a misspelt key is no silent default."""
    for key, value in config.items():
        name = f"{section}.{key}" if section else key
        if key not in known:
            raise ConfigError(f"unknown config key {name!r}; "
                              f"{section or 'the top level'} takes {', '.join(known)}")
        if known[key] and isinstance(value, dict):
            _check_keys(value, known[key], name)


def _timed(seconds: dict[str, float], check, *args) -> CheckReport:
    """check(*args), its wall seconds added to `seconds` under the report's name."""
    t0 = time.monotonic()
    report = check(*args)
    seconds[report.check] = seconds.get(report.check, 0.0) + time.monotonic() - t0
    return report


def _instance_entries(config: dict) -> list[tuple[dict, str, brf.Instance | None]]:
    """The `instances` section as (params, skip reason, Instance) entries, parsed
    once per run; an entry `QParams` rejects keeps the raw entry and no Instance."""
    entries = []
    for entry in _section(config, "instances", list, []):
        try:
            p = _parse_qparams(entry)
        except InvalidParams as exc:
            entries.append((dict(entry), str(exc), None))
        else:
            inst = brf.Instance(p)
            entries.append((p.as_dict(), "; ".join(inst.issues), inst))
    return entries


def _qparams_suite(checks):
    """Suite over the run's `_instance_entries`: an entry's checks read its one
    `brf.Instance`, and an entry with a skip reason is one skip per check.  Every
    suite takes the config, a dict it adds each check's seconds to by report
    name, and the entries, which the other suites ignore."""

    def run(config: dict, seconds: dict[str, float], entries: list) -> list[dict]:
        reports = []
        for params, reason, inst in entries:
            for check in checks:
                report = _timed(seconds, check, inst) if not reason else CheckReport(
                    check=check.__name__.removeprefix("check_"), params=params, skipped=reason)
                reports.append(report.as_dict())
        return reports

    return run


def _entry_report(seconds, name: str, entry: dict, parse, check, *args) -> dict:
    """check(parse(entry), *args) as a report, timed into `seconds`; an entry
    that its parameter class or the check rejects (InvalidParams) is a skip
    carrying the raw entry."""
    try:
        return _timed(seconds, lambda: check(parse(entry), *args)).as_dict()
    except InvalidParams as exc:
        return CheckReport(check=name, params=dict(entry), skipped=str(exc)).as_dict()


def _entry_suite(section: str, parse, check):
    """Suite running one check per entry of a config section."""
    name = check.__name__.removeprefix("check_")
    return lambda config, seconds, entries: [_entry_report(seconds, name, entry, parse, check)
                                             for entry in _section(config, section, list, [])]


def _limits_suite(config: dict, seconds: dict[str, float], entries) -> list[dict]:
    """The two limit checks; an instance the parameter class, the guards or
    the check's preconditions reject is one skip carrying the raw entry."""
    reports = []
    section = _section(config, "limits", dict, {})
    wl = _section(section, "wilson", dict, None)
    if wl is not None:
        m_list = _section(wl, "m_list", list, [8, 12, 16, 20])
        if not all(isinstance(m, int) and not isinstance(m, bool) for m in m_list):
            raise ConfigError(f"m_list must be integers: {m_list!r}")
        if any(m0 >= m1 for m0, m1 in zip(m_list, m_list[1:])):
            raise ConfigError(f"m_list must be strictly increasing: {m_list!r}")
        qc = _parse_scalar(wl.get("qc", "3"))
        reports.append(_entry_report(seconds, "wilson_limit", wl.get("instance", {}), _parse_qparams,
                                     wilson.wilson_limit_check, m_list, qc))
    qt = _section(section, "qto1", dict, None)
    if qt is not None:
        h_list = [_parse_scalar(h) for h in _section(qt, "h_list", list, ["1/8", "1/16", "1/32"])]
        if any(h0 <= h1 for h0, h1 in zip(h_list, h_list[1:])):
            raise ConfigError(f"h_list must be strictly decreasing: {[str(h) for h in h_list]}")
        reports.append(_entry_report(seconds, "qto1_convergence", qt.get("instance", {}), _parse_hahn,
                                     wilson.qto1_convergence_check, h_list))
    return reports


_QHAHN_SUITES = {
    "gevp": _qparams_suite([
        gevp.check_gevp, gevp.check_factorization, gevp.check_difference_equation,
        gevp.check_recurrence, gevp.check_tridiagonal_actions, gevp.check_contiguity,
    ]),
    "biortho": _qparams_suite([
        brf.check_weight, brf.check_biorthogonality, brf.check_partner,
        brf.check_partial_fractions,
    ]),
    "algebra": _qparams_suite([
        algebra.check_rqhahn_relations, algebra.check_meta_relations,
        algebra.check_structure_constants,
    ]),
    "casimir": _qparams_suite([algebra.check_casimir_rqhahn, algebra.check_casimir_meta]),
    "potential": _qparams_suite([algebra.check_potential_rqhahn, algebra.check_potential_meta]),
}
SUITES = _QHAHN_SUITES | {
    "wilson": _entry_suite("wilson_instances", _parse_wilson, wilson.check_wilson_biorthogonality),
    "hahn": _entry_suite("hahn_instances", _parse_hahn, wilson.check_hahn_biorthogonality),
    "limits": _limits_suite,
}


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run_verify(config_path: str, suite_names: list[str] | None, out_path: str | None) -> int:
    try:
        with open(config_path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(config, _CONFIG_KEYS)

    selected = suite_names if suite_names is not None else _section(
        config, "suites", list, sorted(SUITES))
    if not selected:
        raise ConfigError("no suites selected")
    unknown = [s for s in selected if not isinstance(s, str) or s not in SUITES]
    if unknown:
        raise ConfigError(f"unknown suites {unknown}; available: {sorted(SUITES)}")

    suites: dict[str, list] = {}
    timing: dict[str, float] = {}
    per_check: dict[str, dict[str, float]] = {}
    entries = None  # parsed for the first q-Hahn suite: no other suite reads `instances`
    t_total = time.monotonic()
    for name in sorted(set(selected)):
        t0 = time.monotonic()
        if entries is None and name in _QHAHN_SUITES:
            entries = _instance_entries(config)
        suites[name] = SUITES[name](config, per_check.setdefault(name, {}), entries)
        timing[name] = time.monotonic() - t0

    counts = {"pass": 0, "fail": 0, "skip": 0}
    for reports in suites.values():
        for rep in reports:
            counts[rep["status"]] += 1
    payload = {
        "artifact": {"name": "qhahn", "version": __version__},
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "suites": suites,
        "summary": counts,
        "timing": {"per_suite_seconds": timing, "per_check_seconds": per_check,
                   "total_seconds": time.monotonic() - t_total},
    }
    text = _dump_json(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if counts["fail"] else 0


def _export_payload(what: str, which: str | None, p: QParams, basis: Basis) -> dict:
    if which is None and what in ("matrix", "brf"):
        raise ConfigError(f"--what {what} needs --which")
    if what == "matrix":
        try:
            op = Operator(which)
        except ValueError:
            raise ConfigError(f"--which must be one of X, Y, Z, V for matrices, got {which!r}") from None
        mat = build_operator(op, basis, p)
        return {"what": "matrix", "which": op.value, "basis": mat.basis.value,
                "params": p.as_dict(),
                "rows": [[frac_str(v) for v in row] for row in mat.rows()]}
    if what == "brf":
        try:
            n = int(which)
        except ValueError:
            raise ConfigError(f"--which must be an index n for brf, got {which!r}") from None
        if not 0 <= n <= p.N:
            raise ConfigError(f"brf index n={n} outside 0..{p.N}")
        vec = brf.brf_u(n, p)
        return {"what": "brf", "which": str(n), "params": p.as_dict(),
                "values": [frac_str(v) for v in vec.values]}
    if what == "weight":
        w = brf.weight_vector(p)
        return {"what": "weight", "which": "w", "params": p.as_dict(),
                "values": [frac_str(v) for v in w]}
    raise ConfigError(f"unknown export target {what!r}")


def _export_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_ALL, lineterminator="\n")
    if payload["what"] == "matrix":
        for row in payload["rows"]:
            writer.writerow(row)
    else:
        writer.writerow(["x", "value"])
        for x, value in enumerate(payload["values"]):
            writer.writerow([str(x), value])
    return buf.getvalue()


def run_export(args: argparse.Namespace) -> int:
    if args.basis is not None and args.what != "matrix":
        raise ConfigError(f"--basis applies to matrices only; --what {args.what} is point values")
    parts = args.params.split(",")
    if len(parts) != 4:
        raise ConfigError(f"--params must be q,A,B,N, got {args.params!r}")
    try:
        parts[3] = int(parts[3])
    except ValueError:
        raise ConfigError(f"N must be an integer, got {parts[3]!r}") from None
    p = _parse_qparams(dict(zip(("q", "A", "B", "N"), parts)))
    guard = validate_params(p, p.N)
    if not guard.valid:
        raise InvalidParams("; ".join(guard.issues()))
    basis = Basis.PHI if args.basis == "phi" else Basis.POINT
    payload = _export_payload(args.what, args.which, p, basis)
    text = _dump_json(payload) if args.format == "json" else _export_csv(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhahn",
        description="Exact verification harness for a q-Hahn biorthogonal system.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites over a parameter panel")
    p_verify.add_argument("--config", required=True, help="panel config JSON path")
    p_verify.add_argument("--suite", nargs="+", default=None, choices=sorted(SUITES),
                          help="suites to run (default: config's 'suites' or all)")
    p_verify.add_argument("--out", default=None, help="report path (default: stdout)")

    p_export = sub.add_parser("export", help="export a matrix or function values exactly")
    p_export.add_argument("--what", required=True, choices=["matrix", "brf", "weight"])
    p_export.add_argument("--which", default=None,
                          help="X|Y|Z|V for matrices, index n for brf (ignored for weight)")
    p_export.add_argument("--params", required=True, help="q,A,B,N with rationals as num/den")
    p_export.add_argument("--format", default="json", choices=["json", "csv"])
    p_export.add_argument("--basis", default=None, choices=["point", "phi"],
                          help="matrices only (default: point)")
    p_export.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize everything else
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "verify":
            return run_verify(args.config, args.suite, args.out)
        return run_export(args)
    except (ConfigError, InvalidParams) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
