"""Set-up probe for `setup_s`: everything `qhahn verify` does before its
first check.  It imports `qhahn.cli` (which pulls in mpmath), reads the config
and parses and guards every instance in it with the CLI's own functions.  Then
it prints the time it was ready on the system-wide monotonic clock, which the
benchmark reads against the time it started the interpreter.

Usage: python3 setup_probe.py <src dir> <config path>
"""

import json
import sys
import time


def parse(cli, config: dict) -> list:
    """Every instance the config names, as the CLI's suites parse it.  The CLI
    guards only the q-Hahn panel instances with `validate_params`."""
    out = []
    for entry in config.get("instances", []):
        p = cli._parse_qparams(entry)
        cli.validate_params(p, p.N)
        out.append(p)
    out += [cli._parse_wilson(e) for e in config.get("wilson_instances", [])]
    out += [cli._parse_hahn(e) for e in config.get("hahn_instances", [])]
    limits = config.get("limits", {})
    if "wilson" in limits:
        out.append(cli._parse_qparams(limits["wilson"]["instance"]))
    if "qto1" in limits:
        out.append(cli._parse_hahn(limits["qto1"]["instance"]))
    return out


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from qhahn import cli

    with open(sys.argv[2], "rb") as fh:
        parse(cli, json.loads(fh.read()))
    print(time.perf_counter())
