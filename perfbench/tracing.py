"""Span tracing of qhahn from outside the package.

`Tracer.patch()` wraps each traced function in every qhahn namespace that
holds it: module globals (so `from .operators import build_operator` in
`brf`, `gevp`, `algebra` and `cli` is covered), the check lists captured by
the CLI's suite closures, the `SUITES` table, and `OpMatrix.__matmul__` on
the class.  Spans stay in memory; `summary()` and `write()` read them once
the traced pass is over.  A target missing from the package, or a check or
suite the tables below do not list, raises `MissingTarget`: lost
instrumentation would otherwise read as 0 calls and 0 seconds, a false gain.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, metric prefix).  qpow, qnum and scalar stay unwrapped:
# they run 20k-190k times per panel pass and would swamp the trace.
LAYER_TARGETS = [
    ("qhahn.qcore", "phi_series", "qcore.phi_series"),
    ("qhahn.qcore", "qpoch", "qcore.qpoch"),
    ("qhahn.qcore", "validate_params", "qcore.validate_params"),
    ("qhahn.operators", "build_operator", "operators.build_operator"),
    ("qhahn.operators", "weighted_adjoint", "operators.weighted_adjoint"),
    ("qhahn.brf", "brf_family", "brf.brf_family"),
    ("qhahn.brf", "brf_u", "brf.brf_u"),
    ("qhahn.brf", "partner_family", "brf.partner_family"),
    ("qhahn.brf", "weight_vector", "brf.weight_vector"),
    ("qhahn.brf", "partial_fraction", "brf.partial_fraction"),
    ("qhahn.brf", "norm_h", "brf.norm_h"),
    ("qhahn.gevp", "mu_coefficients", "gevp.mu_coefficients"),
    ("qhahn.linalg", "mat_mul", "linalg.mat_mul"),
    ("qhahn.linalg", "rref", "linalg.rref"),
    ("qhahn.linalg", "null_space", "linalg.null_space"),
    ("qhahn.linalg", "solve_unique", "linalg.solve_unique"),
    ("qhahn.algebra", "evaluate_poly", "algebra.evaluate_poly"),
    ("qhahn.algebra", "solve_structure_constants", "algebra.solve_structure_constants"),
    ("qhahn.algebra", "structure_constants", "algebra.structure_constants"),
    ("qhahn.algebra", "cyclic_derivative", "algebra.cyclic_derivative"),
    ("qhahn.wilson", "wilson_weight", "wilson.wilson_weight"),
    ("qhahn.wilson", "wilson_u", "wilson.wilson_u"),
    ("qhahn.wilson", "wilson_v", "wilson.wilson_v"),
    ("qhahn.wilson", "wilson_h", "wilson.wilson_h"),
    ("qhahn.wilson", "hahn_u", "wilson.hahn_u"),
    ("qhahn.wilson", "limit_u", "wilson.limit_u"),
]
METHOD_TARGETS = [("qhahn.operators", "OpMatrix", "__matmul__", "operators.OpMatrix.matmul")]
# Checks the CLI calls through a module attribute rather than a suite's check list.
CHECK_TARGETS = [
    ("qhahn.wilson", "check_wilson_biorthogonality"),
    ("qhahn.wilson", "check_hahn_biorthogonality"),
    ("qhahn.wilson", "wilson_limit_check"),
    ("qhahn.wilson", "qto1_convergence_check"),
]
# Layers whose distinct-argument share is reported as distinct_frac.
KEYED = ("operators.build_operator", "brf.brf_family")

SUITE_NAMES = ["algebra", "biortho", "casimir", "gevp", "hahn", "limits", "potential", "wilson"]
CHECK_NAMES = [
    "gevp", "factorization", "difference_equation", "recurrence", "tridiagonal_actions",
    "contiguity", "weight", "biorthogonality", "partner", "partial_fractions",
    "rqhahn_relations", "meta_relations", "structure_constants", "casimir_rqhahn",
    "casimir_meta", "potential_rqhahn", "potential_meta", "wilson_biorthogonality",
    "hahn_biorthogonality", "wilson_limit", "qto1_convergence",
]
CALLS_AND_SELF = [
    "qcore.phi_series", "qcore.qpoch", "operators.build_operator", "operators.OpMatrix.matmul",
    "brf.brf_family", "brf.brf_u", "brf.partner_family", "brf.weight_vector",
    "gevp.mu_coefficients", "linalg.mat_mul", "linalg.rref", "algebra.evaluate_poly",
    "wilson.wilson_weight", "wilson.wilson_u", "wilson.wilson_v", "wilson.wilson_h",
]
SELF_ONLY = [
    "operators.weighted_adjoint", "brf.partial_fraction", "brf.norm_h", "linalg.null_space",
    "linalg.solve_unique", "algebra.solve_structure_constants", "algebra.cyclic_derivative",
    "wilson.hahn_u", "wilson.limit_u",
]
CALLS_ONLY = ["qcore.validate_params", "algebra.structure_constants"]


class MissingTarget(LookupError):
    """A traced name is not where the tables say, or the CLI runs a check or
    suite the tables do not list."""


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the trace yields, with its unit."""
    units = {f"cli.suite.{s}.s": "s" for s in SUITE_NAMES}
    units.update({f"check.{c}.s": "s" for c in CHECK_NAMES})
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({f"{name}.self_s": "s" for name in SELF_ONLY})
    units.update({f"{name}.calls": "count" for name in CALLS_ONLY})
    units.update({f"{name}.distinct_frac": "ratio" for name in KEYED})
    units["brf.max_bits"] = "bits"
    return units


def _qhahn_modules() -> dict:
    return {n: m for n, m in list(sys.modules.items()) if n == "qhahn" or n.startswith("qhahn.")}


def cell_is_full(cell) -> bool:
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True


def suite_checks(suite) -> list:
    """The check functions a CLI suite closure captured; [] for a suite that
    calls its check through a module attribute."""
    for cell in suite.__closure__ or ():
        held = cell.cell_contents if cell_is_full(cell) else None
        if isinstance(held, list):
            return [c for c in held if callable(c)]
    return []


def _lookup(modules: dict, mod_name: str, attr: str):
    try:
        return getattr(modules[mod_name], attr)
    except (KeyError, AttributeError):
        raise MissingTarget(f"{mod_name}.{attr} not found") from None


def _max_bits(family) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for member in family.members for v in member.values), default=0)


class Tracer:
    """Spans of the calls made while patched: [name, parent, start, end, child time]."""

    def __init__(self):
        self.spans: list[list] = []
        self.keys: dict[str, list] = defaultdict(list)
        self.families: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn, kind: str = "layer"):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keys = self.keys[name] if name in KEYED else None
        sig = inspect.signature(fn) if keys is not None else None
        families = self.families if name == "brf.brf_family" else None

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, parent, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += rec[3] - rec[2]
            if kind == "check":
                rec[0] = "check." + getattr(result, "check", fn.__name__)
            if keys is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                keys.append(tuple(bound.arguments.values()))
            if families is not None:
                families.append(result)
            return result

        traced.__wrapped__ = fn
        traced.perfbench_span = name
        return traced

    def _set(self, container, key, value) -> None:
        """Item assignment on a list or dict, attribute assignment otherwise;
        the old value is kept for the restore."""
        indexed = isinstance(container, (list, dict))
        self._undo.append((container, key, container[key] if indexed else getattr(container, key)))
        if indexed:
            container[key] = value
        else:
            setattr(container, key, value)

    def _replace_everywhere(self, orig, wrapper) -> None:
        """Rebind `orig` to `wrapper` in every qhahn module global, every
        closure cell of a qhahn function and every list such a cell holds."""
        for mod in _qhahn_modules().values():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapper)
        for fn in self._closures():
            for cell in fn.__closure__:
                if not cell_is_full(cell):
                    continue
                held = cell.cell_contents
                if held is orig:
                    self._set(cell, "cell_contents", wrapper)
                elif isinstance(held, list):
                    for i, item in enumerate(held):
                        if item is orig:
                            self._set(held, i, wrapper)

    @staticmethod
    def _closures():
        for mod in _qhahn_modules().values():
            for value in list(vars(mod).values()):
                values = value.values() if isinstance(value, dict) else (value,)
                for v in values:
                    if (inspect.isfunction(v) and v.__closure__
                            and not hasattr(v, "perfbench_span")):
                        yield v

    @contextmanager
    def patch(self):
        """Wrap every target for the duration of the block, then restore."""
        import qhahn.cli  # noqa: F401  (loads every traced module)

        modules = _qhahn_modules()
        try:
            for mod_name, attr, metric in LAYER_TARGETS:
                orig = _lookup(modules, mod_name, attr)
                self._replace_everywhere(orig, self._wrap(metric, orig))
            for mod_name, cls_name, attr, metric in METHOD_TARGETS:
                cls = _lookup(modules, mod_name, cls_name)
                if attr not in vars(cls):
                    raise MissingTarget(f"{mod_name}.{cls_name}.{attr} not found")
                self._set(cls, attr, self._wrap(metric, vars(cls)[attr]))
            suites = _lookup(modules, "qhahn.cli", "SUITES")
            if sorted(suites) != SUITE_NAMES:
                raise MissingTarget(f"cli.SUITES is {sorted(suites)}, traced {SUITE_NAMES}")
            checks = []
            for suite in suites.values():
                checks += [c for c in suite_checks(suite) if c not in checks]
            checks += [_lookup(modules, m, a) for m, a in CHECK_TARGETS]
            if len(checks) != len(CHECK_NAMES):
                raise MissingTarget(f"the CLI runs {len(checks)} checks, "
                                    f"{len(CHECK_NAMES)} are traced")
            for fn in checks:
                self._replace_everywhere(fn, self._wrap(fn.__name__, fn, kind="check"))
            for name in list(suites):
                self._set(suites, name, self._wrap(f"cli.suite.{name}", suites[name]))
            yield self
        finally:
            while self._undo:
                container, key, old = self._undo.pop()
                if isinstance(container, (list, dict)):
                    container[key] = old
                else:
                    setattr(container, key, old)

    def reset(self) -> None:
        """Drop recorded spans; in place, because the wrappers hold these lists."""
        self.spans.clear()
        for keys in self.keys.values():
            keys.clear()
        self.families.clear()

    def summary(self, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset; span
        times are multiplied by `scale`, the pass's reference seconds per wall
        second, which also takes the speed sampler's share out of them."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for name, _, start, end, child in self.spans:
            if name.startswith("check.") and name[6:] not in CHECK_NAMES:
                raise MissingTarget(f"{name} ran but is not traced")
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child
        out = {}
        for metric in per_layer_units():
            base, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls.get(base, 0)
            elif field == "self_s":
                out[metric] = own.get(base, 0.0) * scale
            elif field == "s":
                out[metric] = total.get(base, 0.0) * scale
            elif field == "distinct_frac":
                keys = self.keys.get(base, [])
                out[metric] = len(set(keys)) / len(keys) if keys else 0.0
        out["brf.max_bits"] = max((_max_bits(f) for f in self.families), default=0)
        return out

    def write(self, path) -> None:
        """All spans, one JSON array per line: name, parent index, start, end."""
        with open(path, "w") as fh:
            for name, parent, start, end, _ in self.spans:
                fh.write(json.dumps([name, parent, round(start, 9), round(end, 9)]) + "\n")
