"""The public surface: what the package exports is what its modules declare."""

import ast
import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
import types
from importlib import resources

import pytest

import qhahn

MODULES = [importlib.import_module(f"qhahn.{info.name}")
           for info in pkgutil.iter_modules(qhahn.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_declared_name_resolves(module):
    assert sorted(set(module.__all__)) == sorted(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_declared_function_or_class_is_defined_there(module):
    # a module declares what it defines, not what it imports
    objs = {name: getattr(module, name) for name in module.__all__}
    assert [name for name, obj in objs.items() if isinstance(obj, (type, types.FunctionType))
            and obj.__module__ != module.__name__] == []


def test_every_reexport_is_declared_by_its_home_module():
    undeclared = []
    for name in dir(qhahn):
        obj = getattr(qhahn, name)
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        home = importlib.import_module(obj.__module__)
        if name not in getattr(home, "__all__", ()):
            undeclared.append(f"{home.__name__}.{name}")
    assert undeclared == []


# Functions the default panel and the export targets never enter, each with
# the reason it stays.
UNREACHED = {
    "linalg.null_space": "the dense fallback of `check_partner`: it proves a kernel "
                         "dimension when a pencil has a zero superdiagonal entry, as "
                         "at m = 0 of a valid instance with B = A q^(N-1), where "
                         "Y[1][0] = [0]_q and lambda_0 = 0; no panel instance has one",
    "linalg.tridiagonal_kernel": "the kernel route of `check_partner`, for an m whose "
                                 "premises of Y = X V fail; every m of a panel instance "
                                 "passes on X^-T h_m without forming a kernel",
    "linalg.mat_mul": "the dense product of `OpMatrix` and the tests' reference for the "
                      "integer-row products of the checks, kept while the benchmark's "
                      "tracer wraps it",
    "linalg.rref": "the full reduction over the field of its input, entered only through "
                   "`null_space`; `solve_unique` eliminates on integers",
    "operators.OpMatrix.__matmul__": "the documented dense product `@` and the tests' "
                                     "reference; no check multiplies matrices with it, and "
                                     "it stays while the benchmark's tracer wraps it",
    "operators.weighted_adjoint": "public dense V*, the reference the partner tests "
                                  "compare against; no check forms it",
    "algebra.NCPoly.monomial": "the one-word polynomial, the spelling its callers and the "
                               "tests use; the library builds each polynomial as one dict",
    "brf.BRFFamily.members": "a family's Fraction values, formed for a caller that reads "
                             "them; every check reads the integer rows",
    "operators.basis_change": "the change to the phi basis, for the third basis of the roadmap",
    "operators.phi_function": "the phi basis functions that `basis_change` tabulates",
    "qcore.phi_series": "the documented field-generic q-series sum, the tests' oracle for "
                        "every series row and limit target, kept while the benchmark's "
                        "tracer wraps it",
    "reports.CheckReport.add_violation": "runs only when a check fails",
}


def defined_functions() -> dict[tuple[str, int, str], str]:
    """Every def in the package, methods and nested functions included, as
    (file name, first line, name) -> dotted name.  The first line is that of
    the first decorator, as a code object counts it."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path.name, first, child.name)] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(pathlib.Path(qhahn.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return out


# Runs the CLI commands given as JSON in argv[1] under a profiler set before
# qhahn is imported, so that functions its import calls count too, and
# prints each function entered as (file name, first line, name).
PROFILED_RUNS = """
import json, pathlib, sys
entered = set()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
from qhahn import cli
codes = [cli.main(run) for run in json.loads(sys.argv[1])]
sys.setprofile(None)
assert codes == [0] * len(codes), codes
print(json.dumps([(pathlib.Path(c.co_filename).name, c.co_firstlineno, c.co_name) for c in entered]))
"""


def test_verify_and_export_reach_every_function(tmp_path):
    # the default panel, then every export target in both formats, the
    # matrices in both bases
    out = ["--out", str(tmp_path / "out")]
    runs = [["verify", "--config", str(resources.files("qhahn").joinpath("data/default_panel.json")),
             *out]]
    for what, which in [("matrix", op) for op in "XYZV"] + [("brf", "2"), ("weight", "w")]:
        for basis, fmt in (("point", "json"), ("phi", "csv")):
            flags = ["--basis", basis] if what == "matrix" else []
            runs.append(["export", "--what", what, "--which", which, *flags,
                         "--format", fmt, "--params", "1/2,32,1/512,3", *out])
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(qhahn.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", PROFILED_RUNS, json.dumps(runs)],
                           capture_output=True, text=True, check=True, env=env)
    entered = {tuple(key) for key in json.loads(child.stdout)}
    unreached = sorted(name for key, name in defined_functions().items() if key not in entered)
    assert unreached == sorted(UNREACHED)


def ratio_readers(node, owner):
    """The dotted name of the def or class around each `.as_integer_ratio`
    attribute under node, the module's stem for one at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and child.attr == "as_integer_ratio":
            yield owner
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from ratio_readers(child, f"{owner}.{child.name}" if named else owner)


def test_only_the_one_gate_takes_values_apart():
    # an exact value becomes integers only in `qcore._pair`, so no kernel
    # grows a second gate or reads a float silently as the binary fraction
    # it stores
    readers = {reader for path in pathlib.Path(qhahn.__file__).parent.glob("*.py")
               for reader in ratio_readers(ast.parse(path.read_text()), path.stem)}
    assert readers == {"qcore._pair"}
