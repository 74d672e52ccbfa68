"""The algebra layer over the rational function field Q(q, A, B).

The builders read an `Instance` and compute in the field of its parameters,
so over sympy's field of rational functions in q, A, B the relations, the
Casimir values and the potentials are identities in the parameters, not
only at the panel's rational points.  The library's `evaluate_poly` works on
integer rows, over Fraction only, so the matrices here are evaluated by the
field-generic oracle `dense_evaluate_poly` of `tests/conftest.py`.  sympy
is a test-only dependency: the library never imports it.
"""

import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

sympy = pytest.importorskip("sympy")

import qhahn  # noqa: E402
from qhahn import algebra  # noqa: E402
from qhahn.algebra import (  # noqa: E402
    casimir_meta,
    casimir_rqhahn,
    cyclic_derivative,
    meta_relation_polys,
    potential_meta,
    potential_rqhahn,
    rqhahn_relation_polys,
)
from qhahn.brf import Instance  # noqa: E402

from conftest import dense_evaluate_poly, dense_is_zero, display_relation_polys  # noqa: E402

_, Q, A, B = sympy.field("q,A,B", sympy.QQ)


@dataclasses.dataclass(frozen=True)
class FieldParams:
    """A stand-in for `QParams` whose q, A, B are elements of Q(q, A, B);
    `QParams` itself admits exact rationals only."""

    q: object
    A: object
    B: object
    N: int


def symbolic(N):
    return Instance(FieldParams(Q, A, B, N))


@pytest.mark.parametrize("N", range(4))
def test_relations_vanish_over_the_field(N):
    inst = symbolic(N)
    relations = [*rqhahn_relation_polys(inst).values(), *meta_relation_polys(inst).values()]
    assert len(relations) == 6
    for poly in relations:
        assert dense_is_zero(dense_evaluate_poly(poly, inst).entries)


@pytest.mark.parametrize("N", range(4))
def test_relation_table_gives_the_displayed_relations_over_the_field(N):
    # the table's relations are the paper's displays as identities in (q, A, B)
    inst = symbolic(N)
    built = {**rqhahn_relation_polys(inst), **meta_relation_polys(inst)}
    assert {name: poly.terms for name, poly in built.items()} == {
        name: poly.terms for name, poly in display_relation_polys(inst).items()}


@pytest.mark.parametrize("N", range(4))
def test_casimirs_take_their_values_over_the_field(N):
    inst = symbolic(N)
    assert dense_is_zero(dense_evaluate_poly(casimir_rqhahn(inst), inst).entries)
    value = algebra._casimir_meta_value(inst.p)
    assert value != 0
    meta = dense_evaluate_poly(casimir_meta(inst), inst)
    assert all(v == (value if i == j else 0)
               for i, row in enumerate(meta.entries) for j, v in enumerate(row))


@pytest.mark.parametrize("N", range(4))
def test_potentials_give_their_relations_over_the_field(N):
    # each cyclic derivative is a nonzero constant times its relation; the
    # constant is -1, as on the panel
    inst = symbolic(N)
    for phi, rels, pairs in [
        (potential_rqhahn(inst), rqhahn_relation_polys(inst), (("Y", "XZ"), ("X", "ZY"), ("Z", "YX"))),
        (potential_meta(inst), meta_relation_polys(inst), (("V", "XZ"), ("X", "ZV"), ("Z", "VX"))),
    ]:
        for gen, name in pairs:
            deriv, rel = cyclic_derivative(phi, gen), rels[name]
            ref = min(rel.terms)
            scale = deriv.terms.get(ref, 0) / rel.terms[ref]
            assert scale == -1
            assert deriv.terms == (scale * rel).terms


def test_field_certification_catches_a_shifted_constant(monkeypatch):
    # xi_5 + 1 in Q(q, A, B) breaks the ZY relation and only it
    good = algebra.structure_constants

    def shifted(p):
        sc = good(p)
        xi = list(sc.xi)
        xi[5] += 1
        return dataclasses.replace(sc, xi=tuple(xi))

    monkeypatch.setattr(algebra, "structure_constants", shifted)
    inst = symbolic(2)
    broken = [name for name, poly in rqhahn_relation_polys(inst).items()
              if not dense_is_zero(dense_evaluate_poly(poly, inst).entries)]
    assert broken == ["ZY"]


def test_the_library_does_not_import_sympy():
    code = "import sys, qhahn, qhahn.cli; print(any(m.split('.')[0] == 'sympy' for m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(qhahn.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env)
    assert out.stdout.strip() == "False"
