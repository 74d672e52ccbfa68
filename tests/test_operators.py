import random
import re
from fractions import Fraction as F

import pytest

from qhahn import algebra, brf, linalg, operators, reports
from qhahn.brf import Instance, brf_family, weight_vector
from qhahn.gevp import check_factorization
from qhahn.operators import (
    Basis,
    GridVector,
    Operator,
    OpMatrix,
    PoleOnGrid,
    band_coefficients,
    basis_change,
    build_operator,
    phi_function,
    weighted_adjoint,
)
from qhahn.qcore import (
    DimensionMismatch,
    QParams,
    SingularSystem,
    ZeroWeight,
    eigenvalue,
    qnum,
    qpow,
)

from conftest import CANONICAL, PANEL, SMALL_PANEL, dense_evaluate_poly, identity


def test_phi_function_degree_zero_is_one(canonical):
    assert all(phi_function(canonical, 0, x) == 1 for x in range(canonical.N + 1))


def test_phi_function_pole_detected():
    # A = q^1 puts a zero denominator of phi_2 on the grid
    p = QParams(F(1, 2), F(1, 2), F(1, 512), 3)
    with pytest.raises(PoleOnGrid):
        phi_function(p, 2, 1)


def test_basis_change_columns_are_phi_values(canonical):
    phi = basis_change(canonical)
    for x in range(canonical.N + 1):
        for n in range(canonical.N + 1):
            assert phi.entries[x][n] == phi_function(canonical, n, x)


def test_point_and_phi_matrices_are_conjugate():
    # M_point  Phi = Phi M_phi for every operator, exactly
    for p in SMALL_PANEL:
        phi = basis_change(p).entries
        for op in Operator:
            m_point = build_operator(op, Basis.POINT, p).entries
            m_phi = build_operator(op, Basis.PHI, p).entries
            assert linalg.mat_mul(m_point, phi) == linalg.mat_mul(phi, m_phi)


def test_point_basis_shapes():
    # in the point basis X and Z are lower-bidiagonal, Y is tridiagonal,
    # V fills the lower triangle plus one superdiagonal
    shapes = {Operator.X: (1, 0), Operator.Z: (1, 0),
              Operator.Y: (1, 1), Operator.V: (None, 1)}
    for p in SMALL_PANEL:
        for op, (low, up) in shapes.items():
            m = build_operator(op, Basis.POINT, p)
            for i in range(p.N + 1):
                for j in range(p.N + 1):
                    if (low is not None and i - j > low) or j - i > up:
                        assert m.entries[i][j] == 0


BANDED = [(op, basis) for op in Operator for basis in Basis
          if (op, basis) != (Operator.V, Basis.POINT)]


def _terms_reaching_off_grid(p):
    """(operator, basis, slot) of each declared coefficient that is nonzero
    where its entry would leave the grid: raise at x = N and lower at x = 0
    in the point basis, lower at n = 0 in the phi basis (the raise at n = N
    multiplies phi_{N+1}, which vanishes on the grid)."""
    edges = {Basis.POINT: ((0, p.N), (2, 0)), Basis.PHI: ((2, 0),)}
    return [(op, basis, slot) for op, basis in BANDED for slot, i in edges[basis]
            if band_coefficients(op, basis, p, i)[slot]]


@pytest.mark.parametrize("p", PANEL + [QParams(F(1, 2), F(3), F(1, 5), 0)])
def test_band_declarations_vanish_off_the_grid(p):
    assert _terms_reaching_off_grid(p) == []


def test_off_grid_scan_catches_a_reaching_declaration(canonical, monkeypatch):
    # X has no raising term; declaring one makes it reach f(N+1) at x = N
    good = operators._BANDS[(Operator.X, Basis.POINT)]
    monkeypatch.setitem(operators._BANDS, (Operator.X, Basis.POINT),
                        lambda p, x: (p.q**0, *good(p, x)[1:]))
    assert _terms_reaching_off_grid(canonical) == [(Operator.X, Basis.POINT, 0)]


def test_phi_basis_z_is_raising(canonical):
    # Z phi_k = phi_{k+1} - phi_k: columns carry -1 on the diagonal and
    # +1 just below it
    m = build_operator(Operator.Z, Basis.PHI, canonical)
    for k in range(canonical.N + 1):
        for i in range(canonical.N + 1):
            expect = F(-1) if i == k else F(1) if i == k + 1 else F(0)
            assert m.entries[i][k] == expect


def test_v_phi_diagonal_carries_eigenvalues():
    # V is upper-bidiagonal in the phi basis and its diagonal is the
    # eigenvalue list of the reduced problem
    for p in SMALL_PANEL:
        m = build_operator(Operator.V, Basis.PHI, p)
        for n in range(p.N + 1):
            assert m.entries[n][n] == eigenvalue(n, p)
            for k in range(p.N + 1):
                if k != n and k != n + 1:
                    assert m.entries[n][k] == 0


def test_factorization_exact_everywhere():
    for p in PANEL:
        assert check_factorization(Instance(p)).status == "pass"


def test_factorization_catches_a_bumped_v_entry(canonical, monkeypatch):
    # the shared point-basis V with V[2][0] + 1/1000: X V = Y and the
    # forward substitution fail there, while the phi basis, built apart, holds
    good = brf.build_operator

    def bumped(which, basis, p):
        m = good(which, basis, p)
        if (which, basis) != (Operator.V, Basis.POINT):
            return m
        rows = m.rows()
        rows[2][0] += F(1, 1000)
        return OpMatrix(rows, basis, p)

    monkeypatch.setattr(brf, "build_operator", bumped)
    report = check_factorization(Instance(canonical))
    assert [v["basis"] for v in report.violations] == ["point", "point"]
    assert report.violations[1]["residual"] == "forward substitution mismatch"
    assert report.details["phi_residual"] == "0/1"


@pytest.mark.parametrize("N", [0, 3])
def test_forward_solve_raises_on_a_zero_diagonal_entry_of_x(N):
    # A = 1 makes X[0][0] = [-alpha]_q vanish: the row-0 step divides by it
    with pytest.raises(SingularSystem) as info:
        check_factorization(Instance(QParams(F(1, 2), F(1), F(1, 5), N)))
    assert str(info.value) == "zero diagonal entry at row 0"


def test_factorization_direct_product(canonical):
    for basis in (Basis.POINT, Basis.PHI):
        x = build_operator(Operator.X, basis, canonical)
        v = build_operator(Operator.V, basis, canonical)
        y = build_operator(Operator.Y, basis, canonical)
        assert (x @ v).entries == y.entries


def test_identity_is_neutral(canonical):
    ident = OpMatrix(identity(canonical.N + 1, canonical.q**0), Basis.POINT, canonical)
    z = build_operator(Operator.Z, Basis.POINT, canonical)
    assert (ident @ z).entries == z.entries
    assert (z @ ident).entries == z.entries


def test_matrix_ring_laws(canonical):
    x = build_operator(Operator.X, Basis.POINT, canonical)
    y = build_operator(Operator.Y, Basis.POINT, canonical)
    z = build_operator(Operator.Z, Basis.POINT, canonical)
    assert ((x @ y) @ z).entries == (x @ (y @ z)).entries
    def add(a, b):
        return [[u + v for u, v in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)]

    assert (x @ OpMatrix(add(y, z), Basis.POINT, canonical)).rows() == add(x @ y, x @ z)


@pytest.mark.parametrize("basis, p", [
    (Basis.POINT, QParams(F(1, 2), F(3), F(1, 5), CANONICAL.N)),
    (Basis.POINT, QParams(CANONICAL.q, CANONICAL.A, CANONICAL.B, CANONICAL.N + 1)),
    (Basis.PHI, CANONICAL),
], ids=["other-instance-same-n", "other-n", "phi-basis"])
def test_matrix_times_grid_vector_checks_its_operands(basis, p):
    # grid values take a point-basis matrix of their own instance, as
    # OpMatrix @ OpMatrix takes operands of one basis and instance
    m = build_operator(Operator.Y, basis, CANONICAL)
    with pytest.raises(DimensionMismatch):
        m @ GridVector([F(1)] * (p.N + 1), p)
    with pytest.raises(DimensionMismatch):
        m @ build_operator(Operator.X, Basis.POINT, p)


@pytest.mark.parametrize("make, error, message", [
    (lambda p: GridVector([F(1)] * p.N, p), DimensionMismatch, "expected 4 values, got 3"),
    (lambda p: OpMatrix([[F(1)] * p.N] * (p.N + 1), Basis.POINT, p), DimensionMismatch,
     "operator matrix must be 4x4"),
    (lambda p: build_operator(Operator.X, Basis.POINT, p) @ 3, TypeError, "unsupported operand"),
    (lambda p: weighted_adjoint(build_operator(Operator.X, Basis.PHI, p), weight_vector(p)),
     DimensionMismatch, "weighted adjoints are defined in the point basis"),
    (lambda p: weighted_adjoint(build_operator(Operator.X, Basis.POINT, p),
                                GridVector([F(1)] * p.N + [F(0)], p)),
     ZeroWeight, "weight vector has a zero entry"),
    (lambda p: basis_change(QParams(p.q, p.q, p.B, p.N)), PoleOnGrid, "A = q\\^1 with 1 in"),
], ids=["short-values", "short-rows", "matmul-int", "adjoint-phi", "adjoint-zero-weight",
        "basis-change-pole"])
def test_operands_that_do_not_fit_are_refused(make, error, message):
    # an operand that does not fit its instance's grid, basis, weight or
    # poles is refused by name before any sum runs
    with pytest.raises(error, match=message):
        make(CANONICAL)


def _random_vector(rng, p):
    vals = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(p.N + 1)]
    return GridVector(tuple(vals), p)


def test_weighted_adjoint_pairing_contract():
    # <M f, g>_w = <f, M* g>_w for 100 seeded random rational vector pairs
    rng = random.Random(20240817)
    for p in (CANONICAL, PANEL[2]):
        w = weight_vector(p)
        for op in (Operator.X, Operator.Y, Operator.Z):
            m = build_operator(op, Basis.POINT, p)
            adj = weighted_adjoint(m, w)
            for _ in range(50):
                f = _random_vector(rng, p)
                g = _random_vector(rng, p)
                lhs = sum(w[x] * (m @ f)[x] * g[x] for x in range(p.N + 1))
                rhs = sum(w[x] * f[x] * (adj @ g)[x] for x in range(p.N + 1))
                assert lhs == rhs


def reflected_adjoint_mismatches(p, scale=1, tail_step=1):
    """The (x, y) where (R V* R)[x][y] differs from c V'[x][y], entry by
    entry in plain Fractions: V* = `weighted_adjoint`(V, w), R the reversal
    x -> N - x, V' the point-basis V at `reflected_params(p)` and
    c = B q^(-N-2).  The controls take c times `scale`, or the tail entry
    [x][x - k] of V' times `tail_step`**k, its running step off by that
    factor."""
    N = p.N
    adj = weighted_adjoint(build_operator(Operator.V, Basis.POINT, p), weight_vector(p)).entries
    refl = build_operator(Operator.V, Basis.POINT, brf.reflected_params(p)).entries
    c = scale * qpow(p, -N - 2, 0, 1)
    return [(x, y) for x in range(N + 1) for y in range(N + 1)
            if adj[N - x][N - y] != c * refl[x][y] * tail_step ** max(x - y, 0)]


@pytest.mark.parametrize("p", PANEL, ids=[f"panel{i}" for i in range(len(PANEL))])
def test_v_adjoint_is_reflected_v(p):
    # V* = B q^(-N-2) V' after the reversal, at every entry; a constant off
    # by q, or a tail whose step is off by the reflected instance's q, fails
    assert reflected_adjoint_mismatches(p) == []
    assert reflected_adjoint_mismatches(p, scale=p.q)
    assert reflected_adjoint_mismatches(p, tail_step=brf.reflected_params(p).q)


def closed_form_adjoint(which, p):
    """Closed-form point-basis weighted adjoint of X, Y or Z."""
    n1, N = p.N + 1, p.N
    y = [band_coefficients(Operator.Y, Basis.POINT, p, x) for x in range(n1)]
    m = linalg.zeros(n1, n1)
    for x in range(n1):
        if which is Operator.X:
            m[x][x] = qnum(p, x, -1)
            if x < N:
                m[x][x + 1] = (-qpow(p, 1, -1, 1) * qnum(p, x - N) * qnum(p, x + 1, -1)
                               / qnum(p, x - N + 2, -1, 1))
        elif which is Operator.Z:
            m[x][x] = -p.q**0
            if x < N:
                m[x][x + 1] = qpow(p, 1, -1, 1) * qnum(p, x - N) / qnum(p, x - N + 2, -1, 1)
        else:
            m[x][x] = y[x][1]
            if x > 0:
                m[x][x - 1] = (qpow(p, -1, 0, -1) * qnum(p, x) * qnum(p, x - N + 1, -1, 1)
                               / (qnum(p, x - N - 1) * qnum(p, x, -1)) * y[x - 1][0])
            if x < N:
                m[x][x + 1] = (qpow(p, 1, 0, 1) * qnum(p, x - N) * qnum(p, x + 1, -1)
                               / (qnum(p, x + 1) * qnum(p, x - N + 2, -1, 1)) * y[x + 1][2])
    return m


def test_closed_form_adjoints_match():
    for p in SMALL_PANEL:
        w = weight_vector(p)
        for op in (Operator.X, Operator.Y, Operator.Z):
            direct = weighted_adjoint(build_operator(op, Basis.POINT, p), w)
            assert direct.rows() == closed_form_adjoint(op, p)


def test_operators_act_on_family_members(canonical):
    # applying Z to U_0 = 1 reads off Z's row sums
    fam = brf_family(canonical)
    z = build_operator(Operator.Z, Basis.POINT, canonical)
    out = z @ fam.members[0]
    for x in range(canonical.N + 1):
        assert out[x] == sum(z.entries[x])


@pytest.mark.parametrize("p", PANEL + [QParams(F(1, 2), F(3), F(1, 5), 0)],
                         ids=[f"panel{i}" for i in range(len(PANEL))] + ["N0"])
def test_no_float_reaches_the_exact_core(p, monkeypatch):
    # the core takes the field of the instance: every value built from an
    # exact instance is a Fraction, or an int 0 or 1 that no arithmetic
    # reached; an int / int division anywhere would leave a float here
    inst = Instance(p)
    phi = [build_operator(op, Basis.PHI, p) for op in Operator]
    values = [v for m in (*inst.ops.values(), *phi) for row in m.entries for v in row]
    values += [v for u in (*inst.family.members, *inst.partners.members, inst.weight) for v in u]
    odd = {type(v).__name__ for v in values
           if type(v) is not F and not (type(v) is int and v in (0, 1))}
    # the algebra layer: its polynomials carry int coefficients as written
    # (1, -1), so any int passes there; their matrix values in the field of
    # the instance (the dense oracle: the library's integer rows build
    # Fractions from ints), and every value an algebra report serializes
    # (the potential scales among them), too
    polys = [*algebra.rqhahn_relation_polys(inst).values(),
             *algebra.meta_relation_polys(inst).values(),
             algebra.potential_rqhahn(inst), algebra.potential_meta(inst),
             algebra.casimir_rqhahn(inst), algebra.casimir_meta(inst)]
    values = [c for poly in polys for c in poly.terms.values()]
    values += [v for poly in polys for row in dense_evaluate_poly(poly, inst).entries for v in row]
    serialized = []
    for module in (algebra, reports):
        monkeypatch.setattr(module, "frac_str", lambda v, good=module.frac_str: (
            serialized.append(v) or good(v)))
    for check in (algebra.check_rqhahn_relations, algebra.check_meta_relations,
                  algebra.check_casimir_rqhahn, algebra.check_casimir_meta,
                  algebra.check_potential_rqhahn, algebra.check_potential_meta):
        assert check(inst).status == "pass"
    # three residual norms and three scales per pair of checks, two diagonals
    assert len(serialized) == 3 * 2 + 2 * (p.N + 1) + 3 * 2
    odd |= {type(v).__name__ for v in values + serialized if type(v) not in (F, int)}
    assert not odd


def former_v_tail(p):
    """The lowering tail of V in the point basis as its entries' display,
    tail q^k phi_k(x) at [x][x - k], with phi_k(x) from `phi_function`."""
    for x in range(p.N + 1):
        tail = qpow(p, 1 - x, -1, 1) * qnum(p, -1, 1, -1) * qnum(p, -1, 1)
        for k in range(1, x + 1):
            yield x, k, tail * p.q**k * phi_function(p, k, x)


@pytest.mark.parametrize("p", PANEL + [QParams(F(1, 2), F(3), F(1, 5), 24)],
                         ids=[f"panel{i}" for i in range(len(PANEL))] + ["N24"])
def test_v_tail_running_product_equals_its_display(p):
    v = build_operator(Operator.V, Basis.POINT, p).entries
    for x, k, value in former_v_tail(p):
        assert v[x][x - k] == value


def unguarded_instances(count=400, seed=20261018):
    """Seeded instances the guards were never asked about: N <= 6, about 15 %
    with A = 1 and 30 % with A a power of q near the grid."""
    rng = random.Random(seed)
    qs = [F(1, 2), F(-1, 2), F(2), F(2, 3), F(3, 2), F(-3), F(5, 7)]
    for _ in range(count):
        q, N, u = rng.choice(qs), rng.randint(0, 6), rng.random()
        if u < 0.15:
            A = F(1)
        elif u < 0.45:
            A = q ** rng.randint(-N - 1, N + 1)
        else:
            A = F(rng.choice([-7, -3, -1, 2, 5, 9]), rng.randint(1, 7))
        yield QParams(q, A, F(rng.choice([-5, -1, 1, 3]), rng.randint(1, 9)), N)


def test_z_and_v_raise_pole_on_grid_on_the_same_instances():
    # Z's lowering term [-x]_q / [alpha - x]_q and V's tail both have a pole
    # on the grid exactly when A = q^m, 1 <= m <= N; A = 1 (m = 0) builds both
    raised = {Operator.Z: [], Operator.V: []}
    poles = []
    for p in unguarded_instances():
        for op in raised:
            try:
                build_operator(op, Basis.POINT, p)
            except PoleOnGrid:
                raised[op].append(p)
        if any(p.A == p.q**m for m in range(1, p.N + 1)):
            poles.append(p)
    assert raised[Operator.Z] == raised[Operator.V] == poles
    assert len(poles) >= 20


def test_z_pole_names_its_row():
    p = QParams(F(1, 2), F(1, 4), F(1, 5), 3)
    with pytest.raises(PoleOnGrid, match=re.escape("pole at x = 2: [alpha - 2]_q = 0")):
        build_operator(Operator.Z, Basis.POINT, p)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_v_builder_raises_at_the_first_pole_of_the_display(m):
    # A = q^m puts a pole of phi_k(x) on the grid for x >= m
    p = QParams(F(1, 2), F(1, 2) ** m, F(1, 5), 3)
    with pytest.raises(PoleOnGrid) as former:
        list(former_v_tail(p))
    with pytest.raises(PoleOnGrid, match=re.escape(str(former.value))):
        build_operator(Operator.V, Basis.POINT, p)
