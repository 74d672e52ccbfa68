from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhahn import linalg
from qhahn.operators import Basis, GridVector, OpMatrix
from qhahn.qcore import QHahnError, QParams, RankDeficient, SingularSystem

from conftest import GF, identity, outcome, solve_by_rref, tridiagonal_null_space

nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)
any_frac = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@contextmanager
def counting_null_space():
    """Count the calls `tridiagonal_null_space` makes to `null_space`."""
    calls = []
    good = linalg.null_space
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "null_space", lambda a: calls.append(a) or good(a))
        yield calls


def tridiagonal(sub, diag, sup):
    n = len(diag)
    a = linalg.zeros(n, n)
    for i in range(n):
        a[i][i] = diag[i]
        if i:
            a[i][i - 1] = sub[i - 1]
        if i < n - 1:
            a[i][i + 1] = sup[i]
    return a


@st.composite
def singular_tridiagonal(draw):
    """A tridiagonal matrix with nonzero superdiagonal and a kernel vector
    with no zero entry: the diagonal is solved from the vector, row by row."""
    n = draw(st.integers(1, 7))
    v = draw(st.lists(nonzero, min_size=n, max_size=n))
    sub = draw(st.lists(any_frac, min_size=n - 1, max_size=n - 1))
    sup = draw(st.lists(nonzero, min_size=n - 1, max_size=n - 1))
    diag = []
    for i in range(n):
        off = (sub[i - 1] * v[i - 1] if i else 0) + (sup[i] * v[i + 1] if i < n - 1 else 0)
        diag.append(-off / v[i])
    return tridiagonal(sub, diag, sup)


@settings(max_examples=30, deadline=None)
@given(singular_tridiagonal())
def test_tridiagonal_kernel_of_dimension_one_matches_elimination(a):
    with counting_null_space() as calls:
        kernel = tridiagonal_null_space(a)
    assert calls == []
    assert len(kernel) == 1
    assert kernel == linalg.null_space(a)


@settings(max_examples=30, deadline=None)
@given(singular_tridiagonal())
def test_tridiagonal_kernel_of_dimension_zero_matches_elimination(a):
    # moving the last diagonal entry leaves a nonzero last-row residual
    a[-1][-1] += 1
    with counting_null_space() as calls:
        kernel = tridiagonal_null_space(a)
    assert calls == []
    assert kernel == [] == linalg.null_space(a)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(any_frac, min_size=n - 1, max_size=n - 1),
    st.lists(any_frac, min_size=n, max_size=n),
    st.lists(nonzero, min_size=n - 1, max_size=n - 1))))
def test_random_tridiagonal_kernel_matches_elimination(bands):
    a = tridiagonal(*bands)
    with counting_null_space() as calls:
        kernel = tridiagonal_null_space(a)
    assert calls == []
    assert kernel == linalg.null_space(a)


@settings(max_examples=25, deadline=None)
@given(singular_tridiagonal().filter(lambda a: len(a) >= 2), st.data())
def test_zero_superdiagonal_entry_falls_back_to_elimination(a, data):
    i = data.draw(st.integers(0, len(a) - 2))
    a[i][i + 1] = F(0)
    with counting_null_space() as calls:
        kernel = tridiagonal_null_space(a)
    assert len(calls) == 1
    assert kernel == linalg.null_space(a)


@settings(max_examples=25, deadline=None)
@given(singular_tridiagonal().filter(lambda a: len(a) >= 3), st.data(), nonzero)
def test_entry_outside_the_band_falls_back_to_elimination(a, data, value):
    n = len(a)
    i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                     .filter(lambda ij: abs(ij[0] - ij[1]) > 1))
    a[i][j] = value
    with counting_null_space() as calls:
        kernel = tridiagonal_null_space(a)
    assert len(calls) == 1
    assert kernel == linalg.null_space(a)


def test_mat_vec_skips_zeros_and_keeps_values():
    # OpMatrix @ GridVector: a row with no nonzero product is the int 0
    p = QParams(F(1, 2), F(3), F(1, 5), 2)
    a = OpMatrix([[F(0), F(2), F(0)], [F(1, 3), F(0), F(-1)], [F(0), F(0), F(0)]], Basis.POINT, p)
    out = (a @ GridVector([F(5), F(0), F(7)], p)).values
    assert out == (0, F(5, 3) - 7, 0)
    assert [type(v) for v in out] == [int, F, int]


@pytest.mark.parametrize("a, b, exc, message", [
    # column 1 = 2 column 0: dependent whether b is in the span or not
    ([[F(1), F(2)], [F(3), F(6)], [F(0), F(0)]], [F(1), F(3), F(0)],
     RankDeficient, "solution is not unique"),
    ([[F(1), F(2)], [F(3), F(6)], [F(0), F(0)]], [F(1), F(4), F(0)],
     RankDeficient, "solution is not unique"),
    # full column rank, b outside the column space
    ([[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]], [F(1), F(2), F(4)],
     SingularSystem, "system is inconsistent"),
], ids=["dependent", "dependent-and-inconsistent", "inconsistent"])
def test_solve_unique_checks_rank_before_consistency(a, b, exc, message):
    with pytest.raises(exc) as info:
        linalg.solve_unique(a, b)
    assert str(info.value) == message
    assert isinstance(info.value, SingularSystem)
    assert isinstance(info.value, RankDeficient) is (exc is RankDeficient)
    # the over-determined consistent system has its unique solution
    assert linalg.solve_unique([[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]],
                               [F(1), F(2), F(3)]) == [F(1), F(2)]


small = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))


@st.composite
def tall_systems(draw):
    """a x = b with 1-10 rows and 1-4 columns of small Fractions, denominators
    1 to 3; some a have a column forced to a multiple of another, and b is
    a x, a x with one entry moved (inconsistent unless a has full row rank),
    or drawn freely."""
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 4))
    a = draw(st.lists(st.lists(small, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    if cols > 1 and draw(st.booleans()):
        j, k = draw(st.permutations(range(cols)))[:2]
        c = draw(small)
        for row in a:
            row[j] = c * row[k]
    x = draw(st.lists(small, min_size=cols, max_size=cols))
    b = [sum(u * v for u, v in zip(row, x)) for row in a]
    kind = draw(st.sampled_from(["consistent", "moved", "free"]))
    if kind == "moved":
        b[draw(st.integers(0, rows - 1))] += draw(small.filter(bool))
    elif kind == "free":
        b = draw(st.lists(small, min_size=rows, max_size=rows))
    return a, b


@settings(max_examples=200, deadline=None)
@given(tall_systems())
def test_solve_unique_matches_the_full_reduction(system):
    a, b = system
    assert outcome(linalg.solve_unique, a, b) == outcome(solve_by_rref, a, b)


@contextmanager
def counting_rows():
    """Count the rows `solve_unique` eliminates: each has its content, one
    `gcd`, divided out, and a row checked by substitution has none."""
    taken = []
    good = linalg.gcd
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "gcd", lambda *row: taken.append(row) or good(*row))
        yield taken


def test_solve_unique_stops_at_full_rank_and_substitutes_the_rest():
    # the independent rows come last: the elimination takes every row
    a = [[F(0), F(0)], [F(1), F(1)], [F(2), F(2)], [F(1), F(0)]]
    with counting_rows() as taken:
        assert linalg.solve_unique(a, [F(0), F(2), F(4), F(3)]) == [F(3), F(-1)]
    assert len(taken) == 4
    # the inconsistency of rows 1 and 2 is a pivot in the b column
    for solve in (linalg.solve_unique, solve_by_rref):
        assert outcome(solve, a, [F(0), F(2), F(5), F(3)]) == (
            SingularSystem, "system is inconsistent")
    # full rank after two rows: the other three are checked by substitution
    a = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)], [F(2), F(0)], [F(0), F(0)]]
    for b, expected in (([F(1), F(2), F(3), F(2), F(0)], [F(1), F(2)]),
                        ([F(1), F(2), F(3), F(2), F(1)], (SingularSystem,
                                                           "system is inconsistent"))):
        with counting_rows() as taken:
            assert outcome(linalg.solve_unique, a, b) == expected
        assert len(taken) == 2
        assert outcome(solve_by_rref, a, b) == expected

def mod_p(x):
    """The image in GF of a Fraction or an int."""
    return GF(x.numerator) / GF(x.denominator)


def both(rows, cols, entries):
    """A matrix from `linalg.zeros` with the given nonzero int entries, over
    Fraction and over GF; every other entry stays the int 0."""
    out = []
    for field in (F, GF):
        m = linalg.zeros(rows, cols)
        for (i, j), v in entries.items():
            m[i][j] = field(v)
        out.append(m)
    return out


def assert_reduces(exact, modular):
    """`modular` has the shape of `exact`, and each of its values is a GF
    element or the int 0 or 1, equal to the Fraction value reduced mod P."""
    if isinstance(exact, (list, tuple)):
        assert isinstance(modular, (list, tuple)) and len(exact) == len(modular)
        for a, b in zip(exact, modular):
            assert_reduces(a, b)
        return
    assert type(modular) is GF or (type(modular) is int and modular in (0, 1)), modular
    assert mod_p(exact) == modular


def test_the_kernels_take_the_field_of_their_inputs():
    # rank 2, with int-0 zeros at [0][0] and [1][2]; row 2 = row 0 + row 1
    a = both(3, 4, {(0, 1): 2, (0, 2): -1, (0, 3): 4, (1, 0): 3, (1, 1): 1, (1, 3): 5,
                    (2, 0): 3, (2, 1): 3, (2, 2): -1, (2, 3): 9})
    sq = both(3, 3, {(0, 1): 2, (0, 2): 1, (1, 0): 3, (1, 2): 1, (2, 0): 1, (2, 1): 1})
    # tridiagonal with int-0 diagonal at [0][0] and [2][2]: kernel (-3, 0, 1)
    tri = both(3, 3, {(0, 1): 2, (1, 0): 1, (1, 1): 5, (1, 2): 3, (2, 1): 4})
    tri_full = both(3, 3, {(0, 1): 2, (1, 0): 1, (1, 1): 5, (1, 2): 3, (2, 1): 4, (2, 2): 1})
    zero1 = both(1, 1, {})
    runs = {
        "mat_mul": lambda i: linalg.mat_mul(sq[i], a[i]),
        "rref": lambda i: linalg.rref(a[i])[0],
        "null_space": lambda i: linalg.null_space(a[i]),
        "tridiagonal_null_space": lambda i: [tridiagonal_null_space(m[i])
                                             for m in (tri, tri_full, zero1)],
        "identity": lambda i: identity(3, (F, GF)[i](1)),
    }
    for run in runs.values():
        assert_reduces(run(0), run(1))
    assert linalg.rref(a[0])[1] == linalg.rref(a[1])[1] == [0, 1]
    assert tridiagonal_null_space(tri[1]) == [[GF(-3), 0, 1]]
    assert len(linalg.null_space(a[1])) == 2


@pytest.mark.parametrize("value", [GF(1), 1.0], ids=["GF", "float"])
def test_solve_unique_takes_only_ints_and_fractions(value):
    # the fraction-free kernel clears rows to integers: any other entry, in
    # a or in b, is the QHahnError of the one gate, `qcore._pair`, not an
    # AttributeError or a float taken as an exact binary fraction
    for a, b in (([[value, F(1)], [F(1), 0]], [F(1), F(2)]),
                 ([[F(1), F(0)], [F(0), F(1)]], [F(1), value])):
        with pytest.raises(QHahnError) as info:
            linalg.solve_unique(a, b)
        assert str(info.value) == (
            f"integer kernels take ints and Fractions, not {type(value).__name__}")


def test_grid_vectors_and_operator_matrices_take_the_field_of_their_entries():
    p = QParams(F(1, 2), F(3), F(1, 5), 2)
    m = both(3, 3, {(0, 1): 2, (1, 0): 3, (1, 2): 1, (2, 1): 1, (2, 2): 4})
    v = both(1, 3, {(0, 1): 5, (0, 2): 6})
    results = []
    for i in range(2):
        a = OpMatrix(m[i], Basis.POINT, p)
        f = GridVector(v[i][0], p)
        results.append([(a @ a).entries, (a @ f).values])
    exact, modular = results
    assert_reduces(exact, modular)


def dense_mat_mul(a, b):
    """The triple loop over every (i, t, j), zero factors included."""
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), 0) for j in range(len(b[0]))]
            for i in range(len(a))]


@st.composite
def sparse_factors(draw):
    """(a, b), n x k and k x m with n, k, m in 1..5, whose entries are int 0s
    and Fractions (F(0) among them), each with a drawn set of its rows and
    of its columns all int 0."""
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    out = []
    for rows, cols in ((n, k), (k, m)):
        mat = [[draw(st.one_of(st.just(0), any_frac)) for _ in range(cols)] for _ in range(rows)]
        for i in draw(st.sets(st.integers(0, rows - 1))):
            mat[i] = [0] * cols
        for j in draw(st.sets(st.integers(0, cols - 1))):
            for row in mat:
                row[j] = 0
        out.append(mat)
    return out


@settings(max_examples=60, deadline=None)
@given(sparse_factors())
def test_mat_mul_equals_the_dense_triple_loop(factors):
    # over Fraction and over GF: the same sums, and an entry no product
    # reached is the int 0
    for field, lift in ((F, F), (GF, mod_p)):
        a, b = ([[x if type(x) is int else lift(x) for x in row] for row in m] for m in factors)
        out = linalg.mat_mul(a, b)
        assert out == dense_mat_mul(a, b)
        assert all(type(v) is field or (type(v) is int and v == 0) for row in out for v in row)
