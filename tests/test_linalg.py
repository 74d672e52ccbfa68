from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhahn import linalg
from qhahn.qcore import SingularSystem

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
        kernel = linalg.tridiagonal_null_space(a)
    assert calls == []
    assert len(kernel) == 1
    assert kernel == linalg.null_space(a)


@settings(max_examples=30, deadline=None)
@given(singular_tridiagonal())
def test_tridiagonal_kernel_of_dimension_zero_matches_elimination(a):
    # moving the last diagonal entry leaves a nonzero last-row residual
    a[-1][-1] += 1
    with counting_null_space() as calls:
        kernel = linalg.tridiagonal_null_space(a)
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
        kernel = linalg.tridiagonal_null_space(a)
    assert calls == []
    assert kernel == linalg.null_space(a)


@settings(max_examples=25, deadline=None)
@given(singular_tridiagonal().filter(lambda a: len(a) >= 2), st.data())
def test_zero_superdiagonal_entry_falls_back_to_elimination(a, data):
    i = data.draw(st.integers(0, len(a) - 2))
    a[i][i + 1] = F(0)
    with counting_null_space() as calls:
        kernel = linalg.tridiagonal_null_space(a)
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
        kernel = linalg.tridiagonal_null_space(a)
    assert len(calls) == 1
    assert kernel == linalg.null_space(a)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(any_frac, min_size=2 * n, max_size=2 * n, unique=True),
    st.lists(any_frac, min_size=n, max_size=n))))
def test_cauchy_solve_matches_elimination(draw):
    nodes, y = draw
    n = len(y)
    s, t = nodes[:n], nodes[n:]
    c = linalg.cauchy_solve(s, t, y)
    assert c == linalg.solve_unique([[1 / (sk - tx) for sk in s] for tx in t], y)


def test_cauchy_solve_rejects_coinciding_nodes():
    with pytest.raises(SingularSystem, match="coincides"):
        linalg.cauchy_solve([F(1), F(2)], [F(3), F(2)], [F(1), F(1)])
    with pytest.raises(SingularSystem, match="repeated"):
        linalg.cauchy_solve([F(1), F(2)], [F(3), F(3)], [F(1), F(1)])
    with pytest.raises(SingularSystem, match="repeated"):
        linalg.cauchy_solve([F(1), F(1)], [F(3), F(4)], [F(1), F(1)])


def test_mat_vec_skips_zeros_and_keeps_values():
    a = [[F(0), F(2), F(0)], [F(1, 3), F(0), F(-1)], [F(0), F(0), F(0)]]
    assert linalg.mat_vec(a, [F(5), F(0), F(7)]) == [F(0), F(5, 3) - 7, F(0)]
