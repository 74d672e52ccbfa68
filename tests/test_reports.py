import math
from fractions import Fraction as F
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from qhahn import wilson
from qhahn.qcore import _row_form
from qhahn.reports import CheckReport, _residuals, check_gram

from conftest import fraction_gram

VALUES = st.one_of(st.integers(-3, 3), st.just(0),
                   st.fractions(min_value=-4, max_value=4, max_denominator=12))
NONZERO = VALUES.filter(bool)
NONZERO_INT = st.integers(-9, 9).filter(bool)


@st.composite
def gram_tables(draw):
    """(w, u, v, h) with h the exact Gram diagonal, so that every entry holds
    when u_n and v_m live on x = n and x = m only, and then one entry of the
    table perturbed, or none."""
    size = draw(st.integers(1, 4))
    row = st.lists(VALUES, min_size=size, max_size=size)
    if draw(st.booleans()):
        w = draw(st.lists(NONZERO, min_size=size, max_size=size))
        us = [[draw(NONZERO) if x == n else 0 for x in range(size)] for n in range(size)]
        vs = [[draw(NONZERO) if x == m else 0 for x in range(size)] for m in range(size)]
    else:
        w = draw(row)
        us, vs = draw(st.lists(row, min_size=size, max_size=size)), draw(
            st.lists(row, min_size=size, max_size=size))
    norms = [sum(a * b * c for a, b, c in zip(w, us[n], vs[n])) for n in range(size)]
    table = draw(st.sampled_from(["none", "w", "u", "v", "h"]))
    if table != "none":
        i, x = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        bump = draw(st.sampled_from([1, -1, F(1, 7), F(-5, 3)]))
        if table == "w":
            w[i] += bump
        elif table == "h":
            norms[i] += bump
        else:
            (us if table == "u" else vs)[i][x] += bump
    return w, us, vs, norms


def pairs(values) -> list[tuple[int, int]]:
    return [F(v).as_integer_ratio() for v in values]


def row_forms(rows, w=None) -> list:
    """Each row, times w entrywise if given, as a `qcore._row_form` row."""
    return [_row_form(pairs(row if w is None else [a * b for a, b in zip(w, row)]))
            for row in rows]


def row_gram(tables) -> CheckReport:
    """`wilson._row_gram`, the path of the 10phi9 and Hahn Grams, on the rows of
    `tables` as integer pairs."""
    w, us, vs, norms = tables
    return wilson._row_gram(
        CheckReport(check="gram", params={}), SimpleNamespace(N=len(w) - 1),
        lambda x, _: w[x], lambda n, _, i: pairs((us, vs)[i][n]), lambda n, _: norms[n])


@settings(max_examples=150, deadline=None)
@given(gram_tables())
def test_integer_gram_kernel_reports_as_the_fraction_sums(tables):
    expected = fraction_gram(CheckReport(check="gram", params={}), *tables)
    assert row_gram(tables).as_dict() == expected.as_dict()


@st.composite
def content_tables(draw):
    """`gram_tables` with one row of u or v made integral with content k > 1,
    then the weight, a row of u or a row of v set to zero, or none, and the
    norms set to the new exact diagonal or left as they are."""
    w, us, vs, norms = draw(gram_tables())
    size = len(w)
    k = draw(st.integers(2, 6))
    rows, i = draw(st.sampled_from([us, vs])), draw(st.integers(0, size - 1))
    rows[i] = [k * v for v in draw(st.lists(NONZERO_INT, min_size=size, max_size=size))]
    zero, j = draw(st.sampled_from(["none", "w", "u", "v"])), draw(st.integers(0, size - 1))
    if zero == "w":
        w = [0] * size
    elif zero != "none":
        (us if zero == "u" else vs)[j] = [0] * size
    if draw(st.booleans()):
        norms = [sum(a * b * c for a, b, c in zip(w, us[n], vs[n])) for n in range(size)]
    return w, us, vs, norms


@settings(max_examples=150, deadline=None)
@given(content_tables())
def test_content_free_gram_rows_report_as_the_fraction_sums(tables):
    # check_gram with the weight on either side, and the 10phi9/Hahn path, against
    # the Fraction sums; a zero row or weight has gcd 0 and divides by nothing
    w, us, vs, norms = tables
    expected = fraction_gram(CheckReport(check="gram", params={}), *tables).as_dict()
    assert row_gram(tables).as_dict() == expected
    for left, right in [(row_forms(us, w), row_forms(vs)), (row_forms(us), row_forms(vs, w))]:
        assert check_gram(CheckReport(check="gram", params={}), left, right, norms).as_dict() == (
            expected)
    # each row is content free and scales back to the values it stands for
    for (ints, s), row in zip(row_forms(vs, w), vs):
        assert math.gcd(*ints) in (0, 1)
        assert [s * v for v in ints] == [a * b for a, b in zip(w, row)]


SCALARS = st.one_of(st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=9))
SMALL = st.integers(-9, 9)


@st.composite
def residual_rows(draw):
    """(lhs, rhs, lam, scale) for `_residuals`: pairs of either sign, each lhs
    pair either arbitrary or an unreduced multiple of lam c/d."""
    lam, scale = draw(SCALARS), draw(SCALARS.filter(bool))
    lhs, rhs = [], []
    for _ in range(draw(st.integers(0, 6))):
        c, d = draw(SMALL), draw(NONZERO_INT)
        if draw(st.booleans()):
            t, k = lam * F(c, d), draw(st.integers(-4, 4).filter(bool))
            lhs.append((t.numerator * k, t.denominator * k))
        else:
            lhs.append((draw(SMALL), draw(NONZERO_INT)))
        rhs.append((c, d))
    return lhs, rhs, lam, scale


@settings(max_examples=300, deadline=None)
@given(residual_rows())
def test_residual_kernel_is_the_fraction_difference(rows):
    # entry i is None exactly when a/b = lam c/d, and else (a/b - lam c/d) scale
    lhs, rhs, lam, scale = rows
    got = _residuals(lhs, rhs, lam, scale)
    assert len(got) == len(lhs)
    for r, (a, b), (c, d) in zip(got, lhs, rhs):
        diff = F(a, b) - lam * F(c, d)
        assert (r is None) == (diff == 0)
        if r is not None:
            assert isinstance(r, F) and r == diff * scale
