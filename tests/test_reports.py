from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from qhahn.qcore import frac_str
from qhahn.reports import CheckReport, _residuals, check_gram

VALUES = st.one_of(st.integers(-3, 3), st.just(0),
                   st.fractions(min_value=-4, max_value=4, max_denominator=12))
NONZERO = VALUES.filter(bool)


def fraction_gram(report, weights, us, vs, norms):
    """check_gram as it was before its integer kernel: a Fraction sum per entry."""
    for n, hn in enumerate(norms):
        if hn == 0:
            report.add_violation(n=n, m=n, residual="diagonal norm vanishes")
        wu = [w * a for w, a in zip(weights, us[n])]
        for m, v in enumerate(vs):
            total = sum(c * b for c, b in zip(wu, v))
            expected = hn if n == m else 0
            if total != expected:
                report.add_violation(n=n, m=m, residual=frac_str(total - expected))
    report.details["norms"] = [frac_str(h) for h in norms]
    return report


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


@settings(max_examples=150, deadline=None)
@given(gram_tables())
def test_integer_gram_kernel_reports_as_the_fraction_sums(tables):
    got = check_gram(CheckReport(check="gram", params={}), *tables)
    expected = fraction_gram(CheckReport(check="gram", params={}), *tables)
    assert got.as_dict() == expected.as_dict()


SCALARS = st.one_of(st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=9))
SMALL, NONZERO_INT = st.integers(-9, 9), st.integers(-9, 9).filter(bool)


@st.composite
def residual_rows(draw):
    """(lhs, rhs, lam, den) for `_residuals`: pairs of either sign, each lhs
    pair either arbitrary or an unreduced multiple of lam c/d."""
    lam, den = draw(SCALARS), draw(SCALARS.filter(bool))
    lhs, rhs = [], []
    for _ in range(draw(st.integers(0, 6))):
        c, d = draw(SMALL), draw(NONZERO_INT)
        if draw(st.booleans()):
            t, k = lam * F(c, d), draw(st.integers(-4, 4).filter(bool))
            lhs.append((t.numerator * k, t.denominator * k))
        else:
            lhs.append((draw(SMALL), draw(NONZERO_INT)))
        rhs.append((c, d))
    return lhs, rhs, lam, den


@settings(max_examples=300, deadline=None)
@given(residual_rows())
def test_residual_kernel_is_the_fraction_difference(rows):
    # entry i is None exactly when a/b = lam c/d, and else (a/b - lam c/d) / den
    lhs, rhs, lam, den = rows
    got = _residuals(lhs, rhs, lam, den)
    assert len(got) == len(lhs)
    for r, (a, b), (c, d) in zip(got, lhs, rhs):
        diff = F(a, b) - lam * F(c, d)
        assert (r is None) == (diff == 0)
        if r is not None:
            assert isinstance(r, F) and r == diff / den
