from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from qhahn.qcore import frac_str
from qhahn.reports import CheckReport, check_gram

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
