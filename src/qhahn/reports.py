"""Structured results for the verification checks, and the one exact
comparison they share.

Every checker returns a CheckReport.  Exact residuals are serialized as
"num/den" strings so reports are bit-reproducible; anything timing-related
is kept out of CheckReport entirely.

`_residuals` is the comparison of the q-Hahn identities: integer pairs
compared cross-multiplied, with a Fraction residual built only for a
violating entry.  The banded `gevp` checks, the Gram diagonals of `check_gram`
(content-free rows, each off-diagonal entry one dot product tested
against 0) and both integer parts of `brf.check_partner` compare through
it, and `_flag_worst` reports the largest residual of a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Sequence

from .qcore import _pair, frac_str

__all__ = ["CheckReport", "check_gram"]


@dataclass
class CheckReport:
    check: str
    params: dict
    violations: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    skipped: str | None = None

    @property
    def status(self) -> str:
        if self.skipped is not None:
            return "skip"
        return "fail" if self.violations else "pass"

    def add_violation(self, **fields) -> None:
        self.violations.append(dict(fields))

    def as_dict(self) -> dict:
        out = {
            "check": self.check,
            "params": self.params,
            "status": self.status,
            "violations": self.violations,
            "details": self.details,
        }
        if self.skipped is not None:
            out["reason"] = self.skipped
        return out


def _residuals(lhs, rhs, lam, scale) -> list:
    """(a/b - lam c/d) scale for each pair of integer pairs (a, b), (c, d),
    or None where it vanishes.  A passing entry is one cross-multiplied
    integer comparison; only a violating one builds its Fraction."""
    ln, ld = _pair(lam)
    return [None if a * ld * d == ln * c * b else (Fraction(a, b) - lam * Fraction(c, d)) * scale
            for (a, b), (c, d) in zip(lhs, rhs)]


def _fractions(rows) -> list[Fraction]:
    """The nonzero entries of `qcore._integer_rows` rows as Fractions."""
    return [Fraction(v, e) for row, e in rows for v in row.values()]


def _flag_worst(report: CheckReport, resid: list, **where) -> str:
    """max |residual| of a `_residuals` list as a string (0/1 when all
    vanish), added as a violation at `where` when it is not zero."""
    worst = max((abs(r) for r in resid if r is not None), default=0)
    if worst:
        report.add_violation(**where, residual=frac_str(worst))
    return frac_str(worst)


def check_gram(report: CheckReport, left: list, right: list, norms: Sequence) -> CheckReport:
    """Biorthogonality sum_x w_x u_n(x) v_m(x) = delta_{nm} h_n, all pairs, exact, on
    `qcore._content_free` rows (a_n, s_n) of w u_n and (b_m, t_m) of v_m (the weight
    on either side): entry (n, m) is s_n t_m (a_n . b_m), so it holds off the
    diagonal when the integer dot is 0, and on it is compared with h_n, which must
    also be nonzero, by `_residuals`.  Every violation carries (n, m) and a
    residual, the Gram entry minus its expected value; the closed-form norms go to
    details["norms"]."""
    for n, hn in enumerate(norms):
        if hn == 0:
            report.add_violation(n=n, m=n, residual="diagonal norm vanishes")
        a, s = left[n]
        for m, (b, t) in enumerate(right):
            dot = sum(map(mul, a, b))
            if m == n:
                (r,) = _residuals([_pair(s * t * dot)], [_pair(hn)], 1, 1)
            else:
                r = s * t * dot if dot else None
            if r is not None:
                report.add_violation(n=n, m=m, residual=frac_str(r))
    report.details["norms"] = [frac_str(h) for h in norms]
    return report
