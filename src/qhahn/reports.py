"""Structured results for the verification checks.

Every checker returns a CheckReport.  Exact residuals are serialized as
"num/den" strings so reports are bit-reproducible; anything timing-related
is kept out of CheckReport entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Sequence

from .qcore import frac_str, over_common_denominator

__all__ = ["CheckReport", "check_gram"]


@dataclass
class CheckReport:
    check: str
    params: dict
    violations: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    skipped: str | None = None

    @property
    def ok(self) -> bool:
        return self.skipped is None and not self.violations

    @property
    def status(self) -> str:
        if self.skipped is not None:
            return "skip"
        return "pass" if self.ok else "fail"

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


def check_gram(report: CheckReport, weights: Sequence, us: Sequence[Sequence],
               vs: Sequence[Sequence], norms: Sequence) -> CheckReport:
    """Biorthogonality sum_x w_x u_n(x) v_m(x) = delta_{nm} h_n, all pairs, exact.

    `norms` holds the closed-form h_n, which must also be nonzero.  Every
    violation carries (n, m) and a residual, the Gram entry minus its
    expected value; the closed-form norms go to details["norms"].  The
    values are ints or Fractions.  Each row v_m and each row w u_n is put
    over one integer denominator once, so a Gram entry is an integer dot
    product compared with h_n cross-multiplied; only a violating entry
    builds its Fraction residual.
    """
    rows = [over_common_denominator(v) for v in vs]
    for n, hn in enumerate(norms):
        if hn == 0:
            report.add_violation(n=n, m=n, residual="diagonal norm vanishes")
        wu, e = over_common_denominator([w * a for w, a in zip(weights, us[n])])
        for m, (v, d) in enumerate(rows):
            total = sum(map(mul, wu, v))
            expected = hn if n == m else 0
            h_num, h_den = expected.as_integer_ratio()
            if total * h_den != h_num * e * d:
                report.add_violation(
                    n=n, m=m, residual=frac_str(Fraction(total, e * d) - expected))
    report.details["norms"] = [frac_str(h) for h in norms]
    return report
