"""Exact verification suite for biorthogonal rational functions of q-Hahn type.

Everything is computed over exact rationals: the parameter classes admit
only exact rationals, and the code past them uses only field operations,
so grid functions, operators and structure constants are exact too.  The
package builds the operator pencil (X, Y, Z) and the factor V = X^-1 Y on
the finite grid, the biorthogonal rational family it diagonalizes, the
weighted adjoint picture, the cubic algebras the operators satisfy, and
the classical limits of the family, with every identity verified by exact
equality (or, for the two genuine limit statements, by measured
convergence).
"""

from .qcore import (
    ConfigError,
    DegenerateDenominator,
    DimensionMismatch,
    InvalidParams,
    PoleOnGrid,
    QHahnError,
    QParams,
    RankDeficient,
    SingularSystem,
    ValidationReport,
    ZeroDenominator,
    ZeroWeight,
    eigenvalue,
    frac_str,
    phi_series,
    qnum,
    qpoch,
    qpow,
    scalar,
    validate_params,
)
from .reports import CheckReport
from .operators import (
    Basis,
    GridVector,
    OpMatrix,
    Operator,
    basis_change,
    build_operator,
    phi_function,
    weighted_adjoint,
)
from .brf import (
    BRFFamily,
    Instance,
    brf_family,
    brf_u,
    norm_h,
    partial_fraction,
    partner_family,
    reflected_params,
    weight_vector,
)

__version__ = "0.1.0"
