"""Saddle points of the spectral radius of two-factor matrix products over
structured compact sets of non-negative matrices.

The package bundles dense non-negative matrix kernels (shifted power
iteration, Collatz-Wielandt bounds), a Minkowski set algebra with
independent-row-uncertainty sets and polynomial set expressions, the
two-sided image alternative checks, a saddle solver (row-wise on IRU
sets, exhaustive otherwise) with eigenvector certificates valid over
convex hulls, and a JSON command-line interface.
"""

from .alternative import (
    BranchReport,
    HourglassReport,
    HsetCheckResult,
    check_hourglass_at,
    check_hset_sampled,
)
from .errors import CapExceededError, HourglassError, ParseError, ShapeError
from .linalg import (
    COMPARISON_TOL,
    Matrix,
    PerronData,
    collatz_wielandt_lower,
    collatz_wielandt_upper,
    mat_mul,
    spectral_radius,
)
from .saddle import (
    CERTIFICATE_TOL,
    Certificate,
    SaddleResult,
    best_response_max,
    best_response_min,
    certify_saddle,
    check_saddle_hull_samples,
    minimax_table,
    solve_saddle,
)
from .sets import (
    DEDUP_TOL,
    DEFAULT_CAP,
    FiniteSet,
    IRUSet,
    LinearlyOrderedSet,
    MatrixSet,
    Product,
    Scale,
    Sum,
    convex_hull_iru,
    convex_hull_sample,
    hausdorff_distance,
    random_iru_pair,
    random_iru_set,
    set_from_json,
    set_to_json,
    transpose_set,
)

__version__ = "0.1.0"

__all__ = [
    "BranchReport",
    "CERTIFICATE_TOL",
    "COMPARISON_TOL",
    "CapExceededError",
    "Certificate",
    "DEDUP_TOL",
    "DEFAULT_CAP",
    "FiniteSet",
    "HourglassError",
    "HourglassReport",
    "HsetCheckResult",
    "IRUSet",
    "LinearlyOrderedSet",
    "Matrix",
    "MatrixSet",
    "ParseError",
    "PerronData",
    "Product",
    "SaddleResult",
    "Scale",
    "ShapeError",
    "Sum",
    "best_response_max",
    "best_response_min",
    "certify_saddle",
    "check_hourglass_at",
    "check_hset_sampled",
    "check_saddle_hull_samples",
    "collatz_wielandt_lower",
    "collatz_wielandt_upper",
    "convex_hull_iru",
    "convex_hull_sample",
    "hausdorff_distance",
    "mat_mul",
    "minimax_table",
    "random_iru_pair",
    "random_iru_set",
    "set_from_json",
    "set_to_json",
    "solve_saddle",
    "spectral_radius",
    "transpose_set",
]
