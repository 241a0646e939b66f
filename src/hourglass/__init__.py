"""Saddle points of the spectral radius of two-factor matrix products over
structured compact sets of non-negative matrices.

The package bundles dense non-negative matrix kernels (shifted power
iteration, Collatz-Wielandt bounds), a Minkowski set algebra with
independent-row-uncertainty sets and polynomial set expressions, the
two-sided image alternative checks, a saddle solver (row-wise on IRU
sets, exhaustive otherwise) with eigenvector certificates valid over
convex hulls, and a JSON command-line interface.

Members are read-only float64 arrays from one of three accessors: every
set's ``stack`` (all of them) and ``take`` (by enumeration index), and
``IRUSet.gather`` (by one row pick per row set, never enumerating).  Saddle
pairs, best responses, probe matrices and witnesses are read-only copies of
members; ``Matrix`` is the validated type of matrices that callers and JSON
files supply.
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
    hausdorff_distance,
    random_iru_pair,
    random_iru_set,
    set_from_json,
    set_to_json,
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
    "hausdorff_distance",
    "minimax_table",
    "random_iru_pair",
    "random_iru_set",
    "set_from_json",
    "set_to_json",
    "solve_saddle",
    "spectral_radius",
]
