"""Saddle points of rho(A B) over enumerable matrix sets.

The ground-truth solver scans the full table of product spectral radii:
for each B the best response of the minimizing player is the table column
minimum, the maximizing player picks the best column, and the resulting
pair (a_tilde, b_tilde) is a candidate saddle.  When the input sets satisfy
the image alternative the candidate is a true saddle over the convex hulls
of both sets, and the eigenvector certificate below verifies exactly that:
with v the dominant eigenvector of a_tilde b_tilde and w = b_tilde v, the
vertex inequalities  value*v <= A w  and  w >= B v  are affine in the
varying matrix, so non-negative vertex residuals extend to the whole hulls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ShapeError
from .linalg import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    Matrix,
    PerronData,
    mat_mul,
    power_many,
    readonly,
    spectral_radius,
)
from .sets import DEFAULT_CAP, IRUSet, MatrixSet, hull_combination

#: Certificate residuals are accepted down to -CERTIFICATE_TOL.
CERTIFICATE_TOL = 1e-9

# Entries of the sum-normalized dominant eigenvector below this threshold
# count as zero; the certificate is then inconclusive rather than failed.
_POSITIVE_VECTOR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SaddleResult:
    """Candidate saddle pair with the exhaustive min-max data.

    ``value`` is rho(a_tilde b_tilde); ``w`` is b_tilde applied to the
    dominant eigenvector of the product.  ``gap = minmax - maxmin`` is
    non-negative and zero exactly when the table has a saddle.
    """

    a_tilde: Matrix
    b_tilde: Matrix
    value: float
    perron: PerronData
    w: np.ndarray
    minmax: float
    maxmin: float
    gap: float


@dataclass(frozen=True, eq=False)
class Certificate:
    """Vertex residuals of the two saddle inequalities.

    ``a_residual`` is the worst slack of  A w >= value*v  over the
    enumerated members A; ``b_residual`` the worst slack of  w >= B v.
    Both inequalities are affine in the varying matrix, so vertex validity
    certifies the full convex hulls.  ``conclusive`` is False when the
    eigenvector had a (numerically) zero coordinate or the power iteration
    did not converge; ``valid`` then stays False regardless of residuals.
    """

    a_residual: float
    b_residual: float
    valid: bool
    conclusive: bool


def product_table(
    stack_a: np.ndarray,
    stack_b: np.ndarray,
    cap: int = DEFAULT_CAP,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray]:
    """Spectral radii of all pairwise products of two member stacks.

    Returns (table, converged) where table[i, j] is rho(A_i B_j) and
    converged[i, j] its power-iteration flag.  The A stack has shape
    (ka, n, m) and the B stack (kb, m, n); ka * kb must stay within ``cap``.
    """
    if stack_a.shape[2] != stack_b.shape[1] or stack_a.shape[1] != stack_b.shape[2]:
        raise ShapeError(
            f"need A sets of shape (n, m) and B sets of shape (m, n), "
            f"got {stack_a.shape[1:]} and {stack_b.shape[1:]}"
        )
    ka, kb, n = len(stack_a), len(stack_b), stack_a.shape[1]
    if ka * kb > cap:
        raise CapExceededError(ka * kb, cap)
    products = np.einsum("aij,bjk->abik", stack_a, stack_b)
    rho, _, _, conv = power_many(products.reshape(ka * kb, n, n), tol, max_iter)
    return rho.reshape(ka, kb), conv.reshape(ka, kb)


def reduce_table(table: np.ndarray) -> tuple[float, float, int, int]:
    """Min-max, max-min and the candidate saddle cell of a product table.

    Returns (minmax, maxmin, i, j): minmax = min_A max_B, column j maximizes
    the column minimum (so maxmin = table[i, j]) and row i minimizes that
    column; ties break to the earliest index.
    """
    col_min = table.min(axis=0)
    j = int(col_min.argmax())
    i = int(table[:, j].argmin())
    return float(table.max(axis=1).min()), float(col_min[j]), i, j


def minimax_table(
    a_set: MatrixSet,
    b_set: MatrixSet,
    cap: int = DEFAULT_CAP,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """Full table rho(A_i B_j) in enumeration order.

    Row reductions give min-max, column reductions max-min; the product of
    the two cardinalities must stay within ``cap``.
    """
    table, _ = product_table(a_set.stack(cap), b_set.stack(cap), cap, tol, max_iter)
    return readonly(table)


def _radii(fixed: Matrix, stack: np.ndarray, fixed_on_left: bool) -> np.ndarray:
    """rho(fixed X), or rho(X fixed), for every X in the stack."""
    if fixed_on_left:
        return power_many(np.einsum("ij,kjl->kil", fixed.data, stack))[0]
    return power_many(np.einsum("kij,jl->kil", stack, fixed.data))[0]


def _best_response(
    fixed: Matrix, mset: MatrixSet, cap: int, minimize: bool
) -> tuple[Matrix, float]:
    if mset.shape != fixed.shape[::-1]:
        names = ("a_set", "b") if minimize else ("b_set", "a")
        raise ShapeError(
            f"{names[0]} members {mset.shape} do not pair with "
            f"{names[1]} of shape {fixed.shape}"
        )
    members = mset.stack(cap)
    rho = _radii(fixed, members, fixed_on_left=not minimize)
    best = int(rho.argmin() if minimize else rho.argmax())
    return Matrix(members[best]), float(rho[best])


def best_response_min(
    b: Matrix, a_set: MatrixSet, cap: int = DEFAULT_CAP
) -> tuple[Matrix, float]:
    """Member of a_set minimizing rho(A b); earliest index wins ties."""
    return _best_response(b, a_set, cap, minimize=True)


def best_response_max(
    a: Matrix, b_set: MatrixSet, cap: int = DEFAULT_CAP
) -> tuple[Matrix, float]:
    """Member of b_set maximizing rho(a B); earliest index wins ties."""
    return _best_response(a, b_set, cap, minimize=False)


def best_response_min_iru(
    b: Matrix, a_set: IRUSet, max_rounds: int = 100
) -> tuple[Matrix, float]:
    """Row-improvement heuristic for the minimizing best response.

    Starts from the first row choice of every row set and repeatedly swaps
    in, one row at a time, the candidate row that strictly lowers
    rho(A b) (always evaluated exactly), until a full pass changes nothing
    or ``max_rounds`` passes are exhausted.  The result never exceeds the
    starting spectral radius but is not guaranteed globally minimal; use
    :func:`best_response_min` when exactness is required.
    """
    if not isinstance(a_set, IRUSet):
        raise TypeError("best_response_min_iru expects an IRU set")
    if a_set.shape[1] != b.rows or a_set.shape[0] != b.cols:
        raise ShapeError(
            f"a_set members {a_set.shape} do not pair with b of shape {b.shape}"
        )
    row_sets = a_set.row_sets
    current = np.stack([rs[0] for rs in row_sets])
    product = current @ b.data
    rho_current = float(power_many(product[None])[0][0])
    for _ in range(max_rounds):
        changed = False
        for i, rs in enumerate(row_sets):
            if rs.shape[0] == 1:
                continue
            candidates = np.broadcast_to(
                product, (rs.shape[0],) + product.shape
            ).copy()
            candidates[:, i, :] = rs @ b.data
            rho_c, _, _, _ = power_many(candidates)
            best = int(rho_c.argmin())
            if rho_c[best] < rho_current:
                current = current.copy()
                current[i] = rs[best]
                product = candidates[best]
                rho_current = float(rho_c[best])
                changed = True
        if not changed:
            break
    return Matrix(current), rho_current


def solve_saddle(
    a_set: MatrixSet,
    b_set: MatrixSet,
    cap: int = DEFAULT_CAP,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SaddleResult:
    """Exhaustive saddle-point computation over two enumerable sets.

    b_tilde maximizes the column minimum m(B) = min_A rho(A B) and a_tilde
    is the minimizing response to it; ties break to the earliest
    enumeration index.  minmax is the transposed reduction min_A max_B.
    The dominant eigenvector v of a_tilde b_tilde and w = b_tilde v are
    attached for certification.
    """
    stack_a, stack_b = a_set.stack(cap), b_set.stack(cap)
    table, _ = product_table(stack_a, stack_b, cap, tol, max_iter)
    minmax, maxmin, i, j = reduce_table(table)
    a_tilde = Matrix(stack_a[i])
    b_tilde = Matrix(stack_b[j])
    perron = spectral_radius(mat_mul(a_tilde, b_tilde), tol=tol, max_iter=max_iter)
    w = readonly(b_tilde.data @ perron.vector)
    return SaddleResult(
        a_tilde=a_tilde,
        b_tilde=b_tilde,
        value=perron.rho,
        perron=perron,
        w=w,
        minmax=minmax,
        maxmin=maxmin,
        gap=minmax - maxmin,
    )


def certify_saddle(
    result: SaddleResult,
    a_set: MatrixSet,
    b_set: MatrixSet,
    tol: float = CERTIFICATE_TOL,
    cap: int = DEFAULT_CAP,
) -> Certificate:
    """Check the two vertex inequalities certifying the saddle over hulls.

    Requires the dominant eigenvector of a_tilde b_tilde to be strictly
    positive (and converged); otherwise the certificate is reported as
    inconclusive, never as failed, since the inequalities are only derived
    under positivity.
    """
    v = result.perron.vector
    w = result.w
    members_a = a_set.stack(cap)
    members_b = b_set.stack(cap)
    a_residual = float(
        (np.einsum("kij,j->ki", members_a, w) - result.value * v).min()
    )
    b_residual = float((w - np.einsum("kij,j->ki", members_b, v)).min())
    conclusive = bool(v.min() > _POSITIVE_VECTOR_TOL) and result.perron.converged
    valid = conclusive and a_residual >= -tol and b_residual >= -tol
    return Certificate(
        a_residual=a_residual,
        b_residual=b_residual,
        valid=valid,
        conclusive=conclusive,
    )


def check_saddle_hull_samples(
    result: SaddleResult,
    a_set: MatrixSet,
    b_set: MatrixSet,
    n: int,
    seed: int,
    tol: float = CERTIFICATE_TOL,
    cap: int = DEFAULT_CAP,
) -> bool:
    """Spot-check the saddle inequalities on random hull points.

    Draws ``n`` convex combinations from each hull and verifies
    rho(a_tilde B) <= value + tol and value <= rho(A b_tilde) + tol.
    Returns the conjunction; n = 0 is vacuously True.
    """
    if n <= 0:
        return True
    rng = np.random.default_rng(seed)

    def draw(stack: np.ndarray) -> np.ndarray:
        samples = []
        for _ in range(n):
            r = int(rng.integers(1, min(4, len(stack)) + 1))
            child_seed = int(rng.integers(0, 2 ** 63))
            samples.append(hull_combination(stack, r, child_seed))
        return np.stack(samples)

    b_samples = draw(b_set.stack(cap))
    a_samples = draw(a_set.stack(cap))
    rho_b = _radii(result.a_tilde, b_samples, fixed_on_left=True)
    rho_a = _radii(result.b_tilde, a_samples, fixed_on_left=False)
    return bool((rho_b <= result.value + tol).all() and (rho_a >= result.value - tol).all())
