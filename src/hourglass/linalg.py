"""Dense non-negative matrices: ``Matrix``, the validated type of input
matrices and their JSON wire form, spectral radius via shifted power
iteration, Perron vectors, and Collatz-Wielandt ratio bounds.

All values are immutable after construction and safe to share across
threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ShapeError

#: Entrywise comparison band shared across the package: ``x >= y`` is read
#: as ``x_i >= y_i - COMPARISON_TOL`` for all i, and ``x != y`` as
#: ``max_i |x_i - y_i| > COMPARISON_TOL``.
COMPARISON_TOL = 1e-10

#: Diagonal shift applied before power iteration.  For non-negative A,
#: rho(A + s*I) = rho(A) + s, so the estimate is shifted back afterwards.
#: The shift separates the dominant eigenvalue of imprimitive matrices
#: (pure cycles), whose peripheral eigenvalues would otherwise make the
#: iteration oscillate forever.  The value is the power of two nearest
#: 1e-9: adding and subtracting a power of two is exact for the small
#: integer eigenvalues of degenerate products, so e.g.
#: rho(diag(1, 0)) == 1.0 and rho(0) == 0.0 to the last bit.
POWER_SHIFT = 2.0 ** -30

# Power steps that one jump of :func:`power_many` counts (a power of two).
_JUMP = 16

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000


def readonly(arr: np.ndarray) -> np.ndarray:
    """Mark ``arr`` read-only in place and return it."""
    arr.setflags(write=False)
    return arr


def matrix_json(data: np.ndarray) -> dict:
    """Wire form ``{"rows": N, "cols": M, "data": [[...], ...]}`` of a 2-D array.

    The array is not validated, so a member of an already checked stack
    costs one ``tolist``.
    """
    rows, cols = data.shape
    return {"rows": rows, "cols": cols, "data": data.tolist()}


class Matrix:
    """Immutable dense matrix with non-negative float64 entries."""

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(
                f"matrix data must be two-dimensional, got {arr.ndim} dimension(s)"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(
                f"matrix must have at least one row and one column, "
                f"got {arr.shape[0]}x{arr.shape[1]}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        if (arr < 0).any():
            raise ValueError("matrix entries must be non-negative")
        self._data = readonly(arr)

    @property
    def data(self) -> np.ndarray:
        """Entries as a read-only (rows, cols) array."""
        return self._data

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self._data, other._data)
        )

    __hash__ = None  # equal by value on float entries, so not a dict key

    def __repr__(self) -> str:
        return f"Matrix({self._data.tolist()})"

    @classmethod
    def from_json(cls, obj, location: str = "$") -> "Matrix":
        if not isinstance(obj, dict):
            raise ParseError(location, "expected a matrix object")
        rows = _expect_index(obj, "rows", location)
        cols = _expect_index(obj, "cols", location)
        data = obj.get("data")
        if not isinstance(data, list) or len(data) != rows:
            raise ParseError(f"{location}.data", f"expected a list of {rows} rows")
        for i, row in enumerate(data):
            if not isinstance(row, list) or len(row) != cols:
                raise ParseError(
                    f"{location}.data[{i}]", f"expected a list of {cols} numbers"
                )
            for j, x in enumerate(row):
                expect_number(x, f"{location}.data[{i}][{j}]")
        try:
            return cls(data)
        except (ValueError, ShapeError) as exc:
            raise ParseError(f"{location}.data", str(exc)) from exc


def expect_number(x, location: str) -> None:
    """Reject a JSON entry that is not a number (a string, a boolean, null, a list)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParseError(location, "expected a number")


def _expect_index(obj: dict, key: str, location: str) -> int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ParseError(f"{location}.{key}", "expected a positive integer")
    return value


def as_vector(u, n: int, name: str = "vector") -> np.ndarray:
    """``u`` as a finite float64 vector of shape (n,)."""
    arr = np.asarray(u, dtype=np.float64)
    if arr.shape != (n,):
        raise ShapeError(f"{name} must have shape ({n},), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} entries must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class PerronData:
    """Dominant-eigenvalue data of a square non-negative matrix.

    ``vector`` is normalized to sum to one.  For a positive matrix it is the
    (unique) Perron vector and strictly positive; for merely non-negative
    matrices entries may vanish.  ``converged`` is False when the iteration
    hit the step limit before the Rayleigh quotient stabilized, in which
    case ``rho`` is the last quotient and only indicative.
    """

    rho: float
    vector: np.ndarray
    iterations: int
    converged: bool

    @classmethod
    def of(cls, kernel_out: tuple[np.ndarray, ...], k) -> "PerronData":
        """Entry ``k`` (an index into the leading axes) of a :func:`power_many` output."""
        rho, vectors, iterations, converged = kernel_out
        return cls(
            rho=float(rho[k]),
            vector=readonly(vectors[k].copy()),
            iterations=int(iterations[k]),
            converged=bool(converged[k]),
        )


def _scaled_power(shifted: np.ndarray) -> np.ndarray:
    """(S / rownorm(S)) ** _JUMP for every S of the stack.

    Formed by squarings, each divided by its largest entry when that entry
    is positive, so the power neither overflows nor underflows as a whole.
    Only the direction of a product with it matters to the iteration.
    """
    power = shifted / shifted.sum(axis=2).max(axis=1)[:, None, None]
    for _ in range(_JUMP.bit_length() - 1):
        power = power @ power
        top = power.max(axis=(1, 2))[:, None, None]
        np.divide(power, top, out=power, where=top > 0)
    return power


def power_many(
    mats: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Power iteration on a stack of square non-negative matrices.

    Returns ``(rho, vectors, iterations, converged)`` with shapes
    ``(L,), (L, n), (L,), (L,)``.  Each matrix is iterated independently on
    its shifted copy S = A + POWER_SHIFT*I from the uniform start vector;
    convergence requires both a stable Rayleigh quotient and a small
    eigen-residual, each scaled to the matrix magnitude so the test is
    scale-invariant.

    Most steps are jumps.  After every second single step ``w = S v``,
    while 18 steps of the budget remain, ``w`` is replaced by ``P w``, with
    P a rescaled ``S ** 16`` formed once, and the jump counts as 16 steps.
    The test always compares the quotients of two consecutive single steps
    of S, so ``rho``, ``vector`` and ``converged`` come from single steps,
    and P changes how fast v gets there, never what passes.  A jump whose
    result has a zero sum or a non-finite entry is skipped.  ``iterations``
    never exceeds ``max_iter`` and equals it wherever the iteration did not
    converge, so near-cyclic inputs still spend the whole budget.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    mats = np.asarray(mats, dtype=np.float64)
    count, n = mats.shape[0], mats.shape[1]
    shifted = mats + POWER_SHIFT * np.eye(n)
    # Row-sum norm of the shifted matrices; entries are non-negative.
    norm_scale = np.maximum(1.0, shifted.sum(axis=2).max(axis=1))

    rho = np.empty(count)
    vectors = np.empty((count, n))
    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)

    idx = np.arange(count)  # indices still iterating
    mat, power = shifted, _scaled_power(shifted)
    scale = norm_scale
    steps = np.zeros(count, dtype=int)  # steps counted per entry
    v = np.full((count, n), 1.0 / n)
    q_prev = np.full(count, np.inf)

    single = 0  # single steps taken
    while idx.size:
        single += 1
        steps += 1
        w = (mat @ v[:, :, None])[:, :, 0]
        q = np.einsum("li,li->l", v, w) / np.einsum("li,li->l", v, v)
        resid = np.abs(w - q[:, None] * v).max(axis=1)
        done = (np.abs(q - q_prev) <= tol * np.maximum(1.0, np.abs(q))) & (
            resid <= tol * scale
        )
        stop = done | (steps == max_iter)
        if stop.any():
            hit = idx[stop]
            rho[hit] = q[stop] - POWER_SHIFT
            vectors[hit] = v[stop]
            iterations[hit] = steps[stop]
            converged[hit] = done[stop]
            keep = ~stop
            idx, mat, power, scale = idx[keep], mat[keep], power[keep], scale[keep]
            steps, v, w, q = steps[keep], v[keep], w[keep], q[keep]
            if not idx.size:
                break
        q_prev = q
        if single % 2 == 0:
            far = (power @ w[:, :, None])[:, :, 0]
            total = far.sum(axis=1)
            jump = (steps + _JUMP + 2 <= max_iter) & (total > 0) & (total < np.inf)
            w = np.where(jump[:, None], far, w)
            steps += _JUMP * jump
            q_prev = np.where(jump, np.inf, q)
        v = w / w.sum(axis=1, keepdims=True)

    return rho, vectors, iterations, converged


def spectral_radius(
    a: Matrix,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PerronData:
    """Spectral radius and dominant eigenvector of a square matrix.

    Power iteration runs on a + POWER_SHIFT*I starting from the uniform
    vector, and the quotient is shifted back at the end.  Between stopping
    tests it jumps 16 steps at a time through a precomputed matrix power
    (see :func:`power_many`).  The iteration stops once the Rayleigh
    quotients of two consecutive single steps agree within ``tol``
    (relative to max(1, rho)) and the eigen-residual is below ``tol`` times
    the matrix norm; a zero matrix reports rho 0 with the uniform vector.
    Matrices whose dominant eigenvalue is nearly tied in modulus (e.g.
    hand-built cyclic patterns) may exhaust ``max_iter`` and come back with
    ``converged=False``.
    """
    if a.rows != a.cols:
        raise ShapeError(f"spectral radius needs a square matrix, got {a.rows}x{a.cols}")
    return PerronData.of(power_many(a.data[None, :, :], tol=tol, max_iter=max_iter), 0)


def collatz_wielandt_upper(a: Matrix, u) -> float:
    """max_i (Au)_i / u_i for strictly positive u; an upper bound on rho(a).

    The returned value r satisfies Au <= r*u entrywise, which forces
    rho(a) <= r for non-negative a.
    """
    if a.rows != a.cols:
        raise ShapeError(f"needs a square matrix, got {a.rows}x{a.cols}")
    u = as_vector(u, a.rows, "u")
    if (u <= 0).any():
        raise ValueError("u has a non-positive entry")
    return float((a.data @ u / u).max())


def collatz_wielandt_lower(a: Matrix, u) -> float:
    """min over supported i of (Au)_i / u_i; a lower bound on rho(a).

    ``u`` must be non-negative and non-zero; only coordinates with u_i > 0
    enter the minimum.  The value r satisfies Au >= r*u, hence rho(a) >= r.
    """
    if a.rows != a.cols:
        raise ShapeError(f"needs a square matrix, got {a.rows}x{a.cols}")
    u = as_vector(u, a.rows, "u")
    if (u < 0).any():
        raise ValueError("u has a negative entry")
    support = u > 0
    if not support.any():
        raise ValueError("u must be a non-zero vector")
    return float(((a.data @ u)[support] / u[support]).min())
