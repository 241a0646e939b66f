"""Shared oracles and builders for the test suite.

The closed-form 2x2 spectral radius below is the independent reference the
power-iteration kernel is checked against; it must never call into the
package's own eigen code.
"""

import math

import numpy as np

from hourglass import DEDUP_TOL, FiniteSet, Matrix, hausdorff_distance
from hourglass.linalg import DEFAULT_MAX_ITER, DEFAULT_TOL, POWER_SHIFT
from hourglass.sets import _DEDUP_PAIRWISE_LIMIT


def rho_2x2_closed_form(entries) -> float:
    """Largest-modulus root of the characteristic polynomial of a
    non-negative 2x2 matrix, straight from the quadratic formula.

    For non-negative entries the discriminant (a-d)^2 + 4bc is non-negative
    and the larger root dominates the other in modulus.
    """
    (a, b), (c, d) = entries
    disc = (a - d) * (a - d) + 4.0 * b * c
    return ((a + d) + math.sqrt(disc)) / 2.0


def power_many_reference(mats, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """The Perron kernel's stopping test on single power steps only.

    Every step is ``w = S v`` with S = A + POWER_SHIFT*I, from the uniform
    vector, and the test of ``power_many`` runs after each: two consecutive
    Rayleigh quotients agree within ``tol * max(1, |q|)`` and the residual
    is within ``tol`` times max(1, row-sum norm of S).  Returns ``(rho,
    vectors, iterations, converged)`` like ``power_many``.
    """
    mats = np.asarray(mats, dtype=np.float64)
    count, n = mats.shape[0], mats.shape[1]
    shifted = mats + POWER_SHIFT * np.eye(n)
    scale = np.maximum(1.0, shifted.sum(axis=2).max(axis=1))
    rho = np.empty(count)
    vectors = np.empty((count, n))
    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    idx = np.arange(count)
    v = np.full((count, n), 1.0 / n)
    q_prev = np.full(count, np.inf)
    for k in range(1, max_iter + 1):
        w = np.einsum("lij,lj->li", shifted, v)
        q = np.einsum("li,li->l", v, w) / np.einsum("li,li->l", v, v)
        resid = np.abs(w - q[:, None] * v).max(axis=1)
        done = (np.abs(q - q_prev) <= tol * np.maximum(1.0, np.abs(q))) & (
            resid <= tol * scale
        )
        stop = done | (k == max_iter)
        hit = idx[stop]
        rho[hit], vectors[hit], iterations[hit] = q[stop] - POWER_SHIFT, v[stop], k
        converged[hit] = done[stop]
        keep = ~stop
        idx, shifted, scale = idx[keep], shifted[keep], scale[keep]
        v, w, q_prev = v[keep], w[keep], q[keep]
        if not idx.size:
            break
        v = w / w.sum(axis=1, keepdims=True)
    return rho, vectors, iterations, converged


def diag(*values) -> Matrix:
    return Matrix(np.diag(np.asarray(values, dtype=float)))


def ex4_matrices() -> tuple[Matrix, Matrix]:
    return diag(1.0, 0.0), diag(0.0, 1.0)


def ex4_set() -> FiniteSet:
    return FiniteSet(ex4_matrices())


def listed(mset) -> list[Matrix]:
    """A set's members as ``Matrix`` objects, in enumeration order."""
    return [Matrix(a) for a in mset.stack()]


def draw_reference(stack, n, rng, sizes=None):
    """The hull draw written point by point over an enumerated stack.

    The same three draws from ``rng`` as ``draw_hull_samples``: r_s for
    every point, then four terms per point, then four exponentials per
    point.  A term is a member index; given the row-set ``sizes`` of an IRU
    set, it is one row index per row set instead, read as the mixed-radix
    digits of an enumeration index, the last row set fastest.
    """
    r = rng.integers(1, min(4, len(stack)) + 1, size=n)
    if sizes is None:
        picks = rng.integers(0, len(stack), size=(n, 4))
    else:
        rows = rng.integers(0, sizes, size=(n, 4, len(sizes)))
        picks = np.zeros((n, 4), dtype=int)
        for i, size in enumerate(sizes):
            picks = picks * size + rows[..., i]
    weights = rng.exponential(1.0, size=(n, 4))
    points = []
    for s in range(n):
        w = weights[s, : r[s]] / weights[s, : r[s]].sum()
        points.append(np.einsum("k,kij->ij", w, stack[picks[s, : r[s]]]))
    return np.stack(points)


def sets_equal(a, b, tol: float = 1e-12) -> bool:
    """Equality as point sets: zero Hausdorff distance."""
    return a.shape == b.shape and hausdorff_distance(a, b) <= tol


def random_finite_set(rng, n, m, count, zero_prob=0.0) -> FiniteSet:
    """Finite set of random non-negative matrices, optionally sparsified."""
    mats = []
    for _ in range(count):
        entries = rng.uniform(0.0, 1.0, size=(n, m))
        if zero_prob:
            entries = np.where(rng.uniform(size=(n, m)) < zero_prob, 0.0, entries)
        mats.append(Matrix(entries))
    return FiniteSet(mats)


def dedup_indices_reference(arr, tol=DEDUP_TOL, limit=_DEDUP_PAIRWISE_LIMIT):
    """The first-occurrence dedup rule as a plain sequential loop.

    A member whose bytes were seen before is dropped; otherwise, while
    1..limit members are kept, it is dropped when some kept member lies
    within ``tol`` of it entrywise.
    """
    flat = arr.reshape(arr.shape[0], -1)
    seen: set[bytes] = set()
    kept: list[int] = []
    reps = np.empty_like(flat)
    for i in range(flat.shape[0]):
        key = flat[i].tobytes()
        if key in seen:
            continue
        seen.add(key)
        n = len(kept)
        if n and n <= limit:
            if (np.abs(reps[:n] - flat[i]).max(axis=1) <= tol).any():
                continue
        reps[n] = flat[i]
        kept.append(i)
    return np.asarray(kept, dtype=int)
