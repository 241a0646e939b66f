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

When either set has independent row uncertainty (IRU), :func:`solve_saddle`
first lets the players answer each other in turn: an IRU player by greedy
row selection (Nesterov & Protasov, "Optimizing the spectral radius", SIAM
J. Matrix Anal. Appl. 2013; Cvetkovic & Protasov, "The greedy strategy for
optimizing the Perron eigenvalue", Math. Program. 2022), any other player
by a scan, and the settled pair is kept when the certificate accepts it.

Every radius here comes from :func:`power_many`, at its default
tolerances, on a stack of products formed with ``@``: the table is one
kernel pass over the broadcast stack, and the exhaustive solver reads the
Perron data of its pair from that table cell rather than solving again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ShapeError
from .linalg import Matrix, PerronData, power_many, readonly
from .sets import DEFAULT_CAP, IRUSet, MatrixSet

#: Certificate residuals are accepted down to -CERTIFICATE_TOL.
CERTIFICATE_TOL = 1e-9

# Entries of the sum-normalized dominant eigenvector below this threshold
# count as zero; the certificate is then inconclusive rather than failed.
_POSITIVE_VECTOR_TOL = 1e-12

#: Bound on the greedy passes of one IRU best response and on the rounds of
#: row-wise answers in :func:`solve_saddle`; reaching it gives up.  Both
#: settle in a few steps on positive sets, but zero rows can make them cycle.
IRU_MAX_ROUNDS = 100

# A hull sample combines r members, r drawn uniformly from 1..min(4, K).
_HULL_TERMS = 4


@dataclass(frozen=True, eq=False)
class SaddleResult:
    """Candidate saddle pair with its min-max data.

    ``a_tilde`` and ``b_tilde`` are read-only float64 copies of members of
    the two sets.  ``value`` is rho(a_tilde b_tilde); ``w`` is b_tilde
    applied to the dominant eigenvector of the product.  From the
    exhaustive table, ``gap = minmax - maxmin`` is non-negative and zero
    exactly when the table has a saddle; a pair settled by row-wise answers
    is a certified saddle, so minmax = maxmin = value and gap = 0.0.
    """

    a_tilde: np.ndarray
    b_tilde: np.ndarray
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
    members A; ``b_residual`` the worst slack of  w >= B v.
    Both inequalities are affine in the varying matrix, so vertex validity
    certifies the full convex hulls.  ``conclusive`` is False when the
    eigenvector had a (numerically) zero coordinate or the power iteration
    did not converge; ``valid`` then stays False regardless of residuals.
    """

    a_residual: float
    b_residual: float
    valid: bool
    conclusive: bool


def _check_pairing(shape_a: tuple[int, ...], shape_b: tuple[int, ...]) -> None:
    if tuple(shape_a) != tuple(shape_b)[::-1]:
        raise ShapeError(
            f"need A sets of shape (n, m) and B sets of shape (m, n), "
            f"got {tuple(shape_a)} and {tuple(shape_b)}"
        )


def product_table(
    stack_a: np.ndarray, stack_b: np.ndarray, cap: int = DEFAULT_CAP
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Perron kernel on all pairwise products of two member stacks.

    Returns the :func:`power_many` output (rho, vectors, iterations,
    converged) with leading shape (ka, kb): cell (i, j) belongs to
    A_i @ B_j, so rho is the table of spectral radii and
    ``PerronData.of(out, (i, j))`` the data of one product.  The A stack
    has shape (ka, n, m) and the B stack (kb, m, n); ka * kb must stay
    within ``cap``.
    """
    _check_pairing(stack_a.shape[1:], stack_b.shape[1:])
    ka, kb, n = len(stack_a), len(stack_b), stack_a.shape[1]
    if ka * kb > cap:
        raise CapExceededError(ka * kb, cap)
    products = stack_a[:, None] @ stack_b[None]
    out = power_many(products.reshape(ka * kb, n, n))
    return tuple(x.reshape((ka, kb) + x.shape[1:]) for x in out)


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


def minimax_table(a_set: MatrixSet, b_set: MatrixSet, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Full table rho(A_i B_j) in enumeration order.

    Row reductions give min-max, column reductions max-min; the product of
    the two cardinalities must stay within ``cap``.
    """
    return readonly(product_table(a_set.stack(cap), b_set.stack(cap), cap)[0])


def _scan(fixed: np.ndarray, members: np.ndarray, minimize: bool) -> tuple[int, tuple]:
    """The earliest index of a member X minimizing rho(X fixed), or
    maximizing rho(fixed X), and the kernel output on all the products.
    """
    out = power_many(members @ fixed if minimize else fixed @ members)
    return int(out[0].argmin() if minimize else out[0].argmax()), out


def _row_images(row_sets: tuple[np.ndarray, ...], x: np.ndarray) -> list[np.ndarray]:
    """r . x for every row r of every row set."""
    return [np.einsum("rj,j->r", rs, x) for rs in row_sets]


def _greedy_rows(
    fixed: np.ndarray, mset: IRUSet, picks: tuple, minimize: bool
) -> tuple[tuple, np.ndarray, PerronData] | None:
    """Greedy row selection for rho(X fixed) (minimize) or rho(fixed X).

    X is the member of ``mset`` taking row ``picks[i]`` of row set i.  With
    v the Perron vector of the product, every row moves to the earliest row
    of its set minimizing r . (fixed v), or maximizing r . v, until no pick
    changes.  The product of the settled X with any member X' then
    satisfies the Collatz-Wielandt inequality that orders their spectral
    radii, so for v > 0 the settled X is an exact best response.  Returns
    (picks, X, Perron data of the product), or None when the picks do not
    settle in IRU_MAX_ROUNDS passes or a power iteration does not converge:
    its vector gives no valid step, and each such iteration runs the
    kernel's full step budget.
    """
    for _ in range(IRU_MAX_ROUNDS):
        x = mset.gather(picks)
        product = x @ fixed if minimize else fixed @ x
        perron = PerronData.of(power_many(product[None]), 0)
        if not perron.converged:
            return None
        target = fixed @ perron.vector if minimize else perron.vector
        images = _row_images(mset.row_sets, target)
        settled = tuple(int(r.argmin() if minimize else r.argmax()) for r in images)
        if settled == picks:
            return picks, x, perron
        picks = settled
    return None


def _first(mset: MatrixSet):
    """A player's opening choice: row 0 of every row set of an IRU set, else member 0."""
    return (0,) * len(mset.row_sets) if isinstance(mset, IRUSet) else 0


def _respond(fixed: np.ndarray, mset: MatrixSet, cap: int, minimize: bool, last):
    """A player's answer to ``fixed``: (choice, member, Perron data of the product).

    A (``minimize``) minimizes rho(A fixed), B maximizes rho(fixed B).  An
    IRU set answers by :func:`_greedy_rows` from its ``last`` picks, other
    sets by a scan, the choice an index.  None when the greedy fails or a
    scanned radius did not converge and may misorder the scan.
    """
    if isinstance(mset, IRUSet):
        return _greedy_rows(fixed, mset, last, minimize)
    members = mset.stack(cap)
    best, out = _scan(fixed, members, minimize)
    return (best, members[best], PerronData.of(out, best)) if out[3].all() else None


def _best_response(
    fixed: Matrix, mset: MatrixSet, cap: int, minimize: bool
) -> tuple[np.ndarray, float]:
    shapes = (mset.shape, fixed.shape)
    _check_pairing(*(shapes if minimize else shapes[::-1]))
    if isinstance(mset, IRUSet):
        found = _respond(fixed.data, mset, cap, minimize, _first(mset))
        if found is not None and found[2].vector.min() > _POSITIVE_VECTOR_TOL:
            return readonly(found[1].copy()), found[2].rho
    members = mset.stack(cap)
    best, out = _scan(fixed.data, members, minimize)
    return readonly(members[best].copy()), float(out[0][best])


def best_response_min(
    b: Matrix, a_set: MatrixSet, cap: int = DEFAULT_CAP
) -> tuple[np.ndarray, float]:
    """Member of a_set minimizing rho(A b), as a read-only copy, and the
    radius: on an IRU set by greedy row selection when it settles with a
    strictly positive Perron vector, which makes it exact (ties to the
    earliest row of each row set), otherwise by a scan within ``cap`` (ties
    to the earliest index).
    """
    return _best_response(b, a_set, cap, minimize=True)


def best_response_max(
    a: Matrix, b_set: MatrixSet, cap: int = DEFAULT_CAP
) -> tuple[np.ndarray, float]:
    """Member of b_set maximizing rho(a B); answered as in :func:`best_response_min`."""
    return _best_response(a, b_set, cap, minimize=False)


def _saddle_result(
    a: np.ndarray, b: np.ndarray, perron: PerronData, minmax: float, maxmin: float
) -> SaddleResult:
    """Copies of the pair (a, b) with the Perron data of a b, w = b v and
    gap = minmax - maxmin.
    """
    b_tilde = readonly(b.copy())
    return SaddleResult(
        a_tilde=readonly(a.copy()),
        b_tilde=b_tilde,
        value=perron.rho,
        perron=perron,
        w=readonly(b_tilde @ perron.vector),
        minmax=minmax,
        maxmin=maxmin,
        gap=minmax - maxmin,
    )


def _alternate(a_set: MatrixSet, b_set: MatrixSet, cap: int) -> SaddleResult | None:
    """The pair the players settle on by answering each other through
    :func:`_respond`, from B's first choice until B's answer stays put;
    None when an answer fails, B repeats an earlier choice (a cycle), or
    IRU_MAX_ROUNDS rounds pass.
    """
    last_a, b_choices = _first(a_set), [_first(b_set)]
    b = b_set.gather(b_choices[0]) if isinstance(b_set, IRUSet) else b_set.stack(cap)[0]
    for _ in range(IRU_MAX_ROUNDS):
        found = _respond(b, a_set, cap, True, last_a)
        if found is not None:
            last_a, a, _ = found
            found = _respond(a, b_set, cap, False, b_choices[-1])
        if found is None:
            return None
        choice, b, perron = found
        if choice == b_choices[-1]:
            return _saddle_result(a, b, perron, perron.rho, perron.rho)
        if choice in b_choices:
            return None
        b_choices.append(choice)
    return None


def solve_saddle(
    a_set: MatrixSet, b_set: MatrixSet, cap: int = DEFAULT_CAP, tol: float = CERTIFICATE_TOL
) -> SaddleResult:
    """Saddle-point computation over two matrix sets.

    When either set is an IRU set, the players first answer each other in
    turn, enumerating no IRU set, and a settled pair that
    :func:`certify_saddle` accepts at ``tol`` is returned as a saddle over
    both hulls: minmax = maxmin = value and gap = 0.0.  Otherwise the
    exhaustive table answers: b_tilde maximizes the column minimum
    m(B) = min_A rho(A B), a_tilde is the minimizing response to it, ties
    break to the earliest enumeration index, and minmax is the transposed
    reduction min_A max_B.  The Perron data of a_tilde b_tilde is the
    table's own cell, so value == maxmin exactly; its dominant eigenvector
    v and w = b_tilde v are attached for certification.
    """
    _check_pairing(a_set.shape, b_set.shape)
    if isinstance(a_set, IRUSet) or isinstance(b_set, IRUSet):
        result = _alternate(a_set, b_set, cap)
        if result is not None and certify_saddle(result, a_set, b_set, tol, cap).valid:
            return result
    stack_a, stack_b = a_set.stack(cap), b_set.stack(cap)
    kernel = product_table(stack_a, stack_b, cap)
    minmax, maxmin, i, j = reduce_table(kernel[0])
    perron = PerronData.of(kernel, (i, j))
    return _saddle_result(stack_a[i], stack_b[j], perron, minmax, maxmin)


def _row_extreme(mset: MatrixSet, x: np.ndarray, cap: int, minimize: bool) -> np.ndarray:
    """Entrywise min (or max) of M x over the members M of a set.

    Row i of an IRU member ranges over row set i alone, so only the rows
    are scanned; other sets are enumerated.  Both paths form each entry of
    M x with the same einsum reduction, so they agree bit for bit.
    """
    if isinstance(mset, IRUSet):
        images = _row_images(mset.row_sets, x)
        return np.array([r.min() if minimize else r.max() for r in images])
    images = np.einsum("kij,j->ki", mset.stack(cap), x)
    return images.min(axis=0) if minimize else images.max(axis=0)


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
    under positivity.  An IRU set is checked row by row, at a cost of its
    total row count rather than its cardinality, and never against ``cap``.
    """
    v = result.perron.vector
    w = result.w
    a_residual = float((_row_extreme(a_set, w, cap, minimize=True) - result.value * v).min())
    b_residual = float((w - _row_extreme(b_set, v, cap, minimize=False)).min())
    conclusive = bool(v.min() > _POSITIVE_VECTOR_TOL) and result.perron.converged
    valid = conclusive and a_residual >= -tol and b_residual >= -tol
    return Certificate(
        a_residual=a_residual,
        b_residual=b_residual,
        valid=valid,
        conclusive=conclusive,
    )


def draw_hull_samples(
    mset: MatrixSet, n: int, rng: np.random.Generator, cap: int = DEFAULT_CAP
) -> np.ndarray:
    """``n`` random points of a set's convex hull, shape (n, rows, cols).

    Point s combines r_s members, r_s uniform on 1..min(4, K), drawn
    uniformly with replacement and weighted uniformly on the simplex.  After
    the cap check, ``rng`` gives r for every point, then four terms per
    point in one draw, then four exponentials per point, of which the first
    r_s count.  A term is a member index, or for an IRU set one row index
    per row set, each uniform on its row set; an IRU set's members then
    come from :meth:`IRUSet.gather`, so it is never enumerated.
    """
    count = mset.count(cap)
    r = rng.integers(1, min(_HULL_TERMS, count) + 1, size=n)
    if isinstance(mset, IRUSet):
        sizes = [len(rs) for rs in mset.row_sets]
        members = mset.gather(rng.integers(0, sizes, size=(n, _HULL_TERMS, len(sizes))))
    else:
        members = mset.take(rng.integers(0, count, size=(n, _HULL_TERMS)), cap)
    weights = rng.exponential(1.0, size=(n, _HULL_TERMS))
    weights *= np.arange(_HULL_TERMS) < r[:, None]
    weights /= weights.sum(axis=1, keepdims=True)
    return np.einsum("sk,skij->sij", weights, members)


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

    Draws ``n`` convex combinations from each hull with
    :func:`draw_hull_samples`, B's first and then A's, from one generator
    seeded with ``seed``, and verifies rho(a_tilde B) <= value + tol and
    value <= rho(A b_tilde) + tol.  A set over ``cap`` raises
    :class:`CapExceededError`; an IRU set is checked by its cardinality and
    never enumerated.  Returns the conjunction; n = 0 is vacuously True.
    """
    if n <= 0:
        return True
    rng = np.random.default_rng(seed)
    b_samples = draw_hull_samples(b_set, n, rng, cap)
    a_samples = draw_hull_samples(a_set, n, rng, cap)
    rho_b = _scan(result.a_tilde, b_samples, minimize=False)[1][0]
    rho_a = _scan(result.b_tilde, a_samples, minimize=True)[1][0]
    return bool((rho_b <= result.value + tol).all() and (rho_a >= result.value - tol).all())
