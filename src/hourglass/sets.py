"""Compact matrix sets and their algebra: finite lists, linearly ordered
chains, independent row uncertainty (IRU) sets, the Minkowski nodes
``Sum``, ``Product`` and ``Scale``, convex-hull helpers, and the Hausdorff
metric.

Every set, a Minkowski node included, is a :class:`MatrixSet`, so nodes
take any sets as operands and nest into expression trees.  Set values are
immutable and enumeration is deterministic: finite sets keep construction
order, IRU sets walk row choices in row-major order (the last row's choice
varies fastest), and the Minkowski nodes pair members left-major with
first-occurrence deduplication.
"""

from __future__ import annotations

import abc
from typing import ClassVar

import numpy as np

from .errors import CapExceededError, ParseError, ShapeError
from .linalg import Matrix, expect_number, readonly

#: Default bound on the number of matrices any enumeration may materialize.
DEFAULT_CAP = 10 ** 6

#: Entrywise tolerance under which two members count as the same matrix.
#: Minkowski images of exact inputs collide exactly; the band only absorbs
#: rounding noise.
DEDUP_TOL = 1e-12

# Pairwise tolerance-deduplication is quadratic; beyond this many distinct
# members only exact duplicates are merged.
_DEDUP_PAIRWISE_LIMIT = 4096


def _dedup_indices(arr: np.ndarray, tol: float = DEDUP_TOL) -> np.ndarray:
    """Indices of first occurrences, merging members within ``tol``."""
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
        if n and n <= _DEDUP_PAIRWISE_LIMIT:
            if (np.abs(reps[:n] - flat[i]).max(axis=1) <= tol).any():
                continue
        reps[n] = flat[i]
        kept.append(i)
    return np.asarray(kept, dtype=int)


class MatrixSet(abc.ABC):
    """A non-empty set of equally shaped non-negative matrices."""

    kind: ClassVar[str]

    @property
    @abc.abstractmethod
    def shape(self) -> tuple[int, int]:
        """Common (rows, cols) of every member."""

    @abc.abstractmethod
    def stack(self, cap: int = DEFAULT_CAP) -> np.ndarray:
        """Read-only member entries, shape (K, rows, cols), in enumeration order.

        Raises :class:`CapExceededError` when K exceeds ``cap``.
        """

    def members(self, cap: int = DEFAULT_CAP) -> list[Matrix]:
        """All members in enumeration order."""
        return [Matrix(a) for a in self.stack(cap)]

    def count(self, cap: int = DEFAULT_CAP) -> int:
        """Number of members K; raises :class:`CapExceededError` above ``cap``."""
        return len(self.stack(cap))

    def take(self, indices, cap: int = DEFAULT_CAP) -> np.ndarray:
        """Members at enumeration ``indices``, shape indices.shape + (rows, cols)."""
        return self.stack(cap)[indices]


def _check_cap(count: int, cap: int) -> None:
    if count > cap:
        raise CapExceededError(count, cap)


class FiniteSet(MatrixSet):
    """Explicit list of members; duplicates are kept but flagged."""

    kind = "finite"
    __slots__ = ("_stack",)

    def __init__(self, elements):
        elems = tuple(elements)
        if not elems:
            raise ValueError("a finite matrix set must be non-empty")
        for m in elems:
            if not isinstance(m, Matrix):
                raise TypeError(f"expected Matrix elements, got {type(m).__name__}")
            if m.shape != elems[0].shape:
                raise ShapeError(
                    f"all members must share one shape: found "
                    f"{elems[0].rows}x{elems[0].cols} and {m.rows}x{m.cols}"
                )
        self._stack = readonly(np.stack([m.data for m in elems]))

    @classmethod
    def _of_stack(cls, stack: np.ndarray) -> "FiniteSet":
        """Wrap an already validated read-only stack without copying it."""
        mset = cls.__new__(cls)
        mset._stack = stack
        return mset

    @property
    def elements(self) -> tuple[Matrix, ...]:
        return tuple(Matrix(a) for a in self._stack)

    @property
    def shape(self) -> tuple[int, int]:
        return self._stack.shape[1:]

    @property
    def has_duplicates(self) -> bool:
        return len(_dedup_indices(self._stack)) < len(self._stack)

    def stack(self, cap: int = DEFAULT_CAP) -> np.ndarray:
        _check_cap(len(self._stack), cap)
        return self._stack

    def __len__(self) -> int:
        return len(self._stack)

    def __repr__(self) -> str:
        n, m = self.shape
        return f"{type(self).__name__}({len(self)} matrices of shape {n}x{m})"


class LinearlyOrderedSet(FiniteSet):
    """Strictly increasing chain of positive matrices 0 < A1 < A2 < ..."""

    kind = "ordered"
    __slots__ = ()

    def __init__(self, elements):
        super().__init__(elements)
        if not (self._stack[0] > 0).all():
            raise ValueError("the smallest member must be strictly positive")
        if not (self._stack[1:] > self._stack[:-1]).all():
            raise ValueError(
                "members must be strictly increasing entrywise in list order"
            )


class IRUSet(MatrixSet):
    """Independent row uncertainty set.

    Members are all matrices assembled by picking row i from the finite
    row set ``row_sets[i]``, independently for every row.  The enumerated
    cardinality is the product of the row-set sizes.
    """

    kind = "iru"
    __slots__ = ("_row_sets",)

    def __init__(self, row_sets):
        sets = []
        for i, rs in enumerate(row_sets):
            arr = np.array(rs, dtype=np.float64)
            if arr.ndim != 2 or arr.shape[0] < 1:
                raise ShapeError(
                    f"row set {i} must be a non-empty list of equal-length rows"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"row set {i} has a non-finite entry")
            if (arr < 0).any():
                raise ValueError(f"row set {i} has a negative entry")
            sets.append(readonly(arr))
        if not sets:
            raise ValueError("an IRU set needs at least one row set")
        width = sets[0].shape[1]
        for i, arr in enumerate(sets):
            if arr.shape[1] != width:
                raise ShapeError(
                    f"row set {i} has rows of length {arr.shape[1]}, expected {width}"
                )
        self._row_sets = tuple(sets)

    @property
    def row_sets(self) -> tuple[np.ndarray, ...]:
        return self._row_sets

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self._row_sets), self._row_sets[0].shape[1])

    @property
    def cardinality(self) -> int:
        card = 1
        for rs in self._row_sets:
            card *= rs.shape[0]
        return card

    def count(self, cap: int = DEFAULT_CAP) -> int:
        """The cardinality, checked against ``cap`` without enumerating."""
        card = self.cardinality
        _check_cap(card, cap)
        return card

    def take(self, indices, cap: int = DEFAULT_CAP) -> np.ndarray:
        """Members gathered row by row, never enumerating the set.

        Index k picks the rows given by its mixed-radix digits over the
        row-set sizes, last row fastest (enumeration order).
        """
        count = self.count(cap)
        rest = np.asarray(indices)
        if ((rest < 0) | (rest >= count)).any():
            raise ValueError(f"member index out of range for {count} members")
        rows = []
        for rs in reversed(self._row_sets):
            rest, pick = np.divmod(rest, len(rs))
            rows.append(rs[pick])
        return np.stack(rows[::-1], axis=-2)

    def stack(self, cap: int = DEFAULT_CAP) -> np.ndarray:
        return readonly(self.take(np.arange(self.count(cap)), cap))

    def __repr__(self) -> str:
        sizes = tuple(rs.shape[0] for rs in self._row_sets)
        n, m = self.shape
        return f"IRUSet(shape {n}x{m}, row-set sizes {sizes})"


def _node_result(arr: np.ndarray, dedup: bool) -> np.ndarray:
    """Validate a node's stack once and drop near-duplicates if asked."""
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    if dedup:
        arr = arr[_dedup_indices(arr)]
    return readonly(arr)


class _ExprNode(MatrixSet):
    """A Minkowski operation on matrix-set operands, itself a matrix set.

    Evaluation is bottom-up on member stacks and never distributes products
    over sums; the two orders genuinely differ as sets.  The evaluated stack
    is kept for the last ``cap``, so a subtree shared by two parents is
    evaluated once per cap; another cap re-evaluates, and with it re-checks
    the cap at every node below.
    """

    kind = "expr"
    __slots__ = ("_operands", "_evaluated")

    def __init__(self, *operands: MatrixSet):
        for operand in operands:
            if not isinstance(operand, MatrixSet):
                raise TypeError(
                    f"{type(self).__name__} expects MatrixSet operands, "
                    f"got {type(operand).__name__}"
                )
        self._operands = operands
        self._evaluated: tuple[int, np.ndarray] | None = None

    def stack(self, cap: int = DEFAULT_CAP) -> np.ndarray:
        if self._evaluated is None or self._evaluated[0] != cap:
            # A plain loop keeps one interpreter frame per tree level.
            stacks = []
            for operand in self._operands:
                stacks.append(operand.stack(cap))
            # An overflow is reported by the node's finiteness check alone.
            with np.errstate(over="ignore", invalid="ignore"):
                self._evaluated = (cap, self._combine(cap, *stacks))
        return self._evaluated[1]

    @abc.abstractmethod
    def _combine(self, cap: int, *stacks: np.ndarray) -> np.ndarray:
        """The node's member stack from its operands' stacks, in operand order."""


class Sum(_ExprNode):
    """Minkowski sum {A + B : A in left, B in right} of equally shaped sets."""

    __slots__ = ("left", "right")

    def __init__(self, left: MatrixSet, right: MatrixSet):
        super().__init__(left, right)
        if left.shape != right.shape:
            raise ShapeError(
                f"sum operands must share a shape, got {left.shape} and {right.shape}"
            )
        self.left = left
        self.right = right

    @property
    def shape(self) -> tuple[int, int]:
        return self.left.shape

    def _combine(self, cap: int, arr_l: np.ndarray, arr_r: np.ndarray) -> np.ndarray:
        """Pairwise sums, left-major, deduplicated within DEDUP_TOL."""
        _check_cap(len(arr_l) * len(arr_r), cap)
        sums = arr_l[:, None, :, :] + arr_r[None, :, :, :]
        return _node_result(sums.reshape(-1, *self.shape), dedup=True)


class Product(_ExprNode):
    """Minkowski product {A B : A in left, B in right}; left cols match right rows."""

    __slots__ = ("left", "right")

    def __init__(self, left: MatrixSet, right: MatrixSet):
        super().__init__(left, right)
        if left.shape[1] != right.shape[0]:
            raise ShapeError(
                f"product operands have mismatched inner dimensions: "
                f"{left.shape} times {right.shape}"
            )
        self.left = left
        self.right = right

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left.shape[0], self.right.shape[1])

    def _combine(self, cap: int, arr_l: np.ndarray, arr_r: np.ndarray) -> np.ndarray:
        """Pairwise products, left-major, deduplicated within DEDUP_TOL."""
        _check_cap(len(arr_l) * len(arr_r), cap)
        prods = np.einsum("aij,bjk->abik", arr_l, arr_r)
        return _node_result(prods.reshape(-1, *self.shape), dedup=True)


class Scale(_ExprNode):
    """{t A : A in child} for a finite t > 0; the cardinality is preserved."""

    __slots__ = ("t", "child")

    def __init__(self, t: float, child: MatrixSet):
        super().__init__(child)
        t = float(t)
        if not np.isfinite(t) or t <= 0:
            raise ValueError("scale factor must be a finite number > 0")
        self.t = t
        self.child = child

    @property
    def shape(self) -> tuple[int, int]:
        return self.child.shape

    def _combine(self, cap: int, arr: np.ndarray) -> np.ndarray:
        return _node_result(self.t * arr, dedup=False)


def transpose_set(a: MatrixSet, cap: int = DEFAULT_CAP) -> FiniteSet:
    """Finite set of the transposes of every member, order preserved."""
    return FiniteSet._of_stack(a.stack(cap).transpose(0, 2, 1))


def hausdorff_distance(a: MatrixSet, b: MatrixSet, cap: int = DEFAULT_CAP) -> float:
    """Hausdorff distance under the entrywise max norm.

    The larger of the two directed distances max over one set of the min
    over the other of ||X - Y||_inf (on vectorized matrices).  The number
    of member pairs compared must stay within ``cap``.
    """
    if a.shape != b.shape:
        raise ShapeError(
            f"sets must share a shape, got {a.shape} and {b.shape}"
        )
    va = a.stack(cap).reshape(-1, a.shape[0] * a.shape[1])
    vb = b.stack(cap).reshape(-1, b.shape[0] * b.shape[1])
    _check_cap(len(va) * len(vb), cap)
    dists = np.abs(va[:, None, :] - vb[None, :, :]).max(axis=2)
    return float(max(dists.min(axis=1).max(), dists.min(axis=0).max()))


def hull_points(
    mset: MatrixSet, picks: np.ndarray, weights: np.ndarray, cap: int = DEFAULT_CAP
) -> np.ndarray:
    """Convex combinations of members chosen by enumeration index.

    ``picks`` and ``weights`` have shape (S, R); point s is the sum over k
    of ``weights[s, k]`` times member ``picks[s, k]`` in enumeration order,
    so rows of weights summing to 1 give points of the convex hull, of
    shape (S, rows, cols).  Members come from :meth:`MatrixSet.take`, so an
    IRU set is never enumerated.
    """
    return np.einsum("sk,skij->sij", weights, mset.take(picks, cap))


def convex_hull_sample(
    mset: MatrixSet, r: int, rng_seed: int, cap: int = DEFAULT_CAP
) -> Matrix:
    """Random convex combination of ``r`` members drawn with replacement.

    The result lies in the convex hull of the set.  Members are drawn
    uniformly and weighted by normalized exponentials (uniform on the
    simplex); fixed seeds reproduce the draw exactly, and an IRU set is
    sampled through :func:`hull_points` without being enumerated.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    rng = np.random.default_rng(rng_seed)
    picks = rng.integers(0, mset.count(cap), size=(1, r))
    weights = rng.exponential(1.0, size=(1, r))
    weights /= weights.sum()
    return Matrix(hull_points(mset, picks, weights, cap)[0])


def _extreme_rows_1d(rows: np.ndarray) -> np.ndarray:
    values = rows[:, 0]
    keep = sorted({int(values.argmin()), int(values.argmax())})
    return rows[keep]


def _extreme_rows_2d(rows: np.ndarray) -> np.ndarray:
    pts = rows[_dedup_indices(rows)]
    if len(pts) <= 2:
        extremes = pts
    else:
        # Monotone chain with strict turns only, so collinear interior
        # points are dropped and exactly the hull vertices remain.
        eps = DEDUP_TOL * max(1.0, float(np.abs(pts).max())) ** 2
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        chain_pts = pts[order]

        def half_hull(seq):
            out: list[np.ndarray] = []
            for p in seq:
                while len(out) >= 2:
                    cross = (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1]) - (
                        out[-1][1] - out[-2][1]
                    ) * (p[0] - out[-2][0])
                    if cross <= eps:
                        out.pop()
                    else:
                        break
                out.append(p)
            return out

        lower = half_hull(chain_pts)
        upper = half_hull(chain_pts[::-1])
        extremes = np.asarray(lower[:-1] + upper[:-1])
    keep = [
        i
        for i in range(len(rows))
        if (np.abs(extremes - rows[i]).max(axis=1) <= DEDUP_TOL).any()
    ]
    if not keep:
        return rows[:1]
    kept_rows = rows[keep]
    return kept_rows[_dedup_indices(kept_rows)]


def convex_hull_iru(mset: IRUSet) -> IRUSet:
    """IRU set spanning the convex hull, row set by row set.

    For row dimension <= 2 each row set is reduced exactly to its extreme
    points; in higher dimension the row sets are returned unchanged, which
    still spans the same hull (just not minimally).
    """
    if not isinstance(mset, IRUSet):
        raise TypeError("convex_hull_iru expects an IRU set")
    if mset.shape[1] > 2:
        return mset
    reducer = _extreme_rows_1d if mset.shape[1] == 1 else _extreme_rows_2d
    return IRUSet([reducer(rs) for rs in mset.row_sets])


def random_iru_set(
    rng: np.random.Generator,
    rows: int,
    cols: int,
    max_rows_per_set: int = 3,
    low: float = 0.05,
    high: float = 1.0,
) -> IRUSet:
    """Random IRU set with positive uniform entries; used by sweeps."""
    sizes = rng.integers(1, max_rows_per_set + 1, size=rows)
    return IRUSet([rng.uniform(low, high, size=(int(k), cols)) for k in sizes])


def random_iru_pair(rng: np.random.Generator) -> tuple[IRUSet, IRUSet]:
    """Random IRU sets A (n x m) and B (m x n): n, m uniform on {2, 3}, then A, then B."""
    n, m = (int(x) for x in rng.integers(2, 4, size=2))
    return random_iru_set(rng, n, m), random_iru_set(rng, m, n)


# --- JSON wire format -------------------------------------------------------


def set_to_json(mset: MatrixSet) -> dict:
    """Wire form of a set; inverse of :func:`set_from_json`."""
    if isinstance(mset, FiniteSet):
        return {
            "kind": mset.kind,
            "matrices": [m.to_json() for m in mset.elements],
        }
    if isinstance(mset, IRUSet):
        return {
            "kind": "iru",
            "row_sets": [rs.tolist() for rs in mset.row_sets],
        }
    if isinstance(mset, _ExprNode):
        return {"kind": "expr", "expr": _expr_to_json(mset)}
    raise TypeError(f"not a MatrixSet: {type(mset).__name__}")


def _expr_to_json(mset: MatrixSet) -> dict:
    """A node as its op; any other set as a leaf around its own wire form."""
    if isinstance(mset, Sum):
        return {
            "op": "sum",
            "left": _expr_to_json(mset.left),
            "right": _expr_to_json(mset.right),
        }
    if isinstance(mset, Product):
        return {
            "op": "prod",
            "left": _expr_to_json(mset.left),
            "right": _expr_to_json(mset.right),
        }
    if isinstance(mset, Scale):
        return {"op": "scale", "t": mset.t, "child": _expr_to_json(mset.child)}
    return {"op": "leaf", "set": set_to_json(mset)}


def _matrices_from_json(obj: dict, location: str) -> list[Matrix]:
    matrices = obj.get("matrices")
    if not isinstance(matrices, list) or not matrices:
        raise ParseError(f"{location}.matrices", "expected a non-empty list")
    return [
        Matrix.from_json(m, f"{location}.matrices[{i}]") for i, m in enumerate(matrices)
    ]


def set_from_json(obj, location: str = "$") -> MatrixSet:
    """Parse the set wire format, reporting the JSON path on failure."""
    if not isinstance(obj, dict):
        raise ParseError(location, "expected a set object")
    kind = obj.get("kind")
    try:
        if kind == "finite":
            return FiniteSet(_matrices_from_json(obj, location))
        if kind == "ordered":
            return LinearlyOrderedSet(_matrices_from_json(obj, location))
        if kind == "iru":
            row_sets = obj.get("row_sets")
            if not isinstance(row_sets, list) or not row_sets:
                raise ParseError(f"{location}.row_sets", "expected a non-empty list")
            for i, rows in enumerate(row_sets):
                for k, row in enumerate(rows if isinstance(rows, list) else ()):
                    for j, x in enumerate(row if isinstance(row, list) else ()):
                        expect_number(x, f"{location}.row_sets[{i}][{k}][{j}]")
            return IRUSet(row_sets)
        if kind == "expr":
            return _expr_from_json(obj.get("expr"), f"{location}.expr")
    except (ValueError, TypeError, ShapeError) as exc:
        raise ParseError(location, str(exc)) from exc
    raise ParseError(
        f"{location}.kind", "expected one of 'finite', 'ordered', 'iru', 'expr'"
    )


def _expr_from_json(obj, location: str) -> MatrixSet:
    """An expression node; a leaf is the set it holds."""
    if not isinstance(obj, dict):
        raise ParseError(location, "expected an expression node")
    op = obj.get("op")
    try:
        if op == "leaf":
            return set_from_json(obj.get("set"), f"{location}.set")
        if op in ("sum", "prod"):
            left = _expr_from_json(obj.get("left"), f"{location}.left")
            right = _expr_from_json(obj.get("right"), f"{location}.right")
            return Sum(left, right) if op == "sum" else Product(left, right)
        if op == "scale":
            t = obj.get("t")
            expect_number(t, f"{location}.t")
            return Scale(t, _expr_from_json(obj.get("child"), f"{location}.child"))
    except (ValueError, TypeError, ShapeError) as exc:
        raise ParseError(location, str(exc)) from exc
    raise ParseError(
        f"{location}.op", "expected one of 'leaf', 'sum', 'prod', 'scale'"
    )
