"""Compact matrix sets and their algebra: finite lists, linearly ordered
chains, independent row uncertainty (IRU) sets, the Minkowski nodes
``Sum``, ``Product`` and ``Scale``, and the Hausdorff metric.

Every set, a Minkowski node included, is a :class:`MatrixSet`, so nodes
take any sets as operands and nest into expression trees.  Set values are
immutable and enumeration is deterministic: finite sets keep construction
order, IRU sets walk row choices in row-major order (the last row's choice
varies fastest), and the Minkowski nodes pair members left-major with
first-occurrence deduplication.
"""

from __future__ import annotations

import abc
import functools
import math
from typing import ClassVar

import numpy as np

from .errors import CapExceededError, ParseError, ShapeError
from .linalg import Matrix, expect_number, matrix_json, readonly

#: Default bound on the number of matrices any enumeration may materialize.
DEFAULT_CAP = 10 ** 6

#: Entrywise tolerance under which two members count as the same matrix.
#: Minkowski images of exact inputs collide exactly; the band only absorbs
#: rounding noise.
DEDUP_TOL = 1e-12

# Once this many members are kept, only exact duplicates are merged.
_DEDUP_PAIRWISE_LIMIT = 4096

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)


@functools.cache
def _key_weights(dim: int) -> np.ndarray:
    """Weights in [1, 2) that keep rows with permuted entries apart."""
    return readonly(1.0 + (np.arange(dim) * 0.6180339887498949) % 1.0)


def _window_keys(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort keys of ``rows`` and the half-width of each row's key window.

    The key is a weighted sum of a row's entries, weights in [1, 2), after
    scaling down by a power of two that keeps the sums finite.  Rows within
    ``DEDUP_TOL`` have exact keys at most ``2·dim·DEDUP_TOL`` apart, and a
    computed key is off by at most ``dim·eps·sum|row|`` plus subnormal
    rounding; the half-width doubles that bound for either row, so every
    near partner of a row lies in its window.
    """
    dim = rows.shape[1]
    exp = max(math.frexp(float(np.abs(rows).max()))[1], 0)
    scaled = np.ldexp(rows, -exp)
    sums = np.abs(scaled).sum(axis=1)
    half = (4 * dim * _EPS) * sums + 4 * dim * (math.ldexp(DEDUP_TOL, -exp) + _TINY)
    return scaled @ _key_weights(dim), half


def _dedup_indices(arr: np.ndarray) -> np.ndarray:
    """Indices of first occurrences, merging members within ``DEDUP_TOL``.

    In enumeration order, a member is dropped when its bytes repeat an
    earlier member's, or when it lies within ``DEDUP_TOL`` entrywise of an
    earlier kept member while at most ``_DEDUP_PAIRWISE_LIMIT`` members are
    kept before it.  Only members whose key window holds another member
    can be dropped, so the rule is replayed over those alone: exact
    repeats go in one ``np.unique``, and each member kept marks the later
    members near it in its window, so the comparisons stay within the
    plain loop's members × kept.
    """
    rows = arr.reshape(arr.shape[0], -1)
    keys, half = _window_keys(rows)
    order = np.argsort(keys, kind="stable")
    starts = np.searchsorted(keys[order], keys - half, side="left")
    stops = np.searchsorted(keys[order], keys + half, side="right")
    crowded = np.flatnonzero(stops - starts > 1)
    if not crowded.size:
        return np.arange(len(rows))
    keep = np.ones(len(rows), dtype=bool)
    flat = rows[crowded]
    repeat = np.ones(len(crowded), dtype=bool)
    bytes_ = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1])))[:, 0]
    repeat[np.unique(bytes_, return_index=True)[1]] = False
    keep[crowded[repeat]] = False
    marked = ~keep
    dropped = 0
    for i, start, stop in zip(
        crowded.tolist(), starts[crowded].tolist(), stops[crowded].tolist()
    ):
        # Every position before i is kept unless dropped, and the first
        # member always is, so i - dropped >= 1 members are kept before i.
        if i - dropped > _DEDUP_PAIRWISE_LIMIT:
            break
        if marked[i]:
            keep[i] = False
            dropped += 1
            continue
        later = order[start:stop]
        later = later[(later > i) & ~marked[later]]
        marked[later[np.abs(rows[later] - rows[i]).max(axis=1) <= DEDUP_TOL]] = True
    return np.flatnonzero(keep)


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

    def count(self, cap: int = DEFAULT_CAP) -> int:
        """Number of members K; raises :class:`CapExceededError` above ``cap``."""
        return len(self.stack(cap))

    def take(self, indices, cap: int = DEFAULT_CAP) -> np.ndarray:
        """Read-only members at enumeration ``indices``, shape indices.shape + (rows, cols)."""
        return readonly(self.stack(cap)[indices])


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
    cardinality is the product of the row-set sizes.  Every member access
    goes through :meth:`gather`, which builds members from row picks.
    """

    kind = "iru"
    __slots__ = ("_row_sets", "_sizes", "_rows")

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
            sets.append(arr)
        if not sets:
            raise ValueError("an IRU set needs at least one row set")
        width = sets[0].shape[1]
        for i, arr in enumerate(sets):
            if arr.shape[1] != width:
                raise ShapeError(
                    f"row set {i} has rows of length {arr.shape[1]}, expected {width}"
                )
        # One array holds every row; the row sets are views into it.
        self._sizes = readonly(np.array([len(rs) for rs in sets]))
        self._rows = readonly(np.concatenate(sets))
        self._row_sets = tuple(np.split(self._rows, np.cumsum(self._sizes)[:-1]))

    @property
    def row_sets(self) -> tuple[np.ndarray, ...]:
        return self._row_sets

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self._row_sets), self._row_sets[0].shape[1])

    @property
    def cardinality(self) -> int:
        return math.prod(self._sizes.tolist())

    def count(self, cap: int = DEFAULT_CAP) -> int:
        """The cardinality, checked against ``cap`` without enumerating."""
        card = self.cardinality
        _check_cap(card, cap)
        return card

    def gather(self, picks) -> np.ndarray:
        """Read-only members taking row ``picks[..., i]`` of row set i.

        The shape is picks.shape[:-1] + (rows, cols).  The set is never
        enumerated, so no cap applies; a pick outside its row set raises
        ``ValueError``.
        """
        picks = np.asarray(picks)
        if picks.shape[-1:] != self._sizes.shape:
            raise ValueError(f"picks must end in one row index per row set, {self.shape[0]}")
        if ((picks < 0) | (picks >= self._sizes)).any():
            raise ValueError("row pick out of range for its row set")
        starts = np.cumsum(self._sizes) - self._sizes
        return readonly(self._rows.take(picks + starts, axis=0))

    def take(self, indices, cap: int = DEFAULT_CAP) -> np.ndarray:
        """Members at enumeration ``indices``, gathered by row.

        Index k picks the rows given by its mixed-radix digits over the
        row-set sizes, last row fastest (enumeration order).
        """
        count = self.count(cap)
        rest = np.asarray(indices)
        if ((rest < 0) | (rest >= count)).any():
            raise ValueError(f"member index out of range for {count} members")
        digits = []
        for size in self._sizes[::-1].tolist():
            rest, digit = np.divmod(rest, size)
            digits.append(digit)
        return self.gather(np.stack(digits[::-1], axis=-1))

    def stack(self, cap: int = DEFAULT_CAP) -> np.ndarray:
        return self.take(np.arange(self.count(cap)), cap)

    def __repr__(self) -> str:
        n, m = self.shape
        return f"IRUSet(shape {n}x{m}, row-set sizes {tuple(self._sizes.tolist())})"


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


#: Byte budget of one block of the Hausdorff difference tensor.
_HAUSDORFF_BLOCK_BYTES = 1 << 24


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
    # The (rows, kb, n*m) difference tensor is built a block of rows of va
    # at a time, within _HAUSDORFF_BLOCK_BYTES; minima are exact, so the
    # result does not depend on the block size.
    block = max(1, _HAUSDORFF_BLOCK_BYTES // vb.nbytes)
    row_min = np.empty(len(va))
    col_min = np.full(len(vb), np.inf)
    for start in range(0, len(va), block):
        dists = np.abs(va[start : start + block, None, :] - vb[None, :, :]).max(axis=2)
        row_min[start : start + block] = dists.min(axis=1)
        np.minimum(col_min, dists.min(axis=0), out=col_min)
    return float(max(row_min.max(), col_min.max()))


def random_iru_set(
    rng: np.random.Generator, rows: int, cols: int, max_rows_per_set: int = 3
) -> IRUSet:
    """Random IRU set with entries uniform on [0.05, 1); used by sweeps."""
    sizes = rng.integers(1, max_rows_per_set + 1, size=rows)
    return IRUSet([rng.uniform(0.05, 1.0, size=(int(k), cols)) for k in sizes])


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
            "matrices": [matrix_json(a) for a in mset._stack],
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
