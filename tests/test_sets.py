"""Tests for matrix-set representations and the Minkowski algebra."""

import itertools
import json
import sys

import numpy as np
import pytest

from hourglass import (
    CapExceededError,
    FiniteSet,
    IRUSet,
    LinearlyOrderedSet,
    Matrix,
    MatrixSet,
    ParseError,
    Product,
    Scale,
    ShapeError,
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
from hourglass.sets import hull_points

from helpers import diag, random_finite_set, sets_equal


# --- representations ----------------------------------------------------------


def test_finite_set_requires_members():
    with pytest.raises(ValueError):
        FiniteSet([])


def test_finite_set_shape_consistency():
    with pytest.raises(ShapeError):
        FiniteSet([diag(1.0, 1.0), Matrix([[1.0]])])


def test_finite_set_flags_duplicates():
    clean = FiniteSet([diag(1.0, 0.0), diag(0.0, 1.0)])
    dup = FiniteSet([diag(1.0, 0.0), diag(1.0, 0.0)])
    assert not clean.has_duplicates
    assert dup.has_duplicates
    assert len(dup) == 2  # duplicates are kept, only flagged


def test_linearly_ordered_set_accepts_chains():
    a = Matrix([[1.0, 2.0], [3.0, 4.0]])
    chain = LinearlyOrderedSet([a, Matrix(2 * a.data), Matrix(3 * a.data)])
    assert len(chain) == 3


def test_linearly_ordered_set_rejects_unordered():
    big = Matrix([[2.0, 2.0], [2.0, 2.0]])
    small = Matrix([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="increasing"):
        LinearlyOrderedSet([big, small])
    with pytest.raises(ValueError, match="positive"):
        LinearlyOrderedSet([diag(1.0, 0.0), big])


def test_iru_cardinality_and_enumeration_order():
    iru = IRUSet([[[1.0, 0.0], [2.0, 0.0]], [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]])
    assert iru.cardinality == 6
    members = iru.members()
    assert len(members) == 6
    # row-major: the last row set cycles fastest
    assert members[0] == Matrix([[1.0, 0.0], [0.0, 1.0]])
    assert members[1] == Matrix([[1.0, 0.0], [0.0, 2.0]])
    assert members[3] == Matrix([[2.0, 0.0], [0.0, 1.0]])


def test_iru_rejects_ragged_rows():
    with pytest.raises(ShapeError):
        IRUSet([[[1.0, 0.0]], [[1.0, 0.0, 0.0]]])


def test_iru_rejects_negative_rows():
    with pytest.raises(ValueError):
        IRUSet([[[1.0, -1.0]]])


def test_enumerate_cap_reports_cardinality():
    iru = IRUSet([np.ones((10, 2))] * 6)
    with pytest.raises(CapExceededError) as err:
        iru.members(cap=1000)
    assert err.value.cardinality == 10 ** 6
    assert err.value.cap == 1000


def test_example4_enumerates_two_members(ex4):
    assert len(ex4.members()) == 2


# --- Minkowski operations ------------------------------------------------------


def test_minkowski_sum_singletons():
    i2 = diag(1.0, 1.0)
    out = Sum(FiniteSet([i2]), FiniteSet([i2]))
    assert sets_equal(out, FiniteSet([diag(2.0, 2.0)]))


def test_minkowski_sum_example4_has_three_members(ex4):
    out = Sum(ex4, ex4)
    assert out.count() == 3
    expected = FiniteSet([diag(2.0, 0.0), diag(1.0, 1.0), diag(0.0, 2.0)])
    assert sets_equal(out, expected)
    # and differs from plain scaling: A + A != 2A
    assert Scale(2.0, ex4).count() == 2


def test_minkowski_sum_zero_is_neutral(ex4):
    zero = FiniteSet([Matrix(np.zeros((2, 2)))])
    assert sets_equal(Sum(zero, ex4), ex4)


def test_minkowski_sum_shape_mismatch(ex4):
    with pytest.raises(ShapeError):
        Sum(ex4, FiniteSet([Matrix([[1.0]])]))


def test_minkowski_product_identity_is_neutral(ex4):
    identity = FiniteSet([diag(1.0, 1.0)])
    assert sets_equal(Product(identity, ex4), ex4)


def test_minkowski_product_example4(ex4):
    out = Product(ex4, ex4)
    expected = FiniteSet([diag(1.0, 0.0), diag(0.0, 1.0), Matrix(np.zeros((2, 2)))])
    assert out.count() == 3
    assert sets_equal(out, expected)


def test_minkowski_product_singletons():
    a = Matrix([[1.0, 2.0], [3.0, 4.0]])
    b = Matrix([[0.0, 1.0], [1.0, 1.0]])
    out = Product(FiniteSet([a]), FiniteSet([b]))
    assert sets_equal(out, FiniteSet([a @ b]))


def test_minkowski_product_inner_dimension_mismatch():
    a = FiniteSet([Matrix(np.ones((2, 3)))])
    with pytest.raises(ShapeError):
        Product(a, a)


def test_scale_set_examples(ex4):
    assert sets_equal(Scale(1.0, ex4), ex4)
    assert sets_equal(Scale(2.0, FiniteSet([diag(1.0, 0.0)])), FiniteSet([diag(2.0, 0.0)]))
    with pytest.raises(ValueError):
        Scale(0.0, ex4)
    with pytest.raises(ValueError):
        Scale(-2.0, ex4)


def test_scale_set_preserves_cardinality(rng):
    s = random_finite_set(rng, 2, 3, 7)
    assert Scale(0.5, s).count() == 7


def test_semiring_cardinality_bounds(rng):
    for _ in range(10):
        a = random_finite_set(rng, 2, 2, int(rng.integers(1, 5)))
        b = random_finite_set(rng, 2, 2, int(rng.integers(1, 5)))
        assert Sum(a, b).count() <= len(a) * len(b)
        assert Product(a, b).count() <= len(a) * len(b)


def test_minkowski_results_are_deduplicated():
    d10 = diag(1.0, 0.0)
    out = Sum(FiniteSet([d10, d10]), FiniteSet([d10]))
    assert out.count() == 1


# --- expressions ---------------------------------------------------------------


def test_eval_expr_sum_vs_scale(ex4):
    summed = Sum(ex4, ex4)
    doubled = Scale(2.0, ex4)
    assert summed.count() == 3
    assert doubled.count() == 2
    assert not sets_equal(summed, doubled)


def test_eval_expr_scale_singleton():
    a = Matrix([[1.0, 2.0], [3.0, 4.0]])
    out = Scale(0.5, FiniteSet([a]))
    assert sets_equal(out, FiniteSet([Matrix(0.5 * a.data)]))


def test_expr_nodes_validate_shapes(ex4):
    rect = FiniteSet([Matrix(np.ones((2, 3)))])
    with pytest.raises(ShapeError):
        Sum(ex4, rect)
    with pytest.raises(ShapeError):
        Product(rect, rect)
    with pytest.raises(ValueError):
        Scale(0.0, ex4)


def test_products_do_not_distribute_over_sums(ex4):
    # With A the two orthogonal projections, B1 and B2 the corresponding
    # singletons: A(B1+B2) = A has two members, while AB1 + AB2 has four.
    b1 = FiniteSet([diag(1.0, 0.0)])
    b2 = FiniteSet([diag(0.0, 1.0)])
    left = Product(ex4, Sum(b1, b2))
    right = Sum(Product(ex4, b1), Product(ex4, b2))
    assert left.count() == 2
    assert right.count() == 4
    assert not sets_equal(left, right)
    assert hausdorff_distance(left, right) > 1e-10


def test_expr_set_enumerates_through_the_tree(ex4):
    expr = Sum(ex4, ex4)
    assert expr.shape == (2, 2)
    assert len(expr.members()) == 3


def test_nodes_reject_operands_that_are_not_sets(ex4):
    with pytest.raises(TypeError, match="MatrixSet"):
        Sum(ex4, diag(1.0, 1.0))
    with pytest.raises(TypeError, match="MatrixSet"):
        Product(np.eye(2), ex4)
    with pytest.raises(TypeError, match="MatrixSet"):
        Scale(2.0, [[1.0, 0.0], [0.0, 1.0]])


def test_nodes_are_matrix_sets(ex4):
    for node in (Sum(ex4, ex4), Product(ex4, ex4), Scale(2.0, ex4)):
        assert isinstance(node, MatrixSet)
        assert node.kind == "expr"


def test_shared_subtree_is_evaluated_once_per_cap(ex4, monkeypatch):
    evaluations = []
    combine = Sum._combine

    def counting(self, cap, *stacks):
        evaluations.append(cap)
        return combine(self, cap, *stacks)

    monkeypatch.setattr(Sum, "_combine", counting)
    s = Sum(ex4, Scale(0.5, ex4))
    tree = Product(s, Scale(2.0, s))
    first = tree.stack(100)
    assert tree.stack(100) is first
    assert evaluations == [100]
    assert np.array_equal(tree.stack(50), first)
    assert evaluations == [100, 50]


def test_deep_trees_take_one_frame_per_level():
    one = FiniteSet([Matrix([[1.0]])])
    depth = int(0.7 * sys.getrecursionlimit())
    tree = one
    for _ in range(depth):
        tree = Sum(tree, one)
    assert tree.stack().tolist() == [[[depth + 1.0]]]


def test_eval_expr_cap_applies_at_nodes():
    big = IRUSet([np.ones((30, 2))] * 2)  # 900 members
    expr = Product(big, big)
    with pytest.raises(CapExceededError):
        expr.stack(cap=10_000)


# --- Hausdorff metric -----------------------------------------------------------


def test_hausdorff_identity(ex4):
    assert hausdorff_distance(ex4, ex4) == 0.0


def test_hausdorff_single_pair_distance():
    assert hausdorff_distance(FiniteSet([diag(1.0, 0.0)]), FiniteSet([diag(0.0, 1.0)])) == 1.0


def test_hausdorff_shape_mismatch(ex4):
    with pytest.raises(ShapeError):
        hausdorff_distance(ex4, FiniteSet([Matrix([[1.0]])]))


def test_hausdorff_metric_axioms(rng):
    for _ in range(30):
        a = random_finite_set(rng, 2, 2, int(rng.integers(1, 6)))
        b = random_finite_set(rng, 2, 2, int(rng.integers(1, 6)))
        c = random_finite_set(rng, 2, 2, int(rng.integers(1, 6)))
        dab = hausdorff_distance(a, b)
        assert dab == hausdorff_distance(b, a)
        assert hausdorff_distance(a, a) == 0.0
        assert dab <= hausdorff_distance(a, c) + hausdorff_distance(c, b) + 1e-12


# --- convex hulls ----------------------------------------------------------------


def test_convex_hull_sample_r1_returns_a_member(ex4):
    sample = convex_hull_sample(ex4, 1, rng_seed=3)
    assert any(sample.close_to(m) for m in ex4.elements)


def test_convex_hull_sample_singleton_any_r():
    single = FiniteSet([Matrix([[1.0, 2.0], [3.0, 4.0]])])
    sample = convex_hull_sample(single, 5, rng_seed=11)
    assert sample.close_to(single.elements[0])


def test_convex_hull_sample_is_deterministic(ex4):
    assert convex_hull_sample(ex4, 3, rng_seed=7) == convex_hull_sample(ex4, 3, rng_seed=7)


def test_convex_hull_sample_stays_in_envelope(rng):
    s = random_finite_set(rng, 2, 3, 5)
    arr = np.stack([m.data for m in s.elements])
    lo, hi = arr.min(axis=0), arr.max(axis=0)
    for seed in range(10):
        sample = convex_hull_sample(s, 4, rng_seed=seed)
        assert (sample.data >= lo - 1e-12).all()
        assert (sample.data <= hi + 1e-12).all()


def test_convex_hull_sample_iru_gathers_the_members_of_its_stack(rng):
    # Same seed, same point, whether the IRU set gathers members by row or
    # its members are listed as a finite set; the reference is the per-seed
    # draw indexed into the enumerated stack.
    for trial in range(20):
        n, m = (int(x) for x in rng.integers(1, 5, size=2))
        iru = IRUSet([rng.uniform(0, 1, size=(int(rng.integers(1, 4)), m)) for _ in range(n)])
        finite = FiniteSet(iru.members())
        stack = iru.stack()
        for r in range(1, 7):
            seed = trial * 10 + r
            draw = np.random.default_rng(seed)
            picks = draw.integers(0, len(stack), size=r)
            weights = draw.exponential(1.0, size=r)
            weights /= weights.sum()
            expected = np.einsum("k,kij->ij", weights, stack[picks])
            sample = convex_hull_sample(iru, r, rng_seed=seed)
            assert np.array_equal(sample.data, expected)
            assert np.array_equal(convex_hull_sample(finite, r, rng_seed=seed).data, expected)


def test_hull_points_follow_enumeration_order():
    iru = IRUSet([[[1.0, 0.0], [2.0, 0.0]], [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]])
    picks = np.arange(6)[:, None]
    points = hull_points(iru, picks, np.ones((6, 1)))
    assert np.array_equal(points, iru.stack())
    half = hull_points(iru, np.array([[0, 5]]), np.array([[0.5, 0.5]]))
    assert np.array_equal(half[0], [[1.5, 0.0], [0.0, 2.0]])
    with pytest.raises(CapExceededError):
        hull_points(iru, picks, np.ones((6, 1)), cap=5)


def test_iru_take_matches_a_product_oracle(rng):
    # itertools.product walks the row choices with the last row fastest,
    # which is the enumeration order; picks come as an (S, R) index array.
    row_sets = [rng.uniform(0, 1, size=(k, 3)) for k in (2, 3, 4)]
    iru = IRUSet(row_sets)
    oracle = np.array([np.stack(rows) for rows in itertools.product(*row_sets)])
    picks = rng.integers(0, len(oracle), size=(7, 3))
    assert iru.take(picks).shape == (7, 3, 3, 3)
    assert np.array_equal(iru.take(picks), oracle[picks])
    assert np.array_equal(iru.stack(), oracle)
    assert np.array_equal(FiniteSet(iru.members()).take(picks), oracle[picks])


def test_iru_take_beyond_64_row_sets_matches_a_product_oracle(rng):
    # one index digit per row set: numpy arrays stop at 64 dimensions, the
    # mixed-radix gather does not
    sizes = [1] * 70
    sizes[3], sizes[40], sizes[69] = 2, 3, 2
    row_sets = [rng.uniform(0, 1, size=(k, 2)) for k in sizes]
    iru = IRUSet(row_sets)
    oracle = np.array([np.stack(rows) for rows in itertools.product(*row_sets)])
    assert len(oracle) == 12
    picks = rng.integers(0, len(oracle), size=(5, 4))
    assert np.array_equal(iru.take(picks), oracle[picks])
    assert np.array_equal(iru.stack(), oracle)
    for bad in ([12], [-1]):
        with pytest.raises(ValueError):
            iru.take(bad)


def test_random_iru_pair_draws_dimensions_then_a_then_b():
    drawn = random_iru_pair(np.random.default_rng(7))
    rng = np.random.default_rng(7)
    n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    expected = (random_iru_set(rng, n, m, 3), random_iru_set(rng, m, n, 3))
    for got, want in zip(drawn, expected):
        assert np.array_equal(got.stack(), want.stack())


def test_iru_take_gathers_beyond_the_default_cap_without_enumerating(monkeypatch):
    iru = IRUSet([[[1.0], [2.0]]] * 21)  # 2**21 members

    def refuse(self, cap=None):
        raise AssertionError("IRUSet.stack must not be called")

    monkeypatch.setattr(IRUSet, "stack", refuse)
    first, last = iru.take([0, 2 ** 21 - 1], cap=2 ** 21)
    assert np.array_equal(first, np.ones((21, 1)))
    assert np.array_equal(last, np.full((21, 1), 2.0))
    with pytest.raises(CapExceededError):
        iru.take([0])


def test_convex_hull_sample_midpoint_arithmetic(ex4):
    # The weight vector (1/2, 1/2) applied to the two projections is the
    # half-identity; the sampler must be able to realize exactly this
    # combination, checked here by direct arithmetic.
    d10, d01 = ex4.elements
    combo = Matrix(0.5 * d10.data + 0.5 * d01.data)
    assert combo == diag(0.5, 0.5)


def test_convex_hull_iru_keeps_singletons():
    iru = IRUSet([[[1.0, 2.0]], [[3.0, 4.0]]])
    out = convex_hull_iru(iru)
    assert [rs.tolist() for rs in out.row_sets] == [[[1.0, 2.0]], [[3.0, 4.0]]]


def test_convex_hull_iru_drops_interior_point():
    iru = IRUSet([[[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], [[1.0, 1.0]]])
    out = convex_hull_iru(iru)
    assert out.row_sets[0].tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_convex_hull_iru_keeps_extreme_rows():
    iru = IRUSet([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])
    out = convex_hull_iru(iru)
    assert [rs.tolist() for rs in out.row_sets] == [rs.tolist() for rs in iru.row_sets]


def test_convex_hull_iru_one_column_keeps_min_and_max():
    iru = IRUSet([[[1.0], [3.0], [2.0]]])
    out = convex_hull_iru(iru)
    assert out.row_sets[0].tolist() == [[1.0], [3.0]]


def test_convex_hull_iru_wide_rows_unchanged():
    iru = IRUSet([np.ones((3, 4))])
    assert convex_hull_iru(iru) is iru


def test_convex_hull_iru_rejects_other_kinds(ex4):
    with pytest.raises(TypeError):
        convex_hull_iru(ex4)


def _in_hull_2d(point, vertices):
    """Point-in-convex-polygon test via cross products around the centroid
    ordering; independent of the package's geometry."""
    verts = np.asarray(vertices)
    if len(verts) == 1:
        return np.abs(verts[0] - point).max() <= 1e-9
    if len(verts) == 2:
        a, b = verts
        ab = b - a
        denom = float(ab @ ab)
        t = 0.0 if denom == 0 else float(np.clip((point - a) @ ab / denom, 0, 1))
        return np.abs(a + t * ab - point).max() <= 1e-9
    center = verts.mean(axis=0)
    order = np.argsort(np.arctan2(*(verts - center).T[::-1]))
    verts = verts[order]
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        cross = (b[0] - a[0]) * (point[1] - a[1]) - (b[1] - a[1]) * (point[0] - a[0])
        if cross < -1e-9:
            return False
    return True


def test_convex_hull_iru_rows_reconstructible(rng):
    for _ in range(20):
        k = int(rng.integers(1, 7))
        rows = rng.uniform(0.0, 1.0, size=(k, 2))
        iru = IRUSet([rows])
        kept = convex_hull_iru(iru).row_sets[0]
        for row in rows:
            assert _in_hull_2d(row, kept)


# --- transposition and JSON -------------------------------------------------------


def test_transpose_set_preserves_order():
    a = Matrix(np.arange(6, dtype=float).reshape(2, 3))
    b = Matrix(np.ones((2, 3)))
    out = transpose_set(FiniteSet([a, b]))
    assert out.elements[0] == a.transpose()
    assert out.elements[1] == b.transpose()


@pytest.mark.parametrize("kind", ["finite", "ordered", "iru", "expr"])
def test_set_json_roundtrip(kind, ex4):
    if kind == "finite":
        mset = ex4
    elif kind == "ordered":
        a = Matrix([[1.0, 2.0], [3.0, 4.0]])
        mset = LinearlyOrderedSet([a, Matrix(2 * a.data)])
    elif kind == "iru":
        mset = IRUSet([[[1.0, 0.5]], [[0.25, 2.0], [1.0, 1.0]]])
    else:
        mset = Scale(0.5, Sum(ex4, ex4))
    wire = json.loads(json.dumps(set_to_json(mset)))
    back = set_from_json(wire)
    assert set_to_json(back) == set_to_json(mset)
    assert sets_equal(
        FiniteSet(back.members()), FiniteSet(mset.members())
    )


def test_leaf_document_is_the_set_it_holds(ex4):
    iru = IRUSet([[[1.0, 0.5], [0.0, 2.0]], [[0.25, 2.0], [1.0, 0.0]]])
    back = set_from_json({"kind": "expr", "expr": {"op": "leaf", "set": set_to_json(iru)}})
    assert isinstance(back, IRUSet)
    assert np.array_equal(back.stack(), iru.stack())
    # A leaf around an expr document writes back as that document's node.
    inner = set_to_json(Sum(ex4, ex4))
    wire = {"kind": "expr", "expr": {
        "op": "scale", "t": 2.0, "child": {"op": "leaf", "set": inner}}}
    assert set_to_json(set_from_json(wire)) == {"kind": "expr", "expr": {
        "op": "scale", "t": 2.0, "child": inner["expr"]}}


def test_set_json_rejects_unknown_kind():
    with pytest.raises(ParseError, match="kind"):
        set_from_json({"kind": "mystery"})


def test_set_json_reports_nested_location():
    wire = {
        "kind": "finite",
        "matrices": [{"rows": 1, "cols": 1, "data": [["x"]]}],
    }
    with pytest.raises(ParseError) as err:
        set_from_json(wire, location="sets.json")
    assert "sets.json.matrices[0]" in str(err.value)


def test_expr_json_rejects_bad_scale():
    wire = {
        "kind": "expr",
        "expr": {"op": "scale", "t": -1.0, "child": {"op": "leaf", "set": {
            "kind": "finite",
            "matrices": [{"rows": 1, "cols": 1, "data": [[1.0]]}],
        }}},
    }
    with pytest.raises(ParseError):
        set_from_json(wire)


# --- member stacks ------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["finite", "ordered", "iru", "expr"])
def test_stack_is_read_only_and_matches_members(kind, ex4):
    a = Matrix([[1.0, 2.0], [3.0, 4.0]])
    mset = {
        "finite": ex4,
        "ordered": LinearlyOrderedSet([a, Matrix(2 * a.data)]),
        "iru": IRUSet([[[1.0, 0.5]], [[0.25, 2.0], [1.0, 1.0]]]),
        "expr": Sum(ex4, ex4),
    }[kind]
    stack = mset.stack()
    assert stack.shape == (len(mset.members()),) + mset.shape
    assert not stack.flags.writeable
    assert [Matrix(x) for x in stack] == mset.members()
    with pytest.raises(CapExceededError):
        mset.stack(cap=len(stack) - 1)


@pytest.mark.filterwarnings("error")
def test_expr_stack_rejects_overflow():
    big = Scale(1e300, FiniteSet([Matrix([[1e10]])]))
    with pytest.raises(ValueError, match="finite"):
        big.stack()


def test_expr_stack_rechecks_the_cap_it_was_not_evaluated_at(rng):
    # Six members plus six zero matrices: 6 distinct sums from 36 pairs.
    # The evaluation kept from a large cap must not hide the pair cap.
    members = random_finite_set(rng, 2, 2, 6)
    zeros = FiniteSet([Matrix(np.zeros((2, 2)))] * 6)
    expr = Sum(members, zeros)
    assert len(expr.stack(10 ** 6)) == 6
    with pytest.raises(CapExceededError):
        expr.stack(10)
    with pytest.raises(CapExceededError):
        expr.count(10)
    assert np.array_equal(expr.stack(36), members.stack())
    # The same cap check at an inner node, under a root without a pair cap.
    outer = Scale(2.0, expr)
    assert len(outer.stack(10 ** 6)) == 6
    with pytest.raises(CapExceededError):
        outer.stack(10)
    assert np.array_equal(outer.stack(36), 2.0 * members.stack())


# --- DEDUP_TOL semantics of Minkowski results ---------------------------------------


def _scalars(values) -> FiniteSet:
    return FiniteSet([Matrix([[float(v)]]) for v in values])


def test_dedup_keeps_first_occurrence_in_left_major_order():
    # Sums in left-major order: 1+5e-13, 0, 2+5e-13, 1.  The last one lies
    # within DEDUP_TOL of the first and merges into it.
    out = Sum(_scalars([0.0, 1.0]), _scalars([1.0 + 5e-13, 0.0]))
    assert out.stack()[:, 0, 0].tolist() == [1.0 + 5e-13, 0.0, 2.0 + 5e-13]


def test_dedup_merges_within_tol_up_to_the_pairwise_limit():
    # Each a + 5e-13 merges into a; a + 0 twice is an exact duplicate.
    base = 1e-3 * np.arange(4096)
    out = Sum(_scalars(base), _scalars([0.0, 5e-13, 0.0]))
    assert out.stack()[:, 0, 0].tolist() == base.tolist()


def test_dedup_merges_only_exact_duplicates_past_the_limit():
    # Once 4,097 members are kept, a + 5e-13 no longer merges into a, but
    # the exact duplicate a + 0 still does.
    base = 1e-3 * np.arange(4098)
    out = Sum(_scalars(base), _scalars([0.0, 5e-13, 0.0]))
    values = out.stack()[:, 0, 0]
    assert len(values) == 4100
    assert values[:4096].tolist() == base[:4096].tolist()
    assert values[4096:].tolist() == [
        base[4096], base[4096] + 5e-13, base[4097], base[4097] + 5e-13
    ]


def test_hausdorff_checks_the_pair_cap(rng):
    a = random_finite_set(rng, 2, 2, 39)
    b = random_finite_set(rng, 2, 2, 39)
    with pytest.raises(CapExceededError) as err:
        hausdorff_distance(a, b, cap=100)
    assert err.value.cardinality == 39 * 39
