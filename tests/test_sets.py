"""Tests for matrix-set representations and the Minkowski algebra."""

import itertools
import json
import sys
import time

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
    hausdorff_distance,
    random_iru_pair,
    random_iru_set,
    set_from_json,
    set_to_json,
)
from hourglass import sets as sets_module
from hourglass.saddle import draw_hull_samples
from hourglass.sets import _DEDUP_PAIRWISE_LIMIT, _dedup_indices

from helpers import (
    dedup_indices_reference,
    diag,
    draw_reference,
    listed,
    random_finite_set,
    sets_equal,
)


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
    members = listed(iru)
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
        iru.stack(cap=1000)
    assert err.value.cardinality == 10 ** 6
    assert err.value.cap == 1000


def test_example4_enumerates_two_members(ex4):
    assert len(ex4.stack()) == 2


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
    assert sets_equal(out, FiniteSet([Matrix(a.data @ b.data)]))


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
    assert len(expr.stack()) == 3


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


def test_draw_hull_samples_of_a_singleton_are_the_member():
    single = FiniteSet([Matrix([[1.0, 2.0], [3.0, 4.0]])])
    samples = draw_hull_samples(single, 5, np.random.default_rng(11))
    assert np.array_equal(samples, np.broadcast_to(single.stack(), (5, 2, 2)))


def test_draw_hull_samples_are_deterministic(ex4):
    first, second = (draw_hull_samples(ex4, 8, np.random.default_rng(7)) for _ in range(2))
    assert np.array_equal(first, second)


def test_draw_hull_samples_stay_in_envelope(rng):
    s = random_finite_set(rng, 2, 3, 5)
    lo, hi = s.stack().min(axis=0), s.stack().max(axis=0)
    for seed in range(10):
        samples = draw_hull_samples(s, 4, np.random.default_rng(seed))
        assert (samples >= lo - 1e-12).all()
        assert (samples <= hi + 1e-12).all()


def test_convex_hull_sample_iru_gathers_the_members_of_its_stack(rng):
    # Same seed, same points as the reference that draws one row per row
    # set and indexes the enumerated stack one point at a time; the members
    # listed as a finite set draw member indices, as in the reference.
    for trial in range(20):
        n, m = (int(x) for x in rng.integers(1, 5, size=2))
        iru = IRUSet([rng.uniform(0, 1, size=(int(rng.integers(1, 4)), m)) for _ in range(n)])
        finite = FiniteSet(listed(iru))
        sizes = [len(rs) for rs in iru.row_sets]
        for count in range(1, 7):
            seed = trial * 10 + count
            samples = draw_hull_samples(iru, count, np.random.default_rng(seed))
            expected = draw_reference(iru.stack(), count, np.random.default_rng(seed), sizes)
            assert np.array_equal(samples, expected)
            finite_samples = draw_hull_samples(finite, count, np.random.default_rng(seed))
            expected = draw_reference(finite.stack(), count, np.random.default_rng(seed))
            assert np.array_equal(finite_samples, expected)


def test_hull_points_follow_enumeration_order():
    # Member 3 i + j takes row i of row set 0 and row j of row set 1, so the
    # picks listed by itertools.product gather the stack, and hull points
    # combine the same members by pick or by enumeration index.
    iru = IRUSet([[[1.0, 0.0], [2.0, 0.0]], [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]])
    picks = np.array(list(itertools.product(range(2), range(3))))
    assert np.array_equal(iru.gather(picks), iru.stack())
    assert np.array_equal(iru.take(np.arange(6)), iru.stack())
    half = 0.5 * iru.gather([[0, 0], [1, 2]]).sum(axis=0)
    assert np.array_equal(half, [[1.5, 0.0], [0.0, 2.0]])
    assert np.array_equal(0.5 * iru.take([0, 5]).sum(axis=0), half)
    with pytest.raises(CapExceededError):
        iru.take(np.arange(6), cap=5)


def test_iru_gather_matches_a_product_oracle(rng):
    # Row picks and members listed together by itertools.product, on 3 row
    # sets and on 70 (numpy arrays stop at 64 dimensions, gather does not).
    for sizes in ((2, 3, 4), (1,) * 3 + (2,) + (1,) * 36 + (3,) + (1,) * 28 + (2,)):
        row_sets = [rng.uniform(0, 1, size=(k, 2)) for k in sizes]
        iru = IRUSet(row_sets)
        picks = np.array(list(itertools.product(*(range(k) for k in sizes))))
        oracle = np.array([np.stack(rows) for rows in itertools.product(*row_sets)])
        gathered = iru.gather(picks)
        assert gathered.shape == (len(oracle), len(sizes), 2)
        assert np.array_equal(gathered, oracle)
        assert not gathered.flags.writeable
        order = rng.permutation(len(oracle))[:6].reshape(2, 3)
        assert np.array_equal(iru.gather(picks[order]), oracle[order])
        assert np.array_equal(iru.gather(picks[0]), oracle[0])


def test_iru_gather_never_enumerates(monkeypatch):
    iru = IRUSet([[[1.0, 0.0], [0.0, 2.0]]] * 70)  # 2**70 members

    def refuse(self, cap=None):
        raise AssertionError("IRUSet.stack must not be called")

    monkeypatch.setattr(IRUSet, "stack", refuse)
    picks = np.zeros((3, 70), dtype=int)
    picks[1, 5] = picks[2] = 1
    members = iru.gather(picks)
    assert members.shape == (3, 70, 2)
    assert np.array_equal(members[0], np.tile([1.0, 0.0], (70, 1)))
    assert np.array_equal(members[1, 5], [0.0, 2.0])
    assert np.array_equal(np.delete(members[1], 5, axis=0), members[0, 1:])
    assert np.array_equal(members[2], np.tile([0.0, 2.0], (70, 1)))


def test_iru_gather_rejects_bad_picks():
    iru = IRUSet([[[1.0], [2.0]], [[3.0], [4.0], [5.0]]])
    for bad in ([2, 0], [0, 3], [-1, 0], [0, -1], [[0, 0], [1, 3]]):
        with pytest.raises(ValueError, match="out of range"):
            iru.gather(bad)
    for bad in ([0], [0, 0, 0], 0):
        with pytest.raises(ValueError, match="one row index per row set"):
            iru.gather(bad)


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
    assert np.array_equal(FiniteSet(listed(iru)).take(picks), oracle[picks])


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


# --- JSON wire format ---------------------------------------------------------------


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
    assert sets_equal(back, mset)


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
    assert stack.shape == (mset.count(),) + mset.shape
    assert not stack.flags.writeable
    taken = mset.take(np.arange(len(stack)))
    assert np.array_equal(taken, stack)
    assert not taken.flags.writeable
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


def _collision_stack(rng, count, shape):
    """Small-integer members, a fifth each replaced by an exact repeat, a
    near repeat (0.5 to 2 DEDUP_TOL away), a sign-flipped zero, or a point
    0.3 to 1.2 DEDUP_TOL from another replaced member, which may itself be
    dropped."""
    base = rng.integers(0, 3, size=(count, *shape)).astype(float)
    out = base.copy()
    kind = rng.integers(0, 5, size=count)
    source = rng.integers(0, count, size=count)
    noise = rng.choice([-2e-12, -5e-13, 5e-13, 9e-13, 1.5e-12], size=out.shape)
    for k in range(1, 5):
        pick = kind == k
        if k == 1:
            out[pick] = base[source[pick]]
        elif k == 2:
            out[pick] = base[source[pick]] + noise[pick]
        elif k == 3:
            out[pick] = -0.0 * base[source[pick]]
        else:
            out[pick] = out[source[pick]] + 0.6 * noise[pick]
    return out


@pytest.mark.parametrize("limit", [_DEDUP_PAIRWISE_LIMIT, 1, 5, 30])
def test_dedup_matches_the_sequential_reference(monkeypatch, rng, limit):
    monkeypatch.setattr(sets_module, "_DEDUP_PAIRWISE_LIMIT", limit)
    merged = 0
    for trial in range(75):
        count = int(rng.integers(1, 200))
        shape = tuple(int(x) for x in rng.integers(1, 3, size=2))
        arr = _collision_stack(rng, count, shape)
        got = _dedup_indices(arr)
        assert np.array_equal(got, dedup_indices_reference(arr, limit=limit)), trial
        merged += count - len(got)
    assert merged > 1000


def test_dedup_matches_the_sequential_reference_across_the_limit():
    # Near duplicates on both sides of 4,096 kept members, some of them
    # within DEDUP_TOL of a dropped member only.
    for n in (4096, 4098, 4200):
        base = 1e-3 * np.arange(n)
        arr = base[:, None] + np.array([0.0, 6e-13, 0.0, 1.2e-12])
        arr = arr.reshape(-1, 1, 1)
        got = _dedup_indices(arr)
        assert np.array_equal(got, dedup_indices_reference(arr)), n


@pytest.mark.parametrize("limit", [_DEDUP_PAIRWISE_LIMIT, 3])
def test_dedup_matches_the_sequential_reference_on_wide_windows(monkeypatch, rng, limit):
    # Entries below 3 DEDUP_TOL: every key window holds the whole stack and
    # near pairs chain, so several members are kept; a third are repeats.
    monkeypatch.setattr(sets_module, "_DEDUP_PAIRWISE_LIMIT", limit)
    for trial in range(40):
        count = int(rng.integers(1, 300))
        arr = rng.uniform(0.0, 3e-12, size=(count, 2, 1))
        repeat = rng.uniform(size=count) < 0.3
        arr[repeat] = arr[rng.integers(0, count, size=int(repeat.sum()))]
        got = _dedup_indices(arr)
        assert np.array_equal(got, dedup_indices_reference(arr, limit=limit)), trial


def test_dedup_of_one_large_cluster_compares_with_the_kept_member_only(rng):
    # 90,000 sums lie pairwise within DEDUP_TOL; only the first is kept.
    f = random_finite_set(rng, 2, 2, 300)
    g = random_finite_set(rng, 2, 2, 300)
    start = time.perf_counter()
    got = Sum(Scale(1e-13, f), Scale(1e-13, g)).stack()
    elapsed = time.perf_counter() - start
    arr = (1e-13 * f.stack()[:, None] + 1e-13 * g.stack()[None]).reshape(-1, 2, 2)
    kept = dedup_indices_reference(arr)
    assert kept.tolist() == [0]
    assert np.array_equal(got, arr[kept])
    assert elapsed < 5.0


def test_dedup_of_subnormal_entries():
    assert FiniteSet([Matrix([[1e-322]]), Matrix([[0.0]])]).has_duplicates
    arr = np.array([1e-322, 0.0, 5e-324, 2e-12, -0.0]).reshape(-1, 1, 1)
    assert np.array_equal(_dedup_indices(arr), dedup_indices_reference(arr))


def test_hausdorff_in_row_blocks_matches_the_unchunked_formula(monkeypatch, rng):
    for trial in range(10):
        a = random_finite_set(rng, 2, 3, int(rng.integers(1, 30)), zero_prob=0.3)
        b = random_finite_set(rng, 2, 3, int(rng.integers(1, 30)), zero_prob=0.3)
        va = a.stack().reshape(len(a), -1)
        vb = b.stack().reshape(len(b), -1)
        dists = np.abs(va[:, None, :] - vb[None, :, :]).max(axis=2)
        expected = float(max(dists.min(axis=1).max(), dists.min(axis=0).max()))
        for budget in (1, 3 * vb.nbytes, 1 << 24):
            monkeypatch.setattr(sets_module, "_HAUSDORFF_BLOCK_BYTES", budget)
            assert hausdorff_distance(a, b) == expected


def test_hausdorff_checks_the_pair_cap(rng):
    a = random_finite_set(rng, 2, 2, 39)
    b = random_finite_set(rng, 2, 2, 39)
    with pytest.raises(CapExceededError) as err:
        hausdorff_distance(a, b, cap=100)
    assert err.value.cardinality == 39 * 39
