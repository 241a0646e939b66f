"""Tests for the saddle solver, certificates, and minimax tables."""

import numpy as np
import pytest

import hourglass.linalg
import hourglass.saddle
from hourglass import (
    CapExceededError,
    ExprSet,
    FiniteSet,
    IRUSet,
    Leaf,
    Matrix,
    Scale,
    ShapeError,
    Sum,
    best_response_max,
    best_response_min,
    best_response_rows,
    certify_saddle,
    check_saddle_hull_samples,
    convex_hull_sample,
    mat_mul,
    minimax_table,
    random_iru_set,
    solve_saddle,
    solve_saddle_iru,
    spectral_radius,
    transpose_set,
)
from hourglass.saddle import draw_hull_samples

from helpers import diag, random_finite_set


def random_pair(rng, max_rows=3, low=0.05, high=1.0):
    n, m = (int(x) for x in rng.integers(2, 4, size=2))
    a = random_iru_set(rng, n, m, max_rows, low, high)
    b = random_iru_set(rng, m, n, max_rows, low, high)
    return a, b


# --- best responses -------------------------------------------------------------


def test_best_response_min_singleton():
    a = Matrix([[1.0, 2.0], [3.0, 4.0]])
    chosen, rho = best_response_min(diag(1.0, 1.0), FiniteSet([a]))
    assert chosen == a
    assert rho == spectral_radius(a).rho


def test_best_response_min_example4(ex4):
    chosen, rho = best_response_min(diag(1.0, 0.0), ex4)
    assert chosen == diag(0.0, 1.0)
    assert rho == 0.0


def test_best_response_max_example4(ex4):
    chosen, rho = best_response_max(diag(1.0, 0.0), ex4)
    assert chosen == diag(1.0, 0.0)
    assert rho == 1.0


def test_best_responses_agree_with_manual_scan(rng):
    b = Matrix(rng.uniform(0.1, 1.0, size=(3, 2)))
    mats = [Matrix(rng.uniform(0.1, 1.0, size=(2, 3))) for _ in range(5)]
    mset = FiniteSet(mats)
    rhos = [spectral_radius(mat_mul(m, b)).rho for m in mats]
    chosen, rho = best_response_min(b, mset)
    assert rho == min(rhos)
    assert chosen == mats[int(np.argmin(rhos))]

    a = Matrix(rng.uniform(0.1, 1.0, size=(2, 3)))
    bset = FiniteSet([Matrix(rng.uniform(0.1, 1.0, size=(3, 2))) for _ in range(5)])
    rhos = [spectral_radius(mat_mul(a, m)).rho for m in bset.elements]
    chosen, rho = best_response_max(a, bset)
    assert rho == max(rhos)
    assert chosen == bset.elements[int(np.argmax(rhos))]


def test_best_response_shape_checks(ex4):
    with pytest.raises(ShapeError):
        best_response_min(Matrix(np.ones((3, 2))), ex4)
    with pytest.raises(ShapeError):
        best_response_max(Matrix(np.ones((3, 2))), ex4)


def test_best_response_rows_match_enumeration(rng):
    # greedy row selection is exact on positive IRU sets: the same member
    # as the enumerating best responses, and the same radius
    for _ in range(30):
        n, m = (int(x) for x in rng.integers(2, 5, size=2))
        iru_a = random_iru_set(rng, n, m, 3)
        iru_b = random_iru_set(rng, m, n, 3)
        b = Matrix(rng.uniform(0.05, 1.0, size=(m, n)))
        a = Matrix(rng.uniform(0.05, 1.0, size=(n, m)))
        for fixed, iru, minimize, oracle in (
            (b, iru_a, True, best_response_min),
            (a, iru_b, False, best_response_max),
        ):
            chosen, rho = best_response_rows(fixed, iru, minimize)
            expected, rho_expected = oracle(fixed, iru)
            assert chosen == expected
            assert abs(rho - rho_expected) <= 1e-12 * max(1.0, rho_expected)


def test_best_response_rows_singleton_rows():
    iru = IRUSet([[[1.0, 2.0]], [[3.0, 4.0]]])
    for minimize in (True, False):
        chosen, rho = best_response_rows(diag(1.0, 1.0), iru, minimize)
        assert chosen == Matrix([[1.0, 2.0], [3.0, 4.0]])
        assert rho == spectral_radius(chosen).rho


def test_best_response_rows_requires_iru_and_pairing(ex4):
    with pytest.raises(TypeError):
        best_response_rows(diag(1.0, 1.0), ex4, True)
    with pytest.raises(ShapeError):
        best_response_rows(Matrix(np.ones((3, 2))), IRUSet([[[1.0, 2.0]]] * 2), True)


# --- minimax tables --------------------------------------------------------------


def test_minimax_table_example4_is_exact(ex4):
    table = minimax_table(ex4, ex4)
    assert table.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_minimax_table_singletons():
    a = Matrix([[1.0, 2.0], [3.0, 4.0]])
    table = minimax_table(FiniteSet([a]), FiniteSet([diag(1.0, 1.0)]))
    assert table.shape == (1, 1)
    assert table[0, 0] == spectral_radius(a).rho


def test_minimax_table_respects_cap(ex4):
    with pytest.raises(CapExceededError):
        minimax_table(ex4, ex4, cap=3)


def test_minimax_table_consistent_with_solver(rng):
    a, b = random_pair(rng)
    table = minimax_table(a, b)
    result = solve_saddle(a, b)
    assert result.minmax == float(table.max(axis=1).min())
    assert result.maxmin == float(table.min(axis=0).max())


def test_weak_duality_on_arbitrary_sets(rng):
    for _ in range(40):
        n, m = (int(x) for x in rng.integers(1, 4, size=2))
        a = random_finite_set(rng, n, m, int(rng.integers(1, 5)), zero_prob=0.3)
        b = random_finite_set(rng, m, n, int(rng.integers(1, 5)), zero_prob=0.3)
        table = minimax_table(a, b)
        minmax = table.max(axis=1).min()
        maxmin = table.min(axis=0).max()
        assert minmax >= maxmin - 1e-12


# --- solve_saddle ------------------------------------------------------------------


def test_solve_saddle_singletons():
    a = Matrix([[1.0, 2.0], [3.0, 4.0]])
    b = diag(1.0, 1.0)
    result = solve_saddle(FiniteSet([a]), FiniteSet([b]))
    assert result.a_tilde == a
    assert result.b_tilde == b
    assert result.gap == 0.0
    assert result.value == spectral_radius(a).rho


def test_solve_saddle_example4_gap(ex4):
    result = solve_saddle(ex4, ex4)
    assert result.minmax == 1.0
    assert result.maxmin == 0.0
    assert result.gap == 1.0
    # ties break to the earliest enumeration index
    assert result.b_tilde == ex4.elements[0]
    assert result.a_tilde == ex4.elements[1]


def test_solve_saddle_random_iru_pair_has_no_gap(rng):
    for trial in range(10):
        a, b = random_pair(rng)
        result = solve_saddle(a, b)
        assert abs(result.gap) <= 1e-9
        assert result.maxmin - 1e-9 <= result.value <= result.minmax + 1e-9
        assert abs(result.value - spectral_radius(mat_mul(result.a_tilde, result.b_tilde)).rho) <= 1e-9
        assert np.allclose(result.w, result.b_tilde.data @ result.perron.vector)


def test_solve_saddle_takes_its_pair_from_the_table(rng, monkeypatch):
    # The saddle cell's Perron data is the table's own entry, so value is
    # maxmin to the last bit and equals a single solve of a_tilde b_tilde
    # field by field; the kernel runs once per solve, in either module.
    calls = []
    for module in (hourglass.saddle, hourglass.linalg):
        def counted(*args, _kernel=module.power_many, **kwargs):
            calls.append(1)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(module, "power_many", counted)
    pairs = []
    for _ in range(30):
        n, m = (int(x) for x in rng.integers(2, 5, size=2))
        a = random_finite_set(rng, n, m, int(rng.integers(2, 6)), zero_prob=0.25)
        b = random_finite_set(rng, m, n, int(rng.integers(2, 6)), zero_prob=0.25)
        pairs.append((a, b))
    for _ in range(10):
        n, m = (int(x) for x in rng.integers(2, 5, size=2))
        a = random_finite_set(rng, n, m, int(rng.integers(2, 5)), zero_prob=0.25)
        left, right = (
            random_finite_set(rng, m, n, int(rng.integers(1, 4)), zero_prob=0.25)
            for _ in range(2)
        )
        pairs.append((a, ExprSet(Sum(Leaf(left), Scale(0.5, Leaf(right))))))
    for a, b in pairs:
        calls.clear()
        result = solve_saddle(a, b)
        assert len(calls) == 1
        assert result.value == result.maxmin
        oracle = spectral_radius(mat_mul(result.a_tilde, result.b_tilde))
        assert result.perron.rho == oracle.rho
        assert np.array_equal(result.perron.vector, oracle.vector)
        assert result.perron.iterations == oracle.iterations
        assert result.perron.converged == oracle.converged


def test_solve_saddle_minkowski_closures_have_no_gap(rng):
    # sums and products of positive IRU sets stay inside the class with a
    # saddle, so the exhaustive tables must still show exact equality
    from hourglass import minkowski_product, minkowski_sum

    for _ in range(6):
        n, m = (int(x) for x in rng.integers(2, 4, size=2))
        a_sum = minkowski_sum(
            random_iru_set(rng, n, m, 2), random_iru_set(rng, n, m, 2)
        )
        b_prod = minkowski_product(
            random_iru_set(rng, m, 2, 2), random_iru_set(rng, 2, n, 2)
        )
        result = solve_saddle(a_sum, b_prod)
        assert abs(result.gap) <= 1e-9


def test_solve_saddle_transposed_pair_same_value(rng):
    # rho(A B) = rho(A^T B^T computed as a product of transposes), so the
    # game with both sets transposed but the player roles unchanged has the
    # same value.  (Swapping the roles instead plays the reversed game,
    # whose value genuinely differs.)
    for _ in range(5):
        a, b = random_pair(rng)
        forward = solve_saddle(a, b)
        transposed = solve_saddle(transpose_set(a), transpose_set(b))
        assert abs(forward.value - transposed.value) <= 1e-9


def test_solve_saddle_value_stable_under_hull_supersets(rng):
    for trial in range(5):
        a, b = random_pair(rng, max_rows=2)
        base = solve_saddle(a, b)
        a_aug = FiniteSet(
            a.members() + [convex_hull_sample(a, 3, rng_seed=trial * 2)]
        )
        b_aug = FiniteSet(
            b.members() + [convex_hull_sample(b, 3, rng_seed=trial * 2 + 1)]
        )
        augmented = solve_saddle(a_aug, b_aug)
        assert abs(base.value - augmented.value) <= 1e-9


def test_solve_saddle_iru_matches_exhaustive_oracle():
    rng = np.random.default_rng(20130101)
    for _ in range(300):
        n, m = (int(x) for x in rng.integers(2, 5, size=2))
        a = random_iru_set(rng, n, m, 3)
        b = random_iru_set(rng, m, n, 3)
        result = solve_saddle_iru(a, b)
        oracle = solve_saddle(a, b)
        assert result is not None
        assert result.a_tilde == oracle.a_tilde
        assert result.b_tilde == oracle.b_tilde
        for key in ("value", "minmax", "maxmin"):
            got, want = getattr(result, key), getattr(oracle, key)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert result.gap == 0.0
        assert certify_saddle(result, a, b).valid


def test_solve_saddle_iru_declines_degenerate_pairs():
    # the zero row of A puts a zero coordinate into the Perron vector, so
    # the certificate is inconclusive and the structured solver declines
    a = IRUSet([[[0.3, 0.7], [0.6, 0.2]], [[0.0, 0.0]]])
    b = IRUSet([[[0.4, 0.4]], [[0.9, 0.1], [0.2, 0.8]]])
    assert solve_saddle_iru(a, b) is None
    assert not certify_saddle(solve_saddle(a, b), a, b).conclusive
    # a cyclic product never converges, so no greedy step is trustworthy
    cyclic = IRUSet([[[0.0, 0.0807]], [[0.4218, 0.0]]])
    identity = IRUSet([[[1.0, 0.0]], [[0.0, 1.0]]])
    assert solve_saddle_iru(cyclic, identity) is None


def test_solve_saddle_iru_far_beyond_the_cap():
    import time

    rng = np.random.default_rng(50)
    a = IRUSet(rng.uniform(0.05, 1.0, size=(50, 20, 50)))
    b = IRUSet(rng.uniform(0.05, 1.0, size=(50, 20, 50)))
    assert a.cardinality == 20 ** 50
    start = time.perf_counter()
    result = solve_saddle_iru(a, b)
    assert time.perf_counter() - start < 1.0
    assert result is not None
    assert certify_saddle(result, a, b, cap=1).valid
    assert result.value == spectral_radius(mat_mul(result.a_tilde, result.b_tilde)).rho


def test_solve_saddle_iru_rejects_other_sets(ex4):
    iru = IRUSet([[[1.0, 0.0]], [[0.0, 1.0]]])
    with pytest.raises(TypeError):
        solve_saddle_iru(ex4, iru)
    with pytest.raises(ShapeError):
        solve_saddle_iru(iru, IRUSet([[[1.0, 0.0, 0.0]]] * 3))


# --- certificates -------------------------------------------------------------------


def test_certificate_singleton_pair_is_tight():
    a = Matrix([[0.4, 0.6], [0.7, 0.3]])
    b = Matrix([[0.5, 0.5], [0.2, 0.8]])
    result = solve_saddle(FiniteSet([a]), FiniteSet([b]))
    cert = certify_saddle(result, FiniteSet([a]), FiniteSet([b]))
    assert cert.conclusive
    assert cert.valid
    assert abs(cert.a_residual) <= 1e-9
    assert cert.b_residual == 0.0  # w - b_tilde v is computed identically


def test_certificate_random_iru_pairs_valid(rng):
    for _ in range(10):
        a, b = random_pair(rng)
        result = solve_saddle(a, b)
        cert = certify_saddle(result, a, b)
        assert cert.conclusive
        assert cert.valid
        assert cert.a_residual >= -1e-10
        assert cert.b_residual >= -1e-10


def test_certificate_example4_invalid(ex4):
    result = solve_saddle(ex4, ex4)
    cert = certify_saddle(result, ex4, ex4)
    assert not cert.valid


def test_certificate_soundness_spot_check(rng):
    a, b = random_pair(rng)
    result = solve_saddle(a, b)
    cert = certify_saddle(result, a, b)
    assert cert.valid
    for mat in a.members():
        rho = spectral_radius(mat_mul(mat, result.b_tilde)).rho
        assert rho >= result.value - 1e-9
    for mat in b.members():
        rho = spectral_radius(mat_mul(result.a_tilde, mat)).rho
        assert rho <= result.value + 1e-9
    assert check_saddle_hull_samples(result, a, b, 200, seed=77)


# --- hull sampling check --------------------------------------------------------------


def test_hull_samples_vacuous_and_singleton(ex4):
    result = solve_saddle(ex4, ex4)
    assert check_saddle_hull_samples(result, ex4, ex4, 0, seed=1)
    single_a = FiniteSet([diag(1.0, 1.0)])
    single_b = FiniteSet([Matrix([[0.5, 0.5], [0.5, 0.5]])])
    single = solve_saddle(single_a, single_b)
    assert check_saddle_hull_samples(single, single_a, single_b, 25, seed=2)


def test_hull_samples_random_pair(rng):
    a, b = random_pair(rng)
    result = solve_saddle(a, b)
    assert check_saddle_hull_samples(result, a, b, 200, seed=5)


def _draw_reference(stack, n, seed):
    """The hull draw written point by point: same three draws, r_s terms each."""
    rng = np.random.default_rng(seed)
    r = rng.integers(1, min(4, len(stack)) + 1, size=n)
    picks = rng.integers(0, len(stack), size=(n, 4))
    weights = rng.exponential(1.0, size=(n, 4))
    points = []
    for s in range(n):
        w = weights[s, : r[s]] / weights[s, : r[s]].sum()
        points.append(np.einsum("k,kij->ij", w, stack[picks[s, : r[s]]]))
    return np.stack(points)


def test_hull_samples_iru_match_finite_members(rng):
    # Oracle: an IRU pair and the same members listed as finite sets draw
    # bit-identical sample stacks from one seed and reach the same verdict;
    # the finite draw equals the point-by-point reference.
    verdicts = []
    for trial in range(50):
        a, b = random_pair(rng)
        fa, fb = FiniteSet(a.members()), FiniteSet(b.members())
        result = solve_saddle(a, b)
        draws = []
        for pair in ((a, b), (fa, fb)):
            gen = np.random.default_rng(trial)
            draws.append([draw_hull_samples(s, 30, gen) for s in pair[::-1]])
        for iru_samples, finite_samples in zip(*draws):
            assert np.array_equal(iru_samples, finite_samples)
        assert np.array_equal(draws[1][0], _draw_reference(fb.stack(), 30, trial))
        verdict = check_saddle_hull_samples(result, a, b, 30, seed=trial)
        assert verdict == check_saddle_hull_samples(result, fa, fb, 30, seed=trial)
        verdicts.append(verdict)
    assert all(verdicts)


def test_hull_samples_never_enumerate_iru_sets(rng, monkeypatch):
    a, b = random_pair(rng)
    result = solve_saddle_iru(a, b)
    assert result is not None

    def refuse(self, cap=None):
        raise AssertionError("IRUSet.stack called")

    monkeypatch.setattr(IRUSet, "stack", refuse)
    assert check_saddle_hull_samples(result, a, b, 200, seed=4)
    sample = convex_hull_sample(a, 3, rng_seed=9)
    assert sample.shape == a.shape


def test_hull_samples_check_the_cap_before_drawing():
    a = IRUSet([[[0.3, 0.7], [0.6, 0.2]], [[0.5, 0.5], [0.1, 0.9]]])
    b = IRUSet([[[0.4, 0.4]], [[0.9, 0.1], [0.2, 0.8]]])
    result = solve_saddle_iru(a, b)
    gen = np.random.default_rng(3)
    state = gen.bit_generator.state
    with pytest.raises(CapExceededError):
        draw_hull_samples(a, 10, gen, cap=3)
    assert gen.bit_generator.state == state
    with pytest.raises(CapExceededError):
        check_saddle_hull_samples(result, a, b, 10, seed=3, cap=3)
    with pytest.raises(CapExceededError):
        convex_hull_sample(a, 2, rng_seed=3, cap=3)
    assert check_saddle_hull_samples(result, a, b, 10, seed=3, cap=4)


def test_hull_samples_detect_the_projection_counterexample(ex4):
    # ex4 = {diag(1,0), diag(0,1)} has no saddle: value 0 against minmax 1,
    # and hull points such as diag(1/2, 1/2) expose it.
    result = solve_saddle(ex4, ex4)
    assert result.value == 0.0
    assert result.minmax == 1.0
    for seed in range(5):
        assert not check_saddle_hull_samples(result, ex4, ex4, 50, seed=seed)
