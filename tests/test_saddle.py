"""Tests for the saddle solver, certificates, and minimax tables."""

import numpy as np
import pytest

import hourglass.linalg
import hourglass.saddle
from hourglass import (
    CapExceededError,
    FiniteSet,
    IRUSet,
    Matrix,
    Product,
    Scale,
    ShapeError,
    Sum,
    best_response_max,
    best_response_min,
    certify_saddle,
    check_hset_sampled,
    check_saddle_hull_samples,
    minimax_table,
    random_iru_set,
    solve_saddle,
    spectral_radius,
)
from hourglass.saddle import draw_hull_samples

from helpers import diag, draw_reference, listed, random_finite_set


def random_pair(rng, max_rows=3):
    n, m = (int(x) for x in rng.integers(2, 4, size=2))
    return random_iru_set(rng, n, m, max_rows), random_iru_set(rng, m, n, max_rows)


def finite(mset):
    """The members of a set listed as a finite set: the exhaustive oracle."""
    return FiniteSet(listed(mset))


def count_calls(monkeypatch, name):
    """Count calls of ``hourglass.saddle.<name>`` from now on."""
    calls = []

    def counted(*args, _inner=getattr(hourglass.saddle, name), **kwargs):
        calls.append(1)
        return _inner(*args, **kwargs)

    monkeypatch.setattr(hourglass.saddle, name, counted)
    return calls


def assert_same_result(result, oracle):
    assert np.array_equal(result.a_tilde, oracle.a_tilde)
    assert np.array_equal(result.b_tilde, oracle.b_tilde)
    for key in ("value", "minmax", "maxmin", "gap"):
        assert getattr(result, key) == getattr(oracle, key)
    assert np.array_equal(result.w, oracle.w)
    assert np.array_equal(result.perron.vector, oracle.perron.vector)
    assert result.perron.converged == oracle.perron.converged


# --- best responses -------------------------------------------------------------


def test_best_response_min_singleton():
    a = Matrix([[1.0, 2.0], [3.0, 4.0]])
    chosen, rho = best_response_min(diag(1.0, 1.0), FiniteSet([a]))
    assert np.array_equal(chosen, a.data)
    assert rho == spectral_radius(a).rho


def test_best_response_min_example4(ex4):
    chosen, rho = best_response_min(diag(1.0, 0.0), ex4)
    assert np.array_equal(chosen, diag(0.0, 1.0).data)
    assert rho == 0.0


def test_best_response_max_example4(ex4):
    chosen, rho = best_response_max(diag(1.0, 0.0), ex4)
    assert np.array_equal(chosen, diag(1.0, 0.0).data)
    assert rho == 1.0


def test_best_responses_agree_with_manual_scan(rng):
    b = Matrix(rng.uniform(0.1, 1.0, size=(3, 2)))
    mats = [Matrix(rng.uniform(0.1, 1.0, size=(2, 3))) for _ in range(5)]
    mset = FiniteSet(mats)
    rhos = [spectral_radius(Matrix(m.data @ b.data)).rho for m in mats]
    chosen, rho = best_response_min(b, mset)
    assert rho == min(rhos)
    assert np.array_equal(chosen, mats[int(np.argmin(rhos))].data)

    a = Matrix(rng.uniform(0.1, 1.0, size=(2, 3)))
    bset = FiniteSet([Matrix(rng.uniform(0.1, 1.0, size=(3, 2))) for _ in range(5)])
    rhos = [spectral_radius(Matrix(a.data @ m)).rho for m in bset.stack()]
    chosen, rho = best_response_max(a, bset)
    assert rho == max(rhos)
    assert np.array_equal(chosen, bset.stack()[int(np.argmax(rhos))])


def test_best_response_shape_checks(ex4):
    with pytest.raises(ShapeError):
        best_response_min(Matrix(np.ones((3, 2))), ex4)
    with pytest.raises(ShapeError):
        best_response_max(Matrix(np.ones((3, 2))), ex4)


def test_best_response_rows_requires_iru_and_pairing(ex4, monkeypatch):
    # greedy row selection runs on IRU sets only: any other set is answered
    # by a scan, and a mispaired IRU set is refused before any row is read
    def refuse(*args):
        raise AssertionError("_greedy_rows called")

    monkeypatch.setattr(hourglass.saddle, "_greedy_rows", refuse)
    chosen, rho = best_response_min(diag(1.0, 0.0), ex4)
    assert np.array_equal(chosen, diag(0.0, 1.0).data)
    assert rho == 0.0
    iru = IRUSet([[[1.0, 2.0]]] * 2)
    with pytest.raises(ShapeError):
        best_response_min(Matrix(np.ones((3, 2))), iru)
    with pytest.raises(ShapeError):
        best_response_max(Matrix(np.ones((2, 3))), iru)


def test_best_response_rows_match_enumeration(rng, monkeypatch):
    # greedy row selection is exact on positive IRU sets: the same member
    # as a scan of the members listed as a finite set, the same radius,
    # and the IRU set is never enumerated
    cases = []
    for _ in range(30):
        n, m = (int(x) for x in rng.integers(2, 5, size=2))
        iru_a = random_iru_set(rng, n, m, 3)
        iru_b = random_iru_set(rng, m, n, 3)
        b = Matrix(rng.uniform(0.05, 1.0, size=(m, n)))
        a = Matrix(rng.uniform(0.05, 1.0, size=(n, m)))
        for fixed, iru, respond in (
            (b, iru_a, best_response_min),
            (a, iru_b, best_response_max),
        ):
            cases.append((fixed, iru, respond, respond(fixed, finite(iru))))

    def refuse(self, cap=None):
        raise AssertionError("IRUSet.stack called")

    monkeypatch.setattr(IRUSet, "stack", refuse)
    for fixed, iru, respond, (expected, rho_expected) in cases:
        chosen, rho = respond(fixed, iru)
        assert np.array_equal(chosen, expected)
        assert abs(rho - rho_expected) <= 1e-12 * max(1.0, rho_expected)


def test_best_response_rows_singleton_rows():
    iru = IRUSet([[[1.0, 2.0]], [[3.0, 4.0]]])
    for respond in (best_response_min, best_response_max):
        chosen, rho = respond(diag(1.0, 1.0), iru)
        assert np.array_equal(chosen, [[1.0, 2.0], [3.0, 4.0]])
        assert rho == spectral_radius(Matrix(chosen)).rho


def test_best_response_min_on_zero_rows_matches_an_eigvals_oracle():
    # Zero entries make the second member of this pair cyclic: its true
    # radius is 0.2681, but the kernel stalls at 0.1258 without converging,
    # so a bare scan of the members picks it.  The greedy settles with a
    # strictly positive Perron vector, which makes its answer exact.
    a = IRUSet([
        [[0.2087, 0.2973, 0.0], [0.0, 0.8420, 0.0]],
        [[0.6970, 0.0, 0.8761], [0.3598, 0.0, 0.6688], [0.0, 0.4129, 0.0]],
    ])
    b = Matrix([[0.1584, 0.0], [0.0, 0.7723], [0.0801, 0.0]])
    radii = [np.abs(np.linalg.eigvals(m @ b.data)).max() for m in a.stack()]
    chosen, rho = best_response_min(b, a)
    assert np.array_equal(chosen, a.stack()[int(np.argmin(radii))])
    assert abs(rho - min(radii)) <= 1e-9
    assert round(rho, 6) == 0.176713


def test_best_response_falls_back_to_a_scan_on_degenerate_iru_sets(monkeypatch):
    # A zero row leaves a zero in the settled Perron vector, where greedy
    # row selection is not known to be exact: the members are then scanned
    a = IRUSet([[[0.3, 0.7], [0.6, 0.2]], [[0.0, 0.0]]])
    b = Matrix([[0.4, 0.4], [0.9, 0.1]])
    expected, rho_expected = best_response_min(b, finite(a))
    scans = []

    def counted(self, cap, _stack=IRUSet.stack):
        scans.append(cap)
        return _stack(self, cap)

    monkeypatch.setattr(IRUSet, "stack", counted)
    chosen, rho = best_response_min(b, a)
    assert np.array_equal(chosen, expected) and rho == rho_expected
    assert len(scans) == 1


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
    assert np.array_equal(result.a_tilde, a.data)
    assert np.array_equal(result.b_tilde, b.data)
    assert result.gap == 0.0
    assert result.value == spectral_radius(a).rho


def test_solve_saddle_example4_gap(ex4):
    result = solve_saddle(ex4, ex4)
    assert result.minmax == 1.0
    assert result.maxmin == 0.0
    assert result.gap == 1.0
    # ties break to the earliest enumeration index
    assert np.array_equal(result.b_tilde, ex4.stack()[0])
    assert np.array_equal(result.a_tilde, ex4.stack()[1])


def test_solve_saddle_random_iru_pair_has_no_gap(rng):
    for trial in range(10):
        a, b = random_pair(rng)
        result = solve_saddle(a, b)
        assert abs(result.gap) <= 1e-9
        assert result.maxmin - 1e-9 <= result.value <= result.minmax + 1e-9
        assert abs(result.value - spectral_radius(Matrix(result.a_tilde @ result.b_tilde)).rho) <= 1e-9
        assert np.allclose(result.w, result.b_tilde @ result.perron.vector)


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
        pairs.append((a, Sum(left, Scale(0.5, right))))
    for a, b in pairs:
        calls.clear()
        result = solve_saddle(a, b)
        assert len(calls) == 1
        assert result.value == result.maxmin
        oracle = spectral_radius(Matrix(result.a_tilde @ result.b_tilde))
        assert result.perron.rho == oracle.rho
        assert np.array_equal(result.perron.vector, oracle.vector)
        assert result.perron.iterations == oracle.iterations
        assert result.perron.converged == oracle.converged


def test_solve_saddle_minkowski_closures_have_no_gap(rng):
    # sums and products of positive IRU sets stay inside the class with a
    # saddle, so the exhaustive tables must still show exact equality
    for _ in range(6):
        n, m = (int(x) for x in rng.integers(2, 4, size=2))
        a_sum = Sum(random_iru_set(rng, n, m, 2), random_iru_set(rng, n, m, 2))
        b_prod = Product(random_iru_set(rng, m, 2, 2), random_iru_set(rng, 2, n, 2))
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
        a_t, b_t = (FiniteSet([Matrix(x.T) for x in s.stack()]) for s in (a, b))
        transposed = solve_saddle(a_t, b_t)
        assert abs(forward.value - transposed.value) <= 1e-9


def test_solve_saddle_value_stable_under_hull_supersets(rng):
    for trial in range(5):
        a, b = random_pair(rng, max_rows=2)
        base = solve_saddle(a, b)
        gen = np.random.default_rng(trial)
        a_aug, b_aug = (
            FiniteSet(listed(s) + [Matrix(draw_hull_samples(s, 1, gen)[0])])
            for s in (a, b)
        )
        augmented = solve_saddle(a_aug, b_aug)
        assert abs(base.value - augmented.value) <= 1e-9


def test_solve_saddle_iru_matches_exhaustive_oracle(monkeypatch):
    rng = np.random.default_rng(20130101)
    pairs = []
    for _ in range(300):
        n, m = (int(x) for x in rng.integers(2, 5, size=2))
        pairs.append((random_iru_set(rng, n, m, 3), random_iru_set(rng, m, n, 3)))
    oracles = [solve_saddle(finite(a), finite(b)) for a, b in pairs]
    tables = count_calls(monkeypatch, "product_table")
    for (a, b), oracle in zip(pairs, oracles):
        result = solve_saddle(a, b)
        assert np.array_equal(result.a_tilde, oracle.a_tilde)
        assert np.array_equal(result.b_tilde, oracle.b_tilde)
        for key in ("value", "minmax", "maxmin"):
            got, want = getattr(result, key), getattr(oracle, key)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert result.gap == 0.0
        assert certify_saddle(result, a, b).valid
    assert not tables


def _mixed_pair(rng, kind, zero_prob):
    """An IRU set, with zero entries at rate ``zero_prob``, against a
    positive finite set or a Sum of two, in either role."""
    n, m = (int(x) for x in rng.integers(2, 4, size=2))
    rows, cols = (m, n) if kind == "finite x iru" else (n, m)
    row_sets = []
    for k in rng.integers(1, 4, size=rows):
        entries = rng.uniform(0.05, 1.0, size=(int(k), cols))
        row_sets.append(np.where(rng.uniform(size=entries.shape) < zero_prob, 0.0, entries))

    def positive(count):
        mats = rng.uniform(0.05, 1.0, size=(count, cols, rows))
        return FiniteSet([Matrix(x) for x in mats])

    other = positive(int(rng.integers(1, 5)))
    if kind == "iru x expr":
        other = Sum(other, positive(int(rng.integers(1, 3))))
    return (other, IRUSet(row_sets)) if kind == "finite x iru" else (IRUSet(row_sets), other)


def test_solve_saddle_mixed_pairs_match_exhaustive_oracle(monkeypatch):
    # Row-wise answers on IRU x finite, finite x IRU and IRU x expr pairs,
    # half positive and half with about 30% zero entries in the IRU set.
    # The other side stays positive, so no product is cyclic: the power
    # kernel spends its whole step budget on a cyclic product, seconds per
    # pair (the kernel limit pinned in test_linalg.py).  A certified answer
    # is a saddle cell of the oracle's table, and the oracle's own pair
    # whenever that cell is the only one.  A declined answer is the
    # table's, field by field.
    rng = np.random.default_rng(2016)
    kinds = ("iru x finite", "finite x iru", "iru x expr")
    pairs = [_mixed_pair(rng, kinds[k % 3], 0.3 * (k % 2)) for k in range(210)]
    oracles = [solve_saddle(finite(a), finite(b)) for a, b in pairs]
    tables = count_calls(monkeypatch, "product_table")
    certified = 0
    for (a, b), oracle in zip(pairs, oracles):
        tables.clear()
        result = solve_saddle(a, b)
        if tables:
            assert_same_result(result, oracle)
            continue
        certified += 1
        assert certify_saddle(result, a, b).valid
        assert result.gap == 0.0
        value = oracle.value
        assert abs(result.value - value) <= 1e-12 * max(1.0, value)
        stack_a, stack_b = finite(a).stack(), finite(b).stack()
        table = minimax_table(finite(a), finite(b))
        band = 1e-12 * max(1.0, value)
        saddle_cells = (
            (np.abs(table - value) <= band)
            & (table.max(axis=1, keepdims=True) <= value + band)
            & (table.min(axis=0, keepdims=True) >= value - band)
        )
        i = next(k for k, x in enumerate(stack_a) if np.array_equal(x, result.a_tilde))
        j = next(k for k, x in enumerate(stack_b) if np.array_equal(x, result.b_tilde))
        assert saddle_cells[i, j]
        if saddle_cells.sum() == 1:
            assert np.array_equal(result.a_tilde, oracle.a_tilde)
            assert np.array_equal(result.b_tilde, oracle.b_tilde)
    assert 40 <= certified <= 170


def test_solve_saddle_iru_declines_degenerate_pairs(monkeypatch):
    # the zero row of A puts a zero coordinate into the Perron vector, so
    # the certificate is inconclusive and the table answers
    a = IRUSet([[[0.3, 0.7], [0.6, 0.2]], [[0.0, 0.0]]])
    b = IRUSet([[[0.4, 0.4]], [[0.9, 0.1], [0.2, 0.8]]])
    tables = count_calls(monkeypatch, "product_table")
    result = solve_saddle(a, b)
    assert len(tables) == 1
    assert_same_result(result, solve_saddle(finite(a), finite(b)))
    assert not certify_saddle(result, a, b).conclusive
    # a cyclic product never converges, so no greedy step is trustworthy
    cyclic = IRUSet([[[0.0, 0.0807]], [[0.4218, 0.0]]])
    identity = IRUSet([[[1.0, 0.0]], [[0.0, 1.0]]])
    tables.clear()
    assert not solve_saddle(cyclic, identity).perron.converged
    assert len(tables) == 1


def test_solve_saddle_iru_far_beyond_the_cap(monkeypatch):
    import time

    rng = np.random.default_rng(50)
    a = IRUSet(rng.uniform(0.05, 1.0, size=(50, 20, 50)))
    b = IRUSet(rng.uniform(0.05, 1.0, size=(50, 20, 50)))
    single = FiniteSet([Matrix(rng.uniform(0.05, 1.0, size=(50, 50)))])
    assert a.cardinality == 20 ** 50

    def refuse(self, cap=None):
        raise AssertionError("IRUSet.stack called")

    monkeypatch.setattr(IRUSet, "stack", refuse)
    for other in (b, single):
        start = time.perf_counter()
        result = solve_saddle(a, other)
        assert time.perf_counter() - start < 1.0
        assert result.gap == 0.0
        assert certify_saddle(result, a, other, cap=1).valid
        oracle = spectral_radius(Matrix(result.a_tilde @ result.b_tilde))
        assert result.value == oracle.rho


def test_solve_saddle_stops_when_best_responses_cycle(monkeypatch):
    # B's answers return to an earlier choice: without the cycle stop the
    # rounds would run to IRU_MAX_ROUNDS, about 300 kernel calls here
    rng = np.random.default_rng(6)
    n, m = (int(x) for x in rng.integers(2, 4, size=2))
    a = IRUSet([rng.uniform(0.05, 1, size=(int(k), m)) for k in rng.integers(1, 4, size=n)])
    count = int(rng.integers(1, 5))
    b = FiniteSet([Matrix(x) for x in rng.uniform(0.05, 1, size=(count, m, n))])
    oracle = solve_saddle(finite(a), b)
    kernel = count_calls(monkeypatch, "power_many")
    tables = count_calls(monkeypatch, "product_table")
    assert_same_result(solve_saddle(a, b), oracle)
    assert len(tables) == 1
    assert len(kernel) <= 10


def test_solve_saddle_iru_rejects_mispaired_shapes():
    iru = IRUSet([[[1.0, 0.0]], [[0.0, 1.0]]])
    with pytest.raises(ShapeError):
        solve_saddle(iru, IRUSet([[[1.0, 0.0, 0.0]]] * 3))
    with pytest.raises(ShapeError):
        solve_saddle(FiniteSet([Matrix(np.ones((3, 2)))]), iru)


# --- results are copies of members --------------------------------------------------


def test_results_are_read_only_copies_of_members(ex4, monkeypatch):
    # Once the inputs exist no Matrix may be built: every pair, best
    # response, probe and witness is a read-only float64 copy of a member,
    # bit-equal to it and sharing no memory with the member stack.
    a = IRUSet([[[0.3, 0.7], [0.6, 0.2]], [[0.5, 0.5]]])
    b = IRUSet([[[0.4, 0.4]], [[0.9, 0.1], [0.2, 0.8]]])
    fa, fb = finite(a), finite(b)
    fixed = Matrix([[0.4, 0.4], [0.9, 0.1]])
    with_zero = FiniteSet([*listed(ex4), Matrix(np.zeros((2, 2)))])

    def refuse(self, *args, **kwargs):
        raise AssertionError("Matrix built")

    monkeypatch.setattr(hourglass.linalg.Matrix, "__init__", refuse)
    tables = count_calls(monkeypatch, "product_table")
    checked = []

    def check(arr, mset):
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
        assert not arr.flags.writeable
        stack = mset.stack()
        assert any(arr.tobytes() == m.tobytes() for m in stack)
        assert not np.shares_memory(arr, stack)
        checked.append(1)

    for pair in ((a, b), (fa, fb)):
        result = solve_saddle(*pair)
        check(result.a_tilde, pair[0])
        check(result.b_tilde, pair[1])
    assert len(tables) == 1  # the IRU pair settles by greedy rows
    for mset in (a, fa):  # greedy rows, then a scan
        check(best_response_min(fixed, mset)[0], mset)
        check(best_response_max(fixed, mset)[0], mset)
    for mset in (ex4, with_zero):
        outcome = check_hset_sampled(mset, 5, rng_seed=1)
        assert not outcome.passed
        for report in outcome.failures:
            for arr in (report.probe_matrix, report.h1.witness, report.h2.witness):
                if arr is not None:
                    check(arr, mset)
    assert len(checked) > 30


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
    for mat in a.stack():
        rho = spectral_radius(Matrix(mat @ result.b_tilde)).rho
        assert rho >= result.value - 1e-9
    for mat in b.stack():
        rho = spectral_radius(Matrix(result.a_tilde @ mat)).rho
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


def test_hull_samples_iru_match_finite_members(rng):
    # Oracle: from one seed, an IRU pair draws B's and then A's points as
    # the reference that picks one row per row set over the enumerated
    # stack, and the same members listed as finite sets draw them as the
    # member-index reference; every verdict on either pair passes.
    verdicts = []
    for trial in range(50):
        a, b = random_pair(rng)
        fa, fb = finite(a), finite(b)
        result = solve_saddle(a, b)
        for pair, by_row in (((a, b), True), ((fa, fb), False)):
            gen, ref = np.random.default_rng(trial), np.random.default_rng(trial)
            for s in pair[::-1]:
                sizes = [len(rs) for rs in s.row_sets] if by_row else None
                expected = draw_reference(s.stack(), 30, ref, sizes)
                assert np.array_equal(draw_hull_samples(s, 30, gen), expected)
            verdicts.append(check_saddle_hull_samples(result, *pair, 30, seed=trial))
    assert all(verdicts)


def test_hull_samples_never_enumerate_iru_sets(rng, monkeypatch):
    a, b = random_pair(rng)
    result = solve_saddle(a, b)

    def refuse(self, cap=None):
        raise AssertionError("IRUSet.stack called")

    monkeypatch.setattr(IRUSet, "stack", refuse)
    assert check_saddle_hull_samples(result, a, b, 200, seed=4)
    samples = draw_hull_samples(a, 3, np.random.default_rng(9))
    assert samples.shape == (3, *a.shape)


def test_hull_samples_check_the_cap_before_drawing():
    a = IRUSet([[[0.3, 0.7], [0.6, 0.2]], [[0.5, 0.5], [0.1, 0.9]]])
    b = IRUSet([[[0.4, 0.4]], [[0.9, 0.1], [0.2, 0.8]]])
    result = solve_saddle(a, b)
    gen = np.random.default_rng(3)
    state = gen.bit_generator.state
    with pytest.raises(CapExceededError):
        draw_hull_samples(a, 10, gen, cap=3)
    assert gen.bit_generator.state == state
    with pytest.raises(CapExceededError):
        check_saddle_hull_samples(result, a, b, 10, seed=3, cap=3)
    assert check_saddle_hull_samples(result, a, b, 10, seed=3, cap=4)


def test_hull_samples_detect_the_projection_counterexample(ex4):
    # ex4 = {diag(1,0), diag(0,1)} has no saddle: value 0 against minmax 1,
    # and hull points such as diag(1/2, 1/2) expose it.
    result = solve_saddle(ex4, ex4)
    assert result.value == 0.0
    assert result.minmax == 1.0
    for seed in range(5):
        assert not check_saddle_hull_samples(result, ex4, ex4, 50, seed=seed)
