"""Tests for the two-sided image alternative checks."""

import numpy as np
import pytest

from hourglass import (
    CapExceededError,
    FiniteSet,
    IRUSet,
    LinearlyOrderedSet,
    Matrix,
    Product,
    Sum,
    check_hourglass_at,
    check_hset_sampled,
    random_iru_set,
)

from helpers import ex4_set, listed, random_finite_set


@pytest.fixture
def chain():
    a = Matrix([[1.0, 2.0], [3.0, 4.0]])
    return LinearlyOrderedSet([a, Matrix(2 * a.data), Matrix(3 * a.data)])


def test_singleton_holds_trivially():
    single = FiniteSet([Matrix([[1.0, 2.0], [3.0, 4.0]])])
    report = check_hourglass_at(single, listed(single)[0], [1.0, 1.0])
    assert report.holds
    assert report.h1.all_on_side and report.h2.all_on_side
    assert report.h1.witness is None and report.h2.witness is None


def test_chain_middle_probe_yields_end_witnesses(chain):
    a1, a2, a3 = listed(chain)
    report = check_hourglass_at(chain, a2, [0.3, 1.7])
    assert report.holds
    assert not report.h1.all_on_side
    assert np.array_equal(report.h1.witness, a1.data)
    assert not report.h2.all_on_side
    assert np.array_equal(report.h2.witness, a3.data)


def test_chain_bottom_probe_covers_upper_cone(chain):
    report = check_hourglass_at(chain, listed(chain)[0], [1.0, 1.0])
    assert report.holds
    assert report.h1.all_on_side
    # earliest qualifying member wins the witness slot
    assert np.array_equal(report.h2.witness, chain.stack()[1])


def test_small_positive_iru_holds_everywhere():
    iru = IRUSet([[[1.0, 2.0], [2.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]])
    for probe in listed(iru):
        report = check_hourglass_at(iru, probe, [1.0, 1.0])
        assert report.holds


def test_example4_probe_fails_without_witness():
    mset = ex4_set()
    report = check_hourglass_at(mset, listed(mset)[0], [1.0, 1.0])
    # The other member's image (0, 1) is incomparable with (1, 0) and no
    # further member exists, so the first assertion fails outright.
    assert not report.h1.satisfied
    assert report.h1.witness is None
    assert not report.holds


def test_probe_vector_must_be_positive(chain):
    with pytest.raises(ValueError, match="positive"):
        check_hourglass_at(chain, listed(chain)[0], [1.0, 0.0])


def test_probe_must_belong_to_set(chain):
    with pytest.raises(ValueError, match="member"):
        check_hourglass_at(chain, Matrix([[9.0, 9.0], [9.0, 9.0]]), [1.0, 1.0])


def test_report_scaling_invariance(rng):
    for trial in range(10):
        iru = random_iru_set(rng, 3, 2, 3)
        members = listed(iru)
        probe = members[int(rng.integers(0, len(members)))]
        u = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
        factor = float(rng.uniform(0.3, 3.0))
        base = check_hourglass_at(iru, probe, u)
        scaled = check_hourglass_at(iru, probe, factor * u)
        assert base.h1.all_on_side == scaled.h1.all_on_side
        assert base.h2.all_on_side == scaled.h2.all_on_side
        assert (base.h1.witness is None) == (scaled.h1.witness is None)
        if base.h1.witness is not None:
            assert np.array_equal(base.h1.witness, scaled.h1.witness)
        if base.h2.witness is not None:
            assert np.array_equal(base.h2.witness, scaled.h2.witness)


def test_sampled_check_passes_on_random_positive_iru(rng):
    for trial in range(15):
        n, m = (int(x) for x in rng.integers(2, 5, size=2))
        iru = random_iru_set(rng, n, m, 4)
        assert check_hset_sampled(iru, 50, rng_seed=trial).passed, trial
        # The enumerated members take the sampled path.
        outcome = check_hset_sampled(FiniteSet(listed(iru)), 50, rng_seed=trial)
        assert outcome.passed, trial


def _iru_with_zeros_and_repeats(rng, trial):
    n, m = (int(x) for x in rng.integers(1, 4, size=2))
    row_sets = []
    for _ in range(n):
        rows = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 4)), m))
        if trial % 2:
            rows = np.where(rng.uniform(size=rows.shape) < 0.3, 0.0, rows)
        if trial % 5 == 0:
            rows = np.concatenate([rows, rows[:1]])
        row_sets.append(rows)
    return IRUSet(row_sets)


def test_iru_verdict_matches_the_enumerated_check(rng):
    # Half the sets have 30% zero entries and every fifth repeats a row.
    for trial in range(200):
        iru = _iru_with_zeros_and_repeats(rng, trial)
        got = check_hset_sampled(iru, 6, rng_seed=trial)
        enumerated = check_hset_sampled(FiniteSet(listed(iru)), 6, rng_seed=trial)
        assert (got.passed, got.failures) == (True, ())
        assert (enumerated.passed, len(enumerated.failures)) == (True, 0), trial


def test_iru_check_never_enumerates(monkeypatch):
    rows = np.linspace(0.0, 1.0, 60).reshape(20, 3)
    iru = IRUSet([rows] * 50)
    assert iru.cardinality == 20 ** 50

    def refuse(*args, **kwargs):
        raise AssertionError("the IRU set was enumerated")

    monkeypatch.setattr(IRUSet, "stack", refuse)
    monkeypatch.setattr(IRUSet, "take", refuse)
    outcome = check_hset_sampled(iru, 10, rng_seed=0, cap=1)
    assert outcome.passed and outcome.failures == ()


def test_minkowski_nodes_of_iru_sets_take_the_sampled_path(rng):
    # The cap is checked only when the members are enumerated.
    a = random_iru_set(rng, 2, 2, 2)
    b = IRUSet([[[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [3.0, 0.5]]])
    for node in (Sum(a, b), Product(a, b)):
        with pytest.raises(CapExceededError):
            check_hset_sampled(node, 5, rng_seed=0, cap=1)
    assert check_hset_sampled(b, 5, rng_seed=0, cap=1).passed


def test_negative_tol_is_rejected(chain):
    with pytest.raises(ValueError, match="tolerance"):
        check_hset_sampled(chain, 5, rng_seed=0, tol=-1e-12)
    with pytest.raises(ValueError, match="tolerance"):
        check_hset_sampled(IRUSet([[[1.0, 2.0]]]), 5, rng_seed=0, tol=-1.0)
    with pytest.raises(ValueError, match="tolerance"):
        check_hourglass_at(chain, listed(chain)[0], [1.0, 1.0], tol=-1e-12)
    # tol == 0 is allowed: a one-member set then holds at every probe.
    single = FiniteSet([Matrix([[1.0, 2.0], [3.0, 4.0]])])
    assert check_hset_sampled(single, 5, rng_seed=0, tol=0.0).passed


def test_sampled_check_passes_on_minkowski_closures(rng):
    for trial in range(6):
        n, m, q = (int(x) for x in rng.integers(2, 4, size=3))
        a = random_iru_set(rng, n, m, 2)
        summed = Sum(a, random_iru_set(rng, n, m, 2))
        produced = Product(a, random_iru_set(rng, m, q, 2))
        assert check_hset_sampled(summed, 25, rng_seed=trial).passed
        assert check_hset_sampled(produced, 25, rng_seed=trial).passed


def test_sampled_check_fails_on_example4_with_witness_reports():
    outcome = check_hset_sampled(ex4_set(), 10, rng_seed=0)
    assert not outcome.passed
    assert len(outcome.failures) == 20  # every (probe, u) pair fails
    first = outcome.failures[0]
    assert not first.holds
    assert not first.h1.satisfied
    assert first.probe_vector.shape == (2,)


def test_sampled_check_passes_on_scaled_chain():
    a = Matrix([[0.5, 1.0], [2.0, 0.25]])
    chain = FiniteSet([Matrix(c * a.data) for c in (1.0, 2.0, 3.0)])
    assert check_hset_sampled(chain, 40, rng_seed=5).passed


def test_reported_witnesses_satisfy_their_inequalities(rng):
    from hourglass import COMPARISON_TOL

    checked = 0
    for trial in range(12):
        iru = random_iru_set(rng, 3, 3, 3)
        members = listed(iru)
        probe = members[int(rng.integers(0, len(members)))]
        u = 10.0 ** rng.uniform(-2.0, 2.0, size=3)
        rep = check_hourglass_at(iru, probe, u)
        probe_image = probe.data @ u
        if rep.h1.witness is not None:
            image = rep.h1.witness @ u
            assert (image <= probe_image + COMPARISON_TOL).all()
            assert np.abs(image - probe_image).max() > COMPARISON_TOL
            checked += 1
        if rep.h2.witness is not None:
            image = rep.h2.witness @ u
            assert (image >= probe_image - COMPARISON_TOL).all()
            assert np.abs(image - probe_image).max() > COMPARISON_TOL
            checked += 1
    assert checked > 0  # random probes do produce witnesses


def _assert_same_reports(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert np.array_equal(g.probe_matrix, e.probe_matrix)
        assert np.array_equal(g.probe_vector, e.probe_vector)
        for branch_g, branch_e in ((g.h1, e.h1), (g.h2, e.h2)):
            assert branch_g.all_on_side == branch_e.all_on_side
            if branch_e.witness is None:
                assert branch_g.witness is None
            else:
                assert np.array_equal(branch_g.witness, branch_e.witness)


def test_sampled_check_is_deterministic(rng):
    # Enumerated sets take the sampled path; Example 4 fails at its draws.
    iru = random_iru_set(rng, 2, 2, 3)
    for mset in (FiniteSet(listed(iru)), ex4_set()):
        first = check_hset_sampled(mset, 20, rng_seed=9)
        second = check_hset_sampled(mset, 20, rng_seed=9)
        assert first.passed == second.passed
        _assert_same_reports(first.failures, second.failures)
    assert not first.passed and first.failures


def _reference_failures(mset, n_probes, seed):
    """Failing reports of a loop over single probes, with the same draws."""
    rng = np.random.default_rng(seed)
    failures = []
    for probe in listed(mset):
        for u in 10.0 ** rng.uniform(-2.0, 2.0, size=(n_probes, mset.shape[1])):
            report = check_hourglass_at(mset, probe, u)
            if not report.holds:
                failures.append(report)
    return failures


def test_sampled_check_matches_a_loop_over_single_probes(rng):
    sets = [ex4_set()]
    for trial in range(30):
        n, m = (int(x) for x in rng.integers(1, 4, size=2))
        if trial % 3 == 0:
            sets.append(random_finite_set(rng, n, m, int(rng.integers(2, 8)), zero_prob=0.5))
        elif trial % 3 == 1:
            a = random_iru_set(rng, n, m, 2)
            sets.append(Product(a, random_finite_set(rng, m, n, 2, zero_prob=0.4)))
        else:
            a = random_iru_set(rng, n, m, 2)
            sets.append(Sum(a, random_finite_set(rng, n, m, 2, zero_prob=0.4)))
    compared = 0
    for seed, mset in enumerate(sets):
        got = check_hset_sampled(mset, 8, rng_seed=seed).failures
        expected = _reference_failures(mset, 8, seed)
        _assert_same_reports(got, expected)
        compared += len(got)
    assert compared > 100  # the sparse sets do fail
