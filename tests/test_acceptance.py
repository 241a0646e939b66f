"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines live.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

from hourglass import (
    FiniteSet,
    Matrix,
    Product,
    Sum,
    certify_saddle,
    check_hset_sampled,
    check_saddle_hull_samples,
    collatz_wielandt_lower,
    collatz_wielandt_upper,
    hausdorff_distance,
    minimax_table,
    random_iru_pair,
    random_iru_set,
    solve_saddle,
    spectral_radius,
)

from helpers import ex4_set, listed, random_finite_set, rho_2x2_closed_form

SWEEP_PAIRS = 100
SWEEP_SEED = 20260810


def report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep():
    """Criterion-2 workload, shared with criterion 3: 100 seeded random
    positive IRU pairs with N, M in {2, 3} and row-set sizes <= 3."""
    rng = np.random.default_rng(SWEEP_SEED)
    t0 = time.perf_counter()
    solved = []
    for _ in range(SWEEP_PAIRS):
        a_set, b_set = random_iru_pair(rng)
        solved.append((a_set, b_set, solve_saddle(a_set, b_set)))
    elapsed = time.perf_counter() - t0
    return solved, elapsed


def test_criterion_1_example4_regression():
    mset = ex4_set()
    t0 = time.perf_counter()
    result = solve_saddle(mset, mset)
    elapsed = time.perf_counter() - t0
    ok = result.minmax == 1.0 and result.maxmin == 0.0 and elapsed < 1.0
    report(
        "criterion 1: two-projection counterexample, minmax == 1 and maxmin == 0 exactly",
        ok,
        f"minmax={result.minmax!r} maxmin={result.maxmin!r} in {elapsed:.3f}s",
    )


def test_criterion_2_equality_sweep(sweep):
    solved, elapsed = sweep
    worst = max(abs(r.gap) for _, _, r in solved)
    ok = len(solved) == SWEEP_PAIRS and worst <= 1e-9 and elapsed < 30.0
    report(
        "criterion 2: minimax equality on 100 random positive IRU pairs",
        ok,
        f"max |gap| = {worst:.2e}, solved in {elapsed:.2f}s",
    )


def test_criterion_3_certificate_soundness(sweep):
    solved, _ = sweep
    worst_residual = np.inf
    all_valid = True
    all_hull_ok = True
    for index, (a_set, b_set, result) in enumerate(solved):
        cert = certify_saddle(result, a_set, b_set)
        worst_residual = min(worst_residual, cert.a_residual, cert.b_residual)
        all_valid &= cert.valid and cert.a_residual >= -1e-10 and cert.b_residual >= -1e-10
        all_hull_ok &= check_saddle_hull_samples(
            result, a_set, b_set, n=200, seed=SWEEP_SEED + index, tol=1e-9
        )
    ok = all_valid and all_hull_ok
    report(
        "criterion 3: certificates valid with residuals >= -1e-10, 200 hull samples per pair",
        ok,
        f"worst residual = {worst_residual:.2e}",
    )


def test_criterion_4_hourglass_alternative():
    rng = np.random.default_rng(SWEEP_SEED + 1)
    iru_ok = True
    for trial in range(50):
        n, m = (int(x) for x in rng.integers(2, 4, size=2))
        mset = random_iru_set(rng, n, m, max_rows_per_set=3)
        # An IRU set passes by the row-swap argument; its enumeration still
        # runs the sampled check on every member.
        iru_ok &= check_hset_sampled(mset, n_probes=50, rng_seed=trial).passed
        members = FiniteSet(listed(mset))
        iru_ok &= check_hset_sampled(members, n_probes=50, rng_seed=trial).passed

    algebra_ok = True
    for trial in range(20):
        n, m, q = (int(x) for x in rng.integers(2, 4, size=3))
        a_set = random_iru_set(rng, n, m, max_rows_per_set=2)
        if trial % 2:
            combined = Sum(a_set, random_iru_set(rng, n, m, 2))
        else:
            combined = Product(a_set, random_iru_set(rng, m, q, 2))
        algebra_ok &= check_hset_sampled(combined, n_probes=50, rng_seed=trial).passed

    outcome = check_hset_sampled(ex4_set(), n_probes=50, rng_seed=0)
    counterexample_ok = (
        not outcome.passed
        and len(outcome.failures) > 0
        and not outcome.failures[0].holds
        and outcome.failures[0].probe_matrix.shape == (2, 2)
    )
    ok = iru_ok and algebra_ok and counterexample_ok
    report(
        "criterion 4: alternative holds on 50 IRU sets and 20 Minkowski closures, fails on the counterexample",
        ok,
        f"counterexample failures = {len(outcome.failures)}",
    )


def test_criterion_5_weak_duality():
    rng = np.random.default_rng(SWEEP_SEED + 2)
    worst = np.inf
    for _ in range(500):
        n, m = (int(x) for x in rng.integers(1, 4, size=2))
        a_set = random_finite_set(rng, n, m, int(rng.integers(1, 5)), zero_prob=0.25)
        b_set = random_finite_set(rng, m, n, int(rng.integers(1, 5)), zero_prob=0.25)
        table = minimax_table(a_set, b_set)
        worst = min(worst, float(table.max(axis=1).min() - table.min(axis=0).max()))
    ok = worst >= -1e-12
    report(
        "criterion 5: min-max >= max-min on 500 random enumerable pairs",
        ok,
        f"smallest gap = {worst:.2e}",
    )


def test_criterion_6_spectral_kernel():
    rng = np.random.default_rng(SWEEP_SEED + 3)

    closed_form_ok = True
    for _ in range(1000):
        entries = rng.uniform(0.0, 1.0, size=(2, 2))
        out = spectral_radius(Matrix(entries))
        closed_form_ok &= out.converged and abs(
            out.rho - rho_2x2_closed_form(entries)
        ) <= 1e-9

    bracket_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        mat = Matrix(rng.uniform(0.01, 1.0, size=(n, n)))
        u = 10.0 ** rng.uniform(-2.0, 2.0, size=n)
        out = spectral_radius(mat)
        bracket_ok &= out.converged
        bracket_ok &= collatz_wielandt_lower(mat, u) <= out.rho + 1e-9
        bracket_ok &= out.rho <= collatz_wielandt_upper(mat, u) + 1e-9

    commute_ok = True
    for _ in range(500):
        n, m = (int(x) for x in rng.integers(1, 5, size=2))
        a = rng.uniform(0.01, 1.0, size=(n, m))
        b = rng.uniform(0.01, 1.0, size=(m, n))
        rho_ab = spectral_radius(Matrix(a @ b)).rho
        rho_ba = spectral_radius(Matrix(b @ a)).rho
        commute_ok &= abs(rho_ab - rho_ba) <= 1e-9

    ok = closed_form_ok and bracket_ok and commute_ok
    report(
        "criterion 6: 2x2 closed form, Collatz-Wielandt brackets, product commutation",
        ok,
        f"closed_form={closed_form_ok} bracket={bracket_ok} commute={commute_ok}",
    )


def test_criterion_7_hausdorff_axioms():
    rng = np.random.default_rng(SWEEP_SEED + 4)
    ok = True
    for _ in range(200):
        n, m = (int(x) for x in rng.integers(1, 4, size=2))
        a = random_finite_set(rng, n, m, int(rng.integers(1, 6)))
        b = random_finite_set(rng, n, m, int(rng.integers(1, 6)))
        c = random_finite_set(rng, n, m, int(rng.integers(1, 6)))
        dab = hausdorff_distance(a, b)
        dba = hausdorff_distance(b, a)
        ok &= abs(dab - dba) <= 1e-12
        ok &= hausdorff_distance(a, a) <= 1e-12
        ok &= dab <= hausdorff_distance(a, c) + hausdorff_distance(c, b) + 1e-12
    report("criterion 7: Hausdorff symmetry, identity, triangle inequality", ok)
