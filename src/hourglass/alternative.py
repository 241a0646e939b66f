"""The two-sided image alternative for matrix sets.

Fix a member ``probe`` of a set and a strictly positive vector ``u``, and
look at the images A u of every member A.  The first assertion (h1) holds
when either every image lies weakly above the probe image, or some member's
image lies weakly below it and genuinely differs.  The second (h2) is the
mirror statement with above and below exchanged.  When both assertions hold
at every probe pair, products drawn from the set are guaranteed a
spectral-radius saddle point, so this module is the stress-testing surface
for that hypothesis.

The universal quantifier over u cannot be checked exactly; the sampled
check below draws reproducible random probe vectors instead.  A reported
failure is conclusive, a pass is evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import COMPARISON_TOL, Matrix, as_vector, readonly
from .sets import DEFAULT_CAP, MatrixSet


@dataclass(frozen=True, eq=False)
class BranchReport:
    """One half of the alternative at a probe pair.

    ``all_on_side`` is True when every member image lies weakly on the
    branch's side of the probe image (above for h1, below for h2).
    Otherwise ``witness`` is a member whose image lies weakly on the
    opposite side and differs from the probe image, or None when no such
    member exists.
    """

    all_on_side: bool
    witness: Matrix | None

    @property
    def satisfied(self) -> bool:
        return self.all_on_side or self.witness is not None


@dataclass(frozen=True, eq=False)
class HourglassReport:
    """Outcome of the alternative at one (probe matrix, probe vector) pair."""

    probe_matrix: Matrix
    probe_vector: np.ndarray
    h1: BranchReport
    h2: BranchReport

    @property
    def holds(self) -> bool:
        return self.h1.satisfied and self.h2.satisfied


@dataclass(frozen=True, eq=False)
class HsetCheckResult:
    passed: bool
    failures: tuple[HourglassReport, ...]


def _branches_at(
    images: np.ndarray, probe_image: np.ndarray, tol: float
) -> tuple[bool, int | None, bool, int | None]:
    """Evaluate both branches given all member images and the probe image.

    Returns (h1 all-above, h1 witness index, h2 all-below, h2 witness index);
    witness indices are the earliest in enumeration order, or None.
    """
    above = (images >= probe_image - tol).all(axis=1)
    below = (images <= probe_image + tol).all(axis=1)
    differs = np.abs(images - probe_image).max(axis=1) > tol

    def first(mask: np.ndarray) -> int | None:
        hits = np.flatnonzero(mask)
        return int(hits[0]) if hits.size else None

    return (
        bool(above.all()),
        first(below & differs),
        bool(below.all()),
        first(above & differs),
    )


def _report(
    members: np.ndarray,
    probe_index: int,
    u: np.ndarray,
    tol: float,
) -> HourglassReport:
    images = np.einsum("knm,m->kn", members, u)
    all_above, wit_lo, all_below, wit_hi = _branches_at(images, images[probe_index], tol)
    return HourglassReport(
        probe_matrix=Matrix(members[probe_index]),
        probe_vector=readonly(np.array(u)),
        h1=BranchReport(all_above, Matrix(members[wit_lo]) if wit_lo is not None else None),
        h2=BranchReport(all_below, Matrix(members[wit_hi]) if wit_hi is not None else None),
    )


def check_hourglass_at(
    mset: MatrixSet,
    probe: Matrix,
    u,
    tol: float = COMPARISON_TOL,
    cap: int = DEFAULT_CAP,
) -> HourglassReport:
    """Decide both assertions of the alternative at one probe pair.

    ``probe`` must be a member of the set (within ``tol``) and ``u``
    strictly positive.  All inequalities use the shared comparison band:
    weak comparisons are relaxed by ``tol`` and "differs" means some entry
    deviates by more than ``tol``.
    """
    members = mset.stack(cap)
    u = as_vector(u, mset.shape[1], "u")
    if (u <= 0).any():
        raise ValueError("probe vector u must be strictly positive")
    if probe.shape != mset.shape:
        raise ValueError(
            f"probe shape {probe.shape} does not match set shape {mset.shape}"
        )
    gaps = np.abs(members - probe.data).reshape(len(members), -1).max(axis=1)
    probe_index = int(gaps.argmin())
    if gaps[probe_index] > tol:
        raise ValueError("probe matrix is not a member of the set")
    return _report(members, probe_index, u, tol)


def check_hset_sampled(
    mset: MatrixSet,
    n_probes: int,
    rng_seed: int,
    tol: float = COMPARISON_TOL,
    cap: int = DEFAULT_CAP,
) -> HsetCheckResult:
    """Stress-test the alternative over every member and sampled vectors.

    Probe matrices run exhaustively over the enumeration; for each one,
    ``n_probes`` vectors u are drawn with entries log-uniform in
    [1e-2, 1e2].  The same seed reproduces the exact same draws.  The check
    passes when every report holds; all failing reports are returned.
    """
    members = mset.stack(cap)
    count, _, n_cols = members.shape
    rng = np.random.default_rng(rng_seed)
    failures: list[HourglassReport] = []
    for t in range(count):
        us = 10.0 ** rng.uniform(-2.0, 2.0, size=(n_probes, n_cols))
        for u in us:
            images = np.einsum("knm,m->kn", members, u)
            all_above, wit_lo, all_below, wit_hi = _branches_at(images, images[t], tol)
            h1_ok = all_above or wit_lo is not None
            h2_ok = all_below or wit_hi is not None
            if not (h1_ok and h2_ok):
                failures.append(_report(members, t, u, tol))
    return HsetCheckResult(passed=not failures, failures=tuple(failures))
