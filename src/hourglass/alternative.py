"""The two-sided image alternative for matrix sets.

Fix a member ``probe`` of a set and a strictly positive vector ``u``, and
look at the images A u of every member A.  The first assertion (h1) holds
when either every image lies weakly above the probe image, or some member's
image lies weakly below it and genuinely differs.  The second (h2) is the
mirror statement with above and below exchanged.  When both assertions hold
at every probe pair, products drawn from the set are guaranteed a
spectral-radius saddle point, so this module is the stress-testing surface
for that hypothesis.

The universal quantifier over u cannot be checked exactly in general; the
sampled check below draws reproducible random probe vectors instead.  A
reported failure is conclusive, a pass is evidence.  An IRU set is the
exception: it satisfies the alternative at every probe pair, so it passes
without being enumerated (see :func:`check_hset_sampled`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import COMPARISON_TOL, Matrix, as_vector, readonly
from .sets import DEFAULT_CAP, IRUSet, MatrixSet


@dataclass(frozen=True, eq=False)
class BranchReport:
    """One half of the alternative at a probe pair.

    ``all_on_side`` is True when every member image lies weakly on the
    branch's side of the probe image (above for h1, below for h2).
    Otherwise ``witness`` is a read-only copy of a member whose image lies
    weakly on the opposite side and differs from the probe image, or None
    when no such member exists.
    """

    all_on_side: bool
    witness: np.ndarray | None

    @property
    def satisfied(self) -> bool:
        return self.all_on_side or self.witness is not None


@dataclass(frozen=True, eq=False)
class HourglassReport:
    """Outcome of the alternative at one (probe matrix, probe vector) pair;
    ``probe_matrix`` is a read-only copy of the probed member.
    """

    probe_matrix: np.ndarray
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


def _check_tol(tol: float) -> None:
    if not tol >= 0:
        raise ValueError("tolerance must be >= 0")


def _evaluate(
    members: np.ndarray, t: int, us: np.ndarray, tol: float
) -> tuple[np.ndarray, Callable[[int], HourglassReport]]:
    """Whether the alternative holds at member ``t`` and each ``us[p]``, and
    a builder of the report at p; witnesses are the earliest members.
    """
    images = np.einsum("knm,pm->pkn", members, us)
    probe = images[:, t : t + 1]
    above = (images >= probe - tol).all(axis=2)
    below = (images <= probe + tol).all(axis=2)
    differs = np.abs(images - probe).max(axis=2) > tol
    all_above, all_below = above.all(axis=1), below.all(axis=1)
    lower, upper = below & differs, above & differs
    holds = (all_above | lower.any(axis=1)) & (all_below | upper.any(axis=1))

    def witness(mask: np.ndarray) -> np.ndarray | None:
        return readonly(members[mask.argmax()].copy()) if mask.any() else None

    def report(p: int) -> HourglassReport:
        return HourglassReport(
            probe_matrix=readonly(members[t].copy()),
            probe_vector=readonly(np.array(us[p])),
            h1=BranchReport(bool(all_above[p]), witness(lower[p])),
            h2=BranchReport(bool(all_below[p]), witness(upper[p])),
        )

    return holds, report


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
    deviates by more than ``tol``; ``tol`` must be >= 0.
    """
    _check_tol(tol)
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
    _, report = _evaluate(members, probe_index, u[None, :], tol)
    return report(0)


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
    ``tol`` must be >= 0.

    An IRU set passes at once, without enumeration, draws or the cap,
    because it satisfies both assertions at every probe and every u > 0.
    The image of a member is ``(A u)_i = r_i . u``, where row r_i comes
    from row set i independently of the other rows.  Let p be the probe.
    If some row r of row set i has ``r . u < p_i . u - tol``, swap it into
    p: the image of that member is lower than p's at i by more than
    ``tol`` and equal at every other entry, so it is a witness for h1.
    Otherwise every image is at least p's image minus ``tol`` in every
    entry, so every image lies on the h1 side.  h2 follows by symmetry.
    The argument is over exact arithmetic; the enumerated comparisons could
    disagree only on a rounding tie at the edge of the ``tol`` band.
    Minkowski nodes of IRU sets are not IRU sets and take the sampled path.
    """
    _check_tol(tol)
    if isinstance(mset, IRUSet):
        return HsetCheckResult(passed=True, failures=())
    members = mset.stack(cap)
    count, _, n_cols = members.shape
    rng = np.random.default_rng(rng_seed)
    failures: list[HourglassReport] = []
    for t in range(count):
        us = 10.0 ** rng.uniform(-2.0, 2.0, size=(n_probes, n_cols))
        holds, report = _evaluate(members, t, us, tol)
        failures.extend(report(p) for p in np.flatnonzero(~holds))
    return HsetCheckResult(passed=not failures, failures=tuple(failures))
