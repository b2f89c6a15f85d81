"""Estimators that compare the two stopping rules on one batch of exits.

Every :func:`~fkexit.engine.run_batch` row carries both rules side by side:
``zeta`` is the first exit from the closed domain, ``zeta_hat`` the first hit
of the open set's complement, and ``zeta_hat <= zeta`` on every row.  Paths
that leave by a large jump land strictly outside, and the landing point is
kept as the exit point without refinement, because the boundary data is
defined on the whole complement.
"""

from __future__ import annotations

import numpy as np

from .engine import run_batch
from .errors import InvalidStart
from .feynman_kac import MCEstimate, _proportion
from .geometry import Domain
from .levy import ProcessSpec
from .rng import effective_seed


def _closure_start(domain, x0):
    """x0 as a float vector, or InvalidStart if it lies outside the closed domain."""
    x0 = np.atleast_1d(np.asarray(x0, float))
    if not domain.contains(x0, "closure"):
        raise InvalidStart(f"x0={x0.tolist()} is outside the closed domain")
    return x0


def exit_coincidence(spec: ProcessSpec, domain: Domain, x0, h, horizon, n, rng,
                     workers=1) -> MCEstimate:
    """Fraction of trajectories leaving the open set and its closure together.

    Coincidence is judged at skeleton resolution: |zeta - zeta_hat| <= h (the
    comparison is exact for deterministic flows, whose exit times carry no
    step error).  Binomial standard error; truncation propagates through
    ``truncated_fraction``.
    """
    seed = effective_seed(rng)
    x0 = _closure_start(domain, x0)
    res = run_batch(spec, domain, x0, h, horizon, n, seed, workers=workers)
    both = np.isfinite(res.zeta) & np.isfinite(res.zeta_hat)
    return _proportion(both & (np.abs(res.zeta - res.zeta_hat) <= h), seed, res.truncated)


def exit_point_avoidance(spec: ProcessSpec, domain: Domain, x0, region: Domain,
                         h, horizon, n, rng, workers=1) -> MCEstimate:
    """Estimate P(open-set exit point lands in the closure of ``region``).

    This is the testable side of the neighborhood hypothesis for irregular
    boundary sets: a valid neighborhood is one this probability vanishes on
    for every start in the closed domain.  A start outside it raises
    :class:`InvalidStart`, as in :func:`exit_coincidence`.
    """
    seed = effective_seed(rng)
    x0 = _closure_start(domain, x0)
    res = run_batch(spec, domain, x0, h, horizon, n, seed, stop="open", workers=workers)
    ok = np.isfinite(res.zeta)
    hits = np.zeros(n, dtype=bool)
    if ok.any():
        hits[ok] = region.contains(res.point[ok], "closure")
    return _proportion(hits, seed, res.truncated)
