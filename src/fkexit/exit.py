"""First-exit sampling and the exit-coincidence estimator.

An :class:`ExitRecord` carries both stopping rules side by side: ``zeta`` is
the first exit from the closed domain, ``zeta_hat`` the first hit of the open
set's complement.  On every record ``zeta_hat <= zeta``; paths that leave by
a large jump land strictly outside and the landing point is kept as the exit
point without refinement, because the boundary data is defined on the whole
complement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import run_batch, run_single
from .errors import InvalidStart
from .feynman_kac import MCEstimate, _proportion
from .geometry import Domain
from .levy import ProcessSpec
from .rng import as_stream, effective_seed


@dataclass(frozen=True)
class ExitRecord:
    """One trajectory's exit data under both stopping rules."""

    zeta: float
    zeta_hat: float
    exit_point: np.ndarray
    exit_point_hat: np.ndarray
    via_jump: bool
    truncated: bool
    steps: int
    horizon: float


def _closure_start(domain, x0):
    """x0 as a float vector, or InvalidStart if it lies outside the closed domain."""
    x0 = np.atleast_1d(np.asarray(x0, float))
    if not domain.contains(x0, "closure"):
        raise InvalidStart(f"x0={x0.tolist()} is outside the closed domain")
    return x0


def sample_exit(spec: ProcessSpec, domain: Domain, x0, h, horizon, rng) -> ExitRecord:
    """Simulate one trajectory from x0 in the closed domain until it exits.

    Deterministic specs are evaluated on their exact flow, so the exit data
    carries no step bias; noisy specs step with h and resolve drift/Brownian
    boundary crossings in closed form within the straddling step.
    """
    x0 = _closure_start(domain, x0)
    res = run_single(spec, domain, x0, h, horizon, as_stream(rng))
    return ExitRecord(
        zeta=float(res.zeta[0]),
        zeta_hat=float(res.zeta_hat[0]),
        exit_point=res.point[0],
        exit_point_hat=res.point_hat[0],
        via_jump=bool(res.via_jump[0]),
        truncated=bool(res.truncated[0]),
        steps=int(res.steps[0]),
        horizon=float(horizon),
    )


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
