"""First-exit sampling and the exit-coincidence estimator.

An :class:`ExitRecord` carries both stopping rules side by side: ``zeta`` is
the first exit from the closed domain, ``zeta_hat`` the first hit of the open
set's complement.  On every record ``zeta_hat <= zeta``; paths that leave by
a large jump land strictly outside and the landing point is kept as the exit
point without refinement, because the boundary data is defined on the whole
complement.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .engine import run_batch, run_single
from .errors import InvalidStart
from .feynman_kac import MCEstimate, _effective_seed
from .geometry import Domain
from .levy import ProcessSpec
from .rng import as_stream


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

    def discount_bound(self, lam):
        """Bound on the discount weight a truncated path could still carry."""
        return math.exp(-lam * self.horizon)


def sample_exit(spec: ProcessSpec, domain: Domain, x0, h, horizon, rng) -> ExitRecord:
    """Simulate one trajectory from x0 in the closed domain until it exits.

    Deterministic specs are evaluated on their exact flow, so the exit data
    carries no step bias; noisy specs step with h and resolve drift/Brownian
    boundary crossings in closed form within the straddling step.
    """
    x0 = np.atleast_1d(np.asarray(x0, float))
    if not domain.contains(x0, "closure"):
        raise InvalidStart(f"x0={x0.tolist()} is outside the closed domain")
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
    seed = _effective_seed(rng)
    x0 = np.atleast_1d(np.asarray(x0, float))
    if not domain.contains(x0, "closure"):
        raise InvalidStart(f"x0={x0.tolist()} is outside the closed domain")
    res = run_batch(spec, domain, x0, h, horizon, n, seed, bridge=True, workers=workers)
    both = np.isfinite(res.zeta) & np.isfinite(res.zeta_hat)
    coincide = both & (np.abs(res.zeta - res.zeta_hat) <= h)
    p = float(np.mean(coincide))
    se = math.sqrt(p * (1 - p) / n)
    return MCEstimate(p, se, n, seed, float(np.mean(res.truncated)))


def exit_point_avoidance(spec: ProcessSpec, domain: Domain, x0, region: Domain,
                         h, horizon, n, rng, workers=1) -> MCEstimate:
    """Estimate P(open-set exit point lands in the closure of ``region``).

    This is the testable side of the neighborhood hypothesis for irregular
    boundary sets: a valid neighborhood is one this probability vanishes on
    for every start in the closed domain.
    """
    seed = _effective_seed(rng)
    res = run_batch(spec, domain, np.atleast_1d(np.asarray(x0, float)), h, horizon, n, seed,
                    stop="open", bridge=True, workers=workers)
    ok = np.isfinite(res.zeta)
    hits = np.zeros(n, dtype=bool)
    if ok.any():
        hits[ok] = region.contains(res.point[ok], "closure")
    p = float(np.mean(hits))
    se = math.sqrt(p * (1 - p) / n)
    return MCEstimate(p, se, n, seed, float(np.mean(res.truncated)))


def records_to_csv(records, fileobj):
    """Stream exit records as audit rows."""
    writer = csv.writer(fileobj)
    d = len(records[0].exit_point) if records else 0
    writer.writerow(["zeta", "zeta_hat", "via_jump", "truncated", "steps"]
                    + [f"exit_{i}" for i in range(d)]
                    + [f"exit_hat_{i}" for i in range(d)])
    for r in records:
        writer.writerow([repr(r.zeta), repr(r.zeta_hat), int(r.via_jump), int(r.truncated),
                         r.steps]
                        + [repr(float(v)) for v in np.atleast_1d(r.exit_point)]
                        + [repr(float(v)) for v in np.atleast_1d(r.exit_point_hat)])
