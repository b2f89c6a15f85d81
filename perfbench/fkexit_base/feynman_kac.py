"""Monte Carlo estimation of exit-time functionals.

``estimate_v`` targets the discounted functional

    F = integral_0^zeta exp(-lam s) l(X_s) ds + exp(-lam zeta) g(X_zeta)

stopped at the first exit from the closed domain (``exit_rule`` switches to
the open-set hitting time or the entrance time; all three coincide under the
exit-coincidence condition but differ at irregular boundary points, so no
rule is privileged).  Truncated trajectories keep their running integral and
drop the terminal payoff, which bounds the truncation bias by
exp(-lam horizon) (|g| + |l|/lam); the default horizon 20/lam makes that
negligible against Monte Carlo noise.

Means are plain numpy pairwise sums over trajectory order, and trajectories
are chunked by the fixed engine chunk size, so a (seed, n) pair determines
every estimate bit-for-bit at any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import run_batch
from .errors import DegenerateP, FkexitError, InvalidStart
from .functions import ExpDistance, PathSpaceCost, SpatialCost, TimeScaledCost, sup_on_box
from .geometry import Cylinder, Domain
from .levy import ProcessSpec, lift_time
from .rng import as_stream, derive_seed

DEFAULT_HORIZON_DISCOUNTS = 20.0


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo output contract: mean, sampling error, and provenance."""

    mean: float
    std_error: float
    n: int
    seed: int
    truncated_fraction: float = 0.0

    def within(self, value, k=3.0, extra=0.0):
        """|mean - value| <= k * std_error + extra."""
        return abs(self.mean - value) <= k * self.std_error + extra


@dataclass(frozen=True)
class DirichletProblem:
    """Domain, running cost, boundary data on the whole complement, discount.

    The boundary data is consumed on all of the domain's complement: a jump
    exit lands anywhere outside, and g is evaluated at the landing point.
    """

    domain: Domain
    running_cost: object
    boundary_data: object
    discount: float

    def __post_init__(self):
        if self.discount <= 0:
            raise ValueError("discount must be positive")

    def horizon(self):
        return DEFAULT_HORIZON_DISCOUNTS / self.discount


def _effective_seed(rng):
    stream = as_stream(rng)
    if stream.stream_id == 0:
        return stream.seed
    return derive_seed(stream.seed, stream.stream_id)


def _exact_estimate(value, n, seed):
    return MCEstimate(float(value), 0.0, n, seed, 0.0)


def _summarize(values, n, seed, truncated):
    mean = float(np.sum(values) / n)
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MCEstimate(mean, se, n, seed, float(np.mean(truncated)))


def estimate_v(problem: DirichletProblem, spec: ProcessSpec, x0, h, n, rng,
               horizon=None, exit_rule="closure", workers=1, check_bound=True) -> MCEstimate:
    """Feynman-Kac value at x0 from n simulated exits.

    A start outside the closed domain exits immediately, so the estimate is
    exactly g(x0) with zero error.
    """
    seed = _effective_seed(rng)
    x0 = np.atleast_1d(np.asarray(x0, float))
    lam = problem.discount
    g = problem.boundary_data
    if not problem.domain.contains(x0, "closure"):
        return _exact_estimate(g(x0), n, seed)
    if exit_rule == "entrance" and not problem.domain.contains(x0, "open"):
        return _exact_estimate(g(x0), n, seed)
    if horizon is None:
        horizon = problem.horizon()
    stop = "open" if exit_rule in ("open", "entrance") else "closure"
    res = run_batch(spec, problem.domain, x0, h, horizon, n, seed,
                    lam=lam, cost_fn=SpatialCost(problem.running_cost),
                    stop=stop, bridge=True, workers=workers)
    F = res.cost.copy()
    live = ~res.truncated
    if live.any():
        F[live] += np.exp(-lam * res.zeta[live]) * np.asarray(g(res.point[live]), float)
    if check_bound:
        _check_clamp(problem, F)
    return _summarize(F, n, seed, res.truncated)


def _check_clamp(problem, F):
    g_sup = problem.boundary_data.sup_bound() if hasattr(problem.boundary_data, "sup_bound") else None
    if g_sup is None:
        return
    lo, hi = problem.domain.bounding_box()
    ell_sup = sup_on_box(problem.running_cost, lo, hi)
    bound = ell_sup / problem.discount + g_sup
    worst = float(np.max(np.abs(F))) if len(F) else 0.0
    if worst > bound * (1 + 1e-9) + 1e-9:
        raise FkexitError(
            f"internal clamp violated: |F|={worst:.6g} exceeds l_sup/lam + g_sup = {bound:.6g}")


def estimate_discounted_exit(problem: DirichletProblem, spec: ProcessSpec, x0, h, n, rng,
                             horizon=None, workers=1) -> MCEstimate:
    """Mean of exp(-lam zeta); truncated paths contribute the upper bound
    exp(-lam horizon) and are flagged in ``truncated_fraction``."""
    seed = _effective_seed(rng)
    x0 = np.atleast_1d(np.asarray(x0, float))
    lam = problem.discount
    if not problem.domain.contains(x0, "closure"):
        return _exact_estimate(1.0, n, seed)
    if horizon is None:
        horizon = problem.horizon()
    res = run_batch(spec, problem.domain, x0, h, horizon, n, seed,
                    lam=lam, cost_fn=None, bridge=True, workers=workers)
    F = np.exp(-lam * res.zeta)  # exp(-inf) = 0 for truncated rows
    F[res.truncated] = math.exp(-lam * horizon)
    return _summarize(F, n, seed, res.truncated)


def estimate_v_nonstationary(problem: DirichletProblem, spec: ProcessSpec, t, x, h, n, rng,
                             route="direct", workers=1) -> MCEstimate:
    """Undiscounted running cost up to exit-or-terminal time on a cylinder.

    ``route="direct"`` integrates l(s, X_s) along the time-extended state with
    no discounting; ``route="lifted"`` folds the problem into a stationary one
    with cost exp(lam t) l and discount lam, then unwinds the change of
    variables.  Both target the same value and must agree within Monte Carlo
    error; keeping them separate is the cross-check.

    ``truncated_fraction`` reports paths stopped by the terminal lid rather
    than a spatial exit; their contribution is exact (the integral is capped
    at the lid), so it is informational, not an error bound.
    """
    if not isinstance(problem.domain, Cylinder):
        raise InvalidStart("non-stationary estimation needs a cylinder domain")
    seed = _effective_seed(rng)
    cyl = problem.domain
    T = cyl.T
    t = float(t)
    y0 = np.concatenate([[t], np.atleast_1d(np.asarray(x, float))])
    if not cyl.contains(y0, "closure"):
        return _exact_estimate(0.0, n, seed)
    if t >= T:
        return _exact_estimate(0.0, n, seed)
    lifted = lift_time(spec)
    horizon = (T - t) + 2 * h
    if route == "direct":
        res = run_batch(lifted, cyl, y0, h, horizon, n, seed,
                        lam=0.0, cost_fn=PathSpaceCost(problem.running_cost),
                        workers=workers)
        F = res.cost
    elif route == "lifted":
        lam = problem.discount
        res = run_batch(lifted, cyl, y0, h, horizon, n, seed,
                        lam=lam, cost_fn=TimeScaledCost(problem.running_cost, lam),
                        workers=workers)
        F = math.exp(-lam * t) * res.cost
    else:
        raise ValueError(f"unknown route {route!r}")
    capped = res.truncated | (np.nan_to_num(res.point[:, 0], nan=-1.0) >= T - 1e-9)
    mean = float(np.sum(F) / n)
    se = float(np.std(F, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MCEstimate(mean, se, n, seed, float(np.mean(capped)))


@dataclass(frozen=True)
class AttainmentWitness:
    """Outcome of the boundary-attainment separation test at one point."""

    point: np.ndarray
    p: MCEstimate
    g_value: float
    v: MCEstimate
    is_witness: bool


def attainment_witness(problem: DirichletProblem, spec: ProcessSpec, x0, h, n, rng,
                       horizon=None, workers=1) -> AttainmentWitness:
    """Construct boundary data that the value function provably undershoots.

    With p = E[exp(-lam zeta)] strictly inside (0, 1), the profile
    g(x) = exp(-|x - x0|) (sup|l|/lam + 1) / (1 - p) satisfies v(x0) < g(x0),
    exhibiting x0 as a boundary point where the data is not attained.  When p
    is statistically indistinguishable from 0 or 1 the construction is vacuous
    and :class:`DegenerateP` is raised (at an instantly-exiting point p = 1).
    """
    seed = _effective_seed(rng)
    x0 = np.atleast_1d(np.asarray(x0, float))
    p = estimate_discounted_exit(problem, spec, x0, h, n, derive_seed(seed, "exit-moment"),
                                 horizon=horizon, workers=workers)
    if p.mean <= 3 * p.std_error or p.mean >= 1.0 - 3 * p.std_error:
        raise DegenerateP(p.mean, p.std_error)
    lo, hi = problem.domain.bounding_box()
    ell_sup = sup_on_box(problem.running_cost, lo, hi)
    scale = (ell_sup / problem.discount + 1.0) / (1.0 - p.mean)
    g_w = ExpDistance(x0, scale)
    probed = replace(problem, boundary_data=g_w)
    v = estimate_v(probed, spec, x0, h, n, derive_seed(seed, "witness-value"),
                   horizon=horizon, workers=workers)
    return AttainmentWitness(x0, p, float(scale), v, bool(v.mean < scale))


def evaluate_grid(problem, spec, points, h, n, rng, horizon=None, workers=1):
    """estimate_v over a list of points; rows of (coords, mean, se, n, truncated)."""
    seed = _effective_seed(rng)
    rows = []
    for i, x in enumerate(points):
        est = estimate_v(problem, spec, x, h, n, derive_seed(seed, "grid", i),
                         horizon=horizon, workers=workers)
        rows.append((np.atleast_1d(np.asarray(x, float)), est))
    return rows
