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
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .engine import check_run, run_batch
from .errors import (ConfigError, DegenerateP, FkexitError, InvalidStart, check_inputs,
                     check_start)
from .functions import Constant, ExpDistance, SpatialCost, TimeScaledCost, Zero, sup_on_box
from .geometry import Cylinder, Domain
from .levy import ProcessSpec, lift_time
from .rng import derive_seed, effective_seed

DEFAULT_HORIZON_DISCOUNTS = 20.0

# exit_rule -> the engine's stopping rule; the entrance time stops like the open one
EXIT_RULES = {"closure": "closure", "open": "open", "entrance": "open"}

ROUTES = ("direct", "lifted")


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
        if not (math.isfinite(self.discount) and self.discount > 0):
            raise ConfigError(f"discount={self.discount} must be a finite positive rate, e.g. 1.0")

    def horizon(self):
        return DEFAULT_HORIZON_DISCOUNTS / self.discount


def _exact_estimate(value, n, seed):
    return MCEstimate(float(value), 0.0, n, seed, 0.0)


def _summarize(values, n, seed, truncated):
    mean = float(np.sum(values) / n)
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MCEstimate(mean, se, n, seed, float(np.mean(truncated)))


def _proportion(hits, seed, truncated):
    """The share p of paths that hit, with its binomial error sqrt(p (1 - p) / n)."""
    n = len(hits)
    p = float(np.mean(hits))
    return MCEstimate(p, math.sqrt(p * (1 - p) / n), n, seed, float(np.mean(truncated)))


def _warn_truncated(est, horizon):
    """Warn that paths stopped at the horizon before exiting bias the estimate."""
    if est.truncated_fraction > 0:
        warnings.warn(f"truncated_fraction={est.truncated_fraction:.4g}: that share of the "
                      f"paths had not exited by the horizon {horizon:g}, so the estimate is "
                      "biased; pass a longer horizon", RuntimeWarning, stacklevel=3)
    return est


def estimate_v(problem: DirichletProblem, spec: ProcessSpec, x0, h, n, rng,
               horizon=None, exit_rule="closure", workers=1) -> MCEstimate:
    """Feynman-Kac value at x0 from n simulated exits.

    A start outside the closed domain (the open set, for the entrance time)
    exits immediately, so the estimate is exactly g(x0) with zero error.
    """
    check_inputs(h, n)
    if exit_rule not in EXIT_RULES:
        raise ConfigError(f"unknown exit_rule={exit_rule!r}; use one of {tuple(EXIT_RULES)}")
    stop = EXIT_RULES[exit_rule]
    if horizon is None:
        horizon = problem.horizon()
    check_run(horizon, stop)
    seed = effective_seed(rng)
    x0 = check_start(spec, problem.domain, x0)
    if not problem.domain.contains(x0, "open" if exit_rule == "entrance" else "closure"):
        return _exact_estimate(problem.boundary_data(x0), n, seed)
    F, res = _path_values(problem, spec, x0, h, horizon, n, seed, stop, workers)
    _check_clamp(problem, F)
    return _warn_truncated(_summarize(F, n, seed, res.truncated), horizon)


def _path_values(problem, spec, x0, h, horizon, n, seed, stop, workers):
    """Each path's F from x0, and the batch: the running integral, plus e^(-lam zeta) g on exit."""
    lam = problem.discount
    res = run_batch(spec, problem.domain, x0, h, horizon, n, seed,
                    lam=lam, cost_fn=SpatialCost(problem.running_cost),
                    stop=stop, workers=workers)
    F = res.cost.copy()
    live = ~res.truncated
    if live.any():
        g = np.asarray(problem.boundary_data(res.point[live]), float)
        F[live] += np.exp(-lam * res.zeta[live]) * g
    return F, res


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
    check_inputs(h, n)
    if horizon is None:
        horizon = problem.horizon()
    check_run(horizon)
    seed = effective_seed(rng)
    x0 = check_start(spec, problem.domain, x0)
    if not problem.domain.contains(x0, "closure"):
        return _exact_estimate(1.0, n, seed)
    # F = exp(-lam zeta) exactly: a Zero cost runs like no cost, and adds 0.0
    exit_moment = replace(problem, running_cost=Zero(), boundary_data=Constant(1.0))
    F, res = _path_values(exit_moment, spec, x0, h, horizon, n, seed, "closure", workers)
    F[res.truncated] = math.exp(-problem.discount * horizon)
    return _warn_truncated(_summarize(F, n, seed, res.truncated), horizon)


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
    at the lid), so it is informational, not an error bound.  This is the
    one-point case of :func:`estimate_v_nonstationary_grid`.
    """
    return estimate_v_nonstationary_grid(problem, spec, [(t, x)], h, n, rng, route, workers)[0]


def estimate_v_nonstationary_grid(problem: DirichletProblem, spec: ProcessSpec, points, h, n,
                                  rng, route="direct", workers=1) -> list:
    """:func:`estimate_v_nonstationary` at every (t, x) of ``points``, from one batch.

    The starts share the noise of each of the n paths (common random
    numbers), so each estimate keeps the mean and the standard error it has
    alone, while the estimates are correlated across points.  On the direct
    route every t reads min(tau, T - t) of the same paths, so at each x the
    estimates never increase in t.  A start with t >= T or outside the
    closed cylinder has the exact value 0 and never reaches the engine.
    Returns one :class:`MCEstimate` per point, in order.
    """
    if not isinstance(problem.domain, Cylinder):
        raise InvalidStart("non-stationary estimation needs a cylinder domain")
    check_inputs(h, n)
    if route not in ROUTES:
        raise ConfigError(f"unknown route={route!r}; use one of {ROUTES}")
    seed = effective_seed(rng)
    cyl = problem.domain
    T = cyl.T
    starts = []
    for t, x in points:
        t = float(t)
        if not math.isfinite(t):
            raise InvalidStart(f"start time t={t} must be finite")
        starts.append(np.concatenate([[t], check_start(spec, cyl.base, x)]))
    if not starts:
        raise InvalidStart("points holds no start; pass one or more (t, x) pairs")
    ests = [_exact_estimate(0.0, n, seed)] * len(starts)
    live = [i for i, y0 in enumerate(starts) if y0[0] < T and cyl.contains(y0, "closure")]
    if not live:
        return ests
    y0 = np.array([starts[i] for i in live])
    k = len(live)
    lam = 0.0 if route == "direct" else problem.discount
    cost_fn = (SpatialCost(problem.running_cost) if route == "direct"
               else TimeScaledCost(problem.running_cost, lam))
    res = run_batch(lift_time(spec), cyl, y0, h, (T - float(y0[:, 0].min())) + 2 * h, n, seed,
                    lam=lam, cost_fn=cost_fn, workers=workers)
    # e^0 = 1: the direct route's F is its cost
    F = res.cost.reshape(n, k) * np.array([math.exp(-lam * t) for t in y0[:, 0]])
    capped = res.truncated | (np.nan_to_num(res.point[:, 0], nan=-1.0) >= T - 1e-9)
    capped = capped.reshape(n, k)
    for j, i in enumerate(live):
        ests[i] = _summarize(np.ascontiguousarray(F[:, j]), n, seed, capped[:, j])
    return ests


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
    seed = effective_seed(rng)
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
    """estimate_v over a list of points; a list of (coords, MCEstimate) pairs."""
    seed = effective_seed(rng)
    rows = []
    for i, x in enumerate(points):
        est = estimate_v(problem, spec, x, h, n, derive_seed(seed, "grid", i),
                         horizon=horizon, workers=workers)
        rows.append((np.atleast_1d(np.asarray(x, float)), est))
    return rows
