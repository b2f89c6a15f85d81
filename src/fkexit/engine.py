"""Vectorized first-exit simulation shared by every Monte Carlo estimator.

Trajectories are simulated in fixed-size chunks of :data:`CHUNK_SIZE`; chunk c
draws from the Philox stream (seed, c).  The chunk size is part of the seed
contract: results are bit-identical for any worker count because workers only
split over chunks, never inside one.

One driver advances a chunk in blocks of Euler steps, whose knots
:func:`~fkexit.levy.euler_block` builds and whose lengths
:func:`~fkexit.levy.block_steps` sets: 16 steps first, doubling per block up
to a cap that grows as rows exit, so a path that exits at step 1 draws 16
steps, not 128.  The noisy branch of ``simulate_path`` advances through the
same schedule for one row, so a single trajectory matches its skeleton knot
for knot.
Within a step, drift/Brownian segments are treated as linear and their
boundary crossing is the earliest closed-form crossing over the domain's
faces (``Domain.faces()``; the engine keeps no shape geometry); an optional
Brownian-bridge test on axis-aligned boxes catches crossings that both
endpoints miss.  Stable steps are never refined: a jump is the exit itself,
and its landing point is the exit point (boundary data lives on the whole
complement).  Paths stopped by the horizon keep their running cost integral
and are flagged truncated.

A running cost that is a named constant (:class:`~fkexit.functions.Constant`
behind :class:`~fkexit.functions.SpatialCost`) is integrated in closed form,
c (1 - exp(-lam t)) / lam up to the stop time t, instead of step by step; the
simulated paths and their random draws are the same either way.

Deterministic specs short-circuit to a single exact trajectory evaluated with
the path operators and Gauss quadrature of the running cost.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, InvalidStart, InvalidStep
from .functions import Constant, SpatialCost
from .geometry import Box, Cylinder, Domain
from .levy import (BrownianNoise, ProcessSpec, StableNoise, block_steps, euler_block,
                   simulate_path)
from .paths import evaluate, exit_time
from .rng import RngStream

CHUNK_SIZE = 8192

_GAUSS_NODES = 96


@dataclass
class BatchResult:
    """Per-trajectory exit data; ``cost`` is the running integral up to the stop."""

    zeta: np.ndarray
    zeta_hat: np.ndarray
    point: np.ndarray
    point_hat: np.ndarray
    via_jump: np.ndarray
    truncated: np.ndarray
    steps: np.ndarray
    cost: np.ndarray

    @property
    def n(self):
        return len(self.zeta)

    def concat(self, other):
        return BatchResult(*[np.concatenate([getattr(self, f), getattr(other, f)])
                             for f in ("zeta", "zeta_hat", "point", "point_hat",
                                       "via_jump", "truncated", "steps", "cost")])


# ---------------------------------------------------------------------------
# Closed-form crossing of a linear segment.


def segment_crossing(domain: Domain, a, b):
    """(s, x): first face-crossing fraction of segments a->b and the snapped point.

    Requires each b to lie outside the open set (it may sit on a face) and
    each a in the closure; for the convex shapes here the earliest crossing
    over ``domain.faces()`` is then the exit.  Ties go to the earlier face.
    """
    faces = domain.faces()
    if faces is None:  # membership-only domains: no closed form, exit at the step end
        return np.ones(len(a)), b.copy()
    s, x = faces[0].segment_crossing(a, b)
    for face in faces[1:]:
        sf, xf = face.segment_crossing(a, b)
        better = sf < s
        s[better] = sf[better]
        x[better] = xf[better]
    return s, x


# 1/(k+2)! for k = 0..16: the series of (e^x - 1 - x)/x^2, cut below 1e-17 for |x| < 1
_PHI2_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(17))


def _trap_weights(dt, lam):
    """Weights (w0, w1) with integral = w0 l0 + w1 (l1 - l0), discount at t0 excluded.

    With x = lam dt, w0 = -expm1(-x)/lam and w1 = dt (1 - e^-x (1 + x))/x^2, the
    latter as dt e^-x times the series of (e^x - 1 - x)/x^2 below |x| = 1.
    """
    if lam == 0.0:
        return dt, 0.5 * dt
    x = lam * dt
    small = abs(x) < 1.0
    series = 0.0
    for c in reversed(_PHI2_SERIES):
        series = series * x + c
    xl = np.where(small, 1.0, x)
    w1 = dt * np.where(small, np.exp(-x) * series, (1.0 - np.exp(-xl) * (1.0 + xl)) / (xl * xl))
    return -np.expm1(-x) / lam, w1


def _disc_trapezoid(l0, l1, t0, dt, lam):
    """Integral of exp(-lam (t0+u)) * linear interpolant of (l0, l1) over [0, dt]."""
    w0, w1 = _trap_weights(dt, lam)
    disc = np.exp(-lam * t0) if lam != 0.0 else 1.0
    return disc * (l0 * w0 + (l1 - l0) * w1)


# ---------------------------------------------------------------------------
# Stochastic chunk simulation.
#
# One driver advances the live rows of a chunk one block at a time, block k
# holding ``levy.block_steps(k, live rows, steps left)`` steps:
# ``levy.euler_block`` builds the block's knots, then the driver finds each
# row's first step out of the domain and resolves the exit within it.


def _constant_cost(cost_fn):
    """The value c of a running cost that is constant in time and space, else None."""
    if isinstance(cost_fn, SpatialCost) and isinstance(cost_fn.fn, Constant):
        return float(cost_fn.fn.value)
    return None


def _run_chunk(spec, domain, x0, h, n_steps, gen, m, lam, cost_fn, stop, bridge):
    c = _constant_cost(cost_fn)
    if c is not None:
        cost_fn = None
    res = _run_blocks(spec, domain, x0, h, n_steps, gen, m, lam, cost_fn, stop, bridge)
    if c is not None:
        # integral of c exp(-lam s) over [0, t_stop], t_stop the exit or the horizon
        t_stop = np.where(res.truncated, res.steps * h, res.zeta)
        res.cost = c * (-np.expm1(-lam * t_stop)) / lam if lam != 0.0 else c * t_stop
    return res


def _member_block(domain, X, mode):
    """Membership of knots X[:, 1:] as an (na, nb) mask, avoiding reshapes."""
    if isinstance(domain, Box):
        K = X[:, 1:]
        if mode == "open":
            ok = (K[:, :, 0] > domain.lo[0]) & (K[:, :, 0] < domain.hi[0])
            for i in range(1, K.shape[2]):
                ok &= (K[:, :, i] > domain.lo[i]) & (K[:, :, i] < domain.hi[i])
        else:
            ok = (K[:, :, 0] >= domain.lo[0]) & (K[:, :, 0] <= domain.hi[0])
            for i in range(1, K.shape[2]):
                ok &= (K[:, :, i] >= domain.lo[i]) & (K[:, :, i] <= domain.hi[i])
        return ok
    na, nbp, d = X.shape
    flat = X[:, 1:].reshape(-1, d)
    return domain.contains(flat, mode).reshape(na, nbp - 1)


def _first_outside(inside):
    """Per row of an (na, nb) membership mask, the first step outside, or nb."""
    first = inside.argmin(axis=1)
    first[inside[np.arange(len(first)), first]] = inside.shape[1]
    return first


def _bridge_scan(X, domain, half_var, gen, exit_step, bridge_exit, face_axis, face_val):
    """Brownian-bridge face crossings of the block's steps, in place on the row arrays.

    Step j of a row bridges a face at distances d0, d1 from its knots with
    probability exp(-d0 d1 / half_var), i.e. when z = d0 d1 / half_var < e
    for e ~ Exp(1).  Exponentials are drawn, in C order over (row, step),
    only for the candidates z < 45 (miss probability < 3e-20), one face after
    the other; a row's first firing step before its exit step becomes its
    exit step.
    """
    na, nbp, d = X.shape
    nb = nbp - 1
    knots = X.reshape(-1, d)  # step j of row r starts at knot r (nb + 1) + j
    # z < 45 needs a knot within sqrt(45 half_var) of the face or beyond it
    # (both distances exceed the smaller one, or their signs differ); the
    # margins cover rounding, so the knot test keeps every candidate
    reach = math.sqrt(45.0 * half_var) * (1.0 + 1e-9)
    for i in range(d):
        lo, hi = domain.lo[i], domain.hi[i]
        for face, near in ((lo, X[:, :, i] < lo + reach + 4.0 * np.spacing(abs(lo) + reach)),
                           (hi, X[:, :, i] > hi - reach - 4.0 * np.spacing(abs(hi) + reach))):
            step = np.flatnonzero(near[:, :-1] | near[:, 1:])
            k = step + step // nb
            z = (knots[k, i] - face) * (knots[k + 1, i] - face) / half_var
            cand = z < 45.0
            ncand = int(np.count_nonzero(cand))
            if not ncand:
                continue
            step = step[cand][z[cand] < gen.standard_exponential(ncand)]
            # steps ascend, so each row's first entry is its earliest firing step
            rows, first = np.unique(step // nb, return_index=True)
            j = step[first] - rows * nb
            better = j < exit_step[rows]
            rows, j = rows[better], j[better]
            exit_step[rows] = j
            bridge_exit[rows] = True
            face_axis[rows] = i
            face_val[rows] = face


def _run_blocks(spec, domain, x0, h, n_steps, gen, m, lam, cost_fn, stop, bridge):
    d = spec.d
    pos = np.tile(np.asarray(x0, float), (m, 1))
    idx = np.arange(m)
    zeta = np.full(m, np.inf)
    zhat = np.full(m, np.inf)
    pt = np.full((m, d), np.nan)
    pt_hat = np.full((m, d), np.nan)
    via = np.zeros(m, bool)
    steps = np.zeros(m, dtype=int)
    cost = np.zeros(m)
    open_found = np.zeros(m, bool)

    stable = isinstance(spec.noise, StableNoise) and spec.noise.sigma > 0
    stop_mode = "open" if stop == "open" else "closure"
    use_bridge = (bridge and isinstance(domain, Box)
                  and isinstance(spec.noise, BrownianNoise) and spec.noise.eps > 0
                  and spec.noise_offset == 0)
    # the clock coordinate is deterministic, so a stable path's lid crossing
    # is refined exactly; its spatial crossings stay knot-level
    lid_refine = stable and isinstance(domain, Cylinder) and spec.noise_offset >= 1

    k0 = k = 0
    while idx.size and k0 < n_steps:
        na = idx.size
        nb = block_steps(k, na, n_steps - k0)
        X, jmask = euler_block(spec, pos, h, gen, nb)

        exit_step = _first_outside(_member_block(domain, X, stop_mode))
        bridge_exit = np.zeros(na, bool)
        bridge_face_axis = np.zeros(na, dtype=int)
        bridge_face_val = np.zeros(na)
        if use_bridge:
            _bridge_scan(X, domain, 0.5 * spec.noise.eps ** 2 * h, gen,
                         exit_step, bridge_exit, bridge_face_axis, bridge_face_val)

        exited = exit_step < nb
        rows = np.nonzero(exited)[0]
        tau = np.full(na, np.inf)
        xex = np.empty((na, d))
        jump_exit = np.zeros(na, bool)
        if rows.size:
            je = exit_step[rows]
            a = X[rows, je]
            b = X[rows, je + 1]
            if stable:
                tau[rows] = (k0 + je + 1.0) * h
                xex[rows] = b
                jump_exit[rows] = jmask[rows, je] & ~bridge_exit[rows]
                if lid_refine:
                    lid = b[:, 0] > domain.T
                    if lid.any():
                        r2 = rows[lid]
                        sT = (domain.T - a[lid, 0]) / h
                        xl = a[lid] + spec.drift(a[lid]) * h * sT[:, None]
                        xl[:, 0] = domain.T
                        tau[r2] = (k0 + je[lid] + sT) * h
                        xex[r2] = xl
                        jump_exit[r2] = False
            else:
                on_bridge = bridge_exit[rows]
                kn, br = rows[~on_bridge], rows[on_bridge]
                if kn.size:
                    s, xc = segment_crossing(domain, a[~on_bridge], b[~on_bridge])
                    tau[kn] = (k0 + je[~on_bridge] + s) * h
                    xex[kn] = xc
                if br.size:
                    tau[br] = (k0 + je[on_bridge] + 0.5) * h
                    mid = 0.5 * (a[on_bridge] + b[on_bridge])
                    mid[np.arange(br.size), bridge_face_axis[br]] = bridge_face_val[br]
                    xex[br] = mid

        if stop == "closure":
            nf = ~open_found[idx]
            # a knot can sit in the closure but outside the open set only for
            # jump dynamics or on a cylinder lid; Brownian segments in a convex
            # domain touch the boundary exactly when they cross it
            if stable or isinstance(domain, Cylinder):
                first_open = _first_outside(_member_block(domain, X, "open"))
            else:
                first_open = np.full(na, nb)
            touch = nf & (first_open < exit_step)
            if touch.any():
                g = idx[touch]
                jo = first_open[touch]
                zhat[g] = (k0 + jo + 1.0) * h
                pt_hat[g] = X[touch, jo + 1]
                open_found[g] = True
            sync = nf & exited & (first_open >= exit_step)
            if sync.any():
                g = idx[sync]
                zhat[g] = tau[sync]
                pt_hat[g] = xex[sync]
                open_found[g] = True

        if cost_fn is not None:
            lv = np.asarray(cost_fn(X), float)
            w0, w1 = _trap_weights(h, lam)
            contrib = lv[:, :-1] * w0 + (lv[:, 1:] - lv[:, :-1]) * w1
            if lam != 0.0:
                contrib *= np.exp(-lam * (k0 + np.arange(nb)) * h)[None, :]
            contrib *= np.arange(nb)[None, :] < exit_step[:, None]
            cost[idx] += contrib.sum(axis=1)
            if rows.size:
                je = exit_step[rows]
                t_e = (k0 + je) * h
                dt_e = tau[rows] - t_e
                l0 = np.asarray(cost_fn(X[rows, je]), float)
                l1 = np.asarray(cost_fn(xex[rows]), float)
                cost[idx[rows]] += _disc_trapezoid(l0, l1, t_e, dt_e, lam)

        if rows.size:
            g = idx[rows]
            zeta[g] = tau[rows]
            pt[g] = xex[rows]
            via[g] = jump_exit[rows]
            steps[g] = k0 + exit_step[rows] + 1
            if stop == "open":
                zhat[g] = tau[rows]
                pt_hat[g] = xex[rows]
        keep = ~exited
        idx = idx[keep]
        pos = X[keep, nb]
        k0 += nb
        k += 1

    truncated = np.isinf(zeta)
    steps[truncated] = n_steps
    return BatchResult(zeta, zhat, pt, pt_hat, via, truncated, steps, cost)


# ---------------------------------------------------------------------------
# Deterministic short-circuit.


def _deterministic_result(spec, domain, x0, h, horizon, lam, cost_fn, stop):
    path = simulate_path(spec, x0, h, horizon, RngStream(0, 0))
    mode = "open-hit" if stop == "open" else "closure-hit"
    z = exit_time(path, domain, mode)
    zh = exit_time(path, domain, "open-hit")
    truncated = not (z < horizon + 1e-12)
    t_stop = min(z, horizon)
    c = _quadrature_cost(path, cost_fn, lam, t_stop) if cost_fn else 0.0
    point = evaluate(path, z) if not truncated else np.full(spec.d, np.nan)
    point_hat = evaluate(path, zh) if zh < math.inf else np.full(spec.d, np.nan)
    zeta = z if not truncated else math.inf
    return dict(zeta=zeta, zeta_hat=zh, point=point, point_hat=point_hat,
                truncated=truncated, cost=c, steps=int(math.ceil(t_stop / h)))


def _quadrature_cost(path, cost_fn, lam, t_stop):
    if t_stop <= 0:
        return 0.0
    if path.kind == "flow":
        nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_NODES)
        t = 0.5 * t_stop * (nodes + 1.0)
        w = 0.5 * t_stop * weights
        vals = cost_fn(path.flow.eval(t))
        return float(np.sum(w * np.exp(-lam * t) * vals))
    from .paths import left_limit

    total = 0.0
    knots = [t for t in path.times if t < t_stop] + [t_stop]
    for t0, t1 in zip(knots[:-1], knots[1:]):
        if t1 <= t0:
            continue
        a = evaluate(path, t0)
        b = left_limit(path, t1)
        l0 = cost_fn(a.reshape(1, -1))[0]
        l1 = cost_fn(b.reshape(1, -1))[0]
        total += float(_disc_trapezoid(l0, l1, t0, t1 - t0, lam))
    return total


# ---------------------------------------------------------------------------
# Public entry points.


STOP_RULES = ("closure", "open")


def check_inputs(h, n=1):
    """Reject a step h that is not finite and positive, or a sample size n below 1."""
    if not (math.isfinite(h) and h > 0):
        raise InvalidStep(f"step h={h} must be a finite positive number, e.g. 1e-3")
    if n < 1:
        raise ValueError(f"sample size n={n} must be a positive integer")


def check_run(horizon, stop="closure"):
    """Reject a horizon that is not finite and positive, or an unknown stopping rule."""
    if not (math.isfinite(horizon) and horizon > 0):
        raise InvalidStep(f"horizon={horizon} must be a finite positive time, e.g. 20.0")
    if stop not in STOP_RULES:
        raise ConfigError(f"unknown stopping rule stop={stop!r}; use one of {STOP_RULES}")


def check_start(spec, domain, x0):
    """x0 as a float vector, after checking it and the spec against the domain."""
    if spec.d != domain.d:
        raise DimensionMismatch(f"the spec has d={spec.d} but the domain d={domain.d}; "
                                "build both in the same dimension")
    x0 = np.atleast_1d(np.asarray(x0, float))
    if x0.shape != (spec.d,):
        raise DimensionMismatch(f"start x0 has shape {x0.shape}; pass {spec.d} coordinates")
    if not np.isfinite(x0).all():
        raise InvalidStart(f"start x0={x0.tolist()} must have finite coordinates")
    return x0


def run_single(spec, domain, x0, h, horizon, stream: RngStream,
               lam=0.0, cost_fn=None, stop="closure", bridge=False):
    """One trajectory, bit-identical to ``simulate_path`` with the same stream."""
    check_inputs(h)
    check_run(horizon, stop)
    x0 = check_start(spec, domain, x0)
    if spec.is_deterministic:
        r = _deterministic_result(spec, domain, x0, h, horizon, lam, cost_fn, stop)
        return _broadcast_result(r, 1, spec.d)
    n_steps = int(math.ceil(horizon / h - 1e-12))
    return _run_chunk(spec, domain, x0, h, n_steps, stream.generator(), 1,
                      lam, cost_fn, stop, bridge)


def _broadcast_result(r, n, d):
    return BatchResult(
        np.full(n, r["zeta"]), np.full(n, r["zeta_hat"]),
        np.tile(r["point"], (n, 1)), np.tile(r["point_hat"], (n, 1)),
        np.zeros(n, bool), np.full(n, r["truncated"]),
        np.full(n, r["steps"]), np.full(n, r["cost"]),
    )


def _chunk_task(args):
    (spec, domain, x0, h, n_steps, seed, chunk_id, m, lam, cost_fn, stop, bridge) = args
    gen = RngStream(seed, chunk_id).generator()
    return _run_chunk(spec, domain, x0, h, n_steps, gen, m, lam, cost_fn, stop, bridge)


def run_batch(spec: ProcessSpec, domain: Domain, x0, h, horizon, n, seed,
              lam=0.0, cost_fn=None, stop="closure", bridge=False,
              workers=1) -> BatchResult:
    """n first-exit trajectories with the fixed chunk/stream contract."""
    check_inputs(h, n)
    check_run(horizon, stop)
    x0 = check_start(spec, domain, x0)
    if spec.is_deterministic:
        r = _deterministic_result(spec, domain, x0, h, horizon, lam, cost_fn, stop)
        return _broadcast_result(r, n, spec.d)
    n_steps = int(math.ceil(horizon / h - 1e-12))
    tasks = []
    done = 0
    cid = 0
    while done < n:
        m = min(CHUNK_SIZE, n - done)
        tasks.append((spec, domain, x0, h, n_steps, seed, cid, m,
                      lam, cost_fn, stop, bridge))
        done += m
        cid += 1
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_chunk_task, tasks))
    else:
        parts = [_chunk_task(t) for t in tasks]
    out = parts[0]
    for p in parts[1:]:
        out = out.concat(p)
    return out
