"""Vectorized first-exit simulation shared by every Monte Carlo estimator.

Trajectories are simulated in fixed-size chunks of :data:`CHUNK_SIZE`; chunk c
draws from the Philox stream (seed, c).  The chunk size is part of the seed
contract: results are bit-identical for any worker count because workers only
split over chunks, never inside one.

Within a step, drift/Brownian segments are treated as linear and their
boundary crossing is solved in closed form per shape face; an optional
Brownian-bridge test on axis-aligned boxes catches crossings that both
endpoints miss.  Stable steps are never refined: a jump is the exit itself,
and its landing point is the exit point (boundary data lives on the whole
complement).  Paths stopped by the horizon keep their running cost integral
and are flagged truncated.

Deterministic specs short-circuit to a single exact trajectory evaluated with
the path operators and Gauss quadrature of the running cost.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import Ball, Box, Cylinder, Domain
from .levy import BrownianNoise, ProcessSpec, StableNoise, simulate_path, step_increments
from .paths import evaluate, exit_time
from .rng import RngStream

CHUNK_SIZE = 8192
BLOCK_STEPS = 128

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
# Closed-form crossing of a linear segment, per shape.


def _crossing_box(lo, hi, a, b):
    m = a.shape[0]
    s = np.full(m, np.inf)
    axis = np.zeros(m, dtype=int)
    fval = np.zeros(m)
    rel = b - a
    for i in range(a.shape[1]):
        with np.errstate(divide="ignore", invalid="ignore"):
            for face, mask in ((lo[i], b[:, i] < lo[i]), (hi[i], b[:, i] > hi[i])):
                si = np.where(mask, (face - a[:, i]) / rel[:, i], np.inf)
                better = si < s
                s = np.where(better, si, s)
                axis = np.where(better, i, axis)
                fval = np.where(better, face, fval)
    s = np.where(np.isfinite(s), np.clip(s, 0.0, 1.0), np.inf)
    x = a + np.where(np.isfinite(s), s, 1.0)[:, None] * rel
    x[np.arange(m), axis] = fval
    return s, x


def _crossing_ball(center, radius, a, b):
    rel = b - a
    ca = a - center
    aa = np.einsum("ij,ij->i", rel, rel)
    bb = 2.0 * np.einsum("ij,ij->i", ca, rel)
    cc = np.einsum("ij,ij->i", ca, ca) - radius**2
    disc = np.maximum(bb * bb - 4 * aa * cc, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (-bb + np.sqrt(disc)) / (2 * aa)
    s = np.clip(np.where(np.isfinite(s), s, 1.0), 0.0, 1.0)
    x = a + s[:, None] * rel
    d = x - center
    nrm = np.linalg.norm(d, axis=1, keepdims=True)
    x = center + d * (radius / np.maximum(nrm, 1e-300))
    return s, x


def segment_crossing(domain: Domain, a, b):
    """(s, x): first closure-crossing fraction of segments a->b and the snapped point.

    Requires each b to lie outside the closure; for the convex shapes here
    the segment then crosses exactly once.
    """
    if isinstance(domain, Box):
        return _crossing_box(domain.lo, domain.hi, a, b)
    if isinstance(domain, Ball):
        return _crossing_ball(domain.center, domain.radius, a, b)
    if isinstance(domain, Cylinder):
        s_t, x_t = _crossing_box(np.array([0.0]), np.array([domain.T]), a[:, :1], b[:, :1])
        out_sp = ~domain.base.contains(b[:, 1:], "closure")
        s_sp = np.full(len(a), np.inf)
        x_sp = np.zeros_like(a[:, 1:])
        if out_sp.any():
            s_sp[out_sp], x_sp[out_sp] = segment_crossing(domain.base, a[out_sp, 1:], b[out_sp, 1:])
        s = np.minimum(s_t, s_sp)
        x = a + s[:, None] * (b - a)
        use_t = s_t <= s_sp
        x[use_t, 0] = x_t[use_t, 0]
        if (~use_t).any():
            x[~use_t, 1:] = x_sp[~use_t]
        return s, x
    # membership-only domains: no closed form, exit at the step end
    return np.ones(len(a)), b.copy()


def _trap_weights(dt, lam):
    """Weights (w0, w1) with integral = w0 l0 + w1 (l1 - l0), discount at t0 excluded."""
    if lam == 0.0:
        return dt, 0.5 * dt
    x = lam * dt
    if np.isscalar(x):
        if x < 1e-3:
            return dt * (1 - x / 2 + x * x / 6), dt * (0.5 - x / 3 + x * x / 8)
        return (1 - math.exp(-x)) / lam, (1 - math.exp(-x) * (1 + x)) / (lam * lam * dt)
    small = x < 1e-3
    with np.errstate(divide="ignore", invalid="ignore"):
        w0 = np.where(small, dt * (1 - x / 2 + x * x / 6), (1 - np.exp(-x)) / lam)
        w1 = np.where(small, dt * (0.5 - x / 3 + x * x / 8),
                      (1 - np.exp(-x) * (1 + x)) / (lam * lam * np.where(dt > 0, dt, 1.0)))
    return w0, np.where(dt > 0, w1, 0.0)


def _disc_trapezoid(l0, l1, t0, dt, lam):
    """Integral of exp(-lam (t0+u)) * linear interpolant of (l0, l1) over [0, dt]."""
    w0, w1 = _trap_weights(dt, lam)
    disc = np.exp(-lam * t0) if lam != 0.0 else 1.0
    return disc * (l0 * w0 + (l1 - l0) * w1)


# ---------------------------------------------------------------------------
# Stochastic chunk simulation.
#
# Two in-chunk layouts exist: a per-step loop for state-dependent drift (and
# for single trajectories, where it consumes the stream exactly like
# ``simulate_path``), and a blocked layout for state-independent drift that
# draws BLOCK_STEPS increments at once and scans cumulative sums.  The layout
# choice is a pure function of the spec and the batch size, so it is part of
# the reproducibility contract.


def _state_independent(drift):
    from .levy import ConstantDrift, TimeAugmentedDrift

    if isinstance(drift, ConstantDrift):
        return True
    if isinstance(drift, TimeAugmentedDrift):
        return _state_independent(drift.base)
    return False


def _run_chunk(spec, domain, x0, h, n_steps, gen, m, lam, cost_fn, t_offset, stop, bridge):
    if m > 1 and _state_independent(spec.drift):
        return _run_chunk_blocked(spec, domain, x0, h, n_steps, gen, m,
                                  lam, cost_fn, t_offset, stop, bridge)
    return _run_chunk_loop(spec, domain, x0, h, n_steps, gen, m,
                           lam, cost_fn, t_offset, stop, bridge)


def _run_chunk_loop(spec, domain, x0, h, n_steps, gen, m, lam, cost_fn, t_offset, stop, bridge):
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

    for k in range(n_steps):
        if idx.size == 0:
            break
        t0 = k * h
        na = idx.size
        pre = pos + spec.drift(pos) * h
        incr, jmask = step_increments(spec, h, gen, na)
        new = pre + incr
        if use_bridge:
            u_bridge = gen.uniform(0.0, 1.0, size=(na, 2 * d))

        exited = np.zeros(na, bool)
        tau = np.full(na, np.inf)
        xex = np.empty((na, d))
        jump_exit = np.zeros(na, bool)

        if stable:
            if isinstance(domain, Cylinder) and spec.noise_offset >= 1:
                # the clock coordinate is deterministic, so its lid crossing
                # is refined exactly; spatial crossings stay knot-level
                lid = new[:, 0] > domain.T
                if lid.any():
                    sT = (domain.T - pos[lid, 0]) / h
                    xl = pos[lid] + (pre[lid] - pos[lid]) * sT[:, None]
                    xl[:, 0] = domain.T
                    tau[lid] = t0 + sT * h
                    xex[lid] = xl
                    exited[lid] = True
            out = ~domain.contains(new, stop_mode) & ~exited
            tau[out] = t0 + h
            xex[out] = new[out]
            jump_exit = out & jmask
            exited |= out
        else:
            out = ~domain.contains(new, stop_mode)
            if out.any():
                s, xc = segment_crossing(domain, pos[out], new[out])
                tau[out] = t0 + s * h
                xex[out] = xc
                exited = out.copy()
            if use_bridge:
                surv = ~exited
                if surv.any():
                    crossed, xb = _bridge_crossings(
                        domain, spec.noise.eps, h, pos, new, u_bridge, surv)
                    tau[crossed] = t0 + 0.5 * h
                    xex[crossed] = xb[crossed]
                    exited |= crossed

        # passive open-exit tracking while stopping on the closure
        if stop == "closure":
            touch = ~domain.contains(new, "open") & ~open_found[idx] & ~exited
            if touch.any():
                g = idx[touch]
                zhat[g] = t0 + h
                pt_hat[g] = new[touch]
                open_found[g] = True
            newly = exited & ~open_found[idx]
            if newly.any():
                g = idx[newly]
                zhat[g] = tau[newly]
                pt_hat[g] = xex[newly]
                open_found[g] = True

        if cost_fn is not None:
            l_end = np.where(exited[:, None], xex, new)
            dt = np.where(exited, tau - t0, h)
            l0v = cost_fn(t_offset + t0, pos)
            l1v = cost_fn(t_offset + t0 + dt, l_end)
            cost[idx] += _disc_trapezoid(l0v, l1v, t0, dt, lam)

        if exited.any():
            g = idx[exited]
            zeta[g] = tau[exited]
            pt[g] = xex[exited]
            via[g] = jump_exit[exited]
            steps[g] = k + 1
            if stop == "open":
                zhat[g] = tau[exited]
                pt_hat[g] = xex[exited]
        keep = ~exited
        idx = idx[keep]
        pos = new[keep]

    truncated = np.isinf(zeta)
    steps[truncated] = n_steps
    return BatchResult(zeta, zhat, pt, pt_hat, via, truncated, steps, cost)


def _block_increments(spec, h, gen, na, nb):
    """(na, nb, d) noise increments and (na, nb) jump marks for nb steps."""
    from .levy import JUMP_MARK_FACTOR, sample_one_sided_stable

    d = spec.d
    d_noise = d - spec.noise_offset
    noise = spec.noise
    out = np.zeros((na, nb, d))
    jump = np.zeros((na, nb), dtype=bool)
    if isinstance(noise, BrownianNoise) and noise.eps > 0:
        z = gen.standard_normal((na, nb, d_noise))
        out[:, :, spec.noise_offset:] = noise.eps * math.sqrt(h) * z
    elif isinstance(noise, StableNoise) and noise.sigma > 0:
        t = sample_one_sided_stable(noise.alpha / 2.0, gen, size=na * nb).reshape(na, nb)
        z = gen.standard_normal((na, nb, d_noise))
        xi = np.sqrt(2.0 * t)[:, :, None] * z
        out[:, :, spec.noise_offset:] = noise.sigma * h ** (1.0 / noise.alpha) * xi
        jump = np.linalg.norm(xi, axis=2) > JUMP_MARK_FACTOR
    return out, jump


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


def _run_chunk_blocked(spec, domain, x0, h, n_steps, gen, m, lam, cost_fn, t_offset, stop, bridge):
    d = spec.d
    v = spec.drift(np.zeros((1, d)))[0]
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
    lid_refine = stable and isinstance(domain, Cylinder) and spec.noise_offset >= 1

    k0 = 0
    while idx.size and k0 < n_steps:
        nb = min(BLOCK_STEPS, n_steps - k0)
        na = idx.size
        incr, jmask = _block_increments(spec, h, gen, na, nb)
        incr += v * h
        X = np.empty((na, nb + 1, d))
        X[:, 0] = pos
        np.cumsum(incr, axis=1, out=incr)
        X[:, 1:] = pos[:, None, :] + incr

        out = ~_member_block(domain, X, stop_mode)
        first = np.where(out.any(axis=1), out.argmax(axis=1), nb)

        exit_step = first.copy()
        bridge_exit = np.zeros(na, bool)
        bridge_face_axis = np.zeros(na, dtype=int)
        bridge_face_val = np.zeros(na)
        if use_bridge:
            # a step bridges a face when u < exp(-2 d0 d1 / var), i.e. when
            # {d0 d1 < var e / 2} for e ~ Exp(1); exponentials are drawn only
            # where the event is not hopeless (z < 45, miss prob < 3e-20)
            half_var = 0.5 * spec.noise.eps ** 2 * h
            jgrid = np.arange(nb)[None, :]
            for i in range(d):
                for j, face in enumerate((domain.lo[i], domain.hi[i])):
                    z = (X[:, :-1, i] - face) * (X[:, 1:, i] - face) / half_var
                    cand = z < 45.0
                    fire = np.zeros((na, nb), dtype=bool)
                    ncand = int(np.count_nonzero(cand))
                    if ncand:
                        fire[cand] = z[cand] < gen.standard_exponential(ncand)
                    fire &= jgrid < exit_step[:, None]
                    hasf = fire.any(axis=1)
                    jb = np.where(hasf, fire.argmax(axis=1), nb)
                    better = jb < exit_step
                    exit_step = np.where(better, jb, exit_step)
                    bridge_exit = np.where(better, True, bridge_exit)
                    bridge_face_axis = np.where(better, i, bridge_face_axis)
                    bridge_face_val = np.where(better, face, bridge_face_val)

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
                        sT = (domain.T - X[r2, exit_step[r2], 0]) / h
                        xl = X[r2, exit_step[r2]] + v * h * sT[:, None]
                        xl[:, 0] = domain.T
                        tau[r2] = (k0 + exit_step[r2] + sT) * h
                        xex[r2] = xl
                        jump_exit[r2] = False
            else:
                br = rows[bridge_exit[rows]]
                kn = rows[~bridge_exit[rows]]
                if kn.size:
                    s, xc = segment_crossing(domain, X[kn, exit_step[kn]], X[kn, exit_step[kn] + 1])
                    tau[kn] = (k0 + exit_step[kn] + s) * h
                    xex[kn] = xc
                if br.size:
                    tau[br] = (k0 + exit_step[br] + 0.5) * h
                    mid = 0.5 * (X[br, exit_step[br]] + X[br, exit_step[br] + 1])
                    mid[np.arange(br.size), bridge_face_axis[br]] = bridge_face_val[br]
                    xex[br] = mid

        if stop == "closure":
            nf = ~open_found[idx]
            # a knot can sit in the closure but outside the open set only for
            # jump dynamics or on a cylinder lid; Brownian segments in a convex
            # domain touch the boundary exactly when they cross it
            if stable or isinstance(domain, Cylinder):
                out_open = ~_member_block(domain, X, "open")
                first_open = np.where(out_open.any(axis=1), out_open.argmax(axis=1), nb)
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
            tk = t_offset + (k0 + np.arange(nb + 1)) * h
            lv = np.asarray(cost_fn(tk[None, :], X), float)
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
                l0 = np.asarray(cost_fn(t_offset + t_e, X[rows, je]), float)
                l1 = np.asarray(cost_fn(t_offset + tau[rows], xex[rows]), float)
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

    truncated = np.isinf(zeta)
    steps[truncated] = n_steps
    return BatchResult(zeta, zhat, pt, pt_hat, via, truncated, steps, cost)


def _bridge_crossings(domain, eps, h, pos, new, u, surv):
    """Brownian-bridge face crossings on a box for segments with both ends inside."""
    na, d = pos.shape
    var = eps * eps * h
    crossed = np.zeros(na, bool)
    best_p = np.zeros(na)
    xb = new.copy()
    for i in range(d):
        for j, face in enumerate((domain.lo[i], domain.hi[i])):
            d0 = np.abs(pos[:, i] - face)
            d1 = np.abs(new[:, i] - face)
            p = np.exp(-2.0 * d0 * d1 / var)
            fire = surv & (u[:, 2 * i + j] < p) & (p > best_p)
            if fire.any():
                crossed |= fire
                best_p = np.where(fire, p, best_p)
                xb[fire] = 0.5 * (pos[fire] + new[fire])
                xb[fire, i] = face
    return crossed, xb


# ---------------------------------------------------------------------------
# Deterministic short-circuit.


def _deterministic_result(spec, domain, x0, h, horizon, lam, cost_fn, t_offset, stop):
    path = simulate_path(spec, x0, h, horizon, RngStream(0, 0))
    mode = "open-hit" if stop == "open" else "closure-hit"
    z = exit_time(path, domain, mode)
    zh = exit_time(path, domain, "open-hit")
    truncated = not (z < horizon + 1e-12)
    t_stop = min(z, horizon)
    c = _quadrature_cost(path, cost_fn, lam, t_offset, t_stop) if cost_fn else 0.0
    point = evaluate(path, z) if not truncated else np.full(spec.d, np.nan)
    point_hat = evaluate(path, zh) if zh < math.inf else np.full(spec.d, np.nan)
    zeta = z if not truncated else math.inf
    return dict(zeta=zeta, zeta_hat=zh, point=point, point_hat=point_hat,
                truncated=truncated, cost=c,
                steps=int(math.ceil(t_stop / h)) if h > 0 else 0)


def _quadrature_cost(path, cost_fn, lam, t_offset, t_stop):
    if t_stop <= 0:
        return 0.0
    if path.kind == "flow":
        nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_NODES)
        t = 0.5 * t_stop * (nodes + 1.0)
        w = 0.5 * t_stop * weights
        vals = cost_fn(t_offset + t, path.flow.eval(t))
        return float(np.sum(w * np.exp(-lam * t) * vals))
    from .paths import left_limit

    total = 0.0
    knots = [t for t in path.times if t < t_stop] + [t_stop]
    for t0, t1 in zip(knots[:-1], knots[1:]):
        if t1 <= t0:
            continue
        a = evaluate(path, t0)
        b = left_limit(path, t1)
        l0 = cost_fn(np.array([t_offset + t0]), a.reshape(1, -1))[0]
        l1 = cost_fn(np.array([t_offset + t1]), b.reshape(1, -1))[0]
        total += float(_disc_trapezoid(l0, l1, t0, t1 - t0, lam))
    return total


# ---------------------------------------------------------------------------
# Public entry points.


def run_single(spec, domain, x0, h, horizon, stream: RngStream,
               lam=0.0, cost_fn=None, t_offset=0.0, stop="closure", bridge=False):
    """One trajectory, bit-identical to ``simulate_path`` with the same stream."""
    if spec.is_deterministic:
        r = _deterministic_result(spec, domain, x0, h, horizon, lam, cost_fn, t_offset, stop)
        return _broadcast_result(r, 1, spec.d)
    n_steps = int(math.ceil(horizon / h - 1e-12))
    return _run_chunk(spec, domain, np.atleast_1d(np.asarray(x0, float)), h, n_steps,
                      stream.generator(), 1, lam, cost_fn, t_offset, stop, bridge)


def _broadcast_result(r, n, d):
    return BatchResult(
        np.full(n, r["zeta"]), np.full(n, r["zeta_hat"]),
        np.tile(r["point"], (n, 1)), np.tile(r["point_hat"], (n, 1)),
        np.zeros(n, bool), np.full(n, r["truncated"]),
        np.full(n, r["steps"]), np.full(n, r["cost"]),
    )


def _chunk_task(args):
    (spec, domain, x0, h, n_steps, seed, chunk_id, m, lam, cost_fn, t_offset, stop, bridge) = args
    gen = RngStream(seed, chunk_id).generator()
    return _run_chunk(spec, domain, x0, h, n_steps, gen, m, lam, cost_fn, t_offset, stop, bridge)


def run_batch(spec: ProcessSpec, domain: Domain, x0, h, horizon, n, seed,
              lam=0.0, cost_fn=None, t_offset=0.0, stop="closure", bridge=False,
              workers=1) -> BatchResult:
    """n first-exit trajectories with the fixed chunk/stream contract."""
    x0 = np.atleast_1d(np.asarray(x0, float))
    if spec.is_deterministic:
        r = _deterministic_result(spec, domain, x0, h, horizon, lam, cost_fn, t_offset, stop)
        return _broadcast_result(r, n, spec.d)
    n_steps = int(math.ceil(horizon / h - 1e-12))
    tasks = []
    done = 0
    cid = 0
    while done < n:
        m = min(CHUNK_SIZE, n - done)
        tasks.append((spec, domain, x0, h, n_steps, seed, cid, m,
                      lam, cost_fn, t_offset, stop, bridge))
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
