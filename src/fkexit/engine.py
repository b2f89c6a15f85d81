"""Vectorized first-exit simulation shared by every Monte Carlo estimator.

Trajectories are simulated in fixed-size chunks of :data:`CHUNK_SIZE`; chunk c
draws from the Philox stream (seed, c).  The chunk size is part of the seed
contract: results are bit-identical for any worker count because workers only
split over chunks, never inside one.

A batch may start from k points at once.  Its rows are then (path, start)
pairs, path-major: row p k + s is path p from start s, chunk c holds
max(1, CHUNK_SIZE // k) paths and draws from the stream (seed, c), and the k
starts of a path share its noise (common random numbers).  Each start's rows
keep the law they have alone; only their correlation across starts is new.
On the blocked route a block draws the noise once per live path, a path
being live while any of its starts is; membership, exits, cost and
bookkeeping stay per row.  On the dyadic route, whose step sizes differ per
row, a chunk runs its starts one after the other from its generator.  One
start, of shape (d,) or (1, d), runs exactly the single-start code.

The blocked route advances a chunk in blocks of Euler steps, whose knots
:func:`~fkexit.levy.euler_block` builds and whose lengths
:func:`~fkexit.levy.block_steps` sets: 16 steps first, doubling per block up
to a cap that grows as rows exit, so a path that exits at step 1 draws 16
steps, not 128.  The noisy branch of ``simulate_path`` advances through the
same schedule for one row, so a single trajectory matches its skeleton knot
for knot.
Within a step, drift/Brownian segments are treated as linear and their
boundary crossing is the earliest closed-form crossing over the domain's
faces (``geometry.segment_crossing``, shared with the path operators; the
engine keeps no shape geometry); where all faces are flat and every axis is
Brownian, :func:`run_batch` always runs a Brownian-bridge test that catches
crossings that both endpoints miss (:func:`run_single` never does, so that
it keeps to its skeleton's stream).
A stable step is refined only at a flat face across a noiseless coordinate
(a lifted spec's clock), which its drift alone crosses; otherwise a jump is
the exit itself, and its landing point is the exit point (boundary data
lives on the whole complement).  Paths stopped by the horizon keep their
running cost integral and are flagged truncated.

Where that bridge test is exact for any step length (a batch run with
Brownian noise on every axis, a state-independent drift, flat faces, and no
running cost or a constant one), a chunk takes a second route with no
blocks: each path steps exactly, h 2^j at a time (:func:`_run_dyadic`).  A
step crosses a face when its end point does, or with the one-face bridge
probability, at a crossing time drawn from its exact law; that test is exact
for any step, so the nearest face does not bound the step.  The step grows
with the distance to the second-nearest face instead, which it keeps six
standard deviations away (:func:`_dyadic_steps`).  So h is the route's
smallest step, not a bias parameter: apart from treating the faces one at a
time within a step, which neglects a crossing of two faces in one step
(about 2e-9 per step), the exit law carries no step error.  Every other run
takes the blocked route.

A running cost that is a named constant (:class:`~fkexit.functions.Constant`
behind :class:`~fkexit.functions.SpatialCost`) is integrated in closed form,
c (1 - exp(-lam t)) / lam up to the stop time t, instead of step by step; on
the blocked route the simulated paths and their random draws are the same
either way.

Deterministic specs short-circuit to a single exact trajectory evaluated with
the path operators and Gauss quadrature of the running cost.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, InvalidStart, InvalidStep, check_inputs, check_start,
                     check_workers)
from .functions import Constant, SpatialCost, gauss_legendre
from .geometry import AxisFace, Domain, segment_crossing
from .levy import (BLOCK_STEPS, FIRST_BLOCK_STEPS, BrownianNoise, ProcessSpec, StableNoise,
                   _velocity, block_steps, euler_block, simulate_path)
from .paths import evaluate, exit_time, left_limit
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
                             for f in _FIELDS])


_FIELDS = ("zeta", "zeta_hat", "point", "point_hat", "via_jump", "truncated", "steps", "cost")


def _merge_starts(groups, k):
    """One path-major result over k starts from (starts, result) groups that split them.

    Each group's result holds the rows of its own starts, path-major.
    """
    if len(groups) == 1:
        return groups[0][1]
    n = groups[0][1].n // len(groups[0][0])
    merged = []
    for f in _FIELDS:
        first = getattr(groups[0][1], f)
        out = np.empty((n, k) + first.shape[1:], first.dtype)
        for starts, res in groups:
            out[:, starts] = getattr(res, f).reshape((n, len(starts)) + first.shape[1:])
        merged.append(out.reshape((n * k,) + first.shape[1:]))
    return BatchResult(*merged)


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


def _bridge_faces(spec, domain):
    """The faces a run bridges: all, if every one is flat and every axis Brownian; else []."""
    faces = domain.faces() or []
    brownian = isinstance(spec.noise, BrownianNoise) and spec.noise.eps > 0
    flat = all(isinstance(f, AxisFace) for f in faces)
    return faces if brownian and spec.noise_offset == 0 and flat else []


def _run_chunk(spec, domain, starts, h, n_steps, gen, m, lam, cost_fn, stop, bridged):
    """The m k rows, path-major, of a chunk of m paths from (k, d) starts or one (d,) start."""
    starts = np.atleast_2d(starts)
    c = _constant_cost(cost_fn)
    if c is not None:
        cost_fn = None
    faces = _bridge_faces(spec, domain) if bridged else []
    if cost_fn is None and _velocity(spec.drift) is not None and faces:
        res = _merge_starts([([s], _run_dyadic(spec, faces, x0, h, n_steps, gen, m))
                             for s, x0 in enumerate(starts)], len(starts))
    else:
        res = _run_blocks(spec, domain, starts, h, n_steps, gen, m, lam, cost_fn, stop, faces)
    if c is not None:
        # integral of c exp(-lam s) over [0, t_stop], t_stop the exit or the horizon
        t_stop = np.where(res.truncated, res.steps * h, res.zeta)
        res.cost = c * (-np.expm1(-lam * t_stop)) / lam if lam != 0.0 else c * t_stop
    return res


def _first_outside(inside):
    """Per row of an (na, nb) membership mask, the first step outside, or nb."""
    first = inside.argmin(axis=1)
    first[inside[np.arange(len(first)), first]] = inside.shape[1]
    return first


def _first_outside_closure(domain, X, first_open):
    """Per row, the first step whose knot leaves the closure, from the first open misses.

    The closure holds the open set, so a row leaves it at its first open
    miss unless that knot lies on the boundary; only such rows are scanned
    again.
    """
    exit_step = first_open.copy()
    rows = np.flatnonzero(first_open < X.shape[1] - 1)
    if rows.size:
        rows = rows[domain.contains(X[rows, first_open[rows] + 1], "closure")]
    if rows.size:
        exit_step[rows] = _first_outside(domain.contains(X[rows, 1:], "closure"))
    return exit_step


def _bridge_fires(z, gen, where=True):
    """Whether each bridge with exponent z crosses its face: z < e for e ~ Exp(1).

    Exponentials are drawn in index order, only where ``where`` holds and
    z < 45 (beyond it the crossing probability exp(-z) is below 3e-20).
    """
    fires = where & (z < 45.0)
    near = np.flatnonzero(fires)
    fires.reshape(-1)[near] = z.reshape(-1)[near] < gen.standard_exponential(near.size)
    return fires


def _snap(faces, face_of, x):
    """The (m, d) points x, row i moved onto faces[face_of[i]], in place."""
    for f, face in enumerate(faces):
        on = face_of == f
        x[on] = face.snap(x[on])
    return x


def _bridge_scan(X, faces, half_var, gen, exit_step, bridge_face):
    """Brownian-bridge crossings of the block's steps over flat faces, in place on the row arrays.

    Step j of a row bridges a face at distances d0, d1 from its knots with
    probability exp(-d0 d1 / half_var), tested by :func:`_bridge_fires` on
    z = d0 d1 / half_var in C order over (row, step), one face after the
    other; a row's first firing step before its exit step becomes its exit
    step, and ``bridge_face`` takes the face's index.
    """
    na, nbp, d = X.shape
    nb = nbp - 1
    knots = X.reshape(-1, d)  # step j of row r starts at knot r (nb + 1) + j
    # z < 45 needs a knot within sqrt(45 half_var) of the face or beyond it
    # (both distances exceed the smaller one, or their signs differ); the
    # margin covers rounding, so the knot test keeps every candidate
    reach = math.sqrt(45.0 * half_var) * (1.0 + 1e-9)
    for f, face in enumerate(faces):
        dist = face.distance(knots)
        near = (dist < reach).reshape(na, nbp)
        step = np.flatnonzero(near[:, :-1] | near[:, 1:])
        k = step + step // nb
        step = step[_bridge_fires(dist[k] * dist[k + 1] / half_var, gen)]
        # steps ascend, so each row's first entry is its earliest firing step
        rows, first = np.unique(step // nb, return_index=True)
        j = step[first] - rows * nb
        better = j < exit_step[rows]
        exit_step[rows[better]] = j[better]
        bridge_face[rows[better]] = f


def _run_blocks(spec, domain, starts, h, n_steps, gen, paths, lam, cost_fn, stop, bridge_faces):
    d = spec.d
    k_starts = len(starts)
    m = paths * k_starts
    pos = np.tile(starts, (paths, 1))
    idx = np.arange(m)
    zeta = np.full(m, np.inf)
    zhat = np.full(m, np.inf)
    pt = np.full((m, d), np.nan)
    pt_hat = np.full((m, d), np.nan)
    via = np.zeros(m, bool)
    steps = np.zeros(m, dtype=int)
    cost = np.zeros(m)

    stable = isinstance(spec.noise, StableNoise) and spec.noise.sigma > 0
    # a stable step moves the noiseless coordinates (a lifted spec's clock)
    # by its drift part alone, so its crossing of a flat face across one of
    # them is solved exactly; its other crossings stay knot-level
    faces = (domain.faces() or []) if stable else []
    still_faces = [f for f in faces if isinstance(f, AxisFace) and f.axis < spec.noise_offset]
    # a knot can sit in the closure but outside the open set only for jump
    # dynamics or on a face across a noiseless coordinate; Brownian segments
    # in a convex domain touch the boundary exactly when they cross it
    scan_open = stop == "open" or stable or spec.noise_offset > 0
    if cost_fn is not None:
        w0, w1 = _trap_weights(h, lam)
    floor = BLOCK_STEPS if k_starts == 1 else FIRST_BLOCK_STEPS

    k0 = k = 0
    while idx.size and k0 < n_steps:
        na = idx.size
        nb = block_steps(k, na, n_steps - k0, floor)
        if k_starts == 1:
            X, jmask = euler_block(spec, pos, h, gen, nb)
        else:  # one draw per live path, gathered to its live rows
            path_of = np.unique(idx // k_starts, return_inverse=True)[1]
            X, jmask = euler_block(spec, pos, h, gen, nb, path_of)

        if scan_open:
            first_open = _first_outside(domain.contains(X[:, 1:], "open"))
            exit_step = (first_open if stop == "open"
                         else _first_outside_closure(domain, X, first_open))
        else:
            first_open = np.full(na, nb)
            exit_step = _first_outside(domain.contains(X[:, 1:], "closure"))
        bridge_face = np.full(na, -1)
        if bridge_faces:
            _bridge_scan(X, bridge_faces, 0.5 * spec.noise.eps ** 2 * h, gen,
                         exit_step, bridge_face)

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
                jump_exit[rows] = jmask[rows, je]
                for face in still_faces:
                    out = face.distance(b) < 0.0
                    if out.any():
                        r2, a2 = rows[out], a[out]
                        v = spec.drift(a2) * h
                        s = face.distance(a2) / (face.side * v[:, face.axis])
                        tau[r2] = (k0 + je[out] + s) * h
                        xex[r2] = face.snap(a2 + v * s[:, None])
                        jump_exit[r2] = False
            else:
                # a bridge exit is placed at the step's midpoint, on its face
                s, xex[rows] = segment_crossing(domain, a, b, stop)
                br = bridge_face[rows] >= 0
                s[br] = 0.5
                xex[rows[br]] = _snap(bridge_faces, bridge_face[rows[br]], 0.5 * (a[br] + b[br]))
                tau[rows] = (k0 + je + s) * h

        if stop == "closure":
            nf = np.isinf(zhat[idx])  # rows yet to leave the open set
            touch = nf & (first_open < exit_step)
            if touch.any():
                g = idx[touch]
                jo = first_open[touch]
                zhat[g] = (k0 + jo + 1.0) * h
                pt_hat[g] = X[touch, jo + 1]
            sync = nf & exited & (first_open >= exit_step)
            if sync.any():
                g = idx[sync]
                zhat[g] = tau[sync]
                pt_hat[g] = xex[sync]

        if cost_fn is not None:
            lv = np.asarray(cost_fn(X), float)
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
# Exact dyadic steps of a constant-drift Brownian motion between flat faces.


def _dyadic_steps(dist, speed, eps, h, steps_left):
    """The h-steps 2^j each row takes next, from its (faces, rows) face distances.

    Face f allows the steps H with 6 eps sqrt(H) + speed_f H <= dist_f, speed_f
    the drift's speed across it; H_2 is the second smallest allowance over the
    faces, so every face but one stays six standard deviations plus the
    drift's displacement away.  The step is the largest H = h 2^j with
    H <= max((delta / (3 eps))^2, H_2), delta the nearest face's distance,
    cut to a power of two that fits in ``steps_left``, and at least h.
    """
    # sqrt(H_f) is the positive root 2 d / (6 eps + sqrt(36 eps^2 + 4 speed d))
    root = np.sqrt(36.0 * eps * eps + 4.0 * speed * dist)
    root += 6.0 * eps
    allow = np.divide(2.0 * dist, root, out=root)
    # the two smallest sqrt(H_f) of each row, then the cap in units of h
    first, second = np.minimum(allow[0], allow[1]), np.maximum(allow[0], allow[1])
    for a in allow[2:]:
        second = np.minimum(second, np.maximum(first, a))
        first = np.minimum(first, a)
    cap = np.maximum(dist.min(axis=0) * (1.0 / (3.0 * eps)), second)
    cap *= cap
    cap *= 1.0 / h
    # 2^j <= min(allowed steps, steps left): floor(log2) from the exponent
    j = np.frexp(np.minimum(cap, steps_left))[1] - 1
    return np.left_shift(np.int64(1), np.maximum(j, 0))


def _run_dyadic(spec, faces, x0, h, n_steps, gen, m):
    """Exits of m paths that step exactly, h 2^j at a time, between the faces.

    A row takes the step H of :func:`_dyadic_steps` and draws its end point
    a + v H + eps sqrt(H) Z.  A face at distances d0, d1 from the step's ends
    is crossed when the end point is on it or beyond it, or else with the
    one-face bridge probability exp(-2 d0 d1 / (eps^2 H)) (:func:`_bridge_fires`),
    at a time from :func:`_passage_times`.  The earliest crossed face is the
    exit.  The faces are tested one at a time, so the route neglects only a
    crossing of a second face within the step, which the step rule keeps
    below about 2 P(Z > 6) = 2e-9 per step.
    """
    eps = spec.noise.eps
    v = _velocity(spec.drift)
    speed = np.array([[abs(v[f.axis])] for f in faces])  # (faces, 1)
    zeta = np.full(m, np.inf)
    pt = np.full((m, spec.d), np.nan)
    steps = np.full(m, n_steps)
    dist = np.array([f.distance(x0[None, :]) for f in faces])  # (faces, rows)
    if dist.min() <= 0.0:  # a start on a face exits at once
        zeta[:] = 0.0
        pt[:] = x0
        steps[:] = 0
        idx = np.arange(0)
    else:
        idx = np.arange(m)
        pos = np.tile(x0, (m, 1))
        k = np.zeros(m, dtype=np.int64)  # h-steps done
        dist = np.repeat(dist, m, axis=1)
    while idx.size:
        ns = _dyadic_steps(dist, speed, eps, h, n_steps - k)
        H = ns * h
        b = gen.standard_normal(pos.shape)
        b *= eps * np.sqrt(H)[:, None]
        b += pos + H[:, None] * v
        d1 = np.array([f.distance(b) for f in faces])
        crossed = d1 <= 0.0
        z = dist * d1
        z *= 2.0 / (eps * eps * H)
        crossed |= _bridge_fires(z, gen, ~crossed)  # drawn over (face, row)
        f_ix, r = np.nonzero(crossed)
        live = k + ns < n_steps
        if r.size:
            t = np.full(dist.shape, np.inf)
            t[f_ix, r] = _passage_times(dist[f_ix, r], np.abs(d1[f_ix, r]), H[r], eps, gen)
            out = np.unique(r)
            face_of = t[:, out].argmin(axis=0)
            te = t[face_of, out]
            g = idx[out]
            zeta[g] = k[out] * h + te
            pt[g] = _bridge_exit_points(faces, face_of, pos[out], b[out], dist[:, out],
                                        te, H[out], eps, gen)
            # the h-grid step that holds the exit
            steps[g] = k[out] + np.minimum(np.ceil(te / h), ns[out]).astype(int)
            live[out] = False
        keep = np.flatnonzero(live)
        idx, k = idx[keep], k[keep] + ns[keep]
        pos, dist = b.take(keep, axis=0), d1.take(keep, axis=1)
    return BatchResult(zeta, zeta.copy(), pt, pt.copy(), np.zeros(m, bool), np.isinf(zeta),
                       steps, np.zeros(m))


def _passage_times(d0, d1, H, eps, gen):
    """First-passage times in (0, H] of Brownian bridges that reach a face.

    Each bridge of length H starts at distance d0 > 0 from the face and ends
    at distance d1 >= 0 from it, on either side.  Under u = t H / (H - t) the
    bridge becomes a Brownian motion with drift, so u is inverse Gaussian
    with mean d0 H / d1 and shape (d0 / eps)^2 (``gen.wald``'s law).  It is
    drawn by Michael, Schucany & Haas (1976), with both roots written
    directly as t: this form has no cancellation and stays exact for an end
    point on the face (d1 = 0, an infinite mean).
    """
    p = (0.5 * eps * eps) * H * gen.standard_normal(len(d0)) ** 2 / d0
    m = d1 + p + np.sqrt(p * (p + 2.0 * d1))
    # the smaller u with probability m / (m + d1), else the larger one
    small = gen.random(len(d0)) * (m + d1) <= m
    return H * d0 / (d0 + np.where(small, m, d1 * d1 / m))


def _bridge_exit_points(faces, face_of, a, b, dist, t, H, eps, gen):
    """Points at the crossing times t of the steps a -> b of length H, on the faces face_of.

    The other coordinates come from their Brownian bridges at time t, drawn
    again until none has crossed its faces before t: each face at distances
    d0 (from a) and dx (from the point) is crossed with probability
    exp(-2 d0 dx / (eps^2 t)), as in the step's own test.
    """
    x = a.copy()
    todo = np.arange(len(x) if x.shape[1] > 1 else 0)  # in 1-d the face fixes the point
    if todo.size:
        mean = a + (b - a) * (t / H)[:, None]
        sd = eps * np.sqrt(t * (H - t) / H)
        two_over_var = 2.0 / (eps * eps * t)
    while todo.size:
        x[todo] = mean[todo] + sd[todo, None] * gen.standard_normal((todo.size, x.shape[1]))
        crossed = np.zeros(todo.size, bool)
        for f, face in enumerate(faces):
            z = two_over_var[todo] * dist[f, todo] * face.distance(x[todo])
            crossed |= _bridge_fires(z, gen, face_of[todo] != f)
        todo = todo[crossed]
    return _snap(faces, face_of, x)


# ---------------------------------------------------------------------------
# Deterministic short-circuit.


def _deterministic_result(spec, domain, x0, h, horizon, lam, cost_fn, stop, n):
    """n copies of the exit data of the one exact trajectory."""
    path = simulate_path(spec, x0, h, horizon, RngStream(0, 0))
    z = exit_time(path, domain, "open-hit" if stop == "open" else "closure-hit")
    zh = exit_time(path, domain, "open-hit")
    truncated = not (z < horizon + 1e-12)
    t_stop = min(z, horizon)
    nan = np.full(spec.d, np.nan)
    point = nan if truncated else evaluate(path, z)
    point_hat = evaluate(path, zh) if zh < math.inf else nan
    return BatchResult(np.full(n, math.inf if truncated else z), np.full(n, zh),
                       np.tile(point, (n, 1)), np.tile(point_hat, (n, 1)),
                       np.zeros(n, bool), np.full(n, truncated),
                       np.full(n, int(math.ceil(t_stop / h))),
                       np.full(n, _quadrature_cost(path, cost_fn, lam, t_stop)))


def _quadrature_cost(path, cost_fn, lam, t_stop):
    if cost_fn is None or _constant_cost(cost_fn) == 0.0 or t_stop <= 0:
        return 0.0
    if path.kind == "flow":
        nodes, weights = gauss_legendre(_GAUSS_NODES)
        t = 0.5 * t_stop * (nodes + 1.0)
        w = 0.5 * t_stop * weights
        vals = cost_fn(path.flow.eval(t))
        return float(np.sum(w * np.exp(-lam * t) * vals))
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


def check_run(horizon, stop="closure"):
    """Reject a horizon that is not finite and positive, or an unknown stopping rule."""
    if not (math.isfinite(horizon) and horizon > 0):
        raise InvalidStep(f"horizon={horizon} must be a finite positive time, e.g. 20.0")
    if stop not in STOP_RULES:
        raise ConfigError(f"unknown stopping rule stop={stop!r}; use one of {STOP_RULES}")


def _check_starts(spec, domain, x0):
    """The starts as a (k, d) array: x0 of shape (d,) is one start, of shape (k, d) k starts."""
    starts = [check_start(spec, domain, x) for x in (x0 if np.ndim(x0) == 2 else [x0])]
    if not starts:
        raise InvalidStart("x0 holds no start; pass a point of shape (d,) or k starts as (k, d)")
    return np.array(starts)


def _run(spec, domain, x0, h, horizon, chunks, lam, cost_fn, stop, bridged, workers):
    """Exits of the chunks, each a (stream, paths) pair, concatenated in chunk order.

    ``bridged`` lets each chunk run the bridge test, and with it the dyadic
    route, wherever :func:`_bridge_faces` finds that test exact.  Each start
    is taken on its own first: one outside the closure exits at once on
    every route, at time 0 and at its own point, and a deterministic spec
    runs one exact trajectory per start.  The other starts share the chunks.
    """
    n = sum(m for _, m in chunks)
    check_inputs(h, n)
    check_workers(workers)
    check_run(horizon, stop)
    starts = _check_starts(spec, domain, x0)
    inside = np.asarray(domain.contains(starts, "closure"))
    groups = []
    if not inside.all():  # no draws
        out = np.flatnonzero(~inside)
        rows = n * out.size
        zero, point = np.zeros(rows), np.tile(starts[out], (n, 1))
        groups.append((out, BatchResult(zero, zero.copy(), point, point.copy(),
                                        np.zeros(rows, bool), np.zeros(rows, bool),
                                        np.zeros(rows, dtype=int), zero.copy())))
    live = np.flatnonzero(inside)
    if live.size and spec.is_deterministic:
        groups += [([s], _deterministic_result(spec, domain, starts[s], h, horizon, lam, cost_fn,
                                               stop, n)) for s in live]
    elif live.size:
        if not horizon / h < 2.0 ** 62:  # step counts are int64
            raise InvalidStep(f"horizon={horizon:g} is {horizon / h:.3g} steps of h={h:g}; "
                              "shorten it")
        n_steps = int(math.ceil(horizon / h - 1e-12))
        tasks = [(spec, domain, starts[live], h, n_steps, stream, m, lam, cost_fn, stop, bridged)
                 for stream, m in chunks]
        if workers > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=workers) as ex:
                parts = list(ex.map(_chunk_task, *zip(*tasks)))
        else:
            parts = [_chunk_task(*t) for t in tasks]
        groups.append((live, functools.reduce(BatchResult.concat, parts)))
    return _merge_starts(groups, len(starts))


def _chunk_task(spec, domain, starts, h, n_steps, stream, *rest):
    return _run_chunk(spec, domain, starts, h, n_steps, stream.generator(), *rest)


def run_single(spec, domain, x0, h, horizon, stream: RngStream,
               lam=0.0, cost_fn=None, stop="closure"):
    """One trajectory, bit-identical to ``simulate_path`` with the same stream.

    It runs no bridge test, whose draws between blocks would shift the
    stream, so it never takes the dyadic route either.
    """
    return _run(spec, domain, x0, h, horizon, [(stream, 1)], lam, cost_fn, stop,
                bridged=False, workers=1)


def run_batch(spec: ProcessSpec, domain: Domain, x0, h, horizon, n, seed,
              lam=0.0, cost_fn=None, stop="closure", workers=1) -> BatchResult:
    """n first-exit trajectories from x0 with the fixed chunk/stream contract.

    x0 is one start, of shape (d,), or k starts as a (k, d) array; the result
    then holds n k rows, path-major, and row p k + s is path p from start s.
    Chunk c holds paths c P onwards, P = max(1, CHUNK_SIZE // k), and draws
    from the stream (seed, c); the starts of a path share its noise.  Every
    chunk runs the bridge test wherever it is exact.
    """
    k = len(x0) if np.ndim(x0) == 2 else 1
    per_chunk = max(1, CHUNK_SIZE // max(k, 1))  # k = 0 is left for the entry's check
    # n < 1 makes one chunk of n paths, for the entry's check to reject
    chunks = [(RngStream(seed, c), min(per_chunk, n - start))
              for c, start in enumerate(range(0, n, per_chunk) or [0])]
    return _run(spec, domain, x0, h, horizon, chunks, lam, cost_fn, stop,
                bridged=True, workers=workers)
