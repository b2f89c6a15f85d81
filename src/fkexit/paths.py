"""Cadlag path skeletons and the path-level exit operators.

Three concrete path kinds stand in for general right-continuous paths with
left limits:

* ``step``    piecewise constant, value jumps at every knot;
* ``linear``  piecewise linear between knots, with optionally marked jump
              knots whose pre-jump value is stored explicitly;
* ``flow``    a closed-form trajectory with polynomial coordinates
              (continuous, so value and left limit coincide).

Exit times are infima over ``t > 0``, evaluated exactly.  A step or linear
skeleton is resolved over all its knots at once, from the exact membership
of its knots and segment ends and the engine's closed-form face crossing
(``geometry.segment_crossing``).  A flow's face crossings are polynomial
roots; each is tested with that coordinate placed exactly on the face, which
makes single-instant touches of a boundary (the mechanism that separates
leaving an open set from leaving its closure) detectable in floating point.

Beyond its last knot a skeleton is absorbed at its final point, so "never
exits" is exact under that convention and is reported as ``math.inf``.
Callers who treat the skeleton as a truncated simulation can pass
``strict=True`` to get :class:`~fkexit.errors.HorizonExceeded` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import HorizonExceeded
from .geometry import Domain, segment_crossing

_TIME_TOL = 1e-12


# ---------------------------------------------------------------------------
# Closed-form flows.


class Flow:
    """Closed-form trajectory with polynomial coordinate functions."""

    d: int

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        single = t.ndim == 0
        vals = np.stack([npoly.polyval(np.atleast_1d(t), c) for c in self.coord_polys()], axis=-1)
        return vals[0] if single else vals

    def coord_polys(self):
        """Per-coordinate polynomial coefficients (low order first) in global t."""
        raise NotImplementedError

    def shifted(self, h) -> "Flow":
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantVelocityFlow(Flow):
    """x(t) = x0 + velocity * t."""

    x0: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        object.__setattr__(self, "velocity", np.atleast_1d(np.asarray(self.velocity, dtype=float)))

    @property
    def d(self):
        return self.x0.size

    def coord_polys(self):
        return [np.array([self.x0[i], self.velocity[i]]) for i in range(self.d)]

    def shifted(self, h):
        return ConstantVelocityFlow(self.x0 + h * self.velocity, self.velocity)


@dataclass(frozen=True)
class ParabolicFlow(Flow):
    """Integral curves of the planar field b(x) = (1, 2 x1).

    x1(t) = x1 + t and x2(t) = x2 - x1^2 + x1(t)^2, so trajectories ride
    parabolas x2 = x1^2 + const.
    """

    x0: np.ndarray

    def __post_init__(self):
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if x0.size != 2:
            raise ValueError("parabolic flow lives in the plane")
        object.__setattr__(self, "x0", x0)

    @property
    def d(self):
        return 2

    def coord_polys(self):
        x1, x2 = self.x0
        return [np.array([x1, 1.0]), np.array([x2, 2.0 * x1, 1.0])]

    def shifted(self, h):
        return ParabolicFlow(self.eval(h))


# ---------------------------------------------------------------------------
# Paths.


@dataclass(frozen=True)
class CadlagPath:
    """Right-continuous path skeleton with left limits.

    ``jumps`` maps a knot index to the pre-jump point, i.e. the left limit of
    the preceding linear segment at that knot.  Only the ``linear`` kind uses
    it; ``step`` paths jump at every knot by construction.  Instances are
    treated as immutable values and are safe to share between threads.
    """

    kind: str
    times: np.ndarray
    points: np.ndarray
    jumps: dict = field(default_factory=dict)
    flow: Flow | None = None

    def __post_init__(self):
        if self.kind not in ("step", "linear", "flow"):
            raise ValueError(f"unknown path kind {self.kind!r}")
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        points = np.asarray(self.points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(-1, 1)
        if self.kind == "flow":
            if self.flow is None:
                raise ValueError("flow kind requires a flow handle")
            times = np.array([0.0])
            points = self.flow.eval(0.0).reshape(1, -1)
        else:
            if times[0] != 0.0 or np.any(np.diff(times) <= 0):
                raise ValueError("times must start at 0 and increase strictly")
            if len(times) != len(points):
                raise ValueError("times and points must have equal length")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)
        jumps = {int(k): np.atleast_1d(np.asarray(v, dtype=float)) for k, v in self.jumps.items()}
        for k in jumps:
            if not 1 <= k < len(times):
                raise ValueError(f"jump index {k} out of range")
        object.__setattr__(self, "jumps", jumps)

    @property
    def d(self):
        return self.points.shape[1]

    @property
    def horizon(self):
        """Last knot time; evaluation beyond it hits the absorbing tail."""
        return float(self.times[-1])


def step_path(times, points) -> CadlagPath:
    return CadlagPath("step", np.asarray(times, float), np.asarray(points, float))


def linear_path(times, points, jumps=None) -> CadlagPath:
    return CadlagPath("linear", np.asarray(times, float), np.asarray(points, float), jumps or {})


def flow_path(flow: Flow) -> CadlagPath:
    return CadlagPath("flow", np.array([0.0]), flow.eval(0.0).reshape(1, -1), {}, flow)


# ---------------------------------------------------------------------------
# Evaluation.


def _segment_end_value(path, k):
    """Left limit of segment k at knot k+1 (pre-jump value at a jump knot)."""
    if path.kind == "step":
        return path.points[k]
    if (k + 1) in path.jumps:
        return path.jumps[k + 1]
    return path.points[k + 1]


def evaluate(path: CadlagPath, t) -> np.ndarray:
    """Right-continuous value of the path at time t >= 0."""
    t = float(t)
    if t < 0:
        raise ValueError("paths are defined for t >= 0")
    if path.kind == "flow":
        return path.flow.eval(t)
    times = path.times
    if t >= times[-1]:
        return path.points[-1].copy()
    k = int(np.searchsorted(times, t, side="right")) - 1
    if path.kind == "step" or t == times[k]:
        return path.points[k].copy()
    frac = (t - times[k]) / (times[k + 1] - times[k])
    end = _segment_end_value(path, k)
    return path.points[k] + frac * (end - path.points[k])


def left_limit(path: CadlagPath, t) -> np.ndarray:
    """Left limit of the path at t, with the convention left_limit(0) = value(0)."""
    t = float(t)
    if t < 0:
        raise ValueError("paths are defined for t >= 0")
    if path.kind == "flow":
        return path.flow.eval(t)
    times = path.times
    if t == 0.0:
        return path.points[0].copy()
    if t > times[-1]:
        return path.points[-1].copy()
    # segment with t in (times[k], times[k+1]]
    k = int(np.searchsorted(times, t, side="left")) - 1
    if path.kind == "step":
        return path.points[k].copy()
    frac = (t - times[k]) / (times[k + 1] - times[k])
    end = _segment_end_value(path, k)
    return path.points[k] + frac * (end - path.points[k])


# ---------------------------------------------------------------------------
# Exact exit operators.


def _real_roots(coefs):
    """Real roots of a polynomial, coefficients low order first."""
    c = np.atleast_1d(np.asarray(coefs, dtype=float))
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return []
    keep = len(c)
    while keep > 1 and abs(c[keep - 1]) <= 1e-14 * scale:
        keep -= 1
    c = c[:keep]
    deg = len(c) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [-c[0] / c[1]]
    if deg == 2:
        c0, b, a = c
        disc = b * b - 4 * a * c0
        if disc < 0:
            return []
        sq = math.sqrt(disc)
        q = -(b + math.copysign(sq, b)) / 2.0
        roots = []
        if a != 0:
            roots.append(q / a)
        if q != 0:
            roots.append(c0 / q)
        elif a != 0:  # b == 0 and disc == 0
            roots = [0.0] if c0 == 0 else roots
        return roots
    rts = npoly.polyroots(c)
    return [float(r.real) for r in rts if abs(r.imag) <= 1e-9 * (1 + abs(r))]


def _outside(domain, point, mode, faces=()):
    p = np.array(point, dtype=float)
    for f in faces:
        # place the coordinate exactly on the face that generated this root,
        # so single-instant touches are classified exactly
        p = f.snap(p)
    return not domain.contains(p, mode)


def _flow_exit(flow, domain, mode):
    """Earliest t > 0 at which the flow is outside, from its face roots; inf if never."""
    polys = flow.coord_polys()
    root_faces = {}
    for f in domain.faces() or []:
        for r in _real_roots(f.crossing_poly(polys)):
            if r < -_TIME_TOL:
                continue
            r = max(r, 0.0)
            for known in root_faces:
                if abs(r - known) <= _TIME_TOL * (1.0 + abs(known)):
                    root_faces[known].append(f)
                    break
            else:
                root_faces[r] = [f]
    # membership is constant between crossings and beyond the last one
    breaks = [0.0] + [r for r in sorted(root_faces) if r > _TIME_TOL] + [math.inf]

    def face_list(t):
        for r, fs in root_faces.items():
            if abs(r - t) <= _TIME_TOL * (1.0 + abs(t)):
                return fs
        return ()

    for b, nxt in zip(breaks, breaks[1:]):
        if b > 0 and _outside(domain, flow.eval(b), mode, face_list(b)):
            return b
        mid = b + 1.0 if nxt == math.inf else 0.5 * (b + nxt)
        if nxt - b > _TIME_TOL and _outside(domain, flow.eval(mid), mode):
            return b
    return math.inf


def _skeleton_exit(path, domain, mode, left):
    """Earliest exit of a step or linear skeleton, over all its knots at once; inf if never.

    Segment k runs from knot k to its end value: the next knot, or the
    pre-jump value at a jump knot (knot k itself on a step path and on the
    last knot's constant tail).  A knot outside the closure exits at its own
    time, and so does one outside the ``mode`` set whose segment is constant
    or, on the right-continuous path, whose time is past 0.  A segment with
    both ends in the set stays in it (faced domains are convex); any other
    exits where ``segment_crossing`` places it, except that the
    right-continuous path never takes an end value, so there a crossing past
    the start toward an end in the closure is no exit.  A faceless domain's
    segments exit at their end (s = 1), so it is resolved at the knots.
    """
    times, a = path.times, path.points
    b = a
    if path.kind == "linear":
        b = np.vstack([a[1:], a[-1:]])
        if path.jumps:
            b[np.array(list(path.jumps)) - 1] = list(path.jumps.values())
    a_closed = domain.contains(a, "closure")
    a_in = a_closed if mode == "closure" else domain.contains(a, mode)
    b_in = a_in if b is a else domain.contains(b, mode)
    out = ~a_closed | ~a_in & (np.all(a == b, axis=1) | (not left) & (times > 0))
    tau = np.where(out, times, math.inf)
    k = np.flatnonzero(~out & ~(a_in & b_in))
    if k.size:
        s, _ = segment_crossing(domain, a[k], b[k], mode)
        if not left:
            s[(s > 0) & domain.contains(b[k], "closure")] = math.inf
        t0, t1 = times[k], times[k + 1]  # constant segments, the tail too, never get here
        tau[k] = np.where(s == 1.0, t1, t0 + s * (t1 - t0))
    return tau.min()


_MODE_MEMBERSHIP = {"open-hit": "open", "closure-hit": "closure", "entrance": "open"}


def exit_time(path: CadlagPath, domain: Domain, mode="closure-hit", strict=False) -> float:
    """First time strictly after 0 at which the path is outside the set.

    ``open-hit`` uses the open set, ``closure-hit`` its closure, and
    ``entrance`` is the inf over t >= 0 (so a start outside the open set
    exits at time 0).  Returns ``math.inf`` when the path never leaves within
    its skeleton (exact under the absorbing-tail convention); with
    ``strict=True`` that case raises :class:`HorizonExceeded` instead.
    """
    return _exit_time(path, domain, mode, strict, left=False)


def exit_time_left(path: CadlagPath, domain: Domain, mode="open-hit", strict=False) -> float:
    """Exit time of the left-limit version of the path, inf{t>0 : w-(t) not in B}."""
    return _exit_time(path, domain, mode, strict, left=True)


def _exit_time(path, domain, mode, strict, left):
    membership = _MODE_MEMBERSHIP[mode]
    if mode == "entrance" and not domain.contains(path.points[0], "open"):
        return 0.0
    if path.kind == "flow":  # continuous: value and left limit coincide
        tau = _flow_exit(path.flow, domain, membership)
    else:
        tau = _skeleton_exit(path, domain, membership, left)
    if strict and tau == math.inf:
        raise HorizonExceeded(path.horizon)
    return float(tau)


def exit_point(path: CadlagPath, domain: Domain, mode="closure-hit") -> np.ndarray:
    """Path value (right-continuous) at the exit time; requires a finite exit."""
    tau = exit_time(path, domain, mode, strict=True)
    return evaluate(path, tau)


def shift(path: CadlagPath, h) -> CadlagPath:
    """Time shift: (shift(path, h))(s) = path(h + s)."""
    h = float(h)
    if h < 0:
        raise ValueError("shift requires h >= 0")
    if h == 0.0:
        return path
    if path.kind == "flow":
        return flow_path(path.flow.shifted(h))
    keep = path.times > h + _TIME_TOL
    # a knot within the tolerance after h is taken as at h, so a jump there is kept
    near = np.flatnonzero(~keep & (path.times > h))
    start = path.points[near[-1]] if near.size else evaluate(path, h)
    new_times = np.concatenate([[0.0], path.times[keep] - h])
    new_points = np.vstack([start.reshape(1, -1), path.points[keep]])
    offset = int(np.argmax(keep)) if keep.any() else len(path.times)
    new_jumps = {}
    for k, pre in path.jumps.items():
        if path.times[k] > h + _TIME_TOL:
            new_jumps[k - offset + 1] = pre
    if path.kind == "step":
        return CadlagPath("step", new_times, new_points)
    return CadlagPath("linear", new_times, new_points, new_jumps)

