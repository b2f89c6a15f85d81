"""Cadlag path skeletons and the path-level exit operators.

Three concrete path kinds stand in for general right-continuous paths with
left limits:

* ``step``    piecewise constant, value jumps at every knot;
* ``linear``  piecewise linear between knots, with optionally marked jump
              knots whose pre-jump value is stored explicitly;
* ``flow``    a closed-form trajectory with polynomial coordinates
              (continuous, so value and left limit coincide).

Exit times are infima over ``t > 0``, evaluated exactly: within a segment the
coordinates are polynomials in time, so every crossing of a domain face is a
polynomial root.  Candidate points generated by a face root are tested with
that coordinate placed exactly on the face, which makes single-instant
touches of a boundary (the mechanism that separates leaving an open set from
leaving its closure) detectable in floating point.

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
from .geometry import Domain

_TIME_TOL = 1e-12


# ---------------------------------------------------------------------------
# Closed-form flows.


class Flow:
    """Closed-form trajectory with polynomial coordinate functions."""

    name = "flow"
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

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantVelocityFlow(Flow):
    """x(t) = x0 + velocity * t."""

    x0: np.ndarray
    velocity: np.ndarray
    name = "constant-velocity"

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

    def to_config(self):
        return {"name": self.name, "x0": self.x0.tolist(), "velocity": self.velocity.tolist()}


@dataclass(frozen=True)
class ParabolicFlow(Flow):
    """Integral curves of the planar field b(x) = (1, 2 x1).

    x1(t) = x1 + t and x2(t) = x2 - x1^2 + x1(t)^2, so trajectories ride
    parabolas x2 = x1^2 + const.
    """

    x0: np.ndarray
    name = "parabolic"

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

    def to_config(self):
        return {"name": self.name, "x0": self.x0.tolist()}


def flow_from_config(cfg: dict) -> Flow:
    name = cfg.get("name")
    if name == "constant-velocity":
        return ConstantVelocityFlow(np.asarray(cfg["x0"], float), np.asarray(cfg["velocity"], float))
    if name == "parabolic":
        return ParabolicFlow(np.asarray(cfg["x0"], float))
    raise ValueError(f"unknown flow {name!r}")


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
# Exact segment-wise exit scan.


def _real_roots(coefs, lo, hi):
    """Real roots of a polynomial inside [lo, hi]; hi=None means unbounded."""
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
        roots = [-c[0] / c[1]]
    elif deg == 2:
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
    else:
        rts = npoly.polyroots(c)
        roots = [float(r.real) for r in rts if abs(r.imag) <= 1e-9 * (1 + abs(r))]
    out = []
    for r in roots:
        if r < lo - _TIME_TOL:
            continue
        if hi is not None and r > hi + _TIME_TOL:
            continue
        out.append(min(max(r, lo), hi) if hi is not None else max(r, lo))
    return out


def _segments(path, left_mode):
    """Yield (t_lo, t_hi_or_None, coord_polys, incl_lo, incl_hi) in time order.

    Right-continuous scans use [t_k, t_{k+1}) segments; left-limit scans use
    (t_k, t_{k+1}].  The final segment is the absorbing constant tail (or the
    whole half line for flows).
    """
    if path.kind == "flow":
        yield 0.0, None, path.flow.coord_polys(), not left_mode, False
        return
    times = path.times
    n = len(times)
    for k in range(n - 1):
        t0, t1 = float(times[k]), float(times[k + 1])
        if path.kind == "step":
            polys = [np.array([v]) for v in path.points[k]]
        else:
            end = _segment_end_value(path, k)
            slope = (end - path.points[k]) / (t1 - t0)
            polys = [np.array([path.points[k][i] - slope[i] * t0, slope[i]]) for i in range(path.d)]
        yield t0, t1, polys, not left_mode, left_mode
    t0 = float(times[-1])
    polys = [np.array([v]) for v in path.points[-1]]
    yield t0, None, polys, not left_mode, False


def _outside(domain, point, mode, faces=()):
    p = np.array(point, dtype=float)
    for f in faces:
        # place the coordinate exactly on the face that generated this root,
        # so single-instant touches are classified exactly
        p = f.snap(p)
    return not domain.contains(p, mode)


def _scan_segment(domain, mode, t0, t1, polys, incl_lo, incl_hi):
    """Earliest time in this segment at which the path is outside, or None."""
    faces = domain.faces()
    if faces is None:
        faces = []
    root_faces = {}
    for f in faces:
        for r in _real_roots(f.crossing_poly(polys), t0, t1):
            for known in root_faces:
                if abs(r - known) <= _TIME_TOL * (1.0 + abs(known)):
                    root_faces[known].append(f)
                    break
            else:
                root_faces[r] = [f]
    breaks = sorted(root_faces)
    if not breaks or abs(breaks[0] - t0) > _TIME_TOL * (1 + abs(t0)):
        breaks.insert(0, t0)
    else:
        breaks[0] = t0
    if t1 is not None and (not breaks or abs(breaks[-1] - t1) > _TIME_TOL * (1 + abs(t1))):
        breaks.append(t1)

    def value_at(t):
        return np.array([npoly.polyval(t, c) for c in polys])

    def face_list(t):
        for r, fs in root_faces.items():
            if abs(r - t) <= _TIME_TOL * (1.0 + abs(t)):
                return fs
        return ()

    for i, b in enumerate(breaks):
        is_lo = i == 0
        is_hi = t1 is not None and i == len(breaks) - 1
        candidate = b > 0 and not (is_lo and not incl_lo) and not (is_hi and not incl_hi)
        if candidate and _outside(domain, value_at(b), mode, face_list(b)):
            return b
        nxt = breaks[i + 1] if i + 1 < len(breaks) else (None if t1 is None else t1)
        if nxt is None:
            mid = b + 1.0  # membership is constant beyond the last crossing
        elif nxt - b <= _TIME_TOL:
            continue
        else:
            mid = 0.5 * (b + nxt)
        if _outside(domain, value_at(mid), mode):
            return max(b, 0.0)
        if nxt is None:
            return None
    return None


_MODE_MEMBERSHIP = {"open-hit": "open", "closure-hit": "closure", "entrance": "open"}


def exit_time(path: CadlagPath, domain: Domain, mode="closure-hit", strict=False) -> float:
    """First time strictly after 0 at which the path is outside the set.

    ``open-hit`` uses the open set, ``closure-hit`` its closure, and
    ``entrance`` is the inf over t >= 0 (so a start outside the open set
    exits at time 0).  Returns ``math.inf`` when the path never leaves within
    its skeleton (exact under the absorbing-tail convention); with
    ``strict=True`` that case raises :class:`HorizonExceeded` instead.
    """
    membership = _MODE_MEMBERSHIP[mode]
    if mode == "entrance" and not domain.contains(evaluate(path, 0.0), "open"):
        return 0.0
    for t0, t1, polys, incl_lo, incl_hi in _segments(path, left_mode=False):
        hit = _scan_segment(domain, membership, t0, t1, polys, incl_lo, incl_hi)
        if hit is not None:
            return float(hit)
    if strict:
        raise HorizonExceeded(path.horizon)
    return math.inf


def exit_time_left(path: CadlagPath, domain: Domain, mode="open-hit", strict=False) -> float:
    """Exit time of the left-limit version of the path, inf{t>0 : w-(t) not in B}."""
    membership = _MODE_MEMBERSHIP[mode]
    for t0, t1, polys, incl_lo, incl_hi in _segments(path, left_mode=True):
        hit = _scan_segment(domain, membership, t0, t1, polys, incl_lo, incl_hi)
        if hit is not None:
            return float(hit)
    if strict:
        raise HorizonExceeded(path.horizon)
    return math.inf


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
    new_times = np.concatenate([[0.0], path.times[keep] - h])
    new_points = np.vstack([evaluate(path, h).reshape(1, -1), path.points[keep]])
    offset = int(np.argmax(keep)) if keep.any() else len(path.times)
    new_jumps = {}
    for k, pre in path.jumps.items():
        if path.times[k] > h + _TIME_TOL:
            new_jumps[k - offset + 1] = pre
    if path.kind == "step":
        return CadlagPath("step", new_times, new_points)
    return CadlagPath("linear", new_times, new_points, new_jumps)


# ---------------------------------------------------------------------------
# JSON golden-file shape.


def path_to_json(path: CadlagPath) -> dict:
    """Serializable shape {kind, times, points, jumps[, flow]}."""
    doc = {
        "kind": path.kind,
        "times": path.times.tolist(),
        "points": path.points.tolist(),
        "jumps": [{"index": k, "pre": v.tolist()} for k, v in sorted(path.jumps.items())],
    }
    if path.kind == "flow":
        doc["flow"] = path.flow.to_config()
    return doc


def path_from_json(doc: dict) -> CadlagPath:
    kind = doc["kind"]
    if kind == "flow":
        return flow_path(flow_from_config(doc["flow"]))
    jumps = {int(j["index"]): np.asarray(j["pre"], float) for j in doc.get("jumps", [])}
    return CadlagPath(kind, np.asarray(doc["times"], float), np.asarray(doc["points"], float), jumps)
