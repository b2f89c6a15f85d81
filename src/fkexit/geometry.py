"""Bounded open domains with open/closure membership and exit-solver metadata.

Shapes form a closed set (interval, box, ball, cylinder) because the exact
exit-time machinery needs per-face crossing polynomials and the regularity
rules need exterior-cone witnesses.  ``PredicateDomain`` is the escape hatch
for arbitrary membership tests; it disables both.

Membership is decided by exact inequalities only.  A point sitting within
1e-12 of a face is classified by the strict/non-strict rule of the queried
mode, never snapped; the distinction between leaving an open set and leaving
its closure is the whole point of the exit operators built on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionMismatch, NoConeData, as_float, as_floats, require_key

_BOUNDARY_TOL = 1e-12


def _as_points(x, d):
    """Coerce to an (n, d) float array; returns (array, was_single_point)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.shape[-1] != d:
        raise DimensionMismatch(f"point dimension {arr.shape[-1]} != domain dimension {d}")
    single = np.asarray(x).ndim <= 1
    return arr, single


# ---------------------------------------------------------------------------
# Faces: crossing polynomials for the exact exit-time solver, and closed-form
# crossings of linear segments for the simulation engine.


@dataclass(frozen=True)
class AxisFace:
    """Hyperplane face {x[axis] = value}; the domain lies on the side opposite ``side``.

    ``side`` is -1 for a lower face (inside is x[axis] > value) and +1 for an
    upper face (inside is x[axis] < value).
    """

    axis: int
    value: float
    side: int

    def crossing_poly(self, coord_polys):
        p = np.atleast_1d(np.asarray(coord_polys[self.axis], dtype=float)).copy()
        p[0] -= self.value
        return p

    def snap(self, x):
        """x (a point or an (m, d) batch) moved onto the face along its axis."""
        y = np.array(x, dtype=float)
        y[..., self.axis] = self.value
        return y

    def distance(self, x):
        """Signed distance of the (m, d) points x to the face, positive on the domain's side."""
        return self.side * (self.value - x[:, self.axis])

    def segment_crossing(self, a, b, mode="open"):
        """(s, x) of the (m, d) segments a -> b: the fraction in [0, 1] where each
        meets the face, and the point snapped on it.  s is inf where b lies
        inside the face: strictly inside under ``mode="open"``, on or inside it
        under "closure".

        A segment that runs along the face (both ends on it) meets it at s = 0.
        """
        ai, bi = a[:, self.axis], b[:, self.axis]
        rel = bi - ai
        depth = self.distance(b)
        beyond = depth < 0 if mode == "closure" else depth <= 0
        s = np.divide(self.value - ai, rel, out=np.zeros(len(a)), where=beyond & (rel != 0))
        s = np.where(beyond, np.clip(s, 0.0, 1.0), np.inf)
        x = a + np.minimum(s, 1.0)[:, None] * (b - a)
        x[:, self.axis] = self.value
        return s, x


@dataclass(frozen=True)
class SphereFace:
    """Sphere face {|x[axes] - center| = radius}."""

    center: tuple
    radius: float
    axes: tuple

    def crossing_poly(self, coord_polys):
        from numpy.polynomial import polynomial as P

        acc = np.array([-self.radius**2])
        for k, ax in enumerate(self.axes):
            q = np.atleast_1d(np.asarray(coord_polys[ax], dtype=float)).copy()
            q[0] -= self.center[k]
            acc = P.polyadd(acc, P.polymul(q, q))
        return acc

    def snap(self, x):
        y = np.array(x, dtype=float)
        c = np.asarray(self.center)
        rel = y[list(self.axes)] - c
        nrm = np.linalg.norm(rel)
        if nrm > 0:
            y[list(self.axes)] = c + rel * (self.radius / nrm)
        else:
            y[list(self.axes)] = c + np.eye(len(self.axes))[0] * self.radius
        return y

    def segment_crossing(self, a, b, mode="open"):
        """(s, x) of the (m, d) segments a -> b: the fraction in [0, 1] where each
        leaves the sphere, and the point projected radially onto it (row-wise,
        unlike :meth:`snap`).  s is inf where b lies inside as in
        :meth:`AxisFace.segment_crossing`, and 0 for a point (a == b)."""
        ax = list(self.axes)
        c = np.asarray(self.center)
        rel = b[:, ax] - a[:, ax]
        ca = a[:, ax] - c
        aa = np.einsum("ij,ij->i", rel, rel)
        bb = 2.0 * np.einsum("ij,ij->i", ca, rel)
        cc = np.einsum("ij,ij->i", ca, ca) - self.radius**2
        disc = np.maximum(bb * bb - 4 * aa * cc, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (-bb + np.sqrt(disc)) / (2 * aa)
        s = np.clip(np.where(np.isfinite(s), s, 1.0), 0.0, 1.0)
        s[aa == 0.0] = 0.0
        x = a + s[:, None] * (b - a)
        d = x[:, ax] - c
        nrm = np.linalg.norm(d, axis=1, keepdims=True)
        x[:, ax] = c + d * (self.radius / np.maximum(nrm, 1e-300))
        rb = np.linalg.norm(b[:, ax] - c, axis=-1)
        s[rb <= self.radius if mode == "closure" else rb < self.radius] = np.inf
        return s, x


def segment_crossing(domain, a, b, mode="open"):
    """(s, x): first face-crossing fraction of the (m, d) segments a -> b and the snapped point.

    A face counts where b lies on or past it (``mode="open"``), or strictly
    past it ("closure": a segment along one face leaving through another is
    placed at the other).  With a in the closure and b outside the ``mode``
    set, the earliest count over ``domain.faces()`` is the exit of these
    convex shapes; s is inf where none counts, and ties go to the earlier
    face.  A domain without faces exits at the segment end, s = 1.
    """
    faces = domain.faces()
    if faces is None:
        return np.ones(len(a)), b.copy()
    s, x = faces[0].segment_crossing(a, b, mode)
    for face in faces[1:]:
        sf, xf = face.segment_crossing(a, b, mode)
        better = sf < s
        s[better] = sf[better]
        x[better] = xf[better]
    return s, x


# ---------------------------------------------------------------------------
# Cones (exterior cone condition witnesses).


@dataclass(frozen=True)
class Cone:
    """Solid truncated cone {y : y.v > |y| cos(theta), |y| < radius}."""

    direction: np.ndarray
    aperture: float
    radius: float

    def __post_init__(self):
        v = np.asarray(self.direction, dtype=float)
        object.__setattr__(self, "direction", v / np.linalg.norm(v))
        if not 0 < self.aperture < np.pi:
            raise ValueError("aperture must lie in (0, pi)")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def contains(self, y):
        y = np.asarray(y, dtype=float)
        pts = y.reshape(-1, self.direction.size)
        dots = pts @ self.direction
        norms = np.linalg.norm(pts, axis=-1)
        inside = (dots > norms * np.cos(self.aperture)) & (norms < self.radius)
        return bool(inside[0]) if y.ndim == 1 else inside

    def sample(self, n, rng: np.random.Generator):
        """n points of the truncated cone by rejection from the ball."""
        d = self.direction.size
        out = np.empty((n, d))
        have = 0
        while have < n:
            cand = rng.standard_normal((4 * n, d))
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            cand *= self.radius * rng.uniform(0, 1, size=(4 * n, 1)) ** (1.0 / d)
            keep = cand[self.contains(cand)]
            take = min(n - have, len(keep))
            out[have : have + take] = keep[:take]
            have += take
        return out


# ---------------------------------------------------------------------------
# Domains.


class Domain:
    """Bounded open set with open/closure membership tests."""

    d: int

    def contains(self, x, mode="open"):
        """Membership of x (a single point, or any (..., d) array such as the
        engine's (na, nb, d) knots) in O or its closure, shaped like x[..., 0]."""
        pts, single = _as_points(x, self.d)
        if mode == "open":
            res = self._inside(pts, strict=True)
        elif mode == "closure":
            res = self._inside(pts, strict=False)
        else:
            raise ValueError(f"unknown membership mode {mode!r}")
        return bool(res[0]) if single else res

    def on_boundary(self, x):
        pts, single = _as_points(x, self.d)
        res = self._inside(pts, strict=False) & ~self._inside(pts, strict=True)
        return bool(res[0]) if single else res

    def bounding_box(self):
        raise NotImplementedError

    def faces(self):
        """Faces of the boundary (crossing polynomials, segment crossings); None if unsupported."""
        return None

    def exterior_cone(self, x) -> Cone:
        raise NoConeData(f"{type(self).__name__} has no built-in exterior cone data")

    def sample_boundary(self, n, rng: np.random.Generator):
        raise NotImplementedError

    def _inside(self, pts, strict):
        raise NotImplementedError


@dataclass(frozen=True)
class Box(Domain):
    """Axis-aligned open box prod_i (lo_i, hi_i)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or not (np.isfinite([lo, hi]).all() and (lo < hi).all()):
            raise ConfigError(f"box lo={lo.tolist()}, hi={hi.tolist()} needs finite lo < hi "
                              "on every axis, e.g. lo=[0.0], hi=[1.0]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def d(self):
        return self.lo.size

    def _inside(self, pts, strict):
        lo, hi = self.lo, self.hi
        ok = np.ones(pts.shape[:-1], dtype=bool)
        for i in range(self.d):
            x = pts[..., i]
            ok &= (x > lo[i]) & (x < hi[i]) if strict else (x >= lo[i]) & (x <= hi[i])
        return ok

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()

    def faces(self):
        out = []
        for i in range(self.d):
            out.append(AxisFace(i, float(self.lo[i]), -1))
            out.append(AxisFace(i, float(self.hi[i]), 1))
        return out

    def exterior_cone(self, x):
        # gate with the boundary tolerance: sampled boundary points may sit a
        # few ulp off the exact face
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x < self.lo - _BOUNDARY_TOL) or np.any(x > self.hi + _BOUNDARY_TOL):
            raise NoConeData("exterior cone requested off the boundary")
        normal = np.zeros(self.d)
        active = 0
        for i in range(self.d):
            if abs(x[i] - self.lo[i]) <= _BOUNDARY_TOL:
                normal[i] -= 1.0
                active += 1
            elif abs(x[i] - self.hi[i]) <= _BOUNDARY_TOL:
                normal[i] += 1.0
                active += 1
        if active == 0:
            raise NoConeData("point is off every face to 1e-12")
        theta = np.pi / 4 if active == 1 else np.pi / 8
        radius = 0.5 * float(np.min(self.hi - self.lo))
        return Cone(normal, theta, radius)

    def sample_boundary(self, n, rng: np.random.Generator):
        """Stratified over faces, proportionally to face measure."""
        if self.d == 1:
            pts = np.empty((n, 1))
            pts[0::2, 0] = self.lo[0]
            pts[1::2, 0] = self.hi[0]
            return pts
        sides = self.hi - self.lo
        total = np.prod(sides)
        measures = np.repeat([total / s for s in sides], 2)
        counts = np.floor(n * measures / measures.sum()).astype(int)
        while counts.sum() < n:
            counts[int(np.argmax(measures / np.maximum(counts, 1)))] += 1
        pts = []
        for f, cnt in enumerate(counts):
            axis, side = divmod(f, 2)
            for _ in range(cnt):
                p = self.lo + rng.uniform(0, 1, self.d) * sides
                p[axis] = self.lo[axis] if side == 0 else self.hi[axis]
                pts.append(p)
        return np.array(pts[:n])


def Interval(a, b) -> Box:
    """One-dimensional open interval (a, b)."""
    return Box(np.array([a]), np.array([b]))


@dataclass(frozen=True)
class Ball(Domain):
    """Open ball {|x - center| < radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        object.__setattr__(self, "center", c)
        if not (np.isfinite(c).all() and np.isfinite(self.radius) and self.radius > 0):
            raise ConfigError(f"ball center={c.tolist()}, radius={self.radius} needs a finite "
                              "center and a finite positive radius, e.g. [0.0] and 1.0")

    @property
    def d(self):
        return self.center.size

    def _inside(self, pts, strict):
        # |x - c|^2 summed in axis order, as np.linalg.norm does: bit for bit the norm
        dist = (pts[..., 0] - self.center[0]) ** 2
        for i in range(1, self.d):
            dist += (pts[..., i] - self.center[i]) ** 2
        np.sqrt(dist, out=dist)
        return dist < self.radius if strict else dist <= self.radius

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def faces(self):
        return [SphereFace(tuple(self.center), float(self.radius), tuple(range(self.d)))]

    def exterior_cone(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if abs(np.linalg.norm(x - self.center) - self.radius) > _BOUNDARY_TOL:
            raise NoConeData("exterior cone requested off the boundary")
        return Cone(x - self.center, np.pi / 4, self.radius / 2)

    def sample_boundary(self, n, rng: np.random.Generator):
        if self.d == 1:
            dirs = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)[:, None]
        elif self.d == 2:
            # stratified in angle
            ang = 2 * np.pi * (np.arange(n) + rng.uniform(0, 1, n)) / n
            dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        else:
            dirs = rng.standard_normal((n, self.d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = self.center + self.radius * dirs
        # rounding can leave a point outside the closure: step it inward an ulp at a time
        out = ~self._inside(pts, strict=False)
        while out.any():
            pts[out] = np.nextafter(pts[out], self.center)
            out = ~self._inside(pts, strict=False)
        return pts


@dataclass(frozen=True)
class Cylinder(Domain):
    """Space-time cylinder (0, T) x base; points are (t, x).

    Open membership is false on the t = T lid, matching the convention that
    the lateral data set (the non-stationary boundary) contains {T} x base.
    """

    T: float
    base: Domain

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise ConfigError(f"cylinder T={self.T} must be finite and positive, e.g. 1.0")

    @property
    def d(self):
        return 1 + self.base.d

    def _inside(self, pts, strict):
        t = pts[..., 0]
        if strict:
            tin = (t > 0) & (t < self.T)
        else:
            tin = (t >= 0) & (t <= self.T)
        return tin & self.base._inside(pts[..., 1:], strict)

    def bounding_box(self):
        blo, bhi = self.base.bounding_box()
        return np.concatenate([[0.0], blo]), np.concatenate([[self.T], bhi])

    def faces(self):
        base_faces = self.base.faces()
        if base_faces is None:
            return None
        out = [AxisFace(0, 0.0, -1), AxisFace(0, float(self.T), 1)]
        for f in base_faces:
            if isinstance(f, AxisFace):
                out.append(AxisFace(f.axis + 1, f.value, f.side))
            elif isinstance(f, SphereFace):
                out.append(SphereFace(f.center, f.radius, tuple(a + 1 for a in f.axes)))
        return out

    def sample_boundary(self, n, rng: np.random.Generator):
        """Lids and lateral surface, split by a fixed measure convention."""
        blo, bhi = self.base.bounding_box()
        lid_measure = 2.0 * float(np.prod(bhi - blo))
        lat_measure = 2.0 * self.T * max(self.base.d, 1)
        n_lid = int(round(n * lid_measure / (lid_measure + lat_measure)))
        pts = np.empty((n, self.d))
        for i in range(n_lid):
            x = self._sample_base_interior(rng)
            pts[i, 0] = 0.0 if i % 2 == 0 else self.T
            pts[i, 1:] = x
        lat = self.base.sample_boundary(n - n_lid, rng) if n > n_lid else np.empty((0, self.base.d))
        for j in range(n - n_lid):
            pts[n_lid + j, 0] = rng.uniform(0, self.T)
            pts[n_lid + j, 1:] = lat[j]
        return pts

    def _sample_base_interior(self, rng):
        blo, bhi = self.base.bounding_box()
        while True:
            x = blo + rng.uniform(0, 1, self.base.d) * (bhi - blo)
            if self.base.contains(x, "open"):
                return x


@dataclass(frozen=True)
class PredicateDomain(Domain):
    """Membership-only domain. No crossing polynomials, no cone data."""

    d: int
    open_test: callable
    closure_test: callable
    box_lo: np.ndarray = field(default=None)
    box_hi: np.ndarray = field(default=None)

    def _inside(self, pts, strict):
        test = self.open_test if strict else self.closure_test
        flat = pts.reshape(-1, self.d)
        return np.array([bool(test(p)) for p in flat], dtype=bool).reshape(pts.shape[:-1])

    def bounding_box(self):
        if self.box_lo is None:
            raise ValueError("PredicateDomain built without a bounding box")
        return np.asarray(self.box_lo, float), np.asarray(self.box_hi, float)


# ---------------------------------------------------------------------------
# The 2-d rectangle of the parabolic-flow benchmark.


def parabolic_rect() -> Box:
    """The rectangle (-1, 1) x (0, 1) used by the parabolic-flow benchmark."""
    return Box(np.array([-1.0, 0.0]), np.array([1.0, 1.0]))


def parabolic_curve(n):
    """Points on {x2 = x1^2, -1 < x1 < 0}, the value function's jump locus."""
    x1 = np.linspace(-1.0, 0.0, n + 2)[1:-1]
    return np.stack([x1, x1**2], axis=1)


def domain_to_config(domain: Domain) -> dict:
    """JSON-serializable description, inverse of :func:`domain_from_config`."""
    if isinstance(domain, Box):
        return {"shape": "box", "lo": domain.lo.tolist(), "hi": domain.hi.tolist()}
    if isinstance(domain, Ball):
        return {"shape": "ball", "center": domain.center.tolist(), "radius": domain.radius}
    if isinstance(domain, Cylinder):
        return {"shape": "cylinder", "T": domain.T, "base": domain_to_config(domain.base)}
    raise ValueError(f"{type(domain).__name__} is not serializable")


def domain_from_config(cfg: dict) -> Domain:
    """Domain of shape ``cfg["shape"]``; ConfigError for an unknown shape or a missing key."""
    shape = cfg.get("shape")

    def key(k, example, convert=as_float):
        return require_key(cfg, k, f"domain shape {shape!r} needs it, e.g. {example}", convert)

    if shape == "box":
        return Box(key("lo", '"lo": [0.0, 0.0]', as_floats),
                   key("hi", '"hi": [1.0, 1.0]', as_floats))
    if shape == "interval":
        return Interval(key("a", '"a": 0'), key("b", '"b": 1'))
    if shape == "ball":
        return Ball(key("center", '"center": [0.0, 0.0]', as_floats),
                    key("radius", '"radius": 1.0'))
    if shape == "cylinder":
        base = key("base", '"base": {"shape": "interval", "a": -1, "b": 1}', dict)
        return Cylinder(key("T", '"T": 1.0'), domain_from_config(base))
    if shape == "parabolic-rect":
        return parabolic_rect()
    raise ConfigError(f"unknown domain shape {shape!r}; use one of "
                      "['box', 'interval', 'ball', 'cylinder', 'parabolic-rect']")
