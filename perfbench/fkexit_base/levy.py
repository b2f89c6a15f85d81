"""Process specifications and path simulation.

Noise normalization: every stable sampler here produces the *standard*
law with characteristic function E[exp(i u . S)] = exp(-|u|^alpha), i.e. the
normalizing constant in the exponent is c0 = 1.  The singular-integral and
spectral forms of the fractional Laplacian in :mod:`fkexit.pde_oracle` use the
matching symbol |xi|^alpha, so the generator of ``dX = b dt + sigma dJ`` is
exactly ``b . grad - |sigma|^alpha (-Lap)^(alpha/2)``.  Cross-module agreement
is asserted by test, not assumed.

Isotropic vectors are sampled by Gaussian subordination: X = sqrt(2 T) Z with
Z standard normal and T a positive (alpha/2)-stable variate with Laplace
transform exp(-s^(alpha/2)), drawn by Kanter's method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStep
from .paths import CadlagPath, ConstantVelocityFlow, Flow, ParabolicFlow, flow_path, linear_path
from .rng import RngStream, as_stream

# Euler increments whose noise part exceeds this many sigma h^(1/alpha) are
# marked as jump knots.  Heuristic, used only for left-limit semantics on
# simulated paths; exact left-limit tests run on analytic paths.
JUMP_MARK_FACTOR = 6.0


# ---------------------------------------------------------------------------
# Drift fields.


class DriftField:
    """Vector field b(x); callables are vectorized over (n, d) inputs."""

    name = "drift"

    def __call__(self, x):
        raise NotImplementedError

    @property
    def is_zero(self):
        return False

    def flow_from(self, x0) -> Flow | None:
        """Closed-form integral curve from x0, if one is known."""
        return None

    def to_config(self):
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantDrift(DriftField):
    velocity: np.ndarray
    name = "constant"

    def __post_init__(self):
        object.__setattr__(self, "velocity", np.atleast_1d(np.asarray(self.velocity, float)))

    def __call__(self, x):
        x = np.asarray(x, float)
        return np.broadcast_to(self.velocity, x.shape).copy()

    @property
    def is_zero(self):
        return bool(np.all(self.velocity == 0))

    def flow_from(self, x0):
        return ConstantVelocityFlow(x0, self.velocity)

    def to_config(self):
        return {"name": "constant", "velocity": self.velocity.tolist()}


def ZeroDrift(d) -> ConstantDrift:
    return ConstantDrift(np.zeros(d))


@dataclass(frozen=True)
class AffineDrift(DriftField):
    """b(x) = A x + c."""

    A: np.ndarray
    c: np.ndarray
    name = "affine"

    def __post_init__(self):
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, float)))
        object.__setattr__(self, "c", np.atleast_1d(np.asarray(self.c, float)))

    def __call__(self, x):
        x = np.asarray(x, float)
        return x @ self.A.T + self.c

    def to_config(self):
        return {"name": "affine", "A": self.A.tolist(), "c": self.c.tolist()}


@dataclass(frozen=True)
class ParabolicDrift(DriftField):
    """Planar field b(x) = (1, 2 x1); its flow rides parabolas x2 = x1^2 + C."""

    name = "parabolic"

    def __call__(self, x):
        x = np.asarray(x, float)
        out = np.empty_like(x)
        out[..., 0] = 1.0
        out[..., 1] = 2.0 * x[..., 0]
        return out

    def flow_from(self, x0):
        return ParabolicFlow(x0)

    def to_config(self):
        return {"name": "parabolic"}


@dataclass(frozen=True)
class TimeAugmentedDrift(DriftField):
    """Drift of the time-extended process y = (t, x): dy = (1, b(x)) dt."""

    base: DriftField
    name = "time-augmented"

    def __call__(self, y):
        y = np.asarray(y, float)
        out = np.empty_like(y)
        out[..., 0] = 1.0
        out[..., 1:] = self.base(y[..., 1:])
        return out

    def to_config(self):
        return {"name": "time-augmented", "base": self.base.to_config()}


@dataclass(frozen=True)
class CallableDrift(DriftField):
    """Escape hatch for custom coefficients; not serializable."""

    fn: callable
    name = "custom"

    def __call__(self, x):
        x = np.asarray(x, float)
        if x.ndim == 1:
            return np.asarray(self.fn(x), float)
        return np.asarray([self.fn(p) for p in x], float)


def drift_from_config(cfg: dict) -> DriftField:
    name = cfg.get("name")
    if name == "constant":
        return ConstantDrift(np.asarray(cfg["velocity"], float))
    if name == "zero":
        return ZeroDrift(int(cfg["d"]))
    if name == "affine":
        return AffineDrift(np.asarray(cfg["A"], float), np.asarray(cfg["c"], float))
    if name == "parabolic":
        return ParabolicDrift()
    if name == "time-augmented":
        return TimeAugmentedDrift(drift_from_config(cfg["base"]))
    raise ValueError(f"unknown drift {name!r}")


# ---------------------------------------------------------------------------
# Noise.


@dataclass(frozen=True)
class NoNoise:
    kind = "none"

    def to_config(self):
        return {"kind": "none"}


@dataclass(frozen=True)
class BrownianNoise:
    eps: float
    kind = "brownian"

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be >= 0")

    def to_config(self):
        return {"kind": "brownian", "eps": self.eps}


@dataclass(frozen=True)
class StableNoise:
    alpha: float
    sigma: float
    kind = "stable"

    def __post_init__(self):
        if not 0 < self.alpha < 2:
            raise ValueError("alpha must lie strictly in (0, 2); the Brownian "
                             "case is a separate noise kind")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    def to_config(self):
        return {"kind": "stable", "alpha": self.alpha, "sigma": self.sigma}


def noise_from_config(cfg: dict):
    kind = cfg.get("kind")
    if kind == "none":
        return NoNoise()
    if kind == "brownian":
        return BrownianNoise(float(cfg["eps"]))
    if kind == "stable":
        return StableNoise(float(cfg["alpha"]), float(cfg["sigma"]))
    raise ValueError(f"unknown noise kind {kind!r}")


@dataclass(frozen=True)
class ProcessSpec:
    """Drift plus noise defining dX = b(X) dt + noise increments.

    ``noise_offset`` restricts the noise to coordinates [offset:]; the
    time-extended process of a non-stationary problem uses offset 1 so the
    clock coordinate stays deterministic.
    """

    drift: DriftField
    noise: object
    d: int
    noise_offset: int = 0

    @property
    def is_deterministic(self):
        if isinstance(self.noise, NoNoise):
            return True
        if isinstance(self.noise, BrownianNoise):
            return self.noise.eps == 0.0
        if isinstance(self.noise, StableNoise):
            return self.noise.sigma == 0.0
        return False

    def flow_from(self, x0) -> Flow | None:
        if not self.is_deterministic:
            return None
        return self.drift.flow_from(np.atleast_1d(np.asarray(x0, float)))

    def to_config(self):
        return {
            "drift": self.drift.to_config(),
            "noise": self.noise.to_config(),
            "d": self.d,
            "noise_offset": self.noise_offset,
        }


def spec_from_config(cfg: dict) -> ProcessSpec:
    drift_cfg = dict(cfg["drift"])
    drift_cfg.setdefault("d", cfg["d"])
    return ProcessSpec(
        drift_from_config(drift_cfg),
        noise_from_config(cfg["noise"]),
        int(cfg["d"]),
        int(cfg.get("noise_offset", 0)),
    )


def lift_time(spec: ProcessSpec) -> ProcessSpec:
    """Spec of the (d+1)-dimensional process y = (t, X)."""
    return ProcessSpec(TimeAugmentedDrift(spec.drift), spec.noise, spec.d + 1, noise_offset=1)


# ---------------------------------------------------------------------------
# Stable samplers.

_TINY = 1e-300


def sample_symmetric_stable_1d(alpha, rng, size=None):
    """Standard symmetric alpha-stable draw(s), E[exp(iuS)] = exp(-|u|^alpha).

    Chambers-Mallows-Stuck transform of a uniform angle and an exponential.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n = 1 if size is None else int(size)
    u = gen.uniform(-np.pi / 2, np.pi / 2, size=n)
    w = np.maximum(gen.standard_exponential(n), _TINY)
    if alpha == 1.0:
        s = np.tan(u)
    else:
        s = (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
             * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha))
    return float(s[0]) if size is None else s


def sample_one_sided_stable(alpha, rng, size=None):
    """Positive alpha-stable draw(s) with E[exp(-sT)] = exp(-s^alpha), alpha in (0,1).

    Kanter's representation from a uniform angle on (0, pi) and an exponential.
    """
    if not 0 < alpha < 1:
        raise ValueError("one-sided stable index must lie in (0, 1)")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n = 1 if size is None else int(size)
    theta = np.clip(gen.uniform(0.0, np.pi, size=n), 1e-12, np.pi - 1e-12)
    w = np.maximum(gen.standard_exponential(n), _TINY)
    log_a = (alpha / (1 - alpha)) * np.log(np.sin(alpha * theta)) \
        + np.log(np.sin((1 - alpha) * theta)) \
        - (1.0 / (1 - alpha)) * np.log(np.sin(theta))
    t = np.exp((1 - alpha) / alpha * (log_a - np.log(w)))
    return float(t[0]) if size is None else t


def sample_isotropic_stable(alpha, d, rng, size=None):
    """Isotropic alpha-stable vector(s) in R^d, E[exp(iu.X)] = exp(-|u|^alpha)."""
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n = 1 if size is None else int(size)
    t = sample_one_sided_stable(alpha / 2.0, gen, size=n)
    z = gen.standard_normal((n, d))
    x = np.sqrt(2.0 * t)[:, None] * z
    return x[0] if size is None else x


def step_increments(spec: ProcessSpec, h, gen, m):
    """Noise increments for m simultaneous Euler steps; (m, d) array plus jump mask.

    Draw order per step is fixed (angle, exponential, normals) so that a
    single-trajectory stream and a batched stream produce identical paths.
    """
    d_noise = spec.d - spec.noise_offset
    noise = spec.noise
    out = np.zeros((m, spec.d))
    jump = np.zeros(m, dtype=bool)
    if isinstance(noise, NoNoise) or (isinstance(noise, BrownianNoise) and noise.eps == 0.0):
        return out, jump
    if isinstance(noise, BrownianNoise):
        z = gen.standard_normal((m, d_noise))
        out[:, spec.noise_offset:] = noise.eps * math.sqrt(h) * z
        return out, jump
    if isinstance(noise, StableNoise):
        if noise.sigma == 0.0:
            return out, jump
        xi = sample_isotropic_stable(noise.alpha, d_noise, gen, size=m)
        scale = noise.sigma * h ** (1.0 / noise.alpha)
        out[:, spec.noise_offset:] = scale * xi
        jump = np.linalg.norm(xi, axis=1) > JUMP_MARK_FACTOR
        return out, jump
    raise TypeError(f"unknown noise {noise!r}")


def simulate_path(spec: ProcessSpec, x0, h, horizon, rng) -> CadlagPath:
    """Euler path skeleton with knots t_k = k h up to the horizon.

    Deterministic specs return the closed-form flow when the drift has one
    (constant velocity, parabolic field), otherwise a linear skeleton driven
    by classical RK4 steps.  Noisy specs return a linear skeleton whose large
    stable increments are marked as jumps with their pre-jump drift endpoint.
    """
    if h <= 0:
        raise InvalidStep(f"step h={h} must be positive")
    if horizon < h:
        raise InvalidStep(f"horizon {horizon} shorter than one step {h}")
    x0 = np.atleast_1d(np.asarray(x0, float))
    if x0.size != spec.d:
        raise ValueError(f"x0 has dimension {x0.size}, spec has {spec.d}")

    flow = spec.flow_from(x0)
    if flow is not None:
        return flow_path(flow)

    n_steps = int(math.ceil(horizon / h - 1e-12))
    times = h * np.arange(n_steps + 1)
    points = np.empty((n_steps + 1, spec.d))
    points[0] = x0
    jumps = {}

    if spec.is_deterministic:
        for k in range(n_steps):
            points[k + 1] = _rk4_step(spec.drift, points[k], h)
        return linear_path(times, points)

    gen = as_stream(rng).generator()
    for k in range(n_steps):
        x = points[k]
        pre = x + spec.drift(x) * h
        incr, jump = step_increments(spec, h, gen, 1)
        points[k + 1] = pre + incr[0]
        if jump[0]:
            jumps[k + 1] = pre.copy()
    return linear_path(times, points, jumps)


def _rk4_step(b, x, h):
    k1 = b(x)
    k2 = b(x + 0.5 * h * k1)
    k3 = b(x + 0.5 * h * k2)
    k4 = b(x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
