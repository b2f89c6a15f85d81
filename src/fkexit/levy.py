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

# The block schedule (:func:`block_steps`): the engine and ``simulate_path``
# advance a path in blocks of FIRST_BLOCK_STEPS Euler steps, doubling per
# block up to max(BLOCK_STEPS, BLOCK_ELEMENTS // live rows).  Short first
# blocks spare small batches, most of whose paths exit within a few steps;
# the cap keeps a block within max(BLOCK_STEPS * rows, BLOCK_ELEMENTS) knots.
# Part of the reproducibility contract.
FIRST_BLOCK_STEPS = 16
BLOCK_STEPS = 128
BLOCK_ELEMENTS = 32768


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
        return np.full(np.shape(x), self.velocity)

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
    z *= np.sqrt(2.0 * t)[:, None]
    return z[0] if size is None else z


def _velocity(drift):
    """The value of a drift that does not depend on the state, else None."""
    if isinstance(drift, TimeAugmentedDrift):
        v = _velocity(drift.base)
        return None if v is None else np.concatenate([[1.0], v])
    return drift.velocity if isinstance(drift, ConstantDrift) else None


def block_steps(k, na, left):
    """Steps in block k of a chunk: min(16 * 2**k, max(128, 32768 // na), left).

    ``na`` is the number of rows the block advances and ``left`` the steps
    before the horizon; 16, 128 and 32768 are FIRST_BLOCK_STEPS, BLOCK_STEPS
    and BLOCK_ELEMENTS.  The lengths depend on nothing else, so a chunk
    draws the same stream whichever process runs it.
    """
    cap = max(BLOCK_STEPS, BLOCK_ELEMENTS // na)
    # the doubling passes the cap within cap.bit_length() blocks
    return min(FIRST_BLOCK_STEPS << min(k, cap.bit_length()), cap, left)


def euler_block(spec: ProcessSpec, pos, h, gen, nb):
    """(na, nb + 1, d) knots of nb Euler steps from the rows of pos, and (na, nb) jump marks.

    The one knot builder, for a noisy spec.  Noise is drawn first (stable
    increments by :func:`sample_isotropic_stable`); a state-independent drift
    step is added to every increment before one cumulative sum, any other
    drift is evaluated at each knot in turn: ``x + (b(x) h + dW)``.
    """
    noise = spec.noise
    na, d = pos.shape
    shape = (na, nb, d - spec.noise_offset)
    if isinstance(noise, BrownianNoise):
        dw = gen.standard_normal(shape)
        dw *= noise.eps * math.sqrt(h)
        jump = np.zeros((na, nb), dtype=bool)
    else:
        dw = sample_isotropic_stable(noise.alpha, shape[2], gen, size=na * nb).reshape(shape)
        jump = np.linalg.norm(dw, axis=2) > JUMP_MARK_FACTOR
        dw *= noise.sigma * h ** (1.0 / noise.alpha)
    if spec.noise_offset:  # the leading (clock) coordinates carry no noise
        dw = np.concatenate([np.zeros((na, nb, spec.noise_offset)), dw], axis=2)
    X = np.empty((na, nb + 1, d))
    X[:, 0] = pos
    v = _velocity(spec.drift)
    if v is not None:
        dw += v * h
        np.cumsum(dw, axis=1, out=dw)
        dw += pos[:, None, :]
        X[:, 1:] = dw
    else:
        for j in range(nb):
            X[:, j + 1] = X[:, j] + (spec.drift(X[:, j]) * h + dw[:, j])
    return X, jump


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

    # the engine's blocks for one row, so its exits are this skeleton's exits
    gen = as_stream(rng).generator()
    k0 = k = 0
    while k0 < n_steps:
        nb = block_steps(k, 1, n_steps - k0)
        X, jump = euler_block(spec, points[k0:k0 + 1], h, gen, nb)
        points[k0 + 1:k0 + nb + 1] = X[0, 1:]
        for j in np.flatnonzero(jump[0]):
            jumps[k0 + int(j) + 1] = X[0, j] + spec.drift(X[0, j:j + 1])[0] * h
        k0 += nb
        k += 1
    return linear_path(times, points, jumps)


def _rk4_step(b, x, h):
    k1 = b(x)
    k2 = b(x + 0.5 * h * k1)
    k3 = b(x + 0.5 * h * k2)
    k4 = b(x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
