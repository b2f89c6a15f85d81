"""Process specifications and path simulation.

Noise normalization: every stable sampler here produces the *standard*
law with characteristic function E[exp(i u . S)] = exp(-|u|^alpha), i.e. the
normalizing constant in the exponent is c0 = 1.  The singular-integral and
spectral forms of the fractional Laplacian in :mod:`fkexit.pde_oracle` use the
matching symbol |xi|^alpha, so the generator of ``dX = b dt + sigma dJ`` is
exactly ``b . grad - |sigma|^alpha (-Lap)^(alpha/2)``.  Cross-module agreement
is asserted by test, not assumed.

One-dimensional draws use the Chambers-Mallows-Stuck transform of one
uniform angle and one exponential.  Isotropic vectors in d >= 2 are sampled
by Gaussian subordination: X = sqrt(2 T) Z with Z standard normal and T a
positive (alpha/2)-stable variate with Laplace transform exp(-s^(alpha/2)),
drawn by Kanter's method.  Euler blocks follow the same split: a spec with
one noisy axis draws its increments by Chambers-Mallows-Stuck, one draw per
step, and a spec with more draws them by subordination.  A block whose rows
share their noise draws it once per path and gathers it to the rows.

Both transforms take sines and cosines of the drawn angle.  numpy's float64
``sin`` and ``cos`` are scalar loops (about 12 ns an element) while ``tan``
is vectorized (about 2 ns), so :func:`_sin_in_place` takes the tan
half-angle form 2t / (1 + t^2), t = tan(x/2), and :func:`_cos_in_place` the
sine of pi/2 - |x|; both agree with libm to a few ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, InvalidStep, as_float, as_floats, as_int, check_inputs,
                     check_start, require_key)
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
# the cap keeps a block within max(BLOCK_STEPS * rows, BLOCK_ELEMENTS) knots,
# and a block of rows that share their noise within
# max(FIRST_BLOCK_STEPS * rows, BLOCK_ELEMENTS).
# Part of the reproducibility contract.
FIRST_BLOCK_STEPS = 16
BLOCK_STEPS = 128
BLOCK_ELEMENTS = 32768


# ---------------------------------------------------------------------------
# Drift fields.


class DriftField:
    """Vector field b(x); callables are vectorized over (n, d) inputs."""

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

    def __call__(self, y):
        y = np.asarray(y, float)
        out = np.empty_like(y)
        out[..., 0] = 1.0
        out[..., 1:] = self.base(y[..., 1:])
        return out

    def to_config(self):
        return {"name": "time-augmented", "base": self.base.to_config()}


def drift_from_config(cfg: dict) -> DriftField:
    """Drift named by ``cfg["name"]``; ConfigError for an unknown name or a missing key."""
    name = cfg.get("name")

    def key(k, example, convert=as_floats):
        return require_key(cfg, k, f"drift {name!r} needs it, e.g. {example}", convert)

    if name == "constant":
        return ConstantDrift(key("velocity", '"velocity": [1.0]'))
    if name == "zero":
        return ZeroDrift(key("d", '"d": 1', as_int))
    if name == "affine":
        return AffineDrift(key("A", '"A": [[-1.0]]'), key("c", '"c": [0.0]'))
    if name == "parabolic":
        return ParabolicDrift()
    if name == "time-augmented":
        return TimeAugmentedDrift(drift_from_config(key("base", '"base": {"name": "zero"}', dict)))
    raise ConfigError(f"unknown drift {name!r}; use one of "
                      "['constant', 'zero', 'affine', 'parabolic', 'time-augmented']")


# ---------------------------------------------------------------------------
# Noise.


@dataclass(frozen=True)
class NoNoise:
    def to_config(self):
        return {"kind": "none"}


@dataclass(frozen=True)
class BrownianNoise:
    eps: float

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ConfigError(f"Brownian eps={self.eps} must be a finite number >= 0, e.g. 1.0")

    def to_config(self):
        return {"kind": "brownian", "eps": self.eps}


@dataclass(frozen=True)
class StableNoise:
    alpha: float
    sigma: float

    def __post_init__(self):
        if not 0 < self.alpha < 2:
            raise ConfigError(f"stable alpha={self.alpha} must lie strictly in (0, 2), e.g. "
                              "1.5; the Brownian case alpha = 2 is BrownianNoise")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ConfigError(f"stable sigma={self.sigma} must be a finite number >= 0, e.g. 1.0")

    def to_config(self):
        return {"kind": "stable", "alpha": self.alpha, "sigma": self.sigma}


def noise_from_config(cfg: dict):
    """Noise of kind ``cfg["kind"]``; ConfigError for an unknown kind or a missing key."""
    kind = cfg.get("kind")

    def key(k, example):
        return require_key(cfg, k, f"noise kind {kind!r} needs it, e.g. {example}", as_float)

    if kind == "none":
        return NoNoise()
    if kind == "brownian":
        return BrownianNoise(key("eps", '"eps": 1.0'))
    if kind == "stable":
        return StableNoise(key("alpha", '"alpha": 1.5'), key("sigma", '"sigma": 1.0'))
    raise ConfigError(f"unknown noise kind {kind!r}; use one of ['none', 'brownian', 'stable']")


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
    """Spec from its ``drift``, ``noise`` and ``d``; ConfigError for a missing key."""

    def key(k, example, convert):
        return require_key(cfg, k, f"a process spec needs it, e.g. {example}", convert)

    d = key("d", '"d": 1', as_int)
    drift_cfg = key("drift", '"drift": {"name": "zero"}', dict)
    drift_cfg.setdefault("d", d)
    return ProcessSpec(
        drift_from_config(drift_cfg),
        noise_from_config(key("noise", '"noise": {"kind": "brownian", "eps": 1.0}', dict)),
        d,
        key("noise_offset", '"noise_offset": 0', as_int) if "noise_offset" in cfg else 0,
    )


def lift_time(spec: ProcessSpec) -> ProcessSpec:
    """Spec of the (d+1)-dimensional process y = (t, X)."""
    return ProcessSpec(TimeAugmentedDrift(spec.drift), spec.noise, spec.d + 1, noise_offset=1)


# ---------------------------------------------------------------------------
# Stable samplers.

_TINY = 1e-300
_HALF_PI_LO = 6.123233995736766e-17  # pi/2 - float(pi/2)


def _sin_in_place(x):
    """sin x for |x| <= pi, in place: 2t / (1 + t^2) with t = tan(x/2).

    One vectorized ``tan`` instead of numpy's scalar ``sin`` loop; agrees
    with ``np.sin`` to 4.5e-16 absolute and 1e-15 relative.
    """
    x *= 0.5
    np.tan(x, out=x)
    den = x * x
    den += 1.0
    x += x
    x /= den
    return x


def _cos_in_place(x):
    """cos x for |x| <= pi/2, in place, as the sine of pi/2 - |x|.

    The direct half-angle form (1 - t^2) / (1 + t^2) loses relative accuracy
    near |x| = pi/2, where the rounding of t = tan(x/2) reaches 6e-11 of the
    cosine on 1e6 angles, as much as moving x by one ulp.  pi/2 - |x| is
    exact there, and adding back the low part of pi/2 keeps the cosine
    within 4.5e-16 absolute and 1e-15 relative of ``np.cos``.
    """
    np.abs(x, out=x)
    np.subtract(np.pi / 2, x, out=x)
    x += _HALF_PI_LO
    return _sin_in_place(x)


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
        # sin(alpha u) / cos(u)^(1/alpha) * (cos((1 - alpha) u) / w)^((1 - alpha) / alpha)
        s = _sin_in_place(alpha * u)
        c = _cos_in_place((1.0 - alpha) * u)
        c /= w
        c **= (1.0 - alpha) / alpha
        u = _cos_in_place(u)
        u **= 1.0 / alpha
        s /= u
        s *= c
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
    # log_a = alpha/(1-alpha) log sin(alpha theta) + log sin((1-alpha) theta)
    #         - 1/(1-alpha) log sin(theta);  T = exp((1-alpha)/alpha (log_a - log w))
    log_a = np.log(_sin_in_place(alpha * theta))
    log_a *= alpha / (1 - alpha)
    log_a += np.log(_sin_in_place((1 - alpha) * theta))
    log_sin = np.log(_sin_in_place(theta), out=theta)
    log_sin *= 1.0 / (1 - alpha)
    log_a -= log_sin
    log_a -= np.log(w, out=w)
    log_a *= (1 - alpha) / alpha
    t = np.exp(log_a, out=log_a)
    return float(t[0]) if size is None else t


def sample_isotropic_stable(alpha, d, rng, size=None):
    """Isotropic alpha-stable vector(s) in R^d, E[exp(iu.X)] = exp(-|u|^alpha)."""
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n = 1 if size is None else int(size)
    t = sample_one_sided_stable(alpha / 2.0, gen, size=n)
    z = gen.standard_normal((n, d))
    t *= 2.0
    z *= np.sqrt(t, out=t)[:, None]
    return z[0] if size is None else z


def _velocity(drift):
    """The value of a drift that does not depend on the state, else None."""
    if isinstance(drift, TimeAugmentedDrift):
        v = _velocity(drift.base)
        return None if v is None else np.concatenate([[1.0], v])
    return drift.velocity if isinstance(drift, ConstantDrift) else None


def block_steps(k, na, left, floor=BLOCK_STEPS):
    """Steps in block k of a chunk: min(16 * 2**k, max(floor, 32768 // na), left).

    ``na`` is the number of rows the block advances and ``left`` the steps
    before the horizon; 16, 128 and 32768 are FIRST_BLOCK_STEPS, BLOCK_STEPS
    and BLOCK_ELEMENTS.  Rows that share their noise (several starts per
    path) take ``floor=FIRST_BLOCK_STEPS``, which keeps a block of up to 2048
    rows within BLOCK_ELEMENTS row-steps (the default floor, only up to 256).
    The lengths depend on nothing else, so a chunk draws the same stream
    whichever process runs it.
    """
    cap = max(floor, BLOCK_ELEMENTS // na)
    # the doubling passes the cap within cap.bit_length() blocks
    return min(FIRST_BLOCK_STEPS << min(k, cap.bit_length()), cap, left)


def euler_block(spec: ProcessSpec, pos, h, gen, nb, path_of=None):
    """(na, nb + 1, d) knots of nb Euler steps from the rows of pos, and (na, nb) jump marks.

    The one knot builder, for a noisy spec: :func:`_draw_noise` draws the
    increments, then :func:`_build_knots` adds them to each row's start.
    With ``path_of`` given, rows share noise: row i takes the increments of
    drawn path ``path_of[i]``, a non-decreasing index that starts at 0, so
    ``path_of[-1] + 1`` paths are drawn and gathered to the rows.
    """
    if path_of is None:
        dw, jump = _draw_noise(spec, len(pos), h, gen, nb)
    else:
        dw, jump = _draw_noise(spec, int(path_of[-1]) + 1, h, gen, nb)
        dw, jump = dw[path_of], jump[path_of]
    return _build_knots(spec, pos, h, dw), jump


def _draw_noise(spec, na, h, gen, nb):
    """(na, nb, d - noise_offset) noise increments of nb steps, and their (na, nb) jump marks.

    Stable increments on one noisy axis come from
    :func:`sample_symmetric_stable_1d`, on more from
    :func:`sample_isotropic_stable`.
    """
    noise = spec.noise
    shape = (na, nb, spec.d - spec.noise_offset)
    if isinstance(noise, BrownianNoise):
        dw = gen.standard_normal(shape)
        dw *= noise.eps * math.sqrt(h)
        return dw, np.zeros((na, nb), dtype=bool)
    if shape[2] == 1:  # the exact 1-d law, one draw per step
        dw = sample_symmetric_stable_1d(noise.alpha, gen, size=na * nb).reshape(shape)
        jump = np.abs(dw[:, :, 0]) > JUMP_MARK_FACTOR
    else:
        dw = sample_isotropic_stable(noise.alpha, shape[2], gen, size=na * nb).reshape(shape)
        sq = dw[:, :, 0] ** 2  # |dw|^2 summed in axis order, as np.linalg.norm does
        for i in range(1, shape[2]):
            sq += dw[:, :, i] ** 2
        jump = np.sqrt(sq, out=sq) > JUMP_MARK_FACTOR
    dw *= noise.sigma * h ** (1.0 / noise.alpha)
    return dw, jump


def _build_knots(spec, pos, h, dw):
    """(na, nb + 1, d) knots from the rows of pos and their (na, nb, d - noise_offset) increments.

    A state-independent drift step is added to every increment and each
    coordinate's knots are their cumulative sums (a noiseless clock
    coordinate shares one sum over all rows); any other drift is evaluated
    at each knot in turn: ``x + (b(x) h + dW)``.
    """
    na, d = pos.shape
    nb = dw.shape[1]
    off = spec.noise_offset  # the leading (clock) coordinates carry no noise
    X = np.empty((na, nb + 1, d))
    X[:, 0] = pos
    v = _velocity(spec.drift)
    if v is not None:
        vh = v * h
        for i in range(d):
            if i < off:
                X[:, 1:, i] = np.cumsum(np.full(nb, 0.0 + vh[i])) + pos[:, i, None]
            else:
                c = dw[:, :, i - off] + vh[i]
                np.cumsum(c, axis=1, out=c)
                c += pos[:, i, None]
                X[:, 1:, i] = c
    else:
        for j in range(nb):
            step = spec.drift(X[:, j]) * h
            step[:, off:] += dw[:, j]
            np.add(X[:, j], step, out=X[:, j + 1])
    return X


def simulate_path(spec: ProcessSpec, x0, h, horizon, rng) -> CadlagPath:
    """Euler path skeleton with knots t_k = k h up to the horizon.

    Deterministic specs return the closed-form flow when the drift has one
    (constant velocity, parabolic field), otherwise a linear skeleton driven
    by classical RK4 steps.  Noisy specs return a linear skeleton whose large
    stable increments are marked as jumps with their pre-jump drift endpoint.
    """
    check_inputs(h)
    if not horizon >= h:
        raise InvalidStep(f"horizon {horizon} shorter than one step {h}")
    x0 = check_start(spec, None, x0)

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
