"""Named running-cost and boundary-data functions.

All callables are vectorized: given points of shape (..., d) they return
values of shape (...).  Named families serialize to config dictionaries and
carry a global sup bound where one is available in closed form, which feeds
the deterministic |F| clamp of the Feynman-Kac estimators.

Cost functions used inside the simulation engine have the signature
``f(t_abs, points)``; :class:`SpatialCost` adapts a space-only function and
:class:`TimeScaledCost` applies the exp(lam * t) reweighting used when a
non-stationary problem is folded into a stationary one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NamedFunction:
    """Function on R^d with a config form and an optional global sup bound."""

    def __call__(self, x):
        raise NotImplementedError

    def sup_bound(self):
        """Upper bound for sup |f| over R^d, or None when unknown."""
        return None

    def to_config(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(NamedFunction):
    value: float

    def __call__(self, x):
        x = np.asarray(x, float)
        return np.full(x.shape[:-1], self.value) if x.ndim > 1 else self.value

    def sup_bound(self):
        return abs(self.value)

    def to_config(self):
        return {"name": "constant", "value": self.value}


def Zero() -> Constant:
    return Constant(0.0)


@dataclass(frozen=True)
class GaussianBump(NamedFunction):
    """amplitude * exp(-|x - center|^2 / (2 width^2))."""

    center: np.ndarray
    width: float
    amplitude: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, float)))
        if self.width <= 0:
            raise ValueError("width must be positive")

    def __call__(self, x):
        x = np.asarray(x, float)
        sq = np.sum((x - self.center) ** 2, axis=-1)
        return self.amplitude * np.exp(-sq / (2.0 * self.width**2))

    def sup_bound(self):
        return abs(self.amplitude)

    def to_config(self):
        return {"name": "gaussian", "center": self.center.tolist(),
                "width": self.width, "amplitude": self.amplitude}


@dataclass(frozen=True)
class ExpDistance(NamedFunction):
    """scale * exp(-|x - anchor|); the Lipschitz witness profile."""

    anchor: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "anchor", np.atleast_1d(np.asarray(self.anchor, float)))

    def __call__(self, x):
        x = np.asarray(x, float)
        dist = np.linalg.norm(np.atleast_2d(x) - self.anchor, axis=-1)
        out = self.scale * np.exp(-dist)
        return out if np.asarray(x).ndim > 1 else float(out[0])

    def sup_bound(self):
        return abs(self.scale)

    def to_config(self):
        return {"name": "exp-distance", "anchor": self.anchor.tolist(), "scale": self.scale}


def function_from_config(cfg: dict) -> NamedFunction:
    name = cfg.get("name")
    if name == "constant":
        return Constant(float(cfg["value"]))
    if name == "zero":
        return Zero()
    if name == "gaussian":
        return GaussianBump(np.asarray(cfg["center"], float),
                            float(cfg["width"]), float(cfg.get("amplitude", 1.0)))
    if name == "exp-distance":
        return ExpDistance(np.asarray(cfg["anchor"], float), float(cfg.get("scale", 1.0)))
    raise ValueError(f"unknown function {name!r}")


def sup_on_box(fn, lo, hi, per_axis=64):
    """Lattice sup of |fn| over an axis-aligned box (a bound for sane functions)."""
    lo = np.atleast_1d(np.asarray(lo, float))
    hi = np.atleast_1d(np.asarray(hi, float))
    axes = [np.linspace(a, b, per_axis) for a, b in zip(lo, hi)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, lo.size)
    return float(np.max(np.abs(np.asarray(fn(grid), float))))


# ---------------------------------------------------------------------------
# Engine cost adapters.


@dataclass(frozen=True)
class SpatialCost:
    """Adapt a space-only function to the engine's (t, x) cost signature."""

    fn: object

    def __call__(self, t, x):
        return np.asarray(self.fn(x), float)


@dataclass(frozen=True)
class PathSpaceCost:
    """Cost read directly off the simulated state (used for time-extended specs)."""

    fn: object

    def __call__(self, t, y):
        return np.asarray(self.fn(y), float)


@dataclass(frozen=True)
class TimeScaledCost:
    """exp(lam * y_0) * fn(y) on the time-extended state y = (t, x)."""

    fn: object
    lam: float

    def __call__(self, t, y):
        y = np.asarray(y, float)
        return np.exp(self.lam * y[..., 0]) * np.asarray(self.fn(y), float)
