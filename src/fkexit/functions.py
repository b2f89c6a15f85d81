"""Named running-cost and boundary-data functions.

All callables are vectorized: given points of shape (..., d) they return
values of shape (...).  Named families carry a global sup bound where one
is available in closed form, which feeds the deterministic |F| clamp of the
Feynman-Kac estimators.

Cost functions used inside the simulation engine take the simulated state
alone, ``f(points)``; :class:`SpatialCost` adapts a named function and
:class:`TimeScaledCost` applies the exp(lam * t) reweighting used when a
non-stationary problem is folded into a stationary one.

:func:`gauss_legendre` holds the Gauss-Legendre rules shared by the engine's
deterministic cost quadrature and :mod:`fkexit.pde_oracle`; it lives in this
numpy-only module so that importing the engine does not import scipy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class NamedFunction:
    """Function on R^d with an optional global sup bound."""

    def __call__(self, x):
        raise NotImplementedError

    def sup_bound(self):
        """Upper bound for sup |f| over R^d, or None when unknown."""
        return None


@dataclass(frozen=True)
class Constant(NamedFunction):
    value: float

    def __call__(self, x):
        x = np.asarray(x, float)
        return np.full(x.shape[:-1], self.value) if x.ndim > 1 else self.value

    def sup_bound(self):
        return abs(self.value)


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


def sup_on_box(fn, lo, hi):
    """Lattice sup of |fn| over an axis-aligned box (a bound for sane functions)."""
    lo = np.atleast_1d(np.asarray(lo, float))
    hi = np.atleast_1d(np.asarray(hi, float))
    axes = [np.linspace(a, b, 64) for a, b in zip(lo, hi)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, lo.size)
    return float(np.max(np.abs(np.asarray(fn(grid), float))))


# ---------------------------------------------------------------------------
# Engine cost adapters.


@dataclass(frozen=True)
class SpatialCost:
    """Adapt a function of the simulated state (space, or time-extended (t, x)) to a cost."""

    fn: object

    def __call__(self, x):
        return np.asarray(self.fn(x), float)


# the adapter's former name for time-extended states, kept for the code that imports it
PathSpaceCost = SpatialCost


@dataclass(frozen=True)
class TimeScaledCost:
    """exp(lam * y_0) * fn(y) on the time-extended state y = (t, x)."""

    fn: object
    lam: float

    def __call__(self, y):
        y = np.asarray(y, float)
        return np.exp(self.lam * y[..., 0]) * np.asarray(self.fn(y), float)


# ---------------------------------------------------------------------------
# Gauss-Legendre rules.


@functools.cache
def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    ``leggauss`` solves an n x n eigenproblem on every call, so each rule is
    built once per process, on first use.  Every caller gets the same two
    arrays, so they are read-only: map them to an interval into new arrays.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights
