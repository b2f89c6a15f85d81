"""Exception types shared across the package, and the input checks that raise them."""

import math
import numbers

import numpy as np


class FkexitError(Exception):
    """Base class for all package errors."""


class HorizonExceeded(FkexitError):
    """A path never left the queried set before its last knot."""

    def __init__(self, horizon):
        self.horizon = horizon
        super().__init__(f"path never exited within horizon t={horizon}")


class DimensionMismatch(FkexitError):
    """Point dimension does not match the domain dimension."""


class NoConeData(FkexitError):
    """Domain shape has no built-in exterior cone construction."""


class InvalidStep(FkexitError):
    """Non-positive or otherwise unusable time step."""


class InvalidStart(FkexitError):
    """Start point violates an operation's start-set requirement."""


class StepTooCoarse(FkexitError):
    """Simulation step too large for the requested probe window."""


class CutoffTooTight(FkexitError):
    """Quadrature tail bound exceeds the requested tolerance."""

    def __init__(self, tail_bound, tol):
        self.tail_bound = tail_bound
        self.tol = tol
        super().__init__(
            f"estimated quadrature tail {tail_bound:.3e} exceeds tolerance {tol:.3e}; "
            "increase the outer cutoff radius"
        )


class DegenerateP(FkexitError):
    """Discounted-exit moment statistically indistinguishable from 0 or 1."""

    def __init__(self, p_mean, p_se):
        self.p_mean = p_mean
        self.p_se = p_se
        super().__init__(
            f"discounted exit moment p={p_mean:.6f} (se={p_se:.2e}) is within 3 SE of 0 or 1; "
            "witness construction is inconclusive at this point"
        )


class SingularSystem(FkexitError):
    """Linear system of a deterministic solver is singular."""


class ConfigError(FkexitError, ValueError):
    """Invalid configuration or argument value; message carries a remedy hint."""


# ---------------------------------------------------------------------------
# Input checks shared by the engine, the estimators and path simulation.


def require_key(cfg, key, hint, convert=None):
    """cfg[key], through ``convert`` if given; a ConfigError that names the key and
    how to write it if the key is missing or ``convert`` raises TypeError/ValueError."""
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r}; {hint}")
    if convert is None:
        return cfg[key]
    try:
        return convert(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r}={cfg[key]!r} has the wrong kind of value; "
                          f"{hint}") from None


def check_inputs(h, n=1):
    """Reject a step h that is not finite and positive, or a sample size n below 1."""
    if not (math.isfinite(h) and h > 0):
        raise InvalidStep(f"step h={h} must be a finite positive number, e.g. 1e-3")
    if n < 1:
        raise ConfigError(f"sample size n={n} must be a positive integer")


def check_workers(workers):
    """Reject a worker count that is not an integer >= 1 (a bool included)."""
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise ConfigError(f"workers={workers!r} must be an integer >= 1, e.g. 1 (serial) or 2")


def check_start(spec, domain, x0):
    """x0 as a float vector, after checking it against the spec and, if given, the domain."""
    if domain is not None and spec.d != domain.d:
        raise DimensionMismatch(f"the spec has d={spec.d} but the domain d={domain.d}; "
                                "build both in the same dimension")
    x0 = np.atleast_1d(np.asarray(x0, float))
    if x0.shape != (spec.d,):
        raise DimensionMismatch(f"start x0 has shape {x0.shape}; pass {spec.d} coordinates")
    if not np.isfinite(x0).all():
        raise InvalidStart(f"start x0={x0.tolist()} must have finite coordinates")
    return x0
