"""Exception types shared across the package."""


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


class ConfigError(FkexitError):
    """Invalid experiment configuration; message carries a remedy hint."""
