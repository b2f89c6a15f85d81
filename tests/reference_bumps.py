"""Per-family gradients, Hessians and params of the polynomial bumps, kept as a test reference.

Each family of :mod:`fkexit.pde_oracle` used to write out its own product
rule: the Gaussian family around its exponential, the compact family through
the chain of beta(s) = exp(1 - 1/(1 - s)).  ``fkexit.pde_oracle._PolyBump``
now applies one product rule to each family's envelope derivatives; these
are the formulas the tests compare it with.
"""

import math

import numpy as np

from fkexit.pde_oracle import CompactPolyBump, GaussPolyBump


def _poly(phi, y):
    p = phi.amplitude + float(y @ phi.lin) + float((y * y) @ phi.quad)
    return p, phi.lin + 2 * phi.quad * y, np.diag(2 * phi.quad)


def _beta_chain(phi, y):
    s = float(np.sum((y / phi.radius) ** 2))
    if s >= 1.0 - 1e-12:
        return 0.0, 0.0, 0.0
    beta = math.exp(1.0 - 1.0 / (1.0 - s))
    b1 = -beta / (1.0 - s) ** 2
    b2 = beta / (1.0 - s) ** 4 - 2.0 * beta / (1.0 - s) ** 3
    return beta, b1, b2


def gradient(phi, x):
    y = np.asarray(x, float) - phi.center
    p, dp, _ = _poly(phi, y)
    if isinstance(phi, GaussPolyBump):
        g = math.exp(-float(y @ y) / (2 * phi.width**2))
        return g * (dp - p * y / phi.width**2)
    beta, b1, _ = _beta_chain(phi, y)
    if beta == 0.0:
        return np.zeros(phi.d)
    return beta * dp + p * b1 * (2.0 * y / phi.radius**2)


def hessian(phi, x):
    y = np.asarray(x, float) - phi.center
    p, dp, d2p = _poly(phi, y)
    if isinstance(phi, GaussPolyBump):
        w2 = phi.width**2
        g = math.exp(-float(y @ y) / (2 * w2))
        return g * (d2p - (np.outer(dp, y) + np.outer(y, dp)) / w2
                    + p * (np.outer(y, y) / w2**2 - np.eye(phi.d) / w2))
    beta, b1, b2 = _beta_chain(phi, y)
    if beta == 0.0:
        return np.zeros((phi.d, phi.d))
    ds = 2.0 * y / phi.radius**2
    d2s = np.diag(2.0 / phi.radius**2)
    return (beta * d2p + b1 * (np.outer(dp, ds) + np.outer(ds, dp))
            + p * (b2 * np.outer(ds, ds) + b1 * d2s))


def params(phi):
    if isinstance(phi, GaussPolyBump):
        return {"family": "gauss-poly", "center": phi.center.tolist(), "width": phi.width,
                "amplitude": phi.amplitude, "lin": phi.lin.tolist(), "quad": phi.quad.tolist()}
    assert isinstance(phi, CompactPolyBump)
    return {"family": "compact-poly", "center": phi.center.tolist(),
            "radius": phi.radius.tolist(), "amplitude": phi.amplitude,
            "lin": phi.lin.tolist(), "quad": phi.quad.tolist()}
