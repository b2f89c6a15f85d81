"""The fractional-Laplacian quadrature and FFT oracle as plain loops, kept as test references.

``fkexit.pde_oracle.frac_laplacian`` takes its radii, directions and weights
from a cached rule, evaluates phi once on all of them, and then sums each
part's slice.  ``frac_laplacian`` here builds everything on every call, and
the inner ball and each geometric panel evaluate phi by their own call, in
the same order, so the two must agree bit for bit.  The tail-bound check is
left out; callers pick functions whose tail is far below tolerance.

``spectral_frac_laplacian_1d`` here builds the grid on every call and
samples phi on all of it; the package samples phi only where its decay
envelope is not 0, so the transforms' inputs and outputs are the same bits.
"""

import math

import numpy as np

from fkexit.functions import gauss_legendre
from fkexit.pde_oracle import kernel_constant


def _gauss_on(a, b, n):
    nodes, weights = gauss_legendre(n)
    return 0.5 * (b - a) * nodes + 0.5 * (a + b), 0.5 * (b - a) * weights


def frac_laplacian(phi, x, alpha, outer_radius=64.0):
    """(total, inner, outer) of -(-Lap)^(alpha/2) phi at x, one phi call per panel."""
    x = np.atleast_1d(np.asarray(x, float))
    d = x.size
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
        sphere_measure = 2.0
    else:
        assert d == 2
        ang = (np.arange(64) + 0.5) * (2 * math.pi / 64)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        sphere_measure = 2.0 * math.pi
    dir_weight = sphere_measure / len(dirs)
    phi_x = float(phi(x.reshape(1, -1))[0])

    def sphere_sum(radii):
        pts = x[None, None, :] + radii[:, None, None] * dirs[None, :, :]
        vals = np.asarray(phi(pts.reshape(-1, d)), float).reshape(len(radii), len(dirs))
        return dir_weight * vals.sum(axis=1)

    r0 = 1e-3
    tr_h = float(np.trace(phi.hessian(x)))
    inner = (sphere_measure * tr_h / (2.0 * d)) * r0 ** (2.0 - alpha) / (2.0 - alpha)
    p = 2.0 / (2.0 - alpha)
    u, w = _gauss_on(r0 ** (1.0 / p), 1.0, 220)
    r = u**p
    dr = p * u ** (p - 1.0)
    second_diff = sphere_sum(r) - sphere_measure * phi_x
    inner += float(np.sum(w * dr * r ** (-1.0 - alpha) * second_diff))

    nu_tail_total = sphere_measure / alpha
    outer = -phi_x * nu_tail_total
    a = 1.0
    while a < outer_radius:
        b = min(2.0 * a, outer_radius)
        r, w = _gauss_on(a, b, 48)
        outer += float(np.sum(w * r ** (d - 1.0) * r ** (-d - alpha) * sphere_sum(r)))
        a = b
    cd = kernel_constant(d, alpha)
    return cd * (inner + outer), cd * inner, cd * outer


def spectral_frac_laplacian_1d(phi, xs, alpha, period=400.0, n=2**17):
    """-(-Lap)^(alpha/2) phi at xs from phi sampled on the whole periodic grid."""
    grid = -period / 2.0 + period * np.arange(n) / n
    vals = np.asarray(phi(grid.reshape(-1, 1)), float)
    xi = 2.0 * math.pi * np.fft.rfftfreq(n, d=period / n)
    transformed = np.fft.irfft(np.fft.rfft(vals) * (-xi**alpha), n)
    return np.interp(np.asarray(xs, float), grid, transformed)
