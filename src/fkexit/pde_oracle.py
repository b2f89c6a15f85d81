"""Deterministic ground truth and the viscosity-property checker.

Closed forms
    ``closed_form_v_eps``  the drift-diffusion two-point boundary value on
                           (0, 1) with unit running cost and unit discount;
    ``closed_form_v0``     its zero-noise limit 1 - exp(-(1 - x)), which loses
                           the boundary condition at the left endpoint;
    ``parabolic_exit_time`` / ``parabolic_value``  the piecewise exit time and
                           value of the planar parabolic flow on (-1,1)x(0,1).

Fractional Laplacian
    ``frac_laplacian`` evaluates the generator-signed singular integral

        C(d,a) * int [phi(x+y) - phi(x) - y.grad phi(x) 1_{|y|<=1}] |y|^(-d-a) dy

    split at radius 1.  The inner part is symmetrized over +-y (which cancels
    the gradient compensator exactly) and integrated radially after the
    substitution r = u^(2/(2-a)) that removes the endpoint singularity; the
    outer part is integrated on geometric panels out to a cutoff with an
    analytic tail bound from the test function's decay envelope.  The kernel
    constant C(d,a) makes the Fourier symbol exactly -|xi|^a, matching the
    sampler normalization in :mod:`fkexit.levy`; ``spectral_frac_laplacian_1d``
    is the independent FFT-multiplier oracle used to cross-check it.

The checker ``check_viscosity_point`` is a counterexample finder: it sweeps a
finite family of smooth bump test functions touching a candidate solution at
a point, verifies admissibility (global domination of the extended function)
on a reported lattice, and evaluates the required inequality for each
admissible member.  Absence of violations is reported as exactly that, never
as a certificate.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import solve_banded
from scipy.special import gamma as gamma_fn

from .errors import ConfigError, CutoffTooTight, SingularSystem
from .functions import gauss_legendre
from .geometry import Domain, parabolic_rect
from .levy import BrownianNoise, NoNoise, ProcessSpec, StableNoise


# ---------------------------------------------------------------------------
# Closed forms for the 1-d drift-diffusion benchmark.


def _exponents(eps):
    root = math.sqrt(1.0 + 2.0 * eps * eps)
    lam1 = 2.0 / (root + 1.0)          # (root - 1) / eps^2, cancellation-free
    lam2 = -(root + 1.0) / (eps * eps)
    return lam1, lam2


def closed_form_v_eps(eps, x):
    """Solution of -u' - (eps^2/2) u'' + u - 1 = 0 on (0,1), u(0) = u(1) = 0."""
    if eps <= 0:
        raise ValueError("eps must be positive; use closed_form_v0 for the limit")
    x = np.asarray(x, float)
    if np.any((x < 0) | (x > 1)):
        raise ValueError("x must lie in [0, 1]")
    lam1, lam2 = _exponents(eps)
    num = (1 - math.exp(lam1)) * np.exp(lam2 * x) + (math.exp(lam2) - 1) * np.exp(lam1 * x)
    return 1.0 + num / (math.exp(lam1) - math.exp(lam2))


def closed_form_v0(x):
    """Zero-noise limit 1 - exp(-(1-x)); nonzero at x = 0."""
    x = np.asarray(x, float)
    if np.any((x < 0) | (x > 1)):
        raise ValueError("x must lie in [0, 1]")
    return 1.0 - np.exp(-(1.0 - x))


def parabolic_exit_time(x):
    """Deterministic exit time of the parabolic flow from x in [-1,1]x[0,1].

    Three regimes: above the parabola x2 = x1^2 the trajectory rides up and
    out through the far side; below it with x1 > 0 it slides right; below it
    with x1 < 0 it dips through the bottom.
    """
    x = np.atleast_1d(np.asarray(x, float))
    x1, x2 = float(x[0]), float(x[1])
    if not parabolic_rect().contains([x1, x2], "closure"):
        raise ValueError("point outside the closed rectangle")
    if x2 >= x1 * x1:
        return -x1 + math.sqrt(1.0 - x2 + x1 * x1)
    if x1 > 0:
        return 1.0 - x1
    return -x1 - math.sqrt(x1 * x1 - x2)


def parabolic_value(x):
    """Value 1 - exp(-exit time) for the parabolic flow benchmark."""
    return 1.0 - math.exp(-parabolic_exit_time(x))


# ---------------------------------------------------------------------------
# Grid functions and the finite-difference solver.


class GridFunction:
    """Values on a rectilinear lattice, multilinear between nodes, g outside.

    Evaluation outside the closed domain returns the boundary-data extension,
    matching how candidate solutions enter the test-function envelopes.
    """

    def __init__(self, axes, values, domain: Domain = None, boundary_data=None):
        self.axes = [np.asarray(a, float) for a in axes]
        self.values = np.asarray(values, float)
        self.domain = domain
        self.boundary_data = boundary_data
        self._interp = RegularGridInterpolator(
            self.axes, self.values, method="linear", bounds_error=False, fill_value=None)

    @property
    def d(self):
        return len(self.axes)

    def __call__(self, x):
        x = np.asarray(x, float)
        single = x.ndim <= 1
        pts = np.atleast_2d(x)
        vals = self._interp(pts)
        if self.domain is not None and self.boundary_data is not None:
            outside = ~self.domain.contains(pts, "closure")
            if np.any(outside):
                vals = np.where(outside, np.asarray(self.boundary_data(pts), float), vals)
        return float(vals[0]) if single else vals


def fd_solve_1d(eps, m) -> GridFunction:
    """Central-difference solve of the 1-d benchmark ODE on m nodes.

    Dirichlet rows pin u(0) = u(1) = 0 exactly; interior rows discretize
    -u' - (eps^2/2) u'' + u = 1 to second order.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if m < 3:
        raise ValueError("need at least 3 nodes")
    xs = np.linspace(0.0, 1.0, m)
    dx = xs[1] - xs[0]
    k = m - 2  # interior unknowns; Dirichlet values are imposed exactly
    lower = np.full(k, 1.0 / (2 * dx) - eps**2 / (2 * dx**2))
    upper = np.full(k, -1.0 / (2 * dx) - eps**2 / (2 * dx**2))
    diag = np.full(k, 1.0 + eps**2 / dx**2)
    ab = np.zeros((3, k))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    try:
        u_int = solve_banded((1, 1), ab, np.ones(k))
    except np.linalg.LinAlgError as e:  # pragma: no cover - signs make this impossible
        raise SingularSystem(str(e))
    if not np.all(np.isfinite(u_int)):
        raise SingularSystem("non-finite solution")
    u = np.zeros(m)
    u[1:-1] = u_int
    from .functions import Zero
    from .geometry import Interval

    return GridFunction([xs], u, Interval(0.0, 1.0), Zero())


# ---------------------------------------------------------------------------
# Smooth test functions with analytic derivatives.


class TestFunction:
    """Smooth function vanishing at infinity with analytic derivatives."""

    d: int

    def __call__(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    def hessian(self, x):
        raise NotImplementedError

    def decay_envelope(self, r):
        """Monotone bound for sup |phi| outside radius r from the center."""
        raise NotImplementedError

    def params(self):
        raise NotImplementedError


class _PolyBump(TestFunction):
    """P(y) * envelope(y), P(y) = a + l.y + y.diag(q).y and y = x - center.

    Bumps of one family share center, amplitude and envelope and differ only
    in the tilts ``lin`` and ``quad``, so the viscosity checker evaluates a
    family on its lattice as one array from a single ``envelope`` pass.  A
    family (a dataclass named by ``family``) brings only its envelope, the
    envelope's derivatives at one offset and its ``decay_envelope``.
    """

    family = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, float))
        object.__setattr__(self, "center", c)
        for name in ("lin", "quad"):
            v = getattr(self, name)
            object.__setattr__(self, name, np.zeros(c.size) if v is None else np.asarray(v, float))

    @property
    def d(self):
        return self.center.size

    def envelope(self, y):
        """Envelope factor at the rows of y (offsets from the center)."""
        raise NotImplementedError

    def envelope_derivatives(self, y, hessian):
        """(e, grad e, Hessian of e) of the envelope at one offset y; the
        Hessian is not built, and is None, unless ``hessian`` is true."""
        raise NotImplementedError

    def __call__(self, x):
        y = np.asarray(x, float) - self.center
        single = y.ndim == 1
        y = np.atleast_2d(y)
        out = (self.amplitude + y @ self.lin + (y * y) @ self.quad) * self.envelope(y)
        return float(out[0]) if single else out

    def _factors(self, x, hessian=True):
        """(P, grad P, e, grad e, Hessian of e or None) at one point x."""
        y = np.asarray(x, float) - self.center
        p = self.amplitude + float(y @ self.lin) + float((y * y) @ self.quad)
        return (p, self.lin + 2 * self.quad * y, *self.envelope_derivatives(y, hessian))

    def gradient(self, x):
        p, dp, e, de, _ = self._factors(x, hessian=False)
        return e * dp + p * de

    def hessian(self, x):
        p, dp, e, de, d2e = self._factors(x)
        return e * np.diag(2 * self.quad) + np.outer(dp, de) + np.outer(de, dp) + p * d2e

    def _poly_bound(self, r):
        """A bound on |P(y)| over |y| <= r."""
        return (abs(self.amplitude) + float(np.linalg.norm(self.lin)) * r
                + float(np.max(np.abs(self.quad), initial=0.0)) * r * r)

    def params(self):
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"family": self.family, **{k: v.tolist() if isinstance(v, np.ndarray) else v
                                          for k, v in values.items()}}


@dataclass(frozen=True)
class GaussPolyBump(_PolyBump):
    """(a + l.y + y.diag(q).y) exp(-|y|^2 / (2 w^2)), y = x - center."""

    center: np.ndarray
    width: float
    amplitude: float = 1.0
    lin: np.ndarray = None
    quad: np.ndarray = None

    family = "gauss-poly"

    def envelope(self, y):
        return np.exp(-np.einsum("ij,ij->i", y, y) / (2 * self.width**2))

    def envelope_derivatives(self, y, hessian):
        w2 = self.width**2
        g = math.exp(-float(y @ y) / (2 * w2))
        d2e = g * (np.outer(y, y) / w2**2 - np.eye(self.d) / w2) if hessian else None
        return g, -g * y / w2, d2e

    def decay_envelope(self, r):
        # the polynomial factor grows; push the bound one width further out
        return self._poly_bound(r + 4.0 * self.width) * math.exp(-r * r / (2 * self.width**2))


@dataclass(frozen=True)
class CompactPolyBump(_PolyBump):
    """(a + l.y + y.diag(q).y) * exp(1 - 1/(1 - s)), s = sum (y_i / R_i)^2 < 1.

    Identically zero outside the ellipsoid s >= 1, so it sits below (or above)
    any extension that vanishes there.
    """

    center: np.ndarray
    radius: np.ndarray
    amplitude: float = 1.0
    lin: np.ndarray = None
    quad: np.ndarray = None

    family = "compact-poly"

    def __post_init__(self):
        super().__post_init__()
        r = np.asarray(self.radius, float)
        object.__setattr__(self, "radius", np.full(self.d, float(r)) if r.ndim == 0 else r)

    def envelope(self, y):
        s = np.sum((y / self.radius) ** 2, axis=-1)
        inside = s < 1.0
        beta = np.zeros_like(s)
        ss = np.clip(s, 0.0, 1.0 - 1e-12)
        beta[inside] = np.exp(1.0 - 1.0 / (1.0 - ss[inside]))
        return beta

    def envelope_derivatives(self, y, hessian):
        # beta(s) and its s-derivatives b1, b2, chained through s(y)
        s = float(np.sum((y / self.radius) ** 2))
        if s >= 1.0 - 1e-12:
            return 0.0, np.zeros(self.d), np.zeros((self.d, self.d)) if hessian else None
        beta = math.exp(1.0 - 1.0 / (1.0 - s))
        b1 = -beta / (1.0 - s) ** 2
        ds = 2.0 * y / self.radius**2
        if not hessian:
            return beta, b1 * ds, None
        b2 = beta / (1.0 - s) ** 4 - 2.0 * beta / (1.0 - s) ** 3
        return beta, b1 * ds, b2 * np.outer(ds, ds) + b1 * np.diag(2.0 / self.radius**2)

    def decay_envelope(self, r):
        rmax = float(np.max(self.radius))
        return 0.0 if r >= rmax else self._poly_bound(rmax)


# ---------------------------------------------------------------------------
# Fractional Laplacian: singular-integral quadrature and the FFT oracle.


def kernel_constant(d, alpha):
    """C(d, alpha) normalizing the kernel |y|^(-d-alpha) to symbol |xi|^alpha."""
    abs_gamma = 2.0 * gamma_fn(1.0 - alpha / 2.0) / alpha  # |Gamma(-alpha/2)|
    return 4.0 ** (alpha / 2.0) * gamma_fn((d + alpha) / 2.0) / (math.pi ** (d / 2.0) * abs_gamma)


# Gauss-Legendre nodes of the inner-ball and outer-panel radial quadratures,
# midpoint directions on the circle for d = 2, and the radius below which the
# inner ball is integrated from the Hessian
_INNER_NODES = 220
_PANEL_NODES = 48
_ANGULAR_NODES = 64
_ANGLES = (np.arange(_ANGULAR_NODES) + 0.5) * (2 * math.pi / _ANGULAR_NODES)
_DIRECTIONS = {1: (np.array([[1.0], [-1.0]]), 2.0),
               2: (np.stack([np.cos(_ANGLES), np.sin(_ANGLES)], axis=1), 2.0 * math.pi)}
_R0 = 1e-3


def _gauss_on(a, b, n):
    nodes, weights = gauss_legendre(n)
    return 0.5 * (b - a) * nodes + 0.5 * (a + b), 0.5 * (b - a) * weights


class _RadialRule(NamedTuple):
    """The part of ``frac_laplacian`` that does not depend on phi or x."""

    offsets: np.ndarray        # (radii * directions, d), inner radii first, then the panels
    inner_weights: np.ndarray  # w dr r^(-1-alpha) at the inner radii
    outer_weights: np.ndarray  # w r^(d-1) r^(-d-alpha) at the panel radii
    r0_power: float            # r0^(2-alpha)
    kernel: float              # kernel_constant(d, alpha)


@functools.cache
def _radial_rule(alpha, outer_radius, d):
    """The radial rule of ``frac_laplacian`` for one (alpha, outer_radius, d).

    Built once per key, on first use, and shared by every later call, so its
    arrays are read-only.
    """
    # inner ball: the substitution r = u^(2/(2-alpha)) flattens what is left
    # of the endpoint singularity above r0
    p = 2.0 / (2.0 - alpha)
    u, w_inner = _gauss_on(_R0 ** (1.0 / p), 1.0, _INNER_NODES)
    r_inner = u**p
    dr = p * u ** (p - 1.0)
    # outer region: geometric panels [a, min(2a, cutoff)] from radius 1 out,
    # one row of Gauss nodes each
    edges = [1.0]
    while edges[-1] < outer_radius:
        edges.append(min(2.0 * edges[-1], outer_radius))
    a, b = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
    r_outer, w_outer = (v.ravel() for v in _gauss_on(a, b, _PANEL_NODES))
    radii = np.concatenate([r_inner, r_outer])
    offsets = (radii[:, None, None] * _DIRECTIONS[d][0][None, :, :]).reshape(-1, d)
    arrays = (offsets, w_inner * dr * r_inner ** (-1.0 - alpha),
              w_outer * r_outer ** (d - 1.0) * r_outer ** (-d - alpha))
    for v in arrays:
        v.flags.writeable = False
    return _RadialRule(*arrays, _R0 ** (2.0 - alpha), kernel_constant(d, alpha))


def frac_laplacian(phi: TestFunction, x, alpha, outer_radius=64.0, tol=1e-9, return_parts=False):
    """Generator-signed fractional Laplacian -(-Lap)^(alpha/2) phi at x.

    The offsets, weights and kernel constant come from ``_radial_rule``; phi
    is evaluated in one call, at x plus every offset, and the inner part and
    each outer panel sum their own slice of the values.  Raises
    :class:`ConfigError` for an alpha outside (0, 2), a point with a
    non-finite coordinate, an ``outer_radius`` that is not finite and > 0 or
    a ``tol`` that is not finite and >= 0, and :class:`CutoffTooTight` when
    the analytic tail bound beyond the outer cutoff exceeds ``tol``.
    """
    if not 0 < alpha < 2:
        raise ConfigError(f"alpha={alpha} must lie in (0, 2), e.g. 1.5")
    if not 0 < outer_radius < math.inf:
        raise ConfigError(f"outer_radius={outer_radius} must be finite and > 0, e.g. 64.0")
    if not 0 <= tol < math.inf:
        raise ConfigError(f"tol={tol} must be finite and >= 0, e.g. 1e-9")
    x = np.atleast_1d(np.asarray(x, float))
    if not np.isfinite(x).all():
        raise ConfigError(f"point x={x.tolist()} must have finite coordinates")
    d = x.size
    if d not in _DIRECTIONS:
        raise NotImplementedError("fractional quadrature implemented for d in {1, 2}")
    rule = _radial_rule(float(alpha), float(outer_radius), d)
    dirs, sphere_measure = _DIRECTIONS[d]
    dir_weight = sphere_measure / len(dirs)
    phi_x = float(phi(x.reshape(1, -1))[0])

    # the sphere sum of phi at every radius, inner radii first, then the panels
    vals = np.asarray(phi(x + rule.offsets), float).reshape(-1, len(dirs))
    sphere_sums = dir_weight * vals.sum(axis=1)

    # inner ball: the +-y (full-sphere) average cancels the gradient term and
    # leaves a second difference ~ tr(H) r^2 / (2d) * |S|.  Below r0 the float
    # difference would be cancellation noise amplified by r^(-1-alpha), so
    # that range is integrated analytically from the Hessian.
    tr_h = float(np.trace(phi.hessian(x)))
    inner = (sphere_measure * tr_h / (2.0 * d)) * rule.r0_power / (2.0 - alpha)
    second_diff = sphere_sums[:_INNER_NODES] - sphere_measure * phi_x
    inner += float(np.sum(rule.inner_weights * second_diff))

    # exact -phi(x) * nu(|y|>1) plus panel quadrature of phi, added panel by panel
    nu_tail_total = sphere_measure / alpha  # int_1^inf r^(-1-alpha) r^(d-1) dr * |S|
    outer = -phi_x * nu_tail_total
    terms = rule.outer_weights * sphere_sums[_INNER_NODES:]
    for panel in terms.reshape(-1, _PANEL_NODES).sum(axis=1):
        outer += float(panel)
    phi_center = getattr(phi, "center", None)
    center_off = float(np.linalg.norm(x - phi_center)) if phi_center is not None else 0.0
    tail_sup = phi.decay_envelope(max(outer_radius - center_off, 0.0))
    tail_bound = tail_sup * sphere_measure * outer_radius ** (-alpha) / alpha
    cd = rule.kernel
    if cd * tail_bound > tol:
        raise CutoffTooTight(cd * tail_bound, tol)
    if return_parts:
        return cd * (inner + outer), cd * inner, cd * outer
    return cd * (inner + outer)


@functools.cache
def _spectral_grid(period, n):
    """The FFT oracle's periodic grid and its real transform's frequencies, read-only."""
    grid = -period / 2.0 + period * np.arange(n) / n
    xi = 2.0 * math.pi * np.fft.rfftfreq(n, d=period / n)
    grid.flags.writeable = False
    xi.flags.writeable = False
    return grid, xi


def _support_radius(phi, r_max, step):
    """A radius beyond which phi's decay envelope is exactly 0, within ``step`` of the
    smallest such radius, or None if the envelope is not 0 at r_max."""
    if not phi.decay_envelope(r_max) == 0.0:
        return None
    lo, hi = 0.0, r_max
    while hi - lo > step:
        mid = 0.5 * (lo + hi)
        if phi.decay_envelope(mid) == 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def spectral_frac_laplacian_1d(phi, xs, alpha, period=400.0, n=2**17):
    """FFT-multiplier oracle: -(-Lap)^(alpha/2) phi at points xs, d = 1.

    Samples phi on a long periodic grid and applies the symbol -|xi|^alpha.
    Independent of the singular-integral route; accuracy is limited by
    periodization of the operator's algebraic tails.  The samples are real,
    so a real transform carries the same spectrum in half the work.  The
    grid and its frequencies are built once per (period, n).  Where phi has
    a center, it is sampled only within the radius beyond which its decay
    envelope (a bound on |phi|) is exactly 0, and the rest of the samples
    are that 0.  Raises :class:`ConfigError` for an alpha outside (0, 2), a
    ``period`` that is not finite and > 0, or an ``n`` that is not an
    integer >= 2.
    """
    if not 0 < alpha < 2:
        raise ConfigError(f"alpha={alpha} must lie in (0, 2), e.g. 1.5")
    if not 0 < period < math.inf:
        raise ConfigError(f"period={period} must be finite and > 0, e.g. 400.0")
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2:
        raise ConfigError(f"n={n!r} must be an integer >= 2, e.g. 2**17")
    grid, xi = _spectral_grid(float(period), int(n))
    lo, hi = 0, n
    center = getattr(phi, "center", None)
    if center is not None and np.size(center) == 1:
        y = grid - np.ravel(center)[0]  # the offsets phi itself computes
        radius = _support_radius(phi, max(-y[0], y[-1]), period / n)
        if radius is not None:
            lo = int(np.searchsorted(y, -radius, side="left"))
            hi = int(np.searchsorted(y, radius, side="right"))
    vals = np.zeros(n)
    vals[lo:hi] = np.asarray(phi(grid[lo:hi].reshape(-1, 1)), float)
    transformed = np.fft.irfft(np.fft.rfft(vals) * (-xi**alpha), n)
    return np.interp(np.asarray(xs, float), grid, transformed)


# ---------------------------------------------------------------------------
# Generator and the pointwise G function.


def generator_apply(spec: ProcessSpec, phi: TestFunction, x):
    """Generator of the spec applied to a smooth test function at x."""
    x = np.atleast_1d(np.asarray(x, float))
    b = np.asarray(spec.drift(x.reshape(1, -1)), float)[0]
    out = float(b @ phi.gradient(x))
    noise = spec.noise
    if isinstance(noise, NoNoise):
        return out
    if isinstance(noise, BrownianNoise):
        if noise.eps > 0:
            out += 0.5 * noise.eps**2 * float(np.trace(phi.hessian(x)))
        return out
    if isinstance(noise, StableNoise):
        if noise.sigma > 0:
            out += noise.sigma**noise.alpha * frac_laplacian(phi, x, noise.alpha)
        return out
    raise TypeError(f"unknown noise {noise!r}")


def G_value(problem, spec: ProcessSpec, phi: TestFunction, x):
    """G(phi, x) = -L phi(x) + lam phi(x) - l(x); zero on classical solutions."""
    x = np.atleast_1d(np.asarray(x, float))
    return (-generator_apply(spec, phi, x) + problem.discount * float(phi(x.reshape(1, -1))[0])
            - float(np.asarray(problem.running_cost(x.reshape(1, -1)), float)[0]))


@dataclass(frozen=True)
class _TimeSlice(TestFunction):
    """phi(t0, .) as a function of the spatial variables."""

    phi: TestFunction
    t0: float

    @property
    def d(self):
        return self.phi.d - 1

    @property
    def center(self):
        c = getattr(self.phi, "center", None)
        return None if c is None else c[1:]

    def __call__(self, x):
        x = np.atleast_2d(np.asarray(x, float))
        pts = np.concatenate([np.full((len(x), 1), self.t0), x], axis=1)
        return self.phi(pts)

    def gradient(self, x):
        y = np.concatenate([[self.t0], np.atleast_1d(x)])
        return self.phi.gradient(y)[1:]

    def hessian(self, x):
        y = np.concatenate([[self.t0], np.atleast_1d(x)])
        return self.phi.hessian(y)[1:, 1:]

    def decay_envelope(self, r):
        return self.phi.decay_envelope(r)


def time_space_generator(spec_spatial: ProcessSpec, phi: TestFunction, t, x):
    """(d_t + L_x) phi at (t, x) for a test function on the time-space cylinder."""
    y = np.concatenate([[float(t)], np.atleast_1d(np.asarray(x, float))])
    dt_term = float(phi.gradient(y)[0])
    return dt_term + generator_apply(spec_spatial, _TimeSlice(phi, float(t)), y[1:])


def linear_G(problem, spec):
    """Stationary G(phi, x) for the checker."""
    return lambda phi, x: G_value(problem, spec, phi, x)


def hjb_G(alpha, gamma=1.0):
    """-d_t phi - |grad_x phi|^gamma + (-Lap_x)^(alpha/2) phi + 1 at y = (t, x)."""
    def G(phi, y):
        y = np.atleast_1d(np.asarray(y, float))
        grad = phi.gradient(y)
        frac = frac_laplacian(_TimeSlice(phi, float(y[0])), y[1:], alpha)
        return -float(grad[0]) - float(np.linalg.norm(grad[1:])) ** gamma - frac + 1.0
    return G


# ---------------------------------------------------------------------------
# Viscosity-property checker.


@dataclass
class ViscosityReport:
    point: np.ndarray
    mode: str
    violations: list = field(default_factory=list)
    tested_count: int = 0
    admissible_plus: int = 0
    admissible_minus: int = 0
    j_plus_empty: bool = False
    j_minus_empty: bool = False
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.violations

    def to_json(self):
        return {**asdict(self), "point": self.point.tolist()}


_COMPACT_QUADS = (-64.0, -24.0, -8.0, -2.0, -0.5, 0.0, 0.5, 2.0, 8.0, 24.0, 64.0)
_GAUSS_QUADS = (-8.0, -2.0, 0.0, 2.0, 8.0, 32.0)


def _candidate_families(x, u_x, scale, slopes, d):
    """Bump sweep touching value u_x at x; slopes refine around data.

    One ``(template, lins, quads)`` per envelope: candidate k of the family
    is the template with tilts ``lins[k]`` and ``quads[k]`` (slope-major,
    then curvature), in the order the sweep reports them.
    """
    slope_rows = np.array([s * np.ones(d) for s in slopes])

    def tilts(quads):
        return (np.repeat(slope_rows, len(quads), axis=0),
                np.tile(np.outer(quads, np.ones(d)), (len(slopes), 1)))

    return ([(CompactPolyBump(x, R, u_x), *tilts(_COMPACT_QUADS))
             for R in (0.35 * scale, 0.7 * scale, 1.4 * scale, 2.8 * scale)]
            + [(GaussPolyBump(x, w, u_x), *tilts(_GAUSS_QUADS))
               for w in (0.5 * scale, scale, 2 * scale)])


def _default_slopes(u, x, d, scale):
    """Coarse global slopes plus refinements around the estimated gradient of u."""
    base = [-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0]
    eps = 1e-4 * scale
    out = [s for s in base]
    try:
        grad = np.zeros(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = eps
            grad[i] = (float(u(x + e)) - float(u(x - e))) / (2 * eps)
        if d == 1:
            out.extend(float(grad[0] + delta) for delta in
                       (-0.01, -0.003, 0.0, 0.003, 0.01))
        else:
            out.append(grad)
            for i in range(d):
                for delta in (-0.01, -0.003, 0.003, 0.01):
                    v = grad.copy()
                    v[i] += delta
                    out.append(v)
    except ValueError:  # the closed forms reject points off [0, 1]
        pass
    return out


# admissibility lattice: points along one axis (split over the axes for d > 1)
# and the padding beyond the bounding box, in units of its largest side
_LATTICE_POINTS = 2001
_LATTICE_PAD = 2.0


def _local_cluster(x, span, d):
    """Dense points around the touch point; admissibility is binding there."""
    radii = np.geomspace(1e-6 * span, 0.45 * span, 28)
    dirs = [e for i in range(d) for e in (np.eye(d)[i], -np.eye(d)[i])]
    if d > 1:
        from itertools import product

        for signs in product((-1.0, 1.0), repeat=d):
            dirs.append(np.asarray(signs) / math.sqrt(d))
    return np.concatenate([x + radii[:, None] * u_dir[None, :] for u_dir in dirs])


def _admissibility_lattice(u, problem, x):
    """Lattice of the admissibility test and the extended solution's envelopes on it.

    Returns ``(mesh, env_up, env_lo, span, n_near)``: the points, the
    largest and the smallest of u and the boundary data g at each (u inside,
    g outside, both on the boundary), the largest side of the domain's
    bounding box, and the number of leading rows of ``mesh`` that are the
    cluster around x.
    """
    domain, d = problem.domain, x.size
    lo, hi = domain.bounding_box()
    span = float(np.max(hi - lo))
    pad = _LATTICE_PAD * span
    if d == 1:
        axes = [np.linspace(lo[0] - pad, hi[0] + pad, _LATTICE_POINTS)]
    else:
        per_axis = max(int(_LATTICE_POINTS ** (1.0 / d)), 41)
        axes = [np.linspace(lo[i] - pad, hi[i] + pad, per_axis) for i in range(d)]
    near = _local_cluster(x, span, d)
    mesh = np.vstack([near, np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)])
    inside = domain.contains(mesh, "closure")
    strictly = domain.contains(mesh, "open")
    edge = inside & ~strictly
    u_vals = np.asarray(u(mesh), float)
    g_vals = np.asarray(problem.boundary_data(mesh), float)
    env_up = np.where(inside, u_vals, g_vals)
    env_lo = env_up.copy()
    env_up[edge] = np.maximum(u_vals[edge], g_vals[edge])
    env_lo[edge] = np.minimum(u_vals[edge], g_vals[edge])
    return mesh, env_up, env_lo, span, len(near)


def _family_values(template, lins, quads, y):
    """Every candidate of one family at the rows of y = points - center, one column each.

    The same sums as each bump's own ``__call__``, so at d = 1 column k is
    bit for bit the value of the template with tilts ``lins[k]``, ``quads[k]``.
    """
    vals = y @ lins.T
    vals += template.amplitude
    vals += (y * y) @ quads.T
    vals *= template.envelope(y)[:, None]
    return vals


VISCOSITY_MODES = ("strong", "generalized", "nonstationary")
VISCOSITY_SIDES = ("sub", "super")


def check_viscosity_point(u, problem, spec, x, mode="generalized", g_fn=None, tol=1e-3,
                          sides=VISCOSITY_SIDES) -> ViscosityReport:
    """Search for violations of the viscosity inequalities of u at x.

    ``u`` is any callable on points (a :class:`GridFunction` or a closed
    form).  ``mode`` selects the boundary handling: ``strong`` checks the raw
    data condition at boundary points, ``generalized`` the relaxed min/max
    form, ``nonstationary`` treats the domain as a cylinder with zero data.
    ``sides`` names the inequalities to test, one or both of "sub" and
    "super"; an unknown mode or side raises :class:`ConfigError`.
    ``g_fn`` overrides the default G (e.g. the HJB form with the gradient
    power term).  Admissibility of each candidate test function (global
    domination of the extended solution) is verified on a lattice whose
    spacing is reported in ``notes``; a clean result means "no counterexample
    among the admissible candidates", nothing stronger.
    """
    if mode not in VISCOSITY_MODES:
        raise ConfigError(f"unknown viscosity mode {mode!r}; use one of {list(VISCOSITY_MODES)}")
    if not sides or not all(side in VISCOSITY_SIDES for side in sides):
        raise ConfigError(f"sides={sides!r} must be a non-empty collection of "
                          f"{list(VISCOSITY_SIDES)}, e.g. ('sub', 'super')")
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"tol={tol!r} must be a finite number >= 0, e.g. 1e-3")
    x = np.atleast_1d(np.asarray(x, float))
    domain = problem.domain
    if not domain.contains(x, "closure"):  # also a point with a NaN coordinate
        raise ConfigError(f"query point x={x.tolist()} lies outside the closed domain; "
                          "pass a finite point of its closure")
    d = x.size
    if g_fn is None:
        g_fn = linear_G(problem, spec)
    report = ViscosityReport(point=x, mode=mode)

    u_x = float(u(x))
    interior = bool(domain.contains(x, "open"))

    g_x = float(np.asarray(problem.boundary_data(x.reshape(1, -1)), float)[0])
    if not interior:
        if mode == "strong":
            if "sub" in sides and u_x > g_x + tol:
                report.violations.append({"side": "sub", "kind": "boundary-data",
                                          "u": u_x, "g": g_x, "breach": u_x - g_x})
            if "super" in sides and u_x < g_x - tol:
                report.violations.append({"side": "super", "kind": "boundary-data",
                                          "u": u_x, "g": g_x, "breach": g_x - u_x})
            report.notes.append("strong mode at boundary: data comparison only")
            return report
        if mode == "nonstationary":
            if abs(u_x) > tol:
                report.violations.append({"side": "data", "kind": "lateral-data",
                                          "u": u_x, "breach": abs(u_x)})
            report.notes.append("non-stationary mode off the open cylinder: data check only")
            return report

    mesh, env_up, env_lo, span, n_near = _admissibility_lattice(u, problem, x)
    report.notes.append(f"lattice: {len(mesh)} points, pad {_LATTICE_PAD * span:.3g}")

    # exact emptiness at the query point itself
    if not interior:
        if g_x > u_x + 1e-12:
            report.j_plus_empty = True
        if g_x < u_x - 1e-12:
            report.j_minus_empty = True

    slopes = _default_slopes(u, x, d, span)
    adm_tol = 1e-8
    test_sub = "sub" in sides and not report.j_plus_empty
    test_super = "super" in sides and not report.j_minus_empty
    floor = (env_up - adm_tol)[:, None]
    ceiling = (env_lo + adm_tol)[:, None]
    y = mesh - x

    # one family at a time as a (points, candidates) array, in two stages:
    # the cluster around x, where admissibility binds and most columns fail,
    # then the rest of the lattice for the columns that passed there.  A bump
    # object is built only for an admissible column, in sweep order
    for template, lins, quads in _candidate_families(x, u_x, span, slopes, d):
        k_count = len(lins)
        report.tested_count += k_count
        above, below = np.full(k_count, test_sub), np.full(k_count, test_super)
        for rows in (slice(None, n_near), slice(n_near, None)):
            cols = np.flatnonzero(above | below)
            vals = _family_values(template, lins[cols], quads[cols], y[rows])
            above[cols] &= np.all(vals >= floor[rows], axis=0)
            below[cols] &= np.all(vals <= ceiling[rows], axis=0)
        for k in np.flatnonzero(above | below):
            phi = replace(template, lin=lins[k], quad=quads[k])
            if above[k]:
                report.admissible_plus += 1
                Gv = g_fn(phi, x)
                ok = (Gv <= tol) if interior else (min(Gv, u_x - g_x) <= tol)
                if not ok:
                    report.violations.append({"side": "sub", "kind": "inequality",
                                              "G": float(Gv), "phi": phi.params()})
            if below[k]:
                report.admissible_minus += 1
                Gv = g_fn(phi, x)
                ok = (Gv >= -tol) if interior else (max(Gv, u_x - g_x) >= -tol)
                if not ok:
                    report.violations.append({"side": "super", "kind": "inequality",
                                              "G": float(Gv), "phi": phi.params()})
    if "sub" in sides and report.admissible_plus == 0:
        report.j_plus_empty = True
    if "super" in sides and report.admissible_minus == 0:
        report.j_minus_empty = True
    return report
