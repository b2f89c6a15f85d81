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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import solve_banded
from scipy.special import gamma as gamma_fn

from .errors import CutoffTooTight, SingularSystem
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


@dataclass(frozen=True)
class GaussPolyBump(TestFunction):
    """(a + l.y + y.diag(q).y) exp(-|y|^2 / (2 w^2)), y = x - center."""

    center: np.ndarray
    width: float
    amplitude: float = 1.0
    lin: np.ndarray = None
    quad: np.ndarray = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, float))
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "lin",
                           np.zeros(c.size) if self.lin is None else np.asarray(self.lin, float))
        object.__setattr__(self, "quad",
                           np.zeros(c.size) if self.quad is None else np.asarray(self.quad, float))

    @property
    def d(self):
        return self.center.size

    def _poly(self, y):
        return self.amplitude + y @ self.lin + (y * y) @ self.quad

    def __call__(self, x):
        y = np.asarray(x, float) - self.center
        single = y.ndim == 1
        y = np.atleast_2d(y)
        g = np.exp(-np.einsum("ij,ij->i", y, y) / (2 * self.width**2))
        out = self._poly(y) * g
        return float(out[0]) if single else out

    def gradient(self, x):
        y = np.asarray(x, float) - self.center
        g = math.exp(-float(y @ y) / (2 * self.width**2))
        p = self.amplitude + float(y @ self.lin) + float((y * y) @ self.quad)
        dp = self.lin + 2 * self.quad * y
        return g * (dp - p * y / self.width**2)

    def hessian(self, x):
        y = np.asarray(x, float) - self.center
        w2 = self.width**2
        g = math.exp(-float(y @ y) / (2 * w2))
        p = self.amplitude + float(y @ self.lin) + float((y * y) @ self.quad)
        dp = self.lin + 2 * self.quad * y
        d2p = np.diag(2 * self.quad)
        return g * (d2p - (np.outer(dp, y) + np.outer(y, dp)) / w2
                    + p * (np.outer(y, y) / w2**2 - np.eye(self.d) / w2))

    def decay_envelope(self, r):
        # the polynomial factor grows; push the bound one width further out
        rr = r + 4.0 * self.width
        amp = abs(self.amplitude) + float(np.linalg.norm(self.lin)) * rr \
            + float(np.max(np.abs(self.quad), initial=0.0)) * rr * rr
        return amp * math.exp(-r * r / (2 * self.width**2))

    def params(self):
        return {"family": "gauss-poly", "center": self.center.tolist(), "width": self.width,
                "amplitude": self.amplitude, "lin": self.lin.tolist(), "quad": self.quad.tolist()}


@dataclass(frozen=True)
class CompactPolyBump(TestFunction):
    """(a + l.y + y.diag(q).y) * exp(1 - 1/(1 - s)), s = sum (y_i / R_i)^2 < 1.

    Identically zero outside the ellipsoid s >= 1, so it sits below (or above)
    any extension that vanishes there.
    """

    center: np.ndarray
    radius: np.ndarray
    amplitude: float = 1.0
    lin: np.ndarray = None
    quad: np.ndarray = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, float))
        object.__setattr__(self, "center", c)
        r = np.asarray(self.radius, float)
        if r.ndim == 0:
            r = np.full(c.size, float(r))
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "lin",
                           np.zeros(c.size) if self.lin is None else np.asarray(self.lin, float))
        object.__setattr__(self, "quad",
                           np.zeros(c.size) if self.quad is None else np.asarray(self.quad, float))

    @property
    def d(self):
        return self.center.size

    def __call__(self, x):
        y = np.asarray(x, float) - self.center
        single = y.ndim == 1
        y = np.atleast_2d(y)
        s = np.sum((y / self.radius) ** 2, axis=-1)
        inside = s < 1.0
        beta = np.zeros_like(s)
        ss = np.clip(s, 0.0, 1.0 - 1e-12)
        beta[inside] = np.exp(1.0 - 1.0 / (1.0 - ss[inside]))
        p = self.amplitude + y @ self.lin + (y * y) @ self.quad
        out = p * beta
        return float(out[0]) if single else out

    def _beta_chain(self, y):
        s = float(np.sum((y / self.radius) ** 2))
        if s >= 1.0 - 1e-12:
            return 0.0, 0.0, 0.0, s
        beta = math.exp(1.0 - 1.0 / (1.0 - s))
        b1 = -beta / (1.0 - s) ** 2
        b2 = beta / (1.0 - s) ** 4 - 2.0 * beta / (1.0 - s) ** 3
        return beta, b1, b2, s

    def gradient(self, x):
        y = np.asarray(x, float) - self.center
        beta, b1, _, s = self._beta_chain(y)
        if beta == 0.0:
            return np.zeros(self.d)
        ds = 2.0 * y / self.radius**2
        p = self.amplitude + float(y @ self.lin) + float((y * y) @ self.quad)
        dp = self.lin + 2 * self.quad * y
        return beta * dp + p * b1 * ds

    def hessian(self, x):
        y = np.asarray(x, float) - self.center
        beta, b1, b2, s = self._beta_chain(y)
        if beta == 0.0:
            return np.zeros((self.d, self.d))
        ds = 2.0 * y / self.radius**2
        d2s = np.diag(2.0 / self.radius**2)
        p = self.amplitude + float(y @ self.lin) + float((y * y) @ self.quad)
        dp = self.lin + 2 * self.quad * y
        d2p = np.diag(2 * self.quad)
        return (beta * d2p + b1 * (np.outer(dp, ds) + np.outer(ds, dp))
                + p * (b2 * np.outer(ds, ds) + b1 * d2s))

    def decay_envelope(self, r):
        if r >= float(np.max(self.radius)):
            return 0.0
        rmax = float(np.max(self.radius))
        return (abs(self.amplitude) + float(np.linalg.norm(self.lin)) * rmax
                + float(np.max(np.abs(self.quad), initial=0.0)) * rmax**2)

    def params(self):
        return {"family": "compact-poly", "center": self.center.tolist(),
                "radius": self.radius.tolist(), "amplitude": self.amplitude,
                "lin": self.lin.tolist(), "quad": self.quad.tolist()}


# ---------------------------------------------------------------------------
# Fractional Laplacian: singular-integral quadrature and the FFT oracle.


def kernel_constant(d, alpha):
    """C(d, alpha) normalizing the kernel |y|^(-d-alpha) to symbol |xi|^alpha."""
    abs_gamma = 2.0 * gamma_fn(1.0 - alpha / 2.0) / alpha  # |Gamma(-alpha/2)|
    return 4.0 ** (alpha / 2.0) * gamma_fn((d + alpha) / 2.0) / (math.pi ** (d / 2.0) * abs_gamma)


def _gauss_on(a, b, n):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * nodes + 0.5 * (a + b), 0.5 * (b - a) * weights


def frac_laplacian(phi: TestFunction, x, alpha, outer_radius=64.0, tol=1e-9,
                   inner_nodes=220, panel_nodes=48, angular_nodes=64, return_parts=False):
    """Generator-signed fractional Laplacian -(-Lap)^(alpha/2) phi at x.

    Raises :class:`CutoffTooTight` when the analytic tail bound beyond the
    outer cutoff exceeds ``tol``.
    """
    if not 0 < alpha < 2:
        raise ValueError("alpha must lie in (0, 2)")
    x = np.atleast_1d(np.asarray(x, float))
    d = x.size
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
        sphere_measure = 2.0
    elif d == 2:
        ang = (np.arange(angular_nodes) + 0.5) * (2 * math.pi / angular_nodes)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        sphere_measure = 2.0 * math.pi
    else:
        raise NotImplementedError("fractional quadrature implemented for d in {1, 2}")
    dir_weight = sphere_measure / len(dirs)
    phi_x = float(phi(x.reshape(1, -1))[0])

    def sphere_sum(radii):
        pts = x[None, None, :] + radii[:, None, None] * dirs[None, :, :]
        vals = np.asarray(phi(pts.reshape(-1, d)), float).reshape(len(radii), len(dirs))
        return dir_weight * vals.sum(axis=1)

    # inner ball: the +-y (full-sphere) average cancels the gradient term and
    # leaves a second difference ~ tr(H) r^2 / (2d) * |S|.  Below r0 the float
    # difference would be cancellation noise amplified by r^(-1-alpha), so
    # that range is integrated analytically from the Hessian; above r0 the
    # substitution r = u^(2/(2-alpha)) flattens what is left of the endpoint.
    r0 = 1e-3
    tr_h = float(np.trace(phi.hessian(x)))
    inner = (sphere_measure * tr_h / (2.0 * d)) * r0 ** (2.0 - alpha) / (2.0 - alpha)
    p = 2.0 / (2.0 - alpha)
    u, w = _gauss_on(r0 ** (1.0 / p), 1.0, inner_nodes)
    r = u**p
    dr = p * u ** (p - 1.0)
    second_diff = sphere_sum(r) - sphere_measure * phi_x
    inner += float(np.sum(w * dr * r ** (-1.0 - alpha) * second_diff))

    # outer region: exact -phi(x) * nu(|y|>1) plus panel quadrature of phi
    nu_tail_total = sphere_measure / alpha  # int_1^inf r^(-1-alpha) r^(d-1) dr * |S|
    outer = -phi_x * nu_tail_total
    a = 1.0
    while a < outer_radius:
        b = min(2.0 * a, outer_radius)
        r, w = _gauss_on(a, b, panel_nodes)
        outer += float(np.sum(w * r ** (d - 1.0) * r ** (-d - alpha) * sphere_sum(r)))
        a = b
    phi_center = getattr(phi, "center", None)
    center_off = float(np.linalg.norm(x - phi_center)) if phi_center is not None else 0.0
    tail_sup = phi.decay_envelope(max(outer_radius - center_off, 0.0))
    tail_bound = tail_sup * sphere_measure * outer_radius ** (-alpha) / alpha
    cd = kernel_constant(d, alpha)
    if cd * tail_bound > tol:
        raise CutoffTooTight(cd * tail_bound, tol)
    if return_parts:
        return cd * (inner + outer), cd * inner, cd * outer
    return cd * (inner + outer)


def spectral_frac_laplacian_1d(phi, xs, alpha, period=400.0, n=2**17):
    """FFT-multiplier oracle: -(-Lap)^(alpha/2) phi at points xs, d = 1.

    Samples phi on a long periodic grid and applies the symbol -|xi|^alpha.
    Independent of the singular-integral route; accuracy is limited by
    periodization of the operator's algebraic tails.
    """
    grid = -period / 2.0 + period * np.arange(n) / n
    vals = np.asarray(phi(grid.reshape(-1, 1)), float)
    xi = 2.0 * math.pi * np.fft.fftfreq(n, d=period / n)
    transformed = np.fft.ifft(np.fft.fft(vals) * (-np.abs(xi) ** alpha)).real
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


def time_space_G(spec_spatial, running_cost):
    """Non-stationary linear form -(d_t + L_x) phi - l at y = (t, x)."""
    def G(phi, y):
        y = np.atleast_1d(np.asarray(y, float))
        ell = float(np.asarray(running_cost(y.reshape(1, -1)), float)[0])
        return -time_space_generator(spec_spatial, phi, y[0], y[1:]) - ell
    return G


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
        return {
            "point": self.point.tolist(),
            "mode": self.mode,
            "violations": self.violations,
            "tested_count": self.tested_count,
            "admissible_plus": self.admissible_plus,
            "admissible_minus": self.admissible_minus,
            "j_plus_empty": self.j_plus_empty,
            "j_minus_empty": self.j_minus_empty,
            "notes": self.notes,
        }


def _candidate_families(x, u_x, scale, slopes, d):
    """Bump sweep touching value u_x at x; slopes refine around data."""
    cands = []
    radii = [0.35 * scale, 0.7 * scale, 1.4 * scale, 2.8 * scale]
    quads = [-64.0, -24.0, -8.0, -2.0, -0.5, 0.0, 0.5, 2.0, 8.0, 24.0, 64.0]
    for R in radii:
        for s in slopes:
            for q in quads:
                cands.append(CompactPolyBump(x, R, u_x, s * np.ones(d) if np.isscalar(s) else s,
                                             q * np.ones(d)))
    for w in (0.5 * scale, scale, 2 * scale):
        for s in slopes:
            for q in (-8.0, -2.0, 0.0, 2.0, 8.0, 32.0):
                cands.append(GaussPolyBump(x, w, u_x, s * np.ones(d) if np.isscalar(s) else s,
                                           q * np.ones(d)))
    return cands


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
    except Exception:
        pass
    return out


def _local_cluster(x, span, d):
    """Dense points around the touch point; admissibility is binding there."""
    radii = np.geomspace(1e-6 * span, 0.45 * span, 28)
    dirs = [e for i in range(d) for e in (np.eye(d)[i], -np.eye(d)[i])]
    if d > 1:
        from itertools import product

        for signs in product((-1.0, 1.0), repeat=d):
            dirs.append(np.asarray(signs) / math.sqrt(d))
    return np.concatenate([x + radii[:, None] * u_dir[None, :] for u_dir in dirs])


def check_viscosity_point(u, problem, spec, x, mode="generalized", g_fn=None,
                          lattice_points=2001, lattice_pad=2.0, tol=1e-3,
                          sides=("sub", "super")) -> ViscosityReport:
    """Search for violations of the viscosity inequalities of u at x.

    ``u`` is any callable on points (a :class:`GridFunction` or a closed
    form).  ``mode`` selects the boundary handling: ``strong`` checks the raw
    data condition at boundary points, ``generalized`` the relaxed min/max
    form, ``nonstationary`` treats the domain as a cylinder with zero data.
    ``g_fn`` overrides the default G (e.g. the HJB form with the gradient
    power term).  Admissibility of each candidate test function (global
    domination of the extended solution) is verified on a lattice whose
    spacing is reported in ``notes``; a clean result means "no counterexample
    among the admissible candidates", nothing stronger.
    """
    x = np.atleast_1d(np.asarray(x, float))
    domain = problem.domain
    d = x.size
    g_data = problem.boundary_data
    if g_fn is None:
        g_fn = linear_G(problem, spec)
    report = ViscosityReport(point=x, mode=mode)

    u_x = float(u(x))
    interior = bool(domain.contains(x, "open"))
    on_closure = bool(domain.contains(x, "closure"))
    if not on_closure:
        raise ValueError("query point must lie in the closed domain")

    g_x = float(np.asarray(g_data(x.reshape(1, -1)), float)[0])
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

    # build the lattice and the extended envelopes
    lo, hi = domain.bounding_box()
    span = float(np.max(hi - lo))
    pad = lattice_pad * span
    if d == 1:
        axes = [np.linspace(lo[0] - pad, hi[0] + pad, lattice_points)]
    else:
        per_axis = max(int(lattice_points ** (1.0 / d)), 41)
        axes = [np.linspace(lo[i] - pad, hi[i] + pad, per_axis) for i in range(d)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    mesh = np.vstack([mesh, _local_cluster(x, span, d)])
    inside = domain.contains(mesh, "closure")
    strictly = domain.contains(mesh, "open")
    edge = inside & ~strictly
    u_vals = np.asarray(u(mesh), float)
    g_vals = np.asarray(g_data(mesh), float)
    env_up = np.where(inside, u_vals, g_vals)
    env_lo = env_up.copy()
    env_up[edge] = np.maximum(u_vals[edge], g_vals[edge])
    env_lo[edge] = np.minimum(u_vals[edge], g_vals[edge])
    report.notes.append(f"lattice: {len(mesh)} points, pad {pad:.3g}")

    # exact emptiness at the query point itself
    if not interior:
        if g_x > u_x + 1e-12:
            report.j_plus_empty = True
        if g_x < u_x - 1e-12:
            report.j_minus_empty = True

    scale = span
    slopes = _default_slopes(u, x, d, scale)
    cands = _candidate_families(x, u_x, scale, slopes, d)
    report.tested_count = len(cands)
    adm_tol = 1e-8

    for phi in cands:
        vals = np.asarray(phi(mesh), float)
        if "sub" in sides and not report.j_plus_empty:
            if np.all(vals >= env_up - adm_tol):
                report.admissible_plus += 1
                Gv = g_fn(phi, x)
                ok = (Gv <= tol) if interior else (min(Gv, u_x - g_x) <= tol)
                if not ok:
                    report.violations.append({"side": "sub", "kind": "inequality",
                                              "G": float(Gv), "phi": phi.params()})
        if "super" in sides and not report.j_minus_empty:
            if np.all(vals <= env_lo + adm_tol):
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
