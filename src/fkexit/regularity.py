"""Boundary-point regularity: Monte Carlo probing and analytic cone rules.

A boundary point is regular when the process started there leaves the closed
domain immediately, almost surely; by the zero-one law the probability of an
immediate exit is 0 or 1, never in between.  The probe estimates
P[zeta <= dt] for a ladder of shrinking windows on a shared set of paths
(so the estimates are exactly monotone in the window) and classifies by the
dichotomy at the smallest window.  The analytic shortcut applies the
exterior-cone criteria:

    A1  noise scale > 0 and stable index >= 1
    A2  noise scale > 0 and zero drift
    A3  drift(x) . cone_direction > 0

any of which forces regularity without sampling.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .engine import run_batch
from .errors import ConfigError, NoConeData, StepTooCoarse
from .feynman_kac import _proportion
from .geometry import Domain
from .levy import ProcessSpec, StableNoise
from .rng import as_stream, derive_seed, effective_seed

DEFAULT_WINDOWS = (0.1, 0.01, 0.001)


@dataclass(frozen=True)
class RegularityReport:
    point: np.ndarray
    probe_probs: list = field(default_factory=list)  # (window, p_hat, se), decreasing windows
    analytic_rule: str = "none-applicable"
    classification: str = "inconclusive"


def classify_by_cone_rules(spec: ProcessSpec, domain: Domain, x) -> str:
    """Which of the exterior-cone criteria applies at boundary point x."""
    x = np.atleast_1d(np.asarray(x, float))
    cone = domain.exterior_cone(x)  # NoConeData propagates
    if isinstance(spec.noise, StableNoise) and spec.noise.sigma > 0:
        if spec.noise.alpha >= 1.0:
            return "A1"
        if spec.drift.is_zero:
            return "A2"
    b = np.asarray(spec.drift(x.reshape(1, -1)), float)[0]
    if float(b @ cone.direction) > 0.0:
        return "A3"
    return "none-applicable"


def probe_regularity(spec: ProcessSpec, domain: Domain, x, windows=DEFAULT_WINDOWS,
                     n=2000, h=None, rng=0) -> RegularityReport:
    """Estimate immediate-exit probabilities from x over shrinking windows.

    All windows are evaluated on the same n trajectories, simulated once to
    the largest window.  Classification is decided at the smallest window:
    regular needs p >= 1 - 3 se, irregular needs p <= 3 se, anything else is
    reported as inconclusive rather than silently assigned.
    """
    x = np.atleast_1d(np.asarray(x, float))
    windows = sorted(windows, reverse=True)
    if not (windows and np.isfinite(windows).all() and windows[-1] > 0):
        raise ConfigError(f"windows={windows!r} must hold one or more probe windows, each a "
                          "finite number > 0, e.g. [0.1, 0.01]")
    if h is None:
        h = windows[-1] / 100.0
    if h > windows[-1] / 10.0:
        raise StepTooCoarse(f"h={h} too coarse for window {windows[-1]}; need h <= window/10")
    seed = effective_seed(rng)
    res = run_batch(spec, domain, x, h, windows[0], n, seed)
    ests = [_proportion(res.zeta <= w + 1e-12, seed, res.truncated) for w in windows]
    p, se = ests[-1].mean, ests[-1].std_error
    cls = ("regular" if p >= 1.0 - 3.0 * se else "irregular" if p <= 3.0 * se
           else "inconclusive")
    probs = [(w, e.mean, e.std_error) for w, e in zip(windows, ests)]
    return RegularityReport(x, probs, "none-applicable", cls)


def classify_point(spec, domain, x, windows=DEFAULT_WINDOWS, n=2000, h=None,
                   rng=0) -> RegularityReport:
    """Cone rules first; fall back to Monte Carlo probing."""
    try:
        rule = classify_by_cone_rules(spec, domain, x)
    except NoConeData:
        rule = "none-applicable"
    if rule != "none-applicable":
        return RegularityReport(np.atleast_1d(np.asarray(x, float)), [], rule, "regular")
    return probe_regularity(spec, domain, x, windows, n, h, rng)


def classify_boundary(spec: ProcessSpec, domain: Domain, n_points, windows=DEFAULT_WINDOWS,
                      n=2000, h=None, rng=0):
    """Classify sampled boundary points; returns (reports, partition).

    The partition maps "regular" / "irregular" / "inconclusive" to lists of
    report indices; inconclusive points are surfaced, never assigned.
    """
    stream = as_stream(rng)
    pts = domain.sample_boundary(n_points, stream.generator())
    reports = []
    partition = {"regular": [], "irregular": [], "inconclusive": []}
    for i, x in enumerate(pts):
        rep = classify_point(spec, domain, x, windows, n, h,
                             rng=derive_seed(stream.seed, "probe", i, stream.stream_id))
        reports.append(rep)
        partition[rep.classification].append(i)
    return reports, partition


def reports_to_csv(reports, fileobj):
    writer = csv.writer(fileobj)
    d = len(reports[0].point) if reports else 0
    writer.writerow([f"x{i}" for i in range(d)]
                    + ["window", "p_hat", "se", "rule", "classification"])
    for rep in reports:
        coords = [repr(float(v)) for v in rep.point]
        if rep.probe_probs:
            for w, p, se in rep.probe_probs:
                writer.writerow(coords + [repr(w), repr(p), repr(se),
                                          rep.analytic_rule, rep.classification])
        else:
            writer.writerow(coords + ["", "", "", rep.analytic_rule, rep.classification])
