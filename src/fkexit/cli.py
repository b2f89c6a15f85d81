"""Experiment runner.

Each named experiment reproduces one benchmark end to end and writes a
self-describing artifact: the resolved configuration and its hash are
embedded in the output header, and identical configurations produce
byte-identical files at any worker count.

    fkexit --config cfg.json [--seed N] [--workers N] [--out DIR]

The config is a single JSON document:

    {
      "experiment": "drift-interval",
      "params": { ... experiment-specific ... },
      "mc": {"n": 10000, "h": 1e-3, "seed": 7},
      "output": {"path": "drift.csv"}
    }

Exit status: 0 on success, 2 on configuration errors, 3 on runtime errors.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys

import numpy as np

from .errors import ConfigError, DegenerateP, FkexitError, check_workers, require_key
# perfbench/tracing.py wraps estimate_v_nonstationary by its name in this module
from .feynman_kac import (DirichletProblem, attainment_witness, estimate_v,  # noqa: F401
                          estimate_v_nonstationary, estimate_v_nonstationary_grid)
from .functions import Constant, Zero
from .geometry import Ball, Cylinder, Interval, domain_from_config, parabolic_rect
from .levy import (BrownianNoise, ConstantDrift, NoNoise, ParabolicDrift, ProcessSpec,
                   StableNoise, ZeroDrift, spec_from_config)
from .paths import ConstantVelocityFlow, exit_time, exit_time_left, flow_path, linear_path
from .pde_oracle import (GridFunction, check_viscosity_point, closed_form_v0,
                         closed_form_v_eps, parabolic_value)
from .regularity import classify_boundary, reports_to_csv
from .rng import derive_seed

_FMT = repr  # deterministic full-precision float formatting


def _config_hash(cfg):
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _write_artifact(path, header_lines, body):
    with open(path, "w", newline="") as f:
        for line in header_lines:
            f.write("# " + line + "\n")
        f.write(body)


def _section(cfg, key):
    """cfg[key] (an empty one if absent), or a ConfigError unless it is a JSON object."""
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key}={section!r} must be a JSON object, e.g. {{}}")
    return section


def _is_numbers(v):
    return isinstance(v, list) and all(type(x) in (int, float) for x in v)


# what a parameter must be, where the experiments read it as one
_PARAM_KINDS = {
    **dict.fromkeys(("eps", "discount", "running_cost", "alpha", "sigma", "T", "radius", "tol"),
                    ("a number", lambda v: type(v) in (int, float))),
    **dict.fromkeys(("n1", "n2", "n_points", "d", "nt", "nx", "grid_nodes"),
                    ("an integer >= 1", lambda v: type(v) is int and v >= 1)),
    **dict.fromkeys(("grid", "windows", "points", "sequence"), ("a list of numbers", _is_numbers)),
    "x0": ("a point, e.g. [0.0]", lambda v: type(v) in (int, float) or _is_numbers(v)),
    **dict.fromkeys(("spec", "domain"), ("a JSON object", lambda v: isinstance(v, dict))),
}


def _checked_params(config):
    """config["params"], or a ConfigError for the first parameter that is not of its kind."""
    params = _section(config, "params")
    for key, value in params.items():
        what, ok = _PARAM_KINDS.get(key, ("", lambda v: True))
        if not ok(value):
            raise ConfigError(f"params.{key}={value!r} must be {what}")
    return params


def _mc_params(cfg, defaults):
    mc = dict(defaults)
    mc.update(_section(cfg, "mc"))
    for k in ("n", "h", "seed"):
        if k not in mc:
            raise ConfigError(f"mc.{k} is required; add e.g. \"mc\": {{\"{k}\": ...}}")
    if type(mc["n"]) is not int or mc["n"] < 1:  # a bool is not a sample size either
        raise ConfigError(f"mc.n={mc['n']!r} must be an integer >= 1, e.g. 10000")
    if type(mc["seed"]) is not int:
        raise ConfigError(f"mc.seed={mc['seed']!r} must be an integer, e.g. 7")
    h = mc["h"]
    if type(h) not in (int, float) or not (math.isfinite(h) and h > 0):
        raise ConfigError(f"mc.h={h!r} must be a finite number > 0, e.g. 1e-3")
    return mc


def run_drift_interval(params, mc, workers):
    """Value function on (0,1) for dX = dt + eps dW against the closed form."""
    eps = float(params.get("eps", 0.0))
    xs = params.get("grid", [round(0.1 * i, 10) for i in range(11)])
    if not all(0 <= x <= 1 for x in xs):
        raise ConfigError(f"params.grid={xs!r} must hold points of [0, 1], e.g. [0.25, 0.5]")
    problem = DirichletProblem(Interval(0, 1), Constant(1.0), Zero(), 1.0)
    noise = NoNoise() if eps == 0.0 else BrownianNoise(eps)
    spec = ProcessSpec(ConstantDrift([1.0]), noise, 1)
    ref = closed_form_v0 if eps == 0.0 else (lambda x: closed_form_v_eps(eps, x))
    rows = ["x,v_mc,std_error,n,truncated_fraction,v_ref"]
    for i, x in enumerate(xs):
        est = estimate_v(problem, spec, [x], mc["h"], mc["n"],
                         derive_seed(mc["seed"], "drift-interval", i), workers=workers)
        rows.append(",".join([_FMT(float(x)), _FMT(est.mean), _FMT(est.std_error),
                              str(est.n), _FMT(est.truncated_fraction), _FMT(float(ref(x)))]))
    return "\n".join(rows) + "\n"


def run_parabolic_flow(params, mc, workers):
    """Deterministic planar flow: Monte Carlo grid vs the piecewise oracle."""
    n1 = int(params.get("n1", 41))
    n2 = int(params.get("n2", 21))
    problem = DirichletProblem(parabolic_rect(), Constant(1.0), Zero(), 1.0)
    spec = ProcessSpec(ParabolicDrift(), NoNoise(), 2)
    rows = ["x1,x2,v_mc,std_error,v_oracle"]
    for i, x1 in enumerate(np.linspace(-1, 1, n1)):
        for j, x2 in enumerate(np.linspace(0, 1, n2)):
            est = estimate_v(problem, spec, [x1, x2], mc["h"], max(mc["n"], 1),
                             derive_seed(mc["seed"], "pf", i, j), workers=1)
            rows.append(",".join([_FMT(float(x1)), _FMT(float(x2)), _FMT(est.mean),
                                  _FMT(est.std_error), _FMT(parabolic_value([x1, x2]))]))
    return "\n".join(rows) + "\n"


def run_path_counterexamples(params, mc, workers):
    """Exit-operator unit vectors: left-limit gaps and the discontinuity sequence."""
    B = Interval(0, 3)
    O = Interval(0, 1)
    rows = ["case,quantity,value"]
    w1 = linear_path([0, 1, 6], [[2], [0], [5]], jumps={1: [1.0]})
    rows.append(f"vee-then-jump,tau,{_FMT(exit_time(w1, B, 'open-hit'))}")
    rows.append(f"vee-then-jump,tau_left,{_FMT(exit_time_left(w1, B))}")
    w2 = linear_path([0, 1, 6], [[1], [1], [1]], jumps={1: [0.0]})
    rows.append(f"drop-then-flat,tau,{_FMT(exit_time(w2, B, 'open-hit'))}")
    rows.append(f"drop-then-flat,tau_left,{_FMT(exit_time_left(w2, B))}")
    for n in params.get("sequence", [1, 2, 4, 8, 16, 32]):
        wn = linear_path([0, 1 / n, 3], [[1 / n], [1 / n], [2 + 1 / n]], jumps={1: [-1 / n]})
        rows.append(f"approximant-{n},zeta,{_FMT(exit_time(wn, O, 'closure-hit'))}")
    w0 = flow_path(ConstantVelocityFlow([0.0], [1.0]))
    rows.append(f"limit-path,zeta,{_FMT(exit_time(w0, O, 'closure-hit'))}")
    return "\n".join(rows) + "\n"


def _spec_and_domain(params):
    spec = require_key(params, "spec", 'e.g. {"drift": {"name": "constant", "velocity": [1.0]}, '
                                       '"noise": {"kind": "none"}, "d": 1}')
    domain = require_key(params, "domain", 'e.g. {"shape": "interval", "a": 0, "b": 1}')
    return spec_from_config(spec), domain_from_config(domain)


def run_regularity_scan(params, mc, workers):
    spec, domain = _spec_and_domain(params)
    reports, partition = classify_boundary(
        spec, domain, int(params.get("n_points", 32)),
        windows=tuple(params.get("windows", (0.1, 0.01, 0.001))),
        n=mc["n"], h=mc["h"], rng=mc["seed"])
    buf = io.StringIO()
    reports_to_csv(reports, buf)
    counts = {k: len(v) for k, v in partition.items()}
    return buf.getvalue() + f"# partition: {json.dumps(counts, sort_keys=True)}\n"


def run_attainment_witness(params, mc, workers):
    spec, domain = _spec_and_domain(params)
    lam = float(params.get("discount", 1.0))
    problem = DirichletProblem(domain, Constant(float(params.get("running_cost", 1.0))),
                               Zero(), lam)
    x0 = require_key(params, "x0", "give a boundary point, e.g. [0.0]")
    try:
        rep = attainment_witness(problem, spec, x0, mc["h"], mc["n"], mc["seed"],
                                 workers=workers)
        doc = {"x0": list(map(float, np.atleast_1d(x0))),
               "p": rep.p.mean, "p_se": rep.p.std_error,
               "g_value": rep.g_value, "v": rep.v.mean, "v_se": rep.v.std_error,
               "is_witness": rep.is_witness}
    except DegenerateP as e:
        doc = {"x0": list(map(float, np.atleast_1d(x0))),
               "p": e.p_mean, "p_se": e.p_se, "degenerate": True}
    return json.dumps(doc, sort_keys=True) + "\n"


def run_fractional_hjb(params, mc, workers):
    """Non-stationary value grid for the fractional problem, both routes.

    Each route answers the whole grid from one path set under its own seed,
    so the routes stay independent and their agreement remains a check.
    """
    alpha = float(params.get("alpha", 1.5))
    T = float(params.get("T", 1.0))
    radius = float(params.get("radius", 1.0))
    d = int(params.get("d", 1))
    lam = float(params.get("discount", 1.0))
    problem = DirichletProblem(Cylinder(T, Ball(np.zeros(d), radius)), Constant(1.0), Zero(), lam)
    spec = ProcessSpec(ZeroDrift(d), StableNoise(alpha, float(params.get("sigma", 1.0))), d)
    nt = int(params.get("nt", 5))
    nx = int(params.get("nx", 10))
    grid = [(t, x) for t in np.linspace(0, T, nt, endpoint=False)
            for x in np.linspace(-radius * 0.9, radius * 0.9, nx)]
    points = [(t, [x] + [0.0] * (d - 1)) for t, x in grid]
    direct, lifted = [estimate_v_nonstationary_grid(problem, spec, points, mc["h"], mc["n"],
                                                    derive_seed(mc["seed"], f"hjb-{route}"),
                                                    route=route, workers=workers)
                      for route in ("direct", "lifted")]
    rows = ["t,x,v1_direct,se_direct,v1_lifted,se_lifted"]
    for (t, x), e1, e2 in zip(grid, direct, lifted):
        rows.append(",".join([_FMT(float(t)), _FMT(float(x)), _FMT(e1.mean),
                              _FMT(e1.std_error), _FMT(e2.mean), _FMT(e2.std_error)]))
    return "\n".join(rows) + "\n"


def run_viscosity_check(params, mc, workers):
    target = params.get("target", "v0")
    eps = float(params.get("eps", 1.0))
    problem = DirichletProblem(Interval(0, 1), Constant(1.0), Zero(), 1.0)
    xs = np.linspace(0, 1, int(params.get("grid_nodes", 10001)))
    if target == "v0":
        spec = ProcessSpec(ConstantDrift([1.0]), NoNoise(), 1)
        u = GridFunction([xs], closed_form_v0(xs), Interval(0, 1), Zero())
    elif target == "v-eps":
        spec = ProcessSpec(ConstantDrift([1.0]), BrownianNoise(eps), 1)
        u = GridFunction([xs], closed_form_v_eps(eps, xs), Interval(0, 1), Zero())
    else:
        raise ConfigError(f"unknown viscosity target {target!r}; use 'v0' or 'v-eps'")
    mode = params.get("mode", "generalized")
    points = params.get("points", [round(0.1 * i, 10) for i in range(11)])
    reports = [check_viscosity_point(u, problem, spec, [x], mode=mode,
                                     tol=float(params.get("tol", 1e-3))).to_json()
               for x in points]
    return json.dumps(reports, sort_keys=True, indent=1) + "\n"


EXPERIMENTS = {
    "drift-interval": run_drift_interval,
    "parabolic-flow": run_parabolic_flow,
    "path-counterexamples": run_path_counterexamples,
    "regularity-scan": run_regularity_scan,
    "attainment-witness": run_attainment_witness,
    "fractional-hjb": run_fractional_hjb,
    "viscosity-check": run_viscosity_check,
}

_MC_DEFAULTS = {
    "drift-interval": {"n": 10000, "h": 1e-3, "seed": 1},
    "parabolic-flow": {"n": 1, "h": 1e-3, "seed": 1},
    "path-counterexamples": {"n": 1, "h": 1e-3, "seed": 1},
    "regularity-scan": {"n": 2000, "h": 1e-5, "seed": 1},
    "attainment-witness": {"n": 20000, "h": 1e-3, "seed": 1},
    "fractional-hjb": {"n": 4000, "h": 2e-3, "seed": 1},
    "viscosity-check": {"n": 1, "h": 1e-3, "seed": 1},
}


def run(config, workers=1, out_dir="."):
    """Execute one experiment config; returns the artifact path."""
    check_workers(workers)
    name = require_key(config, "experiment", f"choose one of {sorted(EXPERIMENTS)}")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose one of {sorted(EXPERIMENTS)}")
    params = _checked_params(config)
    mc = _mc_params(config, _MC_DEFAULTS[name])
    resolved = {"experiment": name, "params": params, "mc": mc}
    body = EXPERIMENTS[name](params, mc, workers)
    out_cfg = _section(config, "output")
    fname = out_cfg.get("path", f"{name}.csv")
    path = os.path.join(out_dir, fname)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    header = [
        f"config-hash: {_config_hash(resolved)}",
        f"config: {json.dumps(resolved, sort_keys=True)}",
    ]
    _write_artifact(path, header, body)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fkexit", description="exit-time Monte Carlo experiment runner")
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override mc.seed")
    parser.add_argument("--workers", type=int, default=1, help="worker processes")
    parser.add_argument("--out", default=os.environ.get("FKEXIT_OUT", "."),
                        help="output directory (env FKEXIT_OUT)")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as f:
            config = json.load(f)
        if not isinstance(config, dict):
            raise ValueError("the config is not a JSON object")
    except (OSError, ValueError) as e:  # a JSONDecodeError is a ValueError
        print(f"config error: {e}; pass --config a readable JSON file", file=sys.stderr)
        return 2
    try:
        if args.seed is not None:
            config["mc"] = dict(_section(config, "mc"), seed=args.seed)
        path = run(config, workers=args.workers, out_dir=args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except FkexitError as e:
        print(f"runtime error: {e}; check the experiment parameters", file=sys.stderr)
        return 3
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
