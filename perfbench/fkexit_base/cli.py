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
import os
import sys

import numpy as np

from .errors import ConfigError, DegenerateP, FkexitError
from .feynman_kac import (DirichletProblem, attainment_witness, estimate_v,
                          estimate_v_nonstationary)
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


def _require(cfg, key, hint):
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r}; {hint}")
    return cfg[key]


def _mc_params(cfg, defaults):
    mc = dict(defaults)
    mc.update(cfg.get("mc", {}))
    for k in ("n", "h", "seed"):
        if k not in mc:
            raise ConfigError(f"mc.{k} is required; add e.g. \"mc\": {{\"{k}\": ...}}")
    return mc


def run_drift_interval(params, mc, workers):
    """Value function on (0,1) for dX = dt + eps dW against the closed form."""
    eps = float(params.get("eps", 0.0))
    xs = params.get("grid", [round(0.1 * i, 10) for i in range(11)])
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
    if "spec" in params:
        spec = spec_from_config(params["spec"])
    else:
        raise ConfigError('params.spec is required, e.g. {"drift": {"name": "constant", '
                          '"velocity": [1.0]}, "noise": {"kind": "none"}, "d": 1}')
    domain = domain_from_config(_require(params, "domain",
                                         'e.g. {"shape": "interval", "a": 0, "b": 1}'))
    return spec, domain


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
    x0 = params.get("x0")
    if x0 is None:
        raise ConfigError("params.x0 (a boundary point) is required")
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
    """Non-stationary value grid for the fractional problem, both routes."""
    alpha = float(params.get("alpha", 1.5))
    T = float(params.get("T", 1.0))
    radius = float(params.get("radius", 1.0))
    d = int(params.get("d", 1))
    lam = float(params.get("discount", 1.0))
    base = Ball(np.zeros(d), radius)
    cyl = Cylinder(T, base)
    problem = DirichletProblem(cyl, Constant(1.0), Zero(), lam)
    spec = ProcessSpec(ZeroDrift(d), StableNoise(alpha, float(params.get("sigma", 1.0))), d)
    nt = int(params.get("nt", 5))
    nx = int(params.get("nx", 10))
    rows = ["t,x,v1_direct,se_direct,v1_lifted,se_lifted"]
    for i, t in enumerate(np.linspace(0, T, nt, endpoint=False)):
        for j, x in enumerate(np.linspace(-radius * 0.9, radius * 0.9, nx)):
            x_vec = [x] + [0.0] * (d - 1)
            e1 = estimate_v_nonstationary(problem, spec, t, x_vec, mc["h"], mc["n"],
                                          derive_seed(mc["seed"], "hjb-direct", i, j),
                                          route="direct", workers=workers)
            e2 = estimate_v_nonstationary(problem, spec, t, x_vec, mc["h"], mc["n"],
                                          derive_seed(mc["seed"], "hjb-lifted", i, j),
                                          route="lifted", workers=workers)
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
    name = _require(config, "experiment",
                    f"choose one of {sorted(EXPERIMENTS)}")
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose one of {sorted(EXPERIMENTS)}")
    params = config.get("params", {})
    mc = _mc_params(config, _MC_DEFAULTS[name])
    resolved = {"experiment": name, "params": params, "mc": mc}
    body = EXPERIMENTS[name](params, mc, workers)
    out_cfg = config.get("output", {})
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
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}; pass --config a readable JSON file", file=sys.stderr)
        return 2
    if args.seed is not None:
        config.setdefault("mc", {})["seed"] = args.seed
    try:
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
