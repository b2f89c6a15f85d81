"""fkexit benchmark: end-to-end metrics per workload, or a per-layer table.

    python3 perfbench/run.py --workload brownian-interval --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  The fkexit package is imported from the
checkout's ``src/``; without it the benchmark exits with status 2.

A workload's operation is a list of components (single API calls) built
from ``--seed``.  ``--trace 0`` builds the same components a second time on
``fkexit_base``, a frozen copy of fkexit kept next to this file, and makes
pairs of passes for ``--seconds``, running each component on both packages
back to back.  The end-to-end times are the checkout's time as a multiple of
the baseline's, measured side by side, times the baseline's time on the
reference machine (``BASELINE_S``), so that the machine's changing speed
cancels.  ``--trace 1`` alternates untraced and traced passes of the
checkout alone and reports the per-layer metrics.
Either way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table, and a full report is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BASE = "fkexit_base"
SETUP_REPEATS = 4
TARGET_SE = 1e-3
# The baseline's wall time of one operation (fastest pass) and its set-up
# time, in seconds, on a 2-vCPU Intel Xeon VM: medians over the first runs of
# this benchmark.  They fix the unit of the end-to-end times and never change.
BASELINE_S = {
    "brownian-interval": {"wall_s": 1.36, "setup_s": 1.0},
    "stable-cylinder": {"wall_s": 0.41, "setup_s": 1.0},
    "regularity-probe": {"wall_s": 0.77, "setup_s": 1.0},
    "viscosity-oracle": {"wall_s": 1.56, "setup_s": 1.0},
}


def bootstrap():
    """Put the checkout's sources first on the import path, or exit with status 2."""
    if not (SRC / "fkexit" / "__init__.py").is_file():
        print(f"perfbench: no fkexit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def time_setup(workload, seed, package):
    """Wall time of a fresh process that imports ``package``.cli and builds the components."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload, str(seed),
           package]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT)
    return time.perf_counter() - t0


def new_pass():
    return {"wall_s": 0.0, "component_walls_s": [], "items": 0, "sha256": [],
            "std_errors": [], "ok": True, "errors": []}


def run_component(p, name, fn, out_dir):
    """Run one component, timed, and add its wall and what it did to pass ``p``."""
    t0 = time.perf_counter()
    try:
        res = fn(out_dir)
    except Exception:  # a component that raises fails its pass; nothing is retried
        res, errors = None, [f"{name}: {traceback.format_exc()}"]
    wall = time.perf_counter() - t0
    if res is not None:
        p["items"] += res.items
        p["sha256"] += res.hashes
        p["std_errors"] += res.std_errors
        errors = [f"{name}: {f}" for f in res.failures]
    p["wall_s"] += wall
    p["component_walls_s"].append(wall)
    p["errors"] += errors
    p["ok"] = not p["errors"]


def run_pass(components, out_dir):
    """One pass over a workload's components: the wall of each and what they did."""
    p = new_pass()
    for name, fn in components:
        run_component(p, name, fn, out_dir)
    return p


def run_pair(components, base_components, k, out_dir):
    """A pass on the checkout and one on the baseline, component by component.

    Each component runs on both packages back to back, the order alternating
    over components and pairs, so both see the machine at the same speed.
    """
    cur, base = new_pass(), new_pass()
    for c, ((name, fn), (_, base_fn)) in enumerate(zip(components, base_components)):
        order = [(cur, fn), (base, base_fn)]
        for p, f in (order if (c + k) % 2 == 0 else order[::-1]):
            run_component(p, name, f, out_dir)
    return cur, base


def fastest(passes):
    """Sum over components of each component's fastest wall across the passes."""
    return sum(min(walls) for walls in zip(*(p["component_walls_s"] for p in passes)))


def fingerprint(workloads, fk, seed, out_dir):
    """Rerun a three-chunk brownian-interval config with workers=1 and 2; bytes must match."""
    bi = workloads.BrownianInterval(fk)
    config = bi.config(workloads.op_seed(seed, len(bi.grid)), bi.grid, n=20000, h=1e-3)
    hashes = {}
    for workers in (1, 2):
        data = workloads.run_cli(fk.cli, config, out_dir, workers=workers)
        hashes[f"workers={workers}"] = hashlib.sha256(data).hexdigest()
    return {"config": config, "sha256": hashes, "identical": len(set(hashes.values())) == 1}


def provenance():
    import numpy
    import scipy

    git = {"sha": None, "dirty": None}
    if (ROOT / ".git").exists():
        def out(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, check=True).stdout.strip()
        git = {"sha": out("rev-parse", "HEAD"),
               "dirty": bool(out("status", "--porcelain", "--untracked-files=no"))}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git": git, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "src_lines": src_lines()}


def src_lines():
    lines = {p.stem: p.read_text().count("\n") for p in sorted((SRC / "fkexit").glob("*.py"))}
    lines["total"] = sum(lines.values())
    return lines


def run_traced(components, seconds, out_dir, tracing):
    """Untraced and traced passes of the checkout, alternating until the time is used.

    Returns the untraced passes, the traced passes and one tracer per traced pass.
    """
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        untraced.append(run_pass(components, out_dir))
        tracer = tracing.Tracer()
        with tracer.op():
            traced.append(run_pass(components, out_dir))
        tracers.append(tracer)
    return untraced, traced, tracers


def run_paired(components, base_components, seconds, out_dir):
    """A warm-up pass of the checkout, then pairs of passes until the time is used.

    Returns the checkout's passes (the warm-up first), the baseline's passes
    and the peak resident memory after the warm-up, before the baseline runs.
    """
    start = time.perf_counter()
    untraced = [run_pass(components, out_dir)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    base = []
    while not base or time.perf_counter() - start < seconds:
        cur, b = run_pair(components, base_components, len(base), out_dir)
        untraced.append(cur)
        base.append(b)
    return untraced, base, rss_mb


def end_to_end(workload, untraced, base, rss_mb):
    """End-to-end metrics of the paired passes, plus those printed but not gated.

    The wall time is the baseline's, ``BASELINE_S``, times the checkout's
    time over the baseline's, each summed over all pairs.
    """
    paired = untraced[1:]  # the warm-up pass has no baseline partner
    ratio = sum(c["wall_s"] for c in paired) / sum(b["wall_s"] for b in base)
    wall = ratio * BASELINE_S[workload]["wall_s"]
    metrics = {"wall_s": wall, "throughput_per_s": untraced[0]["items"] / wall,
               "peak_rss_mb": rss_mb}
    extra = {"wall_ratio": ratio, "wall_fastest_s": fastest(paired),
             "baseline_fastest_s": fastest(base), "pairs": len(base)}
    passes = untraced
    if passes[0]["std_errors"]:
        # the time for one pass, with n scaled alike for all its estimates,
        # to bring every estimate to the target standard error
        extra["time_to_se_1e-3_s"] = wall * (max(passes[0]["std_errors"]) / TARGET_SE) ** 2
    return metrics, extra


def per_layer(tracing, untraced, traced, tracers):
    """Per-layer metrics: counts of the first traced pass, times averaged over all."""
    summaries = [t.summary() for t in tracers]
    counts = summaries[0][0]
    problems = [f"traced pass {k}: counts differ from pass 0"
                for k, (c, _) in enumerate(summaries) if c != counts]
    times = {k: statistics.fmean(t[k] for _, t in summaries) for k in summaries[0][1]}
    layer_sum = sum(times[f"{layer}.self_s"] for layer in tracing.LAYERS)
    if abs(layer_sum - times["trace.wall_s"]) > 1e-6 * times["trace.wall_s"]:
        problems.append(f"layer self times sum to {layer_sum}, traced wall {times['trace.wall_s']}")
    metrics = tracing.layer_metrics(counts, times)
    metrics["trace.overhead_frac"] = fastest(traced) / fastest(untraced) - 1.0
    for module, n in src_lines().items():
        metrics[f"src.lines.{module}"] = n
    return metrics, problems


def run_all(names, args):
    """Every workload in its own process, one after the other."""
    results = {}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    bootstrap()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)

    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    base = []
    try:
        setup = {"fkexit": [], BASE: []}
        for i in range(0 if args.trace else SETUP_REPEATS):
            for package in (("fkexit", BASE) if i % 2 == 0 else (BASE, "fkexit")):
                setup[package].append(time_setup(args.workload, args.seed, package))
        fk = workloads.package("fkexit")
        wl = workloads.WORKLOADS[args.workload]
        components = wl(fk).components(args.seed)
        if args.trace:
            untraced, traced, tracers = run_traced(components, args.seconds, tmp, tracing)
            metrics, problems = per_layer(tracing, untraced, traced, tracers)
            extra = {}
            wanted = spec["per_layer"]
            (OUT / f"{stem}-spans.json").write_text(
                json.dumps([tracing.spans_json(t) for t in tracers]))
        else:
            base_components = wl(workloads.package(BASE)).components(args.seed)
            untraced, base, rss_mb = run_paired(components, base_components, args.seconds, tmp)
            traced = []
            metrics, extra = end_to_end(args.workload, untraced, base, rss_mb)
            setup_ratio = statistics.median(setup["fkexit"]) / statistics.median(setup[BASE])
            metrics["setup_s"] = setup_ratio * BASELINE_S[args.workload]["setup_s"]
            extra["setup_ratio"] = setup_ratio
            extra["setup_median_s"] = statistics.median(setup["fkexit"])
            problems = [f"baseline {e}" for p in base for e in p["errors"]]
            wanted = spec["end_to_end"]
        fp = fingerprint(workloads, fk, args.seed, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    passes = untraced + traced
    if any(p["sha256"] != passes[0]["sha256"] for p in passes):
        problems.append("artifacts differ between passes over the same inputs")
    if not fp["identical"]:
        problems.append(f"workers=1 and workers=2 artifacts differ: {fp['sha256']}")
    attempted = len(passes) + 1  # the fingerprint run counts as one operation
    failed = sum(not p["ok"] for p in passes) + (not fp["identical"])
    extra["ops_failed_frac"] = failed / attempted
    result = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "components": [name for name, _ in components],
              "setup_s": setup, "untraced_passes": untraced, "traced_passes": traced,
              "baseline_passes": base, "fingerprint": fp, "problems": problems,
              "metrics": metrics, "extra": extra, "provenance": provenance(), "result": result}
    report_path = OUT / f"{stem}.json"
    report_path.write_text(json.dumps(report, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes over {len(components)} components, {failed} failed")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"time_to_se_1e-3_s": "s", "ops_failed_frac": "1", "wall_ratio": "1",
                  "wall_fastest_s": "s", "baseline_fastest_s": "s", "pairs": "count",
                  "setup_ratio": "1", "setup_median_s": "s"})
    for name, value in [*metrics.items(), *extra.items()]:
        print(f"  {name:38s} {value:>16.6g} {units.get(name, '')}")
    for p in passes:
        for e in p["errors"]:
            print(f"  FAILED {e}")
    for p in problems:
        print(f"  PROBLEM: {p}")
    print(f"  report: {report_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
