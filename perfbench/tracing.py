"""Spans and counts recorded around calls into each fkexit module.

The tracer replaces, for the duration of one operation, the names that
callers use to reach a module (``fkexit.feynman_kac.run_batch``,
``Domain.contains``, ...) with wrappers that record a span (name, start, end,
parent) and the counts that belong to that boundary.  Nothing in ``src/`` is
changed: the wrappers live here and are removed when the operation ends.

A span's self time is its duration minus the time covered by its child
spans.  Every span of an operation descends from one root span, so the self
times of all layers add up to the traced wall time of the operation.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter

import numpy as np

from fkexit import cli, engine, feynman_kac, functions, geometry, levy, pde_oracle, regularity, rng

# Layers whose time is measured; a span named "engine.segment_crossing"
# belongs to the layer "engine".  "bench" is the benchmark's own code.
LAYERS = ("cli", "feynman_kac", "regularity", "engine", "rng", "levy", "geometry",
          "functions", "pde_oracle", "bench")


def _engine_counts(counts, args, kwargs, res):
    counts["engine.paths"] += res.n
    counts["engine.path_steps"] += int(res.steps.sum())
    counts["engine.max_steps_per_path"] = max(counts["engine.max_steps_per_path"],
                                              int(res.steps.max(initial=0)))
    counts["engine.truncated_paths"] += int(res.truncated.sum())
    counts["engine.jump_exits"] += int(res.via_jump.sum())


def _stable_counts(counts, args, kwargs, res):
    counts["levy.stable_draws"] += int(np.size(res))


def _contains_counts(counts, args, kwargs, res):
    counts["geometry.contains.points"] += int(np.size(res))


def _cost_counts(counts, args, kwargs, res):
    counts["functions.cost.points"] += int(np.size(res))


def _check_counts(counts, args, kwargs, rep):
    sides = kwargs.get("sides", ("sub", "super"))
    counts["pde_oracle.candidates_tested"] += rep.tested_count
    counts["pde_oracle.candidate_sides"] += rep.tested_count * len(sides)
    counts["pde_oracle.admissible"] += rep.admissible_plus + rep.admissible_minus


def _artifact_counts(counts, args, kwargs, path):
    counts["cli.artifact_bytes"] += os.path.getsize(path)


class Tracer:
    """Spans and counts of one traced operation, held in memory."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, child time]
        self._open = []       # indices of spans not yet closed
        self.counts = Counter()
        self.generators = []  # Philox generators handed out, read after the op

    def _begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0])
        self._open.append(len(self.spans) - 1)

    def _end(self):
        i = self._open.pop()
        span = self.spans[i]
        span[2] = time.perf_counter()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end()
            if count is not None:
                count(self.counts, args, kwargs, out)
            return out
        return traced

    def _patches(self):
        """(owner, attribute, span name, counter) for every traced boundary."""
        return [
            (cli, "run", "cli.run", _artifact_counts),
            (cli, "estimate_v", "feynman_kac.estimate_v", None),
            (cli, "estimate_v_nonstationary", "feynman_kac.estimate_v_nonstationary", None),
            (cli, "closed_form_v_eps", "pde_oracle.closed_form_v_eps", None),
            (regularity, "probe_regularity", "regularity.probe_regularity", None),
            (feynman_kac, "run_batch", "engine.run_batch", _engine_counts),
            (regularity, "run_batch", "engine.run_batch", _engine_counts),
            (engine, "segment_crossing", "engine.segment_crossing", None),
            (levy, "sample_one_sided_stable", "levy.sample_one_sided_stable", _stable_counts),
            (geometry.Domain, "contains", "geometry.contains", _contains_counts),
            (functions.SpatialCost, "__call__", "functions.cost", _cost_counts),
            (functions.PathSpaceCost, "__call__", "functions.cost", _cost_counts),
            (functions.TimeScaledCost, "__call__", "functions.cost", _cost_counts),
            (pde_oracle, "check_viscosity_point", "pde_oracle.check_viscosity_point",
             _check_counts),
            (pde_oracle, "frac_laplacian", "pde_oracle.frac_laplacian", None),
            (pde_oracle, "spectral_frac_laplacian_1d", "pde_oracle.spectral_frac_laplacian_1d",
             None),
            (rng.RngStream, "generator", "rng.generator",
             lambda counts, args, kwargs, gen: self.generators.append(gen)),
        ]

    @contextlib.contextmanager
    def op(self):
        """Trace one operation: install the wrappers under a root span, then remove them."""
        saved = []
        try:
            for owner, attr, name, count in self._patches():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))
            self._begin("bench.op")
            try:
                yield
            finally:
                self._end()
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def philox_words(self):
        """(blocks, words) drawn from every Philox generator handed out so far.

        Philox4x64 makes four 64-bit words per counter step and keeps the
        unused ones in a buffer, so words used = 4 * counter - (4 - buffer_pos).
        """
        blocks = words = 0
        for gen in self.generators:
            state = gen.bit_generator.state
            counter = int(state["state"]["counter"][0])
            blocks += counter
            words += 4 * counter - (4 - int(state["buffer_pos"]))
        return blocks, words

    def summary(self):
        """Counts and times of the traced operation, by metric name."""
        calls = Counter()  # outermost calls only, so a recursion counts once
        incl = Counter()
        own = Counter()
        self_by_layer = dict.fromkeys(LAYERS, 0.0)
        for name, start, end, parent, child in self.spans:
            own[name] += (end - start) - child
            self_by_layer[name.split(".")[0]] += (end - start) - child
            if parent < 0 or self.spans[parent][0] != name:
                calls[name] += 1
                incl[name] += end - start
        c = self.counts
        blocks, words = self.philox_words()
        counts = {
            "cli.calls": calls["cli.run"],
            "cli.artifact_bytes": c["cli.artifact_bytes"],
            "feynman_kac.calls": calls["feynman_kac.estimate_v"]
            + calls["feynman_kac.estimate_v_nonstationary"],
            "regularity.calls": calls["regularity.probe_regularity"],
            "engine.calls": calls["engine.run_batch"],
            "engine.paths": c["engine.paths"],
            "engine.path_steps": c["engine.path_steps"],
            "engine.max_steps_per_path": c["engine.max_steps_per_path"],
            "engine.truncated_paths": c["engine.truncated_paths"],
            "engine.jump_exits": c["engine.jump_exits"],
            "engine.segment_crossing.calls": calls["engine.segment_crossing"],
            "rng.streams": len(self.generators),
            "rng.philox_blocks": blocks,
            "rng.philox_words": words,
            "levy.stable_draws": c["levy.stable_draws"],
            "geometry.contains.calls": calls["geometry.contains"],
            "geometry.contains.points": c["geometry.contains.points"],
            "functions.cost.calls": calls["functions.cost"],
            "functions.cost.points": c["functions.cost.points"],
            "pde_oracle.checks": calls["pde_oracle.check_viscosity_point"],
            "pde_oracle.candidates_tested": c["pde_oracle.candidates_tested"],
            "pde_oracle.admissible": c["pde_oracle.admissible"],
            "pde_oracle.candidate_sides": c["pde_oracle.candidate_sides"],
            "pde_oracle.frac_laplacian.calls": calls["pde_oracle.frac_laplacian"],
        }
        times = {f"{layer}.self_s": self_by_layer[layer] for layer in LAYERS}
        times.update({
            "trace.wall_s": incl["bench.op"],
            "engine.run_batch_s": incl["engine.run_batch"],
            "engine.segment_crossing.self_s": own["engine.segment_crossing"],
            "levy.sample_s": incl["levy.sample_one_sided_stable"],
            "pde_oracle.frac_laplacian_s": incl["pde_oracle.frac_laplacian"],
        })
        return counts, times


def layer_metrics(counts, times):
    """Per-layer metrics from the counts of one traced op and its (mean) times."""
    steps = counts["engine.path_steps"]
    draws = counts["levy.stable_draws"]
    points = counts["geometry.contains.points"]
    frac_calls = counts["pde_oracle.frac_laplacian.calls"]
    sides = counts["pde_oracle.candidate_sides"]
    out = {k: v for k, v in counts.items()
           if k not in ("rng.philox_words", "pde_oracle.admissible", "pde_oracle.candidate_sides")}
    out.update({k: v for k, v in times.items()
                if k not in ("engine.run_batch_s", "levy.sample_s", "pde_oracle.frac_laplacian_s")})
    out["engine.ns_per_path_step"] = 1e9 * times["engine.run_batch_s"] / steps if steps else 0.0
    out["rng.words_per_path_step"] = counts["rng.philox_words"] / steps if steps else 0.0
    out["levy.ns_per_stable_draw"] = 1e9 * times["levy.sample_s"] / draws if draws else 0.0
    out["geometry.ns_per_point"] = 1e9 * times["geometry.self_s"] / points if points else 0.0
    out["pde_oracle.admissible_ratio"] = counts["pde_oracle.admissible"] / sides if sides else 0.0
    out["pde_oracle.frac_laplacian.us_per_call"] = (
        1e6 * times["pde_oracle.frac_laplacian_s"] / frac_calls if frac_calls else 0.0)
    return out


def spans_json(tracer):
    """The spans of one traced op in a compact form: names plus rows of indices."""
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    return {"names": names, "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[index[s[0]], s[1] - t0, s[2] - t0, s[3]] for s in tracer.spans]}
