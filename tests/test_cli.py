import json
import math

import pytest

from fkexit import feynman_kac
from fkexit.cli import main, run
from fkexit.engine import CHUNK_SIZE
from fkexit.errors import ConfigError
from fkexit.pde_oracle import closed_form_v0


def _read_csv(path):
    header, rows = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                header.append(line)
            elif not rows:
                rows.append(line.strip().split(","))
            else:
                rows.append(line.strip().split(","))
    return header, rows


def test_drift_interval_matches_closed_form(tmp_path):
    cfg = {"experiment": "drift-interval", "params": {"eps": 0.0},
           "mc": {"n": 8, "h": 1e-3, "seed": 5}, "output": {"path": "d.csv"}}
    path = run(cfg, out_dir=str(tmp_path))
    header, rows = _read_csv(path)
    assert any("config-hash" in h for h in header)
    cols = rows[0]
    assert cols[:2] == ["x", "v_mc"]
    for row in rows[1:]:
        x, v_mc = float(row[0]), float(row[1])
        assert abs(v_mc - closed_form_v0(x)) <= 1e-9


def test_reproducible_across_workers_and_reruns(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = {"experiment": "drift-interval", "params": {"eps": 1.0, "grid": [0.25, 0.75]},
           "mc": {"n": 20000, "h": 1e-3, "seed": 9}, "output": {"path": "r.csv"}}
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w4"
    out3 = tmp_path / "again"
    assert main(["--config", str(cfg_path), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["--config", str(cfg_path), "--out", str(out2), "--workers", "4"]) == 0
    assert main(["--config", str(cfg_path), "--out", str(out3), "--workers", "1"]) == 0
    b1 = (out1 / "r.csv").read_bytes()
    assert b1 == (out2 / "r.csv").read_bytes()
    assert b1 == (out3 / "r.csv").read_bytes()


def test_regularity_scan_partition(tmp_path):
    cfg = {"experiment": "regularity-scan",
           "params": {"spec": {"drift": {"name": "constant", "velocity": [1.0]},
                               "noise": {"kind": "none"}, "d": 1},
                      "domain": {"shape": "interval", "a": 0, "b": 1},
                      "n_points": 2},
           "mc": {"n": 200, "h": 1e-5, "seed": 3}}
    path = run(cfg, out_dir=str(tmp_path))
    text = open(path).read()
    assert '"irregular": 1' in text and '"regular": 1' in text


def test_regularity_scan_unknown_noise_is_config_error(tmp_path, capsys):
    cfg = {"experiment": "regularity-scan",
           "params": {"spec": {"drift": {"name": "constant", "velocity": [1.0]},
                               "noise": {"kind": "levy"}, "d": 1},
                      "domain": {"shape": "interval", "a": 0, "b": 1}},
           "mc": {"n": 10, "h": 1e-3, "seed": 3}, "output": {"path": "r.csv"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "unknown noise kind 'levy'" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("spec,domain,match", [
    ({"drift": {"name": "zero"}, "noise": {"kind": "brownian", "eps": 1.0}, "d": 1},
     {"shape": "disk"}, "unknown domain shape 'disk'"),
    ({"drift": {"name": "zero"}, "noise": {"kind": "brownian", "eps": 1.0}},
     {"shape": "interval", "a": 0, "b": 1}, "missing config key 'd'"),
], ids=["unknown-shape", "spec-without-d"])
def test_regularity_scan_bad_domain_or_spec_is_config_error(tmp_path, capsys, spec, domain,
                                                            match):
    cfg = {"experiment": "regularity-scan", "params": {"spec": spec, "domain": domain},
           "mc": {"n": 10, "h": 1e-3, "seed": 3}, "output": {"path": "r.csv"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and match in err
    assert not (tmp_path / "r.csv").exists()


BALL = {"shape": "ball", "center": [0.0], "radius": 1.0}


@pytest.mark.parametrize("spec,domain,key", [
    ({"drift": "x", "noise": {"kind": "brownian", "eps": 1.0}, "d": 1}, BALL, "drift"),
    ({"drift": {"name": "constant", "velocity": "x"}, "noise": {"kind": "none"}, "d": 1}, BALL,
     "velocity"),
    ({"drift": {"name": "zero"}, "noise": {"kind": "brownian", "eps": "x"}, "d": 1}, BALL, "eps"),
    ({"drift": {"name": "zero"}, "noise": {"kind": "brownian", "eps": 1.0}, "d": "x"}, BALL, "d"),
    ({"drift": {"name": "zero"}, "noise": {"kind": "brownian", "eps": 1.0}, "d": 1},
     {"shape": "interval", "a": "x", "b": 1}, "a"),
    ({"drift": {"name": "zero"}, "noise": {"kind": "brownian", "eps": 1.0}, "d": 1},
     {"shape": "ball", "center": "x", "radius": 1.0}, "center"),
], ids=["drift", "velocity", "eps", "d", "a", "center"])
def test_nested_value_of_the_wrong_kind_is_config_error(tmp_path, capsys, spec, domain, key):
    cfg = {"experiment": "regularity-scan", "params": {"spec": spec, "domain": domain},
           "mc": {"n": 10, "h": 1e-3, "seed": 3}, "output": {"path": "r.csv"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"config key {key!r}='x'" in err and "e.g." in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("spec,domain,key,value", [
    ({"drift": {"name": "zero"}, "noise": {"kind": "brownian", "eps": 1.0}, "d": 1.5}, BALL,
     "d", "1.5"),
    ({"drift": {"name": "zero"}, "noise": {"kind": "brownian", "eps": 1.0}, "d": True}, BALL,
     "d", "True"),
    ({"drift": {"name": "zero"}, "noise": {"kind": "brownian", "eps": True}, "d": 1}, BALL,
     "eps", "True"),
    ({"drift": {"name": "zero"}, "noise": {"kind": "brownian", "eps": 1.0}, "d": 1,
      "noise_offset": 0.5}, BALL, "noise_offset", "0.5"),
    ({"drift": {"name": "constant", "velocity": [True]}, "noise": {"kind": "none"}, "d": 1},
     BALL, "velocity", "[True]"),
    ({"drift": {"name": "zero"}, "noise": {"kind": "brownian", "eps": 1.0}, "d": 1},
     {"shape": "interval", "a": False, "b": 1}, "a", "False"),
], ids=["fractional-d", "bool-d", "bool-eps", "fractional-offset", "bool-velocity", "bool-a"])
def test_nested_bool_or_fraction_is_config_error(tmp_path, capsys, spec, domain, key, value):
    # int() and float() would read these as 1, 1, 1.0, 0, [1.0] and 0.0
    cfg = {"experiment": "regularity-scan", "params": {"spec": spec, "domain": domain},
           "mc": {"n": 10, "h": 1e-3, "seed": 3}, "output": {"path": "r.csv"}}
    assert _main_on(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"config key {key!r}={value}" in err
    assert "e.g." in err
    assert not (tmp_path / "r.csv").exists()


def test_attainment_witness_json(tmp_path):
    cfg = {"experiment": "attainment-witness",
           "params": {"spec": {"drift": {"name": "constant", "velocity": [1.0]},
                               "noise": {"kind": "none"}, "d": 1},
                      "domain": {"shape": "interval", "a": 0, "b": 1},
                      "x0": [0.0]},
           "mc": {"n": 100, "h": 1e-3, "seed": 3},
           "output": {"path": "w.json"}}
    path = run(cfg, out_dir=str(tmp_path))
    doc = json.loads(open(path).read().splitlines()[-1])
    assert doc["is_witness"] is True
    assert doc["g_value"] == pytest.approx(2 / (1 - math.exp(-1)), rel=1e-9)


def test_path_counterexamples_values(tmp_path):
    cfg = {"experiment": "path-counterexamples", "output": {"path": "p.csv"}}
    path = run(cfg, out_dir=str(tmp_path))
    body = {tuple(r.split(",")[:2]): r.split(",")[2] for r in
            open(path).read().splitlines() if r and not r.startswith("#") and "," in r}
    assert float(body[("vee-then-jump", "tau")]) == 1.0
    assert float(body[("vee-then-jump", "tau_left")]) == 4.0
    assert body[("drop-then-flat", "tau")] == "inf"
    assert float(body[("drop-then-flat", "tau_left")]) == 1.0
    assert float(body[("limit-path", "zeta")]) == 1.0


def test_viscosity_check_json(tmp_path):
    cfg = {"experiment": "viscosity-check",
           "params": {"target": "v0", "mode": "strong", "points": [0.0], "grid_nodes": 2001},
           "output": {"path": "v.json"}}
    path = run(cfg, out_dir=str(tmp_path))
    body = "\n".join(l for l in open(path).read().splitlines() if not l.startswith("#"))
    doc = json.loads(body)
    assert doc[0]["violations"][0]["kind"] == "boundary-data"


def test_viscosity_unknown_mode_is_config_error(tmp_path, capsys):
    cfg = {"experiment": "viscosity-check",
           "params": {"target": "v0", "mode": "generalised", "points": [0.5]},
           "output": {"path": "v.json"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "unknown viscosity mode 'generalised'" in capsys.readouterr().err
    assert not (tmp_path / "v.json").exists()


def test_viscosity_point_off_domain_is_config_error(tmp_path, capsys):
    cfg = {"experiment": "viscosity-check",
           "params": {"target": "v0", "mode": "generalized", "points": [2.0]},
           "output": {"path": "v.json"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "outside the closed domain" in capsys.readouterr().err
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("params,match", [
    ({"alpha": 2.5}, "alpha=2.5"),
    ({"alpha": 0.0}, "alpha=0.0"),
    ({"alpha": math.nan}, "alpha=nan"),
    ({"sigma": -1.0}, "sigma=-1.0"),
    ({"sigma": math.inf}, "sigma=inf"),
])
def test_fractional_hjb_bad_noise_is_config_error(tmp_path, capsys, params, match):
    cfg = {"experiment": "fractional-hjb", "params": {"nt": 1, "nx": 1, **params},
           "mc": {"n": 10, "h": 1e-2, "seed": 1}, "output": {"path": "f.csv"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert match in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("params,mc,match", [
    ({"T": -1.0}, {}, "cylinder T=-1.0"),
    ({"radius": 0.0}, {}, "radius=0.0 needs a finite center and a finite positive radius"),
    ({}, {"n": 0}, "mc.n=0 must be an integer >= 1"),
    ({}, {"n": 2.5}, "mc.n=2.5"),
    ({}, {"n": "100"}, "mc.n='100'"),
], ids=["negative-T", "zero-radius", "zero-n", "fractional-n", "string-n"])
def test_fractional_hjb_bad_domain_or_sample_size_is_config_error(tmp_path, capsys, params,
                                                                  mc, match):
    cfg = {"experiment": "fractional-hjb", "params": {"nt": 1, "nx": 1, **params},
           "mc": {"n": 10, "h": 1e-2, "seed": 1, **mc}, "output": {"path": "f.csv"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert match in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def test_unknown_experiment_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        run({"experiment": "nope"}, out_dir=str(tmp_path))


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad)]) == 2
    cfg = tmp_path / "unknown.json"
    cfg.write_text(json.dumps({"experiment": "nope"}))
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_seed_override_changes_artifact(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = {"experiment": "drift-interval", "params": {"eps": 1.0, "grid": [0.5]},
           "mc": {"n": 2000, "h": 1e-3, "seed": 1}, "output": {"path": "s.csv"}}
    cfg_path.write_text(json.dumps(cfg))
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["--config", str(cfg_path), "--out", str(a)]) == 0
    assert main(["--config", str(cfg_path), "--out", str(b), "--seed", "2"]) == 0
    assert (a / "s.csv").read_bytes() != (b / "s.csv").read_bytes()


def test_parabolic_flow_experiment(tmp_path):
    cfg = {"experiment": "parabolic-flow", "params": {"n1": 5, "n2": 3},
           "output": {"path": "pf.csv"}}
    path = run(cfg, out_dir=str(tmp_path))
    rows = [r.split(",") for r in open(path) if not r.startswith("#")][1:]
    assert len(rows) == 15
    for r in rows:
        assert float(r[2]) == pytest.approx(float(r[4]), abs=1e-9)


@pytest.mark.parametrize("mc,match", [
    ({"seed": "x"}, "mc.seed='x' must be an integer"),
    ({"seed": 1.5}, "mc.seed=1.5 must be an integer"),
    ({"seed": True}, "mc.seed=True must be an integer"),
    ({"h": 0}, "mc.h=0 must be a finite number > 0"),
    ({"h": -1e-3}, "mc.h=-0.001 must be a finite number > 0"),
    ({"h": "1e-3"}, "mc.h='1e-3' must be a finite number > 0"),
])
def test_bad_seed_or_step_is_config_error(tmp_path, capsys, mc, match):
    # a seed is not truncated and a step is not left for the engine to refuse:
    # both are config errors (exit 2) before any path is drawn
    cfg = {"experiment": "drift-interval", "params": {"eps": 1.0, "grid": [0.5]},
           "mc": {"n": 10, "h": 1e-3, "seed": 1, **mc}, "output": {"path": "d.csv"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert match in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_config_error(tmp_path, capsys, workers):
    cfg = {"experiment": "path-counterexamples", "output": {"path": "p.csv"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path), "--workers", workers]) == 2
    assert f"workers={workers} must be an integer >= 1, e.g. 1" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


BROWN_1D = {"drift": {"name": "zero", "d": 1}, "noise": {"kind": "brownian", "eps": 1.0}, "d": 1}
DRIFT_1D = {"drift": {"name": "constant", "velocity": [1.0]}, "noise": {"kind": "none"}, "d": 1}
UNIT = {"shape": "interval", "a": 0, "b": 1}


def _main_on(tmp_path, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return main(["--config", str(cfg_path), "--out", str(tmp_path)])


@pytest.mark.parametrize("experiment,params,match", [
    ("attainment-witness", {"spec": DRIFT_1D, "domain": UNIT, "x0": [0.0], "discount": 0},
     "discount=0.0 must be a finite positive rate"),
    ("fractional-hjb", {"nt": 1, "nx": 1, "discount": 0}, "discount=0.0 must be"),
    ("drift-interval", {"eps": 1.0, "grid": [0.5, 1.5]}, "must hold points of [0, 1]"),
    ("regularity-scan", {"spec": BROWN_1D, "domain": UNIT, "windows": []},
     "windows=[] must hold one or more probe windows"),
    ("fractional-hjb", {"nt": "x", "nx": 1}, "params.nt='x' must be an integer >= 1"),
    ("fractional-hjb", [1, 2], "params=[1, 2] must be a JSON object"),
], ids=["witness-zero-discount", "hjb-zero-discount", "grid-off-unit-interval",
        "no-windows", "string-nt", "params-list"])
def test_bad_params_are_config_errors(tmp_path, capsys, experiment, params, match):
    cfg = {"experiment": experiment, "params": params, "mc": {"n": 10, "h": 1e-3, "seed": 1},
           "output": {"path": "a.out"}}
    assert _main_on(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and match in err
    assert not (tmp_path / "a.out").exists()


def test_fractional_hjb_grid_is_bounded_and_the_same_for_any_workers(tmp_path):
    cfg = {"experiment": "fractional-hjb", "params": {"nt": 2, "nx": 2},
           "mc": {"n": 200, "h": 1e-2, "seed": 3}, "output": {"path": "f.csv"}}
    paths = [run(cfg, workers=w, out_dir=str(tmp_path / f"w{w}")) for w in (1, 2)]
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()
    _, rows = _read_csv(paths[0])
    assert rows[0] == ["t", "x", "v1_direct", "se_direct", "v1_lifted", "se_lifted"]
    assert len(rows) == 5
    for t, _, v1, se1, v2, se2 in (map(float, r) for r in rows[1:]):
        for v, se in ((v1, se1), (v2, se2)):
            assert 0.0 <= v <= (1.0 - t) + 3.0 * se


def test_fractional_hjb_grid_over_two_chunks_is_the_same_for_any_workers(tmp_path,
                                                                        monkeypatch):
    # 4 starts share each path, so a chunk holds CHUNK_SIZE // 4 paths and
    # n = 2100 spans two chunks on each route; one engine call per route
    assert CHUNK_SIZE // 4 < 2100 <= 2 * (CHUNK_SIZE // 4)
    calls = []
    batch = feynman_kac.run_batch
    monkeypatch.setattr(feynman_kac, "run_batch",
                        lambda *a, **k: calls.append(a) or batch(*a, **k))
    cfg = {"experiment": "fractional-hjb", "params": {"nt": 2, "nx": 2},
           "mc": {"n": 2100, "h": 1e-2, "seed": 5}, "output": {"path": "f.csv"}}
    paths = [run(cfg, workers=w, out_dir=str(tmp_path / f"w{w}")) for w in (1, 2)]
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()
    assert len(calls) == 4
    _, rows = _read_csv(paths[0])
    assert len(rows) == 5
    for t, _, v1, se1, v2, se2 in (map(float, r) for r in rows[1:]):
        assert abs(v1 - v2) <= 4.0 * math.hypot(se1, se2)


def test_viscosity_check_v_eps(tmp_path):
    cfg = {"experiment": "viscosity-check",
           "params": {"target": "v-eps", "eps": 1.0, "points": [0.0, 0.5], "grid_nodes": 2001},
           "output": {"path": "v.json"}}
    path = run(cfg, out_dir=str(tmp_path))
    doc = json.loads("".join(l for l in open(path) if not l.startswith("#")))
    assert [r["point"] for r in doc] == [[0.0], [0.5]]
    assert all(r["mode"] == "generalized" and r["violations"] == [] for r in doc)


def test_attainment_witness_degenerate_artifact(tmp_path):
    # from x0 = 1 the unit flow exits at once, so p = 1 and no witness exists
    cfg = {"experiment": "attainment-witness",
           "params": {"spec": DRIFT_1D, "domain": UNIT, "x0": [1.0]},
           "mc": {"n": 100, "h": 1e-3, "seed": 3}, "output": {"path": "w.json"}}
    path = run(cfg, out_dir=str(tmp_path))
    doc = json.loads(open(path).read().splitlines()[-1])
    assert doc == {"degenerate": True, "p": 1.0, "p_se": 0.0, "x0": [1.0]}


def test_runtime_error_exits_3(tmp_path, capsys):
    # h = 1e-3 is too coarse for the probe window 1e-3 (it needs h <= 1e-4)
    cfg = {"experiment": "regularity-scan",
           "params": {"spec": BROWN_1D, "domain": UNIT, "n_points": 2, "windows": [1e-3]},
           "mc": {"n": 10, "h": 1e-3, "seed": 1}, "output": {"path": "r.csv"}}
    assert _main_on(tmp_path, cfg) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error") and "too coarse" in err
    assert not (tmp_path / "r.csv").exists()
