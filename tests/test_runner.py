import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab.cli import main as cli_main
from phaselab.families import FAMILY_PARAMS
from phaselab.fieldio import load_field, save_field
from phaselab.runner import (_EXPERIMENTS, _RULES, CSV_COLUMNS, DEFAULTS,
                             EXPERIMENTS, RUNNERS, expand_config, run,
                             validate)


def test_validate_unknown_experiment():
    errs = validate({"experiment": "nope"})
    assert errs and "experiment" in errs[0]


def test_validate_eps_ordering():
    errs = validate({"experiment": "boundary_atom", "eps_list": [0.1, 0.2]})
    assert any("strictly decreasing" in e for e in errs)


def test_validate_oscillation_delta_gate():
    errs = validate({"experiment": "oscillation_atom",
                     "params": {"delta": 0.3}})
    assert any("monotone" in e for e in errs)


@pytest.mark.parametrize("experiment, kind", [
    ("unbounded", "unbounded"), ("boundary_atom", "boundary_atom"),
    ("hausdorff_levelset", "hausdorff_levelset"),
    ("hoelder_blowup", "hoelder_blowup"),
    ("oscillation_atom", "oscillation_atom"),
    ("penalty_zero", "boundary_atom")])
def test_runner_family_defaults_are_the_family_table(experiment, kind):
    # every family key a config may set defaults to the family's own value;
    # the off-by-default switch (rel_offsets) is the runners' to set
    table = FAMILY_PARAMS[kind]
    params = DEFAULTS[experiment]["params"]
    assert DEFAULTS[experiment]["n"] == table["n"]
    shared = {k for k in params if k in table and table[k] is not None}
    assert shared == {k for k, v in table.items()
                      if k != "n" and v is not None}
    for key in shared:
        assert params[key] == table[key], key


def test_experiment_names_agree_and_default_n_runs():
    # the three public views of the experiment table list the same names
    # in the same order, and each default dimension is one its experiment
    # runs in
    assert list(EXPERIMENTS) == list(DEFAULTS) == list(RUNNERS)
    for name in EXPERIMENTS:
        fn, dims, defaults = _EXPERIMENTS[name]
        assert RUNNERS[name] is fn and DEFAULTS[name] is defaults
        assert defaults["n"] in dims, name


def test_run_dispatches_through_the_runners_dict(tmp_path, monkeypatch):
    # perfbench/tracing.py wraps the values of RUNNERS, so run() must call
    # an experiment through that dict
    row = {c: "" for c in CSV_COLUMNS}
    row.update(experiment="tanh_calibration", n=1, eps=0.1, S_eps=0.25)

    def stub(cfg):
        return [row], [], []
    monkeypatch.setitem(RUNNERS, "tanh_calibration", stub)
    out = tmp_path / "out"
    assert run({"experiment": "tanh_calibration", "output_dir": str(out)}
               ).passed
    assert (out / "sweep.csv").read_text().splitlines() == [
        ",".join(CSV_COLUMNS),
        "tanh_calibration,1,0.1,,,0.25" + "," * (len(CSV_COLUMNS) - 6)]


def test_validate_complete_config_ok():
    assert validate({"experiment": "tanh_calibration"}) == []
    assert validate({"experiment": "neumann_layer"}) == []


def test_expand_config_merges_params():
    cfg = expand_config({"experiment": "boundary_atom",
                         "params": {"S": 2.0}})
    assert cfg["params"]["S"] == 2.0
    assert cfg["params"]["L"] == 1.0            # default preserved


def test_run_rejects_invalid_config(tmp_path):
    with pytest.raises(ValueError):
        run({"experiment": "boundary_atom", "eps_list": [0.1, 0.2],
             "output_dir": str(tmp_path)})


def test_calibration_run_artifacts(tmp_path):
    out = tmp_path / "cal"
    summary = run({"experiment": "tanh_calibration", "output_dir": str(out)})
    assert summary.passed
    for name in ("sweep.csv", "summary.json", "summary.txt", "manifest.json"):
        assert (out / name).exists()
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    manifest = json.loads((out / "manifest.json").read_text())
    assert "sweep.csv" in manifest["files"]
    # every listed file exists and hashes are hex strings
    for rel, digest in manifest["files"].items():
        assert (out / rel).exists()
        assert len(digest) == 64
    # emitted fields round-trip
    fld = load_field(str(out / "fields" / "calibration_relaxed"))
    assert fld.grid.n == 1


def test_reproducibility_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cfg = {"experiment": "tanh_calibration", "seed": 3}
    run({**cfg, "output_dir": str(out1)})
    run({**cfg, "output_dir": str(out2)})
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1 == m2


def test_family_run_byte_identical_across_workers_and_reruns(tmp_path):
    # boundary_atom at a reduced size: half-width 0.5, unit spacing 1/8
    cfg = {"experiment": "boundary_atom",
           "params": {"L": 0.5, "unit_spacing": 1 / 8}}
    outs = [tmp_path / f"run{i}" for i in range(3)]
    for out, workers in zip(outs, (1, 2, 1)):
        run({**cfg, "workers": workers, "output_dir": str(out)})
    for name in ("sweep.csv", "manifest.json"):
        first, *rest = [(out / name).read_bytes() for out in outs]
        assert all(r == first for r in rest), name


def _assert_manifest_matches_disk(out):
    manifest = json.loads((out / "manifest.json").read_text())
    on_disk = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    assert set(manifest["files"]) == on_disk - {"manifest.json"}
    for rel, digest in manifest["files"].items():
        assert digest == hashlib.sha256((out / rel).read_bytes()).hexdigest()


def test_neumann_run_byte_identical_across_workers_and_reruns(tmp_path):
    # two members of 301^2 and 601^2 nodes, each spanning several density
    # slabs, so the slab threads have work to split
    cfg = {"experiment": "neumann_layer", "eps_list": [0.064, 0.032]}
    outs = [tmp_path / f"run{i}" for i in range(3)]
    for out, workers in zip(outs, (1, 2, 1)):
        run({**cfg, "workers": workers, "output_dir": str(out)})
    for name in ("sweep.csv", "manifest.json"):
        first, *rest = [(out / name).read_bytes() for out in outs]
        assert all(r == first for r in rest), name
    _assert_manifest_matches_disk(outs[1])


def test_manifest_digests_are_the_files_on_disk(tmp_path):
    out = tmp_path / "cal"
    run({"experiment": "tanh_calibration", "output_dir": str(out)})
    _assert_manifest_matches_disk(out)
    # the field samples are written as np.save writes them
    fld = load_field(str(out / "fields" / "calibration_relaxed"))
    np.save(tmp_path / "ref.npy", fld.values)
    assert ((out / "fields" / "calibration_relaxed.npy").read_bytes()
            == (tmp_path / "ref.npy").read_bytes())


def test_csv_floats_round_trip(tmp_path):
    out = tmp_path / "cal"
    run({"experiment": "tanh_calibration", "output_dir": str(out)})
    lines = (out / "sweep.csv").read_text().splitlines()
    cols = lines[0].split(",")
    row = dict(zip(cols, lines[1].split(",")))
    s = float(row["S_eps"])
    assert 0.98 < s < 1.02
    assert repr(s) == row["S_eps"]


def _half_space_faces():
    from phaselab.grid import make_half_space_grid
    return make_half_space_grid(2, 2.0, 0.25, 1.0)


def _neumann_faces():
    from phaselab.grid import Grid, NeumannZero
    g = Grid((9, 7), 0.25, (0.0, -1.0))
    return g, {(a, s): NeumannZero() for a in range(2) for s in ("low", "high")}


@pytest.mark.parametrize("faces", [_half_space_faces, _neumann_faces],
                         ids=["half_space", "neumann"])
def test_field_io_roundtrip(tmp_path, faces):
    from phaselab.energy import ScalarField
    g, roles = faces()
    rng = np.random.default_rng(0)
    fld = ScalarField(g, rng.standard_normal(g.shape), roles)
    base = str(tmp_path / "f")
    save_field(fld, base)
    back = load_field(base)
    assert back.grid == g
    assert np.array_equal(back.values, fld.values)
    assert back.roles.keys() == roles.keys()
    for face, role in roles.items():
        assert type(back.roles[face]) is type(role)
        assert back.roles[face] == role


def test_load_field_rejects_a_version_1_header(tmp_path):
    from phaselab.energy import ScalarField
    g, roles = _half_space_faces()
    base = str(tmp_path / "f")
    save_field(ScalarField(g, np.ones(g.shape), roles), base)
    with open(base + ".json") as fh:
        header = json.load(fh)
    header["format"] = "phaselab-field-1"
    with open(base + ".json", "w") as fh:
        json.dump(header, fh)
    with pytest.raises(ValueError, match="unrecognized field file format"):
        load_field(base)


def test_load_field_rejects_a_nan_spacing(tmp_path):
    # json.load reads the NaN literal; the grid must refuse it
    from phaselab.energy import ScalarField
    g, roles = _half_space_faces()
    base = str(tmp_path / "f")
    save_field(ScalarField(g, np.ones(g.shape), roles), base)
    with open(base + ".json") as fh:
        header = json.load(fh)
    header["grid"]["spacing"] = float("nan")
    with open(base + ".json", "w") as fh:
        json.dump(header, fh)
    with pytest.raises(ValueError, match="spacing must be positive and "
                                         "finite, got nan"):
        load_field(base)


def test_load_field_rejects_a_free_face(tmp_path):
    from phaselab.energy import ScalarField
    g, roles = _half_space_faces()
    base = str(tmp_path / "f")
    save_field(ScalarField(g, np.ones(g.shape), roles), base)
    with open(base + ".json") as fh:
        header = json.load(fh)
    header["faces"]["0:high"] = {"role": "free"}
    with open(base + ".json", "w") as fh:
        json.dump(header, fh)
    with pytest.raises(ValueError, match="unknown role kind 'free'"):
        load_field(base)


def test_cli_validate_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "tanh_calibration",
                                    "output_dir": str(tmp_path / "out")}))
    assert cli_main(["validate", str(cfg_path)]) == 0
    assert cli_main(["run", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert "PASS" in captured.out
    assert cli_main(["report", str(tmp_path / "out")]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "boundary_atom",
                               "eps_list": [0.1, 0.2]}))
    assert cli_main(["validate", str(bad)]) == 1
    assert cli_main(["report", str(tmp_path / "missing")]) == 1


@pytest.mark.parametrize("text, reason", [
    (None, "No such file or directory"),
    ('{"experiment": ', "Expecting value"),
    ("[1, 2]", "config must be a JSON object, got list"),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_reports_a_bad_config_file(command, text, reason, tmp_path,
                                       capsys):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert cli_main([command, str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {reason}")


def test_cli_run_writes_to_the_default_output_dir(tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"experiment": "tanh_calibration"}))
    assert cli_main(["run", "cfg.json"]) == 0
    assert capsys.readouterr().out.startswith(
        "experiment: tanh_calibration\noverall: PASS")
    assert (tmp_path / "runs" / "tanh_calibration" / "summary.json").exists()


def test_run_exit_code_on_failed_assertion(tmp_path, capsys):
    # an over-strict exponent floor makes the neumann experiment fail;
    # the run must emit artifacts, report FAIL and exit with code 2
    cfg_path = tmp_path / "strict.json"
    cfg_path.write_text(json.dumps({
        "experiment": "neumann_layer",
        "eps_list": [0.16, 0.08],
        "params": {"exponent_floor": 3.0},
        "output_dir": str(tmp_path / "out"),
    }))
    assert cli_main(["run", str(cfg_path)]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert (tmp_path / "out" / "summary.txt").exists()
    assert cli_main(["report", str(tmp_path / "out")]) == 2


def test_summary_json_is_strict_with_a_non_finite_value(tmp_path, capsys):
    # a bump amplitude this small leaves no excess mass, so the layer
    # exponent reads -inf; summary.json writes it as the string "-inf",
    # and run and report print it as before
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment": "neumann_layer", "eps_list": [0.064, 0.032],
        "params": {"bump_amp": 1e-9}, "output_dir": str(out)}))
    assert cli_main(["run", str(cfg_path)]) == 2
    printed = capsys.readouterr().out

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    doc = json.loads((out / "summary.json").read_text(),
                     parse_constant=reject)
    values = {a["id"]: a["value"] for a in doc["assertions"]}
    assert values["neumann.layer_exponent"] == "-inf"
    assert "neumann.layer_exponent: -inf >= 1.8" in printed
    assert cli_main(["report", str(out)]) == 2
    assert capsys.readouterr().out == printed
    assert (out / "summary.txt").read_text() == printed


def test_validate_malformed_config():
    # the raw value is checked before anything is expanded, so the error
    # names the key instead of what int() says about it
    errs = validate({"experiment": "boundary_atom", "workers": "three"})
    assert errs == ["workers must be an integer, got 'three'"]


@pytest.mark.parametrize("config, key", [
    ({"eps_list": ["a"]}, "eps_list"),
    ({"params": {"S": "x"}}, "params.S"),
    ({"solver": {"residual_tol": "1e-9"}}, "solver.residual_tol"),
])
def test_validate_reports_mistyped_values(config, key):
    errs = validate({"experiment": "boundary_atom", **config})
    assert errs and any(key in e for e in errs)


@pytest.mark.parametrize("experiment", ["unbounded", "boundary_atom",
                                        "hausdorff_levelset",
                                        "hoelder_blowup", "neumann_layer",
                                        "penalty_zero"])
def test_single_member_sweep_is_rejected(experiment, tmp_path):
    cfg = {"experiment": experiment, "eps_list": [0.1]}
    errs = validate(cfg)
    assert any("at least 2 eps values" in e for e in errs)
    with pytest.raises(ValueError, match="at least 2 eps values"):
        run({**cfg, "output_dir": str(tmp_path)})


@pytest.mark.parametrize("experiment", ["tanh_calibration",
                                        "oscillation_atom"])
def test_single_member_sweep_allowed_without_sweep_assertions(experiment):
    assert validate({"experiment": experiment, "eps_list": [0.1]}) == []


@pytest.mark.parametrize("config, key", [
    ({"params": {"unit_spacng": 0.1}}, "params.unit_spacng"),
    ({"solvr": {"residual_tol": 1e-9}}, "solvr"),
    ({"solver": {"residual_tolerance": 1e-9}}, "solver.residual_tolerance"),
    ({"params": {"sigma": 1.0}}, "params.sigma"),
])
def test_validate_rejects_unknown_keys(config, key):
    errs = validate({"experiment": "boundary_atom", **config})
    assert any(f"unknown key {key};" in e for e in errs)


@pytest.mark.parametrize("experiment, params, key", [
    ("boundary_atom", {"probe_radii": []}, "params.probe_radii"),
    ("boundary_atom", {"concentration_radius": 0.3},
     "params.concentration_radius"),
    ("unbounded", {"slope_window": [0.3]}, "params.slope_window"),
    ("unbounded", {"slope_window": [0.3, 0.5, 0.7]}, "params.slope_window"),
    ("neumann_layer", {"interfaces": [0.7]}, "params.interfaces"),
    ("unbounded", {"base_shape": "foo"}, "params.base_shape"),
    ("hoelder_blowup", {"points_per_unit_scale": -1},
     "params.points_per_unit_scale"),
    ("boundary_atom", {"base_support": -1}, "params.base_support"),
    ("unbounded", {"base_amplitude": 0.0}, "params.base_amplitude"),
    ("penalty_zero", {"base_amplitude": -0.5}, "params.base_amplitude"),
    ("hausdorff_levelset", {"residual_tol": 0}, "params.residual_tol"),
    ("hausdorff_levelset", {"level_band": 0.0}, "params.level_band"),
    ("hausdorff_levelset", {"level_band": 1.0}, "params.level_band"),
    ("tanh_calibration", {"spacing_per_eps": 0}, "params.spacing_per_eps"),
    ("tanh_calibration", {"domain_length": -1}, "params.domain_length"),
    ("tanh_calibration", {"domain_length": 10.03}, "params.domain_length"),
    ("penalty_zero", {"offset_scale": 0.01}, "params.offset_scale"),
    ("penalty_zero", {"offset_scale": -5e-3}, "params.offset_scale"),
    ("penalty_zero", {"sigma": -1}, "params.sigma"),
    ("unbounded", {"theta_exponent": 0.3}, "params.theta_exponent"),
    # a top-level key: the config without its params in place of the name
    ({"experiment": "unbounded", "n": 1}, {}, "params.theta_exponent"),
    ({"experiment": "oscillation_atom", "n": 1}, {}, "n"),
    ({"experiment": "tanh_calibration", "n": 2}, {}, "n"),
    ({"experiment": "neumann_layer", "n": 3}, {}, "n"),
    ({"experiment": "tanh_calibration", "workers": -2}, {}, "workers"),
    ({"experiment": "tanh_calibration", "workers": 2.7}, {}, "workers"),
    ({"experiment": "tanh_calibration", "workers": True}, {}, "workers"),
    ({"experiment": "tanh_calibration", "output_dir": 5}, {}, "output_dir"),
    ({"experiment": "hausdorff_levelset", "n": 1}, {}, "n"),
    ({"experiment": "hoelder_blowup", "n": 1}, {}, "n"),
    ({"experiment": "tanh_calibration", "seed": 2.7}, {}, "seed"),
    ({"experiment": "tanh_calibration", "seed": True}, {}, "seed"),
    ({"experiment": "tanh_calibration", "seed": "3"}, {}, "seed"),
    ({"experiment": "tanh_calibration", "workers": "x"}, {}, "workers"),
    ({"experiment": "tanh_calibration", "workers": [1]}, {}, "workers"),
    ({"experiment": "tanh_calibration", "workers": 0}, {}, "workers"),
    ({"experiment": "tanh_calibration", "eps_list": 5}, {}, "eps_list"),
    ({"experiment": "tanh_calibration"}, 5, "params"),
    ({"experiment": "tanh_calibration", "solver": [1]}, {}, "solver"),
    ("boundary_atom", {"L": 10 ** 400}, "params.L"),
    ("boundary_atom", {"L": 0.5, "unit_spacing": 0.125,
                       "probe_radii": [0.25, -0.1]}, "params.probe_radii"),
    ("boundary_atom", {"L": 0.5, "unit_spacing": 0.125,
                       "probe_radii": [0.25, 0.0]}, "params.probe_radii"),
    # an excess set of zero width, swapped interfaces, one outside the box
    ("neumann_layer", {"interfaces": [1.0, 1.0]}, "params.interfaces"),
    ("neumann_layer", {"interfaces": [1.7, 0.7]}, "params.interfaces"),
    ("neumann_layer", {"interfaces": [0.7, 3.0]}, "params.interfaces"),
    ("neumann_layer", {"interfaces": [0.0, 1.7]}, "params.interfaces"),
    ("neumann_layer", {"L": 1.5}, "params.interfaces"),
    ("unbounded", {"slope_window": [0.7, 0.3]}, "params.slope_window"),
    ("unbounded", {"slope_window": [0.5, 0.5]}, "params.slope_window"),
    # no node 2 eps inside every face, and a box of fewer than 4 cells
    ("hoelder_blowup", {"window": 4.0}, "params.window"),
    ("hoelder_blowup", {"points_per_unit_scale": 0.01}, "params.window"),
])
def test_validate_rejects_values_that_crash_a_run(experiment, params, key,
                                                  tmp_path, monkeypatch):
    from phaselab.solver import _DirichletProblem

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started on an invalid config")
    monkeypatch.setattr(_DirichletProblem, "__init__", no_solve)
    top = experiment if isinstance(experiment, dict) else {
        "experiment": experiment}
    cfg = {**top, "params": params}
    errs = validate(cfg)
    assert len(errs) == 1 and errs[0].startswith(key + " ")
    with pytest.raises(ValueError, match="invalid config: " + key):
        run({"output_dir": str(tmp_path), **cfg})


def test_validate_takes_the_hoelder_window_rule_from_the_grid(tmp_path):
    # 4.0 leaves no node 2 eps inside every face, 4.2 does: validate
    # accepts it, and the run gives a verdict (its interior quotients vary
    # too much) instead of an error
    cfg = {"experiment": "hoelder_blowup", "params": {"window": 4.2}}
    assert validate(cfg) == []
    summary = run({**cfg, "output_dir": str(tmp_path)})
    assert [a.id for a in summary.assertions if not a.passed] == [
        "hoelder.interior_stable"]


def test_shipped_configs_and_benchmark_runs_validate():
    # the benchmark runs every workload config through run(); a key that
    # validate stops accepting would fail every benchmark operation
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    configs = {}
    for name in sorted(os.listdir(os.path.join(root, "configs"))):
        if name.endswith(".json"):
            with open(os.path.join(root, "configs", name)) as fh:
                configs[name] = json.load(fh)
    with open(os.path.join(root, "perfbench", "workloads.json")) as fh:
        for workload, spec in json.load(fh).items():
            for i, cfg in enumerate(spec.get("runs", [])):
                configs[f"{workload}[{i}]"] = cfg
    assert len(configs) == 13
    for name, cfg in configs.items():
        assert validate(cfg) == [], name


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_names_each_cross_key_error(command, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "experiment": "neumann_layer", "eps_list": [0.064],
        "params": {"interfaces": [1.7, 0.7]},
        "output_dir": str(tmp_path / "out")}))
    assert cli_main([command, str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(e.startswith(f"error: {path}: ") for e in err)
    assert "neumann_layer needs at least 2 eps values" in err[0]
    assert "params.interfaces must satisfy" in err[1]
    assert not (tmp_path / "out").exists()


def test_theta_polynomial_is_the_fitted_slope_of_the_sweep(acceptance_runs):
    # the slope of log theta against log 1/eps, with theta read back from
    # the run's own sweep.csv
    summary, out = acceptance_runs["boundary_atom"]
    lines = (out / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(",")))
            for line in lines[1:]]
    eps = [float(r["eps"]) for r in rows]
    theta = [float(r["theta_or_omega"]) for r in rows]
    slope = np.polyfit(np.log([1 / e for e in eps]), np.log(theta), 1)[0]
    value = {a.id: a.value for a in summary.assertions}["atom.theta_polynomial"]
    assert len(rows) == 3 and value == slope


def test_penalty_rows_carry_the_penalized_functional(acceptance_runs):
    _, out = acceptance_runs["penalty_zero"]
    p = json.loads((out / "summary.json").read_text())["config"]["params"]
    lines = (out / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(",")))
            for line in lines[1:]]
    assert len(rows) == 3
    for row in rows:
        eps, S, W = (float(row[c]) for c in ("eps", "S_eps", "W_eps"))
        assert float(row["F_eps_penalized"]) == (
            W + eps ** -p["sigma"] * (S - p["S"]) ** 2)


def test_cli_run_reports_a_solve_that_gives_up(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment": "unbounded", "params": {"L": 0.2},
        "solver": {"max_iterations": 0},
        "output_dir": str(tmp_path / "out")}))
    assert cli_main(["run", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith("error: no convergence")


def test_cli_run_reports_an_over_budget_grid(tmp_path, capsys):
    # the config validates; its unit grid is over the node budget
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment": "boundary_atom", "eps_list": [0.2, 0.1],
        "params": {"unit_spacing": 0.0001},
        "output_dir": str(tmp_path / "out")}))
    assert cli_main(["validate", str(cfg_path)]) == 0
    capsys.readouterr()
    assert cli_main(["run", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid would need ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("text", [
    "not json\n",
    '{"experiment": "unbounded"}',
    '{"experiment": "unbounded", "passed": "yes", "assertions": []}',
    None,
], ids=["not-json", "no-passed", "string-passed", "a-directory"])
def test_cli_report_rejects_a_bad_summary_in_one_line(text, tmp_path, capsys):
    path = tmp_path / "summary.json"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    assert cli_main(["report", str(tmp_path)]) == 1
    assert str(path) in _one_error_line(capsys)


def test_cli_run_to_an_existing_file_fails_before_the_sweep(
        tmp_path, monkeypatch, capsys):
    def stub(cfg):
        raise AssertionError("the sweep ran")
    monkeypatch.setitem(RUNNERS, "tanh_calibration", stub)
    cfg_path, afile = tmp_path / "cfg.json", tmp_path / "afile"
    cfg_path.write_text('{"experiment": "tanh_calibration"}')
    afile.write_text("")
    assert cli_main(["run", str(cfg_path), "--output-dir", str(afile)]) == 1
    assert str(afile) in _one_error_line(capsys)


def test_validate_rejects_an_empty_output_dir(tmp_path, capsys):
    config = {"experiment": "tanh_calibration", "output_dir": ""}
    assert validate(config) == [
        "output_dir must be a non-empty string, got ''"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main(["run", str(cfg_path)]) == 1
    assert _one_error_line(capsys).startswith(f"error: {cfg_path}: output_dir")


def test_cli_run_reports_an_os_error_but_not_a_key_error(tmp_path, monkeypatch,
                                                        capsys):
    # an OSError is a failure a user can cause; a KeyError is a program
    # fault and keeps its traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "tanh_calibration",
                                    "output_dir": str(tmp_path / "out")}))

    def stub(cfg):
        raise exc
    monkeypatch.setitem(RUNNERS, "tanh_calibration", stub)
    exc = PermissionError(13, "Permission denied", "x.npy")
    assert cli_main(["run", str(cfg_path)]) == 1
    assert "Permission denied" in _one_error_line(capsys)
    exc = KeyError("eps")
    with pytest.raises(KeyError):
        cli_main(["run", str(cfg_path)])


def test_validate_rejects_negative_max_iterations():
    errs = validate({"experiment": "boundary_atom",
                     "solver": {"max_iterations": -1}})
    assert errs == ["solver.max_iterations must lie in [0, inf), got -1"]


def test_import_loads_no_unused_scipy_subpackages():
    # a fresh interpreter: this session has long loaded them
    import subprocess
    import sys
    code = ("import sys, phaselab, phaselab.runner, phaselab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'optimize'], ['scipy', 'interpolate'], "
            "['scipy', 'spatial'])))")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_validate_shows_string_dimension_as_string():
    errs = validate({"experiment": "boundary_atom", "n": "2"})
    assert any("got '2'" in e for e in errs)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(experiment=st.sampled_from(sorted(DEFAULTS)),
       eps_list=_json_values,
       solver=st.dictionaries(st.sampled_from(["residual_tol",
                                               "max_iterations", "tol"]),
                              _json_values),
       params=st.dictionaries(st.sampled_from(sorted(
           {k for d in DEFAULTS.values() for k in d["params"]}
           | {"unit_spacng"})), _json_values),
       extra=st.dictionaries(st.sampled_from(["seed", "solvr", "workers",
                                              "n", "output_dir"]),
                             _json_values))
def test_validate_never_raises(experiment, eps_list, solver, params, extra):
    errs = validate({"experiment": experiment, "eps_list": eps_list,
                     "solver": solver, "params": params, **extra})
    assert isinstance(errs, list)
    assert all(isinstance(e, str) for e in errs)
    unknown = ({f"solver.{k}" for k in solver if k == "tol"}
               | {f"params.{k}" for k in params
                  if k not in DEFAULTS[experiment]["params"]}
               | {k for k in extra if k == "solvr"})
    for key in unknown:
        assert any(f"unknown key {key};" in e for e in errs)


def test_load_field_rejects_unknown_format(tmp_path):
    base = tmp_path / "x"
    base.with_suffix(".json").write_text(json.dumps({"format": "other"}))
    with pytest.raises(ValueError):
        load_field(str(base))


def test_validate_rejects_a_non_object_config(tmp_path):
    assert validate([1]) == ["config must be a JSON object, got list"]
    with pytest.raises(ValueError, match="invalid config: config must be"):
        run([1])


def _rule_cases():
    """(key, value, accepted) at each finite end of each interval of the
    rules table, and at each string a choice rule admits and one it does
    not; for a list key the value is the number of entries."""
    for key, rule in _RULES.items():
        if isinstance(rule, tuple):
            yield from ((key, choice, True) for choice in rule)
            yield key, "no such choice", False
            continue
        ends = dict(((rule.low, rule.ends[0] == "["),
                     (rule.high, rule.ends[1] == "]")))
        for end, closed in ends.items():
            if math.isfinite(end):
                yield key, end, closed


@pytest.mark.parametrize("key, value, accepted", list(_rule_cases()))
def test_every_rule_admits_its_closed_ends_only(key, value, accepted):
    # the first experiment that has the key; a list key takes that many
    # entries of its default
    block, _, name = key.rpartition(".")
    keys = {e: expand_config({"experiment": e}) for e in EXPERIMENTS}
    keys = {e: cfg[block] if block else cfg for e, cfg in keys.items()}
    experiment = next(e for e in EXPERIMENTS if name in keys[e])
    if isinstance(keys[experiment][name], list):
        value = (keys[experiment][name] * value)[:value]
    cfg = {"experiment": experiment,
           **({block: {name: value}} if block else {name: value})}
    errs = validate(cfg)
    if accepted:
        assert errs == []
    else:
        assert len(errs) == 1 and errs[0].startswith(key + " ")

