"""Subcommand behavior through the public entry point."""

import hashlib
import json
import math
import os
import runpy
import sys
import types

import numpy as np
import pytest

from kslab.cli import main
from kslab.config import (ExperimentConfig, config_hash, lemma14_recipe_from,
                          load_config)
from kslab.functionals import StatePair, energy_report
from kslab.grid import RadialField
from kslab.initial_data import baseline_profiles, lemma14_pair
from kslab.io import load_run, load_snapshots, persist_run
from kslab.solver import SolverConfig, run


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("KSLAB_OUT", str(tmp_path))
    return tmp_path


def write_cfg(tmp_path, name="clirun", **overrides):
    cfg = {
        "name": name,
        "grid": {"n": 3, "R": 1.0, "N": 48, "grading": 1.0},
        "initial": {"kind": "constant", "c": 1.0, "amplitude": 0.2, "mode": 1},
        "solver": {"t_end": 0.02, "dt_init": 1e-5, "dt_max": 1e-3,
                   "snapshot_every": 20},
        "checks": {"kappa": 2.0},
        "output": {},
    }
    cfg.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def test_constants_prints_derived_values(capsys):
    assert main(["constants", "3", "2", "1.1"]) == 0
    out = capsys.readouterr().out
    assert "0.869565" in out        # theta = 20/23
    assert "0.272727" in out        # alpha window lower end
    assert "12.566370614359172" in out  # omega_3 = 4 pi
    assert "4.1887902047863905" in out  # |B_1|


@pytest.mark.parametrize("argv", [
    ["2", "2", "1.1"],      # n < 3
    ["3", "1", "1.1"],      # kappa <= n - 2
    ["3", "2", "1.6"],      # p outside (1, 2n/(n+2))
    ["3", "2", "1.1", "--R", "-1"],     # a ball radius R <= 0
    ["3", "2", "1.1", "--R", "nan"],
    ["3", "2", "1.1", "--R", "inf"],
])
def test_constants_outside_a_window_is_single_error_line(capsys, argv):
    assert main(["constants", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


def test_simulate_writes_run_dir(workdir, capsys):
    cfg = write_cfg(workdir)
    assert main(["simulate", cfg]) == 0
    out_dir = workdir / "clirun"
    assert (out_dir / "manifest.json").exists()
    assert "reached_t_end" in capsys.readouterr().out


def test_verify_battery_exit_codes(workdir, capsys):
    # n = 4 with no checks.kappa: kappa defaults to n - 1 and |grad v|_p is
    # recorded at p_n, so every battery and plot runs on the stored run
    n4 = {"grid": {"n": 4, "R": 1.0, "N": 48, "grading": 1.0}, "checks": {}}
    for name, overrides in (("clirun", {}), ("clirun4", n4)):
        cfg = write_cfg(workdir, name=name, **overrides)
        assert main(["simulate", cfg]) == 0
        run_dir = str(workdir / name)
        for battery in ("trajectory", "suite"):
            assert main(["verify", run_dir, "--battery", battery]) in (0, 1)
            assert (workdir / name / f"checks_{battery}.json").exists()
        assert main(["plot", run_dir]) == 0
        out = capsys.readouterr().out
        assert "[PASS] conservation" in out
    assert "gradv_lp_p=1.26667" in out


def test_verify_a_run_ended_by_a_non_finite_row(workdir, overflow_row,
                                                capsys):
    # the fifth accepted step's diagnostics row overflows: the run stops
    # there with the row stored, and every battery reads it without a
    # traceback
    overflow_row(5)
    assert main(["simulate", write_cfg(workdir)]) == 0
    assert "non_finite_diagnostics: D, g_l2" in capsys.readouterr().out
    run_dir = str(workdir / "clirun")
    assert load_run(run_dir).series["D"][-1] == math.inf
    for battery in ("trajectory", "suite"):
        assert main(["verify", run_dir, "--battery", battery]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("battery", ["conservation", "energy"])
def test_verify_refuses_a_retired_battery(workdir, capsys, battery):
    # trajectory runs the conservation and energy checks; their own
    # batteries are gone, and argparse stops with its usage error
    assert main(["simulate", write_cfg(workdir)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(workdir / "clirun"), "--battery", battery])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not (workdir / "clirun" / f"checks_{battery}.json").exists()


def test_out_resolves_under_kslab_out(workdir, tmp_path_factory):
    # a relative --out lands under KSLAB_OUT, an absolute one as given
    cfg = write_cfg(workdir)
    assert main(["simulate", cfg, "--out", "sub/run"]) == 0
    assert (workdir / "sub" / "run" / "manifest.json").exists()
    elsewhere = tmp_path_factory.mktemp("elsewhere") / "run"
    assert main(["simulate", cfg, "--out", str(elsewhere)]) == 0
    assert (elsewhere / "manifest.json").exists()
    assert not (workdir / "clirun").exists()


def test_verify_missing_dir_is_single_error_line(workdir, capsys):
    rc = main(["verify", str(workdir / "absent")])
    err = capsys.readouterr().err
    assert rc != 0
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_retired_snapshot_layout_is_single_error_line(workdir, capsys):
    # rewrite a run directory into the one-archive-per-snapshot layout
    main(["simulate", write_cfg(workdir)])
    run_dir = workdir / "clirun"
    stored = load_run(str(run_dir))
    man = json.loads((run_dir / "manifest.json").read_text())
    for name in ("snapshots.npz", "snapshots.f64"):
        os.remove(run_dir / name)
        del man["files"][name]
    g = stored.snapshots[0].grid
    for i, snap in enumerate(stored.snapshots):
        name = f"snap_{i:05d}.npz"
        # the retired archive's keys
        np.savez(run_dir / name, n=g.n, R=g.R, t=snap.t, edges=g.edges,
                 r=g.centers, u=snap.u.values, v=snap.v.values,
                 config_hash=np.array(man["config_hash"]))
        digest = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        man["files"][name] = {"sha256": digest}
    (run_dir / "manifest.json").write_text(json.dumps(man))
    capsys.readouterr()
    for argv in (["verify", str(run_dir)], ["plot", str(run_dir)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "retired snap_NNNNN.npz layout" in err
        assert "simulate the run again" in err


def test_run_dir_with_an_empty_store_is_single_error_line(workdir, capsys):
    # a store index that lists no state, its row file empty and both files
    # listed in the manifest with their own sha256
    main(["simulate", write_cfg(workdir)])
    run_dir = workdir / "clirun"
    index = run_dir / "snapshots.npz"
    with np.load(str(index)) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["t"] = np.array([], dtype=np.float64)
    with open(index, "wb") as fh:
        np.savez(fh, **arrays)
    (run_dir / "snapshots.f64").write_bytes(b"")
    man = json.loads((run_dir / "manifest.json").read_text())
    for name in ("snapshots.npz", "snapshots.f64"):
        digest = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        man["files"][name] = {"sha256": digest}
    (run_dir / "manifest.json").write_text(json.dumps(man))
    capsys.readouterr()
    for argv in (["verify", str(run_dir)], ["plot", str(run_dir)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "lists no state" in err
    assert not (run_dir / "plot_series.py").exists()


@pytest.mark.parametrize("kind", ["relaxation", "collapse"])
def test_run_dir_with_fitted_time_still_loads(workdir, capsys, kind):
    # older run directories hold a power-law "t_extrapolated" in the
    # manifest's verdict and in a verdict.json the manifest lists; a verdict
    # no longer has one, and a run directory no longer has verdict.json
    if kind == "relaxation":
        main(["simulate", write_cfg(workdir)])
        run_dir = workdir / "clirun"
    else:
        # the collapse datum of the solver tests, persisted directly: a
        # config's initial block cannot scale v, so this one is a record
        cfg = ExperimentConfig(
            name="collapse", grid={"n": 3, "R": 1.0, "N": 256, "grading": 1.0},
            initial={"kind": "bump", "m": 50.0, "width": 0.15, "floor": 1e-2},
            solver=SolverConfig(t_end=0.02, dt_init=1e-6, dt_min=2e-8,
                                dt_max=1e-4, snapshot_every=8),
            checks={"kappa": 2.0})
        grid = cfg.build_grid()
        u = baseline_profiles("bump", grid, m=50.0, width=0.15, floor=1e-2).u
        vb = baseline_profiles("bump", grid, m=25.0, width=0.3, floor=1e-2).v
        s0 = StatePair(u, RadialField(grid, 0.5 * vb.values))
        run_dir = workdir / "collapse"
        persist_run(run(s0, cfg.solver), cfg, str(run_dir))
    before = load_run(str(run_dir)).verdict
    assert not (run_dir / "verdict.json").exists()
    man = json.loads((run_dir / "manifest.json").read_text())
    vd = man["verdict"]
    assert "t_extrapolated" not in vd
    vd["t_extrapolated"] = 1.43e-3
    (run_dir / "verdict.json").write_text(
        json.dumps(vd, indent=2, sort_keys=True) + "\n")
    man["files"]["verdict.json"] = {"sha256": hashlib.sha256(
        (run_dir / "verdict.json").read_bytes()).hexdigest()}
    (run_dir / "manifest.json").write_text(json.dumps(man))

    after = load_run(str(run_dir)).verdict
    assert (after.outcome, after.t_detect, after.trigger) == (
        before.outcome, before.t_detect, before.trigger)
    if kind == "collapse":
        assert after.outcome == "blew_up" and after.t_detect > 0
    capsys.readouterr()
    for argv in (["verify", str(run_dir)], ["plot", str(run_dir)]):
        assert main(argv) in (0, 1)
        assert "error:" not in capsys.readouterr().err


def test_simulate_bad_config_reports_error(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"name": "x"}))
    rc = main(["simulate", str(bad)])
    assert rc != 0
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_solver_key_is_single_error_line(workdir, capsys):
    # run directories written while SolverConfig had these fields carry them
    # in config.json; they are refused with one line, not a traceback
    for key, value in (("scheme", "imex"), ("safety", 0.9), ("growth", 1.2),
                       ("gradv_p", 1.4)):
        cfg = write_cfg(workdir, solver={"t_end": 0.02, key: value})
        rc = main(["simulate", cfg])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert key in err


@pytest.mark.parametrize("overrides, says", [
    # kappa must exceed n - 2 for every initial kind, not only lemma14
    ({"initial": {"kind": "bump", "m": 5.0, "width": 0.3},
      "checks": {"kappa": 1.0}}, "kappa"),
    ({"initial": {"kind": "lemma14", "k": 1, "p": 1.1,
                  "baseline": {"kind": "bump", "m": 5.0, "width": 0.3}}},
     "baseline"),
    ({"grid": {"n": 3, "R": 1.0, "N": 96, "grading": 1.1},
      "initial": {"kind": "lemma14", "k": 1, "p": 1.1,
                  "r_rule": {"r0": 0.5, "q": 1.0}}}, "r_rule q"),
    # a value of the wrong JSON type is refused like a bad value, naming
    # the block it sits in
    ({"grid": {"n": 3, "R": 1.0, "N": 96, "grading": 1.1},
      "initial": {"kind": "lemma14", "k": 1, "p": 1.1,
                  "r_rule": {"r0": None, "q": 0.5}}}, "initial block"),
    ({"solver": {"dt_max": None}}, "solver block"),
    ({"checks": {"kappa": None}}, "checks block"),
    # kappa is the only checks key: a retired or misspelled one is refused
    ({"checks": {"kappa": 2.0, "tail_start": None}},
     "unknown checks keys ['tail_start']"),
    ({"checks": {"kappa": 2.0, "tail_start": 12}},
     "unknown checks keys ['tail_start']"),
    ({"checks": {"kapa": 2.0}}, "unknown checks keys ['kapa']"),
    ({"grid": {"n": 3, "R": 1.0, "N": 96, "grading": 1.1},
      "initial": {"kind": "lemma14", "k": 1, "p": 1.1, "baseline": 4.0}},
     "baseline"),
    ({"grid": {"n": 3, "R": 1.0, "N": 96, "grading": 1.1},
      "initial": {"kind": "lemma14", "k": None, "p": 1.1}}, "initial block"),
    ({"initial": {"kind": "constant", "c": 1.0, "amplitude": None}},
     "initial block"),
    ({"initial": {"kind": "constant", "c": 1.0, "mode": None}},
     "initial block"),
    ({"initial": {"kind": "bump", "m": None, "width": 0.3}}, "initial block"),
    ({"initial": None}, "initial block"),
    ({"grid": {"n": 3, "R": 1.0, "N": 96, "grading": 1.1},
      "initial": {"kind": "lemma14", "ks": [1, None], "p": 1.1}},
     "initial block"),
    # an integer setting is never truncated: a fraction, an integral float
    # or a boolean is refused
    ({"grid": {"n": 3.7, "R": 1.0, "N": 48}}, "grid block: n must be"),
    ({"grid": {"n": 3, "R": 1.0, "N": 64.9}}, "grid block: N must be"),
    ({"grid": {"n": True, "R": 1.0, "N": 48}}, "grid block: n must be"),
    ({"grid": {"n": 3, "R": 1.0, "N": 48.0}}, "grid block: N must be"),
    ({"grid": {"n": 3, "R": 1.0, "N": 96, "grading": 1.1},
      "initial": {"kind": "lemma14", "k": 2.5, "p": 1.1}},
     "initial block: k must be"),
    ({"grid": {"n": 3, "R": 1.0, "N": 96, "grading": 1.1},
      "initial": {"kind": "lemma14", "k": True, "p": 1.1}},
     "initial block: k must be"),
    ({"grid": {"n": 3, "R": 1.0, "N": 96, "grading": 1.1},
      "initial": {"kind": "lemma14", "ks": [1, 2.5], "p": 1.1}},
     "initial block: each entry of ks"),
    ({"initial": {"kind": "constant", "c": 1.0, "mode": 2.5}},
     "initial block: mode must be"),
    ({"solver": {"t_end": 0.02, "snapshot_every": 2.5}},
     "solver block: snapshot_every must be"),
    ({"solver": {"t_end": 0.02, "max_steps": True}},
     "solver block: max_steps must be"),
    # json.dumps writes inf as the literal Infinity, which json.load reads
    ({"solver": {"t_end": math.inf}}, "finite"),
    # a family index is a whole number >= 1, in k and in every entry of ks
    ({"grid": {"n": 3, "R": 1.0, "N": 96, "grading": 1.1},
      "initial": {"kind": "lemma14", "k": 0, "p": 1.1}},
     "family index k must be a positive integer, got 0"),
    ({"grid": {"n": 3, "R": 1.0, "N": 96, "grading": 1.1},
      "initial": {"kind": "lemma14", "ks": [0, 1], "p": 1.1}},
     "family index k must be a positive integer, got 0"),
    # the initial state is built at load, so its range checks run there
    ({"initial": {"kind": "constant", "c": 1.0, "amplitude": 1.5}},
     "amplitude < 1"),
    ({"initial": {"kind": "constant", "c": 1.0, "mode": 0}}, "mode >= 1"),
    ({"initial": {"kind": "bump", "m": -1.0, "width": 0.3}}, "positive m"),
    ({"initial": {"kind": "bump", "m": 1e-3, "width": 0.3, "floor": 1.0}},
     "floor already exceeds"),
    ({"grid": {"n": 3, "R": 1.0, "N": 64, "grading": 1.05},
      "initial": {"kind": "lemma14", "k": 40, "p": 1.1}}, "cells inside"),
], ids=["bump_kappa", "lemma14_bump_baseline", "r_rule_q_1", "r_rule_r0_null",
        "solver_dt_max_null", "checks_kappa_null", "checks_tail_start_null",
        "checks_tail_start_12", "checks_unknown_key", "lemma14_baseline_number",
        "lemma14_k_null", "constant_amplitude_null", "constant_mode_null",
        "bump_m_null", "initial_null", "lemma14_ks_entry_null",
        "grid_n_fraction", "grid_N_fraction", "grid_n_bool", "grid_N_float",
        "lemma14_k_fraction", "lemma14_k_bool", "lemma14_ks_entry_fraction",
        "constant_mode_fraction", "solver_snapshot_every_fraction",
        "solver_max_steps_bool", "solver_t_end_infinity", "lemma14_k_0",
        "lemma14_ks_entry_0", "constant_amplitude_1.5", "constant_mode_0",
        "bump_m_negative", "bump_floor_above_mass", "lemma14_k_unresolved"])
def test_bad_config_is_refused_at_load(workdir, capsys, overrides, says):
    cfg = write_cfg(workdir, name="bad", **overrides)
    assert main(["simulate", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert says in err
    assert not (workdir / "bad").exists()
    with pytest.raises(ValueError):
        load_config(cfg)


def test_simulate_of_a_member_list_names_initial_k(workdir, capsys):
    """A lemma14 config that lists ks but no k loads (construct takes it),
    and simulate refuses it with one line, before any run directory."""
    cfg = write_cfg(
        workdir, name="family",
        grid={"n": 3, "R": 1.0, "N": 96, "grading": 1.1},
        initial={"kind": "lemma14", "ks": [4, 5, 6], "p": 1.1})
    assert main(["simulate", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "initial.k;" in err and "initial.ks" in err
    assert not (workdir / "family").exists()


def test_construct_emits_sequence_table(workdir, capsys):
    cfg = write_cfg(
        workdir, name="seq",
        grid={"n": 3, "R": 1.0, "N": 96, "grading": 1.1},
        initial={"kind": "lemma14", "ks": [4, 5, 6], "p": 1.1},
    )
    assert main(["construct", cfg]) == 0
    table = (workdir / "seq" / "sequence.csv").read_text().splitlines()
    assert table[0].startswith("# config_hash=")
    header = table[1].split(",")
    assert header[:4] == ["k", "r_k", "log_eta", "margin"]
    assert header[-2:] == ["F_grid", "core_cells"]
    assert len(table) == 5
    # the members are stored as one snapshot store, row i being table row i
    out = workdir / "seq"
    assert sorted(os.listdir(out)) == [
        "sequence.csv", "snapshots.f64", "snapshots.npz"]
    h = table[0].removeprefix("# config_hash=")
    states = load_snapshots(str(out), h)
    loaded = load_config(cfg)
    recipe = lemma14_recipe_from(loaded.initial, loaded.build_grid())
    assert len(states) == 3
    for line, s in zip(table[2:], states):
        row = dict(zip(header, line.split(",")))
        assert np.isfinite(float(row["F_grid"]))
        assert row["core_cells"].isdigit()  # an integer >= 0
        ref = lemma14_pair(recipe, int(row["k"]))
        assert s.t == 0.0
        assert s.u.values.tobytes() == ref.u0.values.tobytes()
        assert s.v.values.tobytes() == ref.v0.values.tobytes()
        assert float(row["F_grid"]) == energy_report(s).F


def test_construct_without_members_is_single_error_line(workdir, capsys):
    cfg = write_cfg(
        workdir, name="none",
        initial={"kind": "lemma14", "ks": [], "p": 1.1},
    )
    assert main(["construct", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "no states to store" in err
    assert not (workdir / "none").exists()


def test_construct_of_a_non_lemma14_config_is_single_error_line(workdir,
                                                                  capsys):
    cfg = write_cfg(workdir, name="flat")
    assert main(["construct", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "initial.kind = lemma14" in err
    assert not (workdir / "flat").exists()


def test_construct_prints_the_sequence_check_on_a_long_family(workdir,
                                                               capsys):
    # k >= 10 is the tail check_lemma14_sequence judges: ks 1..12 gives
    # it three members
    cfg = write_cfg(
        workdir, name="long",
        grid={"n": 3, "R": 1.0, "N": 512, "grading": 1.05},
        initial={"kind": "lemma14", "ks": list(range(1, 13)), "p": 1.1})
    assert main(["construct", cfg]) == 0
    out = capsys.readouterr().out
    assert "lemma14_sequence" in out
    assert "sequence check skipped" not in out


def test_sweep_over_ks_writes_one_run_per_member(workdir, capsys):
    cfg = write_cfg(
        workdir, name="ksweep",
        grid={"n": 3, "R": 1.0, "N": 128, "grading": 1.0},
        initial={"kind": "lemma14", "k": 1, "p": 1.1,
                 "baseline": {"kind": "constant", "c": 1.0}},
        solver={"t_end": 0.02, "dt_init": 1e-5, "dt_max": 1e-3,
                "snapshot_every": 20, "max_steps": 20})
    assert main(["sweep", cfg, "--ks", "1,2"]) == 0
    out = workdir / "ksweep"
    for k in (1, 2):
        run_data = load_run(str(out / f"k_{k:03d}"))
        assert run_data.config.initial["k"] == k
        assert run_data.config.name == f"ksweep_k{k:03d}"
    sweep = json.loads((out / "sweep.json").read_text())
    assert sweep["config_hash"] == config_hash(load_config(cfg))
    assert [r["name"] for r in sweep["runs"]] == ["ksweep_k001",
                                                   "ksweep_k002"]


def test_plot_emits_scripts_not_images(workdir):
    cfg = write_cfg(workdir)
    main(["simulate", cfg])
    assert main(["plot", str(workdir / "clirun")]) == 0
    run_dir = workdir / "clirun"
    assert (run_dir / "plot_series.py").exists()
    assert (run_dir / "plot_profiles.py").exists()
    assert not list(run_dir.glob("*.png"))


class _Axes:
    """Records plotted curves; every other call is accepted and ignored."""

    def __init__(self):
        self.curves = []

    def plot(self, x, y, **kwargs):
        self.curves.append((np.asarray(x), np.asarray(y)))

    def __getattr__(self, name):
        return lambda *args, **kwargs: None


def _stub_pyplot(monkeypatch):
    figures = []

    def subplots(nrows=1, ncols=1, **kwargs):
        axes = [_Axes() for _ in range(nrows * ncols)]
        figures.append(axes)
        return _Axes(), axes if len(axes) > 1 else axes[0]

    plt = types.ModuleType("matplotlib.pyplot")
    plt.subplots = subplots
    mpl = types.ModuleType("matplotlib")
    mpl.pyplot = plt
    monkeypatch.setitem(sys.modules, "matplotlib", mpl)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", plt)
    return figures


def test_plot_scripts_read_stored_run(workdir, monkeypatch, capsys):
    cfg = write_cfg(workdir)
    main(["simulate", cfg])
    run_dir = workdir / "clirun"
    assert main(["plot", str(run_dir)]) == 0
    stored = load_run(str(run_dir))
    figures = _stub_pyplot(monkeypatch)

    runpy.run_path(str(run_dir / "plot_series.py"), run_name="__main__")
    ((f_ax, d_ax, sup_ax),) = figures
    for ax, col in ((f_ax, "F"), (d_ax, "D"), (sup_ax, "sup_u")):
        (t, y), = ax.curves
        assert np.array_equal(t, stored.series["t"])
        assert np.array_equal(y, stored.series[col])

    runpy.run_path(str(run_dir / "plot_profiles.py"), run_name="__main__")
    (ax,) = figures[1]
    profiles = ax.curves
    assert len(profiles) == len(stored.snapshots)
    for (r, y), snap in zip(profiles, stored.snapshots):
        assert np.array_equal(r, snap.grid.centers)
        assert np.array_equal(y, snap.v.values * snap.grid.centers ** 2.0)
    assert not list(run_dir.glob("*.png"))


def test_plot_scripts_refuse_an_altered_store(workdir, monkeypatch):
    # the scripts read the run through kslab.io, which checks each file's
    # sha256 against the manifest
    cfg = write_cfg(workdir)
    main(["simulate", cfg])
    run_dir = workdir / "clirun"
    assert main(["plot", str(run_dir)]) == 0
    rows = run_dir / "snapshots.f64"
    data = bytearray(rows.read_bytes())
    data[-1] ^= 0x01
    rows.write_bytes(bytes(data))
    _stub_pyplot(monkeypatch)
    with pytest.raises(ValueError, match="snapshots.f64 sha256"):
        runpy.run_path(str(run_dir / "plot_profiles.py"), run_name="__main__")
    assert not list(run_dir.glob("*.png"))


def test_sweep_over_resolutions(workdir, capsys):
    cfg = write_cfg(workdir, name="sw")
    rc = main(["sweep", cfg, "--resolutions", "32,48"])
    assert rc == 0
    sweep = json.loads((workdir / "sw" / "sweep.json").read_text())
    assert [r["name"] for r in sweep["runs"]] == ["sw_N32", "sw_N48"]
    assert (workdir / "sw" / "N_32" / "manifest.json").exists()


@pytest.mark.parametrize("kind, axes", [
    ("constant", []),
    # k reaches only lemma14 data: constant runs labelled by k are identical
    ("constant", ["--ks", "1,2"]),
    ("lemma14", ["--ks", "1,2", "--resolutions", "32,48"]),
    # every job's config is built before the first run: a bad value later
    # in the list, or a repeated one, writes nothing
    ("constant", ["--resolutions", "64,8"]),
    ("lemma14", ["--ks", "1,0"]),
    ("lemma14", ["--ks", "1,1"]),
    ("constant", ["--resolutions", "32,48,32"]),
    # each job's member is built with its config: one the grid cannot
    # resolve stops the sweep before its first run
    ("lemma14", ["--ks", "1,2,40"]),
], ids=["no_axis", "ks_without_lemma14", "ks_and_resolutions",
        "resolution_below_16", "k_0", "k_repeated", "resolution_repeated",
        "k_unresolved"])
def test_sweep_requires_axis(workdir, capsys, kind, axes):
    initial = {"kind": kind, "c": 1.0, "k": 1, "p": 1.1}
    cfg = write_cfg(workdir, name="sw2", initial=initial)
    rc = main(["sweep", cfg, *axes])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (workdir / "sw2").exists()
