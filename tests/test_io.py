"""Config hashing and on-disk run artifacts."""

import dataclasses
import hashlib
import json
import os
import shutil

import numpy as np
import pytest

import kslab
from kslab import (
    ExperimentConfig,
    SolverConfig,
    build_initial_state,
    config_hash,
    constant_recipe,
    lemma14_pair,
    load_config,
    run,
    step,
)
from kslab.functionals import StatePair
from kslab.grid import RadialField, build_grid
from kslab.io import (
    SERIES_COLUMNS,
    load_run,
    load_series,
    load_snapshots,
    persist_run,
    write_checks,
    write_series,
    write_snapshot,
)
from kslab.verifier import check_conservation


def small_config(name="t"):
    return ExperimentConfig(
        name=name,
        grid={"n": 3, "R": 1.0, "N": 48, "grading": 1.0},
        initial={"kind": "constant", "c": 1.0, "amplitude": 0.2, "mode": 1},
        solver=SolverConfig(t_end=0.02, dt_init=1e-5, dt_max=1e-3,
                            snapshot_every=20),
        checks={"kappa": 2.0},
        output={},
    )


@pytest.fixture(scope="module")
def small_run():
    cfg = small_config()
    return cfg, run(build_initial_state(cfg), cfg.solver)


# --- hashing ------------------------------------------------------------


def test_hash_stable_under_round_trip():
    cfg = small_config()
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert config_hash(again) == config_hash(cfg)


def test_hash_ignores_key_order():
    cfg = small_config()
    d = cfg.to_dict()
    scrambled = json.loads(json.dumps(d, sort_keys=True))
    scrambled["grid"] = dict(reversed(list(scrambled["grid"].items())))
    assert config_hash(ExperimentConfig.from_dict(scrambled)) == config_hash(cfg)


def test_hash_sensitive_to_values():
    a = small_config()
    b = ExperimentConfig.from_dict(
        {**a.to_dict(), "grid": {"n": 3, "R": 1.0, "N": 64, "grading": 1.0}})
    assert config_hash(a) != config_hash(b)


def test_config_file_round_trip(small_run, tmp_path):
    # the config.json a run directory stores loads back to the same hash
    cfg, traj = small_run
    persist_run(traj, cfg, str(tmp_path / "run"))
    loaded = load_config(str(tmp_path / "run" / "config.json"))
    assert config_hash(loaded) == config_hash(cfg)


def test_config_rejects_unknown_initial_kind():
    with pytest.raises(ValueError):
        ExperimentConfig(
            name="x", grid={"n": 3, "R": 1.0, "N": 8, "grading": 1.0},
            initial={"kind": "vortex"}, solver=SolverConfig(),
            checks={}, output={})


def _lemma14_config(**initial):
    return ExperimentConfig(
        name="x", grid={"n": 3, "R": 1.0, "N": 1024, "grading": 1.013},
        initial={"kind": "lemma14", "p": 1.1,
                 "baseline": {"kind": "constant", "c": 4.0}, **initial},
        solver=SolverConfig(), checks={}, output={})


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_config_r_rule_builds_the_resolved_family(k):
    """initial.r_rule {"r0", "q"} is the rule r_k = r0 q^k of the resolved
    family the acceptance suite evolves, bit for bit."""
    cfg = _lemma14_config(k=k, r_rule={"r0": 0.8, "q": 0.97})
    grid = cfg.build_grid()
    s = build_initial_state(cfg)
    ref = lemma14_pair(constant_recipe(grid, c=4.0, p=1.1,
                                       r_rule=(0.8, 0.97)), k)
    assert s.u.values.tobytes() == ref.u0.values.tobytes()
    assert s.v.values.tobytes() == ref.v0.values.tobytes()


@pytest.mark.parametrize("rule", [
    {"r0": 0.0, "q": 0.97}, {"r0": 1.0, "q": 0.97}, {"r0": -0.5, "q": 0.5},
    {"r0": float("nan"), "q": 0.5}, {"r0": 0.8, "q": 0.0},
    {"r0": 0.8, "q": 1.0}, {"r0": 0.8, "q": 1.5}, {"r0": 0.8}, [0.8, 0.97],
])
def test_config_rejects_bad_r_rule(rule):
    with pytest.raises(ValueError):
        _lemma14_config(k=1, r_rule=rule)


def test_config_without_r_rule_keeps_its_hash():
    """Configs that predate initial.r_rule hash as they did."""
    root = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "configs")
    cfg = load_config(os.path.join(root, "spike_family.json"))
    assert config_hash(cfg) == (
        "c160907cb0b599acc1a33cb7374176f1871d41b20f36afec6c7dd38c6df6bbbf")


# --- series and snapshots -----------------------------------------------


def test_series_round_trip_bitwise(small_run, tmp_path):
    cfg, traj = small_run
    path = tmp_path / "series.npz"
    write_series(traj.series, str(path), config_hash(cfg))
    back, h = load_series(str(path))
    assert h == config_hash(cfg)
    for col in SERIES_COLUMNS:
        assert np.all(back[col] == traj.series[col]), col


def test_series_header_validated(small_run, tmp_path):
    cfg, traj = small_run
    path = tmp_path / "series.npz"
    write_series(traj.series, str(path), config_hash(cfg))
    with np.load(str(path)) as z:
        arrays = {("mass_q" if k == "mass_u" else k): z[k] for k in z.files}
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ValueError):
        load_series(str(path))


def test_snapshot_round_trip_rebuilds_grid(small_run, tmp_path):
    cfg, traj = small_run
    out = tmp_path / "store"
    digests = write_snapshot(traj.snapshots, str(out), config_hash(cfg))
    assert sorted(os.listdir(out)) == ["snapshots.f64", "snapshots.npz"]
    assert digests == {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("snapshots.f64", "snapshots.npz")}
    back = load_snapshots(str(out), config_hash(cfg))
    assert len(back) == len(traj.snapshots)
    for snap, b in zip(traj.snapshots, back):
        assert b.t == snap.t
        assert b.u.values.tobytes() == snap.u.values.tobytes()
        assert b.v.values.tobytes() == snap.v.values.tobytes()
        # grid is rebuilt from stored edges, weights must match bitwise
        assert b.u.grid.weights.tobytes() == snap.u.grid.weights.tobytes()


@pytest.mark.parametrize("damage", ["pickled", "truncated"])
def test_snapshot_refuses_damaged_file(small_run, tmp_path, damage):
    cfg, traj = small_run
    out = tmp_path / "store"
    write_snapshot(traj.snapshots, str(out), config_hash(cfg))
    if damage == "pickled":
        index = out / "snapshots.npz"
        with np.load(str(index)) as z:
            arrays = {k: z[k] for k in z.files}
        arrays["t"] = np.array(list(arrays["t"]), dtype=object)
        with open(index, "wb") as fh:
            np.savez(fh, **arrays)   # object arrays are stored pickled
    else:
        rows = out / "snapshots.f64"
        rows.write_bytes(rows.read_bytes()[:-100])
    with pytest.raises(ValueError):
        load_snapshots(str(out), config_hash(cfg))


@pytest.mark.parametrize("change, says", [
    (lambda a: {"t": np.array([], dtype=np.float64)}, "lists no state"),
    (lambda a: {"n": np.int64(2)}, "dimension n must be >= 3"),
    (lambda a: {"n": np.int64(1)}, "dimension n must be >= 3"),
    (lambda a: {"R": np.float64(0.0)}, "ball radius R must be positive"),
    (lambda a: {"R": np.float64(-1.0)}, "ball radius R must be positive"),
    (lambda a: {"edges": 0.5 * a["edges"]}, "last face"),
    (lambda a: {"R": 2.0 * a["R"]}, "last face"),
    (lambda a: {"edges": np.array([], dtype=np.float64)},
     r"faces must be a 1-D array .* got shape \(0,\)"),
    (lambda a: {"edges": np.stack((a["edges"], a["edges"]))},
     r"faces must be a 1-D array .* got shape \(2, "),
], ids=["no_state", "n2", "n1", "R0", "R_negative", "edges_halved",
        "R_doubled", "edges_empty", "edges_2d"])
def test_snapshot_refuses_an_index_of_no_state_or_an_invalid_grid(
        small_run, tmp_path, change, says):
    # write_snapshot refuses to store no state, and build_grid refuses
    # these grids; the loader refuses an index that holds them
    cfg, traj = small_run
    out = tmp_path / "store"
    write_snapshot(traj.snapshots, str(out), config_hash(cfg))
    index = out / "snapshots.npz"
    with np.load(str(index)) as z:
        arrays = {k: z[k] for k in z.files}
    arrays.update(change(arrays))
    with open(index, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ValueError, match=says):
        load_snapshots(str(out), config_hash(cfg))


def test_snapshot_refuses_retired_construct_layout(small_run, tmp_path):
    # a construct directory of the one-archive-per-member layout
    cfg, traj = small_run
    (tmp_path / "sequence.csv").write_text("k\n1\n")
    s, g = traj.snapshots[0], traj.grid
    np.savez(tmp_path / "datum_k001.npz", n=g.n, R=g.R, t=s.t, edges=g.edges,
             r=g.centers, u=s.u.values, v=s.v.values,
             config_hash=np.array(config_hash(cfg)))
    with pytest.raises(ValueError, match="retired datum_kNNN.npz layout") \
            as err:
        load_snapshots(str(tmp_path), config_hash(cfg))
    assert "\n" not in str(err.value)


def test_snapshot_restart_one_step(small_run, tmp_path):
    cfg, traj = small_run
    snap = traj.snapshots[0]
    out = tmp_path / "restart"
    write_snapshot([snap], str(out), config_hash(cfg))
    (back,) = load_snapshots(str(out), config_hash(cfg))
    a = step(snap, 1e-4)
    b = step(back, 1e-4)
    assert b.t == a.t
    assert b.u.values.tobytes() == a.u.values.tobytes()
    assert b.v.values.tobytes() == a.v.values.tobytes()


# --- run directories ----------------------------------------------------


def test_persist_and_load_run(small_run, tmp_path):
    cfg, traj = small_run
    out = tmp_path / "run"
    persist_run(traj, cfg, str(out))
    man = json.loads((out / "manifest.json").read_text())
    assert man["config_hash"] == config_hash(cfg)
    assert man["status"] == "complete"
    listed = set(man["files"])
    assert {"config.json", "series.npz", "snapshots.npz",
            "snapshots.f64"} <= listed
    # the verdict lives in the manifest only
    assert "verdict.json" not in listed
    assert man["verdict"]["outcome"] == traj.verdict.outcome
    assert not any(name.startswith("snap_") for name in listed)
    on_disk = {p for p in os.listdir(out) if p != "manifest.json"}
    assert listed == on_disk

    back = load_run(str(out))
    assert back.verdict.outcome == traj.verdict.outcome
    for col in SERIES_COLUMNS:
        assert np.all(back.series[col] == traj.series[col])
    assert len(back.snapshots) == len(traj.snapshots)
    for a, b in zip(traj.snapshots, back.snapshots):
        assert b.t == a.t
        assert np.all(b.u.values == a.u.values)
        assert np.all(b.v.values == a.v.values)
    # one grid per loaded run, shared by every snapshot
    assert all(s.grid is back.snapshots[0].grid for s in back.snapshots)
    assert np.all(back.snapshots[0].grid.weights == traj.grid.weights)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_project_version_is_package_version(small_run, tmp_path):
    # pyproject.toml takes its version from kslab.__version__, which every
    # manifest records as artifact_version
    from setuptools.config.pyprojecttoml import read_configuration
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    meta = read_configuration(os.path.join(root, "pyproject.toml"),
                              expand=True)
    assert meta["project"]["version"] == kslab.__version__
    cfg, traj = small_run
    man = persist_run(traj, cfg, str(tmp_path / "run"))
    assert man["artifact_version"] == kslab.__version__


def test_rejected_steps_round_trip(small_run, tmp_path):
    cfg, traj = small_run
    out = tmp_path / "run"
    persist_run(dataclasses.replace(traj, rejected_steps=7), cfg, str(out))
    verdict = json.loads((out / "manifest.json").read_text())["verdict"]
    assert verdict["rejected_steps"] == 7
    assert load_run(str(out)).as_trajectory().rejected_steps == 7


def test_load_run_rejects_snapshot_from_another_run(small_run, tmp_path):
    cfg, traj = small_run
    mine, other = tmp_path / "mine", tmp_path / "other"
    persist_run(traj, cfg, str(mine))
    persist_run(traj, small_config("other"), str(other))
    shutil.copyfile(other / "snapshots.npz", mine / "snapshots.npz")
    with pytest.raises(ValueError, match="snapshots.npz config hash"):
        load_run(str(mine))


def test_load_run_rejects_snapshot_overwritten_within_run(small_run, tmp_path):
    # row 1 overwritten with row 2: a well-formed row file of the right
    # length, and only the manifest sha256 tells the two snapshots apart
    cfg, traj = small_run
    out = tmp_path / "run"
    persist_run(traj, cfg, str(out))
    rows = out / "snapshots.f64"
    size = 2 * traj.grid.ncells * 8
    data = bytearray(rows.read_bytes())
    data[size:2 * size] = data[2 * size:3 * size]
    rows.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="snapshots.f64 sha256"):
        load_run(str(out))


@pytest.mark.parametrize("change", ["cut", "appended"])
def test_load_run_refuses_row_file_of_wrong_length(small_run, tmp_path,
                                                   change):
    cfg, traj = small_run
    out = tmp_path / "run"
    persist_run(traj, cfg, str(out))
    rows = out / "snapshots.f64"
    data = rows.read_bytes()
    rows.write_bytes(data[:-8] if change == "cut" else data + bytes(8))
    with pytest.raises(ValueError, match="snapshots.f64 holds"):
        load_run(str(out))


def test_snapshot_row_file_format(small_run, tmp_path):
    cfg, traj = small_run
    out = tmp_path / "run"
    persist_run(traj, cfg, str(out))
    N, S = traj.grid.ncells, len(traj.snapshots)
    raw = (out / "snapshots.f64").read_bytes()
    assert len(raw) == S * 2 * N * 8
    rows = np.frombuffer(raw, dtype="<f8").reshape(S, 2, N)
    with np.load(str(out / "snapshots.npz"), allow_pickle=False) as z:
        index = {k: z[k] for k in z.files}
    assert set(index) == {"n", "R", "edges", "t", "config_hash"}
    assert np.array_equal(index["edges"].view(np.uint64),
                          traj.grid.edges.view(np.uint64))
    for (u, v), t, snap in zip(rows, index["t"], traj.snapshots):
        assert np.array_equal(u.view(np.uint64),
                              snap.u.values.view(np.uint64))
        assert np.array_equal(v.view(np.uint64),
                              snap.v.values.view(np.uint64))
        assert t == snap.t


def test_run_files_hashed_as_written(small_run, tmp_path, monkeypatch):
    # persist_run and write_checks hash the bytes they write: the only file
    # either opens for reading is the manifest that write_checks updates
    opened = []
    real = open

    def spy(file, mode="r", *args, **kwargs):
        opened.append((os.path.basename(str(file)), mode))
        return real(file, mode, *args, **kwargs)

    cfg, traj = small_run
    out = tmp_path / "run"
    reports = [check_conservation(traj)]
    monkeypatch.setattr("builtins.open", spy)
    persist_run(traj, cfg, str(out))
    write_checks(reports, str(out), "trajectory")
    monkeypatch.undo()
    reads = [(name, mode) for name, mode in opened
             if "r" in mode or "+" in mode]
    assert reads == [("manifest.json", "r")]
    assert {name for name, _ in opened} >= {
        "config.json", "series.npz", "snapshots.npz", "snapshots.f64",
        "checks_trajectory.json"}
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert set(files) == set(os.listdir(out)) - {"manifest.json"}
    for name, entry in files.items():
        assert entry["sha256"] == hashlib.sha256(
            (out / name).read_bytes()).hexdigest(), name
    load_run(str(out))


def test_persist_run_refuses_snapshot_on_another_grid(small_run, tmp_path):
    cfg, traj = small_run
    fine = build_grid(3, 1.0, 64)
    stray = StatePair(RadialField(fine, np.ones(64)),
                      RadialField(fine, np.ones(64)), traj.snapshots[1].t)
    mixed = dataclasses.replace(
        traj, snapshots=[traj.snapshots[0], stray, *traj.snapshots[2:]])
    with pytest.raises(ValueError, match="snapshot 1 is not on"):
        persist_run(mixed, cfg, str(tmp_path / "run"))
    assert not (tmp_path / "run").exists()


def test_grid_equality_is_n_R_and_bitwise_faces(tmp_path):
    """Two grids built alike are equal though distinct objects; a graded
    grid is not.  StatePair and write_snapshot compare grids this way."""
    a, b = build_grid(3, 1.0, 32), build_grid(3, 1.0, 32)
    graded = build_grid(3, 1.0, 32, grading=1.05)
    assert a is not b and a == b and not a != b
    assert a != graded and a != build_grid(4, 1.0, 32)
    ones = np.ones(32)
    s = StatePair(RadialField(a, ones), RadialField(b, ones))
    assert s.grid is a
    with pytest.raises(ValueError, match="same grid"):
        StatePair(RadialField(a, ones), RadialField(graded, ones))
    mixed = [s, StatePair(RadialField(graded, ones), RadialField(graded, ones))]
    with pytest.raises(ValueError,
                       match="^snapshot 1 is not on the grid of snapshot 0$"):
        write_snapshot(mixed, str(tmp_path / "store"), "h")
    assert not (tmp_path / "store").exists()
    write_snapshot(mixed[:1], str(tmp_path / "store"), "h")
    assert load_snapshots(str(tmp_path / "store"), "h")[0].grid == b


def test_load_run_rejects_config_edited_after_persist(small_run, tmp_path):
    cfg, traj = small_run
    out = tmp_path / "run"
    persist_run(traj, cfg, str(out))
    edited = json.loads((out / "config.json").read_text())
    edited["checks"]["kappa"] = 3.0
    (out / "config.json").write_text(json.dumps(edited))
    with pytest.raises(ValueError, match="config.json hash"):
        load_run(str(out))


def test_loaded_run_feeds_checks(small_run, tmp_path):
    cfg, traj = small_run
    out = tmp_path / "run"
    persist_run(traj, cfg, str(out))
    again = load_run(str(out)).as_trajectory()
    assert check_conservation(again).passed


def test_write_checks_recommits_manifest(small_run, tmp_path):
    cfg, traj = small_run
    out = tmp_path / "run"
    persist_run(traj, cfg, str(out))
    reports = [check_conservation(load_run(str(out)).as_trajectory())]
    write_checks(reports, str(out), "conservation")
    man = json.loads((out / "manifest.json").read_text())
    assert "checks_conservation.json" in man["files"]
    payload = json.loads((out / "checks_conservation.json").read_text())
    assert payload["all_passed"] is True
    assert payload["reports"][0]["name"] == "conservation"


def test_load_run_requires_manifest(tmp_path):
    with pytest.raises((FileNotFoundError, OSError)):
        load_run(str(tmp_path / "missing"))
