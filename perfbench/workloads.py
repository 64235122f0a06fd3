"""The benchmark's workloads and the correctness gate applied to each op.

An op is one pass of a workload: the solver runs it makes, plus the
persistence and checks that follow them.  Op code reaches every layer
through a module attribute (`solver.run`, `kio.persist_run`, ...) or
through `kslab.cli.main`, so that `spans.Recorder.hooks` can put a span
around each call without touching the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import os
import shutil
from collections import Counter

import numpy as np

from kslab import cli, config, solver, verifier
from kslab import io as kio
from kslab.functionals import StatePair
from kslab.grid import RadialField, build_grid
from kslab.initial_data import baseline_profiles, constant_recipe

import inputs

# Every public call a workload makes, by the attribute its caller looks up.
TRACED = (
    (solver, "run", "solver.run"),
    (cli, "run_solver", "solver.run"),
    (config, "lemma14_pair", "initial_data.lemma14_pair"),
    (cli, "lemma14_pair", "initial_data.lemma14_pair"),
    (kio, "persist_run", "io.persist_run"),
    (cli, "persist_run", "io.persist_run"),
    (kio, "load_run", "io.load_run"),
    (cli, "load_run", "io.load_run"),
    (kio, "write_checks", "io.write_checks"),
    (cli, "write_checks", "io.write_checks"),
    (cli, "write_snapshot", "io.write_snapshot"),
    (verifier, "trajectory_battery", "verifier.trajectory_battery"),
    (cli, "trajectory_battery", "verifier.trajectory_battery"),
    (verifier.StateCorpus, "from_states", "verifier.corpus"),
    (verifier, "inequality_suite", "verifier.inequality_suite"),
    (verifier, "check_conservation", "verifier.checks"),
    (verifier, "check_energy_inequality", "verifier.checks"),
    (cli, "check_lemma14_sequence", "verifier.checks"),
)
# With tracing off only the solver is hooked: its results feed the gate and
# its return time is the verdict time.
UNTRACED = tuple(t for t in TRACED if t[2] == "solver.run")

# every span name below the op; a layer's `<name>_s` metric is its self time
LAYER_SPANS = sorted({t[2] for t in TRACED}
                     | {"cli.construct", "cli.simulate", "cli.verify"})
CHECK_LAYERS = ("verifier.trajectory_battery", "verifier.inequality_suite",
                "verifier.checks")


def collapse_state(cfg: dict, grid) -> StatePair:
    init = cfg["initial"]
    u = baseline_profiles("bump", grid, m=init["m"], width=init["width"],
                          floor=init["floor"]).u
    vb = init["v"]
    wide = baseline_profiles("bump", grid, m=vb["m"], width=vb["width"],
                             floor=vb["floor"]).v
    return StatePair(u, RadialField(grid, vb["scale"] * wide.values))


def setup_datum(workload: str, data: dict, grid):
    """The initial data (or construction recipe) a fresh process builds."""
    if workload == "spike_family":
        init = data["simulate"][0]["initial"]
        return constant_recipe(grid, c=init["baseline"]["c"], p=init["p"])
    return collapse_state(data["run"], grid)


def _grid_of(cfg: dict):
    g = cfg["grid"]
    return build_grid(g["n"], g["R"], g["N"], g["grading"])


class Workload:
    """One workload's prepared inputs and its op.

    `op(rec, out_dir)` returns the run directory of each solver run in call
    order and the `RunData` the op itself loaded, keyed by directory.
    """

    def __init__(self, name: str, seed: int, work_dir: str):
        self.name = name
        self.inputs = inputs.generate(name, seed)
        if name == "collapse_store":
            d = self.inputs["run"]
            self.cfg = config.ExperimentConfig.from_dict(d)
            self.s0 = collapse_state(d, _grid_of(d))
        else:
            # the CLI receives its inputs as config files
            self.config_paths = {}
            for cfg in [self.inputs["construct"], *self.inputs["simulate"]]:
                path = os.path.join(work_dir, cfg["name"] + ".json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(cfg, fh, indent=2, sort_keys=True)
                self.config_paths[cfg["name"]] = path

    def op(self, rec, out_dir: str):
        return getattr(self, "_op_" + self.name)(rec, out_dir)

    def _op_collapse_store(self, rec, out_dir):
        d = os.path.join(out_dir, "collapse")
        kappa = float(self.cfg.checks["kappa"])
        traj = solver.run(self.s0, self.cfg.solver)
        kio.persist_run(traj, self.cfg, d)
        run_data = kio.load_run(d)
        loaded = run_data.as_trajectory()
        kio.write_checks(verifier.trajectory_battery(loaded, kappa=kappa),
                         d, "trajectory")
        labeled = [(f"snap_t={s.t:.6g}", s) for s in loaded.snapshots]
        corpus = verifier.StateCorpus.from_states(labeled, kappa=kappa)
        kio.write_checks(verifier.inequality_suite(corpus), d, "suite")
        return [d], {d: run_data}

    def _op_spike_family(self, rec, out_dir):
        paths = self.config_paths
        self._cli(rec, "construct", paths["construct"],
                  "--out", os.path.join(out_dir, "construct"))
        dirs = []
        for cfg in self.inputs["simulate"]:
            dirs.append(os.path.join(out_dir, cfg["name"]))
            self._cli(rec, "simulate", paths[cfg["name"]], "--out", dirs[-1])
        for d in dirs:
            # exit code 1 means a check failed: a finding, counted later
            self._cli(rec, "verify", d, "--battery", "trajectory")
        return dirs, {}

    @staticmethod
    def _cli(rec, *argv) -> None:
        sink = _stdio.StringIO()
        with rec.span("cli." + argv[0]), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            rc = cli.main(list(argv))
        if rc not in (0, 1):
            raise RuntimeError(f"kslab {' '.join(argv)} exited {rc}: "
                               f"{sink.getvalue().strip()}")


def _bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def _sha256(path: str) -> str:
    # computed here, not with kslab.io's helper, so the check is independent
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def gate(trajs: list, run_dirs: list, loaded: dict) -> list[str]:
    """Why an op failed; empty when it passed.

    An op fails when a run breaks conservation, when a persisted run does
    not load back bit-identical to the in-memory trajectory, or when a
    manifest hash does not match its file.  Failing verifier checks are
    findings, counted elsewhere, not op failures.
    """
    problems = []
    if len(trajs) != len(run_dirs):
        return [f"{len(trajs)} solver runs for {len(run_dirs)} run slots"]
    for traj, d in zip(trajs, run_dirs):
        rep = verifier.check_conservation(traj)
        if not rep.passed:
            problems.append(f"conservation failed: {rep}")
        rd = loaded.get(d) or kio.load_run(d)
        for col in solver.SERIES_COLUMNS:
            if not _bitwise_equal(traj.series[col], rd.series[col]):
                problems.append(f"{d}: series column {col} differs")
        if len(traj.snapshots) != len(rd.snapshots):
            problems.append(f"{d}: {len(rd.snapshots)} snapshots loaded, "
                            f"{len(traj.snapshots)} in memory")
        for i, (a, b) in enumerate(zip(traj.snapshots, rd.snapshots)):
            if not (_bitwise_equal(a.t, b.t)
                    and _bitwise_equal(a.u.values, b.u.values)
                    and _bitwise_equal(a.v.values, b.v.values)
                    and _bitwise_equal(a.grid.edges, b.grid.edges)
                    and _bitwise_equal(a.grid.weights, b.grid.weights)):
                problems.append(f"{d}: snapshot {i} differs")
        with open(os.path.join(d, "manifest.json"), encoding="utf-8") as fh:
            files = json.load(fh)["files"]
        for fname, entry in files.items():
            if _sha256(os.path.join(d, fname)) != entry["sha256"]:
                problems.append(f"{d}: sha256 mismatch for {fname}")
    return problems


def _file_bytes(directory: str, names) -> int:
    return sum(os.path.getsize(os.path.join(directory, n)) for n in names)


def counts(calls: list, out_dir: str) -> dict:
    """Exact per-op counts from captured results and the files written."""
    trajs = [c.result for c in calls if c.name == "solver.run"]
    outcomes = Counter(t.verdict.outcome for t in trajs)
    reports = []
    for c in calls:
        if c.name in CHECK_LAYERS and not c.nested:
            reports += c.result if isinstance(c.result, list) else [c.result]
    files = [os.path.join(r, f) for r, _, fs in os.walk(out_dir) for f in fs]
    persisted = sum(
        _file_bytes(c.args[2], [*c.result["files"], "manifest.json"])
        for c in calls if c.name == "io.persist_run")
    loaded = sum(
        _file_bytes(c.args[0], ["manifest.json", *(
            n for n in c.result.manifest["files"]
            if not n.startswith("checks_"))])
        for c in calls if c.name == "io.load_run")
    return {
        "steps": sum(len(t.series["t"]) - 1 for t in trajs),
        "cell_steps": sum(t.grid.ncells * (len(t.series["t"]) - 1)
                          for t in trajs),
        "rejected_steps": sum(t.rejected_steps for t in trajs),
        "snapshots": sum(len(t.snapshots) for t in trajs),
        # computed, not measured: retained snapshot state plus series rows
        "retained_bytes": sum(
            8 * (2 * t.grid.ncells * len(t.snapshots)
                 + len(solver.SERIES_COLUMNS) * len(t.series["t"]))
            for t in trajs),
        "outcomes": dict(outcomes),
        "lemma14_pair_calls": sum(c.name == "initial_data.lemma14_pair"
                                  for c in calls),
        "corpus_states": sum(c.result.size for c in calls
                             if c.name == "verifier.corpus"),
        "checks_run": len(reports),
        "checks_failed": sum(not r.passed for r in reports),
        "bytes_written": sum(os.path.getsize(f) for f in files),
        "files_written": len(files),
        "persisted_bytes": persisted,
        "loaded_bytes": loaded,
    }


def reset_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
