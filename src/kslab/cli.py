"""Command line entry points.

Subcommands:

    simulate <config.json>            run and persist a trajectory
    construct <config.json>           tabulate and store a constructed sequence
    verify <run_dir> [--battery B]    run checks against a stored run: B is
                                      trajectory (the default) or suite
    sweep <config.json> --ks ...      one run per k or N, in turn
    constants <n> <kappa> <p>         print the derived exponents/windows
    plot <run_dir>                    emit plot scripts (no rendering)

Errors exit nonzero with a single `error: ...` line on stderr.  Output
directories resolve against KSLAB_OUT when set.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .config import (
    ExperimentConfig,
    _json,
    build_initial_state,
    config_hash,
    lemma14_recipe_from,
    load_config,
    member_ks,
)
from .functionals import (StatePair, energy_report, exponent_window,
                          theta_exponent)
from .grid import ball_surface_coefficient
from .initial_data import lemma14_pair
from .io import load_run, persist_run, write_checks, write_snapshot
from .solver import run as run_solver
from .verifier import (
    StateCorpus,
    check_lemma14_sequence,
    inequality_suite,
    trajectory_battery,
)

__all__ = ["main"]


def _resolve_out(cfg: ExperimentConfig, override: str | None) -> str:
    """--out, else output.directory, else the config's name, under
    KSLAB_OUT (else the working directory); an absolute path is kept."""
    root = os.environ.get("KSLAB_OUT", os.getcwd())
    return os.path.join(root, override or cfg.output.get("directory")
                        or cfg.name)


def _simulate(cfg: ExperimentConfig, directory: str):
    """Run cfg from its initial state, persist it and return the verdict.
    run_solver and persist_run resolve on this module at call time."""
    traj = run_solver(build_initial_state(cfg), cfg.solver)
    persist_run(traj, cfg, directory)
    return traj.verdict


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    out = _resolve_out(cfg, args.out)
    v = _simulate(cfg, out)
    print(f"{cfg.name}: {v.outcome} t_detect={v.t_detect} "
          f"trigger={v.trigger!r} dir={out}")
    return 0


def _cmd_construct(args) -> int:
    cfg = load_config(args.config)
    grid = cfg.build_grid()
    init = cfg.initial
    if init.get("kind") != "lemma14":
        raise ValueError("construct needs initial.kind = lemma14")
    recipe = lemma14_recipe_from(init, grid)
    data = [lemma14_pair(recipe, k) for k in member_ks(init)]
    out = _resolve_out(cfg, args.out)
    h = config_hash(cfg)
    # row i of the snapshot store is the member on row i of the table
    states = [StatePair(d.u0, d.v0) for d in data]
    write_snapshot(states, out, h)
    cols = ("r_k", "log_eta", "margin", "a", "b", "scale", "mass",
            "F0", "uv_over_k", "du_lp", "dv_w12")
    with open(os.path.join(out, "sequence.csv"), "w", encoding="utf-8") as fh:
        fh.write(f"# config_hash={h}\n")
        # F_grid and core_cells say what the grid sees of each member: its
        # sampled energy and the cell centers inside the core sqrt(eta_k)
        fh.write(",".join(("k", *cols, "F_grid", "core_cells")) + "\n")
        for d, s in zip(data, states):
            core = np.count_nonzero(grid.centers < math.exp(0.5 * d.log_eta))
            fh.write(",".join((
                "%d" % d.k, *("%.17g" % getattr(d, c) for c in cols),
                "%.17g" % energy_report(s).F, "%d" % core)) + "\n")
    if len(data) >= 3:
        try:
            print(check_lemma14_sequence(data))
        except ValueError as exc:
            print(f"sequence check skipped: {exc}")
    print(f"{cfg.name}: wrote {len(data)} data to {out}")
    return 0


def _cmd_verify(args) -> int:
    run_data = load_run(args.run_dir)
    traj = run_data.as_trajectory()
    kappa = run_data.config.kappa
    if args.battery == "trajectory":
        reports = trajectory_battery(traj, kappa=kappa)
    else:
        labeled = [(f"snap_t={s.t:.6g}", s) for s in traj.snapshots]
        corpus = StateCorpus.from_states(labeled, kappa=kappa)
        reports = inequality_suite(corpus)
    write_checks(reports, args.run_dir, args.battery)
    for rep in reports:
        print(rep)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_sweep(args) -> int:
    """One run per k or N; every job's config is built, and so checked,
    before the first run, so a bad or repeated value writes nothing."""
    cfg = load_config(args.config)
    out = _resolve_out(cfg, args.out)
    if args.ks and args.resolutions:
        raise ValueError("sweep takes --ks or --resolutions, not both")
    if args.ks:
        if cfg.initial.get("kind") != "lemma14":
            raise ValueError("sweep --ks needs initial.kind = lemma14")
        block, key, spec = "initial", "k", "03d"
    elif args.resolutions:
        block, key, spec = "grid", "N", ""
    else:
        raise ValueError("sweep needs --ks or --resolutions")
    values = [int(x) for x in (args.ks or args.resolutions).split(",")]
    if len(set(values)) < len(values):
        raise ValueError(f"sweep lists a {key} more than once: {values}")
    jobs = []
    for x in values:
        d = cfg.to_dict()
        d["name"] = f"{cfg.name}_{key}{x:{spec}}"
        d[block][key] = x
        jobs.append((ExperimentConfig.from_dict(d),
                     os.path.join(out, f"{key}_{x:{spec}}")))
    os.makedirs(out, exist_ok=True)
    results = []
    for job, directory in jobs:
        v = _simulate(job, directory)
        results.append({"name": job.name, "outcome": v.outcome,
                        "t_detect": v.t_detect})
        print(f"{job.name}: {v.outcome} t_detect={v.t_detect}")
    with open(os.path.join(out, "sweep.json"), "wb") as fh:
        fh.write(_json({"config_hash": config_hash(cfg), "runs": results}))
    return 0


def _cmd_constants(args) -> int:
    n, kappa, p, R = args.n, args.kappa, args.p, args.R
    if not 0.0 < R < math.inf:
        raise ValueError(f"R must be positive and finite, got {R}")
    theta = theta_exponent(n, kappa)
    alpha, (lo, hi) = exponent_window(n, p)
    omega = ball_surface_coefficient(n)
    print(f"n = {n}, kappa = {kappa}, p = {p}, R = {R}")
    print(f"theta = {theta!r} (= {theta:.6f})")
    print(f"alpha window = ({lo:.6f}, {hi:.6f}), midpoint = {alpha:.6f}")
    print(f"p window = (1, {2.0 * n / (n + 2.0):.6f})")
    print(f"omega_n = {omega!r} (= {omega:.6f})")
    print(f"|B_R| = {omega * R ** n / n!r}")
    return 0


_PLOT_SERIES = """\
# Plot F(t), D(t), sup_u(t) of the run stored in this directory.
import os
import matplotlib.pyplot as plt
from kslab.io import load_run

here = os.path.dirname(os.path.abspath(__file__))
series = load_run(here).series

fig, axes = plt.subplots(3, 1, sharex=True, figsize=(7, 9))
for ax, col, label in zip(
    axes, ("F", "D", "sup_u"), ("F(t)", "D(t)", "sup u(t)")
):
    ax.plot(series["t"], series[col])
    ax.set_ylabel(label)
    if col != "F":
        ax.set_yscale("log")
axes[-1].set_xlabel("t")
fig.tight_layout()
out = os.path.join(here, "series.png")
fig.savefig(out, dpi=150)
print(f"wrote {out}")
"""

_PLOT_PROFILES = """\
# Plot v(r) r^kappa across the snapshots of the run stored in this directory.
import os
import matplotlib.pyplot as plt
from kslab.io import load_run

here = os.path.dirname(os.path.abspath(__file__))
run = load_run(here)
kappa = run.config.kappa

fig, ax = plt.subplots(figsize=(7, 5))
for s in run.snapshots:
    r = s.grid.centers
    ax.plot(r, s.v.values * r ** kappa, label=f"t={s.t:.4g}")
ax.set_xscale("log")
ax.set_xlabel("r")
ax.set_ylabel(f"v(r) r^{kappa}")
ax.legend(fontsize=7)
fig.tight_layout()
out = os.path.join(here, "profiles.png")
fig.savefig(out, dpi=150)
print(f"wrote {out}")
"""


def _cmd_plot(args) -> int:
    load_run(args.run_dir)      # a directory that does not load gets none
    p1 = os.path.join(args.run_dir, "plot_series.py")
    p2 = os.path.join(args.run_dir, "plot_profiles.py")
    with open(p1, "w", encoding="utf-8") as fh:
        fh.write(_PLOT_SERIES)
    with open(p2, "w", encoding="utf-8") as fh:
        fh.write(_PLOT_PROFILES)
    print(f"wrote {p1} and {p2}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kslab")
    sub = ap.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("simulate", help="run a configured experiment")
    s.add_argument("config")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=_cmd_simulate)

    s = sub.add_parser("construct", help="emit a constructed-data sequence")
    s.add_argument("config")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=_cmd_construct)

    s = sub.add_parser("verify", help="run a check battery on a stored run")
    s.add_argument("run_dir")
    s.add_argument("--battery", default="trajectory",
                   choices=("trajectory", "suite"))
    s.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("sweep", help="one run per k or N, in turn")
    s.add_argument("config")
    s.add_argument("--ks", default=None)
    s.add_argument("--resolutions", default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(fn=_cmd_sweep)

    s = sub.add_parser("constants", help="print derived exponents and windows")
    s.add_argument("n", type=int)
    s.add_argument("kappa", type=float)
    s.add_argument("p", type=float)
    s.add_argument("--R", type=float, default=1.0)
    s.set_defaults(fn=_cmd_constants)

    s = sub.add_parser("plot", help="emit plot scripts for a stored run")
    s.add_argument("run_dir")
    s.set_defaults(fn=_cmd_plot)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
