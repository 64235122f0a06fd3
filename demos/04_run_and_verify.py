"""End-to-end: configured run, persisted artifacts, verification battery,
then a finite-time collapse with the blow-up detector's outcome and onset.

Outputs land under ./demo_out (or $KSLAB_OUT if set).
"""
import os
import pathlib

from kslab.config import build_initial_state, load_config
from kslab.functionals import StatePair
from kslab.grid import RadialField, build_grid
from kslab.initial_data import baseline_profiles
from kslab.io import load_run, persist_run, write_checks
from kslab.solver import SolverConfig, run
from kslab.verifier import trajectory_battery

here = pathlib.Path(__file__).parent
out_root = pathlib.Path(os.environ.get("KSLAB_OUT", "demo_out"))

# 1. the configured relaxation run
cfg = load_config(str(here / "configs" / "relaxation.json"))
traj = run(build_initial_state(cfg), cfg.solver)
run_dir = out_root / cfg.name
persist_run(traj, cfg, str(run_dir))
print(f"ran {cfg.name!r}: outcome {traj.verdict.outcome}, "
      f"{len(traj.series['t']) - 1} steps, persisted to {run_dir}")

reports = trajectory_battery(traj, kappa=cfg.kappa)
write_checks(reports, str(run_dir), "trajectory")
for rep in reports:
    print("  ", rep)

# round trip: the stored series is the run, bit for bit
stored = load_run(str(run_dir))
same = all(
    (stored.series[k] == traj.series[k]).all() for k in traj.series)
print(f"stored series identical: {same}")
print()

# 2. aggregation-driven collapse: a mass-50 bump chasing a weaker, wider
# signal.  No config for this one; the initial pair is built by hand.
grid = build_grid(3, 1.0, 512)
u = baseline_profiles("bump", grid, m=50.0, width=0.15, floor=1e-2).u
wide = baseline_profiles("bump", grid, m=25.0, width=0.3, floor=1e-2).v
s0 = StatePair(u, RadialField(grid, 0.5 * wide.values))
cfg2 = SolverConfig(t_end=0.02, dt_init=1e-6, dt_min=2e-8, dt_max=1e-4,
                    snapshot_every=8)
traj2 = run(s0, cfg2)
v = traj2.verdict
S = traj2.series
print(f"collapse run: outcome {v.outcome} (trigger: {v.trigger})")
print(f"  sup u: {S['sup_u'][0]:.4g} -> {S['sup_u'].max():.4g}")
print(f"  F:     {S['F'][0]:.4g} -> {S['F'][-1]:.4g}")
print(f"  detected at t = {v.t_detect:.6g}")
