"""Empirical constants for the functional inequalities.

Builds a corpus of admissible states (constants, trajectory snapshots,
constructed spikes), evaluates each inequality as a worst-case ratio over
the corpus, and writes the resulting constants to JSON.  Finite ratios
are the whole claim: the inequalities hold on everything the lab
produces, with these observed constants.
"""
import json
import math
import os
import pathlib

from kslab.functionals import StatePair, theta_exponent
from kslab.grid import build_grid
from kslab.initial_data import baseline_profiles, constant_recipe, lemma14_pair
from kslab.solver import SolverConfig, run
from kslab.verifier import StateCorpus, inequality_suite

out_root = pathlib.Path(os.environ.get("KSLAB_OUT", "demo_out"))
g = build_grid(3, 1.0, 96)

members = [(f"const_{c:g}", baseline_profiles("constant", g, c=c))
           for c in (0.25, 1.0, math.e, 10.0)]

traj = run(baseline_profiles("constant", g, c=1.0, amplitude=0.3, mode=2),
           SolverConfig(t_end=0.5, dt_init=1e-5, dt_min=1e-8, dt_max=5e-3,
                        snapshot_every=4))
members += [(f"relax_{i}", s) for i, s in enumerate(traj.snapshots)]

spike_grid = build_grid(3, 1.0, 512, grading=1.05)
recipe = constant_recipe(spike_grid, c=1.0, p=1.1)
members += [(f"spike_{k}", (lambda d: StatePair(d.u0, d.v0))(lemma14_pair(recipe, k)))
            for k in range(1, 16)]

corpus = StateCorpus.from_states(members, kappa=2.0)
print(f"corpus: {corpus.size} states, n={corpus.n}, kappa={corpus.kappa:g}, "
      f"theta={theta_exponent(corpus.n, corpus.kappa):.6f}")
print()
reports = inequality_suite(corpus)
width = max(len(r.name) for r in reports)
for rep in reports:
    mark = "ok " if rep.passed else "BAD"
    print(f"  {mark} {rep.name:<{width}}  worst ratio {rep.worst_ratio:12.6g}"
          f"  at {rep.location}")

out_root.mkdir(parents=True, exist_ok=True)
path = out_root / "empirical_constants.json"
path.write_text(json.dumps(
    {r.name: r.worst_ratio for r in reports}, indent=1))
print()
print(f"constants written to {path}")
