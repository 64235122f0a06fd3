"""Seeded workload inputs for the kslab benchmark.

Standard library only: the set-up probe imports this module before it
starts timing the `kslab` import, so nothing here may pull in numpy or
scipy.

Seed 0 is the exact acceptance datum.  Any other seed multiplies the
collapse mass and width (and the construction's baseline level) by factors
drawn uniformly from [1 - JITTER, 1 + JITTER].  The band is small enough
that every seed keeps the same outcome classes and step counts within
about 1 %, so run-to-run spread measures the machine, not the input.
"""

from __future__ import annotations

import random

JITTER = 0.005

WORKLOADS = ("collapse_store", "spike_family")

# acceptance collapse datum: a mass-50 bump over half a wider mass-25 signal
COLLAPSE_U = {"m": 50.0, "width": 0.15, "floor": 1e-2}
COLLAPSE_V = {"m": 25.0, "width": 0.3, "floor": 1e-2, "scale": 0.5}
COLLAPSE_SOLVER = {"t_end": 0.02, "dt_init": 1e-6, "dt_min": 2e-8,
                   "dt_max": 1e-4}
SPIKE_KS = (1, 12, 16, 20)
SPIKE_SOLVER = {"t_end": 1.0, "dt_init": 1e-16, "dt_min": 1e-18,
                "dt_max": 1e-2, "blowup_factor": 1e4, "snapshot_every": 20,
                "max_steps": 20000}
KAPPA = 2.0


def _factors(seed: int) -> tuple[float, float, float]:
    if seed == 0:
        return 1.0, 1.0, 1.0
    rng = random.Random(seed)
    return tuple(1.0 + rng.uniform(-JITTER, JITTER) for _ in range(3))


def _collapse(seed: int, N: int, snapshot_every: int) -> dict:
    fm, fw, _ = _factors(seed)
    u = dict(COLLAPSE_U, m=COLLAPSE_U["m"] * fm,
             width=COLLAPSE_U["width"] * fw)
    return {
        "name": f"collapse_N{N}",
        "grid": {"n": 3, "R": 1.0, "N": N, "grading": 1.0},
        # The datum is u = bump(u).u, v = scale * bump(v).v; a config's
        # initial block cannot express the scaled v, so the benchmark builds
        # it and keeps this block as the record of what it built.
        "initial": {"kind": "bump", **u, "v": dict(COLLAPSE_V)},
        "solver": dict(COLLAPSE_SOLVER, snapshot_every=snapshot_every),
        "checks": {"kappa": KAPPA},
    }


def _lemma14(name: str, c: float, grading: float, **extra) -> dict:
    return {
        "name": name,
        "grid": {"n": 3, "R": 1.0, "N": 1024, "grading": grading},
        "initial": {"kind": "lemma14", "p": 1.1,
                    "baseline": {"kind": "constant", "c": c}, **extra},
        "checks": {"kappa": KAPPA},
    }


def generate(workload: str, seed: int) -> dict:
    """Every input of one workload as plain JSON-able data."""
    if workload == "collapse_store":
        return {"run": _collapse(seed, 8192, 8)}
    if workload == "spike_family":
        _, _, fc = _factors(seed)
        construct = _lemma14("construct", fc, 1.035, ks=list(range(1, 31)))
        sims = [dict(_lemma14(f"k{k:02d}", fc, 1.013, k=k),
                     solver=dict(SPIKE_SOLVER)) for k in SPIKE_KS]
        return {"construct": construct, "simulate": sims}
    raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")


def setup_grid(inputs: dict) -> dict:
    """The grid block a fresh `kslab` process builds first."""
    if "run" in inputs:
        return inputs["run"]["grid"]
    return inputs["simulate"][0]["grid"]
