"""Declarative experiment configuration.

A config is a plain JSON document with four blocks: grid, initial, solver,
checks, plus an output block.  Floats round-trip exactly (17 significant
digits on write), and config_hash() is the sha256 of the canonical
serialization, so identical configs hash identically regardless of key
order in the source file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field

from .functionals import StatePair, param_window
from .grid import RadialGrid, build_grid
from .initial_data import (
    Lemma14Recipe,
    _constant_level,
    baseline_profiles,
    constant_recipe,
    lemma14_pair,
    perturbed_constant,
)
from .solver import SolverConfig

__all__ = [
    "ExperimentConfig",
    "config_hash",
    "load_config",
    "build_initial_state",
    "output_root",
]

_INITIAL_KINDS = ("constant", "bump", "lemma14")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    grid: dict          # n, R, N, grading
    initial: dict       # kind + parameters
    solver: SolverConfig
    checks: dict = field(default_factory=dict)    # kappa, battery, ...
    output: dict = field(default_factory=dict)    # directory

    def __post_init__(self):
        g = self.grid
        for key in ("n", "R", "N"):
            if key not in g:
                raise ValueError(f"grid block missing {key!r}")
        kind = self.initial.get("kind")
        if kind not in _INITIAL_KINDS:
            raise ValueError(
                f"initial.kind must be one of {_INITIAL_KINDS}, got {kind!r}")
        if kind == "lemma14":
            # validate the window parameters up front, before any run
            p = float(self.initial.get("p", 1.1))
            alpha = self.initial.get("alpha")
            param_window(n=int(g["n"]), p=p, kappa=self.kappa,
                         alpha=None if alpha is None else float(alpha))

    @property
    def kappa(self) -> float:
        """The decay exponent of the pointwise bound v <= C r^-kappa, which
        needs kappa > n - 2; checks.kappa, defaulting to n - 1."""
        return float(self.checks.get("kappa", int(self.grid["n"]) - 1))

    def build_grid(self) -> RadialGrid:
        g = self.grid
        return build_grid(int(g["n"]), float(g["R"]), int(g["N"]),
                          float(g.get("grading", 1.0)))

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "grid": dict(self.grid),
            "initial": dict(self.initial),
            "solver": dataclasses.asdict(self.solver),
            "checks": dict(self.checks),
            "output": dict(self.output),
        }
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        solver_d = dict(d.get("solver", {}))
        unknown = set(solver_d) - {f.name for f in dataclasses.fields(SolverConfig)}
        if unknown:
            raise ValueError(f"unknown solver keys {sorted(unknown)}")
        return ExperimentConfig(
            name=str(d.get("name", "run")),
            grid=dict(d["grid"]),
            initial=dict(d["initial"]),
            solver=SolverConfig(**solver_d),
            checks=dict(d.get("checks", {})),
            output=dict(d.get("output", {})),
        )


def _canonical(obj) -> object:
    """Floats to shortest-exact strings so hashing is representation-stable."""
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(_canonical(cfg.to_dict()), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def save_config(cfg: ExperimentConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_initial_state(cfg: ExperimentConfig, grid: RadialGrid) -> StatePair:
    """Realize the configured initial data on the given grid."""
    init = cfg.initial
    kind = init["kind"]
    if kind == "constant":
        amp = float(init.get("amplitude", 0.0))
        c = _constant_level(grid, init, "constant initial data")
        if amp == 0.0:
            return baseline_profiles("constant", grid, c=c)
        return perturbed_constant(grid, c=c, amplitude=amp,
                                  mode=int(init.get("mode", 1)))
    if kind == "bump":
        return baseline_profiles(
            "bump", grid, m=float(init["m"]), width=float(init["width"]),
            floor=float(init.get("floor", 1e-3)))
    if kind == "lemma14":
        k = int(init["k"])
        recipe = lemma14_recipe_from(init, grid)
        datum = lemma14_pair(recipe, k)
        return StatePair(datum.u0, datum.v0)
    raise ValueError(f"unknown initial kind {kind!r}")


def lemma14_recipe_from(init: dict, grid: RadialGrid) -> Lemma14Recipe:
    baseline = init.get("baseline", {"kind": "constant", "c": 1.0})
    if baseline.get("kind", "constant") != "constant":
        raise ValueError("only constant baselines are supported in configs")
    c = float(baseline.get("c", 1.0))
    alpha = init.get("alpha")
    return constant_recipe(
        grid, c=c, p=float(init.get("p", 1.1)),
        alpha=None if alpha is None else float(alpha))


def output_root() -> str:
    """Output directory root; KSLAB_OUT overrides the working directory."""
    return os.environ.get("KSLAB_OUT", os.getcwd())
