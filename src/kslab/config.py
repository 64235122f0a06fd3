"""Declarative experiment configuration.

A config is a plain JSON document with four blocks: grid, initial, solver,
checks, plus an output block.  Floats round-trip exactly (17 significant
digits on write), and config_hash() is the sha256 of the canonical
serialization, so identical configs hash identically regardless of key
order in the source file.

A config is checked whole when it is built: the grid keys and the grid,
initial.kind, checks.kappa > n - 2 for every kind (kappa is the only
checks key; an unknown one is refused, as in the solver block), and the
initial block, whose state _initial_state builds on the config's grid
(kinds constant and bump through baseline_profiles; kind lemma14 through
the recipe of lemma14_recipe_from and its member k, with every entry of
ks an integer >= 1), so each setting is checked by the code that uses it
before any run starts or any file is written.  A value of the wrong JSON
type (null where a number belongs, a float or a boolean where an integer
belongs, in grid.n and N, initial.k, ks and mode and the solver's
snapshot_every and max_steps, or a block that is not an object) is
refused as a bad value is, with a ValueError that names its block.
Keys a block's kind does not read are ignored.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from .functionals import StatePair, theta_exponent
from .grid import RadialGrid, build_grid
from .initial_data import (
    Lemma14Recipe,
    _constant_level,
    _family_index,
    _sampled_member,
    baseline_profiles,
    lemma14_pair,  # noqa: F401  perfbench's span hooks wrap config.lemma14_pair
)
from .solver import SolverConfig, _integer

__all__ = [
    "ExperimentConfig",
    "config_hash",
    "load_config",
    "build_initial_state",
]

_INITIAL_KINDS = ("constant", "bump", "lemma14")


@contextmanager
def _block(name: str):
    """Re-raise a TypeError from reading the config block `name` (float of
    a null, say) as the ValueError a bad value of that block raises."""
    try:
        yield
    except TypeError as exc:
        raise ValueError(f"{name} block: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    grid: dict          # n, R, N, grading
    initial: dict       # kind + parameters
    solver: SolverConfig
    checks: dict = field(default_factory=dict)
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
        with _block("grid"):
            n = _integer(g["n"], "n")
            _integer(g["N"], "N")
            grid = self.build_grid()
        unknown = set(self.checks) - {"kappa"}
        if unknown:
            raise ValueError(f"unknown checks keys {sorted(unknown)}")
        with _block("checks"):
            theta_exponent(n, self.kappa)
        with _block("initial"):
            _initial_state(self.initial, grid)

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
        blocks = {}
        for name in ("grid", "initial", "solver", "checks", "output"):
            with _block(name):
                blocks[name] = dict(d[name] if name in ("grid", "initial")
                                    else d.get(name, {}))
        solver_d = blocks.pop("solver")
        unknown = set(solver_d) - {f.name for f in dataclasses.fields(SolverConfig)}
        if unknown:
            raise ValueError(f"unknown solver keys {sorted(unknown)}")
        with _block("solver"):
            solver = SolverConfig(**solver_d)
        return ExperimentConfig(name=str(d.get("name", "run")), solver=solver,
                                **blocks)


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


def _json(obj) -> bytes:
    """kslab's JSON form, the bytes of every JSON file it writes: indent
    2, sorted keys, a final newline."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def build_initial_state(cfg: ExperimentConfig) -> StatePair:
    """Realize the configured initial data on the config's grid."""
    s = _initial_state(cfg.initial, cfg.build_grid())
    if s is None:
        raise ValueError("a run needs one member initial.k; "
                         "initial.ks is for construct")
    return s


def member_ks(init: dict) -> list:
    """The sorted distinct family indices of a lemma14 initial block:
    initial.ks, else [initial.k], else none.  Each is an integer >= 1."""
    ks = init.get("ks")
    if ks is None:
        return [_family_index(_integer(init["k"], "k"))] if "k" in init else []
    return sorted({_family_index(_integer(k, "each entry of ks")) for k in ks})


def _initial_state(init: dict, grid: RadialGrid) -> Optional[StatePair]:
    """The state the initial block describes on `grid`, or None for a
    lemma14 block without a member k (its ks are construct's).
    ExperimentConfig builds it at load, so each setting is checked by the
    code that uses it."""
    if init["kind"] != "lemma14":
        return baseline_profiles(init["kind"], grid, **init)
    recipe = lemma14_recipe_from(init, grid)
    member_ks(init)                   # construct's members, read at load
    if "k" not in init:
        return None
    # the grid data alone: lemma14_pair's continuum integrals serve
    # construct, not a run
    *_, u0, v0 = _sampled_member(recipe, _integer(init["k"], "k"))
    return StatePair(u0, v0)


def lemma14_recipe_from(init: dict, grid: RadialGrid) -> Lemma14Recipe:
    """The recipe of a lemma14 initial block on `grid`: baseline {"kind":
    "constant", "c" or "m"} (c = 1 when the block names no baseline), p
    (1.1 when absent), alpha, and r_rule {"r0", "q"}; absent alpha and
    r_rule take the recipe's defaults.  The only reader of that block."""
    baseline = init.get("baseline", {"c": 1.0})
    if (not isinstance(baseline, dict)
            or baseline.get("kind", "constant") != "constant"):
        raise ValueError("only constant baselines are supported in configs")
    c = _constant_level(grid, baseline, "lemma14 baseline")
    alpha, rule = init.get("alpha"), init.get("r_rule")
    if rule is not None:
        if not isinstance(rule, dict) or set(rule) != {"r0", "q"}:
            raise ValueError('initial.r_rule must be {"r0": ..., "q": ...}')
        rule = (float(rule["r0"]), float(rule["q"]))
    return Lemma14Recipe(
        grid, c, float(init.get("p", 1.1)),
        None if alpha is None else float(alpha), rule)

