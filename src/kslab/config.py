"""Declarative experiment configuration.

A config is a plain JSON document with four blocks: grid, initial, solver,
checks, plus an output block.  Floats round-trip exactly (17 significant
digits on write), and config_hash() is the sha256 of the canonical
serialization, so identical configs hash identically regardless of key
order in the source file.

A config is checked whole when it is built: the grid keys and the grid,
initial.kind, checks.kappa > n - 2 for every kind (kappa is the only
checks key; an unknown one is refused, as in the solver block), and every
setting of the initial block, which _initial_builder reads on the config's
grid (for kind lemma14 the recipe of lemma14_recipe_from and the family
indices k and ks, each an integer >= 1), so a bad setting fails before
any run starts or any file is written.  A value of the wrong JSON type
(null where a number belongs, a float or a boolean where an integer
belongs, in grid.n and N, initial.k, ks and mode and the solver's
snapshot_every and max_steps, or a block that is not an object) is
refused as a bad value is, with a ValueError that names its block.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field

from .functionals import StatePair, theta_exponent
from .grid import RadialGrid, build_grid
from .initial_data import (
    Lemma14Recipe,
    _constant_level,
    _family_index,
    _sampled_member,
    baseline_profiles,
    lemma14_pair,  # noqa: F401  perfbench's span hooks wrap config.lemma14_pair
    perturbed_constant,
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
            _initial_builder(self.initial, grid)

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


def save_config(cfg: ExperimentConfig, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_json(cfg.to_dict()))


def build_initial_state(cfg: ExperimentConfig, grid: RadialGrid) -> StatePair:
    """Realize the configured initial data on the given grid."""
    return _initial_builder(cfg.initial, grid)()


def member_ks(init: dict) -> list:
    """The sorted distinct family indices of a lemma14 initial block:
    initial.ks, else [initial.k], else none.  Each is an integer >= 1."""
    ks = init.get("ks")
    if ks is None:
        return [_family_index(_integer(init["k"], "k"))] if "k" in init else []
    return sorted({_family_index(_integer(k, "each entry of ks")) for k in ks})


def _initial_builder(init: dict, grid: RadialGrid):
    """Read every setting of the initial block on `grid` and return the
    function of no arguments that realizes its state: the one reader of
    that block, which ExperimentConfig runs at load so that a bad value
    fails there."""
    kind = init["kind"]
    if kind == "constant":
        c = _constant_level(grid, init, "constant initial data")
        amplitude = float(init.get("amplitude", 0.0))
        mode = _integer(init.get("mode", 1), "mode")
        return lambda: perturbed_constant(grid, c=c, amplitude=amplitude,
                                          mode=mode)
    if kind == "bump":
        m, width = float(init["m"]), float(init["width"])
        floor = float(init.get("floor", 1e-3))
        return lambda: baseline_profiles("bump", grid, m=m, width=width,
                                         floor=floor)
    recipe = lemma14_recipe_from(init, grid)
    member_ks(init)                   # construct's members, read at load
    k = _family_index(_integer(init["k"], "k")) if "k" in init else None

    def member() -> StatePair:
        if k is None:
            raise ValueError("a run needs one member initial.k; "
                             "initial.ks is for construct")
        # the grid data alone: lemma14_pair's continuum integrals
        # serve construct, not a run
        *_, u0, v0 = _sampled_member(recipe, k)
        return StatePair(u0, v0)
    return member


def lemma14_recipe_from(init: dict, grid: RadialGrid) -> Lemma14Recipe:
    """The recipe of a lemma14 initial block on `grid`: baseline {"kind":
    "constant", "c"} (c = 1 when absent), p (1.1 when absent), alpha, and
    r_rule {"r0", "q"}; absent alpha and r_rule take the recipe's
    defaults.  The only reader of that block."""
    baseline = init.get("baseline", {"kind": "constant", "c": 1.0})
    if (not isinstance(baseline, dict)
            or baseline.get("kind", "constant") != "constant"):
        raise ValueError("only constant baselines are supported in configs")
    alpha, rule = init.get("alpha"), init.get("r_rule")
    if rule is not None:
        if not isinstance(rule, dict) or set(rule) != {"r0", "q"}:
            raise ValueError('initial.r_rule must be {"r0": ..., "q": ...}')
        rule = (float(rule["r0"]), float(rule["q"]))
    return Lemma14Recipe(
        grid, float(baseline.get("c", 1.0)), float(init.get("p", 1.1)),
        None if alpha is None else float(alpha), rule)

