"""kslab: a numerical laboratory for radial chemotaxis blow-up.

Finite-volume solver for the fully parabolic chemotaxis system on a ball
in dimension n >= 3, an energy/dissipation verification harness, and a
factory for low-energy initial data with arbitrarily negative energy.
"""

__version__ = "0.4.0"

from .grid import (
    RadialGrid,
    RadialField,
    build_grid,
    ball_surface_coefficient,
)
from .functionals import (
    StatePair,
    EnergyReport,
    energy_report,
    residual_f,
    theta_exponent,
    exponent_window,
)
from .initial_data import (
    Lemma14Recipe,
    BlowupDatum,
    phi_log,
    choose_eta_log,
    lemma14_pair,
    baseline_profiles,
    perturbed_constant,
    constant_recipe,
)
from .solver import (
    SolverConfig,
    Trajectory,
    BlowupVerdict,
    step,
    run,
    SERIES_COLUMNS,
)
from .verifier import (
    CheckReport,
    StateCorpus,
    check_conservation,
    check_energy_inequality,
    check_pointwise_bound,
    check_gradv_lp,
    check_odi_blowup,
    check_lemma14_sequence,
    inequality_suite,
    trajectory_battery,
)
from .config import (
    ExperimentConfig,
    config_hash,
    load_config,
    build_initial_state,
)

__all__ = [
    "__version__",
    "RadialGrid", "RadialField", "build_grid", "ball_surface_coefficient",
    "StatePair", "EnergyReport", "energy_report", "residual_f",
    "theta_exponent", "exponent_window",
    "Lemma14Recipe", "BlowupDatum", "phi_log",
    "choose_eta_log", "lemma14_pair", "baseline_profiles",
    "perturbed_constant", "constant_recipe",
    "SolverConfig", "Trajectory", "BlowupVerdict", "step", "run",
    "SERIES_COLUMNS",
    "CheckReport", "StateCorpus", "check_conservation",
    "check_energy_inequality", "check_pointwise_bound", "check_gradv_lp",
    "check_odi_blowup", "check_lemma14_sequence", "inequality_suite",
    "trajectory_battery",
    "ExperimentConfig", "config_hash", "load_config", "build_initial_state",
]
