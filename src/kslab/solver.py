"""Time integration of the radial chemotaxis system with blow-up detection.

One step of size dt, in this order:

  1. v-update: backward Euler in the diffusion and decay terms with the
     current u as source, (1 + dt) v' - dt Lap v' = v + dt u.
  2. u-update: backward Euler in the whole drift-diffusion operator, with
     the Scharfetter-Gummel (exponentially fitted) face flux built from the
     fresh v',
         (W + dt K(v')) u' = W u,   W = diag(weights),
     where face i, between cells i and i+1, carries the outflow
         G_i = (face_area / face_dr)_i [B(-d_i) u_i - B(d_i) u_{i+1}],
     d_i = v'_{i+1} - v'_i, B(x) = x / (e^x - 1), and (K u)_i = G_i - G_{i-1}
     with no flux through r = 0 and r = R.  G reduces to the centered flux
     of u_r - u v_r as d -> 0 and to pure upwinding as |d| grows.

Both solves are tridiagonal and call LAPACK gtsv directly, the routine
scipy's solve_banded dispatches to for one sub- and one superdiagonal.
gtsv is loaded at the first solve, from scipy's compiled LAPACK module
scipy.linalg._flapack alone (_flapack below): after import kslab, the
scipy.linalg package takes a fresh process 0.27-0.30 s and 23 MB to
import, that module 4-7 ms and 2.5 MB (2-core x86-64 VM).  It is the only
scipy code kslab runs: the construction's integrals are closed forms and
a fixed Gauss-Legendre rule, so kslab construct, verify, plot and
constants load no scipy at all.  A run steps in one _Workspace, which
holds the accepted state with its time and sups, and whose buffers (laid
out there) every step reuses, so that an accepted step and its
diagnostics row, one pass of functionals._integrals over the (2, N)
state, allocate no array.  The u-solve's face pass (the v' differences d
and B(+-d), functionals._face_pass) stays in the workspace's integrand
block, where the row of the accepted state reads it: one Bernoulli pass
per trial step.  A row's D and f_l2 are its step's (the D of a
step in functionals, with f_l2 = ||(v' - v)/dt||), taken against the
departure u that the workspace still holds; row 0's are s0's own.
Every column of the u-matrix sums to its cell weight and the off-diagonals
are negative, so it is an M-matrix: u' stays positive and the u mass
sum(w u) is conserved for every dt, with no CFL bound.  One solve keeps
the weighted sums only to about eps * dt * flux / weight, which is why the
controller limits growth per step (_next_dt).  The v mass obeys the exact
discrete comparison m_v' = (m_v + dt m_u)/(1 + dt).  run is a driver over
three parts, each the one home of its rules: _Workspace.advance accepts
or rejects a trial step, _next_dt picks the next dt, and _Verdict holds
every outcome rule.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
import numbers
import os
import sys
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError

from .functionals import EnergyReport, StatePair, _face_pass, _integrals
from .grid import RadialField, RadialGrid

__all__ = [
    "SolverConfig",
    "BlowupVerdict",
    "Trajectory",
    "step",
    "run",
    "SERIES_COLUMNS",
]

log = logging.getLogger(__name__)

SERIES_COLUMNS = (
    "t", "dt", "mass_u", "mass_v", "sup_u", "sup_v",
    "F", "D", "f_l2", "g_l2", "gradv_lp",
)
_MASS_U = SERIES_COLUMNS.index("mass_u")
_SUP_U = SERIES_COLUMNS.index("sup_u")

_DT_GROWTH = 1.2
_GROWTH_REJECT = 10.0   # reject a step above dt_min that grows u more
_GROWTH_TARGET = 1.5    # per-step growth of u the next dt aims at
_LN_GROWTH_TARGET = math.log(_GROWTH_TARGET)

# scipy.linalg.lapack.dgtsv, loaded once by the first _gtsv call (see the
# module docstring)
_dgtsv = None


@dataclass(frozen=True)
class SolverConfig:
    t_end: float = 1.0
    dt_init: float = 1e-6
    dt_min: float = 1e-14
    dt_max: float = 1e-2
    blowup_factor: float = 1e4
    snapshot_every: int = 200
    max_steps: int = 500_000

    def __post_init__(self):
        _integer(self.snapshot_every, "snapshot_every")
        _integer(self.max_steps, "max_steps")
        if not all(map(math.isfinite, (self.t_end, self.dt_init, self.dt_min,
                                       self.dt_max, self.blowup_factor))):
            raise ValueError("need finite t_end, dt_init, dt_min, dt_max and "
                             "blowup_factor")
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if not (self.t_end > 0 and self.blowup_factor > 1):
            raise ValueError("need t_end > 0 and blowup_factor > 1")
        if self.max_steps < 1 or self.snapshot_every < 1:
            raise ValueError("max_steps and snapshot_every must be >= 1")


def _integer(x, name: str) -> int:
    """x as an int; a bool, a float (2.5 or 3.0) or a non-number raises a
    TypeError naming the setting, as range() does."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {x!r}")
    return int(x)


@dataclass(frozen=True)
class BlowupVerdict:
    outcome: str            # blew_up | reached_t_end | diverged_numerically | inconclusive
    t_detect: Optional[float]
    trigger: str


@dataclass
class Trajectory:
    grid: RadialGrid
    config: SolverConfig
    series: dict                      # column name -> np.ndarray, row 0 = initial state
    snapshots: list                   # [StatePair], initial and final always included
    verdict: BlowupVerdict
    rejected_steps: int = 0


def _flapack():
    """scipy.linalg._flapack, without running scipy/linalg/__init__.py:
    the module in sys.modules if scipy.linalg was imported, else the
    extension file, whose sys.modules entry is dropped again so that a
    later import of scipy.linalg loads it as a package attribute (with the
    same functions: the extension initializes once per process).  A scipy
    without the file raises ImportError naming the directory searched."""
    full = "scipy.linalg._flapack"
    mod = sys.modules.get(full)
    if mod is not None:
        return mod
    scipy = importlib.util.find_spec("scipy")   # locates, imports nothing
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    where = os.path.join(scipy.submodule_search_locations[0], "linalg")
    spec = importlib.machinery.FileFinder(where, (
        importlib.machinery.ExtensionFileLoader,
        importlib.machinery.EXTENSION_SUFFIXES)).find_spec(full)
    if spec is None:
        raise ImportError(f"no {full} extension module in {where}",
                          name=full, path=where)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    sys.modules.pop(full, None)
    return mod


def _gtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray,
          b: np.ndarray) -> None:
    """Solve, in place into b, the tridiagonal system with lower, main and
    upper diagonals dl, d and du, which gtsv overwrites.  Each must be a
    contiguous float64 row, which gtsv takes without a copy."""
    global _dgtsv
    if _dgtsv is None:
        _dgtsv = _flapack().dgtsv
    # overwrite_dl, _d, _du, _b by position (keywords cost f2py ~1 us)
    info = _dgtsv(dl, d, du, b, 1, 1, 1, 1)[-1]
    if info > 0:
        raise LinAlgError("singular matrix")


class _Workspace:
    """A run's state and the buffers that every step on its grid reuses.

    state and trial are (2, N), rows u and v: the accepted state, at time t
    with sups (sup u, sup v), and the step being tried.  advance is the one
    acceptance rule: a step writes only into trial, so a rejected trial
    leaves state, t and sups as they were, and accepting swaps the two
    buffers.  Each solve builds its band in off (rows upper and lower) and
    diag, which gtsv overwrites: the v-band from the grid's Laplacian
    bands scaled by -dt, the u-band from the trial's face pass
    (functionals._face_pass: v' differences and their Bernoulli pair, in
    rows of block) times the dt-scaled transmissibilities in scaled.
    maxes and ratio take the trial's sups and u'/u, and block and sums a
    diagnostics row's integrands and integrals (functionals._integrals),
    which read the accepted trial's face pass from block.
    """

    def __init__(self, s: StatePair):
        self.g = s.grid
        n = s.grid.ncells
        self.state, self.trial = np.empty((2, 2, n))
        self.state[:] = self.trial[:] = s.u.values, s.v.values
        self.t = float(s.t)
        self.sups = self.state.max(axis=1).tolist()
        self.off = np.empty((2, n - 1))
        self.upper, self.lower = self.off
        self.diag, self.ratio = np.empty((2, n))
        self.scaled = np.empty(n - 1)
        self.maxes = np.empty(2)
        self.block = np.empty((len(EnergyReport._fields), n))
        self.sums = np.empty(len(EnergyReport._fields))

    def diffusion_solve(self, shift: float, dt: float, x: np.ndarray) -> None:
        """x <- the solution of ((shift) I - dt Lap) x' = x, in place."""
        np.multiply(self.g.lap_off, -dt, out=self.off)
        np.multiply(self.g.lap_diag, -dt, out=self.diag)
        self.diag += shift
        _gtsv(self.lower, self.diag, self.upper, x)

    def drift_diffusion_solve(self, dt: float) -> None:
        """Trial u <- u' from (W + dt K(v')) u' = W u with the
        Scharfetter-Gummel flux, u the state's and v' the trial's: the
        off-diagonals are -dt trans B(+-d), from the face pass of v' that
        it leaves in block for the row, and diag = W - lower - upper."""
        w, diag = self.g.weights, self.diag
        np.multiply(_face_pass(self.trial[1], self.block),
                    np.multiply(self.g.trans, -dt, out=self.scaled),
                    out=self.off)
        np.subtract(w[:-1], self.lower, out=diag[:-1])
        diag[-1] = w[-1]
        diag[1:] -= self.upper
        _gtsv(self.lower, diag, self.upper,
              np.multiply(w, self.state[0], out=self.trial[0]))

    def try_step(self, dt: float) -> None:
        """trial <- (u', v') for one step of size dt from state."""
        u, v = self.state
        v_new = np.multiply(u, dt, out=self.trial[1])
        v_new += v
        self.diffusion_solve(1.0 + dt, dt, v_new)
        self.drift_diffusion_solve(dt)

    def advance(self, dt: float, at_floor: bool) -> Optional[float]:
        """Try a step of size dt and accept it, moving t on by dt: its growth
        max u'/u, or None for a rejected trial, one not positive and finite
        (a NaN makes min NaN, which fails every comparison, like +-inf) or,
        off the floor dt_min, growing u by more than _GROWTH_REJECT."""
        self.try_step(dt)
        sups = self.trial.max(axis=1, out=self.maxes).tolist()
        if not (self.trial.min() > 0.0 and max(sups) < math.inf):
            return None
        np.divide(self.trial[0], self.state[0], out=self.ratio)
        if (gamma := float(self.ratio.max())) > _GROWTH_REJECT and not at_floor:
            return None
        self.sups = sups
        self.state, self.trial = self.trial, self.state
        self.t += dt
        return gamma

    def row(self, dt: float) -> tuple:
        """The SERIES_COLUMNS values of the state, reached by a step of dt,
        from the face pass in block: the accepted trial's, or s0's, which
        run makes for row 0.  D and f_l2 are the step's: f is taken against
        trial's u, which after the swap is the departure u, so that f =
        (v - v')/dt with no cancellation; before the first step trial holds
        s0, and row 0 records the state's D."""
        rep = _integrals(self.g, self.state, self.trial[0], self.block,
                         self.sums)
        return (self.t, dt, rep.mass_u, rep.mass_v, *self.sups, rep.F,
                rep.D, math.sqrt(rep.f_norm_sq), math.sqrt(rep.g_norm_sq),
                rep.gradv_lp)

    def snapshot(self) -> StatePair:
        """The state as a StatePair, which copies u and v."""
        return StatePair(RadialField(self.g, self.state[0]),
                         RadialField(self.g, self.state[1]), self.t)


def _next_dt(dt_try: float, gamma: float, dt_max: float) -> float:
    """The dt to try after an accepted step of dt_try that grew u by
    gamma = max u'/u: _DT_GROWTH dt_try, capped at dt_max and, when
    gamma > 1, at dt_try ln(_GROWTH_TARGET) / ln(gamma), so that the next
    step should grow u by about _GROWTH_TARGET at most."""
    dt = min(_DT_GROWTH * dt_try, dt_max)
    if gamma > 1.0:
        dt = min(dt, dt_try * _LN_GROWTH_TARGET / math.log(gamma))
    return dt


class _Verdict:
    """Every outcome rule of a run.  feed judges each row in order, row 0 (s0's
    own) included, and result stays None while the run may go on.  A step
    rejected at dt_min (fail_at_floor) ends the run as numerically diverged;
    nonpositive values are never clipped into validity.  So does a row holding
    a non-finite value, with trigger "non_finite_diagnostics: <columns>" and
    t_detect its time; the row stays in the series.  Blow-up is declared from
    two grid-visible signals, and the run stops as soon as both hold: sup u has
    grown by blowup_factor over its initial value, and cell 0 holds at least
    half the u mass, omega_n w_0 u_0 >= mass_u / 2.  Either alone is routine: a
    concentrating but resolved profile grows without collapsing into one cell,
    and a datum can start with its mass in cell 0.  t_detect is the first row
    where the growth condition held, the onset of the collapse; after the
    singularity mass keeps piling into cell 0, so the half-share row is a grid
    artifact, not a time of the solution.  A row at t_end (up to 1e-12 t_end)
    ends the run as reached_t_end, and a step budget that ends short of it as
    inconclusive; a start time that is not finite and short of it is refused.
    The verdict fits no singular time; verifier.check_odi_blowup fits one from
    the energy (its implied_T).
    """

    def __init__(self, ws: _Workspace, cfg: SolverConfig):
        self.t_stop = cfg.t_end - 1e-12 * cfg.t_end
        if not (math.isfinite(ws.t) and ws.t < self.t_stop):
            raise ValueError(f"need a finite start time below t_end = "
                             f"{cfg.t_end}, got t = {ws.t}")
        self.cell0 = ws.g.omega_n * float(ws.g.weights[0])   # omega_n w_0
        self.sup0 = ws.sups[0]
        self.sup_grown = cfg.blowup_factor * self.sup0
        self.max_steps = cfg.max_steps
        self.t_grow: Optional[float] = None   # first row with sup_u grown
        self.result: Optional[BlowupVerdict] = None

    def feed(self, row: tuple, u0: float, steps: int) -> None:
        """Judge the row of step `steps` (0: s0's), whose cell 0 holds u0."""
        t = row[0]
        if self.t_grow is None and row[_SUP_U] >= self.sup_grown:
            self.t_grow = t
        share = 0.0 if self.t_grow is None else self.cell0 * u0 / row[_MASS_U]
        if not all(map(math.isfinite, row)):
            bad = ", ".join(c for c, x in zip(SERIES_COLUMNS, row)
                            if not math.isfinite(x))
            self.result = BlowupVerdict("diverged_numerically", t,
                                        "non_finite_diagnostics: " + bad)
        elif share >= 0.5:
            self.result = BlowupVerdict("blew_up", self.t_grow, (
                f"collapsed_on_grid: cell 0 holds {share:.3g} of the u mass, "
                f"sup_u x{row[_SUP_U] / self.sup0:.3g}"))
        elif not t < self.t_stop:
            self.result = BlowupVerdict("reached_t_end", None,
                                        "no blow-up footprint")
        elif steps == self.max_steps:
            self.result = BlowupVerdict("inconclusive", None,
                                        f"step_budget_exhausted_at_t={t:.6g}")

    def fail_at_floor(self, t: float) -> None:
        self.result = BlowupVerdict("diverged_numerically", t,
                                    "step_rejected_at_dt_min")


def step(s: StatePair, dt: float) -> StatePair:
    """One step of size dt.  Purely a function of (state, dt)."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    ws = _Workspace(s)
    ws.try_step(dt)
    ws.state, ws.t = ws.trial, ws.t + dt
    return ws.snapshot()


def run(s0: StatePair, cfg: SolverConfig) -> Trajectory:
    """Integrate from s0 with adaptive dt until t_end, on-grid collapse,
    numerical divergence, or the step budget.  Each trial takes dt_try =
    min(dt, dt_max, t_end - t), floored at dt_min; a rejection halves dt."""
    ws = _Workspace(s0)
    if not (ws.state.min() > 0.0 and max(ws.sups) < math.inf):
        raise ValueError("initial state must be positive and finite")
    verdict = _Verdict(ws, cfg)
    _face_pass(ws.state[1], ws.block)      # row 0's; each trial makes its own
    rows = array("d", row := ws.row(0.0))  # SERIES_COLUMNS, row after row
    verdict.feed(row, float(ws.state[0, 0]), 0)
    snapshots = [s0]
    dt, steps, rejected = cfg.dt_init, 0, 0
    while verdict.result is None:
        dt_try = max(min(dt, cfg.dt_max, cfg.t_end - ws.t), cfg.dt_min)
        at_floor = dt_try <= cfg.dt_min * (1.0 + 1e-12)
        if (gamma := ws.advance(dt_try, at_floor)) is None:
            rejected += 1
            if at_floor:
                verdict.fail_at_floor(ws.t)
            dt = max(0.5 * dt_try, cfg.dt_min)
            continue
        steps += 1
        rows.extend(row := ws.row(dt_try))
        verdict.feed(row, float(ws.state[0, 0]), steps)
        if steps % cfg.snapshot_every == 0:
            snapshots.append(ws.snapshot())
        dt = _next_dt(dt_try, gamma, cfg.dt_max)
    if steps % cfg.snapshot_every:
        snapshots.append(ws.snapshot())
    table = np.frombuffer(rows).reshape(-1, len(SERIES_COLUMNS))
    series = {name: table[:, i].copy() for i, name in enumerate(SERIES_COLUMNS)}
    v = verdict.result
    log.log(logging.WARNING if v.outcome == "diverged_numerically" else
            logging.INFO, "run finished: %s (%s) after %d steps (%d "
            "rejected), t=%.6g", v.outcome, v.trigger, steps, rejected, ws.t)
    return Trajectory(grid=s0.grid, config=cfg, series=series,
                      snapshots=snapshots, verdict=v, rejected_steps=rejected)
