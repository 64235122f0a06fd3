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
constants load no scipy at all.  A run steps in one _Workspace, whose
buffers (laid out there) every step reuses, so that an accepted step and
its diagnostics row, one pass of functionals._integrals over the (2, N)
state, allocate no array.  A row's D and f_l2 are its step's (the D of a
step in functionals, with f_l2 = ||(v' - v)/dt||), taken against the
departure u that the workspace still holds; row 0's are s0's own.
Every column of the u-matrix sums to its cell weight and the off-diagonals
are negative, so it is an M-matrix: u' stays positive and the u mass
sum(w u) is conserved for every dt, with no CFL bound.  One solve keeps
the weighted sums only to about eps * dt * flux / weight, which is why the
controller limits growth per step (below).  The v mass obeys the exact
discrete comparison m_v' = (m_v + dt m_u)/(1 + dt).

Step size control: a trial step takes dt_try = min(dt, dt_max, t_end - t),
floored at dt_min.  It is rejected, and dt halved, when u' or v' is not
positive and finite, or when the growth factor gamma = max(u'/u) exceeds
_GROWTH_REJECT with dt_try above dt_min.  After an accepted step dt grows
by _DT_GROWTH toward dt_max, and when gamma > 1 it is also capped at
dt_try ln(_GROWTH_TARGET) / ln(gamma), so that the next step should grow u
by about _GROWTH_TARGET at most.  A step rejected at dt_min ends the run as
numerically diverged; nonpositive values are never clipped into validity.
So does an accepted state whose diagnostics row holds a non-finite value,
with trigger "non_finite_diagnostics: <columns>" and t_detect its time; the
row stays in the series.

Blow-up is declared from two grid-visible signals, and the run stops as
soon as both hold: sup u has grown by blowup_factor over its initial
value, and cell 0 holds at least half the u mass, omega_n w_0 u_0 >=
mass_u / 2.  Either alone is routine: a concentrating but resolved profile
grows without collapsing into one cell, and a datum can start with its
mass in cell 0.  t_detect is the first row where the growth condition
held, the onset of the collapse; after the singularity mass keeps piling
into cell 0, so the half-share row is a grid artifact, not a time of the
solution.  A run whose step budget ends short of t_end is inconclusive.
The verdict fits no singular time; verifier.check_odi_blowup fits one
from the energy (its implied_T).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError

from .functionals import (StatePair, _bernoulli, _energy_dissipation,
                          _gradv_exponent, _integrals, _INTEGRANDS)
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
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if not (self.t_end > 0 and self.blowup_factor > 1):
            raise ValueError("need t_end > 0 and blowup_factor > 1")
        if self.max_steps < 1 or self.snapshot_every < 1:
            raise ValueError("max_steps and snapshot_every must be >= 1")


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
    """The buffers that every step of a run on one grid reuses.

    state and trial are (2, N), rows u and v: the accepted state and the
    step being tried.  A step writes only into trial, so a rejected trial
    leaves state as it was, and accepting a step swaps the two buffers.
    Each solve builds its band in off (rows upper and lower) and diag,
    which gtsv overwrites: the v-band from negated Laplacian bands stored
    once, the u-band from _bernoulli of diff (v' differences, then the
    dt-scaled transmissibilities).  ratio takes u'/u, and block and sums
    a diagnostics row's integrands and integrals (functionals._integrals).
    """

    def __init__(self, g: RadialGrid):
        self.g = g
        n = g.ncells
        self.state, self.trial = np.empty((2, 2, n))
        self.off = np.empty((2, n - 1))
        self.upper, self.lower = self.off
        self.diag, self.ratio = np.empty((2, n))
        self.diff = np.empty(n - 1)
        self.sups = np.empty(2)
        self.block = np.empty((len(_INTEGRANDS), n))
        self.sums = np.empty(len(_INTEGRANDS))
        self.neg_lap_off = -np.stack((g.lap_upper[:-1], g.lap_lower[1:]))
        self.neg_lap_diag = -g.lap_diag

    def diffusion_solve(self, shift: float, dt: float, x: np.ndarray) -> None:
        """x <- the solution of ((shift) I - dt Lap) x' = x, in place."""
        np.multiply(self.neg_lap_off, dt, out=self.off)
        np.multiply(self.neg_lap_diag, dt, out=self.diag)
        self.diag += shift
        _gtsv(self.lower, self.diag, self.upper, x)

    def drift_diffusion_solve(self, dt: float) -> None:
        """Trial u <- u' from (W + dt K(v')) u' = W u with the
        Scharfetter-Gummel flux, u the state's and v' the trial's: the
        off-diagonals are -dt trans B(+-d), and diag = W - lower - upper."""
        v_new, w, diag = self.trial[1], self.g.weights, self.diag
        _bernoulli(np.subtract(v_new[1:], v_new[:-1], out=self.diff),
                   out=self.off)
        self.off *= np.multiply(self.g.trans, -dt, out=self.diff)
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

    def check_trial(self) -> Optional[tuple[tuple[float, float], float]]:
        """((sup u', sup v'), max u'/u) when every trial value is positive
        and finite, else None.  A NaN makes min and max NaN, and every
        comparison with NaN is false, so NaN fails like +-inf does."""
        sup_u, sup_v = self.trial.max(axis=1, out=self.sups).tolist()
        if self.trial.min() > 0.0 and sup_u < math.inf and sup_v < math.inf:
            np.divide(self.trial[0], self.state[0], out=self.ratio)
            return (sup_u, sup_v), float(self.ratio.max())
        return None

    def accept(self) -> None:
        self.state, self.trial = self.trial, self.state

    def row(self, t: float, dt: float, sups: tuple[float, float]) -> tuple:
        """The SERIES_COLUMNS values of the state, whose sups check_trial
        took while it was the trial.  D and f_l2 are the step's: f is taken
        against trial's u, which after accept is the departure u, so that
        f = (v - v')/dt with no cancellation; before the first step trial
        holds s0, and row 0 records the state's D."""
        sums = _integrals(self.g, self.state, self.trial[0], self.block,
                          self.sums)
        F, D = _energy_dissipation(sums)
        _, p_sg, f2, *_, mass_u, mass_v, gradv_int = sums
        return (t, dt, mass_u, mass_v, *sups, F, D, math.sqrt(f2),
                math.sqrt(p_sg), gradv_int ** (1.0 / _gradv_exponent(self.g.n)))


def _non_finite(row: tuple) -> Optional[tuple[float, str]]:
    """(t, trigger) of a series row with a non-finite value, else None."""
    if all(map(math.isfinite, row)):
        return None
    bad = (c for c, x in zip(SERIES_COLUMNS, row) if not math.isfinite(x))
    return row[0], "non_finite_diagnostics: " + ", ".join(bad)


def _state(g: RadialGrid, u: np.ndarray, v: np.ndarray, t: float) -> StatePair:
    return StatePair(RadialField(g, u), RadialField(g, v), t)


def step(s: StatePair, dt: float) -> StatePair:
    """One step of size dt.  Purely a function of (state, dt)."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    ws = _Workspace(s.grid)
    ws.state[:] = s.u.values, s.v.values
    ws.try_step(dt)
    return _state(s.grid, *ws.trial, s.t + dt)


def run(s0: StatePair, cfg: SolverConfig) -> Trajectory:
    """Integrate from s0 with adaptive dt until t_end, on-grid collapse,
    numerical divergence, or the step budget."""
    g = s0.grid
    ws = _Workspace(g)
    ws.state[:] = ws.trial[:] = s0.u.values, s0.v.values
    if (checked := ws.check_trial()) is None:
        raise ValueError("initial state must be positive and finite")
    sups = checked[0]
    sup0 = sups[0]
    cell0 = g.omega_n * float(g.weights[0])   # u_0 times this is cell 0's mass

    rows = array("d")  # SERIES_COLUMNS values, one row after another
    t = float(s0.t)
    row = ws.row(s0.t, 0.0, sups)
    rows.extend(row)
    # only retained states become StatePairs, which copy u and v
    snapshots = [s0]

    dt = cfg.dt_init
    steps = 0
    rejected = 0
    diverged = _non_finite(row)      # (t_detect, trigger) of a divergence
    i_grow: Optional[int] = None     # first row with sup_u grown
    share = 0.0                      # cell 0's share of the u mass
    eps_t = 1e-12 * cfg.t_end

    while (diverged is None and t < cfg.t_end - eps_t
           and steps < cfg.max_steps):
        dt_try = max(min(dt, cfg.dt_max, cfg.t_end - t), cfg.dt_min)
        at_floor = dt_try <= cfg.dt_min * (1.0 + 1e-12)
        ws.try_step(dt_try)
        checked = ws.check_trial()
        if checked is None or (checked[1] > _GROWTH_REJECT and not at_floor):
            rejected += 1
            if at_floor:
                diverged = (t, "step_rejected_at_dt_min")
                log.warning("step failed at dt_min=%.3g, t=%.6g: diverged", cfg.dt_min, t)
                break
            dt = max(0.5 * dt_try, cfg.dt_min)
            continue
        sups, gamma = checked
        ws.accept()
        t += dt_try
        steps += 1
        row = ws.row(t, dt_try, sups)
        rows.extend(row)
        if steps % cfg.snapshot_every == 0:
            snapshots.append(_state(g, *ws.state, t))
        diverged = _non_finite(row)
        if diverged is not None:
            log.warning("%s at t=%.6g: diverged", diverged[1], t)
            break
        if i_grow is None and row[_SUP_U] >= cfg.blowup_factor * sup0:
            i_grow = steps
        if i_grow is not None:
            share = cell0 * float(ws.state[0, 0]) / row[_MASS_U]
            if share >= 0.5:
                log.info("collapsed on the grid at t=%.6g after %d steps", t, steps)
                break
        dt = min(_DT_GROWTH * dt_try, cfg.dt_max)
        if gamma > 1.0:
            dt = min(dt, dt_try * _LN_GROWTH_TARGET / math.log(gamma))

    if steps % cfg.snapshot_every:
        snapshots.append(_state(g, *ws.state, t))
    table = np.frombuffer(rows).reshape(-1, len(SERIES_COLUMNS))
    series = {name: table[:, i].copy() for i, name in enumerate(SERIES_COLUMNS)}

    if diverged is not None:
        verdict = BlowupVerdict("diverged_numerically", *diverged)
    elif share >= 0.5:
        verdict = BlowupVerdict(
            outcome="blew_up", t_detect=float(series["t"][i_grow]),
            trigger=f"collapsed_on_grid: cell 0 holds {share:.3g} of the u "
                    f"mass, sup_u x{series['sup_u'][-1] / sup0:.3g}",
        )
    elif t < cfg.t_end - eps_t:
        verdict = BlowupVerdict(
            outcome="inconclusive", t_detect=None,
            trigger=f"step_budget_exhausted_at_t={t:.6g}",
        )
    else:
        verdict = BlowupVerdict("reached_t_end", None, "no blow-up footprint")
    log.info("run finished: %s after %d steps (%d rejected), t=%.6g",
             verdict.outcome, steps, rejected, t)
    return Trajectory(
        grid=g, config=cfg, series=series, snapshots=snapshots,
        verdict=verdict, rejected_steps=rejected,
    )
