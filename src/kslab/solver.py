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
scipy.linalg is most of the package's import time, so gtsv is loaded at
the first solve, not at import: kslab verify, plot and constants load no
scipy at all, and construct loads scipy.integrate at its first quad.
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

import logging
import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError

from .functionals import StatePair, _gradv_exponent, _report_arrays
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
# module docstring); an import statement in _gtsv would run twice a step
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


def _gtsv(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system whose upper, main and lower diagonals
    are rows 0, 1, 2 of the (3, N) block ab, laid out as for
    solve_banded((1, 1), ...); gtsv overwrites ab.  x is a fresh array:
    writing it into rhs instead raised the collapse run's peak RSS by 2 MB
    at N=8192 (allocator layout)."""
    global _dgtsv
    if _dgtsv is None:
        from scipy.linalg.lapack import dgtsv
        _dgtsv = dgtsv
    *_, x, info = _dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs, overwrite_dl=1,
                         overwrite_d=1, overwrite_du=1)
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


def _solve(g: RadialGrid, shift: np.ndarray | float, dt: float,
           rhs: np.ndarray) -> np.ndarray:
    """Solve ((shift) I - dt Lap) x = rhs, shift broadcastable."""
    ab = np.empty((3, g.ncells))
    ab[0, 1:] = -dt * g.lap_upper[:-1]
    ab[1, :] = shift - dt * g.lap_diag
    ab[2, :-1] = -dt * g.lap_lower[1:]
    return _gtsv(ab, rhs)


def _bernoulli(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B(delta), B(-delta)) for B(x) = x / (e^x - 1), from one expm1(|delta|):
    B(|d|) = |d| / expm1(|d|), which is 1 at 0 and 0 once expm1 overflows,
    and B(-|d|) = |d| + B(|d|).  Finite for every finite delta, and free of
    floating-point warnings."""
    a = np.abs(delta)
    with np.errstate(over="ignore"):
        e = np.expm1(a)
    small = np.ones_like(a)
    np.divide(a, e, out=small, where=a > 0.0)
    large = a + small
    ahead = delta >= 0.0
    return np.where(ahead, small, large), np.where(ahead, large, small)


def _drift_diffusion_solve(g: RadialGrid, u: np.ndarray, v_new: np.ndarray,
                           dt: float) -> np.ndarray:
    """u' from (W + dt K(v')) u' = W u with the Scharfetter-Gummel flux."""
    b_up, b_down = _bernoulli(v_new[1:] - v_new[:-1])
    dtt = dt * (g.face_area / g.face_dr)
    upper = dtt * b_up       # pull of u_{i+1} into cell i through face i
    lower = dtt * b_down     # pull of u_i into cell i+1 through face i
    ab = np.empty((3, g.ncells))
    ab[0, 1:] = -upper
    ab[2, :-1] = -lower
    ab[1, :] = g.weights
    ab[1, :-1] += lower
    ab[1, 1:] += upper
    return _gtsv(ab, g.weights * u)


def _step_arrays(g: RadialGrid, u: np.ndarray, v: np.ndarray, dt: float):
    """(u', v') for one step of size dt."""
    v_new = _solve(g, 1.0 + dt, dt, v + dt * u)
    return _drift_diffusion_solve(g, u, v_new, dt), v_new


def _state(g: RadialGrid, u: np.ndarray, v: np.ndarray, t: float) -> StatePair:
    return StatePair(RadialField(g, u), RadialField(g, v), t)


def step(s: StatePair, dt: float) -> StatePair:
    """One step of size dt.  Purely a function of (state, dt)."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    g = s.grid
    u_new, v_new = _step_arrays(g, np.asarray(s.u.values, float),
                                np.asarray(s.v.values, float), dt)
    return _state(g, u_new, v_new, s.t + dt)


def _valid(u: np.ndarray, v: np.ndarray) -> bool:
    """Every value positive and finite.  A NaN makes min and max NaN, and
    every comparison with NaN is false, so NaN fails like +-inf does."""
    return bool(u.min() > 0.0 and u.max() < math.inf
                and v.min() > 0.0 and v.max() < math.inf)


def _diagnostics_row(g: RadialGrid, u: np.ndarray, v: np.ndarray, t: float,
                     dt: float, gradv_p: float):
    """The SERIES_COLUMNS values of a state that _valid has passed."""
    rep, vr = _report_arrays(g, u, v)
    gradv = g.integrate_values(np.abs(vr) ** gradv_p) ** (1.0 / gradv_p)
    return (
        t, dt,
        g.integrate_values(u), g.integrate_values(v),
        float(np.max(u)), float(np.max(v)),
        rep.F, rep.D, math.sqrt(rep.f_norm_sq), math.sqrt(rep.g_norm_sq),
        gradv,
    )


def run(s0: StatePair, cfg: SolverConfig) -> Trajectory:
    """Integrate from s0 with adaptive dt until t_end, on-grid collapse,
    numerical divergence, or the step budget."""
    g = s0.grid
    u = np.asarray(s0.u.values, float)
    v = np.asarray(s0.v.values, float)
    if not _valid(u, v):
        raise ValueError("initial state must be positive and finite")
    sup0 = float(np.max(u))
    cell0 = g.omega_n * float(g.weights[0])   # u_0 times this is cell 0's mass

    rows = array("d")  # SERIES_COLUMNS values, one row after another
    t = float(s0.t)
    gradv_p = _gradv_exponent(g.n)
    rows.extend(_diagnostics_row(g, u, v, s0.t, 0.0, gradv_p))
    # only retained states become StatePairs, which copy u and v
    snapshots = [s0]

    dt = cfg.dt_init
    steps = 0
    rejected = 0
    diverged_at: Optional[float] = None
    i_grow: Optional[int] = None     # first row with sup_u grown
    share = 0.0                      # cell 0's share of the u mass
    eps_t = 1e-12 * cfg.t_end

    while t < cfg.t_end - eps_t and steps < cfg.max_steps:
        dt_try = max(min(dt, cfg.dt_max, cfg.t_end - t), cfg.dt_min)
        at_floor = dt_try <= cfg.dt_min * (1.0 + 1e-12)
        u_new, v_new = _step_arrays(g, u, v, dt_try)
        valid = _valid(u_new, v_new)
        gamma = float(np.max(u_new / u)) if valid else math.inf
        if not valid or (gamma > _GROWTH_REJECT and not at_floor):
            rejected += 1
            if at_floor:
                diverged_at = t
                log.warning("step failed at dt_min=%.3g, t=%.6g: diverged", cfg.dt_min, t)
                break
            dt = max(0.5 * dt_try, cfg.dt_min)
            continue
        u, v = u_new, v_new
        t += dt_try
        steps += 1
        row = _diagnostics_row(g, u, v, t, dt_try, gradv_p)
        rows.extend(row)
        if steps % cfg.snapshot_every == 0:
            snapshots.append(_state(g, u, v, t))
        if i_grow is None and row[_SUP_U] >= cfg.blowup_factor * sup0:
            i_grow = steps
        if i_grow is not None:
            share = cell0 * float(u[0]) / row[_MASS_U]
            if share >= 0.5:
                log.info("collapsed on the grid at t=%.6g after %d steps", t, steps)
                break
        dt = min(_DT_GROWTH * dt_try, cfg.dt_max)
        if gamma > 1.0:
            dt = min(dt, dt_try * _LN_GROWTH_TARGET / math.log(gamma))

    if steps % cfg.snapshot_every:
        snapshots.append(_state(g, u, v, t))
    table = np.frombuffer(rows).reshape(-1, len(SERIES_COLUMNS))
    series = {name: table[:, i].copy() for i, name in enumerate(SERIES_COLUMNS)}

    if diverged_at is not None:
        verdict = BlowupVerdict(
            outcome="diverged_numerically", t_detect=diverged_at,
            trigger="step_rejected_at_dt_min",
        )
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
