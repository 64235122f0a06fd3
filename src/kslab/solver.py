"""Time integration of the radial chemotaxis system with blow-up detection.

One IMEX step, in this order:

  1. v-update: backward Euler in the diffusion and decay terms with the
     current u as source, (1 + dt) v' - dt Lap v' = v + dt u.
  2. u-update: implicit diffusion, explicit upwinded chemotaxis flux built
     from the fresh v' face gradients,
     u' - dt Lap u' = u - dt div(u_upwind * grad v').

Both solves are tridiagonal.  The u-solve is done in increment form,
(I - dt Lap) du = dt (Lap u - div(...)), u' = u + du, which is the same
scheme in exact arithmetic but keeps the roundoff mass error proportional
to the actual motion du instead of to u itself.  Fluxes live on faces with
zero flux at r = 0 and r = R, so the u mass is conserved to solver roundoff
and the v mass obeys the exact discrete comparison
m_v' = (m_v + dt m_u)/(1 + dt).

The per-step energy comparison this scheme satisfies is the one natural to
implicit steps, with the dissipation evaluated at the arrival state:
F_{j+1} - F_j <= -dt_j D_{j+1} + scheme_tolerance(dt_j, F_j).  With the
dissipation at the departure state instead, stiff transients at large dt
genuinely violate the bound (backward Euler removes a stiff mode in one
step but only pays its energy once, while D_old charges lambda dt of it).

Step size control: dt follows the explicit advective CFL bound times the
constant safety factor _CFL_SAFETY, shrinks by halving whenever a trial
step goes nonpositive or non-finite, and grows by the constant factor
_DT_GROWTH toward dt_max otherwise.  A step that fails at dt_min ends the
run as numerically diverged; nonpositive values are never clipped into
validity.

Blow-up is declared when the sup of u has grown by blowup_factor over its
initial value AND the controller can no longer advance t.  Both signals
together are the operational footprint of finite-time blow-up under this
scheme; either alone is routine.  The controller is stuck in one of two
ways:

  * dt has been forced onto dt_min (a step accepted there, or a step
    rejected there), read from the recorded series;
  * dt is held above dt_min by the CFL bound, so the step budget runs out
    with t short of t_end.  This counts only if a whole fresh budget at
    the final state's bound, _CFL_SAFETY * CFL * max_steps, would not
    cover the remaining time t_end - t either; otherwise the run is
    inconclusive.

The CFL-stall test is applied once the budget is spent, never inside the
loop: a collapse keeps sharpening while dt sits on the CFL bound, and an
early stop would cut the run before the spike reaches the grid scale.
"""

from __future__ import annotations

import logging
import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_banded

from .functionals import StatePair, _gradv_exponent, _report_and_vr
from .grid import RadialField, RadialGrid

__all__ = [
    "SolverConfig",
    "BlowupVerdict",
    "Trajectory",
    "step",
    "run",
    "detect_blowup",
    "fit_blowup_time",
    "scheme_tolerance",
    "SERIES_COLUMNS",
]

log = logging.getLogger(__name__)

SERIES_COLUMNS = (
    "t", "dt", "mass_u", "mass_v", "sup_u", "sup_v",
    "F", "D", "f_l2", "g_l2", "gradv_lp",
)

# per-step defect allowance of the energy inequality check:
# F_{j+1} - F_j <= -D_{j+1} dt_j + scheme_tolerance(dt_j, F_j).
# The dt^2 term is the formal consistency defect of the first-order split;
# the floor absorbs roundoff in the functional evaluations themselves.
_C_SCHEME = 20.0
_TOL_FLOOR = 1e-12

_CFL_SAFETY = 0.9
_DT_GROWTH = 1.2


def scheme_tolerance(dt: float, F: float) -> float:
    return _C_SCHEME * dt * dt * (1.0 + abs(F)) + _TOL_FLOOR * (1.0 + abs(F))


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
    t_extrapolated: Optional[float]
    trigger: str


@dataclass
class Trajectory:
    grid: RadialGrid
    config: SolverConfig
    series: dict                      # column name -> np.ndarray, row 0 = initial state
    snapshots: list                   # [StatePair], initial and final always included
    verdict: BlowupVerdict
    rejected_steps: int = 0


def _solve(g: RadialGrid, shift: np.ndarray | float, dt: float,
           rhs: np.ndarray) -> np.ndarray:
    """Solve ((shift) I - dt Lap) x = rhs, shift broadcastable."""
    ab = np.zeros((3, g.ncells))
    ab[0, 1:] = -dt * g.lap_upper[:-1]
    ab[1, :] = shift - dt * g.lap_diag
    ab[2, :-1] = -dt * g.lap_lower[1:]
    return solve_banded((1, 1), ab, rhs, overwrite_ab=True, check_finite=False)


def _step_arrays(g: RadialGrid, u: np.ndarray, v: np.ndarray, dt: float):
    v_new = _solve(g, 1.0 + dt, dt, v + dt * u)
    vel = g.face_gradient(v_new)
    # upwind: chemotaxis flux u * v_r through each interior face
    upw = np.where(vel >= 0.0, u[:-1], u[1:])
    div = g.flux_divergence(g.face_area * vel * upw)
    du = _solve(g, 1.0, dt, dt * (g.laplacian(u) - div))
    return u + du, v_new


def step(s: StatePair, dt: float) -> StatePair:
    """One IMEX step of size dt.  Purely a function of (state, dt)."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    g = s.grid
    u_new, v_new = _step_arrays(g, np.asarray(s.u.values, float),
                                np.asarray(s.v.values, float), dt)
    return StatePair(RadialField(g, u_new), RadialField(g, v_new), s.t + dt)


def _cfl_bound(g: RadialGrid, u: np.ndarray, v: np.ndarray) -> float:
    """Largest dt for which explicit upwind advection keeps u nonnegative,
    estimated from the current v (the fresh v' can tighten it; the step
    rejection path catches that)."""
    vel = g.face_gradient(v)
    out = np.zeros_like(u)
    fa = g.face_area
    out[:-1] += fa * np.maximum(vel, 0.0) / g.weights[:-1]
    out[1:] += fa * np.maximum(-vel, 0.0) / g.weights[1:]
    mx = np.max(out)
    return math.inf if mx == 0.0 else 1.0 / mx


def _valid(u: np.ndarray, v: np.ndarray) -> bool:
    return (
        bool(np.all(np.isfinite(u)))
        and bool(np.all(np.isfinite(v)))
        and bool(np.all(u > 0.0))
        and bool(np.all(v > 0.0))
    )


def _diagnostics_row(s: StatePair, dt: float, gradv_p: float):
    g = s.grid
    rep, vr = _report_and_vr(s)
    gradv = g.integrate_values(np.abs(vr) ** gradv_p) ** (1.0 / gradv_p)
    return (
        s.t, dt,
        g.integrate_values(s.u.values), g.integrate_values(s.v.values),
        float(np.max(s.u.values)), float(np.max(s.v.values)),
        rep.F, rep.D, math.sqrt(rep.f_norm_sq), math.sqrt(rep.g_norm_sq),
        gradv,
    )


def run(s0: StatePair, cfg: SolverConfig) -> Trajectory:
    """Integrate from s0 with adaptive dt until t_end, blow-up detection,
    numerical divergence, or the step budget."""
    g = s0.grid
    u = np.asarray(s0.u.values, float)
    v = np.asarray(s0.v.values, float)
    if not _valid(u, v):
        raise ValueError("initial state must be positive and finite")
    sup0 = float(np.max(u))

    rows = array("d")  # SERIES_COLUMNS values, one row after another
    t = float(s0.t)
    gradv_p = _gradv_exponent(g.n)
    rows.extend(_diagnostics_row(s0, 0.0, gradv_p))
    snapshots = [s0]
    state = s0

    dt = cfg.dt_init
    steps = 0
    rejected = 0
    diverged_at: Optional[float] = None
    eps_t = 1e-12 * cfg.t_end

    while t < cfg.t_end - eps_t and steps < cfg.max_steps:
        cfl = _cfl_bound(g, u, v)
        dt_try = min(dt, cfg.dt_max, _CFL_SAFETY * cfl, cfg.t_end - t)
        dt_try = max(dt_try, cfg.dt_min)
        u_new, v_new = _step_arrays(g, u, v, dt_try)
        if not _valid(u_new, v_new):
            rejected += 1
            if dt_try <= cfg.dt_min * (1.0 + 1e-12):
                diverged_at = t
                log.warning("step failed at dt_min=%.3g, t=%.6g: diverged", cfg.dt_min, t)
                break
            dt = max(0.5 * dt_try, cfg.dt_min)
            continue
        u, v = u_new, v_new
        t += dt_try
        steps += 1
        state = StatePair(RadialField(g, u), RadialField(g, v), t)
        rows.extend(_diagnostics_row(state, dt_try, gradv_p))
        if steps % cfg.snapshot_every == 0:
            snapshots.append(state)
        # early exit once the blow-up footprint is complete
        if (
            float(np.max(u)) >= cfg.blowup_factor * sup0
            and dt_try <= cfg.dt_min * (1.0 + 1e-9)
        ):
            log.info("blow-up footprint at t=%.6g after %d steps", t, steps)
            break
        dt = min(dt_try * _DT_GROWTH, cfg.dt_max)

    if snapshots[-1] is not state:
        snapshots.append(state)
    table = np.frombuffer(rows).reshape(-1, len(SERIES_COLUMNS))
    series = {name: table[:, i].copy() for i, name in enumerate(SERIES_COLUMNS)}

    if diverged_at is not None:
        # The controller can no longer advance: a step failed at dt_min.
        # If the growth half of the blow-up footprint is already in, this
        # is the collapse completing, not a scheme failure.
        if np.max(series["sup_u"]) >= cfg.blowup_factor * sup0:
            verdict = BlowupVerdict(
                outcome="blew_up", t_detect=diverged_at,
                t_extrapolated=fit_blowup_time(series["t"], series["sup_u"]),
                trigger="controller stalled at dt_min after sup_u growth",
            )
        else:
            verdict = BlowupVerdict(
                outcome="diverged_numerically", t_detect=diverged_at,
                t_extrapolated=None, trigger="step_rejected_at_dt_min",
            )
    else:
        verdict = detect_blowup(series, cfg.blowup_factor, cfg.dt_min)
        if verdict.outcome == "reached_t_end" and t < cfg.t_end - eps_t:
            # The step budget ran out short of t_end.  If sup_u has grown
            # and the CFL bound holds dt so low that another whole budget
            # would not reach t_end either, the collapse is outrunning the
            # controller above dt_min: the same footprint as a stall at
            # dt_min.  Otherwise more steps might still settle the run.
            grew = series["sup_u"] >= cfg.blowup_factor * sup0
            reach = _CFL_SAFETY * _cfl_bound(g, u, v) * cfg.max_steps
            if np.any(grew) and reach < cfg.t_end - t:
                verdict = BlowupVerdict(
                    outcome="blew_up",
                    t_detect=float(series["t"][int(np.argmax(grew))]),
                    t_extrapolated=fit_blowup_time(series["t"], series["sup_u"]),
                    trigger="step budget exhausted with dt held by the CFL "
                            "bound after sup_u growth",
                )
            else:
                verdict = BlowupVerdict(
                    outcome="inconclusive", t_detect=None, t_extrapolated=None,
                    trigger=f"step_budget_exhausted_at_t={t:.6g}",
                )
    log.info("run finished: %s after %d steps (%d rejected), t=%.6g",
             verdict.outcome, steps, rejected, t)
    return Trajectory(
        grid=g, config=cfg, series=series, snapshots=snapshots,
        verdict=verdict, rejected_steps=rejected,
    )


def detect_blowup(series: dict, blowup_factor: float, dt_min: float) -> BlowupVerdict:
    """Post-hoc classification of a recorded series.

    blew_up needs both signals: sup_u grew by blowup_factor over its initial
    value, and the step controller was forced onto dt_min.  The reported
    t_extrapolated comes from a power-law fit sup_u ~ C (T - t)^{-q} over
    the growing tail.
    """
    t = series["t"]
    dt = series["dt"]
    sup = series["sup_u"]
    if t.size == 0:
        raise ValueError("empty series")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(sup))):
        return BlowupVerdict("diverged_numerically", None, None, "nonfinite_series")

    sup0 = sup[0]
    grew = sup >= blowup_factor * sup0
    stepped = dt > 0.0  # row 0 records the initial state with dt = 0
    collapsed = stepped & (dt <= dt_min * (1.0 + 1e-9))
    if np.any(grew) and np.any(collapsed):
        i_grow = int(np.argmax(grew))
        i_coll = int(np.argmax(collapsed))
        i_det = max(i_grow, i_coll)
        t_ex = fit_blowup_time(t, sup)
        return BlowupVerdict(
            outcome="blew_up", t_detect=float(t[i_det]), t_extrapolated=t_ex,
            trigger=f"sup_u x{sup[i_det] / sup0:.3g} with dt at dt_min",
        )
    return BlowupVerdict("reached_t_end", None, None, "no blow-up footprint")


def fit_blowup_time(t: np.ndarray, sup: np.ndarray) -> Optional[float]:
    """Least-squares fit of sup ~ C (T - t)^{-q} on the growing tail.

    For each candidate T the model is linear in (log(T - t), log sup); T is
    picked by golden-section search on the residual.  Returns None when
    there is not enough growth to pin a singularity down.
    """
    smax = float(np.max(sup))
    # On-grid collapse saturates at sup ~ mass / (smallest cell volume) and
    # piles up rows there; fit the free-growth band and drop the pile-up.
    keep = (sup >= 4.0 * sup[0]) & (sup <= 0.5 * smax) & (sup > 0)
    tt, ss = t[keep], sup[keep]
    if tt.size < 8 or ss[-1] < 4.0 * ss[0]:
        # Short burst or no saturation: fall back to the growing tail.
        n = t.size
        i0 = int(np.argmax(sup >= 2.0 * sup[0])) if np.any(
            sup >= 2.0 * sup[0]) else 0
        tt = t[max(i0, n - 400):]
        ss = sup[max(i0, n - 400):]
        pos = ss > 0
        tt, ss = tt[pos], ss[pos]
        if tt.size < 8 or ss[-1] < 4.0 * ss[0]:
            return None
    ls = np.log(ss)
    t_last = tt[-1]
    span = t_last - tt[0]

    def resid(T: float) -> float:
        x = np.log(T - tt)
        A = np.vstack([x, np.ones_like(x)]).T
        sol, res, *_ = np.linalg.lstsq(A, ls, rcond=None)
        if res.size == 0:
            return float(np.sum((A @ sol - ls) ** 2))
        return float(res[0])

    lo = t_last + 1e-9 * span
    hi = t_last + 10.0 * span
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = resid(c), resid(d)
    for _ in range(200):
        if abs(b - a) <= 1e-12 * span:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = resid(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = resid(d)
    return float(0.5 * (a + b))
