"""Executable checks for the identities and inequalities the solver relies on.

Two families:

  - trajectory checks: conservation identities, the per-step energy
    inequality, t-uniform bound diagnostics, and the paper's explicit
    blow-up criterion on y = -F;
  - a corpus suite: functional inequalities evaluated member by member on a
    set of admissible states, reporting the observed worst ratio and never
    asserting a specific constant (the underlying constants are
    non-constructive; only boundedness across the corpus is checkable).

"No growth trend" for t-uniform bounds is operationalized as: the
supremum of the ratio over the last quarter of the time span is at most 1.5
times its supremum over the first quarter.  A finite run cannot certify
t-uniformity; this is the concrete surrogate used throughout.  The
paper's bounds hold only up to the blow-up time, so on a run whose
verdict is blew_up both bound checks judge only the times
t <= t_detect (1 + 1e-12), and every time otherwise (_judged).

The energy law is the one each step of the solver satisfies exactly, for
every dt: with D_{j+1} the step's dissipation, ||(v' - v)/dt||^2 plus the
Scharfetter-Gummel entropy production of the arrival state,

    F_{j+1} - F_j <= -dt_j D_{j+1}.

The v-part is an exact quadratic identity: F is quadratic in v, and the
v-solve makes (v' - v)/dt = Lap v' - v' + u with the departure u.  The
u-part follows from the convexity of s ln s and the u-solve's mass
conservation.  So check_energy_inequality allows every row roundoff
alone: _TOL_FLOOR (1 + |F_j|).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .functionals import (
    EnergyReport,
    StatePair,
    _gradv_exponent,
    constant_energy,
    energy_report,
    theta_exponent,
)
from .initial_data import BlowupDatum
from .solver import Trajectory

__all__ = [
    "CheckReport",
    "StateCorpus",
    "check_conservation",
    "check_energy_inequality",
    "check_pointwise_bound",
    "check_gradv_lp",
    "check_odi_blowup",
    "check_lemma14_sequence",
    "inequality_suite",
    "trajectory_battery",
]

log = logging.getLogger(__name__)

MASS_DRIFT_TOL = 1e-10
V_MASS_TOL = 1e-8
GROWTH_LIMIT = 1.5
# the first family index of the tail check_lemma14_sequence judges
TAIL_START = 10

# roundoff in the functional evaluations themselves, relative to 1 + |F|
_TOL_FLOOR = 1e-12


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    worst_ratio: float
    location: object = None       # t, r, k, or member label of the worst case
    details: dict = field(default_factory=dict)
    notes: str = ""

    def __str__(self):
        flag = "PASS" if self.passed else "FAIL"
        loc = f" @ {self.location}" if self.location is not None else ""
        return f"[{flag}] {self.name}: worst_ratio={self.worst_ratio:.6g}{loc} {self.notes}"


def _quartile_trend(values: np.ndarray, times: np.ndarray) -> tuple[bool, float]:
    """Sup over the last quarter of the time span vs sup over the first;
    trivially flat for short series."""
    if values.size < 4:
        return True, 1.0
    q = 0.25 * (times[-1] - times[0])
    lead = float(np.max(values[times <= times[0] + q]))
    tail = float(np.max(values[times >= times[-1] - q]))
    if lead == 0.0:
        return tail == 0.0, math.inf if tail > 0 else 1.0
    return tail <= GROWTH_LIMIT * lead, tail / lead


def check_conservation(traj: Trajectory) -> CheckReport:
    """Mass of u constant to 1e-10 relative; mass of v never above
    max of the two initial masses (up to 1e-8)."""
    s = traj.series
    mu = s["mass_u"]
    mv = s["mass_v"]
    if mu.size == 0:
        raise ValueError("empty trajectory")
    drift = np.abs(mu - mu[0]) / abs(mu[0])
    j_u = int(np.argmax(drift))
    cap = max(mu[0], mv[0])
    v_excess = mv / cap - 1.0
    j_v = int(np.argmax(v_excess))
    ok_u = bool(drift[j_u] <= MASS_DRIFT_TOL)
    ok_v = bool(v_excess[j_v] <= V_MASS_TOL)
    return CheckReport(
        name="conservation",
        passed=ok_u and ok_v,
        worst_ratio=float(drift[j_u]),
        location=float(s["t"][j_u]),
        details={
            "u_mass_drift": float(drift[j_u]),
            "u_mass_drift_t": float(s["t"][j_u]),
            "v_mass_excess": float(v_excess[j_v]),
            "v_mass_excess_t": float(s["t"][j_v]),
            "v_mass_cap": float(cap),
        },
    )


def check_energy_inequality(traj: Trajectory) -> CheckReport:
    """Per-step margin F_{j+1} - F_j + dt_j D_{j+1} - _TOL_FLOOR (1 + |F_j|)
    of the energy law on every row.  Passes only when every margin is
    <= 0.
    """
    s = traj.series
    F, D, dt = s["F"], s["D"], s["dt"]
    if F.size < 2:
        return CheckReport("energy_inequality", True, 0.0,
                           notes="fewer than two records")
    # argmax stops at the first NaN, so a non-finite margin fails the
    # check and is reported as the worst row
    m = F[1:] - F[:-1] + D[1:] * dt[1:] - _TOL_FLOOR * (1.0 + np.abs(F[:-1]))
    j = int(np.argmax(m))
    return CheckReport(
        name="energy_inequality",
        passed=bool(np.all(m <= 0.0)),
        worst_ratio=float(m[j]),
        location=float(s["t"][j + 1]),
        details={"rows_checked": int(m.size)},
        notes="worst_ratio is the worst signed margin (<= 0 passes)",
    )


def _snapshot_sup_vrk(snap: StatePair, kappa: float) -> float:
    r = snap.grid.centers
    return float(np.max(snap.v.values * r ** kappa))


def _initial_norms(traj: Trajectory) -> tuple[float, float, float]:
    """|u0|_1, |v0|_1 (the masses, as u0, v0 > 0) and |grad v0|_2 (the face
    form of F's gradient term) of the run's first snapshot, s0."""
    rep = energy_report(traj.snapshots[0])
    return rep.mass_u, rep.mass_v, math.sqrt(rep.grad_v_sq)


def _trend_report(name: str, ratios: np.ndarray, times: np.ndarray,
                  key: str, details: dict) -> CheckReport:
    """Pass when the ratio series is finite with no quartile growth trend;
    report its maximum under `key` ahead of the given details."""
    ok_trend, trend = _quartile_trend(ratios, times)
    finite = bool(np.all(np.isfinite(ratios)))
    j = int(np.argmax(ratios))
    return CheckReport(
        name=name,
        passed=finite and ok_trend,
        worst_ratio=float(ratios[j]),
        location=float(times[j]),
        details={key: float(ratios[j]), "quartile_growth": float(trend),
                 **details},
    )


def _judged(traj: Trajectory, t: np.ndarray) -> np.ndarray:
    """The times a bound check judges: t <= t_detect (1 + 1e-12) if blew_up."""
    if traj.verdict.outcome != "blew_up":
        return np.ones(t.size, bool)
    return t <= traj.verdict.t_detect * (1 + 1e-12)


def check_pointwise_bound(traj: Trajectory, kappa: float) -> CheckReport:
    """sup_r v(r,t) r^kappa, normalized by |u0|_1 + |v0|_1 + |grad v0|_2,
    finite with no growth trend in t, over the times _judged keeps."""
    theta_exponent(traj.grid.n, kappa)   # refuses kappa <= n - 2
    u0_l1, v0_l1, gradv0_l2 = _initial_norms(traj)
    denom = u0_l1 + v0_l1 + gradv0_l2
    times = np.array([s.t for s in traj.snapshots])
    keep = _judged(traj, times)
    snaps = [s for s, k in zip(traj.snapshots, keep) if k]
    sups = np.array([_snapshot_sup_vrk(s, kappa) for s in snaps]) / denom
    return _trend_report(f"pointwise_bound_kappa={kappa:g}", sups,
                         times[keep], "empirical_C_kappa",
                         {"n_snapshots": len(snaps), "denominator": denom})


def check_gradv_lp(traj: Trajectory) -> CheckReport:
    """|grad v(t)|_p / (|u0|_1 + |grad v0|_2) bounded with no growth trend
    over the times _judged keeps, read from the per-step series column,
    which the solver records at p = functionals._gradv_exponent(n).
    """
    p = _gradv_exponent(traj.grid.n)
    s = traj.series
    keep = _judged(traj, s["t"])
    u0_l1, _, gradv0_l2 = _initial_norms(traj)
    denom = u0_l1 + gradv0_l2
    return _trend_report(f"gradv_lp_p={p:g}", s["gradv_lp"][keep] / denom,
                         s["t"][keep], "empirical_C_p", {"denominator": denom})


def check_odi_blowup(traj: Trajectory, theta: float) -> CheckReport:
    """The paper's explicit blow-up criterion with K = K_hat = -F_c(m).

    The constant state of mass m has D = 0, so K_hat is the least K that
    -F <= K (D^theta + 1) admits at m.  If y0 = -F(s0) > K, y = -F obeys
    y' = D >= (y/K - 1)^{1/theta} and blows up before
    T_ODI = t0 + K theta/(1-theta) (y0/K - 1)^{-(1-theta)/theta}.  Passes
    iff the run ended blew_up with t_detect <= T_ODI(K_hat); worst_ratio
    is (t_detect - t0) / (T_ODI - t0), inf if it did not blow up.
    Inapplicable (reported, not failed) when y0 <= K_hat + _TOL_FLOOR
    (1 + |y0|): the grid's sum F and the closed form F_c differ by
    roundoff, so the constant state itself may read y0 > K_hat.

    Strict in both directions: the paper's K is at least K_hat and T_ODI
    grows with K, so T_ODI(K_hat) <= T_ODI(K) makes the time test stricter
    than the paper's, and y0 > K_hat is necessary for its premise y0 > K,
    but not sufficient.
    """
    if not 0.5 < theta < 1.0:
        raise ValueError(f"theta must lie in (1/2, 1), got {theta}")
    s, v = traj.series, traj.verdict
    t0, y0 = float(s["t"][0]), -float(s["F"][0])
    k_hat = -constant_energy(traj.grid, float(s["mass_u"][0]))
    applicable = y0 > k_hat + _TOL_FLOOR * (1.0 + abs(y0))
    t_odi = ratio = math.nan
    if applicable:
        span = (k_hat * theta / (1.0 - theta)
                * (y0 / k_hat - 1.0) ** (-(1.0 - theta) / theta))
        t_odi = t0 + span
        ratio = (v.t_detect - t0) / span if v.outcome == "blew_up" else math.inf
    return CheckReport(
        name="odi_blowup",
        passed=bool(not applicable or ratio <= 1.0),
        worst_ratio=float(ratio),
        location=v.t_detect,
        details={"applicable": applicable, "K_hat": k_hat, "y0": y0,
                 "T_ODI": t_odi, "t_detect": v.t_detect},
        notes=(f"K_hat={k_hat:.6g}, -F(s0)={y0:.6g}, T_ODI={t_odi:.6g}"
               + ("" if applicable else " (inapplicable: -F(s0) <= K_hat)")),
    )


def check_lemma14_sequence(data: Sequence[BlowupDatum]) -> CheckReport:
    """Convergence/divergence pattern of a constructed data sequence.

    (a) both distance norms decrease monotonically over the tail
        (k >= TAIL_START) toward below 1e-2 of their first-k values;
    (b) F0 monotone decreasing over the tail and, at the largest k, below
        F0 at the first k, i.e. strictly more negative than where it started;
    (c) the uv integral grows at least linearly: uv/k >= 0.8 omega_n
        u(0) v(0) over the tail.
    """
    if len(data) < 3:
        raise ValueError("need at least 3 data")
    ks = [d.k for d in data]
    if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
        raise ValueError(f"k must be strictly ascending, got {ks}")
    tail = [d for d in data if d.k >= TAIL_START]
    if len(tail) < 2:
        raise ValueError(f"no tail: need at least 2 data with k >= {TAIL_START}")
    du = np.array([d.du_lp for d in tail])
    dv = np.array([d.dv_w12 for d in tail])
    f0 = np.array([d.F0 for d in tail])
    uvk = np.array([d.uv_over_k for d in tail])
    head = data[0]
    mono = bool(np.all(np.diff(du) < 0) and np.all(np.diff(dv) < 0))
    small = bool(du[-1] < 1e-2 * head.du_lp and dv[-1] < 1e-2 * head.dv_w12)
    f0_ok = bool(np.all(np.diff(f0) < 0) and f0[-1] < head.F0)
    floor = 0.8 * head.u0.grid.omega_n * head.center_uv
    uv_ok = bool(np.all(uvk >= floor))
    worst = float(np.min(uvk) / floor) if floor > 0 else math.inf
    return CheckReport(
        name="lemma14_sequence",
        passed=mono and small and f0_ok and uv_ok,
        worst_ratio=worst,
        location=int(tail[int(np.argmin(uvk))].k),
        details={
            "norms_monotone": mono,
            "norms_small": small,
            "du_last_over_first": float(du[-1] / head.du_lp),
            "dv_last_over_first": float(dv[-1] / head.dv_w12),
            "F0_monotone_below_threshold": f0_ok,
            "F0_last": float(f0[-1]),
            "uv_over_k_min": float(np.min(uvk)),
            "uv_floor": floor,
        },
    )


# -- corpus suite ------------------------------------------------------------

@dataclass(frozen=True)
class _MemberStats:
    label: str
    rep: EnergyReport
    r0: float                 # the inner/outer split radius
    grad_v_sq_inner: float    # the part of rep.grad_v_sq on faces below r0

    @property
    def f_l2(self) -> float:
        return math.sqrt(self.rep.f_norm_sq)

    @property
    def g_l2(self) -> float:
        return math.sqrt(self.rep.g_norm_sq)


def _split_exponent(n: int, kappa: float) -> float:
    """beta = (2n+4) kappa / n, the power of the inner/outer split radius."""
    return (2.0 * n + 4.0) * kappa / n


def _member_stats(label: str, s: StatePair, beta: float) -> _MemberStats:
    try:
        rep = energy_report(s)
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from exc
    g = s.grid
    f_l2 = math.sqrt(rep.f_norm_sq)
    # the inner/outer split radius used by the interior/exterior estimates,
    # applied to the face radii of the gradient term
    r0 = min(g.R / 2.0, f_l2 ** (-2.0 / (beta + 1.0))) if f_l2 > 0 else g.R / 2.0
    inner = g.edges[1:-1] < r0
    d2 = np.square(np.diff(s.v.values)[inner])
    return _MemberStats(label, rep, r0,
                        g.omega_n * float(np.sum(g.trans[inner] * d2)))


@dataclass(frozen=True)
class StateCorpus:
    """The per-member numbers of labeled admissible states in dimension n,
    for the decay exponent kappa.  Masses are recorded per member, so the
    corpus may mix masses.
    """
    stats: tuple              # (_MemberStats, ...), one per member
    n: int
    kappa: float

    @staticmethod
    def from_states(labeled: Sequence[tuple[str, StatePair]],
                    kappa: float) -> "StateCorpus":
        """Check each (label, state) positive and compute its numbers once."""
        if not labeled:
            raise ValueError("corpus must be nonempty")
        n = labeled[0][1].grid.n
        theta_exponent(n, kappa)      # kappa > n - 2, before beta is used
        beta = _split_exponent(n, kappa)
        stats = []
        for label, s in labeled:
            if s.grid.n != n:
                raise ValueError("corpus members must share the dimension n")
            stats.append(_member_stats(label, s, beta))
        return StateCorpus(stats=tuple(stats), n=n, kappa=kappa)

    @property
    def size(self) -> int:
        return len(self.stats)


def inequality_suite(corpus: StateCorpus) -> list[CheckReport]:
    """Ratio checks for the interpolation and coupling inequalities.

    For each inequality the reported worst_ratio strips the
    non-constructive constant: inequalities of the shape
    LHS <= eps X + C Y report max (LHS - eps X)/Y with eps = 0.25,
    pure-constant shapes report max LHS/RHS.  Pass means finite over the
    corpus; the empirical constant is the persisted ratio, never an
    asserted value.
    """
    eps = 0.25
    n = corpus.n
    theta = theta_exponent(n, corpus.kappa)
    beta = _split_exponent(n, corpus.kappa)
    q74 = (2.0 * n + 4.0) / (n + 4.0)
    stats = corpus.stats
    members = [(st, st.rep) for st in stats]

    def report(name: str, vals: list[float], note: str = "") -> CheckReport:
        arr = np.array(vals)
        j = int(np.argmax(arr))
        return CheckReport(
            name=name,
            passed=bool(np.all(np.isfinite(arr))),
            worst_ratio=float(arr[j]),
            location=stats[j].label,
            details={"corpus_size": len(stats), "empirical_constant": float(arr[j])},
            notes=note,
        )

    out = []
    out.append(report(
        "gn_l2_interpolation",
        [math.sqrt(r.v_sq) / (r.grad_v_sq ** (0.5 * n / (n + 2.0))
                              * r.mass_v ** (2.0 / (n + 2.0)) + r.mass_v)
         for st, r in members],
        note="|v|_2 vs |grad v|_2^{n/(n+2)} |v|_1^{2/(n+2)} + |v|_1",
    ))
    out.append(report(
        "gn_l2_squared",
        [(r.v_sq - eps * r.grad_v_sq) / r.mass_v ** 2 for st, r in members],
        note=f"(|v|_2^2 - {eps} |grad v|_2^2) / |v|_1^2",
    ))
    out.append(report(
        "outer_gradient",
        [(r.grad_v_sq - st.grad_v_sq_inner - eps * r.uv - eps * r.grad_v_sq)
         / (st.r0 ** (-beta) + st.f_l2 ** q74) for st, r in members],
        note="outer |grad v|^2 vs r0^{-beta} + |f|^{(2n+4)/(n+4)}",
    ))
    out.append(report(
        "inner_gradient",
        [st.grad_v_sq_inner / (st.r0 * st.f_l2 ** 2 + st.g_l2 + r.v_sq + 1.0)
         for st, r in members],
        note="inner |grad v|^2 vs r0 |f|^2 + |g| + |v|_2^2 + 1",
    ))
    out.append(report(
        "gradient_vs_dissipation",
        [(r.grad_v_sq - eps * r.uv) / (st.f_l2 ** (2 * theta) + st.g_l2 + 1.0)
         for st, r in members],
        note="|grad v|^2 - eps uv vs |f|^{2 theta} + |g| + 1",
    ))
    out.append(report(
        "uv_vs_gradient",
        [(r.uv - 2.0 * r.grad_v_sq) / (st.f_l2 ** q74 + 1.0)
         for st, r in members],
        note="uv - 2 |grad v|^2 vs |f|^{(2n+4)/(n+4)} + 1",
    ))
    out.append(report(
        "uv_vs_dissipation",
        [r.uv / (st.f_l2 ** (2 * theta) + st.g_l2 + 1.0)
         for st, r in members],
        note="uv vs |f|^{2 theta} + |g| + 1",
    ))
    out.append(report(
        "energy_vs_dissipation",
        [-r.F / (r.D ** theta + 1.0) for st, r in members],
        note="-F vs D^theta + 1",
    ))
    for rep_ in out:
        log.info("%s", rep_)
    return out


def trajectory_battery(traj: Trajectory, kappa: float) -> list[CheckReport]:
    """The standard per-run battery: conservation, energy inequality,
    pointwise bound, grad-v ratio, and the ODI blow-up criterion at
    K_hat = -F_c(m)."""
    theta = theta_exponent(traj.grid.n, kappa)
    return [
        check_conservation(traj),
        check_energy_inequality(traj),
        check_pointwise_bound(traj, kappa),
        check_gradv_lp(traj),
        check_odi_blowup(traj, theta),
    ]
