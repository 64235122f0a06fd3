"""Energy, dissipation, residuals, and admissible-parameter bookkeeping.

The chemotaxis system evolved here is

    u_t = Lap u - div(u grad v),      v_t = Lap v - v + u,

with Neumann boundaries on a ball in R^n.  Its Lyapunov functional is

    F(u, v) = 1/2 int |grad v|^2 + 1/2 int v^2 - int u v + int u ln u,

and along solutions dF/dt <= -D with

    D(u, v) = int v_t^2 + int u |grad(ln u - v)|^2 = ||f||_2^2 + ||g||_2^2,
    f = -Lap v + v - u.

D is evaluated through f and g (the PDE identity), never by differencing F
in time, so it is well defined for a single state.

Every gradient lives on the grid's interior faces, where the solver steps
the system.  With d = v_{i+1} - v_i across face i, trans its
transmissibility and w the cell weights, the grid forms are

    int |grad v|^2 ~ omega_n sum trans d^2,
    int |grad v|^p ~ omega_n sum face_area face_dr |d / face_dr|^p,
    ||g||_2^2 ~ P_SG = omega_n sum trans J (mu_i - mu_{i+1}),
    J = B(-d) u_i - B(d) u_{i+1},   mu = ln u - v,   B(x) = x / (e^x - 1),

where trans J is the Scharfetter-Gummel flux of the solver's u-step, and
the cell terms are omega_n sum w (...).  The first is the exact summation
by parts of -int v Lap v with the grid Laplacian.  Each P_SG term is >= 0,
since J = B(d) e^{v_{i+1}} (u_i e^{-v_i} - u_{i+1} e^{-v_{i+1}}) has the
sign of mu_i - mu_{i+1}, and is 0 on every constant state; a term that
roundoff makes negative counts as 0.

The D of a state (energy_report, dissipation) takes f against the state's
own u.  The D of a step from (u, v) to (u', v'), which the solver's series
records, takes f = -Lap v' + v' - u against the departure u, which the
v-solve makes equal to (v - v')/dt, plus P_SG(u', v'); with it each step
satisfies F(u', v') - F(u, v) <= -dt D_step exactly (see the verifier).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import RadialField, RadialGrid

__all__ = [
    "StatePair",
    "EnergyReport",
    "ParamWindow",
    "energy",
    "energy_report",
    "residual_f",
    "dissipation",
    "theta_exponent",
    "lp_norm",
    "sup_norm",
    "param_window",
]

# only guards log(0) underflow; positivity violations are rejected, not hidden
_ENTROPY_CLAMP = 1e-300

# B(a) = a / expm1(a) is exactly 1 below about 5e-17, where expm1(a) rounds
# to a: taking a >= _A_FLOOR keeps 0/0 out of the divide, and subnormals,
# which cost an SG step on a flat v a fifth of its time, out of both
_A_FLOOR = 1e-300


@dataclass(frozen=True)
class StatePair:
    """A (cell density, signal concentration) pair on a shared grid at time t."""

    u: RadialField
    v: RadialField
    t: float = 0.0

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise ValueError("u and v must live on the same grid")

    @property
    def grid(self):
        return self.u.grid


@dataclass(frozen=True)
class EnergyReport:
    """F and D with their pieces; F = 0.5*grad_v_sq + 0.5*v_sq - uv + entropy
    and D = f_norm_sq + g_norm_sq hold exactly as bookkeeping identities.
    grad_v_sq is the face sum of trans d^2 and g_norm_sq is P_SG."""

    F: float
    grad_v_sq: float
    v_sq: float
    uv: float
    entropy: float
    D: float
    f_norm_sq: float
    g_norm_sq: float


def _require_positive(vals: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{name} contains non-finite values")
    if np.any(vals <= 0.0):
        raise ValueError(f"{name} must be strictly positive everywhere")


def _bernoulli(delta: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """[B(delta); B(-delta)] for B(x) = x / (e^x - 1), into out, a (2, M)
    buffer for M deltas (new if None), from one expm1: with a = |delta|,
    B(+-delta) = B(a) + max(-+delta, 0), where B(a) = a / expm1(a) is 0
    once expm1 overflows, and 1 at a = 0.  Finite for every finite delta,
    and free of floating-point warnings.  delta is overwritten."""
    if out is None:
        out = np.empty((2, delta.size))
    b, b_neg = out
    np.maximum(np.abs(delta, out=b_neg), _A_FLOOR, out=b_neg)
    with np.errstate(over="ignore"):
        np.expm1(b_neg, out=b)
    np.divide(b_neg, b, out=b)                    # B(a)
    np.maximum(delta, 0.0, out=b_neg)
    np.subtract(b_neg, delta, out=delta)          # max(-delta, 0), exactly
    b_neg += b
    b += delta
    return out


def energy(s: StatePair) -> float:
    """The Lyapunov functional F(u, v)."""
    return energy_report(s).F


def residual_f(s: StatePair) -> RadialField:
    """f = -Lap v + v - u, the v-equation residual (equals -v_t along solutions)."""
    g = s.grid
    v = s.v.values
    return RadialField(g, -g.laplacian(v) + v - s.u.values)


def dissipation(s: StatePair) -> float:
    """D = ||f||_2^2 + P_SG >= 0, the energy dissipation rate."""
    return energy_report(s).D


def energy_report(s: StatePair) -> EnergyReport:
    """F and D with their pieces: one positivity check of u and of v, and
    one pass over both."""
    u, v = s.u.values, s.v.values
    _require_positive(u, "u")
    _require_positive(v, "v")
    return _report_arrays(s.grid, u, v)[0]


def _report_arrays(g: RadialGrid, u: np.ndarray,
                   v: np.ndarray) -> tuple[EnergyReport, np.ndarray]:
    """energy_report on bare arrays, with no positivity check, and the
    face row trans d^2 summed into its grad_v_sq: for callers that have
    already checked u and v and may reuse that row."""
    block = np.empty((_REPORT_ROWS, g.ncells))
    sums = _integrals(g, np.stack((u, v)), u, block)
    return _report(sums), block[0, :-1]


# what _integrals writes into each row of its block, in order (each row is
# its own sum; see the module docstring).  Rows 0, 1 and 8 are face rows,
# in the first N - 1 entries, summed against trans, trans and face_area
# (d = v_{i+1} - v_i, p_n is _gradv_exponent(n)); the rest are cell rows,
# summed against the weights.  An EnergyReport needs the first
# _REPORT_ROWS; the solver's series also records the rest, and the pow of
# the last would add about a quarter to an energy report at N = 8192
_INTEGRANDS = ("d^2", "P_SG", "f^2", "v^2", "u v", "u ln u", "u", "v",
               "face_dr |d/face_dr|^p_n")
_REPORT_ROWS = 6


def _integrals(g: RadialGrid, uv: np.ndarray, source: np.ndarray,
               block: np.ndarray, sums: np.ndarray = None) -> list:
    """The integrals over the ball of the first len(block) _INTEGRANDS of
    the (2, N) state uv, as a list of floats, with f = -Lap v + v - source
    (source is uv's own u for the D of a state, the step's departure u for
    D_step).  block, _REPORT_ROWS or len(_INTEGRANDS) rows of N, takes each
    integrand in its row, and its rows serve as scratch before that;
    vecdots against the face and cell weights reduce them into sums (new
    if None): bitwise omega_n * np.dot(weights, row) of each row."""
    u, v = uv
    faces = block[:, :-1]
    d2, p_sg, f = faces[0], faces[1], block[2]
    g.laplacian(v, out=f, work=block[3])
    np.subtract(v, f, out=f)          # f = -Lap v + v - source
    f -= source
    if len(block) > _REPORT_ROWS:
        block[6:8] = uv
        lp = g.face_gradient(v, out=faces[8])
        np.power(np.abs(lp, out=lp), _gradv_exponent(g.n), out=lp)
        lp *= g.face_dr
    d = np.subtract(v[1:], v[:-1], out=p_sg)
    np.square(d, out=d2)
    b_u, flux = _bernoulli(d, out=faces[3:5])     # B(d), B(-d)
    b_u *= u[1:]
    flux *= u[:-1]
    flux -= b_u                       # J = B(-d) u_i - B(d) u_{i+1}
    log_u = np.log(np.maximum(u, _ENTROPY_CLAMP, out=block[5]), out=block[5])
    mu = np.subtract(log_u, v, out=block[1])
    dmu = np.subtract(mu[:-1], mu[1:], out=b_u)
    np.multiply(flux, dmu, out=p_sg)
    np.maximum(p_sg, 0.0, out=p_sg)
    np.square(f, out=f)
    np.square(v, out=block[3])
    np.multiply(u, v, out=block[4])
    log_u *= u                        # u ln u
    sums = np.empty(len(block)) if sums is None else sums
    np.vecdot(faces[:2], g.trans, out=sums[:2])
    np.vecdot(block[2:8], g.weights, out=sums[2:8])
    if len(block) > _REPORT_ROWS:
        np.vecdot(faces[8:], g.face_area, out=sums[8:])
    sums *= g.omega_n
    return sums.tolist()


def _energy_dissipation(sums) -> tuple[float, float]:
    """F and D from the first _REPORT_ROWS _integrals."""
    d2, p_sg, f2, v_sq, uv, entropy = sums[:_REPORT_ROWS]
    return 0.5 * d2 + 0.5 * v_sq - uv + entropy, f2 + p_sg


def _report(sums: list) -> EnergyReport:
    """The EnergyReport of a state from its _integrals."""
    d2, p_sg, f2, v_sq, uv, entropy = sums[:_REPORT_ROWS]
    F, D = _energy_dissipation(sums)
    return EnergyReport(F, d2, v_sq, uv, entropy, D, f2, p_sg)


def theta_exponent(n: int, kappa: float) -> float:
    """theta = 1 / (1 + n / ((2n+4) kappa)), the dissipation exponent.

    Defined for kappa > n - 2 (the decay exponent of the pointwise signal
    bound).  Always in (1/2, 1), and satisfies 2 theta > (2n+4)/(n+4), the
    strict inequality that makes the blow-up differential inequality close.
    """
    if n < 3:
        raise ValueError(f"dimension n must be >= 3, got {n}")
    if not kappa > n - 2:
        raise ValueError(f"kappa must exceed n - 2 = {n - 2}, got {kappa}")
    theta = 1.0 / (1.0 + n / ((2.0 * n + 4.0) * kappa))
    # sanity: the superlinearity condition is automatic in this window
    assert 0.5 < theta < 1.0
    assert 2.0 * theta > (2.0 * n + 4.0) / (n + 4.0)
    return theta


def _gradv_exponent(n: int) -> float:
    """p_n = 1 + 0.8/(n-1), the p of the recorded |grad v|_p: inside the
    window (1, n/(n-1)) of the paper's bound for every n >= 3, 1.4 at n = 3."""
    return 1.0 + 0.8 / (n - 1.0)


def lp_norm(f: RadialField, p: float) -> float:
    if not p >= 1:
        raise ValueError(f"Lp norm needs p >= 1, got {p}")
    g = f.grid
    return g.integrate_values(np.abs(f.values) ** p) ** (1.0 / p)


def sup_norm(f: RadialField) -> float:
    return float(np.max(np.abs(f.values)))


@dataclass(frozen=True)
class ParamWindow:
    """Admissible exponents for the blow-up machinery in dimension n.

    p lives in (1, 2n/(n+2)) (construction integrability), alpha in
    (n - n/p, (n-2)/2) (spike steepness window), kappa > n - 2 (signal decay),
    theta the derived dissipation exponent.
    """

    n: int
    p: float
    kappa: float
    alpha: float
    alpha_window: tuple
    theta: float


def _exponent_window(n: int, p: float, alpha: Optional[float] = None):
    """Check p in (1, 2n/(n+2)) and alpha in (n - n/p, (n-2)/2), alpha
    defaulting to the midpoint; returns (alpha, (lo, hi)).  The alpha
    window is never empty: p < 2n/(n+2) gives n - n/p < (n-2)/2."""
    p_hi = 2.0 * n / (n + 2.0)
    if not 1.0 < p < p_hi:
        raise ValueError(f"p must lie in (1, {p_hi}), got {p}")
    lo, hi = n - n / p, (n - 2.0) / 2.0
    if alpha is None:
        alpha = 0.5 * (lo + hi)
    if not lo < alpha < hi:
        raise ValueError(f"alpha must lie in ({lo}, {hi}), got {alpha}")
    return alpha, (lo, hi)


def param_window(
    n: int,
    p: float,
    kappa: float,
    alpha: Optional[float] = None,
) -> ParamWindow:
    """Validate exponents and fill alpha with the window midpoint if absent."""
    if n < 3:
        raise ValueError(f"dimension n must be >= 3, got {n}")
    alpha, (lo, hi) = _exponent_window(n, p, alpha)
    return ParamWindow(n=n, p=p, kappa=kappa, alpha=alpha,
                       alpha_window=(lo, hi), theta=theta_exponent(n, kappa))
