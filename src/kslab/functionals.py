"""Energy, dissipation, residuals, and admissible-parameter bookkeeping.

The chemotaxis system evolved here is

    u_t = Lap u - div(u grad v),      v_t = Lap v - v + u,

with Neumann boundaries on a ball in R^n.  Its Lyapunov functional is

    F(u, v) = 1/2 int |grad v|^2 + 1/2 int v^2 - int u v + int u ln u,

and along solutions dF/dt <= -D with

    D(u, v) = int v_t^2 + int u |grad(ln u) - grad v|^2
            = ||f||_2^2 + ||g||_2^2,
    f = -Lap v + v - u,   g = u_r / sqrt(u) - sqrt(u) v_r.

D is evaluated through f and g (the PDE identity), never by differencing F
in time, so it is well defined for a single state.
"""

from __future__ import annotations

import math
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
    "residual_g",
    "dissipation",
    "theta_exponent",
    "lp_norm",
    "w12_norm",
    "sup_norm",
    "param_window",
]

# only guards log(0) underflow; positivity violations are rejected, not hidden
_ENTROPY_CLAMP = 1e-300


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
    and D = f_norm_sq + g_norm_sq hold exactly as bookkeeping identities."""

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


def _g_values(u, ur, vr, su):
    """ur <- g = u_r / sqrt(u) - sqrt(u) v_r, in place, with su as scratch."""
    np.sqrt(u, out=su)
    ur /= su
    ur -= np.multiply(su, vr, out=su)
    return ur


def energy(s: StatePair) -> float:
    """The Lyapunov functional F(u, v)."""
    return energy_report(s).F


def residual_f(s: StatePair) -> RadialField:
    """f = -Lap v + v - u, the v-equation residual (equals -v_t along solutions)."""
    g = s.grid
    v = s.v.values
    return RadialField(g, -g.laplacian(v) + v - s.u.values)


def residual_g(s: StatePair) -> RadialField:
    """g = u_r / sqrt(u) - sqrt(u) v_r, the drift-diffusion imbalance."""
    gr = s.grid
    u = s.u.values
    _require_positive(u, "u")
    vr = gr.derivative(s.v.values, "neumann")
    return RadialField(gr, _g_values(u, gr.derivative(u, "neumann"), vr,
                                    np.empty_like(u)))


def dissipation(s: StatePair) -> float:
    """D = ||f||_2^2 + ||g||_2^2 >= 0, the energy dissipation rate."""
    return energy_report(s).D


def energy_report(s: StatePair) -> EnergyReport:
    """F and D with their pieces: one positivity check of u and of v, and
    one stencil pass over both, whose v_r serves both F and g."""
    u, v = s.u.values, s.v.values
    _require_positive(u, "u")
    _require_positive(v, "v")
    return _report_arrays(s.grid, u, v)[0]


def _report_arrays(g: RadialGrid, u: np.ndarray,
                   v: np.ndarray) -> tuple[EnergyReport, np.ndarray]:
    """energy_report on bare arrays, with no positivity check, and the
    |v_r|^2 row it was built from: for callers that have already checked
    u and v and may reuse that row."""
    block = np.empty((_REPORT_ROWS, g.ncells))
    sums = _integrals(g, np.stack((u, v)), block)
    return _report(sums), block[_INTEGRANDS.index("v_r^2")]


# what _integrals writes into each row of its block, in order (each row is
# its own sum); p_n is _gradv_exponent(n).  An EnergyReport needs the first
# _REPORT_ROWS; the solver's series also records the rest, and the pow of
# the last would add about a quarter to an energy report at N = 8192
_INTEGRANDS = ("g^2", "v_r^2", "f^2", "v^2", "u v", "u ln u", "u", "v",
               "|v_r|^p_n")
_REPORT_ROWS = 6


def _integrals(g: RadialGrid, uv: np.ndarray, block: np.ndarray,
               sums: np.ndarray = None) -> list:
    """The integrals over the ball of the first len(block) _INTEGRANDS of
    the (2, N) state uv, as a list of floats.  block, _REPORT_ROWS or
    len(_INTEGRANDS) rows of N, takes (u_r, v_r) from one stencil pass and
    Lap v, the rows below as scratch; each integrand is finished in place
    in its row (g in that of u_r, the first three squared at once), and
    one vecdot against the cell weights reduces them into sums (new if
    None): bitwise the integrate_values of each row, the same dot."""
    u, v = uv
    ur, vr, f = block[:3]
    g.derivative(uv, "neumann", out=block[:2], work=block[2:4])
    g.laplacian(v, out=f, work=block[3])
    np.subtract(v, f, out=f)          # f = -Lap v + v - u
    f -= u
    if len(block) > _REPORT_ROWS:
        block[6:8] = uv
        np.power(np.abs(vr, out=block[8]), _gradv_exponent(g.n),
                 out=block[8])
    _g_values(u, ur, vr, block[3])
    np.square(block[:3], out=block[:3])
    np.square(v, out=block[3])
    np.multiply(u, v, out=block[4])
    entropy = np.log(np.maximum(u, _ENTROPY_CLAMP, out=block[5]), out=block[5])
    entropy *= u
    sums = np.vecdot(block, g.weights, out=sums)
    sums *= g.omega_n
    return sums.tolist()


def _energy_dissipation(sums) -> tuple[float, float]:
    """F and D from the first _REPORT_ROWS _integrals."""
    g2, grad_v_sq, f2, v_sq, uv, entropy = sums[:_REPORT_ROWS]
    return 0.5 * grad_v_sq + 0.5 * v_sq - uv + entropy, f2 + g2


def _report(sums: list) -> EnergyReport:
    """The EnergyReport of a state from its _integrals."""
    g2, grad_v_sq, f2, v_sq, uv, entropy = sums[:_REPORT_ROWS]
    F, D = _energy_dissipation(sums)
    return EnergyReport(F, grad_v_sq, v_sq, uv, entropy, D, f2, g2)


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


def w12_norm(f: RadialField) -> float:
    """(||f||_2^2 + ||f_r||_2^2)^{1/2} with a one-sided derivative at the ends."""
    g = f.grid
    fr = g.derivative(f.values, "none")
    return math.sqrt(
        g.integrate_values(f.values * f.values) + g.integrate_values(fr * fr)
    )


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
