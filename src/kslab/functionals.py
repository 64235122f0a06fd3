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
        if self.u.grid is not self.v.grid and not _same_grid(self.u.grid, self.v.grid):
            raise ValueError("u and v must live on the same grid")

    @property
    def grid(self):
        return self.u.grid


def _same_grid(a, b) -> bool:
    return (
        a.n == b.n
        and a.R == b.R
        and a.centers.shape == b.centers.shape
        and np.array_equal(a.edges, b.edges)
    )


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


def _g_values(g, u, vr):
    """g = u_r / sqrt(u) - sqrt(u) v_r from a given v_r."""
    su = np.sqrt(u)
    return g.derivative(u, "neumann") / su - su * vr


def energy(s: StatePair) -> float:
    """The Lyapunov functional F(u, v)."""
    return energy_report(s).F


def residual_f(s: StatePair) -> RadialField:
    """f = -Lap v + v - u, the v-equation residual (equals -v_t along solutions)."""
    g = s.grid
    v = np.asarray(s.v.values, float)
    return RadialField(g, -g.laplacian(v) + v - np.asarray(s.u.values, float))


def residual_g(s: StatePair) -> RadialField:
    """g = u_r / sqrt(u) - sqrt(u) v_r, the drift-diffusion imbalance."""
    gr = s.grid
    u = np.asarray(s.u.values, float)
    _require_positive(u, "u")
    vr = gr.derivative(np.asarray(s.v.values, float), "neumann")
    return RadialField(gr, _g_values(gr, u, vr))


def dissipation(s: StatePair) -> float:
    """D = ||f||_2^2 + ||g||_2^2 >= 0, the energy dissipation rate."""
    return energy_report(s).D


def energy_report(s: StatePair) -> EnergyReport:
    """F and D with their pieces: one positivity check of u and of v, and
    one derivative of v serving both F and g."""
    u = np.asarray(s.u.values, float)
    v = np.asarray(s.v.values, float)
    _require_positive(u, "u")
    _require_positive(v, "v")
    return _report_arrays(s.grid, u, v)[0]


def _report_arrays(g: RadialGrid, u: np.ndarray,
                   v: np.ndarray) -> tuple[EnergyReport, np.ndarray]:
    """energy_report on bare arrays, with no positivity check, and the
    Neumann v_r it was built from: for callers that have already checked
    u and v and may reuse v_r."""
    sums, vr = _integrals(g, u, v, np.empty((_REPORT_ROWS, g.ncells)))
    return _report(sums), vr


# what _integrals writes into each row of its block, in order; p_n is
# _gradv_exponent(n).  An EnergyReport needs the first _REPORT_ROWS; the
# solver's series also records the rest, and the pow of the last would
# add about a quarter to an energy report at N = 8192
_INTEGRANDS = ("v_r^2", "v^2", "u v", "u ln u", "f^2", "g^2", "u", "v",
               "|v_r|^p_n")
_REPORT_ROWS = 6


def _integrals(g: RadialGrid, u: np.ndarray, v: np.ndarray,
               block: np.ndarray) -> tuple[list, np.ndarray]:
    """The integrals over the ball of the first len(block) _INTEGRANDS of
    (u, v), as a list of floats, and the Neumann v_r.  Each integrand is
    written into one row of block, a buffer of _REPORT_ROWS or
    len(_INTEGRANDS) rows of N, and one vecdot against the cell weights
    reduces them all: bitwise the integrate_values of each row, which
    takes the same dot product."""
    vr = g.derivative(v, "neumann")
    f = -g.laplacian(v) + v - u
    gg = _g_values(g, u, vr)
    np.multiply(vr, vr, out=block[0])
    np.multiply(v, v, out=block[1])
    np.multiply(u, v, out=block[2])
    np.multiply(u, np.log(np.maximum(u, _ENTROPY_CLAMP)), out=block[3])
    np.multiply(f, f, out=block[4])
    np.multiply(gg, gg, out=block[5])
    if len(block) > _REPORT_ROWS:
        block[6] = u
        block[7] = v
        np.power(np.abs(vr), _gradv_exponent(g.n), out=block[8])
    return (g.omega_n * np.vecdot(block, g.weights)).tolist(), vr


def _report(sums: list) -> EnergyReport:
    """The EnergyReport of a state from its _integrals."""
    grad_v_sq, v_sq, uv, entropy, f2, g2 = sums[:_REPORT_ROWS]
    return EnergyReport(
        F=0.5 * grad_v_sq + 0.5 * v_sq - uv + entropy,
        grad_v_sq=grad_v_sq,
        v_sq=v_sq,
        uv=uv,
        entropy=entropy,
        D=f2 + g2,
        f_norm_sq=f2,
        g_norm_sq=g2,
    )


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
    theta the derived dissipation exponent.  The signal-mass and decay caps
    (M, B) are carried when known.
    """

    n: int
    p: float
    kappa: float
    alpha: float
    alpha_window: tuple
    theta: float
    M: Optional[float] = None
    B: Optional[float] = None


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
    M: Optional[float] = None,
    B: Optional[float] = None,
) -> ParamWindow:
    """Validate exponents and fill alpha with the window midpoint if absent."""
    if n < 3:
        raise ValueError(f"dimension n must be >= 3, got {n}")
    alpha, (lo, hi) = _exponent_window(n, p, alpha)
    theta = theta_exponent(n, kappa)
    for name, val in (("M", M), ("B", B)):
        if val is not None and not val > 0:
            raise ValueError(f"{name} must be positive when given, got {val}")
    return ParamWindow(
        n=n, p=p, kappa=kappa, alpha=alpha, alpha_window=(lo, hi),
        theta=theta, M=M, B=B,
    )
