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
roundoff makes negative counts as 0.  d and [B(d); B(-d)] are the face
pass (_face_pass), which the u-step's band and the diagnostics row of the
state it reaches share: each step computes it once.

The D of a state (energy_report) takes f against the state's
own u.  The D of a step from (u, v) to (u', v'), which the solver's series
records, takes f = -Lap v' + v' - u against the departure u, which the
v-solve makes equal to (v - v')/dt, plus P_SG(u', v'); with it each step
satisfies F(u', v') - F(u, v) <= -dt D_step exactly (see the verifier).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .grid import RadialField, RadialGrid

__all__ = [
    "StatePair",
    "EnergyReport",
    "energy_report",
    "constant_energy",
    "residual_f",
    "theta_exponent",
    "exponent_window",
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


class EnergyReport(NamedTuple):
    """The integrals of a state, in _integrals' order: grad_v_sq (the face
    sum of trans d^2), g_norm_sq (P_SG), f_norm_sq, v_sq, uv, entropy,
    mass_u, mass_v and gradv_lp (|grad v|_p at p = _gradv_exponent(n));
    F and D are their bookkeeping identities."""

    grad_v_sq: float
    g_norm_sq: float
    f_norm_sq: float
    v_sq: float
    uv: float
    entropy: float
    mass_u: float
    mass_v: float
    gradv_lp: float

    @property
    def F(self) -> float:
        return 0.5 * self.grad_v_sq + 0.5 * self.v_sq - self.uv + self.entropy

    @property
    def D(self) -> float:
        return self.f_norm_sq + self.g_norm_sq


def _require_positive(vals: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{name} contains non-finite values")
    if np.any(vals <= 0.0):
        raise ValueError(f"{name} must be strictly positive everywhere")


def _bernoulli(delta: np.ndarray, out: np.ndarray = None,
               scratch: np.ndarray = None) -> np.ndarray:
    """[B(delta); B(-delta)] for B(x) = x / (e^x - 1), into out, a (2, M)
    buffer for M deltas (new if None), from one expm1: with a = |delta|,
    B(+-delta) = B(a) + max(-+delta, 0), where B(a) = a / expm1(a) is 0
    once expm1 overflows, and 1 at a = 0.  Finite for every finite delta,
    and free of floating-point warnings.  scratch, a row of M, takes
    max(-delta, 0); if None, delta does and is overwritten."""
    if out is None:
        out = np.empty((2, delta.size))
    if scratch is None:
        scratch = delta
    b, b_neg = out
    np.maximum(np.abs(delta, out=b_neg), _A_FLOOR, out=b_neg)
    with np.errstate(over="ignore"):
        np.expm1(b_neg, out=b)
    np.divide(b_neg, b, out=b)                    # B(a)
    np.maximum(delta, 0.0, out=b_neg)
    np.subtract(b_neg, delta, out=scratch)        # max(-delta, 0), exactly
    b_neg += b
    b += scratch
    return out


def _face_pass(v: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The face data of a signal v that the u-solve's band and the
    diagnostics row of a state with signal v share, into block (one row of
    N per EnergyReport field, _integrals' layout): d = v_{i+1} - v_i on the
    N - 1 faces in row 0 and [B(d); B(-d)] in rows 3 and 4, with row 1 as
    _bernoulli's scratch.  Returns the (2, N - 1) view of the pair."""
    faces = block[:, :-1]
    d = np.subtract(v[1:], v[:-1], out=faces[0])
    return _bernoulli(d, out=faces[3:5], scratch=faces[1])


def residual_f(s: StatePair) -> RadialField:
    """f = -Lap v + v - u, the v-equation residual (equals -v_t along solutions)."""
    g = s.grid
    v = s.v.values
    return RadialField(g, -g.laplacian(v) + v - s.u.values)


def energy_report(s: StatePair) -> EnergyReport:
    """F and D with their pieces, the masses and |grad v|_p: one positivity
    check of u and of v, and one pass over both."""
    u, v = s.u.values, s.v.values
    _require_positive(u, "u")
    _require_positive(v, "v")
    block = np.empty((len(EnergyReport._fields), s.grid.ncells))
    _face_pass(v, block)
    return _integrals(s.grid, np.stack((u, v)), u, block)


def constant_energy(g: RadialGrid, m: float) -> float:
    """F_c(m) = |B_R| (c ln c - c^2/2) of u = v = c = m / |B_R|."""
    c = m / g.domain_volume
    return m * (math.log(c) - 0.5 * c)


def _integrals(g: RadialGrid, uv: np.ndarray, source: np.ndarray,
               block: np.ndarray, sums: np.ndarray = None) -> EnergyReport:
    """The EnergyReport of the (2, N) state uv, with no positivity check,
    and f = -Lap v + v - source (uv's own u for the D of a state, the
    step's departure u for D_step).  block, one row of N per field, holds
    on entry _face_pass of uv's v (d in row 0, B(d) and B(-d) in rows 3 and
    4, on the N - 1 faces), which it reads, and takes each integrand in
    its field's row (scratch before that): the grad_v_sq, g_norm_sq and
    gradv_lp rows on the faces, summed against trans, trans and face_area
    (the last is face_dr |d/face_dr|^p_n, with d/face_dr bitwise
    g.face_gradient(v)), the rest on cells, summed against the weights,
    into sums (new if None), each bitwise omega_n * np.dot(weights, row)."""
    u, v = uv
    faces = block[:, :-1]
    d, p_sg, f = faces[0], faces[1], block[2]
    b_u, flux = faces[3:5]            # B(d), B(-d)
    g.laplacian(v, out=f, work=block[5])
    np.subtract(v, f, out=f)          # f = -Lap v + v - source
    f -= source
    block[6:8] = uv
    lp = np.divide(d, g.face_dr, out=faces[8])
    np.power(np.abs(lp, out=lp), _gradv_exponent(g.n), out=lp)
    lp *= g.face_dr
    np.square(d, out=d)
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
    np.vecdot(faces[8:], g.face_area, out=sums[8:])
    sums *= g.omega_n
    rows = sums.tolist()
    rows[-1] **= 1.0 / _gradv_exponent(g.n)
    return EnergyReport._make(rows)


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


def exponent_window(n: int, p: float, alpha: Optional[float] = None):
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

