"""Construction of initial data with arbitrarily negative energy.

The recipe replaces a positive radial baseline (u, v) inside a small ball
B_{r_k} by the matched power spikes

    u~_k(r) = a_k (r^2 + eta_k)^{-(n-alpha)/2},
    v_k(r)  = b_k (r^2 + eta_k)^{-alpha/2},

with a_k, b_k fixed by continuity at r_k, and then renormalizes u~_k to the
baseline mass m.  The depth parameter eta_k is chosen so that

    r_k^n * phi(eta_k / r_k^2) >= k,      phi(xi) = int_0^1 rho^{n-1} (rho^2 + xi)^{-n/2} drho,

which forces int u_k v_k >= (about) omega_n u(0) v(0) k and hence
F(u_k, v_k) -> -infinity linearly in k, while u_k -> u in L^p and
v_k -> v in W^{1,2}.

phi(xi) diverges only logarithmically as xi -> 0, so the eta_k demanded by
the inequality above is double-exponentially small in k / r_k^n.  For the
default radius rule it underflows float64 at k = 3 already.  All internal
arithmetic therefore carries log(eta_k) exactly, and a datum records
log_eta, not eta.  Pointwise evaluation at representable radii stays
correctly rounded: below the underflow threshold r^2 + eta_k rounds to r^2
at every representable r > 0, so the float profiles are the pure power
tails there.

The baseline is the constant u = v = c, the only one the lab builds data
over.  Convergence and energy numbers of a datum are continuum integrals,
not grid sums: the baseline terms (the shell r_k < r < R, the mass
c |B_R|) and the u v overlap (through phi) are closed form, and the other
spike pieces inside B_{r_k} take one fixed Gauss-Legendre rule in log r.
The sampled grid fields are a separate (renormalized-on-grid)
representation, and they carry the construction
only if the grid resolves the core sqrt(eta_k).  When the core lies below
the smallest cell, the grid samples only the power tail, and the sampled
pair has nothing of the energy the core holds.  On the N=1024 grid
graded 1.013 (smallest cell 2.3e-8) the default members k = 1, 12, 20
have F0 = -9.27, -152.9, -253.4 but grid energies -1.28, -2.09, -2.09,
i.e. the constant baseline's.  Compare F0 with functionals.energy_report
of (u0, v0) before evolving a member.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .functionals import StatePair, exponent_window
from .grid import RadialField, RadialGrid
from .solver import _integer

__all__ = [
    "phi_log",
    "choose_eta_log",
    "Lemma14Recipe",
    "BlowupDatum",
    "lemma14_pair",
    "baseline_profiles",
    "constant_recipe",
]

log = logging.getLogger(__name__)

_BISECT_MAX_ITER = 200
_BISECT_REL_TOL = 1e-14
_MIN_CELLS_INSIDE = 8

# the spike integrals (_log_rule): composite Gauss-Legendre in s = log r,
# truncated where the slowest-decaying integrand has fallen by e^-_S_DECAY
_GL_ORDER = 20
_S_DECAY = 40.0
_UNIT_SPAN = 8
_PANEL_GROWTH = 1.25
_KINK_LEVELS = 45


def phi_log(log_xi: float, n: int) -> float:
    """phi(xi) = int_0^1 rho^{n-1} (rho^2 + xi)^{-n/2} drho, evaluated from
    log(xi); valid for arbitrarily negative log_xi.

    The one entry point for phi: log_xi is an ordinary double even when a
    depth parameter xi lies below the float64 floor.  With
    t = rho / sqrt(rho^2 + xi), phi = int_0^T t^{n-1} / (1 - t^2) dt for
    T = (1 + xi)^{-1/2}, and t^{j+2} / (1 - t^2) = t^j / (1 - t^2) - t^j
    lowers n by two at a time, so

        phi = -sum_{j = n-2, n-4, ... >= 1} T^j / j - L / 2
              + [ln(1 + T) for odd n],

    L = log(1 - T^2) = log xi - log(1 + xi).  As T -> 0 those terms cancel
    down to phi ~ T^n / n, so for T^2 < 1/2 the series
    sum_i T^{n+2i} / (n+2i) is used instead.
    """
    if n < 3:
        raise ValueError(f"dimension n must be >= 3, got {n}")
    log1p_xi = float(np.logaddexp(0.0, log_xi))
    T = math.exp(-0.5 * log1p_xi)
    if T * T < 0.5:
        total, j, term = 0.0, n, T ** n
        while term > 1e-17 * total:
            total += term / j
            j += 2
            term *= T * T
        return total
    rest = math.log1p(T) if n % 2 else 0.0
    for j in range(n - 2, 0, -2):
        rest -= T ** j / j
    # the possibly huge -L/2 last, so that the sum rounds once at its size
    return rest - 0.5 * (log_xi - log1p_xi)


def choose_eta_log(r_k: float, k: float, n: int, R: float) -> tuple[float, float]:
    """log(eta_k) and the margin r_k^n phi(eta_k/r_k^2) - k >= 0.

    Bisection on log(eta) over (log of) (0, R^2); the map
    eta -> r_k^n phi(eta/r_k^2) is strictly decreasing, and the largest
    iterate still satisfying the depth inequality is returned.  Working in
    log space is what makes this solvable at all: for the default radius
    rule the solution eta_k is below the smallest positive double from
    k = 3 onward, while log(eta_k) stays a perfectly ordinary number.
    """
    if n < 3:
        raise ValueError(f"dimension n must be >= 3, got {n}")
    if not (0 < r_k < R):
        raise ValueError(f"need 0 < r_k < R, got r_k={r_k}, R={R}")
    if not k > 0:
        raise ValueError(f"depth index k must be positive, got {k}")

    rkn = r_k ** n
    need = k / rkn  # phi value to reach
    if need > 1e306:
        raise ValueError(
            f"depth k={k} at r_k={r_k} needs phi >= {need:.3g}; "
            "log(eta) would overflow float64"
        )
    two_log_rk = 2.0 * math.log(r_k)

    def value(log_eta: float) -> float:
        return rkn * phi_log(log_eta - two_log_rk, n)

    hi = math.log(R * R) - 1e-14  # eta strictly below R^2
    if value(hi) >= k:
        return hi, value(hi) - k
    # T <= 1, ln(1 + T) >= 0 and -L >= -log xi in phi_log's closed form give
    # phi > -log(xi) / 2 - n, so at log xi = -4 need - 2n, phi > 2 need: the
    # depth inequality holds there with a factor 2 to spare for rounding
    lo = two_log_rk - 4.0 * need - 2.0 * n
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        # relative tolerance on eta, or adjacent doubles (deep members)
        if hi - lo <= _BISECT_REL_TOL or not lo < mid < hi:
            break
        if value(mid) >= k:
            lo = mid
        else:
            hi = mid
    return lo, value(lo) - k


@dataclass
class Lemma14Recipe:
    """The constant baseline u = v = c on a grid, plus the exponents and the
    radius rule of the construction.

    grid is the grid the data will be sampled on; c must be positive.  alpha
    defaults to the midpoint of the exponent window for (n, p).  r_rule is
    the pair (r0, q) of the radius rule r_k = r0 q^k, with 0 < r0 < R and
    0 < q < 1, and defaults to (R/2, 0.5).
    """

    grid: RadialGrid
    c: float
    p: float
    alpha: Optional[float] = None
    r_rule: Optional[tuple[float, float]] = None

    def __post_init__(self):
        g = self.grid
        self.c = _constant_level(g, {"c": self.c}, "constant baseline")
        self.alpha, _ = exponent_window(g.n, self.p, self.alpha)
        r0, q = (g.R / 2.0, 0.5) if self.r_rule is None else self.r_rule
        if not 0 < r0 < g.R:
            raise ValueError(f"r_rule r0 must lie in (0, {g.R}), got {r0}")
        if not 0 < q < 1:
            raise ValueError(f"r_rule q must lie in (0, 1), got {q}")
        self.r_rule = (r0, q)


@dataclass(frozen=True)
class BlowupDatum:
    """One member of the energy-divergent family, in two representations.

    u0/v0 are the sampled grid fields (u0 renormalized on the grid, so its
    grid integral equals m to machine precision).  The closed-form profile
    parameters (a, b, log_eta, scale) plus the continuum integrals (F0,
    convergence norms, uv_over_k) describe the continuum datum.
    """

    k: int
    r_k: float
    log_eta: float
    margin: float       # r_k^n phi(eta/r_k^2) - k, nonnegative
    a: float
    b: float
    scale: float        # m / ||u~_k||_1, the renormalization factor
    mass: float
    F0: float
    du_lp: float        # ||u_k - u||_{L^p}, continuum integral
    dv_w12: float       # ||v_k - v||_{W^{1,2}}, continuum integral
    uv_over_k: float
    center_uv: float    # baseline u(0) v(0)
    u0: RadialField
    v0: RadialField


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The _GL_ORDER-point Gauss-Legendre rule on [0, 1] by Golub-Welsch
    (eigen-decomposition of the Jacobi matrix), at first use and without
    numpy.polynomial, which costs a fresh process about 6 ms to import."""
    j = np.arange(1.0, _GL_ORDER)
    off = j / np.sqrt(4.0 * j * j - 1.0)
    x, vec = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (x + 1.0), vec[0] ** 2


def _log_rule(s_lo: float, s_hi: float, points: list,
              kink: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite Gauss-Legendre on [s_lo, s_hi], with
    panel edges at p +- t for each p in points (and the kink): t = 0, 1,
    ..., _UNIT_SPAN - 1, then growing by _PANEL_GROWTH, so a panel at
    distance d from the points is about d/4 wide.  There the integrands are
    sums of e^{mu s}, and a part too fast for the panel has fallen by
    e^{-mu d}: the panel count grows like the log of the length, which is
    unbounded as alpha nears an end of its window.  Edges at kink +- 2^-j
    (j < _KINK_LEVELS) grade the panels toward a kink of the integrand."""
    span = max(s_hi - s_lo, _UNIT_SPAN)
    far = _UNIT_SPAN * _PANEL_GROWTH ** np.arange(
        math.ceil(math.log(span / _UNIT_SPAN) / math.log(_PANEL_GROWTH)) + 1)
    t = np.concatenate((np.arange(_UNIT_SPAN), far))
    t = np.concatenate((-t, t))
    edges = [[s_lo, s_hi], *(p + t for p in points)]
    if kink is not None:
        d = 2.0 ** -np.arange(_KINK_LEVELS)
        edges += [kink + t, kink - d, kink + d]
    # np.unique would give the same edges, but it imports numpy.ma
    e = np.sort(np.concatenate(edges))
    e = e[(s_lo <= e) & (e <= s_hi)]
    e = e[np.concatenate(([True], e[1:] != e[:-1]))]
    x, w = _gauss_legendre()
    h = np.diff(e)[:, None]
    return (e[:-1, None] + h * x).ravel(), (h * w).ravel()


def _log1m_exp(x: np.ndarray) -> np.ndarray:
    """log|1 - e^-x|, -inf at x = 0; x may not be far below -700."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(np.expm1(-x)))


def _family_index(k) -> int:
    """k as a family index: a whole number >= 1, else a ValueError."""
    if k < 1 or k != int(k):
        raise ValueError(f"family index k must be a positive integer, got {k}")
    return int(k)


def _sampled_member(recipe: Lemma14Recipe, k: int) -> tuple:
    """The k-th member's spike and its grid data, without the continuum
    integrals that lemma14_pair adds: (r_k, log_eta, margin, log_xi, a, b,
    u0, v0).  Raises as lemma14_pair does."""
    k = _family_index(k)
    g = recipe.grid
    n, R = g.n, g.R
    alpha = recipe.alpha
    r0, q = recipe.r_rule
    r_k = r0 * q ** k

    ncells_inside = int(np.count_nonzero(g.centers < r_k))
    if ncells_inside < _MIN_CELLS_INSIDE:
        raise ValueError(
            f"grid has {ncells_inside} cells inside [0, r_k={r_k:.3g}]; "
            f"need >= {_MIN_CELLS_INSIDE} to resolve the spike"
        )

    log_eta, margin = choose_eta_log(r_k, k, n, R)
    log_xi = log_eta - 2.0 * math.log(r_k)
    eta = math.exp(log_eta)  # may underflow; profiles below use it as-is
    # log(r_k^2 + eta) without cancellation for astronomically small eta
    log_s = 2.0 * math.log(r_k) + math.log1p(math.exp(min(log_xi, 700.0)))
    c = recipe.c
    a = math.exp((n - alpha) / 2.0 * log_s) * c
    b = math.exp(alpha / 2.0 * log_s) * c

    # grid sampling: spike inside, baseline outside, renormalized on-grid
    r = g.centers
    inside = r < r_k
    u_vals = np.where(inside, a * (r * r + eta) ** (-(n - alpha) / 2.0), c)
    v_vals = np.where(inside, b * (r * r + eta) ** (-alpha / 2.0), c)
    grid_mass = g.integrate_values(np.full(g.ncells, c))
    u_vals = u_vals * (grid_mass / g.integrate_values(u_vals))
    return (r_k, log_eta, margin, log_xi, a, b, RadialField(g, u_vals),
            RadialField(g, v_vals))


def lemma14_pair(recipe: Lemma14Recipe, k: int) -> BlowupDatum:
    """Build the k-th datum of the family defined by a recipe.

    Raises if the sampling grid puts fewer than 8 cell centers inside the
    spike radius r_k.  That guard does not look at the core width
    sqrt(eta_k), which for deep members lies far below the smallest cell:
    such a member is built without error, but its sampled (u0, v0) lacks
    the energy F0 reports (see the module docstring).  Construction tables
    rely on building those members, so the core is reported through
    log_eta, not refused.
    """
    g = recipe.grid
    n, R = g.n, g.R
    alpha = recipe.alpha
    p = recipe.p
    c = recipe.c
    r_k, log_eta, margin, log_xi, a, b, u0, v0 = _sampled_member(recipe, k)
    k = int(k)
    wn = g.omega_n

    # the baseline is constant on the shell r_k < r < R (so v' = 0 there),
    # and each shell term is its value times int_{r_k}^R r^{n-1} dr
    shell = (R ** n - r_k ** n) / n

    # The spike pieces int_0^{r_k} r^{n-1} f dr = int r^n f ds, s = log r,
    # on a fixed rule (_log_rule).  Each r^n f is e^{mu s} times a power of
    # L2 = log(1 + eta/r^2) = logaddexp(0, log eta - 2 s) and a bounded
    # factor, formed in log space with the powers of r summed into mu, so
    # deep members neither overflow nor underflow and no large exponents
    # cancel.  The integrands fall like e^{n s} below the core (or r_k) and
    # like e^{lam s} at the slowest along the power tail: s_lo cuts both
    # where they have fallen by e^-_S_DECAY.  lam_p = n - p (n - alpha),
    # the rate of |u - c|^p r^n, is written in the form that rounds least.
    s_k = math.log(r_k)
    lam_p = n * (1.0 - p) + p * alpha
    lam = min(alpha, n - 2.0 - 2.0 * alpha, lam_p)
    s_lo = max(min(0.5 * log_eta, s_k) - _S_DECAY / n, s_k - _S_DECAY / lam)
    log_a, log_b, log_c = math.log(a), math.log(b), math.log(c)

    def spike(kink=None):
        """(w, s, L2, log(u/c), log(v/c), log(u r^n)) at the rule's nodes"""
        s, w = _log_rule(s_lo, s_k, [s_k, 0.5 * log_eta], kink)
        L2 = np.logaddexp(0.0, log_eta - 2.0 * s)
        return (w, s, L2, log_a - log_c - (n - alpha) * (s + 0.5 * L2),
                log_b - log_c - alpha * (s + 0.5 * L2),
                alpha * s + log_a - 0.5 * (n - alpha) * L2)

    # mass of the unnormalized modification and the renormalization factor.
    # scale - 1 is kept as the exact ratio -delta / (mass + delta): for deep
    # spikes delta is far below one ulp of the mass, and forming the sum
    # first would quantize scale to 1 +- 1 ulp and put a plateau under the
    # convergence norms
    m = c * g.domain_volume
    w, s, L2, lu, lv, log_ur = spike()
    delta = wn * float(w @ np.exp(log_ur + _log1m_exp(lu)))
    norm1_tilde = m + delta
    scale = m / norm1_tilde
    scale_m1 = -delta / norm1_tilde
    log_scale = math.log1p(scale_m1)

    # |scale u - c|^p has a kink at r*, where scale u = c and
    # log(r*^2 + eta) = ell > log eta (the mass balance puts the mean of
    # scale u over B_{r_k} above c): the rest take the rule graded there
    ell = 2.0 / (n - alpha) * (log_scale + log_a - log_c)
    s_star = 0.5 * (ell + math.log(-math.expm1(log_eta - ell)))
    w, s, L2, lu, lv, log_ur = spike(min(s_star, s_k))

    # the u v overlap: the inner piece is exactly a b phi(xi) and must go
    # through the log-space phi (its mass hides at unrepresentable radii)
    uv = wn * scale * (a * b * phi_log(log_xi, n) + c * c * shell)

    # one v'^2 integral at the mass profile serves grad_v_sq and dv_sq;
    # v'^2 r^n = alpha^2 b^2 r^{n+2} (r^2 + eta)^{-(alpha + 2)}
    vp_sq = float(w @ np.exp((n - 2.0 - 2.0 * alpha) * s
                             + 2.0 * math.log(alpha * b)
                             - (alpha + 2.0) * L2))
    grad_v_sq = wn * vp_sq
    log_vvr = (n - 2.0 * alpha) * s + 2.0 * log_b - alpha * L2  # log(v^2 r^n)
    v_sq = wn * (float(w @ np.exp(log_vvr)) + c * c * shell)
    entropy = wn * (
        float(w @ (np.exp(log_scale + log_ur) * (log_scale + log_c + lu)))
        + scale * c * math.log(scale * c) * shell
    )
    F0 = 0.5 * grad_v_sq + 0.5 * v_sq - uv + entropy

    # convergence records against the baseline: |scale u - c|^p r^n is
    # (scale u)^p r^n |1 - c / (scale u)|^p
    du_p = wn * (
        float(w @ np.exp(lam_p * s
                         + p * (log_scale + log_a - 0.5 * (n - alpha) * L2
                                + _log1m_exp(log_scale + lu))))
        + abs(scale_m1) ** p * c ** p * shell
    )
    du_lp = du_p ** (1.0 / p)
    dv_sq = wn * (float(w @ np.exp(log_vvr + 2.0 * _log1m_exp(lv))) + vp_sq)
    dv_w12 = math.sqrt(dv_sq)

    log.info(
        "datum k=%d: r_k=%.3g log_eta=%.6g margin=%.3g F0=%.6g", k, r_k,
        log_eta, margin, F0,
    )
    return BlowupDatum(
        k=k, r_k=r_k, log_eta=log_eta, margin=margin, a=a, b=b, scale=scale,
        mass=m, F0=F0, du_lp=du_lp, dv_w12=dv_w12, uv_over_k=uv / k,
        center_uv=c * c, u0=u0, v0=v0,
    )


def _constant_level(grid: RadialGrid, params: dict, what: str) -> float:
    """The level of a constant profile: params["c"], or params["m"] / |B_R|;
    `what` names the profile in the error for a missing level."""
    if "c" in params:
        c = float(params["c"])
    elif "m" in params:
        c = float(params["m"]) / grid.domain_volume
    else:
        raise ValueError(f"{what} needs c or m")
    if not c > 0:
        raise ValueError(f"constant level must be positive, got {c}")
    return c


def _gaussian_moment(n: int, width: float, R: float) -> float:
    """int_0^R r^{n-1} exp(-(r/width)^2) dr in closed form.

    I_1 = (sqrt(pi)/2) width erf(R/width), I_2 = -(width^2/2) expm1(-R^2/width^2),
    and integration by parts gives
    I_{j+2} = (width^2/2) (j I_j - R^j exp(-R^2/width^2)).
    The recursion subtracts nearly equal terms once width grows past R (at
    n = 7 and width = 5R it is off by 3.6e-12 relative); bumps narrower than
    a few R keep it near machine precision for n <= 6.
    """
    w2 = width * width
    tail = math.exp(-R * R / w2)
    if n % 2:
        j, val = 1, 0.5 * math.sqrt(math.pi) * width * math.erf(R / width)
    else:
        j, val = 2, -0.5 * w2 * math.expm1(-R * R / w2)
    while j < n:
        val = 0.5 * w2 * (j * val - R ** j * tail)
        j += 2
    return val


def baseline_profiles(kind: str, grid: RadialGrid, /, **params) -> StatePair:
    """Ready-made positive baselines.  kind and grid are positional only
    and keys other than the kind's own are ignored, so a config's initial
    block passes whole as params.

    kind = 'constant': u = c (1 + amplitude cos(mode pi r / R)), v = c
    (pass c, or m for c = m / |B_R|).  amplitude lies in [0, 1), so u
    stays positive, and defaults to 0, the constant state; mode is a whole
    number >= 1 (default 1), so the cosine has zero slope at both ends and
    the data are compatible with the no-flux boundary.
    kind = 'bump': u = v = floor + A exp(-(r/width)^2) with A set so the
    total mass is m (pass m, width, and optionally floor, default 1e-3).
    """
    if kind == "constant":
        c = _constant_level(grid, params, "constant baseline")
        amplitude = float(params.get("amplitude", 0.0))
        mode = _integer(params.get("mode", 1), "mode")
        if not (0 <= amplitude < 1 and mode >= 1):
            raise ValueError("constant baseline needs 0 <= amplitude < 1 "
                             f"and mode >= 1, got {amplitude} and {mode}")
        u = c * (1.0 + amplitude * np.cos(mode * math.pi * grid.centers
                                          / grid.R))
        return StatePair(RadialField(grid, u),
                         RadialField(grid, np.full(grid.ncells, c)))
    if kind == "bump":
        m = float(params["m"])
        width = float(params["width"])
        floor = float(params.get("floor", 1e-3))
        if not (m > 0 and width > 0 and floor > 0):
            raise ValueError("bump needs positive m, width, floor")
        amp = ((m - floor * grid.domain_volume)
               / (grid.omega_n * _gaussian_moment(grid.n, width, grid.R)))
        if amp <= 0:
            raise ValueError("floor already exceeds the requested mass")
        vals = floor + amp * np.exp(-((grid.centers / width) ** 2))
        return StatePair(RadialField(grid, vals), RadialField(grid, vals))
    raise ValueError(f"unknown baseline kind {kind!r}")


# the recipe over the constant baseline, under the name callers import
constant_recipe = Lemma14Recipe
