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
arithmetic therefore carries log(eta_k) exactly; the float eta field of a
datum is the (possibly subnormal or underflowed-to-zero) exponential, kept
for display.  Pointwise evaluation at representable radii stays correctly
rounded: below the underflow threshold r^2 + eta_k rounds to r^2 at every
representable r > 0, so the float profiles are the pure power tails there.

The baseline is the constant u = v = c, the only one the lab builds data
over.  Convergence and energy numbers of a datum are continuum integrals,
not grid sums: the baseline terms (the shell r_k < r < R, the mass
c |B_R|) are closed form, and adaptive quadrature runs only over the
spike pieces inside B_{r_k}.  The sampled grid fields are a separate
(renormalized-on-grid) representation, and they carry the construction
only if the grid resolves the core sqrt(eta_k).  When the core lies below
the smallest cell, the grid samples only the power tail, and the sampled
pair has nothing of the energy the core holds.  On the N=1024 grid
graded 1.013 (smallest cell 2.3e-8) the default members k = 1, 12, 20
have F0 = -9.27, -152.9, -253.4 but grid energies -1.28, -2.09, -2.09,
i.e. the constant baseline's.  Compare F0 with functionals.energy_report
of (u0, v0) before evolving a member.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .functionals import StatePair, _exponent_window
from .grid import RadialField, RadialGrid

__all__ = [
    "phi",
    "phi_log",
    "choose_eta_log",
    "Lemma14Recipe",
    "BlowupDatum",
    "lemma14_pair",
    "baseline_profiles",
    "constant_recipe",
]

log = logging.getLogger(__name__)

_PHI_ASYMPTOTIC_CUTOFF = 1e-8
_BISECT_MAX_ITER = 200
_BISECT_REL_TOL = 1e-14
_MIN_CELLS_INSIDE = 8

# quadrature profiles: energy pieces tolerate a tiny absolute floor (they are
# summed into O(1..k) totals), mass/norm integrals need pure relative control
_Q_ENERGY = dict(epsabs=1e-14, epsrel=1e-11, limit=400)
_Q_MASS = dict(epsabs=1e-300, epsrel=1e-11, limit=400)


def _tail_constant(n: int) -> float:
    """I_n = lim_{xi->0} (phi(xi) + 0.5 ln xi) = -(digamma(n/2) + gamma)/2.

    That is -H_{(n-2)/2} / 2 with the harmonic number H_x at an integer or
    half-integer x, built up from H_0 = 0 or H_{1/2} = 2 - 2 ln 2 by
    H_{x+1} = H_x + 1/(x+1).  For n = 3 this equals ln 2 - 1.
    """
    x, h = (0.5, 2.0 - 2.0 * math.log(2.0)) if n % 2 else (0.0, 0.0)
    while x < (n - 2) / 2.0:
        x += 1.0
        h += 1.0 / x
    return -0.5 * h


def phi(xi: float, n: int) -> float:
    """phi(xi) = int_0^1 rho^{n-1} (rho^2 + xi)^{-n/2} drho for xi > 0.

    Adaptive quadrature for moderate xi; below 1e-8 the exact small-xi
    expansion -0.5 ln xi + I_n + 0.5 log1p(xi) + (n-2) xi / 4 is already
    accurate far beyond 1e-10 absolute.
    """
    if not xi > 0:
        raise ValueError(f"phi needs xi > 0, got {xi}")
    if n < 3:
        raise ValueError(f"dimension n must be >= 3, got {n}")
    if xi < _PHI_ASYMPTOTIC_CUTOFF:
        return phi_log(math.log(xi), n)
    # scipy.integrate is most of the package's import time: load it only
    # where quadrature runs
    from scipy.integrate import quad

    def f(rho):
        return rho ** (n - 1) * (rho * rho + xi) ** (-n / 2.0)

    s = math.sqrt(xi)
    pts = [s] if s < 1.0 else None
    val, _ = quad(f, 0.0, 1.0, points=pts, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


def phi_log(log_xi: float, n: int) -> float:
    """phi evaluated from log(xi); valid for arbitrarily negative log_xi.

    This is the entry point for depth parameters below the float64 floor:
    log_xi is an ordinary double even when xi itself is not.
    """
    if n < 3:
        raise ValueError(f"dimension n must be >= 3, got {n}")
    if log_xi >= math.log(_PHI_ASYMPTOTIC_CUTOFF):
        return phi(math.exp(log_xi), n)
    xi = math.exp(log_xi)  # may underflow to 0.0: corrections vanish with it
    return -0.5 * log_xi + _tail_constant(n) + 0.5 * math.log1p(xi) + (n - 2) * xi / 4.0


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
    # guaranteed-satisfying lower end from the asymptotic inversion
    lo = two_log_rk - 2.0 * (need - _tail_constant(n)) - 5.0
    if not value(lo) >= k:  # pragma: no cover - asymptotic slack is generous
        lo -= 50.0
        if not value(lo) >= k:
            raise RuntimeError("could not bracket the depth parameter")

    for _ in range(_BISECT_MAX_ITER):
        if hi - lo <= _BISECT_REL_TOL:  # relative tolerance on eta itself
            break
        mid = 0.5 * (lo + hi)
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
    defaults to the midpoint of the exponent window for (n, p), and r_rule
    to r_k = (R/2) 2^-k.
    """

    grid: RadialGrid
    c: float
    p: float
    alpha: Optional[float] = None
    r_rule: Optional[Callable[[int], float]] = None

    def __post_init__(self):
        g = self.grid
        self.c = _constant_level(g, {"c": self.c}, "constant baseline")
        self.alpha, _ = _exponent_window(g.n, self.p, self.alpha)
        if self.r_rule is None:
            R = g.R
            self.r_rule = lambda k: (R / 2.0) * 2.0 ** (-k)


@dataclass(frozen=True)
class BlowupDatum:
    """One member of the energy-divergent family, in two representations.

    u0/v0 are the sampled grid fields (u0 renormalized on the grid, so its
    grid integral equals m to machine precision).  The closed-form profile
    parameters (a, b, log_eta, scale) plus the quadrature-evaluated numbers
    (F0, convergence norms, uv_over_k) describe the continuum datum.
    """

    k: int
    r_k: float
    eta: float          # exp(log_eta); 0.0 when below the float64 floor
    log_eta: float
    margin: float       # r_k^n phi(eta/r_k^2) - k, nonnegative
    a: float
    b: float
    scale: float        # m / ||u~_k||_1, the renormalization factor
    mass: float
    F0: float
    uv_integral: float
    du_lp: float        # ||u_k - u||_{L^p}, refined quadrature
    dv_w12: float       # ||v_k - v||_{W^{1,2}}, refined quadrature
    uv_over_k: float
    center_uv: float    # baseline u(0) v(0)
    u0: RadialField
    v0: RadialField


def _powq(base_log: float, expo: float) -> float:
    return math.exp(expo * base_log)


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
    if k < 1 or k != int(k):
        raise ValueError(f"family index k must be a positive integer, got {k}")
    k = int(k)
    g = recipe.grid
    n, R = g.n, g.R
    alpha = recipe.alpha
    p = recipe.p
    r_k = recipe.r_rule(k)
    if not 0 < r_k < R:
        raise ValueError(f"radius rule gave r_k={r_k} outside (0, {R})")
    if k >= 2 and not r_k < recipe.r_rule(k - 1):
        raise ValueError("radius rule must be strictly decreasing in k")

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
    a = _powq(log_s, (n - alpha) / 2.0) * c
    b = _powq(log_s, alpha / 2.0) * c

    def u_spike(r):
        return a * (r * r + eta) ** (-(n - alpha) / 2.0)

    def v_spike(r):
        return b * (r * r + eta) ** (-alpha / 2.0)

    def v_spike_prime(r):
        return -alpha * b * r * (r * r + eta) ** (-(alpha + 2.0) / 2.0)

    from scipy.integrate import IntegrationWarning, quad  # see phi

    wn = g.omega_n

    # cusp integrands trip quad's subdivision warning long after the
    # absolute error is far below what any downstream check uses; keep the
    # warning out of user output but on the debug log
    def inner(f, **kw):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IntegrationWarning)
            val, err = quad(lambda r: r ** (n - 1) * f(r), 0.0, r_k, **kw)
        for w in caught:
            log.debug("inner quad (k=%d): %s [abserr=%.3g]", k, w.message, err)
        return val

    # the baseline is constant on the shell r_k < r < R (so v' = 0 there),
    # and each shell term is its value times int_{r_k}^R r^{n-1} dr
    shell = (R ** n - r_k ** n) / n

    # mass of the unnormalized modification and the renormalization factor.
    # scale - 1 is kept as the exact ratio -delta / (mass + delta): for deep
    # spikes delta is far below one ulp of the mass, and forming the sum
    # first would quantize scale to 1 +- 1 ulp and put a plateau under the
    # convergence norms
    m = c * g.domain_volume
    delta = wn * inner(lambda r: u_spike(r) - c, **_Q_MASS)
    norm1_tilde = m + delta
    scale = m / norm1_tilde
    scale_m1 = -delta / norm1_tilde

    # the u v overlap: the inner piece is exactly a b phi(xi) and must go
    # through the log-space phi (its mass hides at unrepresentable radii)
    uv = wn * scale * (a * b * phi_log(log_xi, n) + c * c * shell)

    # one v'^2 integral at the mass profile serves grad_v_sq and dv_sq
    vp_sq = inner(lambda r: v_spike_prime(r) ** 2, **_Q_MASS)
    grad_v_sq = wn * vp_sq
    v_sq = wn * (inner(lambda r: v_spike(r) ** 2, **_Q_ENERGY) + c * c * shell)

    def xlogx(x):
        return x * math.log(x)

    entropy = wn * (
        inner(lambda r: xlogx(scale * u_spike(r)), **_Q_ENERGY)
        + xlogx(scale * c) * shell
    )
    F0 = 0.5 * grad_v_sq + 0.5 * v_sq - uv + entropy

    # convergence records against the baseline
    du_p = wn * (
        inner(lambda r: abs(scale * u_spike(r) - c) ** p, **_Q_MASS)
        + abs(scale_m1) ** p * c ** p * shell
    )
    du_lp = du_p ** (1.0 / p)
    dv_sq = wn * (
        inner(lambda r: (v_spike(r) - c) ** 2, **_Q_MASS) + vp_sq)
    dv_w12 = math.sqrt(dv_sq)

    # grid sampling: spike inside, baseline outside, renormalized on-grid
    r = g.centers
    inside = r < r_k
    u_vals = np.where(inside, u_spike(r), c)
    v_vals = np.where(inside, v_spike(r), c)
    grid_mass = g.integrate_values(np.full(g.ncells, c))
    u_vals = u_vals * (grid_mass / g.integrate_values(u_vals))
    u0 = RadialField(g, u_vals)
    v0 = RadialField(g, v_vals)

    log.info(
        "datum k=%d: r_k=%.3g log_eta=%.6g margin=%.3g F0=%.6g", k, r_k,
        log_eta, margin, F0,
    )
    return BlowupDatum(
        k=k, r_k=r_k, eta=eta, log_eta=log_eta, margin=margin, a=a, b=b,
        scale=scale, mass=m, F0=F0, uv_integral=uv, du_lp=du_lp,
        dv_w12=dv_w12, uv_over_k=uv / k, center_uv=c * c, u0=u0, v0=v0,
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


def baseline_profiles(kind: str, grid: RadialGrid, **params) -> StatePair:
    """Ready-made positive baselines.

    kind = 'constant': u = v = c (pass c, or m for c = m / |B_R|).
    kind = 'bump': u = v = floor + A exp(-(r/width)^2) with A set so the
    total mass is m (pass m, width, and optionally floor).
    """
    if kind == "constant":
        vals = np.full(grid.ncells, _constant_level(grid, params,
                                                    "constant baseline"))
        f = RadialField(grid, vals)
        return StatePair(f, RadialField(grid, vals))
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
        f = RadialField(grid, vals)
        return StatePair(f, RadialField(grid, vals.copy()))
    raise ValueError(f"unknown baseline kind {kind!r}")


def perturbed_constant(
    grid: RadialGrid, c: float = 1.0, amplitude: float = 0.2, mode: int = 1
) -> StatePair:
    """u = c (1 + amplitude cos(mode pi r / R)), v = c.

    The cosine has zero slope at both ends, so the data are compatible with
    the no-flux boundary.  amplitude must stay below 1 to keep u positive.
    """
    if not (c > 0 and 0 <= amplitude < 1 and mode >= 1):
        raise ValueError("need c > 0, 0 <= amplitude < 1, mode >= 1")
    r = grid.centers
    u = c * (1.0 + amplitude * np.cos(mode * math.pi * r / grid.R))
    v = np.full(grid.ncells, c)
    return StatePair(RadialField(grid, u), RadialField(grid, v))


def constant_recipe(
    grid: RadialGrid,
    c: float,
    p: float,
    alpha: Optional[float] = None,
    r_rule: Optional[Callable[[int], float]] = None,
) -> Lemma14Recipe:
    """Recipe over the constant baseline u = v = c."""
    return Lemma14Recipe(grid=grid, c=c, p=p, alpha=alpha, r_rule=r_rule)
