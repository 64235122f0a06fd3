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

Convergence and energy numbers of a datum are computed by adaptive
quadrature of the closed-form profiles, not by grid sums; the sampled grid
fields are a separate (renormalized-on-grid) representation, and they
carry the construction only if the grid resolves the core sqrt(eta_k).
When the core lies below the smallest cell, the grid samples only the
power tail, and the sampled pair has nothing of the energy the core
holds.  On the N=1024 grid graded 1.013 (smallest cell 2.3e-8) the default
members k = 1, 12, 20 have F0 = -9.27, -152.9, -253.4 but grid energies
-1.28, -2.09, -2.09, i.e. the constant baseline's.  Compare F0 with
functionals.energy_report of (u0, v0) before evolving a member.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .functionals import StatePair, _exponent_window
from .grid import RadialField, RadialGrid, integrate

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

_tail_const_cache: dict[int, float] = {}


def _tail_constant(n: int) -> float:
    """I_n = lim_{xi->0} (phi(xi) + 0.5 ln xi), via the exact decomposition

    phi(xi) = 0.5 ln((1+xi)/xi) + int_0^{1/sqrt(xi)} h_n(s) ds,
    h_n(s) = s/(s^2+1) * ((s^2/(s^2+1))^{(n-2)/2} - 1).

    For n = 3 this equals ln 2 - 1.
    """
    if n not in _tail_const_cache:
        def h(s):
            w = s * s / (s * s + 1.0)
            return s / (s * s + 1.0) * (w ** ((n - 2) / 2.0) - 1.0)

        a1, _ = quad(h, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
        a2, _ = quad(h, 1.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=200)
        _tail_const_cache[n] = a1 + a2
    return _tail_const_cache[n]


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
    """Baseline pair plus the exponents and radius rule of the construction.

    base_u / base_v are positive radial fields on the grid the data will be
    sampled on; u_fn, v_fn and v_prime_fn are the same baselines (and v')
    as callables, which the quadratures evaluate.
    """

    base_u: RadialField
    base_v: RadialField
    p: float
    u_fn: Callable[[float], float]
    v_fn: Callable[[float], float]
    v_prime_fn: Callable[[float], float]
    alpha: Optional[float] = None
    r_rule: Optional[Callable[[int], float]] = None

    def __post_init__(self):
        g = self.base_u.grid
        if np.any(self.base_u.values <= 0) or np.any(self.base_v.values <= 0):
            raise ValueError("baselines must be strictly positive")
        self.alpha, _ = _exponent_window(g.n, self.p, self.alpha)
        if self.r_rule is None:
            R = g.R
            self.r_rule = lambda k: (R / 2.0) * 2.0 ** (-k)

    @property
    def grid(self) -> RadialGrid:
        return self.base_u.grid

    @property
    def mass(self) -> float:
        return integrate(self.base_u)


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
    u_rk = recipe.u_fn(r_k)
    v_rk = recipe.v_fn(r_k)
    a = _powq(log_s, (n - alpha) / 2.0) * u_rk
    b = _powq(log_s, alpha / 2.0) * v_rk

    def u_spike(r):
        return a * (r * r + eta) ** (-(n - alpha) / 2.0)

    def v_spike(r):
        return b * (r * r + eta) ** (-alpha / 2.0)

    def v_spike_prime(r):
        return -alpha * b * r * (r * r + eta) ** (-(alpha + 2.0) / 2.0)

    wn = g.omega_n

    # cusp integrands trip quad's subdivision warning long after the
    # absolute error is far below what any downstream check uses; keep the
    # warning out of user output but on the debug log
    def shell(lo, hi, label):
        def integral(f, **kw):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", IntegrationWarning)
                val, err = quad(lambda r: r ** (n - 1) * f(r), lo, hi, **kw)
            for w in caught:
                log.debug("%s quad (k=%d): %s [abserr=%.3g]", label, k,
                          w.message, err)
            return val
        return integral

    inner, outer = shell(0.0, r_k, "inner"), shell(r_k, R, "outer")

    # mass of the unnormalized modification and the renormalization factor.
    # scale - 1 is kept as the exact ratio -delta / (mass + delta): for deep
    # spikes delta is far below one ulp of the mass, and forming the sum
    # first would quantize scale to 1 +- 1 ulp and put a plateau under the
    # convergence norms
    m = wn * (inner(recipe.u_fn, **_Q_MASS) + outer(recipe.u_fn, **_Q_MASS))
    delta = wn * inner(lambda r: u_spike(r) - recipe.u_fn(r), **_Q_MASS)
    norm1_tilde = m + delta
    scale = m / norm1_tilde
    scale_m1 = -delta / norm1_tilde

    # the u v overlap: the inner piece is exactly a b phi(xi) and must go
    # through the log-space phi (its mass hides at unrepresentable radii)
    uv = wn * scale * (
        a * b * phi_log(log_xi, n)
        + outer(lambda r: recipe.u_fn(r) * recipe.v_fn(r), **_Q_MASS)
    )

    grad_v_sq = wn * (
        inner(lambda r: v_spike_prime(r) ** 2, **_Q_ENERGY)
        + outer(lambda r: recipe.v_prime_fn(r) ** 2, **_Q_ENERGY)
    )
    v_sq = wn * (
        inner(lambda r: v_spike(r) ** 2, **_Q_ENERGY)
        + outer(lambda r: recipe.v_fn(r) ** 2, **_Q_ENERGY)
    )

    def xlogx(x):
        return x * math.log(x)

    entropy = wn * (
        inner(lambda r: xlogx(scale * u_spike(r)), **_Q_ENERGY)
        + outer(lambda r: xlogx(scale * recipe.u_fn(r)), **_Q_ENERGY)
    )
    F0 = 0.5 * grad_v_sq + 0.5 * v_sq - uv + entropy

    # convergence records against the baseline
    du_p = wn * (
        inner(lambda r: abs(scale * u_spike(r) - recipe.u_fn(r)) ** p, **_Q_MASS)
        + outer(lambda r: abs(scale_m1) ** p * recipe.u_fn(r) ** p, **_Q_MASS)
    )
    du_lp = du_p ** (1.0 / p)
    dv_sq = wn * (
        inner(lambda r: (v_spike(r) - recipe.v_fn(r)) ** 2, **_Q_MASS)
        + inner(lambda r: (v_spike_prime(r) - recipe.v_prime_fn(r)) ** 2, **_Q_MASS)
    )
    dv_w12 = math.sqrt(dv_sq)

    # grid sampling: spike inside, baseline outside, renormalized on-grid
    r = g.centers
    inside = r < r_k
    u_vals = np.where(inside, u_spike(r), recipe.base_u.values)
    v_vals = np.where(inside, v_spike(r), recipe.base_v.values)
    u_vals = u_vals * (recipe.mass / g.integrate_values(u_vals))
    u0 = RadialField(g, u_vals)
    v0 = RadialField(g, v_vals)

    log.info(
        "datum k=%d: r_k=%.3g log_eta=%.6g margin=%.3g F0=%.6g", k, r_k,
        log_eta, margin, F0,
    )
    return BlowupDatum(
        k=k, r_k=r_k, eta=eta, log_eta=log_eta, margin=margin, a=a, b=b,
        scale=scale, mass=m, F0=F0, uv_integral=uv, du_lp=du_lp,
        dv_w12=dv_w12, uv_over_k=uv / k,
        center_uv=recipe.u_fn(0.0) * recipe.v_fn(0.0),
        u0=u0, v0=v0,
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
        shape_mass, _ = quad(
            lambda r: r ** (grid.n - 1) * math.exp(-((r / width) ** 2)),
            0.0, grid.R, epsabs=1e-300, epsrel=1e-12, limit=200,
        )
        amp = (m - floor * grid.domain_volume) / (grid.omega_n * shape_mass)
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
    """Recipe over the constant baseline u = v = c, with exact callables."""
    s = baseline_profiles("constant", grid, c=c)
    return Lemma14Recipe(
        base_u=s.u, base_v=s.v, p=p, alpha=alpha, r_rule=r_rule,
        u_fn=lambda r: c, v_fn=lambda r: c, v_prime_fn=lambda r: 0.0,
    )
