"""Time stepping: fixed points, conservation, the controller, detection."""

import math

import numpy as np
import pytest

from kslab import (
    RadialField,
    SolverConfig,
    StatePair,
    baseline_profiles,
    build_grid,
    detect_blowup,
    energy_report,
    fit_blowup_time,
    lp_norm,
    perturbed_constant,
    radial_derivative,
    run,
    scheme_tolerance,
    step,
)
from kslab.functionals import _gradv_exponent


@pytest.fixture(scope="module")
def grid():
    return build_grid(3, 1.0, 96)


def test_constant_state_is_fixed_point(grid):
    s = baseline_profiles("constant", grid, c=2.0)
    for _ in range(50):
        s = step(s, 1e-3)
    assert np.max(np.abs(s.u.values - 2.0)) < 1e-12
    assert np.max(np.abs(s.v.values - 2.0)) < 1e-12


def test_step_advances_time(grid):
    s = baseline_profiles("constant", grid, c=1.0)
    assert step(s, 2e-3).t == pytest.approx(s.t + 2e-3, rel=1e-15)


def test_mass_conservation_per_step(grid):
    s = perturbed_constant(grid, c=1.0, amplitude=0.3, mode=2)
    m0 = grid.integrate_values(s.u.values)
    for _ in range(200):
        s = step(s, 5e-4)
    drift = abs(grid.integrate_values(s.u.values) - m0) / m0
    # increment-form update keeps per-step mass error near machine epsilon
    assert drift < 1e-12


def test_v_mass_discrete_recursion(grid):
    # the v update integrates to m_v' = (m_v + dt m_u) / (1 + dt) exactly
    s = perturbed_constant(grid, c=1.0, amplitude=0.3, mode=1)
    dt = 1e-3
    mu = grid.integrate_values(s.u.values)
    mv = grid.integrate_values(s.v.values)
    s2 = step(s, dt)
    mv2 = grid.integrate_values(s2.v.values)
    assert mv2 == pytest.approx((mv + dt * mu) / (1 + dt), rel=1e-12)


def test_positivity_preserved_on_rough_data(grid):
    rng = np.random.default_rng(11)
    u = RadialField(grid, 10.0 ** rng.uniform(-3, 1, grid.ncells))
    v = RadialField(grid, 10.0 ** rng.uniform(-3, 1, grid.ncells))
    s = StatePair(u, v)
    for _ in range(40):
        s = step(s, 1e-5)
        assert np.all(s.u.values > 0)
        assert np.all(s.v.values > 0)


def test_v_mode_decay_matches_discrete_eigenvalue(grid):
    """With u frozen at a constant, a small v perturbation decays like
    e^{-(1+mu) t} where mu is the eigenvalue of the assembled radial
    operator for the mode closest to cos(pi r / R)."""
    L = (np.diag(grid.lap_diag)
         + np.diag(grid.lap_upper[:-1], 1)
         + np.diag(grid.lap_lower[1:], -1))
    evals, evecs = np.linalg.eig(L)
    w = grid.weights
    target = np.cos(math.pi * grid.centers)
    # mean-free part of the cosine under the radial weight, so the overlap
    # scan cannot land on the constant (mu = 0) mode
    free = target - np.dot(w, target) / np.sum(w)
    norms = np.sqrt(np.sum(w[:, None] * evecs.real ** 2, axis=0))
    j = int(np.argmax(np.abs(evecs.real.T @ (w * free)) / norms))
    mu = -float(evals[j].real)
    phi = evecs.real[:, j]
    # first nonconstant radial Neumann mode of the unit 3-ball: tan k = k
    assert mu == pytest.approx(4.493409457909064 ** 2, rel=0.01)

    # small background u so the chemotactic feedback on v's relaxation is
    # negligible; small dt so the backward Euler rate bias dt (1+mu)^2 / 2 is
    # below the tolerance
    eps, delta, dt = 1e-5, 1e-9, 2e-5
    s = StatePair(
        RadialField(grid, np.full(grid.ncells, eps)),
        RadialField(grid, eps + delta * target),
    )
    amps = []
    for _ in range(150):
        s = step(s, dt)
        # weighted projection picks this mode's coefficient exactly
        amps.append(abs(np.dot(w * phi, s.v.values - eps)))
    rate = -np.polyfit(dt * np.arange(1, 151), np.log(amps), 1)[0]
    assert rate == pytest.approx(1.0 + mu, rel=2e-3)


def test_v_relaxes_toward_u(grid):
    # with u frozen near constant, v solves v_t = lap v - v + u and should
    # approach u; after t ~ 5 the gap shrinks by ~ e^{-5}
    c = 2.0
    u = np.full(grid.ncells, c)
    s = StatePair(RadialField(grid, u), RadialField(grid, 0.5 * u))
    cfg = SolverConfig(t_end=5.0, dt_init=1e-4, dt_max=5e-2)
    traj = run(s, cfg)
    gap0 = abs(0.5 * c - c)
    gap = np.max(np.abs(traj.snapshots[-1].v.values - c))
    assert gap < gap0 * math.exp(-4.0)


def test_run_reaches_t_end_and_series_shape(grid):
    s = perturbed_constant(grid, c=1.0, amplitude=0.2)
    cfg = SolverConfig(t_end=0.05, dt_init=1e-5, dt_max=2e-3, snapshot_every=10)
    traj = run(s, cfg)
    assert traj.verdict.outcome == "reached_t_end"
    t = traj.series["t"]
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(0.05, rel=1e-9)
    assert np.all(np.diff(t) > 0)
    # row zero is the initial record with dt = 0, accepted rows carry dt > 0
    assert traj.series["dt"][0] == 0.0
    assert np.all(traj.series["dt"][1:] > 0)
    for col in ("mass_u", "sup_u", "F", "D"):
        assert traj.series[col].size == t.size


@pytest.mark.parametrize("n", [3, 4])
def test_series_row_zero_matches_public_functionals(n):
    # the fused diagnostics pass is the public definitions, bit for bit,
    # with |grad v|_p recorded at the n-dependent p_n
    s0 = perturbed_constant(build_grid(n, 1.0, 96), c=1.0, amplitude=0.3,
                            mode=2)
    cfg = SolverConfig(t_end=1e-4, dt_init=1e-5, dt_max=1e-4)
    row = {k: v[0] for k, v in run(s0, cfg).series.items()}
    rep = energy_report(s0)
    assert row["F"] == rep.F
    assert row["D"] == rep.D
    assert row["f_l2"] == math.sqrt(rep.f_norm_sq)
    assert row["g_l2"] == math.sqrt(rep.g_norm_sq)
    p_n = _gradv_exponent(n)
    assert 1.0 < p_n < n / (n - 1.0)
    assert row["gradv_lp"] == lp_norm(radial_derivative(s0.v, "neumann"), p_n)
    if n == 3:
        assert p_n == 1.4


def test_controller_grows_dt_to_cap(grid):
    s = baseline_profiles("constant", grid, c=1.0)
    cfg = SolverConfig(t_end=0.2, dt_init=1e-6, dt_max=1e-3)
    traj = run(s, cfg)
    assert np.max(traj.series["dt"]) == pytest.approx(1e-3, rel=1e-12)


def test_energy_never_increases_beyond_tolerance(grid):
    s = perturbed_constant(grid, c=1.0, amplitude=0.4, mode=3)
    cfg = SolverConfig(t_end=0.2, dt_init=1e-5, dt_max=2e-3)
    traj = run(s, cfg)
    F, dt = traj.series["F"], traj.series["dt"]
    for j in range(1, F.size):
        assert F[j] - F[j - 1] <= scheme_tolerance(dt[j], F[j - 1])


def test_determinism_bitwise(grid):
    s = perturbed_constant(grid, c=1.0, amplitude=0.2)
    cfg = SolverConfig(t_end=0.02, dt_init=1e-5, dt_max=1e-3)
    a = run(s, cfg)
    b = run(perturbed_constant(grid, c=1.0, amplitude=0.2), cfg)
    for col in a.series:
        assert np.all(a.series[col] == b.series[col]), col


def test_scheme_tolerance_scaling():
    base = scheme_tolerance(1e-3, -1.0)
    assert scheme_tolerance(2e-3, -1.0) > base
    assert scheme_tolerance(1e-3, -99.0) > base
    assert scheme_tolerance(0.0, 0.0) > 0.0  # rounding floor stays positive


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt_min=1e-3, dt_max=1e-6)


# --- detection ----------------------------------------------------------


def synthetic_series(sup, dt):
    sup = np.asarray(sup, dtype=float)
    dt = np.asarray(dt, dtype=float)
    t = np.concatenate([[0.0], np.cumsum(dt[1:])])
    return {"t": t, "dt": dt, "sup_u": sup}


def test_detect_blowup_needs_both_triggers():
    dt_min = 1e-9
    # growth without dt collapse: not a detection
    s1 = synthetic_series([1, 10, 1e2, 1e5], [0, 1e-3, 1e-3, 1e-3])
    assert detect_blowup(s1, 1e4, dt_min).outcome == "reached_t_end"
    # dt at the floor without growth: no footprint either (a run that
    # crawled but completed is not a blow-up)
    s2 = synthetic_series([1, 1, 1, 1], [0, 1e-3, 1e-9, 1e-9])
    assert detect_blowup(s2, 1e4, dt_min).outcome == "reached_t_end"
    # both: detected
    s3 = synthetic_series([1, 10, 1e3, 2e4], [0, 1e-3, 1e-6, 1e-9])
    v = detect_blowup(s3, 1e4, dt_min)
    assert v.outcome == "blew_up"
    assert v.t_detect == pytest.approx(s3["t"][-1])


def test_fit_blowup_time_exact_power_law():
    t = np.linspace(0.0, 0.49, 2000)
    sup = 2.0 * (0.5 - t) ** -1.5
    assert fit_blowup_time(t, sup) == pytest.approx(0.5, abs=1e-8)


def test_fit_blowup_time_ignores_saturated_tail():
    # once the spike is one cell wide the series piles up at a cap; the fit
    # must use the free-growth band, not the pile-up
    t = np.linspace(0.0, 0.6, 3000)
    sup = 2.0 * np.minimum((0.5 - np.minimum(t, 0.499)) ** -1.5, 300.0)
    assert fit_blowup_time(t, sup) == pytest.approx(0.5, abs=1e-3)


def test_fit_blowup_time_declines_flat_series():
    t = np.linspace(0.0, 1.0, 500)
    assert fit_blowup_time(t, np.ones_like(t)) is None


def test_blowup_run_end_to_end():
    # concentrated data on a uniform grid: collapse detected, dt pinned at
    # dt_min, extrapolated time slightly past detection
    grid = build_grid(3, 1.0, 256)
    ub = baseline_profiles("bump", grid, m=50.0, width=0.15, floor=1e-2)
    vb = baseline_profiles("bump", grid, m=25.0, width=0.3, floor=1e-2)
    s = StatePair(ub.u, RadialField(grid, 0.5 * vb.v.values))
    cfg = SolverConfig(t_end=0.02, dt_init=1e-7, dt_min=5e-8, dt_max=1e-4,
                       blowup_factor=1e4, snapshot_every=50, max_steps=20000)
    traj = run(s, cfg)
    assert traj.verdict.outcome == "blew_up"
    assert traj.verdict.t_detect is not None
    assert traj.verdict.t_detect < 0.02
    te = traj.verdict.t_extrapolated
    assert te is not None
    assert te == pytest.approx(traj.verdict.t_detect, rel=0.25)
    sup = traj.series["sup_u"]
    assert np.max(sup) >= 1e4 * sup[0]


def _cfl_stall_run(**overrides):
    # the bump collapse on a coarse grid with dt_min far below the CFL
    # bound: once the spike sharpens, dt sits on the CFL bound (about 1e-7)
    # and the 400-step budget runs out long before t_end
    grid = build_grid(3, 1.0, 256)
    ub = baseline_profiles("bump", grid, m=50.0, width=0.15, floor=1e-2)
    vb = baseline_profiles("bump", grid, m=25.0, width=0.3, floor=1e-2)
    s = StatePair(ub.u, RadialField(grid, 0.5 * vb.v.values))
    cfg = dict(t_end=1.0, dt_init=1e-7, dt_min=1e-12, dt_max=1e-4,
               blowup_factor=1e4, snapshot_every=50, max_steps=400)
    cfg.update(overrides)
    return run(s, SolverConfig(**cfg))


@pytest.fixture(scope="module")
def cfl_stall():
    return _cfl_stall_run()


def test_budget_exhausted_on_cfl_stall_after_growth_is_blowup(cfl_stall):
    traj = cfl_stall
    s = traj.series
    assert s["t"].size - 1 == traj.config.max_steps
    assert s["t"][-1] < 1e-3
    assert s["dt"][-1] > 1e4 * traj.config.dt_min  # never near dt_min
    v = traj.verdict
    assert v.outcome == "blew_up"
    assert "CFL" in v.trigger
    grew = s["sup_u"] >= 1e4 * s["sup_u"][0]
    assert v.t_detect == s["t"][np.argmax(grew)]
    assert v.t_extrapolated is not None


def test_budget_exhausted_without_growth_is_inconclusive(cfl_stall):
    # the same trajectory, judged against a growth factor it never reaches
    traj = _cfl_stall_run(blowup_factor=1e9)
    assert np.array_equal(traj.series["sup_u"], cfl_stall.series["sup_u"])
    assert traj.verdict.outcome == "inconclusive"
    assert traj.verdict.t_detect is None


def test_budget_exhausted_within_reach_of_t_end_is_inconclusive(cfl_stall):
    # growth is in, but t_end is so close that another budget at the final
    # CFL-limited dt would get there: the stall does not settle the run
    s = cfl_stall.series
    t_end = s["t"][-1] + 0.5 * s["dt"][-1] * cfl_stall.config.max_steps
    traj = _cfl_stall_run(t_end=t_end)
    assert np.array_equal(traj.series["t"], s["t"])
    assert traj.verdict.outcome == "inconclusive"
