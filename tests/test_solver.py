"""Time stepping: fixed points, conservation, the controller, detection."""

import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

from kslab import (
    RadialField,
    SolverConfig,
    StatePair,
    baseline_profiles,
    build_grid,
    constant_recipe,
    energy_report,
    lemma14_pair,
    perturbed_constant,
    run,
    step,
)
from kslab import functionals, solver
from kslab.config import lemma14_recipe_from
from kslab.functionals import _bernoulli, _gradv_exponent, constant_energy
from kslab.solver import _next_dt, _Workspace
from kslab.verifier import _TOL_FLOOR


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


@pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
def test_step_refuses_a_dt_that_is_not_positive_and_finite(grid, dt):
    # dt = inf would return an all-NaN state at t = inf
    s = baseline_profiles("constant", grid, c=1.0)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        step(s, dt)


def test_mass_conservation_per_step(grid):
    s = perturbed_constant(grid, c=1.0, amplitude=0.3, mode=2)
    m0 = grid.integrate_values(s.u.values)
    for _ in range(200):
        s = step(s, 5e-4)
    drift = abs(grid.integrate_values(s.u.values) - m0) / m0
    # the weighted u-matrix has column sums w, so per-step mass error stays
    # near machine epsilon
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
         + np.diag(grid.lap_off[0], 1)
         + np.diag(grid.lap_off[1], -1))
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
def test_snapshot_rows_match_public_functionals(n):
    # the run's check-free diagnostics pass is the public definitions, bit
    # for bit, on every retained state, with |grad v|_p recorded at the
    # n-dependent p_n, as energy_report's gradv_lp and as _row_reference
    # spells it.  D and f_l2 are the state's own on row 0 only; later rows
    # record the step's, which
    # test_every_series_row_matches_spelled_out_diagnostics pins against
    # the departure u
    s0 = perturbed_constant(build_grid(n, 1.0, 96), c=1.0, amplitude=0.3,
                            mode=2)
    cfg = SolverConfig(t_end=1e-4, dt_init=1e-5, dt_max=1e-4,
                       snapshot_every=2)
    traj = run(s0, cfg)
    assert len(traj.snapshots) >= 4
    p_n = _gradv_exponent(n)
    assert 1.0 < p_n < n / (n - 1.0)
    if n == 3:
        assert p_n == 1.4
    for s in traj.snapshots:
        (i,) = np.flatnonzero(traj.series["t"] == s.t)
        row = {k: v[i] for k, v in traj.series.items()}
        rep = energy_report(s)
        assert row["F"] == rep.F
        if i == 0:
            assert row["D"] == rep.D
            assert row["f_l2"] == math.sqrt(rep.f_norm_sq)
        assert row["g_l2"] == math.sqrt(rep.g_norm_sq)
        assert row["gradv_lp"] == _row_reference(s, s.u.values)["gradv_lp"]
        assert row["gradv_lp"] == rep.gradv_lp
        assert row["mass_u"] == s.grid.integrate_values(s.u.values) \
            == rep.mass_u
        assert row["mass_v"] == s.grid.integrate_values(s.v.values) \
            == rep.mass_v
        assert row["sup_u"] == np.max(s.u.values)
        assert row["sup_v"] == np.max(s.v.values)


def _row_reference(s, u_old):
    """The diagnostics of a series row spelled out from the grid's face
    data, its Laplacian and integrate_values, each integrand in the order
    of the formulas in the functionals docstring: d = v_{i+1} - v_i, the
    Scharfetter-Gummel J = B(-d) u_i - B(d) u_{i+1} and mu = ln u - v on
    the faces, and a P_SG term that roundoff makes negative counted as 0.
    f = -Lap v + v - u_old is taken against the step's departure u."""
    g, u, v = s.grid, s.u.values, s.v.values
    integral = g.integrate_values

    def on_faces(weights, values):
        return g.omega_n * float(np.dot(weights, values))

    d = v[1:] - v[:-1]
    f = -g.laplacian(v) + v - u_old
    b, b_neg = _bernoulli(v[1:] - v[:-1])
    mu = np.log(u) - v
    p_sg = on_faces(g.trans, np.maximum(
        (b_neg * u[:-1] - b * u[1:]) * (mu[:-1] - mu[1:]), 0.0))
    p = _gradv_exponent(g.n)
    gradv_p = on_faces(g.face_area, g.face_dr * np.abs(d / g.face_dr) ** p)
    return {
        "t": s.t, "mass_u": integral(u), "mass_v": integral(v),
        "sup_u": np.max(u), "sup_v": np.max(v),
        "F": (0.5 * on_faces(g.trans, d * d) + 0.5 * integral(v * v)
              - integral(u * v) + integral(u * np.log(u))),
        "D": integral(f * f) + p_sg,
        "f_l2": math.sqrt(integral(f * f)),
        "g_l2": math.sqrt(p_sg),
        "gradv_lp": gradv_p ** (1.0 / p),
    }


def _assert_rows_match_reference(traj):
    """Each row of a run that retained every state is, bit for bit, the
    reference built from the state it records and the one before (row 0:
    the state itself)."""
    assert len(traj.snapshots) == traj.series["t"].size
    for i, s in enumerate(traj.snapshots):
        ref = _row_reference(s, traj.snapshots[max(i - 1, 0)].u.values)
        got = np.array([traj.series[c][i] for c in ref])
        assert got.tobytes() == np.array(list(ref.values())).tobytes(), i


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("grading", [1.0, 1.05])
def test_every_series_row_matches_spelled_out_diagnostics(n, grading):
    # a concentrating bump (it collapses within the budget on the uniform
    # grids) retained at every step
    g = build_grid(n, 1.0, 128, grading)
    s0 = baseline_profiles("bump", g, m=20.0, width=0.2, floor=1e-2)
    traj = run(s0, SolverConfig(t_end=1.0, dt_init=1e-6, dt_max=1e-4,
                                snapshot_every=1, max_steps=40))
    assert len(traj.snapshots) == traj.series["t"].size > 30
    _assert_rows_match_reference(traj)


def test_rows_after_rejected_trials_match_spelled_out_diagnostics():
    # a rejected trial leaves its face pass behind, and the next trial
    # makes its own: every row, the rows right after a rejection included,
    # is bit for bit the reference of its state and departure u
    _, traj = _graded_collapse_run(1)
    assert traj.rejected_steps >= 3
    _assert_rows_match_reference(traj)


def test_one_bernoulli_pass_per_trial_step(monkeypatch):
    # the u-solve's face pass is the one its row reads: a run makes one per
    # trial step, accepted or rejected, plus one for s0's row 0, and step,
    # which computes no row, makes one
    real, calls = functionals._bernoulli, []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(functionals, "_bernoulli", counting)
    s0, traj = _graded_collapse_run(20)
    steps = traj.series["t"].size - 1
    assert traj.rejected_steps >= 3
    assert len(calls) == steps + traj.rejected_steps + 1
    calls.clear()
    step(s0, 1e-6)
    assert len(calls) == 1


@pytest.mark.parametrize("at", [0, 5])
def test_non_finite_diagnostics_row_ends_the_run(overflow_row, at):
    # the row stays in the series, and the run ends at it, named; at row 0,
    # s0's own, the run takes no step and keeps s0 as its one snapshot
    overflow_row(at)
    traj = _collapse_run()
    v, t = traj.verdict, traj.series["t"]
    assert v.outcome == "diverged_numerically"
    assert v.trigger == "non_finite_diagnostics: D, g_l2"
    assert t.size == at + 1 and v.t_detect == t[-1] == traj.snapshots[-1].t
    assert len(traj.snapshots) == (1 if at == 0 else 2)
    assert traj.snapshots[0].t == t[0] == 0.0
    assert traj.series["D"][-1] == traj.series["g_l2"][-1] == math.inf
    assert np.all(np.isfinite(traj.series["F"]))
    assert all(np.isfinite(traj.series[c][:-1]).all() for c in traj.series)


@pytest.mark.parametrize("every, multiple", [(4, True), (5, False)])
def test_snapshot_retention_rule(grid, every, multiple):
    # s0, then every `every`-th accepted state, then the final state once;
    # each snapshot is the state of its series row, replayed through step
    s0 = perturbed_constant(grid, c=1.0, amplitude=0.2)
    cfg = SolverConfig(t_end=1.2e-2, dt_init=1e-3, dt_max=1e-3,
                       snapshot_every=every)
    traj = run(s0, cfg)
    t = traj.series["t"]
    steps = t.size - 1
    assert (steps % every == 0) == multiple
    rows = list(range(0, steps + 1, every))
    if not multiple:
        rows.append(steps)
    assert traj.snapshots[0] is s0
    assert [s.t for s in traj.snapshots] == [t[i] for i in rows]
    _assert_snapshots_replay(traj, s0, rows)


def _assert_snapshots_replay(traj, s0, rows):
    """Snapshot j is bitwise the state reached by stepping s0 through
    step with the accepted dt's up to series row rows[j]."""
    dt = traj.series["dt"]
    s = s0
    for i in range(1, rows[-1] + 1):
        s = step(s, dt[i])
        if i in rows:
            snap = traj.snapshots[rows.index(i)]
            assert snap.t == s.t
            assert snap.u.values.tobytes() == s.u.values.tobytes()
            assert snap.v.values.tobytes() == s.v.values.tobytes()


def _graded_collapse_run(snapshot_every):
    """(s0, trajectory) of the collapse datum on a grid graded 1.2 toward
    the origin, stepped from dt 1e-16: the controller rejects several
    trials on the way to the collapse."""
    grid = build_grid(3, 1.0, 256, 1.2)
    ub = baseline_profiles("bump", grid, m=50.0, width=0.15, floor=1e-2)
    vb = baseline_profiles("bump", grid, m=25.0, width=0.3, floor=1e-2)
    s0 = StatePair(ub.u, RadialField(grid, 0.5 * vb.v.values))
    return s0, run(s0, SolverConfig(t_end=1.0, dt_init=1e-16, dt_min=1e-18,
                                    dt_max=1e-2, snapshot_every=snapshot_every,
                                    max_steps=20000))


def test_rejected_trials_leave_the_state_untouched():
    # a trial is built in its own buffer, so each retained state is the
    # replay of the accepted steps alone
    s0, traj = _graded_collapse_run(20)
    steps = traj.series["t"].size - 1
    assert traj.rejected_steps >= 3
    assert traj.verdict.outcome == "blew_up"
    rows = list(range(0, steps, 20)) + [steps]
    assert [s.t for s in traj.snapshots] == [traj.series["t"][i] for i in rows]
    _assert_snapshots_replay(traj, s0, rows)


def _solve_reference(g, shift, dt, rhs):
    """The band solve through scipy's solve_banded, which dispatches to the
    same LAPACK gtsv that _Workspace.diffusion_solve calls directly."""
    ab = np.zeros((3, g.ncells))
    ab[0, 1:] = -dt * g.lap_off[0]
    ab[1, :] = shift - dt * g.lap_diag
    ab[2, :-1] = -dt * g.lap_off[1]
    return solve_banded((1, 1), ab, rhs, overwrite_ab=True, check_finite=False)


@pytest.mark.parametrize("N, grading", [(64, 1.0), (256, 1.035)])
@pytest.mark.parametrize("dt", [1e-16, 1e-6, 1e-2])
@pytest.mark.parametrize("v_shift", [False, True])
def test_solve_matches_solve_banded_bitwise(N, grading, dt, v_shift):
    # shift 1 + dt is the v-solve, shift 1 plain implicit diffusion
    g = build_grid(3, 1.0, N, grading)
    rhs = np.random.default_rng(3).uniform(-1.0, 2.0, N)
    shift = 1.0 + dt if v_shift else 1.0
    ref = _solve_reference(g, shift, dt, rhs.copy())
    x = rhs.copy()
    _Workspace(baseline_profiles("constant", g, c=1.0)).diffusion_solve(
        shift, dt, x)
    assert x.tobytes() == ref.tobytes()


def _sg_reference(g, u, v_new, dt):
    """The u-solve assembled from _bernoulli and the face data and solved
    through scipy's solve_banded: face i pulls dt trans_i B(d_i) u_{i+1}
    into cell i and dt trans_i B(-d_i) u_i into cell i+1, d = v'_{i+1} -
    v'_i, and each cell keeps its weight on the diagonal."""
    b_up, b_down = _bernoulli(v_new[1:] - v_new[:-1])
    scale = g.face_area / g.face_dr * dt
    upper, lower = scale * b_up, scale * b_down
    ab = np.zeros((3, g.ncells))
    ab[0, 1:] = -upper
    ab[1] = g.weights
    ab[1, :-1] += lower
    ab[1, 1:] += upper
    ab[2, :-1] = -lower
    return solve_banded((1, 1), ab, g.weights * u, overwrite_ab=True,
                        check_finite=False)


def test_solve_refuses_singular_band():
    g = build_grid(3, 1.0, 64)
    rhs = np.ones(g.ncells)
    with pytest.raises(LinAlgError):
        _solve_reference(g, 0.0, 0.0, rhs.copy())
    with pytest.raises(LinAlgError):
        _Workspace(baseline_profiles("constant", g, c=1.0)).diffusion_solve(
            0.0, 0.0, rhs.copy())


def test_next_dt_grows_by_1_2_up_to_dt_max_and_caps_growth_of_u():
    # growth by 1.2 when u did not grow, or grew too little to bind the cap
    assert _next_dt(1e-6, 1.0, 1e-2) == 1.2 * 1e-6
    assert _next_dt(1e-6, 0.5, 1e-2) == 1.2 * 1e-6
    assert _next_dt(1e-6, 1.1, 1e-2) == 1.2 * 1e-6
    # the dt_max cap
    assert _next_dt(9e-3, 1.0, 1e-2) == 1e-2
    # after a step that grew u by gamma, the next one should grow u by
    # about 1.5 at most: dt ln 1.5 / ln gamma
    assert _next_dt(1e-3, 3.0, 1e-2) == 1e-3 * math.log(1.5) / math.log(3.0)
    assert _next_dt(1e-3, 1e6, 1e-2) < 0.03 * 1e-3


def test_controller_grows_dt_to_cap(grid):
    s = baseline_profiles("constant", grid, c=1.0)
    cfg = SolverConfig(t_end=0.2, dt_init=1e-6, dt_max=1e-3)
    traj = run(s, cfg)
    assert np.max(traj.series["dt"]) == pytest.approx(1e-3, rel=1e-12)


def test_energy_never_increases_beyond_tolerance(grid):
    s = perturbed_constant(grid, c=1.0, amplitude=0.4, mode=3)
    cfg = SolverConfig(t_end=0.2, dt_init=1e-5, dt_max=2e-3)
    traj = run(s, cfg)
    F, D, dt = (traj.series[c] for c in ("F", "D", "dt"))
    for j in range(1, F.size):
        assert (F[j] - F[j - 1] + dt[j] * D[j]
                <= _TOL_FLOOR * (1.0 + abs(F[j - 1])))


@pytest.mark.parametrize("N, grading", [(512, 1.0), (256, 1.05)])
def test_one_step_energy_law_at_every_dt(N, grading):
    # F(s') - F(s) <= -dt D_step from every retained state of the collapse
    # datum, for dt across twelve decades: D_step is |f|^2 against the
    # departure u plus P_SG of the arrival state
    dts = np.logspace(-12.0, 0.0, 25)
    for s in _collapse_run(N, grading).snapshots:
        F = energy_report(s).F
        for dt in dts:
            s1 = step(s, dt)
            d_step = (energy_report(StatePair(s.u, s1.v)).f_norm_sq
                      + energy_report(s1).g_norm_sq)
            margin = energy_report(s1).F - F + dt * d_step
            assert margin <= _TOL_FLOOR * (1.0 + abs(F)), (s.t, dt)


def test_determinism_bitwise(grid):
    s = perturbed_constant(grid, c=1.0, amplitude=0.2)
    cfg = SolverConfig(t_end=0.02, dt_init=1e-5, dt_max=1e-3)
    a = run(s, cfg)
    b = run(perturbed_constant(grid, c=1.0, amplitude=0.2), cfg)
    for col in a.series:
        assert np.all(a.series[col] == b.series[col]), col


@pytest.mark.parametrize("t0", [math.nan, math.inf, 0.2, 0.3])
def test_run_refuses_a_start_time_not_finite_and_short_of_t_end(grid, t0):
    # t = nan ended diverged_numerically on row 0, and t >= t_end ended
    # reached_t_end after no step
    c = baseline_profiles("constant", grid, c=1.0)
    s0 = StatePair(c.u, c.v, t0)
    with pytest.raises(ValueError, match="finite start time below t_end"):
        run(s0, SolverConfig(t_end=0.2))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt_min=1e-3, dt_max=1e-6)
    # t_end = inf would end run with zero steps, "reached_t_end"
    for key in ("t_end", "dt_init", "dt_min", "dt_max", "blowup_factor"):
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(**{key: math.inf})
    for key in ("snapshot_every", "max_steps"):
        for bad in (2.5, 3.0, True):
            with pytest.raises(TypeError, match=f"^{key} must be an integer"):
                SolverConfig(**{key: bad})


# --- detection ----------------------------------------------------------


def test_blowup_run_end_to_end():
    # concentrated data on a uniform grid: collapse detected once sup_u has
    # grown 1e4-fold and F has fallen below the constant state's F_c(m)
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
    sup = traj.series["sup_u"]
    assert np.max(sup) >= 1e4 * sup[0]


def _collapse_run(N=256, grading=1.0, **overrides):
    # the collapse datum: a mass-50 bump over half a wider mass-25 signal,
    # by default on the uniform N=256 grid; there sup_u has grown 1e4-fold
    # after 40 steps, and F is below F_c(50) after 46
    grid = build_grid(3, 1.0, N, grading)
    ub = baseline_profiles("bump", grid, m=50.0, width=0.15, floor=1e-2)
    vb = baseline_profiles("bump", grid, m=25.0, width=0.3, floor=1e-2)
    s = StatePair(ub.u, RadialField(grid, 0.5 * vb.v.values))
    cfg = dict(t_end=0.02, dt_init=1e-6, dt_min=2e-8, dt_max=1e-4,
               blowup_factor=1e4, snapshot_every=8, max_steps=500)
    cfg.update(overrides)
    return run(s, SolverConfig(**cfg))


def _constant_energy_of(traj):
    # F_c of the run's mass, row 0's, as the verdict takes it
    return constant_energy(traj.grid, traj.series["mass_u"][0])


def test_collapse_datum_blows_up_on_grid_within_budget():
    traj = _collapse_run()
    v = traj.verdict
    assert v.outcome == "blew_up"
    assert v.trigger.startswith("below_constant_energy: F -")
    assert traj.series["t"].size - 1 < traj.config.max_steps
    assert traj.series["F"][-1] < _constant_energy_of(traj)
    grew = traj.series["sup_u"] >= 1e4 * traj.series["sup_u"][0]
    assert v.t_detect == traj.series["t"][np.argmax(grew)]


def test_blowup_needs_growth_and_energy_below_constant():
    # growth without F < F_c: stop the collapse between the growth row (40)
    # and the F_c row (46)
    full = _collapse_run()
    t_end = 0.5 * (full.verdict.t_detect + full.series["t"][-1])
    traj = _collapse_run(t_end=t_end)
    sup = traj.series["sup_u"]
    assert np.max(sup) >= 1e4 * sup[0]
    assert traj.series["F"][-1] >= _constant_energy_of(traj)
    assert traj.verdict.outcome == "reached_t_end"
    # F < F_c without growth: the same trajectory judged against a growth
    # factor it never reaches runs on past the collapse
    traj = _collapse_run(t_end=5e-3, blowup_factor=1e6)
    sup = traj.series["sup_u"]
    assert np.max(sup) < 1e6 * sup[0]
    assert traj.series["F"][-1] < _constant_energy_of(traj)
    assert traj.verdict.outcome == "reached_t_end"
    assert traj.verdict.t_detect is None


@pytest.mark.parametrize("blowup_factor, grows", [(1e4, True), (1e9, False)])
def test_budget_exhausted_short_of_t_end_is_inconclusive(blowup_factor, grows):
    # 45 steps: past the growth row, short of the F_c row
    traj = _collapse_run(max_steps=45, blowup_factor=blowup_factor)
    sup = traj.series["sup_u"]
    assert traj.series["t"].size - 1 == 45
    assert (np.max(sup) >= blowup_factor * sup[0]) == grows
    assert traj.series["F"][-1] >= _constant_energy_of(traj)
    assert traj.verdict.outcome == "inconclusive"
    assert traj.verdict.t_detect is None


def test_controller_rejects_a_step_that_grows_u_tenfold():
    # mid-collapse, a step of dt_max = 1e-4 grows u about 40-fold: it is
    # rejected and retried at half the dt, and no accepted step above
    # dt_min grows u by more than 10
    mid = _collapse_run(max_steps=30).snapshots[-1]
    traj = run(mid, SolverConfig(t_end=0.02, dt_init=1e-4, dt_min=2e-8,
                                 dt_max=1e-4, snapshot_every=1, max_steps=20))
    assert traj.rejected_steps >= 1
    growth = [np.max(b.u.values / a.u.values)
              for a, b in zip(traj.snapshots, traj.snapshots[1:])]
    assert max(growth) <= 10.0


@pytest.mark.parametrize("grown", [False, True])
def test_step_rejected_at_dt_min_is_diverged_whatever_the_growth(
        monkeypatch, grown):
    # every step fails from the start, or once sup_u has grown 1e4-fold;
    # the controller halves dt down to dt_min and the step fails there too
    real = solver._Workspace.try_step
    sup0 = _collapse_run(max_steps=1).series["sup_u"][0]

    def failing(ws, dt):
        real(ws, dt)
        if not grown or np.max(ws.state[0]) >= 1e4 * sup0:
            np.negative(ws.trial[0], out=ws.trial[0])

    monkeypatch.setattr(solver._Workspace, "try_step", failing)
    traj = _collapse_run()
    sup = traj.series["sup_u"]
    assert (np.max(sup) >= 1e4 * sup0) == grown
    assert traj.verdict.outcome == "diverged_numerically"
    assert traj.verdict.trigger == "step_rejected_at_dt_min"


# --- the Scharfetter-Gummel u-step ----------------------------------------


@pytest.mark.parametrize("x", [0.0, 1e-300, -1e-300, 1e-8, -1e-8, 700.0,
                               -700.0, 800.0, -800.0, 1e300, -1e300])
def test_bernoulli_pair_finite_and_exact_identity(x):
    with np.errstate(all="raise"):
        b, b_neg = _bernoulli(np.array([x]))
    b, b_neg = float(b[0]), float(b_neg[0])
    assert math.isfinite(b) and math.isfinite(b_neg)
    a = abs(x)
    small, large = (b, b_neg) if x >= 0 else (b_neg, b)
    assert large == a + small                     # B(-a) = a + B(a)
    # B(a) = a e^{-a} / (1 - e^{-a}), 1 at a = 0
    ref = 1.0 if a == 0.0 else a * math.exp(-a) / -math.expm1(-a)
    assert small == pytest.approx(ref, rel=1e-15, abs=0.0)


def _resolved_recipe(grid, c):
    """The grid-resolved construction family, r_k = 0.8 * 0.97^k."""
    return lemma14_recipe_from(
        {"p": 1.1, "baseline": {"kind": "constant", "c": c},
         "r_rule": {"r0": 0.8, "q": 0.97}}, grid)


@pytest.fixture(scope="module", params=[1.0, 1.013, 1.035])
def step_data(request):
    g = build_grid(3, 1.0, 1024, request.param)
    ub = baseline_profiles("bump", g, m=50.0, width=0.15, floor=1e-2)
    vb = baseline_profiles("bump", g, m=25.0, width=0.3, floor=1e-2)
    d = lemma14_pair(constant_recipe(g, c=1.0, p=1.1), 4)
    deep = lemma14_pair(_resolved_recipe(g, c=4.0), 4)
    return {"bump": StatePair(ub.u, RadialField(g, 0.5 * vb.v.values)),
            "lemma14": StatePair(d.u0, d.v0),
            "lemma14_resolved": StatePair(deep.u0, deep.v0)}


@pytest.mark.parametrize("dt", [1e-16, 1e-12, 1e-6])
@pytest.mark.parametrize("kind", ["bump", "lemma14"])
def test_one_step_positive_and_conservative(step_data, kind, dt):
    s = step_data[kind]
    m0 = s.grid.integrate_values(s.u.values)
    s1 = step(s, dt)
    assert np.all(s1.u.values > 0) and np.all(s1.v.values > 0)
    assert abs(s.grid.integrate_values(s1.u.values) - m0) <= 1e-12 * m0


@pytest.mark.parametrize("dt", [1e-16, 1e-12, 1e-6, 1e-2])
def test_one_step_mass_error_at_flux_roundoff_scale(step_data, dt):
    # the resolved k=4 member: one solve keeps the weighted sum only to
    # about eps * dt * flux, which on this datum exceeds 1e-12 of the mass
    # at dt = 1e-6 (the run's growth limit keeps its steps far smaller)
    s = step_data["lemma14_resolved"]
    g = s.grid
    m0 = g.integrate_values(s.u.values)
    s1 = step(s, dt)
    u, v = s1.u.values, s1.v.values
    assert np.all(u > 0) and np.all(v > 0) and np.all(np.isfinite(u))
    b, b_neg = _bernoulli(v[1:] - v[:-1])
    flux = g.omega_n * np.sum(g.face_area / g.face_dr
                              * (b * u[1:] + b_neg * u[:-1]))
    eps = np.finfo(float).eps
    assert abs(g.integrate_values(u) - m0) <= 16.0 * eps * (m0 + dt * flux)


def _property_state(kind, grid, mass):
    if kind == "perturbed_constant":
        return perturbed_constant(grid, c=mass / grid.domain_volume,
                                  amplitude=0.3, mode=2)
    if kind == "bump":
        return baseline_profiles("bump", grid, m=mass, width=0.15, floor=1e-2)
    d = lemma14_pair(_resolved_recipe(grid, c=mass / grid.domain_volume), 4)
    return StatePair(d.u0, d.v0)


@pytest.mark.parametrize("mass", [4.0, 200.0])
@pytest.mark.parametrize("N", [64, 256, 1024])
@pytest.mark.parametrize("kind", ["perturbed_constant", "bump", "lemma14"])
def test_every_run_ends_in_a_named_outcome_within_budget(kind, N, mass):
    s0 = _property_state(kind, build_grid(3, 1.0, N), mass)
    cfg = SolverConfig(t_end=0.2, dt_init=1e-6, dt_min=1e-12, dt_max=1e-3,
                       snapshot_every=50, max_steps=2000)
    traj = run(s0, cfg)
    assert traj.verdict.outcome in ("blew_up", "reached_t_end",
                                    "diverged_numerically"), traj.verdict
    assert traj.series["t"].size - 1 < cfg.max_steps


@pytest.mark.parametrize("dt", [1e-16, 1e-6, 1e-2])
@pytest.mark.parametrize("kind", ["bump", "lemma14", "lemma14_resolved"])
def test_u_step_matches_independent_assembly_bitwise(step_data, kind, dt):
    # v' through the reference v-solve, then u' through the reference
    # Scharfetter-Gummel assembly: step reproduces both bit for bit
    s = step_data[kind]
    g, u, v = s.grid, s.u.values, s.v.values
    s1 = step(s, dt)
    v_new = _solve_reference(g, 1.0 + dt, dt, v + dt * u)
    assert s1.v.values.tobytes() == v_new.tobytes()
    assert s1.u.values.tobytes() == _sg_reference(g, u, v_new, dt).tobytes()
