"""Checks must pass on healthy runs and catch injected defects."""

import dataclasses
import math
import os

import numpy as np
import pytest

from kslab import (
    BlowupVerdict,
    RadialField,
    SolverConfig,
    StateCorpus,
    StatePair,
    baseline_profiles,
    build_grid,
    check_conservation,
    check_energy_inequality,
    check_gradv_lp,
    check_lemma14_sequence,
    check_odi_blowup,
    check_pointwise_bound,
    constant_recipe,
    inequality_suite,
    lemma14_pair,
    run,
    trajectory_battery,
)
from kslab.config import build_initial_state, load_config
from kslab.functionals import constant_energy
from kslab.verifier import GROWTH_LIMIT, _TOL_FLOOR, _quartile_trend


@pytest.fixture(scope="module")
def decay_run():
    grid = build_grid(3, 1.0, 96)
    cfg = SolverConfig(t_end=0.5, dt_init=1e-5, dt_max=5e-3, snapshot_every=10)
    return run(baseline_profiles("constant", grid, c=1.0, amplitude=0.2), cfg)


def tampered(traj, col, factor, row=-1):
    series = {k: v.copy() for k, v in traj.series.items()}
    series[col][row] *= factor
    return dataclasses.replace(traj, series=series)


def test_battery_passes_on_decay_run(decay_run):
    reports = trajectory_battery(decay_run, kappa=2.0)
    assert [r.name for r in reports] == [
        "conservation", "energy_inequality", "pointwise_bound_kappa=2",
        "gradv_lp_p=1.4", "odi_blowup",
    ]
    for r in reports:
        assert r.passed, str(r)


def test_conservation_catches_mass_leak(decay_run):
    bad = tampered(decay_run, "mass_u", 1.0 + 1e-8)
    rep = check_conservation(bad)
    assert not rep.passed
    assert rep.worst_ratio > 1e-10


def test_conservation_catches_v_mass_excess(decay_run):
    bad = tampered(decay_run, "mass_v", 3.0)
    assert not check_conservation(bad).passed


def test_energy_check_catches_increase(decay_run):
    # pumping energy back in partway through the run must be flagged
    mid = decay_run.series["F"].size // 2
    bad = tampered(decay_run, "F", 1.0, row=mid)
    bad.series["F"][mid] = bad.series["F"][0] + 1.0
    rep = check_energy_inequality(bad)
    assert not rep.passed
    assert rep.worst_ratio > 0


@pytest.mark.parametrize("col", ["F", "D"])
def test_energy_check_fails_on_nonfinite_margin(decay_run, col):
    # a NaN margin compares False with 0, so a row loop lets it pass
    mid = decay_run.series["F"].size // 2
    bad = tampered(decay_run, col, math.nan, row=mid)
    rep = check_energy_inequality(bad)
    assert rep.passed is False
    assert math.isnan(rep.worst_ratio)
    assert rep.location == float(decay_run.series["t"][mid])


def test_energy_check_catches_time_reversal(decay_run):
    series = {k: v.copy() for k, v in decay_run.series.items()}
    keep_t, keep_dt = series["t"], series["dt"]
    for k in series:
        if k not in ("t", "dt"):
            series[k] = series[k][::-1].copy()
    series["t"], series["dt"] = keep_t, keep_dt
    rev = dataclasses.replace(decay_run, series=series)
    assert not check_energy_inequality(rev).passed


@pytest.mark.parametrize("of_tol, of_drop, passes", [
    (0.5, 0.0, True), (1.0, 0.1, False), (1.0, 0.9, False)])
def test_energy_allowance_is_the_roundoff_floor_alone(decay_run, of_tol,
                                                      of_drop, passes):
    # every row keeps the law with room dt_i, except row j, into which D
    # drops sharply and whose margin is (of_tol - 1) tol_j + of_drop dt_j
    # (D_{j-1} - D_j): a rise past tol_j fails even when
    # dt_j (D_{j-1} - D_j)_+ would cover it
    t = np.linspace(0.0, 0.2, 40)
    dt = np.concatenate([[0.0], np.diff(t)])
    D = np.ones_like(t)
    j = 20
    D[j - 1] = 11.0
    F = -2.0 - np.cumsum(dt * (D + 1.0))
    tol = _TOL_FLOOR * (1.0 + abs(F[j - 1]))
    assert tol < 0.1 * dt[j] * (D[j - 1] - D[j])
    F[j:] += dt[j] + of_tol * tol + of_drop * dt[j] * (D[j - 1] - D[j])
    rep = check_energy_inequality(dataclasses.replace(
        decay_run, series={"t": t, "dt": dt, "F": F, "D": D}))
    assert rep.passed is passes
    assert rep.location == float(t[j])


def test_pointwise_bound_flags_growth(decay_run):
    rep = check_pointwise_bound(decay_run, kappa=2.0)
    assert rep.passed
    # inflate v on the final snapshot beyond the growth rule
    last = decay_run.snapshots[-1]
    bigger = StatePair(last.u, type(last.v)(last.v.grid,
                                            last.v.values * (2 * GROWTH_LIMIT)),
                       t=last.t)
    bumped = dataclasses.replace(
        decay_run, snapshots=list(decay_run.snapshots[:-1]) + [bigger])
    assert not check_pointwise_bound(bumped, kappa=2.0).passed


def test_bound_checks_judge_a_blew_up_run_only_up_to_t_detect(decay_run):
    # v and |grad v|_p grow after the middle snapshot's time t_mid (v by a
    # factor rising to 1 + 4 GROWTH_LIMIT, |grad v|_p, which decays fast,
    # from its maximum): both checks fail under the run's own reached_t_end
    # verdict, and pass once the verdict says the run blew up at t_mid
    snaps = decay_run.snapshots
    t_mid, t_last = snaps[len(snaps) // 2].t, snaps[-1].t

    def ramp(t):
        return 1.0 + 4 * GROWTH_LIMIT * np.maximum(t - t_mid, 0.0) / (
            t_last - t_mid)

    series = dict(decay_run.series)
    t, g = series["t"], series["gradv_lp"]
    series["gradv_lp"] = np.where(t > t_mid, g.max() * ramp(t), g)
    grown = dataclasses.replace(decay_run, series=series, snapshots=[
        StatePair(s.u, RadialField(s.grid, s.v.values * ramp(s.t)), t=s.t)
        for s in snaps])
    assert grown.verdict.outcome == "reached_t_end"
    blew_up = dataclasses.replace(
        grown, verdict=BlowupVerdict("blew_up", t_mid, "test"))
    for check in (lambda traj: check_pointwise_bound(traj, kappa=2.0),
                  check_gradv_lp):
        assert not check(grown).passed
        assert check(blew_up).passed
    judged = check_pointwise_bound(blew_up, kappa=2.0).details["n_snapshots"]
    assert judged == len(snaps) // 2 + 1


def test_quartile_trend_logic():
    # trend is the ratio of the maxima over the first and last quarters of
    # the time span, so a 20% ramp stays below 1.5
    t = np.linspace(0.0, 1.0, 40)
    ok, trend = _quartile_trend(np.linspace(1.0, 1.2, 40), t)
    assert ok and 1.0 < trend < GROWTH_LIMIT
    bad, trend = _quartile_trend(np.linspace(1.0, 2.0, 40), t)
    assert not bad and trend > GROWTH_LIMIT
    ok_flat, _ = _quartile_trend(np.zeros(40), t)
    assert ok_flat
    ok_short, _ = _quartile_trend(np.array([1.0, 9.0]), t[:2])
    assert ok_short  # too short to split
    # quarters of t, not of rows: a fast rise in the first 1% of the span,
    # where the rows crowd, is a start-up, not a growth trend
    t_crowd = np.concatenate([np.linspace(0.0, 0.01, 30),
                              np.linspace(0.02, 1.0, 10)])
    rise = np.minimum(t_crowd / 0.01, 1.0) + 0.01
    assert _quartile_trend(rise, t_crowd) == (True, 1.0)
    assert not _quartile_trend(rise, np.arange(40.0))[0]


@pytest.mark.parametrize("n", [3, 4])
def test_gradv_lp_passes_on_short_relaxation_from_constant_v(n):
    # the relaxation demo to t = 0.1 starts from a constant v, so |grad v|_p
    # rises from 0 over the first steps, where dt is smallest and rows crowd
    # (its checks.kappa, 2, is n - 1 at n = 3 and too small at n = 4)
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "demos",
                                   "configs", "relaxation.json"))
    cfg = dataclasses.replace(
        cfg, grid={**cfg.grid, "n": n}, checks={},
        solver=dataclasses.replace(cfg.solver, t_end=0.1))
    traj = run(build_initial_state(cfg), cfg.solver)
    assert traj.verdict.outcome == "reached_t_end"
    rep = check_gradv_lp(traj)
    assert rep.passed, str(rep)


# --- ODI ----------------------------------------------------------------


@pytest.mark.parametrize("outcome, shift, passes", [
    ("blew_up", -1e-9, True), ("blew_up", 1e-9, False),
    ("reached_t_end", 0.0, False)])
def test_odi_check_known_answer(decay_run, outcome, shift, passes):
    # y0 = 2 K_hat makes (y0/K_hat - 1) = 1, so T_ODI = t0 + K_hat theta /
    # (1 - theta) exactly; a blow-up detected just before it passes
    theta = 20.0 / 23.0
    m = float(decay_run.series["mass_u"][0])
    k_hat = -constant_energy(decay_run.grid, m)
    t = np.linspace(0.5, 0.7, 40)
    series = {"t": t, "F": -2.0 * k_hat * (1.0 + t - t[0]),
              "mass_u": np.full_like(t, m)}
    t_odi = float(t[0]) + k_hat * theta / (1.0 - theta)
    t_detect = t_odi * (1.0 + shift) if outcome == "blew_up" else None
    rep = check_odi_blowup(dataclasses.replace(
        decay_run, series=series,
        verdict=BlowupVerdict(outcome, t_detect, "test")), theta)
    assert set(rep.details) == {"applicable", "K_hat", "y0", "T_ODI",
                                "t_detect"}
    assert rep.details["applicable"] is True
    assert rep.details["K_hat"] == k_hat
    assert abs(rep.details["T_ODI"] - t_odi) <= 1e-12 * t_odi
    assert rep.passed is passes
    if outcome != "blew_up":
        assert rep.worst_ratio == math.inf
    elif not passes:
        assert rep.worst_ratio > 1.0


def test_odi_check_inapplicable_on_positive_energy(decay_run):
    series = {k: v.copy() for k, v in decay_run.series.items()}
    series["F"] = np.abs(series["F"]) + 1.0
    pos = dataclasses.replace(decay_run, series=series)
    rep = check_odi_blowup(pos, theta=20.0 / 23.0)
    assert rep.passed
    assert rep.details["applicable"] is False


def test_odi_check_inapplicable_on_the_constant_state():
    # at c = 1 on this grid the summed -F exceeds the closed form -F_c by
    # 2e-16 relative: roundoff, not a datum above K_hat
    grid = build_grid(3, 1.0, 96)
    traj = run(baseline_profiles("constant", grid, c=1.0),
               SolverConfig(t_end=1e-2, dt_init=1e-4, dt_max=1e-3))
    assert -traj.series["F"][0] > -constant_energy(
        grid, traj.series["mass_u"][0])
    rep = check_odi_blowup(traj, theta=20.0 / 23.0)
    assert rep.passed
    assert rep.details["applicable"] is False


def test_odi_check_rejects_bad_theta(decay_run):
    with pytest.raises(ValueError):
        check_odi_blowup(decay_run, theta=0.4)


# --- sequence check -----------------------------------------------------


@pytest.fixture(scope="module")
def spike_sequence():
    grid = build_grid(3, 1.0, 512, grading=1.05)
    recipe = constant_recipe(grid, c=1.0, p=1.1)
    return [lemma14_pair(recipe, k) for k in range(1, 16)]


def test_lemma14_sequence_passes(spike_sequence):
    rep = check_lemma14_sequence(spike_sequence)
    assert rep.passed, str(rep)


def test_lemma14_sequence_requires_ascending_k(spike_sequence):
    shuffled = [spike_sequence[3], spike_sequence[0], spike_sequence[8]]
    with pytest.raises(ValueError):
        check_lemma14_sequence(shuffled)


def test_lemma14_sequence_flags_energy_plateau(spike_sequence):
    flat = [dataclasses.replace(d, F0=-1.0) for d in spike_sequence]
    assert not check_lemma14_sequence(flat).passed


# --- corpus suite -------------------------------------------------------


@pytest.fixture(scope="module")
def corpus(decay_run, spike_sequence):
    grid = build_grid(3, 1.0, 96)
    labeled = [
        (f"const_c={c}", baseline_profiles("constant", grid, c=c))
        for c in (0.25, 1.0, math.e, 10.0)
    ]
    labeled += [(f"snap_{i}", s) for i, s in enumerate(decay_run.snapshots)]
    labeled += [(f"spike_k={d.k}", StatePair(d.u0, d.v0))
                for d in spike_sequence]
    return StateCorpus.from_states(labeled, kappa=2.0)


def test_corpus_envelope(corpus):
    assert (corpus.n, corpus.kappa) == (3, 2.0)
    assert corpus.size >= 20


def test_inequality_suite_all_finite(corpus):
    reports = inequality_suite(corpus)
    assert len(reports) == 8
    for rep in reports:
        assert math.isfinite(rep.worst_ratio), str(rep)
        assert rep.passed, str(rep)


def test_energy_vs_dissipation_constant_state_value(corpus):
    # at u = v = c with D = 0 the ratio is exactly -F = |Omega|(c^2/2 - c ln c);
    # c = 10 on the unit ball gives the corpus-wide worst case
    reports = {r.name: r for r in inequality_suite(corpus)}
    expected = 4 * math.pi / 3 * (50.0 - 10.0 * math.log(10.0))
    assert reports["energy_vs_dissipation"].worst_ratio == pytest.approx(
        expected, rel=1e-6)


def test_corpus_rejects_nonpositive_u_naming_its_label():
    grid = build_grid(3, 1.0, 32)
    good = baseline_profiles("constant", grid, c=1.0)
    u = good.u.values.copy()
    u[5] = 0.0
    bad = StatePair(RadialField(grid, u), good.v)
    with pytest.raises(ValueError, match="^zero_cell: u must be strictly"):
        StateCorpus.from_states([("fine", good), ("zero_cell", bad)],
                                kappa=2.0)


def test_corpus_rejects_mixed_dimensions(decay_run):
    g4 = build_grid(4, 1.0, 32)
    labeled = [("a", baseline_profiles("constant", g4, c=1.0)),
               ("b", baseline_profiles("constant",
                                       build_grid(3, 1.0, 32), c=1.0))]
    with pytest.raises(ValueError):
        StateCorpus.from_states(labeled, kappa=2.5)


def test_corpus_refuses_kappa_at_or_below_n_minus_2():
    # the split exponent beta = (2n+4) kappa / n is taken per member, so the
    # corpus refuses kappa <= n - 2 when it is built, not when the suite runs
    grid = build_grid(3, 1.0, 32)
    labeled = [("c", baseline_profiles("constant", grid, c=1.0))]
    for kappa in (1.0, 0.5):
        with pytest.raises(ValueError, match="kappa"):
            StateCorpus.from_states(labeled, kappa=kappa)
