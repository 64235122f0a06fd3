"""Profile constructors: singular-pair recipes, baselines, perturbations."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from kslab import (
    StatePair,
    baseline_profiles,
    build_grid,
    choose_eta_log,
    constant_recipe,
    integrate,
    lemma14_pair,
    perturbed_constant,
    phi,
    phi_log,
)
from kslab.initial_data import _gaussian_moment, _tail_constant


# --- phi kernel ---------------------------------------------------------


def test_phi_at_one_closed_form():
    # int_0^1 rho^2 (rho^2+1)^{-3/2} drho = ln(1+sqrt 2) - 1/sqrt 2
    assert phi(1.0, 3) == pytest.approx(
        math.log(1 + math.sqrt(2)) - 1 / math.sqrt(2), rel=1e-13)


@pytest.mark.parametrize("xi", [5.0, 0.3, 1e-3, 1e-6])
def test_phi_matches_direct_quadrature(xi):
    direct, _ = quad(lambda rho: rho ** 2 / (rho ** 2 + xi) ** 1.5, 0.0, 1.0,
                     points=[math.sqrt(xi)] if xi < 1 else None,
                     epsabs=1e-14, epsrel=1e-13, limit=300)
    assert phi(xi, 3) == pytest.approx(direct, rel=1e-10)


def test_phi_small_xi_constant():
    # phi(xi) + (1/2) ln xi -> ln 2 - 1 as xi -> 0 in three dimensions
    for xi in (1e-10, 1e-14):
        assert phi_log(math.log(xi), 3) + 0.5 * math.log(xi) == pytest.approx(
            math.log(2.0) - 1.0, abs=1e-9)


def test_phi_log_agrees_with_phi_when_representable():
    for lx in (-3.0, -10.0, -17.0):
        assert phi_log(lx, 3) == pytest.approx(phi(math.exp(lx), 3), rel=1e-9)


def test_phi_log_handles_sub_float_arguments():
    # log xi = -10^6 is far below exp() range; the expansion keeps working
    val = phi_log(-1.0e6, 3)
    assert val == pytest.approx(0.5e6 + math.log(2.0) - 1.0, rel=1e-12)


@pytest.mark.parametrize("n", range(3, 9))
def test_tail_constant_matches_quadrature(n):
    # phi(xi) = 0.5 ln((1+xi)/xi) + int_0^{1/sqrt(xi)} h_n(s) ds, so the
    # constant is the integral of h_n over (0, inf)
    def h(s):
        w = s * s / (s * s + 1.0)
        return s / (s * s + 1.0) * (w ** ((n - 2) / 2.0) - 1.0)

    a1, _ = quad(h, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    a2, _ = quad(h, 1.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert abs(_tail_constant(n) - (a1 + a2)) <= 1e-14


def test_phi_rejects_nonpositive():
    with pytest.raises(ValueError):
        phi(0.0, 3)
    with pytest.raises(ValueError):
        phi(-1.0, 3)


# --- eta selection ------------------------------------------------------


def test_choose_eta_log_margin_nonnegative_and_decreasing():
    logs = []
    for k in range(1, 31):
        r_k = 2.0 ** (-(k + 1))
        log_eta, margin = choose_eta_log(r_k, k, 3, 1.0)
        assert margin >= 0.0
        logs.append(log_eta)
    # deeper spikes need smaller eta
    assert all(b < a for a, b in zip(logs, logs[1:]))


def test_choose_eta_log_is_below_float_range_for_moderate_k():
    # by k = 12 the required eta underflows any float64; the log stays usable
    log_eta, _ = choose_eta_log(2.0 ** -13, 12, 3, 1.0)
    assert log_eta < math.log(5e-324)


# --- the singular-pair sequence -----------------------------------------


@pytest.fixture(scope="module")
def fine_grid():
    # grading resolves r_k = 2^{-k-1} down to k ~ 20 with >= 8 cells inside
    return build_grid(3, 1.0, 512, grading=1.05)


@pytest.fixture(scope="module")
def recipe(fine_grid):
    return constant_recipe(fine_grid, c=1.0, p=1.1)


def test_default_radius_rule(recipe):
    assert recipe.r_rule(1) == pytest.approx(0.25, rel=1e-15)
    assert recipe.r_rule(10) == pytest.approx(2.0 ** -11, rel=1e-15)


def test_datum_mass_is_exact_on_grid(recipe, fine_grid):
    for k in (1, 5, 12):
        d = lemma14_pair(recipe, k)
        assert integrate(d.u0) == pytest.approx(4 * math.pi / 3, rel=1e-12)
        assert d.mass == pytest.approx(4 * math.pi / 3, rel=1e-10)


def test_datum_fields_positive(recipe):
    d = lemma14_pair(recipe, 8)
    assert np.all(d.u0.values > 0)
    assert np.all(d.v0.values > 0)


def test_sequence_energies_decrease(recipe):
    data = [lemma14_pair(recipe, k) for k in (4, 6, 8, 10)]
    F = [d.F0 for d in data]
    assert all(b < a for a, b in zip(F, F[1:]))


def test_sequence_stays_lp_close(recipe):
    # the construction trades unbounded energy against vanishing L^p change
    data = [lemma14_pair(recipe, k) for k in (4, 10, 14)]
    du = [d.du_lp for d in data]
    assert all(b < a for a, b in zip(du, du[1:]))
    assert du[-1] < 1e-2 * du[0]


def test_uv_pairing_scales_linearly_in_k(recipe):
    for k in (6, 10, 14):
        d = lemma14_pair(recipe, k)
        assert d.uv_over_k >= 0.8 * 4 * math.pi * d.center_uv


def test_margin_recorded_nonnegative(recipe):
    for k in (3, 9, 15):
        assert lemma14_pair(recipe, k).margin >= 0.0


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan])
def test_constant_recipe_rejects_nonpositive_level(c):
    with pytest.raises(ValueError, match="positive"):
        constant_recipe(build_grid(3, 1.0, 64), c=c, p=1.1)


def test_unresolvable_radius_raises():
    coarse = build_grid(3, 1.0, 64, grading=1.0)
    recipe = constant_recipe(coarse, c=1.0, p=1.1)
    with pytest.raises(ValueError, match="cells inside"):
        lemma14_pair(recipe, 10)


# --- baselines ----------------------------------------------------------


def test_constant_baseline_by_level_and_mass():
    grid = build_grid(3, 1.0, 128)
    s1 = baseline_profiles("constant", grid, c=2.0)
    s2 = baseline_profiles("constant", grid, m=2.0 * grid.domain_volume)
    np.testing.assert_allclose(s1.u.values, 2.0)
    np.testing.assert_allclose(s2.u.values, s1.u.values, rtol=1e-12)


def test_bump_baseline_mass_and_positivity():
    # amplitude is fixed from the continuum integral; the grid sum then
    # carries the O(h^2) midpoint quadrature error, which must shrink
    errs = []
    for N in (256, 512):
        grid = build_grid(3, 1.0, N)
        s = baseline_profiles("bump", grid, m=50.0, width=0.15, floor=1e-2)
        assert np.all(s.u.values >= 1e-2)
        assert s.u.values[0] == np.max(s.u.values)
        errs.append(abs(integrate(s.u) - 50.0))
    assert errs[0] < 50.0 * 2e-4
    assert errs[1] < errs[0] / 3.0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("width", [0.02, 0.05, 0.15, 0.3, 1.0, 2.0, 5.0])
def test_bump_shape_mass_matches_quadrature(n, width):
    # the recursion cancels as width/R grows: at n = 7 and width 5R it is
    # off by 3.6e-12, so the range checked here is n <= 6, width <= 5R
    R = 1.0
    direct, _ = quad(lambda r: r ** (n - 1) * math.exp(-((r / width) ** 2)),
                     0.0, R, epsabs=0.0, epsrel=1e-13, limit=200)
    assert _gaussian_moment(n, width, R) == pytest.approx(direct, rel=1e-12)


def test_bump_rejects_overfull_floor():
    grid = build_grid(3, 1.0, 64)
    with pytest.raises(ValueError):
        baseline_profiles("bump", grid, m=1e-3, width=0.2, floor=1.0)


def test_unknown_baseline_kind():
    grid = build_grid(3, 1.0, 16)
    with pytest.raises(ValueError):
        baseline_profiles("mystery", grid, c=1.0)


def test_perturbed_constant_properties():
    grid = build_grid(3, 1.0, 128)
    s = perturbed_constant(grid, c=1.0, amplitude=0.2, mode=1)
    assert np.all(s.u.values > 0)
    np.testing.assert_allclose(s.v.values, 1.0)
    # cosine perturbation integrates to nearly zero mass change
    assert integrate(s.u) != pytest.approx(4 * math.pi / 3, rel=1e-12)
    with pytest.raises(ValueError):
        perturbed_constant(grid, amplitude=1.0)
    with pytest.raises(ValueError):
        perturbed_constant(grid, c=-1.0)


def test_setup_leaves_scipy_integrate_unimported():
    """Importing the package and building the collapse bump baseline and a
    construction recipe load no quadrature code, which is slow to import."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    script = (
        "import sys\n"
        "import kslab, kslab.cli, kslab.io\n"
        "g = kslab.build_grid(3, 1.0, 256)\n"
        "kslab.baseline_profiles('bump', g, m=50.0, width=0.15, floor=1e-2)\n"
        "kslab.baseline_profiles('bump', g, m=25.0, width=0.3, floor=1e-2)\n"
        "kslab.constant_recipe(g, c=1.0, p=1.1)\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr[-2000:]
    assert res.stdout.strip() == "False"
