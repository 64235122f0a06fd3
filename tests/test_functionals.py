"""Energy, dissipation, norms, and parameter-window tests."""

import math

import numpy as np
import pytest

from kslab import (
    RadialField,
    StatePair,
    build_grid,
    energy_report,
    exponent_window,
    residual_f,
    theta_exponent,
)
from kslab.functionals import _bernoulli, constant_energy


@pytest.fixture(scope="module")
def grid():
    return build_grid(3, 1.0, 256)


def constant_state(grid, c, c_v=None):
    """u = c and v = c_v, or c when c_v is None."""
    u = np.full(grid.ncells, c)
    v = np.full(grid.ncells, c if c_v is None else c_v)
    return StatePair(RadialField(grid, u), RadialField(grid, v))


def random_state(grid, seed):
    rng = np.random.default_rng(seed)
    return StatePair(RadialField(grid, 1.0 + rng.random(grid.ncells)),
                     RadialField(grid, 1.0 + rng.random(grid.ncells)))


def sg_terms(s):
    """The face terms of P_SG spelled out from its formula, before the sum
    omega_n * sum(trans * terms): J (mu_i - mu_{i+1}) with the
    Scharfetter-Gummel J = B(-d) u_i - B(d) u_{i+1}, d = v_{i+1} - v_i and
    mu = ln u - v."""
    u, v = s.u.values, s.v.values
    b, b_neg = _bernoulli(v[1:] - v[:-1])
    mu = np.log(u) - v
    return (b_neg * u[:-1] - b * u[1:]) * (mu[:-1] - mu[1:])


# F(c,c) = |Omega| (c ln c - c^2 / 2): gradient term vanishes, the rest are
# pointwise constants times the volume
@pytest.mark.parametrize("c", [0.25, 1.0, math.e, 10.0])
def test_energy_of_constants(grid, c):
    expected = grid.domain_volume * (c * math.log(c) - 0.5 * c * c)
    rep = energy_report(constant_state(grid, c))
    assert rep.F == pytest.approx(expected, rel=1e-12)
    assert rep.grad_v_sq == 0.0
    # F_c(m) of the mass m = c |B_1|, |B_1| = 4 pi / 3
    ball = 4.0 * math.pi / 3.0
    f_c = constant_energy(grid, c * ball)
    assert f_c == pytest.approx(ball * (c * math.log(c) - 0.5 * c * c),
                                rel=1e-12)
    assert f_c == pytest.approx(rep.F, rel=1e-12)


def test_energy_of_one_is_minus_half_volume(grid):
    # c = 1: entropy vanishes and F = -|B_1|/2 = -2 pi / 3
    assert energy_report(constant_state(grid, 1.0)).F == pytest.approx(
        -2.0 * math.pi / 3.0, rel=1e-12)


def test_constants_have_zero_dissipation(grid):
    # u = v = c: f = -lap v + v - u and P_SG both vanish; the discrete
    # laplacian of a constant leaves ~1e-13 rounding
    rep = energy_report(constant_state(grid, 3.7))
    assert rep.D < 1e-18
    assert rep.f_norm_sq < 1e-18
    assert rep.g_norm_sq == 0.0
    assert rep.grad_v_sq == 0.0


def test_dissipation_splits_into_residuals(grid):
    s = random_state(grid, 3)
    rep = energy_report(s)
    f2 = grid.integrate_values(residual_f(s).values ** 2)
    p_sg = grid.omega_n * float(np.dot(grid.trans, sg_terms(s)))
    assert rep.f_norm_sq == pytest.approx(f2, rel=1e-12)
    assert rep.g_norm_sq == pytest.approx(p_sg, rel=1e-12)
    assert rep.D == pytest.approx(f2 + p_sg, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("grading", [1.0, 1.05])
def test_gradient_term_is_summation_by_parts(n, grading):
    # sum trans d^2 = -sum w v (Lap_h v): F's face gradient term is the
    # energy of the grid Laplacian the solver steps v with
    g = build_grid(n, 1.0, 128, grading)
    s = random_state(g, 5)
    v = s.v.values
    by_parts = -g.integrate_values(v * g.laplacian(v))
    assert energy_report(s).grad_v_sq == pytest.approx(by_parts, rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_every_sg_term_is_nonnegative(grid, seed):
    # J has the sign of mu_i - mu_{i+1} on every face, so P_SG sums
    # nonnegative terms, here all strictly positive
    s = random_state(grid, seed)
    terms = sg_terms(s)
    assert np.all(terms > 0.0)
    assert energy_report(s).g_norm_sq == pytest.approx(
        grid.omega_n * float(np.dot(grid.trans, terms)), rel=1e-12)


@pytest.mark.parametrize("c_u, c_v", [(1.0, 1.0), (0.25, 7.5), (10.0, 0.5)])
def test_sg_dissipation_is_exactly_zero_on_constants(grid, c_u, c_v):
    # d = 0 gives B(0) = 1 and J = u_i - u_{i+1} = 0 on every face, with
    # f = c_u - c_v away from zero when the levels differ
    rep = energy_report(constant_state(grid, c_u, c_v))
    assert rep.g_norm_sq == 0.0
    assert rep.D == rep.f_norm_sq


def test_residual_f_on_manufactured_profile(grid):
    # v = 1 + r^2 has lap v = 6, so f = -6 + v - u; pick u = v to isolate it
    v = RadialField(grid, 1.0 + grid.centers ** 2)
    s = StatePair(RadialField(grid, v.values.copy()), v)
    f = residual_f(s).values
    assert np.max(np.abs(f[:-1] + 6.0)) < 1e-9


def test_energy_report_uv_closed_form(grid):
    # uv and v_sq fields carry the raw integrals; halving happens in F
    c = 10.0
    rep = energy_report(constant_state(grid, c))
    assert rep.uv == pytest.approx(c * c * grid.domain_volume, rel=1e-12)
    assert rep.v_sq == pytest.approx(c * c * grid.domain_volume, rel=1e-12)


def test_entropy_handles_small_values(grid):
    # u ln u -> 0 as u -> 0+; tiny-positive cells must not produce nan
    u = np.full(grid.ncells, 1e-300)
    rep = energy_report(StatePair(RadialField(grid, u),
                                  RadialField(grid, np.ones(grid.ncells))))
    assert math.isfinite(rep.entropy)
    assert rep.entropy <= 0.0


def test_theta_exponent_exact_fraction():
    # theta = 1 / (1 + n / ((2n+4) kappa)); n=3, kappa=2 gives 20/23
    assert theta_exponent(3, 2.0) == pytest.approx(20.0 / 23.0, rel=1e-15)
    assert 0.5 < theta_exponent(4, 2.5) < 1.0
    with pytest.raises(ValueError):
        theta_exponent(4, 2.0)  # needs kappa > n - 2


def test_exponent_window_n3_defaults():
    alpha, (lo, hi) = exponent_window(n=3, p=1.1)
    assert lo == pytest.approx(3.0 / 11.0, rel=1e-12)
    assert hi == pytest.approx(0.5, rel=1e-12)
    assert alpha == pytest.approx(0.5 * (lo + hi), rel=1e-12)
    assert lo < alpha < hi


def test_exponent_window_rejects_bad_p():
    # p must stay below n/(n-1) for the construction to be L^p-small
    with pytest.raises(ValueError):
        exponent_window(n=3, p=1.6)
    with pytest.raises(ValueError):
        exponent_window(n=3, p=0.9)


def test_exponent_window_rejects_alpha_outside_window():
    with pytest.raises(ValueError):
        exponent_window(n=3, p=1.1, alpha=0.6)


def test_energy_scale_invariance_of_report(grid):
    # doubling the grid resolution moves F by quadrature error only
    fine = build_grid(3, 1.0, 512)
    for g in (grid, fine):
        s = StatePair(
            RadialField(g, 1.0 + 0.3 * np.cos(math.pi * g.centers)),
            RadialField(g, np.full(g.ncells, 1.0)),
        )
        if g is grid:
            coarse_F = energy_report(s).F
        else:
            assert energy_report(s).F == pytest.approx(coarse_F, rel=1e-4)
