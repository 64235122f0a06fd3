"""Geometry, quadrature, and operator tests for the radial grid."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from kslab import build_grid
from kslab.grid import _grid_from_edges, ball_surface_coefficient


def ball_volume(n: int, R: float) -> float:
    # omega_n R^n / n with omega_n = 2 pi^{n/2} / Gamma(n/2)
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0) * R ** n / n


def test_surface_coefficient_closed_forms():
    assert ball_surface_coefficient(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert ball_surface_coefficient(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)


@pytest.mark.parametrize("n,R", [(3, 1.0), (4, 1.0), (3, 2.0)])
@pytest.mark.parametrize("grading", [1.0, 1.05])
def test_integrate_one_is_ball_volume(n, R, grading):
    grid = build_grid(n, R, 200, grading=grading)
    assert grid.integrate_values(np.ones(grid.ncells)) == pytest.approx(
        ball_volume(n, R), rel=1e-10)
    assert grid.domain_volume == pytest.approx(ball_volume(n, R), rel=1e-10)


def test_integrate_r2_unit_ball():
    # int_{B_1} r^2 dx = 4 pi / 5 in three dimensions; the midpoint value of
    # r^2 over a cell differs from the cell average at O(h^2), so expect
    # second order, not exactness
    errs = []
    for N in (100, 200, 400):
        grid = build_grid(3, 1.0, N)
        errs.append(abs(grid.integrate_values(grid.centers ** 2)
                        - 4.0 * math.pi / 5.0))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_integrate_smooth_against_quad():
    grid = build_grid(3, 1.0, 400)
    exact, _ = quad(lambda r: 4.0 * math.pi * r ** 2 * math.exp(-r), 0.0, 1.0,
                    epsabs=1e-14, epsrel=1e-13)
    assert grid.integrate_values(np.exp(-grid.centers)) == pytest.approx(
        exact, rel=1e-5)


def test_weights_match_shell_volumes():
    # weights carry int r^{n-1} per cell; omega_n is applied at integration
    grid = build_grid(4, 2.0, 37, grading=1.08)
    e = grid.edges
    shells = (e[1:] ** 4 - e[:-1] ** 4) / 4.0
    np.testing.assert_allclose(grid.weights, shells, rtol=1e-14)
    vals = np.full(grid.ncells, 2.5)
    assert grid.integrate_values(vals) == pytest.approx(
        2.5 * grid.omega_n * 2.0 ** 4 / 4.0, rel=1e-13)


def test_graded_edges_monotone_and_ratio():
    grid = build_grid(3, 1.0, 64, grading=1.1)
    w = np.diff(grid.edges)
    assert np.all(w > 0)
    np.testing.assert_allclose(w[1:] / w[:-1], 1.1, rtol=1e-9)
    assert grid.edges[0] == 0.0
    assert grid.edges[-1] == pytest.approx(1.0, abs=1e-15)


def test_grid_rebuild_from_edges_is_bitwise():
    grid = build_grid(3, 1.0, 48, grading=1.07)
    rebuilt = _grid_from_edges(3, 1.0, grid.edges.copy())
    assert np.all(rebuilt.centers == grid.centers)
    assert np.all(rebuilt.weights == grid.weights)
    assert np.all(rebuilt.lap_diag == grid.lap_diag)


def test_laplacian_r2_uniform_interior_exact():
    # flux of r^2 through a face is 2 r_face exactly on a uniform grid, so
    # the divergence reproduces 2n to rounding away from the wall closure
    for n in (3, 4):
        grid = build_grid(n, 1.0, 96)
        lap = grid.laplacian(grid.centers ** 2)
        assert np.max(np.abs(lap[:-1] - 2.0 * n)) < 1e-10


def test_laplacian_r2_graded_band_second_order():
    """Observed order >= 1.9 in a fixed interior band under refinement of a
    smooth geometric family; the two closure cells (axis, wall) are first
    order pointwise and excluded."""
    ratio = 20.0
    errs = []
    for N in (64, 128, 256):
        grid = build_grid(3, 1.0, N, grading=ratio ** (1.0 / N))
        lap = grid.laplacian(grid.centers ** 2)
        band = (grid.centers > 0.1) & (grid.centers < 0.9)
        errs.append(np.max(np.abs(lap[band] - 6.0)))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 1.9


def test_laplacian_closure_cells_still_converge():
    ratio = 20.0
    errs = []
    for N in (64, 128, 256):
        grid = build_grid(3, 1.0, N, grading=ratio ** (1.0 / N))
        lap = grid.laplacian(grid.centers ** 2)
        errs.append(abs(lap[0] - 6.0))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 0.9


def test_laplacian_cosine_against_analytic():
    # radial laplacian of cos(pi r) is -pi^2 cos(pi r) - (n-1) pi sin(pi r)/r
    n = 3
    errs = []
    for N in (128, 256):
        grid = build_grid(n, 1.0, N)
        r = grid.centers
        lap = grid.laplacian(np.cos(math.pi * r))
        exact = (-math.pi ** 2 * np.cos(math.pi * r)
                 - (n - 1) * math.pi * np.sin(math.pi * r) / r)
        errs.append(np.max(np.abs(lap[1:-1] - exact[1:-1])))
    assert errs[0] / errs[1] > 3.0


@pytest.mark.parametrize("grading", [1.0, 1.04])
def test_laplacian_is_divergence_of_face_flux(grading):
    # the stored coefficients and the face operators are one calculus
    grid = build_grid(3, 1.0, 80, grading=grading)
    f = 1.0 + np.random.default_rng(3).random(grid.ncells)
    lap = grid.laplacian(f)
    flux = grid.flux_divergence(grid.face_area * grid.face_gradient(f))
    assert np.max(np.abs(lap - flux)) <= 1e-12 * np.max(np.abs(lap))


def test_laplacian_is_conservative():
    # no-flux closure: the weighted sum of the laplacian of anything is zero
    grid = build_grid(3, 1.0, 80, grading=1.04)
    rng = np.random.default_rng(7)
    f = 1.0 + rng.random(grid.ncells)
    total = float(np.dot(grid.weights, grid.laplacian(f)))
    assert abs(total) < 1e-12 * float(np.dot(grid.weights, np.abs(f)))


def test_build_grid_validation():
    with pytest.raises(ValueError):
        build_grid(2, 1.0, 16)
    with pytest.raises(ValueError):
        build_grid(3, -1.0, 16)
    with pytest.raises(ValueError):
        build_grid(3, 1.0, 0)
    with pytest.raises(ValueError):
        build_grid(3, 1.0, 16, grading=0.0)
