"""Radial finite-volume grids on a ball in R^n.

Everything downstream (functionals, solver, verification) lives on these
grids.  A grid is a partition 0 = e_0 < e_1 < ... < e_N = R of [0, R] into
cells with centers r_i = (e_{i-1} + e_i)/2.  The quadrature weight of a cell
is the exact integral of r^{n-1} over it, so integrals of radial functions
over the ball are omega_n * sum(w * f) and constants integrate exactly.

Operators come in flux form and live on the grid: the solver, the
functionals and the verifier share the face data, the radial Laplacian
(the cell average of r^{1-n} d/dr (r^{n-1} df/dr), stored as three bands)
and a centered derivative.  The Laplacian is the divergence of
face_area * face_gradient; only tests/test_grid.py calls face_gradient
and flux_divergence, as the reference for the bands.  The faces at r = 0
and r = R carry zero flux (the r = 0 face has area factor 0 anyway), so
the origin needs no special casing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RadialGrid",
    "RadialField",
    "build_grid",
    "integrate",
    "radial_derivative",
    "laplacian_radial",
    "ball_surface_coefficient",
]


def ball_surface_coefficient(n: int) -> float:
    """Surface area of the unit sphere in R^n: omega_n = 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class RadialGrid:
    """Cell partition of [0, R] with exact r^{n-1} cell weights.

    Attributes
    ----------
    n : ambient dimension (>= 3 for everything in this package)
    R : ball radius
    edges : array of N+1 cell faces, edges[0] == 0, edges[-1] == R
    centers : array of N cell centers (face midpoints)
    weights : exact integrals of r^{n-1} per cell, (e_i^n - e_{i-1}^n)/n
    omega_n : unit-sphere surface coefficient
    face_area : e_i^{n-1} at the N-1 interior faces
    face_dr : center-to-center distance across each interior face
    lap_lower, lap_diag, lap_upper : flux-form Laplacian coefficients,
        (lap f)_i = lo_i f_{i-1} + di_i f_i + up_i f_{i+1}
    deriv_stencil : rows dm^2, dp^2, dp^2 - dm^2 and dm dp (dm + dp) of the
        three-point center derivative at the N-2 interior cells, where dm
        and dp are the face_dr on either side
    """

    n: int
    R: float
    edges: np.ndarray
    centers: np.ndarray
    weights: np.ndarray
    omega_n: float
    face_area: np.ndarray = field(repr=False)
    face_dr: np.ndarray = field(repr=False)
    lap_lower: np.ndarray = field(repr=False)
    lap_diag: np.ndarray = field(repr=False)
    lap_upper: np.ndarray = field(repr=False)
    deriv_stencil: np.ndarray = field(repr=False)

    @property
    def ncells(self) -> int:
        return self.centers.size

    @property
    def domain_volume(self) -> float:
        """|B_R| = omega_n R^n / n."""
        return self.omega_n * self.R ** self.n / self.n

    def integrate_values(self, values: np.ndarray) -> float:
        """Integral over the ball of a radial profile sampled at cell centers."""
        return self.omega_n * float(np.dot(self.weights, values))

    def face_gradient(self, vals: np.ndarray) -> np.ndarray:
        """df/dr on the interior faces, (f_{i+1} - f_i) / face_dr_i."""
        return (vals[1:] - vals[:-1]) / self.face_dr

    def flux_divergence(self, flux: np.ndarray) -> np.ndarray:
        """Cell averages of the divergence of a radial flux, given as the
        area-weighted flux through each interior face; the faces at r = 0
        and r = R carry none."""
        out = np.zeros(self.ncells)
        out[:-1] += flux / self.weights[:-1]
        out[1:] -= flux / self.weights[1:]
        return out

    def laplacian(self, vals: np.ndarray) -> np.ndarray:
        """flux_divergence(face_area * face_gradient(vals)) from the stored
        coefficients.  Summed diagonal, lower, upper: the order the solver
        has always stepped with, so stored runs replay bitwise."""
        out = self.lap_diag * vals
        out[1:] += self.lap_lower[1:] * vals[:-1]
        out[:-1] += self.lap_upper[:-1] * vals[1:]
        return out

    def derivative(self, vals: np.ndarray, bc: str) -> np.ndarray:
        """df/dr at cell centers, second order on nonuniform grids; see
        radial_derivative for bc."""
        r = self.centers
        out = np.empty_like(vals)
        dm2, dp2, diff, den = self.deriv_stencil
        # second-order three-point formula on a nonuniform stencil
        out[1:-1] = (dm2 * vals[2:] - dp2 * vals[:-2] + diff * vals[1:-1]) / den
        if bc == "neumann":
            out[0] = 0.0
            out[-1] = 0.0
        elif bc == "none":
            # one-sided second-order at both ends
            d0, d1 = r[1] - r[0], r[2] - r[0]
            out[0] = (
                -(d1 * d1 - d0 * d0) * vals[0] + d1 * d1 * vals[1] - d0 * d0 * vals[2]
            ) / (d0 * d1 * (d1 - d0))
            e0, e1 = r[-1] - r[-2], r[-1] - r[-3]
            out[-1] = (
                (e1 * e1 - e0 * e0) * vals[-1] - e1 * e1 * vals[-2] + e0 * e0 * vals[-3]
            ) / (e0 * e1 * (e1 - e0))
        else:
            raise ValueError(f"bc must be 'none' or 'neumann', got {bc!r}")
        return out


@dataclass(frozen=True)
class RadialField:
    """A radial profile sampled at the cell centers of a grid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.centers.shape:
            raise ValueError(
                f"field has {vals.shape} values for a grid of "
                f"{self.grid.centers.shape} cells"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def build_grid(n: int, R: float, N: int, grading: float = 1.0) -> RadialGrid:
    """Build a radial grid with N cells, optionally graded toward the origin.

    grading is the face-to-face width ratio: cell widths grow geometrically
    by that factor from the innermost cell outward.  grading = 1 gives a
    uniform grid.  Larger values concentrate resolution near r = 0, which is
    where the interesting states in this package live.
    """
    if n < 3:
        raise ValueError(f"dimension n must be >= 3, got {n}")
    if not R > 0:
        raise ValueError(f"ball radius R must be positive, got {R}")
    if N < 16:
        raise ValueError(f"need at least 16 cells, got {N}")
    if grading < 1.0:
        raise ValueError(f"grading must be >= 1, got {grading}")

    if grading == 1.0:
        edges = np.linspace(0.0, R, N + 1)
    else:
        # widths h_i = h_0 * grading^i, sum = R
        ratios = grading ** np.arange(N, dtype=float)
        widths = ratios * (R / ratios.sum())
        edges = np.concatenate(([0.0], np.cumsum(widths)))
        edges[-1] = R  # kill cumulative roundoff at the outer face
    return _grid_from_edges(n, R, edges)


def _grid_from_edges(n: int, R: float, edges: np.ndarray) -> RadialGrid:
    """Assemble a grid from explicit faces (also used by snapshot reload)."""
    edges = np.asarray(edges, dtype=float)
    if edges[0] != 0.0 or not np.all(np.diff(edges) > 0):
        raise ValueError("faces must start at 0 and increase strictly")
    centers = 0.5 * (edges[:-1] + edges[1:])
    epow = edges ** n
    weights = np.diff(epow) / n
    if np.any(weights <= 0):
        raise ValueError("nonpositive quadrature weight; grid too distorted")

    # flux-form Laplacian: faces carry area factor e^{n-1}, zero-flux at both
    # ends (the r = 0 face has zero area anyway, r = R face is Neumann).
    nc = centers.size
    face_area = edges[1:-1] ** (n - 1)
    face_dr = np.diff(centers)
    trans = face_area / face_dr                  # face transmissibility
    lo = np.zeros(nc)
    di = np.zeros(nc)
    up = np.zeros(nc)
    up[:-1] = trans / weights[:-1]
    lo[1:] = trans / weights[1:]
    di[:-1] -= trans / weights[:-1]
    di[1:] -= trans / weights[1:]
    dm, dp = face_dr[:-1], face_dr[1:]
    stencil = np.stack([dm * dm, dp * dp, dp * dp - dm * dm,
                        dm * dp * (dm + dp)])

    for arr in (edges, centers, weights, face_area, face_dr, lo, di, up,
                stencil):
        arr.setflags(write=False)
    return RadialGrid(
        n=n, R=float(R), edges=edges, centers=centers, weights=weights,
        omega_n=ball_surface_coefficient(n), face_area=face_area,
        face_dr=face_dr, lap_lower=lo, lap_diag=di, lap_upper=up,
        deriv_stencil=stencil,
    )


def integrate(f: RadialField) -> float:
    """Integral of f over the ball, omega_n * int_0^R f(r) r^{n-1} dr."""
    return f.grid.integrate_values(f.values)


def radial_derivative(f: RadialField, bc: str = "none") -> RadialField:
    """df/dr at cell centers, second order on nonuniform grids.

    bc = 'neumann' pins the derivative to 0 at the first and last cell,
    matching the boundary behavior of the states evolved by the solver.
    bc = 'none' uses one-sided stencils there instead.
    """
    return RadialField(f.grid, f.grid.derivative(f.values, bc))


def laplacian_radial(f: RadialField) -> RadialField:
    """Conservative radial Laplacian with zero-flux faces at r = 0 and r = R.

    Cell values are flux divergences, so integrate(laplacian_radial(f)) = 0
    to machine precision by telescoping.
    """
    return RadialField(f.grid, f.grid.laplacian(f.values))
