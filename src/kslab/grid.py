"""Radial finite-volume grids on a ball in R^n.

Everything downstream (functionals, solver, verification) lives on these
grids.  A grid is a partition 0 = e_0 < e_1 < ... < e_N = R of [0, R] into
cells with centers r_i = (e_{i-1} + e_i)/2.  The quadrature weight of a cell
is the exact integral of r^{n-1} over it, so integrals of radial functions
over the ball are omega_n * sum(w * f) and constants integrate exactly.

There is one discrete calculus, on the N - 1 interior faces: the face
data (face_area, face_dr and their ratio trans, the face
transmissibility), the face gradient, the flux divergence and the radial
Laplacian (the cell average of r^{1-n} d/dr (r^{n-1} df/dr), stored as
its diagonal lap_diag and one read-only block lap_off of its two
off-diagonals, which the solver's v-band also reads).  The Laplacian is
the divergence of face_area * face_gradient.  face_gradient and
flux_divergence are references: the functionals' face gradient, taken
from the step's v differences, is bitwise face_gradient, and
tests/test_grid.py checks the bands against flux_divergence.  The
solver and the functionals share trans.
The faces at r = 0 and r = R carry zero flux (the r = 0 face has area
factor 0 anyway), so the origin needs no special casing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RadialGrid",
    "RadialField",
    "build_grid",
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
    trans : face_area / face_dr, the transmissibility of each interior face
    lap_diag : the flux-form Laplacian's N diagonal coefficients di
    lap_off : its (2, N-1) off-diagonals, rows up and lo, so that
        (lap f)_i = lo_{i-1} f_{i-1} + di_i f_i + up_i f_{i+1}
    """

    n: int
    R: float
    edges: np.ndarray
    centers: np.ndarray
    weights: np.ndarray
    omega_n: float
    face_area: np.ndarray = field(repr=False)
    face_dr: np.ndarray = field(repr=False)
    trans: np.ndarray = field(repr=False)
    lap_diag: np.ndarray = field(repr=False)
    lap_off: np.ndarray = field(repr=False)

    def __eq__(self, other) -> bool:
        """The same n and R and bitwise-equal faces, from which every other
        array of a grid is derived."""
        if not isinstance(other, RadialGrid):
            return NotImplemented
        return self is other or (self.n == other.n and self.R == other.R
                                 and self.edges.tobytes() == other.edges.tobytes())

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

    def face_gradient(self, vals: np.ndarray,
                      out: np.ndarray = None) -> np.ndarray:
        """df/dr on the interior faces, (f_{i+1} - f_i) / face_dr_i, into
        out (new if None)."""
        out = np.subtract(vals[1:], vals[:-1], out=out)
        out /= self.face_dr
        return out

    def flux_divergence(self, flux: np.ndarray) -> np.ndarray:
        """Cell averages of the divergence of a radial flux, given as the
        area-weighted flux through each interior face; the faces at r = 0
        and r = R carry none."""
        out = np.zeros(self.ncells)
        out[:-1] += flux / self.weights[:-1]
        out[1:] -= flux / self.weights[1:]
        return out

    def laplacian(self, vals: np.ndarray, out: np.ndarray = None,
                  work: np.ndarray = None) -> np.ndarray:
        """flux_divergence(face_area * face_gradient(vals)) from the stored
        coefficients, along the last axis of vals (a profile or a stack of
        them), summed diagonal, lower, upper so that stored runs replay
        bitwise.  out and work, of vals' shape, take the result and the
        products (new if None): a caller passing both allocates nothing."""
        prod = (np.empty(np.shape(vals)) if work is None else work)[..., 1:]
        up, lo = self.lap_off
        out = np.multiply(self.lap_diag, vals, out=out)
        out[..., 1:] += np.multiply(lo, vals[..., :-1], prod)
        out[..., :-1] += np.multiply(up, vals[..., 1:], prod)
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
    """Assemble a grid from explicit faces (also used by snapshot reload),
    refusing n < 3, R <= 0 and faces that are not a 1-D array running from
    0 up to R."""
    if n < 3:
        raise ValueError(f"dimension n must be >= 3, got {n}")
    if not R > 0:
        raise ValueError(f"ball radius R must be positive, got {R}")
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError(f"faces must be a 1-D array of at least 2 values, "
                         f"got shape {edges.shape}")
    if edges[0] != 0.0 or not np.all(np.diff(edges) > 0):
        raise ValueError("faces must start at 0 and increase strictly")
    if edges[-1] != R:
        raise ValueError(f"last face {edges[-1]!r} is not R = {R!r}")
    centers = 0.5 * (edges[:-1] + edges[1:])
    epow = edges ** n
    weights = np.diff(epow) / n
    if np.any(weights <= 0):
        raise ValueError("nonpositive quadrature weight; grid too distorted")

    # flux-form Laplacian: faces carry area factor e^{n-1}, zero-flux at both
    # ends (the r = 0 face has zero area anyway, r = R face is Neumann).
    face_area = edges[1:-1] ** (n - 1)
    face_dr = np.diff(centers)
    trans = face_area / face_dr
    off = np.stack((trans / weights[:-1], trans / weights[1:]))
    di = np.zeros(centers.size)
    di[:-1] -= off[0]
    di[1:] -= off[1]

    for arr in (edges, centers, weights, face_area, face_dr, trans, off, di):
        arr.setflags(write=False)
    return RadialGrid(
        n=n, R=float(R), edges=edges, centers=centers, weights=weights,
        omega_n=ball_surface_coefficient(n), face_area=face_area,
        face_dr=face_dr, trans=trans, lap_diag=di, lap_off=off,
    )

