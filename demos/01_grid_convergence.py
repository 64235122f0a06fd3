"""Grid sanity tour: exact shell volumes, operator convergence.

The finite-volume grid carries shell weights (e_+^n - e_-^n)/n, so
integrating a constant reproduces the ball volume to roundoff on any
grading.  The radial Laplacian is a flux difference; on uniform grids it
is exact for r^2 away from the closures, and on graded grids it converges
at second order in the interior.
"""
import math

import numpy as np

from kslab.grid import build_grid


def ball_volume(n, R):
    return math.pi ** (n / 2.0) * R ** n / math.gamma(n / 2.0 + 1.0)


print("== shell quadrature ==")
for n, R in ((3, 1.0), (4, 1.0), (3, 2.0), (5, 0.7)):
    g = build_grid(n, R, 200, grading=1.02)
    vol = g.integrate_values(np.ones(g.ncells))
    exact = ball_volume(n, R)
    print(f"  n={n} R={R}: integral of 1 = {vol:.15f}  "
          f"exact = {exact:.15f}  rel err = {abs(vol - exact) / exact:.2e}")

print()
print("== Laplacian of r^2 (exact value 2n = 6) ==")
print("  geometric grading family, interior band 0.1 < r < 0.9")
prev = None
for N in (64, 128, 256, 512):
    g = build_grid(3, 1.0, N, grading=20.0 ** (1.0 / N))
    lap = g.laplacian(g.centers ** 2)
    band = (g.centers > 0.1) & (g.centers < 0.9)
    err = float(np.max(np.abs(lap[band] - 6.0)))
    rate = "" if prev is None else f"  order = {math.log2(prev / err):.3f}"
    print(f"  N={N:4d}: max band error = {err:.4e}{rate}")
    prev = err

g = build_grid(3, 1.0, 256)
lap = g.laplacian(g.centers ** 2)
print(f"  uniform N=256 interior: max error = "
      f"{np.max(np.abs(lap[:-1] - 6.0)):.2e} (flux form is exact here)")

# conservativity: the weighted sum of any Laplacian is a boundary flux,
# zero under the no-flux closure
f = np.cos(3.0 * g.centers) + g.centers ** 4
total = g.integrate_values(g.laplacian(f))
print(f"  conservativity check: integral of Laplacian = {total:.2e}")
