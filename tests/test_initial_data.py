"""Profile constructors: singular-pair recipes, baselines, perturbations."""

import json
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
    lemma14_pair,
    phi_log,
)
from kslab.config import (ExperimentConfig, build_initial_state,
                          lemma14_recipe_from)
from kslab.initial_data import _gauss_legendre, _gaussian_moment


# --- phi kernel ---------------------------------------------------------


def test_phi_at_one_closed_form():
    # int_0^1 rho^2 (rho^2+1)^{-3/2} drho = ln(1+sqrt 2) - 1/sqrt 2
    assert phi_log(0.0, 3) == pytest.approx(
        math.log(1 + math.sqrt(2)) - 1 / math.sqrt(2), rel=1e-13)


@pytest.mark.parametrize("xi", [5.0, 0.3, 1e-3, 1e-6])
def test_phi_matches_direct_quadrature(xi):
    direct, _ = quad(lambda rho: rho ** 2 / (rho ** 2 + xi) ** 1.5, 0.0, 1.0,
                     points=[math.sqrt(xi)] if xi < 1 else None,
                     epsabs=1e-14, epsrel=1e-13, limit=300)
    assert phi_log(math.log(xi), 3) == pytest.approx(direct, rel=1e-10)


def test_phi_small_xi_constant():
    # phi(xi) + (1/2) ln xi -> ln 2 - 1 as xi -> 0 in three dimensions
    for xi in (1e-10, 1e-14):
        assert phi_log(math.log(xi), 3) + 0.5 * math.log(xi) == pytest.approx(
            math.log(2.0) - 1.0, abs=1e-9)


def test_phi_log_agrees_with_phi_when_representable():
    # phi by direct quadrature at xi = e^lx, split at the core sqrt(xi)
    for lx in (-3.0, -10.0, -17.0):
        xi = math.exp(lx)
        direct = sum(quad(lambda rho: rho ** 2 / (rho ** 2 + xi) ** 1.5,
                          a, b, epsabs=1e-15, epsrel=1e-13, limit=300)[0]
                     for a, b in ((0.0, math.sqrt(xi)), (math.sqrt(xi), 1.0)))
        assert phi_log(lx, 3) == pytest.approx(direct, rel=1e-9)


def test_phi_log_handles_sub_float_arguments():
    # log xi = -10^6 is far below exp() range; the expansion keeps working
    val = phi_log(-1.0e6, 3)
    assert val == pytest.approx(0.5e6 + math.log(2.0) - 1.0, rel=1e-12)


@pytest.mark.parametrize("n", range(3, 9))
def test_tail_constant_matches_quadrature(n):
    # phi(xi) = 0.5 ln((1+xi)/xi) + int_0^{1/sqrt(xi)} h_n(s) ds, so
    # phi + 0.5 ln xi tends to the integral of h_n over (0, inf); at
    # log xi = -50 the remainder is far below 1e-14
    def h(s):
        w = s * s / (s * s + 1.0)
        return s / (s * s + 1.0) * (w ** ((n - 2) / 2.0) - 1.0)

    a1, _ = quad(h, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    a2, _ = quad(h, 1.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert abs(phi_log(-50.0, n) - 25.0 - (a1 + a2)) <= 1e-14


# phi_n(xi) = int_0^T t^{n-1} / (1 - t^2) dt with T = (1 + xi)^{-1/2}
# (substitute t = rho / sqrt(rho^2 + xi)), in closed form for n = 3, 4: as
# a function of xi, and rewritten in lx = log xi for xi below the float64
# range (asinh(1/sqrt(xi)) = -lx/2 + ln(1 + sqrt(1 + xi)))
_PHI_CLOSED_FORM = {
    3: lambda xi: math.asinh(1.0 / math.sqrt(xi)) - 1.0 / math.sqrt(1.0 + xi),
    4: lambda xi: 0.5 * math.log1p(1.0 / xi) - 0.5 / (1.0 + xi),
}
_PHI_CLOSED_FORM_LOG = {
    3: lambda lx, xi: (-0.5 * lx + math.log1p(math.sqrt(1.0 + xi))
                       - 1.0 / math.sqrt(1.0 + xi)),
    4: lambda lx, xi: 0.5 * (math.log1p(xi) - lx) - 0.5 / (1.0 + xi),
}


@pytest.mark.parametrize("n", [3, 4])
def test_phi_matches_its_closed_form(n):
    """phi against the closed form, no scipy involved, over xi in
    [1e-8, 1e3], and phi_log at log xi down to -1e12."""
    for xi in np.logspace(-8.0, 3.0, 45):
        exact = _PHI_CLOSED_FORM[n](xi)
        assert abs(phi_log(math.log(xi), n) / exact - 1.0) <= 1e-12, xi
    for lx in (-50.0, -1e3, -1e6, -1e12):
        exact = _PHI_CLOSED_FORM_LOG[n](lx, math.exp(lx))
        assert abs(phi_log(lx, n) / exact - 1.0) <= 1e-14, lx


def test_gauss_legendre_rule_matches_numpy():
    """The Golub-Welsch rule on [0, 1] is numpy's leggauss rule, mapped."""
    x, w = _gauss_legendre()
    ref_x, ref_w = np.polynomial.legendre.leggauss(len(x))
    np.testing.assert_allclose(x, 0.5 * (ref_x + 1.0), rtol=0, atol=1e-15)
    np.testing.assert_allclose(w, 0.5 * ref_w, rtol=1e-13)


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
    assert lemma14_pair(recipe, 1).r_k == pytest.approx(0.25, rel=1e-15)
    assert lemma14_pair(recipe, 10).r_k == pytest.approx(2.0 ** -11, rel=1e-15)


def test_datum_mass_is_exact_on_grid(recipe, fine_grid):
    for k in (1, 5, 12):
        d = lemma14_pair(recipe, k)
        assert fine_grid.integrate_values(d.u0.values) == pytest.approx(
            4 * math.pi / 3, rel=1e-12)
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


# F0, ||u_k - u||_{L^p} and ||v_k - v||_{W^{1,2}} of five members, from
# mpmath 1.3 (40 digits; 30 for the two alpha-edge members) with breakpoints
# at sqrt(eta) 10^j and at the kink r* of |scale u - c|^p, taking kslab's own
# a, b and log eta as inputs.  Resolved: c = 4, r_k = 0.8 * 0.97^k on
# N=1024 graded 1.013; default: c = 1, r_k = 2^{-k-1} on N=1024 graded
# 1.035, at the window midpoint alpha or next to either end of the window
# (0.2727..., 0.5) for n = 3, p = 1.1, where the power tails decay slowly.
_REFERENCE_MEMBERS = {
    ("resolved", 5, None): (-156.8017317918133, 30.05271304809137,
                            9.427307688928529),
    ("resolved", 6, None): (-245.9703241682349, 31.21081256767788,
                            9.384333720774064),
    ("default", 1, None): (-9.2684917702853691, 1.5707970496034482,
                           1.4376407039312665),
    ("default", 2, 0.2728): (-25.726813436923006, 17.751174087659255,
                             0.5073861896523908),
    ("default", 2, 0.4999): (154.95267304315817, 0.13794501030757492,
                             19.062212776482443),
}


@pytest.mark.parametrize("family, k, alpha", list(_REFERENCE_MEMBERS))
def test_construction_matches_independent_references(family, k, alpha):
    if family == "resolved":
        init = {"kind": "lemma14", "p": 1.1,
                "baseline": {"kind": "constant", "c": 4.0},
                "r_rule": {"r0": 0.8, "q": 0.97}}
        g = build_grid(3, 1.0, 1024, grading=1.013)
    else:
        init = {"kind": "lemma14", "p": 1.1, "alpha": alpha,
                "baseline": {"kind": "constant", "c": 1.0}}
        g = build_grid(3, 1.0, 1024, grading=1.035)
    d = lemma14_pair(lemma14_recipe_from(init, g), k)
    got = (d.F0, d.du_lp, d.dv_w12)
    assert got == pytest.approx(_REFERENCE_MEMBERS[family, k, alpha],
                                rel=1e-11)


def test_lemma14_baseline_level_is_c_or_m():
    """A lemma14 baseline takes its level as the constant kind does: c, or
    m / |B_R|; a block without a baseline means c = 1."""
    g = build_grid(3, 1.0, 1024, grading=1.035)
    init = {"kind": "lemma14", "p": 1.1}
    by_mass = lemma14_recipe_from(
        {**init, "baseline": {"kind": "constant", "m": 4.0 * g.domain_volume}},
        g)
    assert by_mass.c == pytest.approx(4.0, rel=1e-15, abs=0.0)
    assert lemma14_recipe_from(init, g).c == 1.0
    with pytest.raises(ValueError, match="c or m"):
        lemma14_recipe_from({**init, "baseline": {"kind": "constant"}}, g)


def test_margin_recorded_nonnegative(recipe):
    for k in (3, 9, 15):
        assert lemma14_pair(recipe, k).margin >= 0.0


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan])
def test_constant_recipe_rejects_nonpositive_level(c):
    with pytest.raises(ValueError, match="positive"):
        constant_recipe(build_grid(3, 1.0, 64), c=c, p=1.1)


def test_recipe_radius_rule_is_checked_pair(fine_grid):
    assert constant_recipe(fine_grid, c=1.0, p=1.1).r_rule == (0.5, 0.5)
    assert constant_recipe(fine_grid, 1.0, 1.1, None, (0.8, 0.97)).r_rule \
        == (0.8, 0.97)
    for rule in ((0.0, 0.5), (1.0, 0.5), (math.nan, 0.5), (0.5, 0.0),
                 (0.5, 1.0), (0.5, math.nan)):
        with pytest.raises(ValueError, match="r_rule"):
            constant_recipe(fine_grid, c=1.0, p=1.1, r_rule=rule)


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
        errs.append(abs(grid.integrate_values(s.u.values) - 50.0))
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
    s = baseline_profiles("constant", grid, c=1.0, amplitude=0.2, mode=1)
    assert np.all(s.u.values > 0)
    np.testing.assert_allclose(s.v.values, 1.0)
    # the cosine is not mass-neutral in the radial measure r^2 dr
    assert grid.integrate_values(s.u.values) != pytest.approx(
        4 * math.pi / 3, rel=1e-12)
    for bad in ({"amplitude": 1.0}, {"amplitude": -0.1}, {"c": -1.0},
                {"mode": 0}):
        with pytest.raises(ValueError):
            baseline_profiles("constant", grid, **{"c": 1.0, **bad})
    # a fractional mode would build a cosine with nonzero slope at R
    with pytest.raises(TypeError, match="mode must be an integer"):
        baseline_profiles("constant", grid, c=1.0, amplitude=0.2, mode=2.5)


def _fresh_process(script: str) -> str:
    """stdout of a new interpreter running script against ./src."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr[-2000:]
    return res.stdout


_SETUP = (
    "import json, sys\n"
    "import kslab, kslab.cli, kslab.io\n"
    "g = kslab.build_grid(3, 1.0, 256)\n"
    "kslab.baseline_profiles('bump', g, m=50.0, width=0.15, floor=1e-2)\n"
    "kslab.baseline_profiles('bump', g, m=25.0, width=0.3, floor=1e-2)\n"
    "kslab.constant_recipe(g, c=1.0, p=1.1)\n"
)
_SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
# numpy subpackages kslab never uses, which numpy helpers import on demand
# (np.unique imports numpy.ma)
_NUMPY_EXTRAS = ("sorted(m for m in sys.modules\n"
                 "       if m.split('.')[:2] in (['numpy', 'ma'],\n"
                 "                              ['numpy', 'polynomial']))")


def test_setup_leaves_scipy_integrate_unimported():
    """Importing the package, building the collapse bump baseline and a
    construction member load no quadrature code, which is slow to import,
    and neither numpy.polynomial nor numpy.ma: the rule's nodes come from
    numpy.linalg, and its panel edges are merged without np.unique."""
    out = _fresh_process(
        _SETUP
        + "kslab.lemma14_pair(kslab.constant_recipe(g, c=1.0, p=1.1), 3)\n"
        "print(json.dumps([sorted(m for m in sys.modules\n"
        "                         if m.startswith('scipy.integrate')),\n"
        f"                  {_NUMPY_EXTRAS}]))\n")
    assert json.loads(out) == [[], []]


def test_scipy_linalg_loads_at_the_first_solve():
    """The same set-up loads no scipy module at all.  The first step loads
    scipy's compiled LAPACK module from its file and leaves no scipy module
    behind in sys.modules; a later import of scipy.linalg loads it as an
    attribute of the package with the same dgtsv, and a singular solve
    still raises the error class scipy.linalg callers catch."""
    out = _fresh_process(
        _SETUP
        + f"setup = {_SCIPY_LOADED}\n"
        "kslab.step(kslab.baseline_profiles('constant', g, c=1.0), 1e-3)\n"
        f"stepped = {_SCIPY_LOADED}\n"
        "import numpy as np, scipy.linalg.lapack\n"
        "from scipy.integrate import quad\n"
        "x = scipy.linalg.solve_banded((1, 1), np.array(\n"
        "    [[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]]), np.ones(3))\n"
        "print(json.dumps([setup, stepped,\n"
        "                  scipy.linalg.lapack.dgtsv is kslab.solver._dgtsv,\n"
        "                  scipy.linalg._flapack.dgtsv is kslab.solver._dgtsv,\n"
        "                  x.tolist(), quad(lambda r: r * r, 0.0, 1.0)[0],\n"
        "                  kslab.solver.LinAlgError is scipy.linalg.LinAlgError]))\n")
    (setup, stepped, same_dgtsv, attribute_dgtsv, x, q,
     same_error) = json.loads(out)
    assert setup == []
    assert stepped == []
    assert same_dgtsv
    assert attribute_dgtsv
    assert x == pytest.approx([3 / 14, 1 / 7, 3 / 14], rel=1e-15)
    assert q == pytest.approx(1 / 3, rel=1e-15)
    assert same_error


def test_first_solve_reuses_a_loaded_scipy_linalg():
    """With scipy.linalg already imported (here by quad), the solver takes
    dgtsv from the module scipy loaded."""
    out = _fresh_process(
        "import json, sys\n"
        "from scipy.integrate import quad\n"
        "quad(lambda r: r * r, 0.0, 1.0)\n"
        "flapack = sys.modules['scipy.linalg._flapack']\n"
        "import kslab, scipy.linalg.lapack\n"
        "g = kslab.build_grid(3, 1.0, 64)\n"
        "kslab.step(kslab.baseline_profiles('constant', g, c=1.0), 1e-3)\n"
        "print(json.dumps([kslab.solver._dgtsv is flapack.dgtsv,\n"
        "                  sys.modules['scipy.linalg._flapack'] is flapack,\n"
        "                  kslab.solver._dgtsv is scipy.linalg.lapack.dgtsv]))\n")
    assert json.loads(out) == [True, True, True]


def test_missing_lapack_extension_names_its_path(tmp_path):
    """A scipy without its compiled LAPACK module fails at the first solve
    with an ImportError that names where it looked, and the package
    import of scipy.linalg is not tried instead."""
    (tmp_path / "scipy" / "linalg").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    (tmp_path / "scipy" / "linalg" / "__init__.py").write_text(
        "raise AssertionError('scipy.linalg package imported')\n")
    out = _fresh_process(
        "import json, sys\n"
        f"sys.path.insert(0, {str(tmp_path)!r})\n"
        "import kslab\n"
        "g = kslab.build_grid(3, 1.0, 64)\n"
        "try:\n"
        "    kslab.step(kslab.baseline_profiles('constant', g, c=1.0), 1e-3)\n"
        "except ImportError as exc:\n"
        f"    print(json.dumps([type(exc).__name__, str(exc), {_SCIPY_LOADED}]))\n")
    name, msg, loaded = json.loads(out)
    assert name == "ImportError"
    assert str(tmp_path / "scipy" / "linalg") in msg
    assert "scipy.linalg._flapack" in msg
    assert loaded == []


def test_simulate_loads_only_the_lapack_module(tmp_path):
    """A fresh kslab simulate of the relaxation demo loads scipy's compiled
    LAPACK module by its file and leaves no scipy module in sys.modules,
    and loads neither numpy.ma nor numpy.polynomial."""
    root = pathlib.Path(__file__).resolve().parents[1]
    cfg = root / "demos" / "configs" / "relaxation.json"
    out = _fresh_process(
        "import json, sys\n"
        "from kslab.cli import main\n"
        f"code = main(['simulate', {str(cfg)!r}, '--out', "
        f"{str(tmp_path / 'run')!r}])\n"
        f"print(json.dumps([code, {_SCIPY_LOADED}, {_NUMPY_EXTRAS}]))\n")
    code, loaded, extras = json.loads(out.strip().splitlines()[-1])
    assert code == 0
    assert loaded == []
    assert extras == []


_SCIPY_SUBPACKAGES = ("sorted(m for m in sys.modules\n"
                      "       if m.split('.')[:2] in (['scipy', 'linalg'],\n"
                      "                              ['scipy', 'integrate']))")


def _lemma14_config(tmp_path) -> str:
    cfg = {"name": "member",
           "grid": {"n": 3, "R": 1.0, "N": 256, "grading": 1.013},
           "initial": {"kind": "lemma14", "k": 3, "p": 1.1,
                       "baseline": {"kind": "constant", "c": 4.0},
                       "r_rule": {"r0": 0.8, "q": 0.97}},
           "solver": {"t_end": 1e-3, "dt_init": 1e-10, "dt_min": 1e-14,
                      "dt_max": 1e-4, "max_steps": 200}}
    path = tmp_path / "member.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("command", ["construct", "simulate"])
def test_lemma14_commands_leave_scipy_subpackages_unimported(
        tmp_path, command):
    """A fresh kslab construct of the spike-family demo and a fresh lemma14
    kslab simulate import neither the scipy.integrate nor the scipy.linalg
    package: the construction's integrals need numpy alone, and LAPACK
    comes from its compiled module.  Neither loads numpy.ma or
    numpy.polynomial."""
    root = pathlib.Path(__file__).resolve().parents[1]
    cfg = (str(root / "demos" / "configs" / "spike_family.json")
           if command == "construct" else _lemma14_config(tmp_path))
    out = _fresh_process(
        "import json, sys\n"
        "from kslab.cli import main\n"
        f"code = main([{command!r}, {cfg!r}, '--out', "
        f"{str(tmp_path / 'out')!r}])\n"
        f"print(json.dumps([code, {_SCIPY_SUBPACKAGES}, {_NUMPY_EXTRAS}]))\n")
    code, loaded, extras = json.loads(out.strip().splitlines()[-1])
    assert code == 0
    assert loaded == []
    assert extras == []


@pytest.mark.parametrize("grading, k, r_rule", [
    (1.035, 20, None), (1.013, 4, {"r0": 0.8, "q": 0.97}),
])
def test_run_initial_state_skips_the_continuum_integrals(grading, k, r_rule):
    """A config's lemma14 initial state is lemma14_pair's grid data,
    bitwise: the continuum integrals behind F0 serve construct, not a
    run."""
    init = {"kind": "lemma14", "k": k, "p": 1.1,
            "baseline": {"kind": "constant", "c": 4.0 if r_rule else 1.0}}
    if r_rule:
        init["r_rule"] = r_rule
    cfg = ExperimentConfig.from_dict({
        "name": "member", "initial": init,
        "grid": {"n": 3, "R": 1.0, "N": 1024, "grading": grading}})
    g = cfg.build_grid()
    datum = lemma14_pair(lemma14_recipe_from(init, g), k)
    s = build_initial_state(cfg)
    assert s.u.values.tobytes() == datum.u0.values.tobytes()
    assert s.v.values.tobytes() == datum.v0.values.tobytes()


@pytest.mark.parametrize("n, N, level, mode", [
    (3, 16, {"c": 1.0}, 1), (4, 1024, {"m": 50.0}, 2),
    (5, 8192, {"c": 0.37}, 3),
])
def test_unperturbed_constant_run_starts_at_the_baseline(n, N, level, mode):
    """A constant config without amplitude starts from the constant state
    u = v = c, bitwise."""
    cfg = ExperimentConfig.from_dict({
        "name": "flat", "initial": {"kind": "constant", "mode": mode, **level},
        "grid": {"n": n, "R": 1.0, "N": N, "grading": 1.0}})
    g = cfg.build_grid()
    s = build_initial_state(cfg)
    c = level.get("c") or level["m"] / g.domain_volume
    flat = np.full(N, c).tobytes()
    assert s.u.values.tobytes() == flat
    assert s.v.values.tobytes() == flat


def test_verify_plot_constants_leave_scipy_unimported(tmp_path):
    """Every verify battery, plot and constants run on a stored relaxation
    run in a fresh process load no scipy module, and neither numpy.ma nor
    numpy.polynomial."""
    from kslab.cli import main

    root = pathlib.Path(__file__).resolve().parents[1]
    run_dir = str(tmp_path / "relaxation")
    assert main(["simulate", str(root / "demos" / "configs" / "relaxation.json"),
                 "--out", run_dir]) == 0
    out = _fresh_process(
        "import json, sys\n"
        "from kslab.cli import main\n"
        f"d = {run_dir!r}\n"
        "codes = [main(['verify', d, '--battery', b]) for b in\n"
        "         ('trajectory', 'suite')]\n"
        "codes += [main(['plot', d]), main(['constants', '3', '2', '1.1'])]\n"
        f"print(json.dumps([codes, {_SCIPY_LOADED}, {_NUMPY_EXTRAS}]))\n")
    codes, loaded, extras = json.loads(out.strip().splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert loaded == []
    assert extras == []
