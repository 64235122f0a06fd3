"""The benchmark's span hooks, imports and inputs name what the package
still has and still accepts."""

import ast
import importlib
import inspect
import pathlib
import sys

import pytest

from kslab.config import load_config
from kslab.grid import build_grid
from kslab.verifier import StateCorpus

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def workloads(monkeypatch):
    # perfbench/ is a directory of scripts whose modules import each other
    # by bare name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        for name in ("workloads", "inputs"):
            sys.modules.pop(name, None)


def test_traced_hooks_resolve(workloads):
    # a hooked name that no longer exists would otherwise only break a
    # traced benchmark run
    missing = []
    for owner, attr, _ in workloads.TRACED:
        try:
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{owner.__name__}.{attr}")
    assert not missing
    # the hook rewraps a staticmethod as one, so from_states must stay one
    assert isinstance(inspect.getattr_static(StateCorpus, "from_states"),
                      staticmethod)


def _kslab_imports():
    """(module, name) of every kslab import in perfbench/*.py, read with
    ast so that imports inside functions count; name is None for a plain
    `import kslab.x`."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    node.module.split(".")[0] == "kslab"):
                found.update((node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                found.update((a.name, None) for a in node.names
                             if a.name.split(".")[0] == "kslab")
    return found


def test_benchmark_imports_resolve():
    # run.py imports energy_report and step inside a function, which no
    # import of the module would exercise
    imports = _kslab_imports()
    assert {("kslab.functionals", "energy_report"),
            ("kslab.solver", "step")} <= imports
    missing = []
    for module, name in sorted(imports, key=str):
        try:
            owner = importlib.import_module(module)
            if name is not None and not hasattr(owner, name):
                importlib.import_module(f"{module}.{name}")
        except ImportError:
            missing.append(module if name is None else f"{module}.{name}")
    assert not missing


@pytest.mark.parametrize("name", ["collapse_store", "spike_family"])
def test_benchmark_inputs_load(workloads, name, tmp_path):
    """Each workload's inputs build at seed 0 as a benchmark run builds
    them, and every config file it writes loads: a config reader that
    refused one would otherwise only fail a benchmark run."""
    w = workloads.Workload(name, 0, str(tmp_path))
    data = w.inputs
    g = workloads.inputs.setup_grid(data)
    workloads.setup_datum(name, data,
                          build_grid(g["n"], g["R"], g["N"], g["grading"]))
    if name == "spike_family":
        assert sorted(w.config_paths) == sorted(
            c["name"] for c in [data["construct"], *data["simulate"]])
        for path in w.config_paths.values():
            load_config(path)
