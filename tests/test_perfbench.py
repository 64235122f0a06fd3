"""The benchmark's span hooks and imports name what the package still has."""

import ast
import importlib
import inspect
import pathlib
import sys

from kslab.verifier import StateCorpus

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_hooks_resolve(monkeypatch):
    # perfbench/ is a directory of scripts whose modules import each other
    # by bare name; a hooked name that no longer exists would otherwise
    # only break a traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        for name in ("workloads", "inputs"):
            sys.modules.pop(name, None)
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
