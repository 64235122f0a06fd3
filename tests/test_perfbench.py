"""The benchmark's span hooks name attributes the package still has."""

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
