"""Every name an export list promises resolves."""

import importlib
import pkgutil

import pytest

import kslab

MODULES = sorted(m.name for m in pkgutil.iter_modules(kslab.__path__))


def test_star_import_of_the_package_resolves():
    namespace = {}
    exec("from kslab import *", namespace)
    assert set(kslab.__all__) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_module_export_list_resolves(name):
    module = importlib.import_module(f"kslab.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing
