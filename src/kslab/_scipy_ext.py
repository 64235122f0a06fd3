"""scipy's compiled extension modules, loaded without their subpackage.

kslab calls two compiled routines of scipy: LAPACK gtsv, from
scipy.linalg._flapack, and QUADPACK qagse/qagpe, from
scipy.integrate._quadpack.  Importing the scipy.linalg or scipy.integrate
package to reach them costs a fresh process 0.3-0.55 s and 23-44 MB; the
extension files alone cost a few ms and about 1 MB (2-core x86-64 VM).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

__all__ = ["extension"]


def extension(subpackage: str, name: str):
    """The compiled module scipy.<subpackage>.<name>, without running
    scipy/<subpackage>/__init__.py.

    A module already in sys.modules (the subpackage was imported) is
    reused.  Otherwise the extension file is loaded from its location, and
    the sys.modules entry its init registers is dropped again: a later
    import of the subpackage then loads it as a proper submodule, an
    attribute of the package, and since these extensions initialize once
    per process their functions are the same objects as ours.  A scipy
    without the file raises ImportError naming the directory searched.
    """
    full = f"scipy.{subpackage}.{name}"
    mod = sys.modules.get(full)
    if mod is not None:
        return mod
    scipy = importlib.util.find_spec("scipy")   # locates, imports nothing
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    where = os.path.join(scipy.submodule_search_locations[0], subpackage)
    spec = importlib.machinery.FileFinder(where, (
        importlib.machinery.ExtensionFileLoader,
        importlib.machinery.EXTENSION_SUFFIXES)).find_spec(full)
    if spec is None:
        raise ImportError(f"no {full} extension module in {where}",
                          name=full, path=where)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    sys.modules.pop(full, None)
    return mod
