"""The three LAPACK routines bn6 calls, from scipy's compiled `_flapack`.

The extension is loaded by file from scipy's install, so neither
scipy.linalg's package nor scipy._lib's array-API shim is imported.  It
is the shared object scipy.linalg.get_lapack_funcs takes its routines
from, so every result is the same float.
"""

import importlib.machinery
import importlib.util
import os

_scipy = importlib.util.find_spec("scipy")  # locates scipy, imports nothing
_dirs = [os.path.join(path, "linalg")
         for path in getattr(_scipy, "submodule_search_locations", None) or []]
_spec = importlib.machinery.PathFinder.find_spec("_flapack", _dirs)
if _spec is None:
    raise ImportError(f"scipy's LAPACK extension _flapack not found in "
                      f"{_dirs or 'any scipy install (scipy not found)'}")
_flapack = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_flapack)

dstebz = _flapack.dstebz
dgttrf = _flapack.dgttrf
dgttrs = _flapack.dgttrs
