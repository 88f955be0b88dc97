"""Radial verification suite for the critical elliptic problem on the unit ball:
ground-state branches, auxiliary linear profiles, non-degeneracy certificates,
bubble calculus, and finite-dimensional energy expansion checks.

The layers that only some commands run (auxiliary, bubbles, continuation,
reduction) are registered here as lazy modules: each is in sys.modules and
an attribute of this package from the first import of bn6 on, but runs its
code only when one of its attributes is first read.  So `import bn6.cli`
runs bn6, cli, errors, grid, lapack, operators, roots, serialize and
shooting, and each command runs only the layers it calls.  A lazy module,
unlike an import inside a function, is there to be found by code that
looks bn6's modules up in sys.modules.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# The defaults cli's RunConfig shares with the lazy layers, defined here so
# that resolving a configuration runs neither of them.
DEFAULT_L_MAX = 24   # sectors l = 0..24 that auxiliary's nondeg report scans
MIN_TAIL_POINTS = 8  # shortest tail continuation.extract_limit fits

LAZY_MODULES = ("auxiliary", "bubbles", "continuation", "reduction")


def _register_lazy(name: str) -> None:
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in LAZY_MODULES:
    _register_lazy(_name)
del _name
