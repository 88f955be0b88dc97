"""Run one bn6 command with spans recorded around each layer's entry points.

    PYTHONPATH=src python perfbench/traced_cli.py SPANS.json LABEL bn6-args...

Imports bn6.cli, replaces the layer functions listed below with timing
wrappers, runs bn6.cli.main on the remaining arguments and writes the
spans to SPANS.json when main returns.  Nothing under src/ is edited:
a function defined in bn6 is replaced in every bn6 module that holds it
(cli, auxiliary and continuation import shoot, find_lambda0 and friends
by name), and a third-party kernel is replaced only in the module named,
so that e.g. shooting.brentq counts the root finds of the shooting layer
and not those of continuation.  A name that no longer exists is listed
under "missing" instead of being counted as zero.

Each span is [name, start, end, parent index, label, info]; info holds
the work counts the metrics need (RHS evaluations, matrix order,
quadrature nodes, bytes written, branch points), or is null.
"""

import functools
import inspect
import json
import sys
import time

# Functions defined in bn6: (module, attribute, span name, info).
LAYER_FUNCTIONS = (
    ("bn6.shooting", "find_lambda0", "shooting.find_lambda0", None),
    ("bn6.shooting", "solve_bvp", "shooting.solve_bvp", None),
    ("bn6.shooting", "shoot", "shooting.shoot", None),
    ("bn6.shooting", "_integrate", "shooting._integrate", None),
    ("bn6.continuation", "trace_branch", "continuation.trace_branch",
     lambda args, result: {"points": len(result.points),
                           "rejected": len(result.diagnostics)}),
    ("bn6.continuation", "_match_lambda", "continuation._match_lambda", None),
    ("bn6.continuation", "extract_limit", "continuation.extract_limit", None),
    ("bn6.operators", "assemble", "operators.assemble", None),
    ("bn6.operators", "solve_dirichlet", "operators.solve_dirichlet", None),
    ("bn6.operators", "min_singular_value", "operators.min_singular_value",
     None),
    ("bn6.auxiliary", "build_profiles", "auxiliary.build_profiles", None),
    ("bn6.auxiliary", "essential_nondegeneracy",
     "auxiliary.essential_nondegeneracy",
     lambda args, result: {"sectors": len(result.sector_gaps)}),
    ("bn6.reduction", "expansion_check", "reduction.expansion_check",
     lambda args, result: {"rows": len(result.rows)}),
    ("bn6.reduction", "_panel_integral", "reduction._panel_integral",
     lambda args, result: {"nodes": (len(args["edges"]) - 1)
                           * args["order"]}),
    ("bn6.grid", "make_grid", "grid.make_grid", None),
    ("bn6.grid", "make_core_grid", "grid.make_core_grid", None),
    ("bn6.grid", "rescale_grid", "grid.rescale_grid", None),
    ("bn6.serialize", "write_atomic", "cli.write_atomic",
     lambda args, result: {"bytes": len(args["text"].encode("utf-8"))}),
)

# Third-party kernels, replaced only in the module that names them.
KERNELS = (
    ("bn6.shooting", "solve_ivp", "shooting.solve_ivp",
     lambda args, result: {"nfev": int(result.nfev)}),
    ("bn6.shooting", "brentq", "shooting.brentq", None),
    ("bn6.continuation", "curve_fit", "continuation.curve_fit", None),
    ("bn6.operators", "eigvalsh_tridiagonal",
     "operators.eigvalsh_tridiagonal",
     lambda args, result: {"rows": len(args["d"])}),
)

# Every public function of this module is a bubbles span.
BUBBLES_MODULE = "bn6.bubbles"


class Recorder:
    """Spans of one process, kept in memory until `dump`."""

    def __init__(self, label: str):
        self.label = label
        self.spans = []
        self.stack = []
        self.missing = []

    def wrap(self, name: str, fn, info=None):
        signature = inspect.signature(fn) if info is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                    self.label, None]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if info is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = info(bound.arguments, result)
            return result

        return wrapper

    def dump(self, path: str, import_s: float) -> None:
        with open(path, "w") as handle:
            json.dump({"label": self.label, "import_s": import_s,
                       "missing": self.missing, "spans": self.spans},
                      handle)


def install(recorder: Recorder) -> None:
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "bn6" or name.startswith("bn6.")}
    targets = [(mod, attr, span, info, True)
               for mod, attr, span, info in LAYER_FUNCTIONS]
    targets += [(mod, attr, span, info, False)
                for mod, attr, span, info in KERNELS]
    bubbles = modules.get(BUBBLES_MODULE)
    targets += [(BUBBLES_MODULE, attr, f"bubbles.{attr}", None, True)
                for attr, value in sorted(vars(bubbles or object).items())
                if inspect.isfunction(value) and not attr.startswith("_")
                and value.__module__ == BUBBLES_MODULE]
    for mod_name, attr, span, info, everywhere in targets:
        original = getattr(modules.get(mod_name), attr, None)
        if original is None:
            recorder.missing.append(span)
            continue
        wrapper = recorder.wrap(span, original, info)
        holders = modules.values() if everywhere else [modules[mod_name]]
        for mod in holders:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def main(argv) -> int:
    spans_path, label, cli_args = argv[0], argv[1], argv[2:]
    recorder = Recorder(label)
    start = time.perf_counter()
    import bn6.cli
    import_s = time.perf_counter() - start
    install(recorder)
    run = recorder.wrap("cli.main", bn6.cli.main)
    try:
        return run(cli_args)
    finally:
        recorder.dump(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
