"""Benchmark of the bn6 command-line verifier.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify|limits|expansion|all \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record      # rewrite perfbench/reference.json

Workloads (each command its own invocation, as users run them):

    certify    bn6 nondeg                        lambda_0, 4096-cell profiles,
                                                 25 sector gaps, survey
    limits     bn6 limits --N 6 --m 2, a_end 1e8 branch tails and limit fits
               bn6 limits --N 4 --m 2, a_end 1e6
    expansion  bn6 expansion-check               panel quadrature, bubbles

The commands run one at a time (a closed loop with one client).
Every command runs in a fresh `PYTHONPATH=src python -m bn6.cli ...`
interpreter, which is what a user pays and which keeps in-process caches
from carrying over between commands.  Seed 0 runs the canonical inputs and
checks the artifacts against perfbench/reference.json; other seeds move
the limits a_start within [1, 2) and the expansion eps-grid start within
+-10% of 0.02 and run only the seed-independent checks.  certify has no
free input and ignores the seed.

--trace 0 runs untraced passes back to back until --seconds have passed
and reports the end-to-end metrics.  --trace 1 runs one untraced and two
traced passes (perfbench/traced_cli.py) and reports per-layer counts and
self times; the traced counts of the two passes must be identical.  An
operation is one command; it fails on a nonzero exit code, a failed output
check, an artifact hash that differs from an earlier pass of the same
workload, seed and source tree, or traced counts that differ between the
two traced passes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from importlib import metadata

SRC = "src"
OUT = ".bench_out"
HERE = os.path.dirname(os.path.abspath(__file__))
TRACED_CLI = os.path.join(HERE, "traced_cli.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("certify", "limits", "expansion")
RUN_LIMIT_S = 170.0     # per workload; children still running then are killed
SETUP_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

EPS_START, EPS_STOP, EPS_COUNT = 0.02, 0.25, 8   # expansion-check default
MU3_OVER_D2 = -16.0 / 9.0    # the seed's accepted mu^3 coefficient / d_2


# ---------------------------------------------------------------------------
# output checks

def _json(out, name):
    with open(os.path.join(out, name)) as handle:
        return json.load(handle)


def _csv(out, name):
    """Numeric rows of a bn6 CSV artifact (provenance lines and header
    skipped)."""
    with open(os.path.join(out, name)) as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return [[float(cell) for cell in line.split(",")] for line in lines[1:]]


def _close(errors, what, got, want, rel):
    if not abs(got - want) <= rel * abs(want):
        errors.append(f"{what} = {got!r}, want {want!r} within {rel:g} rel")


def _band(errors, what, got, lo, hi):
    if not lo <= got <= hi:
        errors.append(f"{what} = {got!r} outside [{lo:g}, {hi:g}]")


def _lambda1_n4():
    from scipy.special import jn_zeros
    return float(jn_zeros(1, 1)[0]) ** 2


def certify_values(out):
    doc = _json(out, "nondeg.json")
    return {
        "lambda0": doc["lambda0"],
        "gap": 2.0 * doc["origin_value_gap"],   # |2 u(0) - lambda_0|
        "sector_gaps": doc["sector_gaps"],
        "cutoff_certified": doc["cutoff_certified"],
        "profile_rows": [len(_csv(out, "nondeg_v.csv")),
                         len(_csv(out, "nondeg_w.csv"))],
    }


def certify_check(got, ref, reference, canonical):
    errors = []
    _close(errors, "lambda0", got["lambda0"], ref["lambda0"], 1e-9)
    if not got["gap"] <= 1e-8:
        errors.append(f"|2u(0) - lambda0| = {got['gap']:.3e} > 1e-8")
    if len(got["sector_gaps"]) != len(ref["sector_gaps"]):
        errors.append(f"{len(got['sector_gaps'])} sector gaps, "
                      f"want {len(ref['sector_gaps'])}")
    for l, (g, r) in enumerate(zip(got["sector_gaps"], ref["sector_gaps"])):
        _close(errors, f"sector gap {l}", g, r, 1e-6)
    if got["cutoff_certified"] is not True:
        errors.append("cutoff not certified")
    if got["profile_rows"] != ref["profile_rows"]:
        errors.append(f"profile rows {got['profile_rows']}, "
                      f"want {ref['profile_rows']}")
    return errors


def limits_values(dimension):
    def values(out):
        stem = f"limits_N{dimension}_m2"
        est = _json(out, stem + ".json")
        rows = _csv(out, stem + "_branch.csv")
        return {
            "amplitudes": [row[0] for row in rows],
            "lambdas": [row[1] for row in rows],
            "lam_infinity": est["lam_infinity"],
            "tail": [lam for _, lam in est["tail"]],
        }
    return values


def limits_check(dimension):
    def check(got, ref, reference, canonical):
        errors = []
        if canonical:
            if len(got["amplitudes"]) != len(ref["amplitudes"]):
                errors.append(f"{len(got['amplitudes'])} branch points, "
                              f"want {len(ref['amplitudes'])}")
            for a, lam, ra, rlam in zip(got["amplitudes"], got["lambdas"],
                                        ref["amplitudes"], ref["lambdas"]):
                _close(errors, "branch amplitude", a, ra, 1e-12)
                _close(errors, f"lambda at a={a:.6g}", lam, rlam, 1e-8)
        if dimension == 6:
            oracle = reference["nondeg"]["lambda0"]
        else:
            oracle = _lambda1_n4()
            if not all(lam > oracle for lam in got["tail"]):
                errors.append("N=4 tail not above lambda_1")
        _close(errors, f"N={dimension} limit", got["lam_infinity"], oracle,
               0.02)
        return errors
    return check


def expansion_values(out):
    fit = _json(out, "expansion_fit.json")
    # d_2 = alpha_6^{3/2} omega_6 u(0)^{3/2} with alpha_6 = 24,
    # omega_6 = pi^3 and u(0) = lambda_0 / 2
    d2 = 24.0 ** 1.5 * math.pi ** 3 * (0.5 * fit["lambda0"]) ** 1.5
    return {
        "lambda0": fit["lambda0"],
        "residual_exponent": fit["residual_exponent"],
        "coef_eps_mu2": fit["coef_eps_mu2"],
        "target_eps_mu2": fit["target_eps_mu2"],
        "mu3_over_d2": fit["coef_mu3"] / d2,
        "rows": len(_csv(out, "expansion_check.csv")),
    }


def expansion_check(got, ref, reference, canonical):
    errors = []
    if canonical:
        _close(errors, "lambda0", got["lambda0"], ref["lambda0"], 1e-9)
    if got["rows"] != ref["rows"]:
        errors.append(f"{got['rows']} expansion rows, want {ref['rows']}")
    _band(errors, "residual exponent", got["residual_exponent"], 1.8, 2.2)
    _close(errors, "eps mu^2 coefficient", got["coef_eps_mu2"],
           got["target_eps_mu2"], 0.05)
    _close(errors, "mu^3 coefficient / d2", got["mu3_over_d2"], MU3_OVER_D2,
           0.02)
    return errors


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Command:
    name: str           # unique across workloads; the reference key
    args: tuple         # bn6 arguments, without --out and --config
    config: str | None  # text of the --config file
    values: Callable    # out dir -> dict of checked values
    check: Callable     # (values, ref, reference, canonical) -> errors


def workload_commands(workload, seed):
    rng = random.Random(seed)
    if workload == "certify":
        return [Command("nondeg", ("nondeg",), None,
                        certify_values, certify_check)]
    if workload == "limits":
        commands = []
        for dimension, a_end in ((6, "1e8"), (4, "1e6")):
            config = f"a_end = {a_end}\n"
            if seed != 0:
                config += f"a_start = {1.0 + rng.random()!r}\n"
            commands.append(Command(
                f"limits-N{dimension}",
                ("limits", "--N", str(dimension), "--m", "2"), config,
                limits_values(dimension), limits_check(dimension)))
        return commands
    if workload == "expansion":
        args = ("expansion-check",)
        if seed != 0:
            start = EPS_START * rng.uniform(0.9, 1.1)
            ratio = (EPS_STOP / EPS_START) ** (1.0 / (EPS_COUNT - 1))
            args += ("--eps-grid", f"{start!r}:{ratio!r}:{EPS_COUNT}")
        return [Command("expansion-check", args, None,
                        expansion_values, expansion_check)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# processes

def spawn(argv, log_path, deadline):
    """Run argv to completion; returns (wall seconds, exit code, rusage).
    The child is killed once the run deadline has passed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def import_times(count, deadline):
    """Seconds for a fresh interpreter to import bn6.cli, `count` times,
    after one untimed import that compiles bytecode and warms the file
    cache."""
    times = []
    for i in range(count + 1):
        wall, code, _ = spawn([sys.executable, "-c", "import bn6.cli"],
                              os.path.join(OUT, "logs", "setup.log"),
                              deadline)
        if code != 0:
            raise RuntimeError(f"import bn6.cli failed with exit code {code}"
                               f" (see {OUT}/logs/setup.log)")
        if i > 0:
            times.append(wall)
    return times


def hash_dir(path):
    hashes = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as handle:
            hashes[name] = hashlib.sha256(handle.read()).hexdigest()
    return hashes


def source_digest():
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(path.encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# passes

def run_command(workload, cmd, label, traced, canonical, reference,
                deadline):
    out = os.path.join(OUT, workload, cmd.name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    args = list(cmd.args) + ["--out", out]
    if cmd.config is not None:
        cfg = os.path.join(OUT, "config", cmd.name + ".cfg")
        with open(cfg, "w") as handle:
            handle.write(cmd.config)
        args += ["--config", cfg]
    spans = os.path.join(OUT, "trace", label + ".json")
    if traced:
        argv = [sys.executable, TRACED_CLI, spans, label] + args
    else:
        argv = [sys.executable, "-m", "bn6.cli"] + args
    log = os.path.join(OUT, "logs", label + ".log")
    wall, code, usage = spawn(argv, log, deadline)
    record = {"command": cmd.name, "label": label, "wall_s": wall,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "exit": code, "rss_mb": usage.ru_maxrss / 1024.0,
              "hashes": hash_dir(out),
              "errors": [], "spans": spans if traced else None,
              "values": None}
    if code != 0:
        record["errors"].append(f"exit code {code} (see {log})")
        return record
    try:
        record["values"] = dict(cmd.values(out),
                                files=sorted(record["hashes"]))
    except (OSError, KeyError, ValueError, IndexError) as exc:
        record["errors"].append(f"unreadable artifacts: {exc!r}")
        return record
    if reference is not None:
        ref = reference[cmd.name]
        if record["values"]["files"] != ref["files"]:
            record["errors"].append(f"artifacts {record['values']['files']},"
                                    f" want {ref['files']}")
        record["errors"] += cmd.check(record["values"], ref, reference,
                                      canonical)
    return record


def run_pass(workload, seed, index, traced, reference, deadline):
    kind = "traced" if traced else "plain"
    load = os.getloadavg()
    commands = workload_commands(workload, seed)
    records = [run_command(workload, cmd,
                           f"{workload}-s{seed}-{kind}{index}-c{i}",
                           traced, seed == 0, reference, deadline)
               for i, cmd in enumerate(commands)]
    return {"workload": workload, "pass": index, "traced": traced,
            "loadavg_1m": load[0], "commands": records,
            "wall_s": sum(r["wall_s"] for r in records),
            "cpu_s": sum(r["cpu_s"] for r in records),
            "peak_rss_mb": max(r["rss_mb"] for r in records)}


def check_hashes(workload, seed, passes):
    """Artifacts of one command must be byte-identical across every pass
    of the same workload, seed and source tree, in this run or an earlier
    one in the same checkout."""
    store_path = os.path.join(OUT, "hashes.json")
    store = {}
    if os.path.exists(store_path):
        with open(store_path) as handle:
            store = json.load(handle)
    digest = source_digest()
    for p in passes:
        for record in p["commands"]:
            if record["exit"] != 0:
                continue
            key = f"{digest}/{workload}/seed{seed}/{record['command']}"
            first = store.setdefault(key, record["hashes"])
            if record["hashes"] != first:
                changed = sorted(k for k in set(first) | set(record["hashes"])
                                 if first.get(k) != record["hashes"].get(k))
                record["errors"].append(f"artifact hashes differ from an "
                                        f"earlier pass: {changed}")
    with open(store_path, "w") as handle:
        json.dump(store, handle, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# traced pass: spans to per-layer metrics

IVP = "shooting.solve_ivp"
GRIDS = ("grid.make_grid", "grid.make_core_grid", "grid.rescale_grid")


class Missing(Exception):
    pass


class Trace:
    """Calls, self seconds, work counts and IVP ancestry of one traced
    pass, summed over its commands."""

    def __init__(self, records):
        self.calls = Counter()
        self.self_s = Counter()
        self.work = Counter()
        self.ivps_under = Counter()
        self.outer_grids = 0
        self.import_s = 0.0
        self.wall_s = sum(r["wall_s"] for r in records)
        self.missing = set()
        for record in records:
            with open(record["spans"]) as handle:
                doc = json.load(handle)
            self.import_s += doc["import_s"]
            self.missing.update(doc["missing"])
            self._add(doc["spans"])

    def _add(self, spans):
        covered = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, _, info) in enumerate(spans):
            self.calls[name] += 1
            self.self_s[name] += end - start - covered[i]
            for key, value in (info or {}).items():
                self.work[f"{name}.{key}"] += value
            if name.startswith("grid.") and not (
                    parent >= 0 and spans[parent][0].startswith("grid.")):
                self.outer_grids += 1
            if name == IVP:
                ancestors = set()
                up = parent
                while up >= 0:
                    ancestors.add(spans[up][0])
                    up = spans[up][3]
                for ancestor in ancestors:
                    self.ivps_under[ancestor] += 1

    def _known(self, name):
        if name in self.missing:
            raise Missing(name)
        return name

    def n(self, name):
        return self.calls[self._known(name)]

    def s(self, *names):
        return sum(self.self_s[self._known(name)] for name in names)

    def w(self, name, key):
        return self.work[f"{self._known(name)}.{key}"]

    def under(self, name):
        return self.ivps_under[self._known(name)]

    def outer(self, names):
        """Spans of `names` not nested in another span of `names`."""
        for name in names:
            self._known(name)
        return self.outer_grids

    def prefix_s(self, prefix):
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))


def _ratio(a, b):
    return a / b if b else 0.0


# Self-time buckets: every span name falls in exactly one of them, so the
# buckets plus import time plus the uncovered remainder add up to the
# traced wall time.
SECONDS = (
    ("shooting.ivp_s", lambda t: t.s(IVP, "shooting._integrate")),
    ("shooting.find_lambda0_s", lambda t: t.s("shooting.find_lambda0")),
    ("shooting.solve_bvp_s", lambda t: t.s("shooting.solve_bvp")),
    ("shooting.root_s", lambda t: t.s("shooting.brentq")),
    ("shooting.shoot_s", lambda t: t.s("shooting.shoot")),
    ("continuation.trace_branch_s",
     lambda t: t.s("continuation.trace_branch")),
    ("continuation.match_s", lambda t: t.s("continuation._match_lambda")),
    ("continuation.extract_limit_s",
     lambda t: t.s("continuation.extract_limit")),
    ("continuation.curve_fit_s", lambda t: t.s("continuation.curve_fit")),
    ("operators.eigensolve_s",
     lambda t: t.s("operators.eigvalsh_tridiagonal")),
    ("operators.min_singular_value_s",
     lambda t: t.s("operators.min_singular_value")),
    ("operators.solve_dirichlet_s",
     lambda t: t.s("operators.solve_dirichlet")),
    ("operators.assemble_s", lambda t: t.s("operators.assemble")),
    ("auxiliary.build_profiles_s", lambda t: t.s("auxiliary.build_profiles")),
    ("auxiliary.essential_nondegeneracy_s",
     lambda t: t.s("auxiliary.essential_nondegeneracy")),
    ("reduction.expansion_check_s",
     lambda t: t.s("reduction.expansion_check")),
    ("reduction.panel_s", lambda t: t.s("reduction._panel_integral")),
    ("bubbles.s", lambda t: t.prefix_s("bubbles.")),
    ("grid.grid_s", lambda t: t.s(*GRIDS)),
    ("cli.write_s", lambda t: t.s("cli.write_atomic")),
    ("cli.command_s", lambda t: t.s("cli.main")),
)

COUNTS = (
    ("shooting.ivps", "count", lambda t: t.n(IVP)),
    ("shooting.rhs_evals", "count", lambda t: t.w(IVP, "nfev")),
    ("shooting.rhs_evals_per_ivp", "evals/ivp",
     lambda t: _ratio(t.w(IVP, "nfev"), t.n(IVP))),
    ("shooting.find_lambda0_calls", "count",
     lambda t: t.n("shooting.find_lambda0")),
    ("shooting.solve_bvp_calls", "count",
     lambda t: t.n("shooting.solve_bvp")),
    ("shooting.ivps_per_bvp", "ivps/bvp",
     lambda t: _ratio(t.under("shooting.solve_bvp"),
                      t.n("shooting.solve_bvp"))),
    ("shooting.root_calls", "count", lambda t: t.n("shooting.brentq")),
    ("shooting.shoot_calls", "count", lambda t: t.n("shooting.shoot")),
    ("continuation.match_calls", "count",
     lambda t: t.n("continuation._match_lambda")),
    ("continuation.points", "count",
     lambda t: t.w("continuation.trace_branch", "points")),
    ("continuation.rejected", "count",
     lambda t: t.w("continuation.trace_branch", "rejected")),
    ("continuation.ivps_per_point", "ivps/point",
     lambda t: _ratio(t.under("continuation.trace_branch"),
                      t.w("continuation.trace_branch", "points"))),
    ("continuation.curve_fits", "count",
     lambda t: t.n("continuation.curve_fit")),
    ("operators.eigensolves", "count",
     lambda t: t.n("operators.eigvalsh_tridiagonal")),
    ("operators.eigensolve_rows", "count",
     lambda t: t.w("operators.eigvalsh_tridiagonal", "rows")),
    ("operators.solve_dirichlet_calls", "count",
     lambda t: t.n("operators.solve_dirichlet")),
    ("operators.assemble_calls", "count",
     lambda t: t.n("operators.assemble")),
    ("auxiliary.sectors", "count",
     lambda t: t.w("auxiliary.essential_nondegeneracy", "sectors")),
    ("reduction.rows", "count",
     lambda t: t.w("reduction.expansion_check", "rows")),
    ("reduction.panel_integrals", "count",
     lambda t: t.n("reduction._panel_integral")),
    ("reduction.quad_nodes", "count",
     lambda t: t.w("reduction._panel_integral", "nodes")),
    ("bubbles.calls", "count",
     lambda t: sum(v for k, v in t.calls.items() if k.startswith("bubbles."))),
    ("grid.grids_built", "count", lambda t: t.outer(GRIDS)),
    ("cli.files", "count", lambda t: t.n("cli.write_atomic")),
    ("cli.bytes", "count", lambda t: t.w("cli.write_atomic", "bytes")),
)


def layer_metrics(trace):
    """Per-layer metrics of one traced pass: name -> (value, unit); a
    metric that reads a name missing from the program is None."""
    metrics = {}
    for name, unit, fn in COUNTS:
        try:
            metrics[name] = (fn(trace), unit)
        except Missing:
            metrics[name] = (None, unit)
    for name, fn in SECONDS:
        try:
            metrics[name] = (fn(trace), "s")
        except Missing:
            metrics[name] = (None, "s")
    metrics["cli.import_s"] = (trace.import_s, "s")
    metrics["trace.wall_s"] = (trace.wall_s, "s")
    metrics["trace.uncovered_s"] = (
        trace.wall_s - trace.import_s - sum(trace.self_s.values()), "s")
    return metrics


def count_signature(trace):
    return dict(trace.calls), dict(trace.work)


# ---------------------------------------------------------------------------
# reporting

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(name, unit, values):
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    print(f"  {name:<36} {unit:<10} median {med:<10.6g} q1 {q1:<10.6g} "
          f"q3 {q3:<10.6g} n {len(values)}  "
          f"[{', '.join(f'{v:.6g}' for v in values)}]")
    return {"value": med, "unit": unit}


def environment():
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS
                       if k in os.environ},
        "machine": platform.machine(),
    }


def print_failures(passes):
    for p in passes:
        for record in p["commands"]:
            for error in record["errors"]:
                print(f"  FAILED {record['label']}: {error}")


# ---------------------------------------------------------------------------
# modes

def measure_end_to_end(workloads, seed, seconds, reference, deadline):
    """Untraced passes, interleaved over the workloads, until `seconds`
    have passed (at least one round)."""
    setup = import_times(SETUP_SAMPLES, deadline)
    passes = defaultdict(list)
    start = time.monotonic()
    while True:
        for workload in workloads:
            index = len(passes[workload])
            passes[workload].append(run_pass(workload, seed, index, False,
                                             reference, deadline))
        elapsed = time.monotonic() - start
        round_s = elapsed / len(passes[workloads[0]])
        if elapsed >= seconds or time.monotonic() + round_s > deadline:
            break
    metrics = {}
    for workload in workloads:
        runs = passes[workload]
        check_hashes(workload, seed, runs)
        ops = [r for p in runs for r in p["commands"]]
        failed = sum(1 for r in ops if r["errors"])
        prefix = "" if len(workloads) == 1 else workload + "."
        print(f"workload {workload}  seed {seed}  passes {len(runs)}  "
              f"loadavg_1m {[round(p['loadavg_1m'], 2) for p in runs]}")
        metrics[prefix + "wall_s"] = summarize(
            "wall_s", "s", [p["wall_s"] for p in runs])
        metrics[prefix + "setup_s"] = summarize("setup_s", "s", setup)
        metrics[prefix + "peak_rss_mb"] = summarize(
            "peak_rss_mb", "MB", [p["peak_rss_mb"] for p in runs])
        summarize("failed_frac", "1", [failed / len(ops)])
        summarize("child cpu_s", "s", [p["cpu_s"] for p in runs])
        for cmd in dict.fromkeys(r["command"] for r in ops):
            summarize(f"command {cmd} wall", "s",
                      [r["wall_s"] for r in ops if r["command"] == cmd])
        print_failures(runs)
    return [p for w in workloads for p in passes[w]], metrics


def measure_layers(workloads, seed, reference, deadline):
    """Per workload: one untraced pass, then two traced passes whose
    counts must agree exactly."""
    all_passes, metrics = [], {}
    import_times(0, deadline)
    for workload in workloads:
        plain = run_pass(workload, seed, 0, False, reference, deadline)
        traced = [run_pass(workload, seed, i, True, reference, deadline)
                  for i in (1, 2)]
        runs = [plain] + traced
        all_passes += runs
        check_hashes(workload, seed, runs)
        traces = []
        for p in traced:
            if any(r["exit"] != 0 for r in p["commands"]):
                traces = None
                break
            traces.append(Trace(p["commands"]))
        prefix = "" if len(workloads) == 1 else workload + "."
        print(f"workload {workload}  seed {seed}  traced passes 2  "
              f"untraced wall {plain['wall_s']:.4f} s  loadavg_1m "
              f"{[round(p['loadavg_1m'], 2) for p in runs]}")
        if traces is None:
            print_failures(runs)
            continue
        if count_signature(traces[0]) != count_signature(traces[1]):
            for record in traced[1]["commands"]:
                record["errors"].append(
                    "traced counts differ from the first traced pass")
        per_pass = [layer_metrics(t) for t in traces]
        for name, (value, unit) in per_pass[0].items():
            if value is None:
                print(f"  {name:<36} {unit:<10} MISSING")
                metrics[prefix + name] = {"value": None, "unit": unit}
            elif unit == "s":
                metrics[prefix + name] = summarize(
                    name, unit, [m[name][0] for m in per_pass])
            else:   # counts are identical across the traced passes
                print(f"  {name:<36} {unit:<10} {value:.10g}")
                metrics[prefix + name] = {"value": value, "unit": unit}
        overhead = (statistics.median(t.wall_s for t in traces)
                    - plain["wall_s"])
        metrics[prefix + "trace.overhead_s"] = {"value": overhead, "unit": "s"}
        first = per_pass[0]
        buckets = sum(first[name][0] or 0.0 for name, _ in SECONDS)
        print(f"  trace.overhead_s {overhead:.4f} s; first traced pass: layer "
              f"self times {buckets:.4f} s + cli.import_s "
              f"{first['cli.import_s'][0]:.4f} s + trace.uncovered_s "
              f"{first['trace.uncovered_s'][0]:.4f} s = traced wall "
              f"{traces[0].wall_s:.4f} s")
        if not traces[0].missing and abs(
                buckets - sum(traces[0].self_s.values())) > 1e-6:
            traced[0]["commands"][0]["errors"].append(
                "a span falls outside the self-time buckets")
        if min(m["trace.uncovered_s"][0] for m in per_pass) < 0.0:
            traced[0]["commands"][0]["errors"].append(
                "span self times exceed the traced wall time")
        print_failures(runs)
    return all_passes, metrics


def record_reference(deadline):
    reference = {"env": environment(), "commands": {}}
    for workload in WORKLOADS:
        p = run_pass(workload, 0, 0, False, None, deadline)
        for record in p["commands"]:
            if record["errors"]:
                raise RuntimeError(f"{record['label']}: {record['errors']}")
            reference["commands"][record["command"]] = record["values"]
    with open(REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the seed-0 reference values")
    args = parser.parse_args()
    # SIGTERM unwinds like an interrupt, so `spawn` kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(workloads)
    if not os.path.isfile(os.path.join(SRC, "bn6", "cli.py")):
        print(f"no {SRC}/bn6 here: run from the root of a bn6 checkout",
              file=sys.stderr)
        return 2
    for sub in ("logs", "trace", "config"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    if args.record:
        record_reference(deadline)
        return 0
    with open(REFERENCE) as handle:
        reference = json.load(handle)["commands"]

    print("env " + json.dumps(environment(), sort_keys=True))
    try:
        if args.trace:
            passes, metrics = measure_layers(workloads, args.seed, reference,
                                             deadline)
        else:
            passes, metrics = measure_end_to_end(workloads, args.seed,
                                                 args.seconds, reference,
                                                 deadline)
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    ops = [r for p in passes for r in p["commands"]]
    failed = sum(1 for r in ops if r["errors"])
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
