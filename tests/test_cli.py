"""Command-line entry points: exit codes, config resolution, artifacts."""

import dis
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np
import pytest

import bn6
from bn6.cli import (
    RunConfig,
    main,
    parse_config_file,
    parse_eps_grid,
    resolve_config,
    build_parser,
)
from bn6.errors import ConfigError
from bn6.serialize import record


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------- exit codes

def test_no_command_exits_3_with_usage(capsys):
    assert run() == 3
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_command_exits_3_with_usage(capsys):
    assert run("frobnicate") == 3
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_config_key_exits_3(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_key = 1\n")
    assert run("constants", "--config", str(cfg)) == 3
    assert "bogus_key" in capsys.readouterr().err


def test_solver_failure_exits_2(tmp_path, capsys):
    # below the existence window the matching condition never changes sign
    code = run("ground-state", "--N", "3", "--lambda", "2.2",
               "--out", str(tmp_path))
    assert code == 2
    assert capsys.readouterr().err.strip()
    # 2u(0) = lambda_0 is defined in dimension 6 only
    assert run("lambda0", "--N", "5", "--out", str(tmp_path)) == 2
    assert "N = 6" in capsys.readouterr().err


def test_removed_s_key_exits_3(tmp_path, capsys):
    # the ansatz has no inner-region exponent; s is an unknown key
    cfg = tmp_path / "s.cfg"
    cfg.write_text("s = 0.75\n")
    assert run("constants", "--config", str(cfg)) == 3
    assert "'s'" in capsys.readouterr().err


def test_missing_required_lambda_exits_3(tmp_path):
    assert run("ground-state", "--N", "3", "--out", str(tmp_path)) == 3


def _config_error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("bn6: config error:")
    return err[0]


def test_short_limits_window_exits_3(tmp_path, capsys):
    # a 1..64 window holds 7 points, one short of the 8-point tail
    cfg = tmp_path / "short.cfg"
    cfg.write_text("a_end = 64\n")
    assert run("limits", "--N", "3", "--m", "1", "--config", str(cfg),
               "--out", str(tmp_path)) == 3
    assert "got 7" in _config_error_line(capsys)


def _must_not_run(*args, **kwargs):
    raise AssertionError("a solver ran before the config was checked")


def test_short_fit_tail_exits_3(tmp_path, capsys, monkeypatch):
    # rejected before a single branch point is traced
    monkeypatch.setattr("bn6.cli.trace_branch", _must_not_run)
    cfg = tmp_path / "tail.cfg"
    cfg.write_text("fit_min_points = 5\n")
    assert run("limits", "--N", "3", "--m", "1", "--config", str(cfg),
               "--out", str(tmp_path)) == 3
    line = _config_error_line(capsys)
    assert "got 5" in line and "fit_min_points" in line


def test_too_coarse_nondeg_grid_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("bn6.cli.find_lambda0", _must_not_run)
    assert run("nondeg", "--grid-n", "8", "--out", str(tmp_path)) == 3
    line = _config_error_line(capsys)
    assert "got 8" in line and "--grid-n" in line


def test_negative_lmax_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("bn6.cli.find_lambda0", _must_not_run)
    assert run("nondeg", "--lmax", "-1", "--out", str(tmp_path)) == 3
    line = _config_error_line(capsys)
    assert "--lmax (lmax) must be >= 0, got -1" in line


def test_zero_nodal_count_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("bn6.cli.trace_branch", _must_not_run)
    assert run("limits", "--m", "0", "--out", str(tmp_path)) == 3
    line = _config_error_line(capsys)
    assert "--m (m) must be >= 1, got 0" in line


@pytest.mark.parametrize("argv,config,message", [
    (("ground-state", "--N", "2", "--lambda", "5"), None,
     "--N (dimension) must be >= 3, got 2"),
    (("branch",), "a_start = 0", "a_start must be finite and > 0, got 0.0"),
    (("branch",), "a_start = -1",
     "a_start must be finite and > 0, got -1.0"),
    (("limits",), "a_start = nan", "a_start must be finite and > 0, got nan"),
    (("branch",), "a_end = inf",
     "a_end must be finite and > a_start (1.0), got inf"),
    (("limits",), "a_start = 4\na_end = 2",
     "a_end must be finite and > a_start (4.0), got 2.0")])
def test_bad_dimension_or_amplitude_window_exits_3(tmp_path, capsys,
                                                   monkeypatch, argv, config,
                                                   message):
    # rejected by name before any solve, not by a ZeroDivisionError,
    # OverflowError or math domain error inside one
    monkeypatch.setattr("bn6.cli.trace_branch", _must_not_run)
    monkeypatch.setattr("bn6.cli.solve_bvp", _must_not_run)
    args = list(argv) + ["--out", str(tmp_path)]
    if config is not None:
        cfg = tmp_path / "window.cfg"
        cfg.write_text(config + "\n")
        args += ["--config", str(cfg)]
    assert run(*args) == 3
    assert message in _config_error_line(capsys)


@pytest.mark.parametrize("config,message", [
    ("a_start = 1e9",
     "got -12 from a_start = 1000000000.0 and a_end = 100000.0 "
     "(the N = 6 default)"),
    ("a_start = 1\na_end = 1.2",
     "got 1 from a_start = 1.0 and a_end = 1.2")])
def test_amplitude_window_without_a_schedule_exits_3(tmp_path, capsys,
                                                     config, message):
    # a window too narrow for two ratio-2 schedule points is refused by
    # a message that names both bounds, the default a_end included
    cfg = tmp_path / "window.cfg"
    cfg.write_text(config + "\n")
    assert run("limits", "--N", "6", "--m", "2", "--config", str(cfg),
               "--out", str(tmp_path)) == 3
    line = _config_error_line(capsys)
    assert message in line and "at least 2 points" in line


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_non_finite_lambda_exits_3(tmp_path, capsys, monkeypatch, lam):
    monkeypatch.setattr("bn6.cli.solve_bvp", _must_not_run)
    assert run("ground-state", "--lambda", lam, "--out", str(tmp_path)) == 3
    line = _config_error_line(capsys)
    assert f"--lambda (lam) must be finite, got {lam}" in line


def test_overflowing_lambda_exits_3(tmp_path, capsys):
    # 1e300 is finite, but the regular series at the first amplitude
    # overflows: the start is refused, without numpy warnings, by a
    # message that names lambda
    code = run("ground-state", "--lambda", "1e300", "--out", str(tmp_path))
    assert code == 3
    line = _config_error_line(capsys)
    assert "is not finite" in line and "lam=1e+300" in line


def test_overflowing_amplitude_exits_3(tmp_path, capsys):
    # at N = 3 the series term |a|^4 a is past the float range for
    # a > 1.3e77: the start is refused by a message that names a
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("a_start = 1e78\na_end = 1e79\n")
    code = run("branch", "--N", "3", "--config", str(cfg),
               "--out", str(tmp_path))
    assert code == 3
    line = _config_error_line(capsys)
    assert "is not finite" in line and "a=1e+78" in line


@pytest.mark.parametrize("command,grid", [
    ("ansatz-check", "0.05:2:1"), ("expansion-check", "0.05:1:3"),
    ("expansion-check", "0.05:1.5:3"), ("ansatz-check", "0.05:10:400"),
    ("expansion-check", "0.05:10:400"), ("expansion-check", "nan:2:6"),
    ("expansion-check", "0.05:nan:6"), ("ansatz-check", "nan:2:3"),
    ("expansion-check", "0.05:1e-300:6"), ("expansion-check", "1e-200:2:6"),
    ("ansatz-check", "1e-310:2:3")])
def test_degenerate_eps_grid_exits_3(tmp_path, capsys, monkeypatch,
                                     command, grid):
    # one magnitude, or several equal ones, cannot fit an exponent, and
    # the expansion fit needs MIN_EPS_MAGNITUDES; a nan start or ratio,
    # and magnitudes that overflow to inf, underflow to 0 or fall below
    # the smallest resolved bubble scale, are refused by name before any
    # solve, not by an OverflowError or a nan inside one
    monkeypatch.setattr("bn6.cli.find_lambda0", _must_not_run)
    assert run(command, "--eps-grid", grid, "--out", str(tmp_path)) == 3
    line = _config_error_line(capsys)
    assert "--eps-grid" in line and grid in line


# ---------------------------------------------------------- config handling

def test_parse_config_file_aliases_and_comments(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "n = 3\n"
        "lambda = 5.0\n"
        "grid-n = 512   # inline comment\n"
        "format = json\n"
        "\n")
    got = parse_config_file(str(cfg))
    assert got == {"dimension": 3, "lam": 5.0, "grid_n": 512,
                   "format": "json"}


def test_parse_config_file_rejects_bad_value(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_n = many\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(cfg))


def test_parse_config_file_rejects_bad_format(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = yaml\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(cfg))


def test_cli_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\nm = 2\n")
    args = build_parser().parse_args(
        ["branch", "--config", str(cfg), "--m", "3"])
    resolved = resolve_config(args)
    assert resolved.dimension == 3
    assert resolved.m == 3


def test_parse_eps_grid():
    got = parse_eps_grid("0.2:0.5:4")
    assert got == pytest.approx((0.2, 0.1, 0.05, 0.025))
    assert parse_eps_grid(None) is None
    for bad in ("0.2:0.5", "a:b:c", "0.2:0.5:0", "-0.1:0.5:3",
                "0.05:2:1", "0.05:1:3"):
        with pytest.raises(ConfigError):
            parse_eps_grid(bad)


def test_out_directory_falls_back_to_env(monkeypatch, tmp_path):
    monkeypatch.setenv("BN6_OUT", str(tmp_path))
    assert RunConfig().resolved_out() == str(tmp_path)
    monkeypatch.delenv("BN6_OUT")
    assert RunConfig().resolved_out() == "."
    assert RunConfig(out="x").resolved_out() == "x"


# ------------------------------------------------------------ artifacts

def read(path):
    return path.read_bytes()


def test_constants_artifact_and_determinism(tmp_path):
    out = tmp_path / "run"
    assert run("constants", "--lambda", "22.469107870851314",
               "--out", str(out)) == 0
    first = read(out / "constants.json")
    payload = json.loads(first)
    assert set(payload) == {"provenance", "alpha6", "omega6", "d1",
                            "d1_quadrature", "d2", "u_center", "d2_formula"}
    assert payload["alpha6"] == 24.0
    assert payload["omega6"] == pytest.approx(math.pi ** 3, rel=1e-15)
    assert payload["d1"] == pytest.approx(96.0 * math.pi ** 3, rel=1e-12)
    assert payload["provenance"]["version"] == bn6.__version__
    assert payload["provenance"]["config"]["dimension"] == 6
    assert payload["provenance"]["config"]["command"] == "constants"
    # identical invocation reproduces identical bytes
    assert run("constants", "--lambda", "22.469107870851314",
               "--out", str(out)) == 0
    assert read(out / "constants.json") == first


def test_ground_state_artifacts(tmp_path):
    out = tmp_path / "gs"
    assert run("ground-state", "--N", "3", "--lambda", "5.0",
               "--out", str(out)) == 0
    csv = (out / "ground_state_profile.csv").read_text().splitlines()
    comments = [ln for ln in csv if ln.startswith("#")]
    body = [ln for ln in csv if not ln.startswith("#")]
    assert comments[0].startswith("# bn6 ")
    assert any(ln == "# command = ground-state" for ln in comments)
    assert body[0] == "r,value,derivative"
    r0, v0, d0 = body[1].split(",")
    assert float(r0) == 0.0
    assert float(d0) == 0.0

    meta = json.loads(read(out / "ground_state.json"))
    assert set(meta) == {"provenance", "N", "lambda", "amplitude",
                         "nodal_count", "residual", "grid_n"}
    assert meta["N"] == 3
    assert meta["nodal_count"] == 1
    assert 0.0 < meta["lambda"] < math.pi ** 2
    assert meta["residual"] <= 1e-6
    assert float(v0) == pytest.approx(meta["amplitude"], rel=1e-12)

    # byte determinism for the solver output as well
    first = read(out / "ground_state_profile.csv")
    assert run("ground-state", "--N", "3", "--lambda", "5.0",
               "--out", str(out)) == 0
    assert read(out / "ground_state_profile.csv") == first


def test_json_format_adds_row_twin(tmp_path):
    out = tmp_path / "twin"
    assert run("ground-state", "--N", "3", "--lambda", "5.0",
               "--out", str(out), "--format", "json") == 0
    # the pinned CSV is written regardless of the requested format
    assert (out / "ground_state_profile.csv").exists()
    twin = json.loads(read(out / "ground_state_profile.rows.json"))
    assert twin["rows"][0]["r"] == 0.0
    assert set(twin["rows"][0]) == {"r", "value", "derivative"}


def test_branch_artifacts(tmp_path):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("n = 3\nm = 1\na_end = 16\n")
    out = tmp_path / "br"
    assert run("branch", "--config", str(cfg), "--out", str(out)) == 0
    csv = (out / "branch_N3_m1.csv").read_text().splitlines()
    body = [ln for ln in csv if not ln.startswith("#")]
    assert body[0] == "amplitude,lambda,residual"
    assert len(body) == 1 + 5  # schedule 1,2,4,8,16
    meta = json.loads(read(out / "branch_N3_m1.json"))
    assert len(meta["points"]) == 5
    assert meta["points"][0]["nodal_count"] == 1
    assert meta["diagnostics"] == []


def test_limits_artifacts(tmp_path):
    cfg = tmp_path / "lim.cfg"
    cfg.write_text("n = 3\nm = 1\na_end = 256\n")
    out = tmp_path / "lim"
    assert run("limits", "--config", str(cfg), "--out", str(out)) == 0
    est = json.loads(read(out / "limits_N3_m1.json"))
    assert set(est) == {"provenance", "lam_infinity", "model", "exponent",
                        "coefficient", "uncertainty", "tail", "monotone",
                        "alternating", "poor_fit"}
    assert est["model"] in ("power", "log")
    assert est["lam_infinity"] == pytest.approx(math.pi ** 2 / 4.0, rel=0.08)
    assert len(est["tail"]) == 8
    assert (out / "limits_N3_m1_branch.csv").exists()


def test_nondeg_two_v_has_refinement_error_bar(tmp_path):
    out = tmp_path / "nd"
    assert run("nondeg", "--out", str(out)) == 0
    doc = json.loads(read(out / "nondeg.json"))
    assert set(doc) == {"provenance", "dimension", "lambda0", "l_max",
                        "sector_gaps", "min_gap", "comparison_l",
                        "cutoff_certified", "hessian_witness",
                        "origin_value_gap", "survey"}
    survey = doc["survey"]
    assert set(survey) == {"lambda0", "points", "two_v_minus_one",
                           "two_v_error", "essential"}
    assert survey["points"]
    assert all(set(point) == {"radius", "level", "u_value", "v_value",
                              "dv_dr", "beta", "case"}
               for point in survey["points"])
    err = survey["two_v_error"]
    assert math.isfinite(err) and err > 0.0
    assert err < abs(survey["two_v_minus_one"])


def test_expansion_fit_carries_rows(tmp_path):
    out = tmp_path / "exp"
    assert run("expansion-check", "--out", str(out)) == 0
    fit = json.loads(read(out / "expansion_fit.json"))
    assert set(fit) == {"provenance", "lambda0", "tau_star", "rows",
                        "coef_const", "coef_mu2", "coef_eps_mu2", "coef_mu3",
                        "coef_eps2_mu2", "coef_eps_mu3", "c2_closed",
                        "target_eps_mu2", "target_mu3", "paper_mu3",
                        "remainder_exponent", "residual_exponent"}
    keys = {"eps", "tau_mult", "mu", "j_ansatz", "j_base", "delta",
            "e_pred", "defect", "residual_l32", "audit_gap",
            "base_form_gap"}
    assert fit["rows"]
    assert all(set(row) == keys for row in fit["rows"])
    # every row's gap is audited by direct quadrature of J(V) - J(z)
    audits = [row["audit_gap"] for row in fit["rows"]]
    assert all(isinstance(a, float) and math.isfinite(a) and a < 1e-10
               for a in audits)


def test_ansatz_check_artifacts(tmp_path):
    out = tmp_path / "ans"
    assert run("ansatz-check", "--out", str(out)) == 0
    payload = json.loads(read(out / "ansatz_check.json"))
    rows = payload["rows"]
    assert len(rows) == 8
    csv = (out / "ansatz_check.csv").read_text().splitlines()
    body = [ln for ln in csv if not ln.startswith("#")]
    assert body[0] == "eps,mu_bar,residual_L32"
    assert len(body) == 1 + 8
    assert 1.8 <= payload["residual_exponent"] <= 2.2
    # one centred bubble on the fixed-center schedule mu = tau* |eps|
    for row in rows:
        assert row["mu_bar"] == payload["tau_star"] * abs(row["eps"])
    first = {name: read(out / name)
             for name in ("ansatz_check.json", "ansatz_check.csv")}
    assert run("ansatz-check", "--out", str(out)) == 0
    for name, data in first.items():
        assert read(out / name) == data


@dataclass(frozen=True)
class _Inner:
    lam0: float
    profile: object = field(repr=False)


@dataclass(frozen=True)
class _Outer:
    name: str
    parts: tuple
    pairs: tuple


def test_record_renames_skips_and_nests():
    doc = record(_Outer("x", (_Inner(2.0, "big"), _Inner(3.0, None)),
                        ((1.0, 2.0),)))
    # lam0 is written as lambda0, a repr=False field is left out, and
    # tuples (of records or of numbers) become lists
    assert doc == {"name": "x",
                   "parts": [{"lambda0": 2.0}, {"lambda0": 3.0}],
                   "pairs": [[1.0, 2.0]]}


# ------------------------------------------------------------ import footprint

_FOOTPRINT = """
import sys
import bn6.cli
from bn6 import continuation, operators, shooting
kernels = [callable(getattr(module, name, None)) for module, name in
           ((continuation, "curve_fit"), (shooting, "brentq"),
            (shooting, "solve_ivp"), (operators, "eigvalsh_tridiagonal"))]
codes = [bn6.cli.main(argv.split() + ["--out", sys.argv[1]])
         for argv in sys.argv[2:]]
heavy = ("scipy.optimize", "scipy.integrate", "scipy.interpolate",
         "scipy.sparse", "scipy.linalg", "scipy._lib", "numpy.ma")
print(codes, kernels, [name for name in heavy if name in sys.modules])
"""


def _footprint(*argv: str) -> str:
    """The last line _FOOTPRINT prints after running the bn6 commands
    argv in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(bn6.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", _FOOTPRINT, *argv],
                          env=env, capture_output=True, text=True,
                          check=True)
    return done.stdout.splitlines()[-1]


def test_lambda0_loads_no_scipy_beyond_linalg(tmp_path):
    # a fresh interpreter: the CLI and a shooting command stay on numpy
    # (LAPACK comes from scipy's _flapack, loaded by file, not from
    # scipy.linalg), while the names the benchmark's traced kernels wrap
    # exist from the import on
    assert _footprint(str(tmp_path), "lambda0") == (
        "[0] [True, True, True, True] []")


def test_tail_fits_and_splines_load_no_scipy_beyond_linalg(tmp_path):
    # limits fits its tails and ansatz-check builds its splines on numpy
    # alone, and neither loads numpy.ma (np.unique would)
    cfg = tmp_path / "short.cfg"
    cfg.write_text("a_end = 256\n")
    assert _footprint(str(tmp_path), f"limits --N 3 --m 1 --config {cfg}",
                      "ansatz-check --eps-grid 0.05:0.5:2") == (
        "[0, 0] [True, True, True, True] []")


def test_certify_and_expansion_load_no_scipy(tmp_path):
    # with limits above, every benchmarked command runs on numpy alone,
    # without numpy.ma
    assert _footprint(str(tmp_path), "nondeg --grid-n 64",
                      "expansion-check") == (
        "[0, 0] [True, True, True, True] []")


def test_missing_flapack_names_the_scipy_searched(tmp_path):
    # a scipy without its compiled LAPACK: bn6 has no other route, and
    # says which install it searched
    (tmp_path / "scipy" / "linalg").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    src = os.path.dirname(os.path.dirname(bn6.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), src]))
    done = subprocess.run([sys.executable, "-c", "import bn6.cli"], env=env,
                          capture_output=True, text=True)
    assert done.returncode != 0
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError") and "_flapack" in last
    assert str(tmp_path / "scipy" / "linalg") in last


def test_lapack_failures_exit_2(tmp_path, capsys, monkeypatch):
    # a failed stebz or gtsv is a solver error with exit code 2
    def stebz(d, e, *args):
        return 0, np.zeros(len(d)), None, None, 1
    monkeypatch.setattr("bn6.operators.dstebz", stebz)
    assert run("nondeg", "--grid-n", "64", "--out", str(tmp_path)) == 2
    assert "stebz" in capsys.readouterr().err
    monkeypatch.undo()
    monkeypatch.setattr("bn6.reduction.dgtsv",
                        lambda dl, d, du, b, *flags: (dl, d, du, b, 1))
    assert run("ansatz-check", "--grid-n", "64", "--eps-grid", "0.05:0.5:2",
               "--out", str(tmp_path)) == 2
    assert "spline" in capsys.readouterr().err


# ------------------------------------------------------------ tracer contract

TRACED_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "perfbench", "traced_cli.py")


def _args_read(info) -> set:
    # the names an info callback reads as args["name"]
    ops = list(dis.get_instructions(info))
    return {b.argval for a, b in zip(ops, ops[1:])
            if a.opname == "LOAD_FAST" and a.argval == "args"
            and b.opname == "LOAD_CONST"}


def test_traced_cli_names_exist_and_its_callbacks_bind():
    # the benchmark's tracer wraps bn6 functions by name and reads some of
    # their arguments by name after binding the call to the signature
    # with its defaults; a missing name is silently not counted, and a
    # missing argument fails every traced run
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    read = {}
    for mod, attr, span, info in traced.LAYER_FUNCTIONS + traced.KERNELS:
        fn = getattr(sys.modules[mod], attr, None)
        assert callable(fn), f"{mod}.{attr}"
        if info is not None:
            names = _args_read(info)
            assert names <= set(inspect.signature(fn).parameters), span
            read[span] = names
    assert {span: names for span, names in read.items() if names} == {
        "reduction._panel_integral": {"edges", "order"},
        "operators.eigvalsh_tridiagonal": {"d"},
        "cli.write_atomic": {"text"},
    }
