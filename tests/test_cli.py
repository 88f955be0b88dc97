"""Command-line entry points: exit codes, config resolution, artifacts."""

import ast
import dis
import importlib.util
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bn6
from bn6 import auxiliary, cli, operators, serialize, shooting
from bn6.cli import (
    PROFILE_HEADER,
    RunConfig,
    main,
    parse_config_file,
    parse_eps_grid,
    resolve_config,
    build_parser,
)
from bn6.errors import ConfigError
from bn6.grid import RadialFn, make_grid
from bn6.serialize import (
    CSV_BLOCK_ROWS,
    csv_text,
    fmt,
    radial_fn_rows,
    record,
    rows_as_json,
)


ARTIFACT_DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tools", "artifact_digests.py")


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
    monkeypatch.setattr("bn6.continuation.trace_branch", _must_not_run)
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
    monkeypatch.setattr("bn6.continuation.trace_branch", _must_not_run)
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
    monkeypatch.setattr("bn6.continuation.trace_branch", _must_not_run)
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


@pytest.mark.parametrize("lam", ["1e204", "1e250"])
def test_overflowing_d2_exits_3(tmp_path, capsys, lam):
    # d_2 ~ |lam/2|^{3/2} is inf at 1e204 and overflows the power itself
    # at 1e250: both are refused by a message that names u_center, and
    # nothing is written
    out = tmp_path / "out"
    assert run("constants", "--lambda", lam, "--out", str(out)) == 3
    line = _config_error_line(capsys)
    assert "d_2 is not finite" in line
    assert f"u_center = {0.5 * float(lam)!r}" in line
    assert not out.exists()


def test_largest_d2_is_written(tmp_path):
    assert run("constants", "--lambda", "1e200", "--out", str(tmp_path)) == 0
    doc = json.loads(read(tmp_path / "constants.json"))
    assert doc["d2"] == 1.2889067175316161e+303


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


@pytest.mark.parametrize("command,grid", [
    ("expansion-check", "1e150:2:6"), ("ansatz-check", "1e300:2:2")])
def test_huge_eps_exits_3(tmp_path, capsys, command, grid):
    # mu = tau* |eps| past the bubble rates the reduction serves is refused
    # before its eps table is built, where eps^3 would overflow
    assert run(command, "--grid-n", "64", "--eps-grid", grid,
               "--out", str(tmp_path)) == 3
    assert "mu = " in _config_error_line(capsys)


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
    # the twin reads the same rows as the CSV, all of them
    csv = (out / "ground_state_profile.csv").read_text().splitlines()
    body = [ln for ln in csv if not ln.startswith("#")][1:]
    assert len(twin["rows"]) == len(body) == 1024 + 1


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
    # v(0) and the bar come from the shots' end values, not from the grid
    assert run("nondeg", "--grid-n", "64", "--out", str(tmp_path / "64")) == 0
    coarse = json.loads(read(tmp_path / "64" / "nondeg.json"))["survey"]
    assert coarse["two_v_minus_one"] == survey["two_v_minus_one"]
    assert coarse["two_v_error"] == err


def _counter(monkeypatch):
    """(counts, count): count(holder, name) counts the calls of holder.name
    under counts[name]."""
    counts = Counter()

    def count(holder, name):
        fn = getattr(holder, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(holder, name, counted)

    return counts, count


@pytest.mark.parametrize("command", ["nondeg", "aux-solve",
                                     "expansion-check", "ansatz-check"])
def test_profile_commands_solve_no_linear_system(tmp_path, monkeypatch,
                                                 command):
    # v and w come from shots, so no command solves or factorizes; nondeg
    # assembles each of its 25 sectors once for one Sturm bracket of lam_0
    # (two eigensolves), and sector 0's bracket also gives nu_1
    assemblies = 25 if command == "nondeg" else 0
    counts, count = _counter(monkeypatch)
    count(auxiliary, "build_profiles")
    count(auxiliary, "assemble")
    count(operators, "assemble")
    count(operators, "eigvalsh_tridiagonal")
    count(operators, "solve_dirichlet")
    count(operators._Assembled, "factor")
    assert run(command, "--out", str(tmp_path)) == 0
    assert counts == Counter({"build_profiles": 1, "assemble": assemblies,
                              "eigvalsh_tridiagonal": 2 * assemblies})


@pytest.mark.parametrize("argv", [("nondeg",), ("nondeg", "--grid-n", "64"),
                                  ("aux-solve",), ("expansion-check",)])
def test_u0_is_integrated_once(tmp_path, monkeypatch, argv):
    # the certificate's 3 IVPs (Z_1(2), then u from lam_0/2 and psi = du/da
    # along it) and the forced linear shot of w are all there are: every
    # grid samples the certificate's shots of u and psi, at any --grid-n
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_ivp(*args, **kwargs)
    solve_ivp = shooting.solve_ivp
    monkeypatch.setattr(shooting, "solve_ivp", counted)
    assert run(*argv, "--out", str(tmp_path)) == 0
    assert len(calls) == 4


def test_every_artifact_reaches_the_writer_as_one_str(tmp_path,
                                                      monkeypatch):
    # the benchmark's tracer counts cli.bytes as the UTF-8 length of the
    # text argument of write_atomic, so the writer gets each artifact whole
    texts = []

    def recorded(path, text):
        texts.append(text)
        return write_atomic(path, text)
    write_atomic = serialize.write_atomic
    monkeypatch.setattr(serialize, "write_atomic", recorded)
    monkeypatch.setattr(cli, "write_atomic", recorded)
    for command in ("nondeg", "aux-solve"):
        assert run(command, "--grid-n", "64", "--out", str(tmp_path)) == 0
    assert len(texts) == 3 + 4
    assert all(type(text) is str for text in texts)
    assert sum(len(text.encode("utf-8")) for text in texts) == sum(
        path.stat().st_size for path in tmp_path.iterdir())


_LOCALES = {"C": {"LC_ALL": "C", "PYTHONUTF8": "0",
                  "PYTHONCOERCECLOCALE": "0"},
            "C.UTF-8": {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"}}


def _artifacts_under(locale: str, out: pathlib.Path, *argv: str,
                     out_flag: bool = True) -> dict:
    """The artifacts bn6 argv writes into out, run in a fresh interpreter
    under locale; out is emptied first, and passed as --out unless
    out_flag is False (argv's config names it then)."""
    src = os.path.dirname(os.path.dirname(bn6.__file__))
    env = dict(os.environ, **_LOCALES[locale])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    if out.exists():
        for path in out.iterdir():
            path.unlink()
    done = subprocess.run([sys.executable, "-m", "bn6.cli", *argv,
                           *(("--out", str(out)) if out_flag else ())],
                          env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.mark.parametrize("argv", [("lambda0", "--grid-n", "64"),
                                  ("constants", "--lambda", "22.5")])
def test_artifact_bytes_do_not_depend_on_the_locale(tmp_path, argv):
    # under the C locale a non-ASCII --out is still written, and recorded,
    # as its UTF-8 bytes
    out = tmp_path / "\u00e9" / "l"
    ascii_run = _artifacts_under("C", out, *argv)
    assert ascii_run == _artifacts_under("C.UTF-8", out, *argv)
    name = "constants.json" if argv[0] == "constants" else "lambda0.json"
    assert json.loads(ascii_run[name])["provenance"]["config"]["out"] == (
        str(out))


def test_config_file_is_utf8_under_any_locale(tmp_path):
    # a non-ASCII comment reads under the C locale, and a config's `out`
    # names the directory that --out names, recorded as the same bytes
    out = tmp_path / "\u00e9" / "l"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# r\u00e9sum\u00e9\nlambda = 22.5\n", encoding="utf-8")
    argv = ("constants", "--config", str(cfg))
    by_flag = _artifacts_under("C", out, *argv)
    assert by_flag == _artifacts_under("C.UTF-8", out, *argv)
    cfg.write_text(f"# r\u00e9sum\u00e9\nlambda = 22.5\nout = {out}\n",
                   encoding="utf-8")
    for locale in _LOCALES:
        assert _artifacts_under(locale, out, *argv, out_flag=False) == (
            by_flag)


def test_config_file_that_is_not_utf8_exits_3(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"# r\xe9sum\xe9\nlambda = 22.5\n")
    assert run("constants", "--config", str(cfg),
               "--out", str(tmp_path / "out")) == 3
    assert "bn6: config error: cannot read config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unwritable_out_exits_3(tmp_path, capsys):
    # an --out that is a file, lies under one, or holds a directory by an
    # artifact's name is a configuration error that names the path, and
    # leaves no temporary file
    blocker = tmp_path / "file"
    blocker.write_text("")
    taken = tmp_path / "taken"
    (taken / "constants.json").mkdir(parents=True)
    for out in (blocker, blocker / "sub", taken):
        assert run("constants", "--lambda", "22.5", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("bn6: config error: cannot write")
        assert str(out) in err and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [blocker, taken]
    assert list(taken.iterdir()) == [taken / "constants.json"]


def test_artifact_digests_run_every_command():
    # the byte-identity tool runs each command at least once
    spec = importlib.util.spec_from_file_location("artifact_digests",
                                                  ARTIFACT_DIGESTS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    names = [name for name, _, _ in tool.INVOCATIONS]
    assert len(names) == len(set(names))
    assert {argv[0] for _, argv, _ in tool.INVOCATIONS} == set(cli.COMMANDS)


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


def test_ansatz_check_is_the_sweeps_central_rows(tmp_path):
    # ansatz-check writes the documented 8-row subset of expansion-check:
    # its rows are, as text, the (eps, mu_bar, residual) cells of the
    # sweep's tau-multiplier-1.0 rows, and its tau* and residual exponent
    # are the fit's
    ans, exp = tmp_path / "ans", tmp_path / "exp"
    assert run("ansatz-check", "--grid-n", "256", "--out", str(ans)) == 0
    assert run("expansion-check", "--grid-n", "256", "--out", str(exp)) == 0

    def rows(path):
        lines = path.read_text().splitlines()
        return [ln for ln in lines if not ln.startswith("#")][1:]

    mults = bn6.reduction.TAU_MULTIPLIERS
    sweep = rows(exp / "expansion_check.csv")[mults.index(1.0)::len(mults)]
    central = [",".join(cells[i] for i in (0, 1, 5))
               for cells in (row.split(",") for row in sweep)]
    assert len(central) == 8
    assert rows(ans / "ansatz_check.csv") == central
    fit = json.loads(read(exp / "expansion_fit.json"))
    subset = json.loads(read(ans / "ansatz_check.json"))
    assert subset["tau_star"] == fit["tau_star"]
    assert subset["residual_exponent"] == fit["residual_exponent"]


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


_CELLS = st.one_of(st.floats(), st.sampled_from(
    (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.inf,
     -math.inf, math.nan)))


def _first_difference(got: str, want: str):
    """None when the texts are equal, else the first line at which they
    differ, with its number (pytest's own diff of two texts of a thousand
    near-equal lines takes minutes)."""
    if got == want:
        return None
    pairs = zip(got.split("\n"), want.split("\n"))
    return next(((k, a, b) for k, (a, b) in enumerate(pairs) if a != b),
                ("lengths", got.count("\n"), want.count("\n")))


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 6), data=st.data())
def test_csv_rows_are_the_cells_fmt_prints(width, data):
    # a table is printed a block of rows at a time, byte for byte as fmt
    # prints its cells one at a time, signed zeros, subnormals, infinities
    # and nan included, also where one block ends and the next begins (the
    # drawn rows repeat to fill a table longer than a block), from tuples
    # or from a float array; a row of the wrong width is refused
    pool = data.draw(st.lists(st.tuples(*[_CELLS] * width), min_size=1,
                              max_size=8))
    count = data.draw(st.one_of(
        st.integers(0, 8),
        st.integers(CSV_BLOCK_ROWS - 2, 2 * CSV_BLOCK_ROWS + 2)))
    rows = [pool[k % len(pool)] for k in range(count)]
    header = ",".join(f"c{k}" for k in range(width))
    prov = {"command": "nondeg", "lmax": 24}
    lines = [",".join(fmt(cell) for cell in row) + "\n" for row in pool]
    text = csv_text(header, [], prov) + "".join(
        lines[k % len(pool)] for k in range(count))
    assert _first_difference(csv_text(header, rows, prov), text) is None
    assert _first_difference(
        csv_text(header, np.array(rows).reshape(-1, width), prov),
        text) is None
    with pytest.raises(ValueError, match="row width"):
        csv_text(header, [(0.0,) * (width + 1)])


@given(st.lists(st.tuples(_CELLS, _CELLS, _CELLS), max_size=8))
def test_radial_fn_rows_are_the_float_cells(cells):
    # the three columns read whole are the floats read cell by cell, and
    # the table reads the same the second time (its CSV and its row twin
    # both read it); the twin holds Python floats
    nodes, values, slopes = np.array(cells, dtype=float).reshape(-1, 3).T
    fn = SimpleNamespace(grid=SimpleNamespace(nodes=nodes), values=values,
                         derivative=slopes)
    rows = radial_fn_rows(fn)
    expected = [tuple(float.hex(float(x)) for x in row)
                for row in zip(nodes, values, slopes)]
    assert len(expected) == len(cells)
    for _ in range(2):
        assert [tuple(map(float.hex, row)) for row in rows] == expected
    twin = rows_as_json(PROFILE_HEADER, rows)
    assert [tuple(float.hex(row[name]) for name in ("r", "value",
                                                      "derivative"))
            for row in twin] == expected
    assert all(type(x) is float for row in twin for x in row.values())


def test_profile_table_is_formatted_without_per_row_objects():
    # with a tuple per row and a string per line, formatting a 4097-row
    # profile table peaked at 1,427 KB of Python objects (nondeg_v.csv,
    # 6.8 times its text); in blocks of rows it takes at most half of that
    # (about 2.4 times the text: the text, its blocks and one block's
    # cells)
    grid = make_grid(6, 4096)
    fn = RadialFn(grid, np.cos(grid.nodes), -np.sin(grid.nodes))
    prov = {"command": "nondeg", "lmax": 24}
    expected = csv_text(PROFILE_HEADER, radial_fn_rows(fn), prov)
    tracemalloc.start()
    try:
        text = csv_text(PROFILE_HEADER, radial_fn_rows(fn), prov)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == expected and text.count("\n") == 4097 + 4
    assert peak <= 1427 * 1024 // 2


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
         "scipy.sparse", "scipy.linalg", "scipy._lib", "numpy.ma",
         "numpy.polynomial")
print(codes, kernels, [name for name in heavy if name in sys.modules])
"""


def _fresh(script: str, *argv: str) -> str:
    """The last line script prints, run with argv in a fresh interpreter
    that imports bn6 from this checkout."""
    src = os.path.dirname(os.path.dirname(bn6.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", script, *argv],
                          env=env, capture_output=True, text=True,
                          check=True)
    return done.stdout.splitlines()[-1]


def _footprint(*argv: str) -> str:
    """The last line _FOOTPRINT prints after running the bn6 commands
    argv in a fresh interpreter."""
    return _fresh(_FOOTPRINT, *argv)


def test_lambda0_loads_no_scipy_beyond_linalg(tmp_path):
    # a fresh interpreter: the CLI and a shooting command stay on numpy
    # (LAPACK comes from scipy's _flapack, loaded by file, not from
    # scipy.linalg), while the names the benchmark's traced kernels wrap
    # exist from the import on
    assert _footprint(str(tmp_path), "lambda0") == (
        "[0] [True, True, True, True] []")


def test_tail_fits_and_splines_load_no_scipy_beyond_linalg(tmp_path):
    # limits fits its tails and ansatz-check builds its splines on numpy
    # alone, and neither loads numpy.ma (np.unique would) or
    # numpy.polynomial (leggauss would)
    cfg = tmp_path / "short.cfg"
    cfg.write_text("a_end = 256\n")
    assert _footprint(str(tmp_path), f"limits --N 3 --m 1 --config {cfg}",
                      "ansatz-check --eps-grid 0.05:0.5:2") == (
        "[0, 0] [True, True, True, True] []")


def test_certify_and_expansion_load_no_scipy(tmp_path):
    # with limits above, every benchmarked command runs on numpy alone,
    # without numpy.ma or numpy.polynomial
    assert _footprint(str(tmp_path), "nondeg --grid-n 64",
                      "expansion-check") == (
        "[0, 0] [True, True, True, True] []")


_RAN = """
import json, sys, types
import bn6.cli
def bn6_modules(ran):
    return sorted(name for name, mod in sys.modules.items()
                  if name.split(".")[0] == "bn6"
                  and (type(mod) is types.ModuleType or not ran))
doc = {"present": bn6_modules(False), "imported": bn6_modules(True)}
if len(sys.argv) > 2:
    doc["code"] = bn6.cli.main(sys.argv[2].split() + ["--out", sys.argv[1]])
    doc["ran"] = bn6_modules(True)
doc["scipy"] = sorted(name for name in sys.modules
                      if name.split(".")[0] == "scipy")
print(json.dumps(doc))
"""

# the modules `import bn6.cli` runs; the layers are lazy until a command
# reads them (a lazy module is not a plain ModuleType until it has run)
EAGER = {"bn6", "bn6.cli", "bn6.errors", "bn6.grid", "bn6.lapack",
         "bn6.operators", "bn6.roots", "bn6.serialize", "bn6.shooting"}


def _bn6_modules(out: str, argv: str | None = None) -> dict:
    """The bn6 modules in sys.modules of a fresh interpreter after
    `import bn6.cli` ("present"), those of them that have run
    ("imported"), with argv the exit code of that bn6 command and the
    modules that have run after it ("ran"), and the scipy modules loaded
    at the end ("scipy")."""
    return json.loads(_fresh(_RAN, out, *([argv] if argv else [])))


def test_import_runs_only_the_modules_every_command_needs(tmp_path):
    doc = _bn6_modules(str(tmp_path))
    assert set(doc["imported"]) == EAGER
    assert set(doc["present"]) == EAGER | {
        "bn6.auxiliary", "bn6.bubbles", "bn6.continuation", "bn6.reduction"}


@pytest.mark.parametrize("argv,layers", [
    ("nondeg --grid-n 64", {"bn6.auxiliary"}),
    ("limits --N 3 --m 1 --config {cfg}", {"bn6.continuation"}),
    ("expansion-check", {"bn6.auxiliary", "bn6.bubbles", "bn6.reduction"}),
])
def test_each_benchmarked_command_runs_only_its_layers(tmp_path, argv,
                                                       layers):
    # nondeg runs no bubbles, continuation or reduction, limits no
    # auxiliary, bubbles or reduction, expansion-check no continuation
    cfg = tmp_path / "short.cfg"
    cfg.write_text("a_end = 256\n")
    doc = _bn6_modules(str(tmp_path / "out"), argv.format(cfg=cfg))
    assert doc["code"] == 0
    assert set(doc["ran"]) == EAGER | layers


def test_constants_loads_no_scipy(tmp_path):
    # d1 by quadrature runs on bn6's own Gauss-Legendre panels, so no
    # command imports a scipy package; their rule is a literal, so no
    # command loads numpy.polynomial either
    assert _footprint(str(tmp_path), "constants") == (
        "[0] [True, True, True, True] []")
    doc = _bn6_modules(str(tmp_path), "constants")
    assert doc["code"] == 0 and doc["scipy"] == []
    assert set(doc["ran"]) == EAGER | {"bn6.bubbles"}


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


def _imports(path: pathlib.Path) -> set:
    """(module, top-level function or None) of every import statement in
    the bn6 module file at path, read from its syntax tree; relative
    names resolve in bn6, and `from . import x` counts bn6.x."""
    tree = ast.parse(path.read_text())
    scope = {id(node): f.name for f in tree.body
             if isinstance(f, ast.FunctionDef) for node in ast.walk(f)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "bn6." * bool(node.level) + (node.module or "")
            names = ([base] if node.module
                     else [base + alias.name for alias in node.names])
        else:
            continue
        found.update((name, scope.get(id(node))) for name in names)
    return found


def test_bn6_imports_no_scipy_and_keeps_its_layers_apart():
    # from the source, without importing it: bn6 has no scipy import
    # (bn6.lapack locates scipy's _flapack without an import statement),
    # shooting does not reach the operators, and the reduction neither
    # the operators nor shooting
    imports = {path.stem: _imports(path)
               for path in pathlib.Path(bn6.__file__).parent.glob("*.py")}
    assert {(stem, name, scope) for stem, found in imports.items()
            for name, scope in found if name.split(".")[0] == "scipy"} == (
        set())
    assert ("bn6.roots", None) in imports["shooting"]
    assert not {name for name, _ in imports["shooting"]} & {"bn6.operators"}
    assert not {name for name, _ in imports["reduction"]} & {
        "bn6.operators", "bn6.shooting"}


# the sampled ansatz and what it was built from; the tests' oracles hold
# the sampler and project_bubble
SAMPLED_ANSATZ = {"AnsatzSpec", "AnsatzProfile", "assemble_ansatz",
                  "_check_resolved", "RESOLUTION_FACTOR", "project_bubble"}


def test_reduction_reads_the_residual_from_the_splines_only():
    # from the source: a row's residual has one path, from the splines
    # through the panel quadrature, so the reduction imports no grid
    # sampler or bubble projection, and no bn6 module defines the sampled
    # ansatz again
    trees = {path.stem: ast.parse(path.read_text())
             for path in pathlib.Path(bn6.__file__).parent.glob("*.py")}
    imported = {alias.name for node in ast.walk(trees["reduction"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"make_core_grid", "project_bubble"}
    defined = set()
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined.update((stem, t.id) for t in targets
                               if isinstance(t, ast.Name))
    assert {(stem, name) for stem, name in defined
            if name in SAMPLED_ANSATZ} == set()
    spline_set, = (node for node in trees["reduction"].body
                   if isinstance(node, ast.ClassDef)
                   and node.name == "SplineSet")
    assert "dz" not in {node.name for node in spline_set.body
                        if isinstance(node, ast.FunctionDef)}


# Defaulted parameters that no call in bn6 passes, and why each stays:
# main's argv is how the benchmark's tracer and the tests call it; brentq's
# maxiter is the only way to reach the RuntimeError test_roots compares
# with scipy's; the benchmark's tracer counts _panel_integral's nodes from
# its order.
UNPASSED_OPTIONS = {("cli", "main", "argv"), ("roots", "brentq", "maxiter"),
                    ("reduction", "_panel_integral", "order")}


def _unpassed_options(trees: dict) -> set:
    """(module, function, parameter) of every defaulted parameter of a
    function or method in the syntax trees that no call in them passes:
    by keyword, by position (a method's first parameter is bound), or as
    a key of a ** dict literal.  A call is matched by the called name."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                calls.setdefault(name, []).append(node)

    def passed(call, name, index):
        keys = {kw.arg for kw in call.keywords}
        for kw in call.keywords:
            if kw.arg is None:
                dicts = [n for n in ast.walk(kw.value)
                         if isinstance(n, ast.Dict)]
                keys |= {k.value for d in dicts for k in d.keys
                         if isinstance(k, ast.Constant)}
        return name in keys or len(call.args) > index or any(
            isinstance(arg, ast.Starred) for arg in call.args)

    unpassed = set()
    for stem, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            bound = int(bool(positional)
                        and positional[0].arg in ("self", "cls"))
            defaulted = [(arg.arg, i - bound) for i, arg in
                         enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(arg.arg, math.inf) for arg, default in
                          zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            unpassed |= {(stem, fn.name, name) for name, index in defaulted
                         if not any(passed(call, name, index)
                                    for call in calls.get(fn.name, ()))}
    return unpassed


def test_every_bn6_option_has_a_caller():
    # from the source: an option that no bn6 caller sets is a constant
    # with extra code paths; the three left are listed with their reasons
    trees = {path.stem: ast.parse(path.read_text())
             for path in pathlib.Path(bn6.__file__).parent.glob("*.py")}
    assert _unpassed_options(trees) == UNPASSED_OPTIONS


def test_lapack_failures_exit_2(tmp_path, capsys, monkeypatch):
    # a failed stebz is a solver error with exit code 2
    def stebz(d, e, *args):
        return 0, np.zeros(len(d)), None, None, 1
    monkeypatch.setattr("bn6.operators.dstebz", stebz)
    assert run("nondeg", "--grid-n", "64", "--out", str(tmp_path)) == 2
    assert "stebz" in capsys.readouterr().err


# ------------------------------------------------------------ tracer contract

TRACED_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "perfbench", "traced_cli.py")


def _args_read(info) -> set:
    # the names an info callback reads as args["name"]
    ops = list(dis.get_instructions(info))
    return {b.argval for a, b in zip(ops, ops[1:])
            if a.opname == "LOAD_FAST" and a.argval == "args"
            and b.opname == "LOAD_CONST"}


def test_traced_cli_finds_every_module_it_names_at_import(tmp_path):
    # the tracer wraps only the bn6 modules in sys.modules when
    # `import bn6.cli` returns; a module imported inside a command
    # function would not be there, and its every span would read MISSING
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    named = {mod for mod, *_ in traced.LAYER_FUNCTIONS + traced.KERNELS}
    assert named | {traced.BUBBLES_MODULE} <= set(
        _bn6_modules(str(tmp_path))["present"])


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
