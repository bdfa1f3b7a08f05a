"""Command line interface: parsing, JSON shape, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crownkit import horo
from crownkit.cli import main, parse_complex

# child processes import crownkit from this checkout's src, which they
# would not find without an installed package or PYTHONPATH
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
             else []))}


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "crownkit.cli", *args],
                          capture_output=True, text=True, timeout=300,
                          env=CHILD_ENV)
    return proc


def test_cli_import_leaves_scipy_out():
    # importing scipy.special costs about 0.3 s and 22 MB of peak RSS on a
    # 2-core box (import crownkit.cli: 31 MB without it, 53 MB with it),
    # which every cold CLI process would pay
    code = ("import sys, crownkit.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, env=CHILD_ENV)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


def test_parse_complex_forms():
    assert parse_complex("0+1i") == 1j
    assert parse_complex("2-3i") == 2 - 3j
    assert parse_complex("1.5") == 1.5
    assert parse_complex("-2i") == -2j
    with pytest.raises(Exception):
        parse_complex("foo")


def test_crown_check_json(capsys):
    code = main(["crown-check", "--z1", "0+1i", "--z2", "0-1i"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["outputs"]["inside"] is True
    assert doc["status"] == "pass"


def test_outside_point(capsys):
    main(["crown-check", "--z1", "0+2i", "--z2", "0+3i"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["inside"] is False


def test_convexity_command(capsys):
    code = main(["convexity", "--phi", "0.3926", "--samples", "10000"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["outputs"]["violation"] < 1e-9


def test_deterministic_output():
    a = run_cli(["dpi-check", "--lam", "1.0"])
    b = run_cli(["dpi-check", "--lam", "1.0"])
    assert a.stdout == b.stdout
    assert a.returncode == 0


def test_usage_error_exit_code():
    proc = run_cli(["no-such-command"])
    assert proc.returncode == 1


def test_numerical_failure_exit_code(capsys):
    # a point on the diagonal is a numerical/domain failure, not a crash
    code = main(["phi", "--lam", "1.0", "--z1", "0+2i", "--z2", "0+3i"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "fail"


@pytest.mark.parametrize("argv, callee", [
    (["convexity", "--phi", "0.3", "--samples", "1000000000000"],
     "convexity_scan"),
    (["escape", "--phi", "1.1", "--grid", "5"], "escape_curve")])
def test_memory_error_gives_one_json_document(argv, callee, monkeypatch,
                                              capsys):
    # a count too large to allocate is a bad argument value; the callee
    # raises instead of allocating, so nothing large is ever requested
    def no_memory(*args):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(horo, callee, no_memory)
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["status"] == "fail"
    assert doc["error"] == "MemoryError" and doc["command"] == argv[0]


def test_escape_command(capsys):
    main(["escape", "--phi", "1.0", "--grid", "50"])
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["outputs"]["sigma_start"] - 2.0) < 1e-12
    assert abs(doc["outputs"]["sigma_end"] + 2.0) < 1e-12
    assert doc["outputs"]["strictly_decreasing"] is True


def test_maass_command(capsys):
    code = main(["maass", "--y", "3.0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["outputs"]["passes"] is True
    assert all(row["pass"] for row in doc["outputs"]["rows"])


def test_maass_violator(capsys):
    code = main(["maass", "--y", "3.0", "--violator"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0  # the demo is expected to report the violation
    assert doc["outputs"]["passes"] is False


def test_trace_domain_command(capsys):
    main(["trace-domain", "--value", "2", "--doubled"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["contains"] is True


def test_doubling_command(capsys):
    code = main(["doubling", "--lam", "1.0", "--t", "2.0",
                 "--phi", "0.19634954084936207"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["outputs"]["gap"] < 1e-5


def test_gutzmer_reports_its_orbit_grid(capsys):
    code = main(["gutzmer", "--r", "0.3", "--center", "3.0",
                 "--width", "1.0"])
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert code == 0 and out["gap"] < 1e-5
    grid = out["orbit_grid"]
    assert 0.0 <= grid["tail_fraction"] <= 1e-7
    assert 0.0 < grid["rho_max"] < 36.0
    assert grid["n_rho"] > 0 and grid["n_theta"] > 0 and grid["n_lambda"] > 0


def test_kernel_command_on_a_resolved_gaussian(capsys):
    code = main(["kernel", "--center", "2", "--width", "0.7"])
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert code == 0 and out["admissible"] is True
    assert out["value_at_base"] == {"re": 1.7508894830878177, "im": 0.0}


def test_hardy_kernel_point_form(capsys):
    code = main(["hardy-kernel", "--z1=0.3+1.2i", "--z2=-0.4-0.8i"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["status"] == "pass"
    value = doc["outputs"]["value"]
    assert value["re"] > 0
    assert abs(value["im"]) < 1e-10 * value["re"]


# well-typed but out-of-range arguments, each rejected before any
# phi-matrix work but the gutzmer density past the lam rule, rejected once
# its weighted density is read on the lam nodes; the value is the exit code
# when the case pins one (bad argument values exit 1, domain failures 2)
FUZZ = {
    ("crown-check", "--z1=nan", "--z2=0-1i"): 1,
    ("crown-check", "--z1=inf", "--z2=0-1i"): 1,
    ("crown-check", "--z1=0", "--z2=1e300"): None,
    ("param", "--t", "0"): 1,
    ("param", "--t", "-1"): 1,
    ("param", "--phi", "nan"): 1,
    ("param", "--phi", "1e300"): None,
    ("param", "--kind", "unipotent", "--x", "-1"): None,
    ("match", "--phi", "nan"): 1,
    ("match", "--phi", "-1"): None,
    ("match", "--phi", "1e300"): None,
    ("boundary", "--z1=nan", "--z2=-1"): 1,
    ("boundary", "--z1=1", "--z2=-1", "--tol", "-1"): None,
    ("boundary", "--z1=1e300", "--z2=-1"): 2,
    ("boundary", "--z1=1", "--z2=-1", "--tol", "nan"): 1,
    ("quadric", "--z1=0", "--z2=0-1i"): None,
    ("quadric", "--z1=nan", "--z2=0-1i"): 1,
    ("quadric", "--z1=1e300", "--z2=0-1i"): 2,
    ("aproj", "--z1=1e300", "--z2=0-1i"): None,
    ("aproj", "--z1=-1", "--z2=0-1i"): None,
    ("aproj", "--z1=nan", "--z2=0-1i"): 1,
    ("convexity", "--phi", "0.3", "--samples", "1"): 1,
    ("convexity", "--phi", "0.3", "--samples", "0"): 1,
    ("convexity", "--phi", "nan"): 1,
    ("convexity", "--phi", "1e300"): None,
    ("trace-domain", "--value=2", "--bound", "0"): None,
    ("trace-domain", "--value=nan", "--bound", "-1"): 1,
    ("trace-domain", "--value=1e300", "--bound", "1e300"): None,
    ("escape", "--phi", "1.1", "--grid", "0"): 1,
    ("escape", "--phi", "1.1", "--grid", "-1"): 1,
    ("escape", "--phi", "1.1", "--grid", "1"): 1,
    ("escape", "--phi", "nan"): 1,
    ("escape", "--phi", "1e300"): None,
    ("phi", "--lam", "nan", "--z1=0+1i", "--z2=0-1i"): 1,
    ("phi", "--lam", "1.0", "--z1=0", "--z2=0-1i"): None,
    ("phi", "--lam", "1e300", "--z1=1e300", "--z2=0-1i"): None,
    ("doubling", "--t", "-1"): 1,
    ("doubling", "--t", "0"): 1,
    ("doubling", "--t", "nan"): 1,
    ("doubling", "--phi", "1e300"): None,
    ("norm-growth", "--eps", "0"): None,
    ("norm-growth", "--eps", "-1"): None,
    ("norm-growth", "--eps", "nan"): 1,
    ("norm-growth", "--eps", "1e-2,inf"): 1,
    ("norm-growth", "--eps", "1e300"): None,
    ("dpi-check", "--seed", "-1"): None,
    ("dpi-check", "--lam", "nan"): 1,
    ("sobolev", "--k", "9"): 1,
    ("sobolev", "--k", "-1"): None,
    ("sobolev", "--eps", "0"): None,
    ("sobolev", "--eps", "nan"): 1,
    ("invariant-bound", "--k", "5"): 1,
    ("invariant-bound", "--eps", "-1"): None,
    ("invariant-bound", "--eps", "1e300"): None,
    ("invariant-bound", "--m", "65"): 1,
    ("invariant-bound", "--m", "1100"): 1,
    ("transform", "--width", "0"): 1,
    ("transform", "--width", "-1"): 1,
    ("transform", "--width", "nan"): 1,
    ("transform", "--csv", "/dev/null/density.csv"): 1,
    ("parseval", "--width", "0"): 1,
    ("parseval", "--width", "nan"): 1,
    ("gutzmer", "--width", "0"): 1,
    ("gutzmer", "--width", "-1"): 1,
    ("gutzmer", "--width", "nan"): 1,
    ("gutzmer", "--r", "-1"): 2,
    ("gutzmer", "--r", "0.7854"): 2,
    ("gutzmer", "--r", "0.3", "--center", "40", "--width", "1"): 1,
    ("hardy-kernel", "--z1=0", "--z2=0-1i"): None,
    ("hardy-kernel", "--z1=nan", "--z2=0-1i"): 1,
    ("hardy-kernel", "--z1=1e300", "--z2=0-1i"): None,
    ("hardy-kernel", "--z1=0+1e-30i", "--z2=0-1i"): 0,
    ("hardy-kernel", "--z1=0+1e300i", "--z2=0-1i"): 2,
    ("hardy-kernel", "--gram", "-1"): None,
    ("kernel", "--width", "0"): 1,
    ("kernel", "--width", "-1"): 1,
    ("kernel", "--width", "nan"): 1,
    ("kernel", "--center", "2", "--width", "10"): 1,
    ("maass", "--y", "0"): None,
    ("maass", "--y", "-1"): None,
    ("maass", "--y", "nan"): 1,
    ("maass", "--y", "1e300"): None,
    ("maass", "--nmax", "99"): 1,
    ("maass", "--nmax", "0"): 1,
    ("maass", "--nmax", "-1"): 1,
    ("suite", "--seed", "-1"): None,
}


@pytest.mark.parametrize("argv", list(FUZZ), ids=" ".join)
def test_out_of_range_arguments_give_one_json_document(argv, capsys):
    code = main(list(argv))
    doc = json.loads(capsys.readouterr().out)  # raises unless one document
    assert isinstance(doc, dict) and doc["command"] == argv[0]
    assert code in (0, 1, 2)
    if FUZZ[argv] is not None:
        assert code == FUZZ[argv]
        assert (doc["status"] == "fail") == (code != 0)
