"""Command line interface: parsing, JSON shape, determinism, exit codes."""

import argparse
import json
import math
import os
import random
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import log_uniform_crown_pairs
from crownkit import horo
from crownkit.cli import build_parser, main, parse_complex

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


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, seen", [({}, ["1", "1", "1"]), (
    {"OMP_NUM_THREADS": "2"}, [None, "2", None])], ids=["unset", "set"])
def test_cli_sets_one_blas_thread_before_numpy_loads(preset, seen):
    # the BLAS reads its thread count when numpy loads; importing the CLI
    # does not load it, `kernel` does, and by then the CLI has set one
    # thread unless the user set a count
    code = ("import contextlib, io, os, sys\n"
            "seen = []\n"
            "class Spy:\n"
            "    def find_spec(self, name, *args):\n"
            "        if name == 'numpy':\n"
            "            seen.append([os.environ.get(v)\n"
            f"                         for v in {BLAS_THREADS}])\n"
            "sys.meta_path.insert(0, Spy())\n"
            "from crownkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['kernel'])\n"
            "print(code, seen)\n")
    env = {k: v for k, v in CHILD_ENV.items() if k not in BLAS_THREADS}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, env={**env, **preset})
    assert proc.returncode == 0 and proc.stdout == f"0 {[seen]!r}\n"


def test_cli_import_leaves_scipy_out():
    # importing scipy.special costs about 0.3 s and 22 MB of peak RSS on a
    # 2-core box (import crownkit.cli: 31 MB without it, 53 MB with it),
    # which every cold CLI process would pay
    code = ("import sys, crownkit.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, env=CHILD_ENV)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


#: modules that no geometry command (`crown-check`, `param`, `match`,
#: `boundary`, `quadric`, `aproj`, `convexity`, `trace-domain`, `escape`)
#: needs
NOT_GEOMETRY = {"spectral", "repn", "sobolev", "vectors", "numerics",
                "maass", "acceptance"}

#: the geometry forms of the benchmark's fresh-process workload that run
#: without numpy; `convexity` scans its orbit on numpy arrays and is the
#: one geometry form that loads it
NUMPY_FREE = {
    "crown-check": ["crown-check", "--z1=0+1i", "--z2=0-1i"],
    "param-elliptic": ["param", "--kind", "elliptic", "--phi", "-0.3",
                       "--t", "1.7", "--x-shift", "0.4"],
    "param-unipotent": ["param", "--kind", "unipotent", "--x", "-0.6",
                        "--t", "0.8", "--x-shift", "-1.2"],
    "match": ["match", "--phi", "0.6"],
    "boundary": ["boundary", "--z1=2.5", "--z2=-0.5"],
    "quadric": ["quadric", "--z1=0.3+1.2i", "--z2=-0.4-0.8i"],
    "aproj": ["aproj", "--z1=0.3+1.2i", "--z2=-0.4-0.8i"],
    "trace-domain": ["trace-domain", "--value=1.5-0.7i", "--doubled"],
    "escape": ["escape", "--phi", "1.1", "--grid", "9", "--values"],
}


@pytest.mark.parametrize("argv, absent, present", [
    (NUMPY_FREE["crown-check"], NOT_GEOMETRY | {"numpy"}, set()),
    (["sobolev", "--k", "1"], {"acceptance"}, {"numpy"}),
    (["kernel"], {"acceptance"}, {"numpy"}),
    (["maass"], {"acceptance"}, {"numpy"}),
    *[(argv, NOT_GEOMETRY | {"numpy"}, set())
      for form, argv in NUMPY_FREE.items() if form != "crown-check"],
    (["convexity", "--phi", "0.3", "--samples", "100"], NOT_GEOMETRY,
     {"numpy"})],
    ids=["crown-check", "sobolev", "kernel", "maass",
         *[form for form in NUMPY_FREE if form != "crown-check"],
         "convexity"])
def test_a_command_loads_only_the_modules_it_runs(argv, absent, present):
    # each cmd_* imports what it runs, so a fresh process pays only for
    # its own command; only `suite` loads the acceptance suite, and of the
    # geometry commands only `convexity` loads numpy
    code = ("import contextlib, io, json, sys\n"
            "from crownkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(json.dumps([code, [m.split('.')[1] for m in sys.modules\n"
            "                         if m.startswith('crownkit.')]\n"
            "                  + ['numpy'] * ('numpy' in sys.modules)]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, env=CHILD_ENV)
    exit_code, loaded = json.loads(proc.stdout)
    assert exit_code == 0 and proc.stderr == ""
    assert {"cli", "liecore", "pairmodel"} | present <= set(loaded)
    assert not set(loaded) & absent


#: runs the CLI in a fresh interpreter that refuses to import numpy
NO_NUMPY = ("import sys\n"
            "class NoNumpy:\n"
            "    def find_spec(self, name, *args):\n"
            "        if name.partition('.')[0] == 'numpy':\n"
            "            raise ImportError('numpy is refused')\n"
            "sys.meta_path.insert(0, NoNumpy())\n"
            "from crownkit.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")


@pytest.mark.parametrize("form", list(NUMPY_FREE))
def test_geometry_form_runs_without_numpy(form, capsys):
    # this process has numpy loaded, so the document printed here also
    # goes through emit's numpy branches; the bytes must not change
    argv = NUMPY_FREE[form]
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY, *argv],
                          capture_output=True, text=True, timeout=300,
                          env=CHILD_ENV)
    assert proc.returncode == 0 and proc.stderr == ""
    assert main(list(argv)) == 0
    assert proc.stdout == capsys.readouterr().out


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


@pytest.mark.parametrize("argv", [
    ["trace-domain", "--value=2", "--doubled", "-1e-12"],
    ["escape", "--phi", "1.1", "--values", "-1"],
    ["param", "--phi", "-1e-12", "-2"]], ids=" ".join)
def test_a_value_with_no_option_to_take_it_is_a_usage_error(argv, capsys):
    # a token led by '-' and a digit is the value of the option before
    # it; after a flag, or a second one, it is a usage error as before
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and "usage:" in err


def test_numerical_failure_exit_code(capsys):
    # a point on the diagonal is a numerical/domain failure, not a crash
    code = main(["phi", "--lam", "1.0", "--z1", "0+2i", "--z2", "0+3i"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "fail"


def test_a_grid_too_large_to_hold_fails_at_once(capsys):
    # 2**62 sigmas take 2**65 bytes, more than an address space holds: the
    # list is refused before anything is allocated or evaluated
    code = main(["escape", "--phi", "1.1", "--grid", str(2 ** 62)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["status"] == "fail"
    assert doc["error"] == "MemoryError" and doc["command"] == "escape"


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


@pytest.mark.parametrize("value", ["0-1i", "1e200i", "-1+1e-12i",
                                   "-1-1e-12i"])
def test_trace_domain_has_no_angle_where_no_tube_holds_the_value(value,
                                                                 capsys):
    assert main(["trace-domain", f"--value={value}"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"] == {"contains": False, "minimal_angle": None}


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
# phi-matrix work but two gutzmer cases: the density past the lam rule or
# with no mass on it, rejected once its weighted density is read on the
# lam nodes, and r = 0.785,
# whose theta rule is still moving at its cap; the value is the exit code
# when the case pins one (bad argument values exit 1, domain failures 2)
FUZZ = {
    ("crown-check", "--z1=nan", "--z2=0-1i"): 1,
    ("crown-check", "--z1=inf", "--z2=0-1i"): 1,
    ("crown-check", "--z1=0", "--z2=1e300"): None,
    ("param", "--t", "0"): 1,
    # an option's value in exponent form, led by '-'
    ("param", "--t", "2", "--phi", "-1e-12"): 0,
    ("param", "--t", "-1"): 1,
    ("param", "--phi", "nan"): 1,
    ("param", "--phi", "1e300"): None,
    ("param", "--kind", "unipotent", "--x", "-1"): None,
    # rounding in n_x loses the angle far out: residual 0.3 at 1e16,
    # 2.3e-5 at 1e12, 2.7e-10 at 1e8; the unipotent point keeps it
    ("param", "--x-shift", "1e16", "--phi", "0.3"): 2,
    ("param", "--x-shift", "1e12", "--phi", "0.3"): 2,
    ("param", "--x-shift", "1e8", "--phi", "0.3"): 0,
    ("param", "--kind", "unipotent", "--x", "0.7", "--x-shift", "1e16"): 0,
    ("param", "--t", "1e200", "--phi", "0.3"): 2,
    ("match", "--phi", "nan"): 1,
    ("match", "--phi", "-1"): None,
    ("match", "--phi", "1e300"): None,
    ("boundary", "--z1=nan", "--z2=-1"): 1,
    ("boundary", "--z1=1", "--z2=-1", "--tol", "-1"): None,
    ("boundary", "--z1=1e300", "--z2=-1"): 0,
    ("boundary", "--z1=1", "--z2=-1", "--tol", "nan"): 1,
    ("quadric", "--z1=0", "--z2=0-1i"): None,
    ("quadric", "--z1=nan", "--z2=0-1i"): 1,
    ("quadric", "--z1=1e300", "--z2=0-1i"): 0,
    ("quadric", "--z1=1e20", "--z2=0-1i"): 0,
    ("quadric", "--z1=1e120", "--z2=0-1i"): 0,
    ("quadric", "--z1=1e300+1i", "--z2=1e300-1i"): 2,
    ("quadric", "--z1=2e-20+1e-20i", "--z2=5e50-1e50i"): 2,
    ("aproj", "--z1=1e300", "--z2=0-1i"): 0,
    ("aproj", "--z1=-1", "--z2=0-1i"): None,
    ("aproj", "--z1=nan", "--z2=0-1i"): 1,
    ("convexity", "--phi", "0.3", "--samples", "1"): 1,
    ("convexity", "--phi", "0.3", "--samples", "0"): 1,
    ("convexity", "--phi", "nan"): 1,
    ("convexity", "--phi", "1e300"): None,
    ("trace-domain", "--value=2", "--bound", "0"): None,
    ("trace-domain", "--value=nan", "--bound", "-1"): 1,
    ("trace-domain", "--value=1e300", "--bound", "1e300"): None,
    # no torus tube holds a value with Re <= 0: minimal_angle is null
    ("trace-domain", "--value=0-1i"): 0,
    ("trace-domain", "--value=1e200i"): 0,
    ("trace-domain", "--value=-1+1e-12i"): 0,
    ("trace-domain", "--value=-1-1e-12i"): 0,
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
    # the order is checked before the C(k+3, 3) words are integrated
    ("invariant-bound", "--k", "24", "--m", "2"): 1,
    ("invariant-bound", "--k", "64", "--m", "1"): 1,
    ("transform", "--width", "0"): 1,
    ("transform", "--width", "-1"): 1,
    ("transform", "--width", "nan"): 1,
    ("transform", "--csv", "/dev/null/density.csv"): 1,
    # the profile underflows to 0 at every radius: a correctly rounded 0
    ("transform", "--width=1e-300"): 0,
    ("parseval", "--width=1e-300"): 0,
    ("parseval", "--width", "0"): 1,
    ("parseval", "--width", "nan"): 1,
    ("gutzmer", "--width", "0"): 1,
    ("gutzmer", "--width", "-1"): 1,
    ("gutzmer", "--width", "nan"): 1,
    ("gutzmer", "--r", "-1"): 2,
    ("gutzmer", "--r", "0.7854"): 2,
    ("gutzmer", "--r", "0.3", "--center", "40", "--width", "1"): 1,
    ("gutzmer", "--r", "0.785", "--center", "2.0", "--width", "0.7"): 2,
    # the density underflows on every lam node: no mass to integrate
    ("gutzmer", "--r", "0.3", "--center=1e200", "--width", "1.0"): 1,
    ("gutzmer", "--r", "0.3", "--center", "3.0", "--width=1e-300"): 1,
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
    ("kernel", "--center=1e200"): 1,
    ("kernel", "--width=1e-300"): 1,
    ("maass", "--y", "0"): None,
    ("maass", "--y", "-1"): None,
    ("maass", "--y", "nan"): 1,
    ("maass", "--y", "1e300"): None,
    ("maass", "--nmax", "99"): 1,
    ("maass", "--nmax", "0"): 1,
    ("maass", "--nmax", "-1"): 1,
    ("suite", "--seed", "-1"): None,
}


def test_quadric_passes_only_a_roundtrip_within_1e_9(capsys):
    # over 600 decades the chart loses a coordinate near 0 opposite one
    # near infinity; such a pair must fail, never pass
    rng = np.random.default_rng(5)
    passed = 0
    for z in log_uniform_crown_pairs(rng, 500, 1e-300, 1e300):
        code = main(["quadric", f"--z1={z.first.real}{z.first.imag:+}i",
                     f"--z2={z.second.real}{z.second.imag:+}i"])
        doc = json.loads(capsys.readouterr().out)
        assert code in (0, 2) and (doc["status"] == "fail") == (code == 2)
        if code == 0:
            passed += 1
            assert doc["outputs"]["roundtrip_residual"] <= 1e-9
    assert passed > 0


@pytest.mark.parametrize("z1", ["1e300", "1e20", "1e8+1i"])
def test_aproj_reassembles_far_out(z1, capsys):
    # the principal root of zeta^2 = 0.5 - 5e299i drops the real part
    # 0.5 when squared, which would put the second coordinate at -0.5i
    code = main(["aproj", f"--z1={z1}", "--z2=0-1i"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["status"] == "pass"
    assert doc["outputs"]["reassembly_residual"] <= 1e-15


def test_suite_quick_passes(capsys):
    code = main(["suite", "--level", "quick"])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert summary["passed"] == summary["total"] == 13
    assert summary["all_passed"] is True


def test_param_overflow_writes_nothing_to_stderr():
    proc = run_cli(["param", "--t", "1e200", "--phi", "0.3"])
    assert proc.returncode == 2 and proc.stderr == ""
    assert json.loads(proc.stdout)["error"] == "NumericalDrift"


#: the cheapest valid invocation of each subcommand but `suite`
MINIMAL = {
    "crown-check": ["--z1=0+1i", "--z2=0-1i"],
    "param": [],
    "match": ["--phi", "0.3"],
    "boundary": ["--z1=1", "--z2=-1"],
    "quadric": ["--z1=0+1i", "--z2=0-1i"],
    "aproj": ["--z1=0+1i", "--z2=0-1i"],
    "convexity": ["--phi", "0.3", "--samples", "100"],
    "trace-domain": ["--value=2"],
    "escape": ["--phi", "1.1", "--grid", "5"],
    "phi": ["--lam", "1.0", "--z1=0+1i", "--z2=0-1i"],
    "doubling": [],
    "norm-growth": ["--eps", "1e-2"],
    "dpi-check": [],
    "sobolev": ["--k", "1"],
    "invariant-bound": ["--k", "1", "--m", "1"],
    "transform": [],
    "parseval": [],
    "gutzmer": ["--r", "0.3", "--center", "3.0", "--width", "1.0"],
    "hardy-kernel": [],
    "kernel": [],
    "maass": [],
}


def _subparsers():
    [action] = [a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_minimal_invocations_cover_every_subcommand():
    assert set(MINIMAL) == set(_subparsers()) - {"suite"}


@pytest.mark.parametrize("command", list(MINIMAL))
def test_inputs_echo_every_parsed_argument(command, capsys):
    main([command, *MINIMAL[command]])
    doc = json.loads(capsys.readouterr().out)
    dests = {a.dest for a in _subparsers()[command]._actions
             if a.dest != "help"}
    assert doc["command"] == command
    assert set(doc["inputs"]) == dests


def _readme_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI examples", 1)[1].split("```")[1]
    lines = [shlex.split(line) for line in block.splitlines()]
    return [argv[1:] for argv in lines if argv and argv[1] != "suite"]


@pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
def test_readme_cli_examples_pass(argv, capsys):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)  # raises unless one document
    assert code == 0 and doc["status"] == "pass"


@pytest.mark.parametrize("argv", list(FUZZ), ids=" ".join)
def test_out_of_range_arguments_give_one_json_document(argv, capsys):
    code = main(list(argv))
    doc = json.loads(capsys.readouterr().out)  # raises unless one document
    assert isinstance(doc, dict) and doc["command"] == argv[0]
    assert code in (0, 1, 2)
    if FUZZ[argv] is not None:
        assert code == FUZZ[argv]
        assert (doc["status"] == "fail") == (code != 0)


#: the values the generated sweep draws from, by option type: each type's
#: domain and its edges, and for complex values points near the real axis,
#: far out and near the slit (-inf, 0]; counts stay small, since a large
#: count runs for as long as it asks rather than failing
SWEEP_VALUES = {
    float: ["0", "1e-12", "-1e-12", "1e-300", repr(math.pi / 4),
            repr(math.nextafter(math.pi / 4, 0.0)), "1", "-1", "1e8", "1e16",
            "1e200", "-1e200"],
    int: ["0", "1", "-1", "2"],
    parse_complex: ["0+1i", "0-1i", "1+1e-12i", "1-1e-12i", "-1+1e-12i",
                    "-1-1e-12i", "1e8+1e8i", "1e200i", "-1e16+1i",
                    "1e-300+1i"],
}
SWEEP_VALUES[str] = SWEEP_VALUES[float]     # the --eps list of norm-growth


def _sweep_cases(command):
    """MINIMAL[command] with one option at a time set to each of four
    seeded draws from its type's values (every choice; a flag alone),
    written `--opt=value`.  `--csv`, a path, keeps its default."""
    rng = random.Random(f"sweep {command}")
    base = MINIMAL[command]
    for action in _subparsers()[command]._actions:
        opt = action.option_strings[-1]
        if action.dest == "help" or opt == "--csv":
            continue
        kept = [a for prev, a in zip([None, *base], base)
                if opt not in (prev, a) and not a.startswith(opt + "=")]
        if action.nargs == 0:
            yield [command, *kept, opt]
            continue
        pool = action.choices or SWEEP_VALUES[action.type]
        for value in (pool if action.choices
                      else rng.sample(pool, min(4, len(pool)))):
            yield [command, *kept, f"{opt}={value}"]


def _finite(value):
    """No nan or inf in a JSON value, where `emit` writes them as strings."""
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return value not in ("nan", "inf", "-inf")


@pytest.mark.parametrize("command", list(MINIMAL))
def test_generated_sweep_gives_one_json_document(command, capsys):
    # every input ends in one JSON document with exit code 0, 1 or 2 and
    # an empty stderr, and status pass only with finite outputs, equal to
    # the closed form where one is known; FUZZ pins the known defects
    for argv in _sweep_cases(command):
        if tuple(argv) in FUZZ:
            continue
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        out, err = capsys.readouterr()
        doc = json.loads(out)                   # raises unless one document
        assert code in (0, 1, 2) and err == "" and not caught, argv
        if doc["status"] != "pass":
            continue
        assert _finite(doc["outputs"]), argv
        inputs, outputs = doc["inputs"], doc["outputs"]
        if (command == "hardy-kernel" and inputs["gram"] == 0
                and inputs["z1"] == {"re": 0.0, "im": 1.0}
                and inputs["z2"] == {"re": 0.0, "im": -1.0}):
            value = complex(outputs["value"]["re"], outputs["value"]["im"])
            assert abs(value - 0.125) <= 1e-15, argv    # K(x0, x0) = 1/8
        if command == "kernel":         # the density's mass on lam >= 0
            c, w = inputs["center"], inputs["width"]
            mass = w * math.sqrt(math.pi / 2) * (1 + math.erf(
                c / (w * math.sqrt(2))))
            value = outputs["value_at_base"]
            assert abs(complex(value["re"], value["im"]) - mass) <= (
                1e-12 * mass), argv
