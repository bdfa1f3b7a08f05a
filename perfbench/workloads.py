"""Running and checking benchmark cases, and the per-layer probes.

`run_case` executes one case from `cases.round_cases` and returns its
outcome.  Each check compares a gap with the tolerance the package states
for it (acceptance suite, CLI status rules).  A case *fails* when it
raises, a CLI process exits non-zero or reports a status other than
`pass`, or a check misses its tolerance.  An output is *malformed* when it
is not finite, not one JSON document, or a CLI document claims `pass`
while its own gap misses the tolerance; malformed output makes the run
incorrect.

Spans are named after the crownkit function the benchmark calls, as
`module.function`; nothing inside crownkit is instrumented.
"""

from __future__ import annotations

import cmath
import json
import math
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from crownkit import crown, horo, liecore, maass, numerics, repn, sobolev
from crownkit import spectral
from crownkit.errors import CrownkitError
from crownkit.liecore import a_t, k_theta, n_x
from crownkit.pairmodel import PairPoint
from crownkit.vectors import ExpPoly

from .cases import CLI_FAMILY, round_cases

#: what a fresh process runs before the first case of each workload
SETUP_CODE = {
    "repn_sobolev": "import crownkit.repn, crownkit.sobolev",
    "spectral_orbital": ("from crownkit import spectral; "
                         "spectral.calibrate_parseval()"),
    "cli_cold": "import crownkit.cli",
}

#: workloads whose cases run in the benchmark's own process; cli_cold's
#: run in child processes
IN_PROCESS = ("repn_sobolev", "spectral_orbital")

#: AC12's two test vectors for the hyperbolic-functional limit
H_LIMIT_PSIS = (ExpPoly(1.0, [1.0], (0.0, 0.0, 1.0)),
                ExpPoly(1.0, [0.3, 0.0, 1.0], (0.0, 0.2, 0.8)))

#: a child process still running after this long is killed
CHILD_TIMEOUT_S = 150.0


class Malformed(Exception):
    """An output the benchmark cannot accept as a number or document."""


@dataclass
class Check:
    name: str
    gap: float
    tol: float
    digits: bool = True   # an error gap: counts towards tol_headroom_digits

    @property
    def passed(self) -> bool:
        return self.gap < self.tol


@dataclass
class Outcome:
    checks: list[Check] = field(default_factory=list)
    error: str = ""
    malformed: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.error) or self.malformed or not all(
            c.passed for c in self.checks)


def _finite(*values):
    for v in values:
        if not np.all(np.isfinite(v)):
            raise Malformed(f"non-finite output {v!r}")


def _gap_check(name, gap, tol):
    _finite(gap)
    return Check(name, float(gap), tol)


def _shape_check(name, ok):
    return Check(name, 0.0 if ok else 1.0, 0.5, digits=False)


def crown_point(p: dict) -> PairPoint:
    return crown.elliptic_point(real_element(p), p["phi"])


def real_element(p: dict) -> liecore.GroupElement:
    return k_theta(p["theta"]) @ a_t(p["t"]) @ n_x(p["x"])


# -- setup ------------------------------------------------------------------

@dataclass
class Context:
    """What cases share: the checkout, the environment of child processes
    and, once calibrated, the Plancherel weight."""

    root: str
    env: dict
    weight: spectral.PlancherelWeight | None = None


def setup(workload: str, ctx: Context, tr) -> None:
    """Build the warm state the workload's cases need: for
    spectral_orbital the calibrated weight, which builds the default
    lambda/r grids and the phi matrix on the way."""
    if workload == "spectral_orbital":
        with tr.span("spectral.calibrate_parseval"):
            ctx.weight = spectral.calibrate_parseval()


# -- repn_sobolev -------------------------------------------------------------

def _row(a, ctx, tr):
    """AC8-style row at one (lam, eps, k)."""
    param = repn.SpectralParam(a["lam"])
    f = repn.continue_vK(param, a["eps"])
    k = a["k"]
    with tr.span("repn.rep_norm"):
        norm = repn.rep_norm(f)
    with tr.span("sobolev.sobolev_norm"):
        full = sobolev.sobolev_norm(param, f, sobolev.SobolevSpec(k))
    with tr.span("sobolev.sobolev_norm"):
        restricted = sobolev.sobolev_norm(param, f,
                                          sobolev.SobolevSpec(k, "H"))
    with tr.span("sobolev.rotate_A_to_H"):
        rot = sobolev.rotate_A_to_H(param, f, k)
    with tr.span("sobolev.choose_m"):
        m = sobolev.choose_m(param, f, k)
    with tr.span("sobolev.invariant_upper_bound"):
        bound = sobolev.invariant_upper_bound(param, f, k, m)
    _finite(norm, full, restricted, bound.bound)
    return [_gap_check("rotation_gap", rot.gap, 1e-5)]


def _norm_growth(a, ctx, tr):
    """AC6: norms increase as eps falls, ratio band below 1.5."""
    with tr.span("repn.norm_growth"):
        samples = repn.norm_growth(repn.SpectralParam(a["lam"]), a["eps"])
    ratios = [s.log_ratio_sq for s in samples]
    _finite(ratios)
    return [_shape_check("norm_growth_monotone", all(
                b.norm > s.norm for s, b in zip(samples, samples[1:]))),
            _shape_check("norm_growth_band", max(ratios) / min(ratios) < 1.5)]


def _doubling(a, ctx, tr):
    with tr.span("repn.doubling_check"):
        res = repn.doubling_check(repn.SpectralParam(a["lam"]), a_t(a["t"]),
                                  a["phi"])
    return [_gap_check("doubling_gap", res.gap, 1e-5)]


def _h_limit(a, ctx, tr):
    """AC12: gaps to the boundary functional fall with eps, last < 1e-2."""
    param = repn.SpectralParam(a["lam"])
    gaps = []
    for eps in a["eps"]:
        with tr.span("repn.h_limit_gap"):
            gaps.append(repn.h_limit_gap(param, H_LIMIT_PSIS[a["psi"]], eps))
    _finite(gaps)
    return [_shape_check("h_limit_decreasing",
                         all(b < g for g, b in zip(gaps, gaps[1:]))),
            _shape_check("h_limit_last", gaps[-1] < 1e-2)]


# -- spectral_orbital -----------------------------------------------------------

def _gaussian(width):
    return lambda r: np.exp(-0.5 * (r / width) ** 2)


def _gutzmer(a, ctx, tr):
    density = spectral.gaussian_density(a["center"], a["width"])
    with tr.span("spectral.gutzmer_check"):
        chk = spectral.gutzmer_check(density, a["r"], ctx.weight)
    return [_gap_check("gutzmer_gap", chk.gap, 1e-2)]


def _parseval(a, ctx, tr):
    with tr.span("spectral.spherical_transform"):
        dens = spectral.spherical_transform(_gaussian(a["transform_width"]))
    _finite(dens.values)
    with tr.span("spectral.parseval_check"):
        chk = spectral.parseval_check(_gaussian(a["width"]), ctx.weight)
    return [_gap_check("parseval_gap", chk.gap, 1e-3)]


def _kernel(z, w, tr):
    with tr.span("spectral.hardy_kernel"):
        return spectral.hardy_kernel(z, w)


def _gram(a, ctx, tr):
    """Gram matrix of the Hardy kernel: PSD, and K(w, z) = conj K(z, w)."""
    pts = [crown_point(p) for p in a["points"]]
    n = len(pts)
    gram = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = _kernel(pts[i], pts[j], tr)
            gram[j, i] = np.conj(gram[i, j])
    swapped = _kernel(pts[1], pts[0], tr)
    _finite(gram, swapped)
    eigs = np.linalg.eigvalsh(gram)
    trace = float(np.trace(gram).real)
    return [_gap_check("hermitian_gap", abs(swapped - np.conj(gram[0, 1])),
                       1e-10),
            _shape_check("gram_psd", eigs.min() >= -1e-7 * trace)]


def _invariance(a, ctx, tr):
    z, w = crown_point(a["z"]), crown_point(a["w"])
    g = real_element(a["g"]).m
    with tr.span("pairmodel.apply"):
        gz = z.apply(g)
    with tr.span("pairmodel.apply"):
        gw = w.apply(g)
    k1 = _kernel(z, w, tr)
    k2 = _kernel(gz, gw, tr)
    _finite(k1, k2)
    return [_gap_check("invariance_gap", abs(k1 - k2) / max(abs(k1), 1e-300),
                       1e-6)]


# -- cli_cold -----------------------------------------------------------------

def _num(x: float) -> str:
    return repr(float(x))


def _cplx(z: complex) -> str:
    sign = "-" if z.imag < 0 else "+"
    return f"{_num(z.real)}{sign}{_num(abs(z.imag))}i"


def _pair_args(z: PairPoint) -> list[str]:
    # "--z1=-0.3+1.2i": argparse reads a separate "-0.3+1.2i" as an option
    z1, z2 = z.finite()
    return [f"--z1={_cplx(z1)}", f"--z2={_cplx(z2)}"]


def cli_argv(kind: str, a: dict) -> list[str]:
    """The subcommand and arguments of one cli_cold case, in the README's
    invocation forms."""
    if kind in ("crown-check", "quadric", "aproj"):
        return [kind] + _pair_args(crown_point(a["point"]))
    if kind == "hardy-point":
        return ["hardy-kernel"] + _pair_args(crown_point(a["point"]))
    if kind == "phi":
        return ["phi", "--lam", _num(a["lam"])] + _pair_args(
            crown_point(a["point"]))
    if kind == "trace-domain":
        value = liecore.p_of_pair(crown_point(a["point"]))
        return ["trace-domain", f"--value={_cplx(value)}", "--doubled"]
    if kind == "boundary":
        z = PairPoint(1.0, -1.0).apply(real_element(a["g"]).m)
        return ["boundary"] + _pair_args(z)
    if kind == "param-elliptic":
        return ["param", "--kind", "elliptic", "--phi", _num(a["phi"]),
                "--t", _num(a["t"]), "--x-shift", _num(a["x_shift"])]
    if kind == "param-unipotent":
        return ["param", "--kind", "unipotent", "--x", _num(a["x"]),
                "--t", _num(a["t"]), "--x-shift", _num(a["x_shift"])]
    if kind == "match":
        return ["match", "--phi", _num(a["phi"])]
    if kind == "convexity":
        return ["convexity", "--phi", _num(a["phi"]),
                "--samples", str(a["samples"])]
    if kind == "escape":
        return ["escape", "--phi", _num(a["phi"]), "--grid", str(a["grid"])]
    if kind == "doubling":
        return ["doubling", "--lam", _num(a["lam"]), "--t", _num(a["t"]),
                "--phi", _num(a["phi"])]
    if kind == "norm-growth":
        return ["norm-growth", "--lam", _num(a["lam"]),
                "--eps", ",".join(_num(e) for e in a["eps"])]
    if kind == "dpi-check":
        return ["dpi-check", "--lam", _num(a["lam"]), "--seed",
                str(a["seed"])]
    if kind in ("sobolev", "invariant-bound"):
        return [kind, "--lam", _num(a["lam"]), "--eps", _num(a["eps"]),
                "--k", str(a["k"])]
    if kind == "transform":
        return ["transform", "--width", _num(a["width"])]
    if kind == "parseval":
        return ["parseval", "--width", _num(a["width"]), "--verdict"]
    if kind == "gutzmer":
        return ["gutzmer", "--r", _num(a["r"]), "--center",
                _num(a["center"]), "--width", _num(a["width"])]
    if kind == "hardy-gram":
        return ["hardy-kernel", "--gram", str(a["gram"]), "--seed",
                str(a["seed"])]
    if kind == "kernel":
        return ["kernel", "--center", _num(a["center"]), "--width",
                _num(a["width"])]
    if kind in ("maass", "maass-violator"):
        extra = ["--violator"] if kind == "maass-violator" else []
        return ["maass", "--y", _num(a["y"])] + extra
    raise ValueError(f"unknown cli case kind {kind!r}")


#: CLI outputs that carry one of the stated identity gaps
CLI_GAPS = {"doubling": ("doubling_gap", 1e-5),
            "parseval": ("parseval_gap", 1e-3),
            "gutzmer": ("gutzmer_gap", 1e-2)}


def run_child(argv, ctx: Context,
              capture: bool = False) -> subprocess.CompletedProcess:
    """subprocess.run with CHILD_TIMEOUT_S enforced by a watchdog thread.

    Given a timeout, subprocess waits for the exit by polling with sleeps
    of up to 50 ms, which rounds every measured process time up to that
    step; a blocking wait does not.
    """
    pipe = subprocess.PIPE if capture else None
    with subprocess.Popen(argv, env=ctx.env, cwd=ctx.root, stdout=pipe,
                          stderr=pipe, text=True) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out, err = proc.communicate()
        finally:
            watchdog.cancel()
    if proc.returncode == -signal.SIGKILL:
        raise subprocess.TimeoutExpired(argv, CHILD_TIMEOUT_S)
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def _cli(kind, a, ctx, tr):
    """One CLI process.  Its JSON document is read before its exit code,
    so a run that exits 2 with status `fail` still reports its gap."""
    argv = cli_argv(kind, a)
    with tr.span(f"cli.{CLI_FAMILY[kind]}_cmd"):
        proc = run_child([sys.executable, "-m", "crownkit.cli", *argv], ctx,
                         capture=True)
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            raise RuntimeError(f"exit {proc.returncode}: {last[:160]}")
        raise Malformed(f"stdout is not one JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise Malformed(f"stdout is a JSON {type(doc).__name__}, not a "
                        f"document")
    passed = doc.get("status") == "pass"
    checks = [_shape_check("cli_exit_0", proc.returncode == 0),
              _shape_check("cli_status_pass", passed)]
    if argv[0] in CLI_GAPS:
        name, tol = CLI_GAPS[argv[0]]
        outputs = doc.get("outputs")
        gap = outputs.get("gap") if isinstance(outputs, dict) else None
        if isinstance(gap, (int, float)) and not isinstance(gap, bool):
            if passed and not gap < tol:
                raise Malformed(f"{argv[0]} reports pass with gap {gap!r}")
            checks.append(_gap_check(name, gap, tol))
        elif passed:
            raise Malformed(f"{argv[0]} reports pass with gap {gap!r}")
    return checks


# -- dispatch -------------------------------------------------------------------

_RUNNERS = {
    "repn_sobolev": {"row1": _row, "row2": _row, "norm_growth": _norm_growth,
                     "doubling": _doubling, "h_limit": _h_limit},
    "spectral_orbital": {"gutzmer": _gutzmer, "parseval": _parseval,
                         "gram": _gram, "invariance": _invariance},
    "cli_cold": {kind: partial(_cli, kind) for kind in CLI_FAMILY},
}


def _guarded(fn, *args) -> Outcome:
    """Run checks; errors are recorded in the outcome, never raised."""
    try:
        return Outcome(fn(*args))
    except Malformed as exc:
        return Outcome(error=f"malformed: {exc}", malformed=True)
    except Exception as exc:
        return Outcome(error=f"{type(exc).__name__}: {exc}"[:200])


def run_case(workload: str, case: dict, ctx: Context, tr) -> Outcome:
    """Run and check one case."""
    return _guarded(_RUNNERS[workload][case["kind"]], case["args"], ctx, tr)


# -- reference checks ----------------------------------------------------------

def _rotation(a, ctx, tr):
    param = repn.SpectralParam(a["lam"])
    with tr.span("sobolev.rotate_A_to_H"):
        rot = sobolev.rotate_A_to_H(param, repn.continue_vK(param, a["eps"]),
                                    a["k"])
    return [_gap_check("rotation_gap", rot.gap, 1e-5)]


def _hermitian(a, ctx, tr):
    z, w = crown_point(a["z"]), crown_point(a["w"])
    k_zw, k_wz = _kernel(z, w, tr), _kernel(w, z, tr)
    _finite(k_zw, k_wz)
    return [_gap_check("hermitian_gap", abs(k_wz - np.conj(k_zw)), 1e-10)]


_PAIR = {"z": {"theta": 0.4, "t": 1.3, "x": -0.2, "phi": 0.5},
         "w": {"theta": 2.1, "t": 0.8, "x": 0.35, "phi": -0.3},
         "g": {"theta": 1.2, "t": 1.5, "x": 0.4}}

#: (gap name, tolerance, runner, fixed arguments) of each reference check:
#: AC7's doubling grid and AC8's rotation comparison; AC9's held-out
#: Parseval width, and invariance and Hermitian symmetry of the Hardy
#: kernel on one fixed pair; the README's
#: `crownkit doubling --lam 1.0 --t 2.0 --phi 0.19635`
_REFERENCE = {
    "repn_sobolev": [("doubling_gap", 1e-5, _doubling,
                      {"lam": 1.0, "t": t, "phi": phi})
                     for t in (1.0, 2.0, 4.0)
                     for phi in (math.pi / 32.0, math.pi / 16.0,
                                 math.pi / 8.0)]
                    + [("rotation_gap", 1e-5, _rotation,
                        {"lam": 1.0, "eps": 1e-3, "k": 1})],
    "spectral_orbital": [("parseval_gap", 1e-3, _parseval,
                          {"width": 0.7, "transform_width": 1.0}),
                         ("invariance_gap", 1e-6, _invariance, _PAIR),
                         ("hermitian_gap", 1e-10, _hermitian, _PAIR)],
    "cli_cold": [("doubling_gap", 1e-5, partial(_cli, "doubling"),
                  {"lam": 1.0, "t": 2.0, "phi": 0.19635})],
}


def reference_checks(workload: str, ctx: Context, tr) -> Outcome:
    """Identity checks on fixed inputs, the same in every run and on every
    commit.  tol_headroom_digits is read from these alone, so parent and
    change are compared on identical inputs; the seeded cases' checks
    decide ok_ratio.  Each check runs on its own: one that raises or
    gives no gap is recorded with an infinite gap, and the others still
    count.  Together they make one attempted case."""
    merged = Outcome()
    errors = []
    for name, tol, fn, args in _REFERENCE[workload]:
        outcome = _guarded(fn, args, ctx, tr)
        if not any(c.name == name for c in outcome.checks):
            outcome.checks.append(Check(name, math.inf, tol))
        merged.checks += outcome.checks
        merged.malformed |= outcome.malformed
        if outcome.error:
            errors.append(f"{name}: {outcome.error}")
    merged.error = "; ".join(errors)
    return merged


# -- per-layer probes (traced runs only) ----------------------------------------

def _timed_calls(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def _monomial_vectors(case_args):
    """The row's continued vector and its derived-action chains
    d_pi(D)^j v, D in {h, e, f}, j <= k: the integrands of its Sobolev
    norms."""
    param = repn.SpectralParam(case_args["lam"])
    v = repn.continue_vK(param, case_args["eps"])
    out = [v]
    for direction in ("h", "e", "f"):
        vec = v
        for _ in range(case_args["k"]):
            vec = repn.d_pi(param, direction, vec)
            out.append(vec)
    return out


def probe_repn(seed, tr, extras):
    """phi_lambda / rep_pairing on the doubling cases; integrate and jet
    on the Sobolev integrands of the first k=1 and k=2 rows."""
    cases = round_cases("repn_sobolev", seed, 0)
    for case in [c for c in cases if c["kind"] == "doubling"][:3]:
        a = case["args"]
        param = repn.SpectralParam(a["lam"])
        w = cmath.exp(4j * a["phi"]) * 1j
        point = PairPoint(w, -w).apply(a_t(a["t"]).m)
        with tr.span("repn.phi_lambda"):
            repn.phi_lambda(param, point)
        half = repn.continue_vK(param, repn.OMEGA_RADIUS - abs(a["phi"]))
        pulled = repn.apply_pi(param, a_t(a["t"]), half)
        with tr.span("repn.rep_pairing"):
            repn.rep_pairing(pulled, half)

    rows = [next(c for c in cases if c["kind"] == kind)["args"]
            for kind in ("row1", "row2")]
    cfg = numerics.REPRESENTATION_CFG
    panels, err_over_tol, jet15, jet_rate = [], [], [], []
    x15 = np.linspace(-3.0, 3.0, 15)
    x_big = np.linspace(-50.0, 50.0, 1 << 16)
    for vec in [v for row in rows for v in _monomial_vectors(row)]:
        jet15.extend(_timed_calls(lambda: vec.jet(x15, 0), 20))
        jet_rate.append(x_big.size / min(_timed_calls(
            lambda: vec.jet(x_big, 0), 3)))
        try:
            with tr.span("numerics.integrate"):
                res = numerics.integrate(
                    lambda x: np.abs(vec.value(x)) ** 2, -math.inf,
                    math.inf, cfg.with_hints(vec.hints))
        except CrownkitError as exc:
            print(f"# probe numerics.integrate skipped: "
                  f"{type(exc).__name__}")
            continue
        panels.append(res.n_panels)
        err_over_tol.append(res.error / max(cfg.abs_tol,
                                            cfg.rel_tol * abs(res.value)))
    extras["numerics.panels"] = float(np.median(panels))
    extras["numerics.err_over_tol_max"] = float(max(err_over_tol))
    extras["vectors.jet15_us"] = 1e6 * float(np.median(jet15))
    extras["vectors.jet_points_per_s"] = float(np.median(jet_rate))


def probe_spectral(seed, ctx, tr, extras):
    """orbital_mass, doubled torus values and pairing rows at the gutzmer
    cases' angles, point_to_tangent on the kernel cases' points, and
    phi_radial_matrix on every 4th default lambda node."""
    cases = round_cases("spectral_orbital", seed, 0)
    gutz = [c["args"] for c in cases if c["kind"] == "gutzmer"]
    first = gutz[0]
    with tr.span("spectral.orbital_mass"):
        spectral.orbital_mass(
            spectral.gaussian_density(first["center"], first["width"]),
            first["r"], ctx.weight)
    lams = spectral.default_lambda_grid()
    for a in gutz:
        with tr.span("spectral.doubled_torus_values"):
            spectral.doubled_torus_values(lams, a["r"])
        for rho, theta in ((0.5, 0.3), (2.0, 1.1), (4.0, 2.5)):
            g = a_t(math.exp(0.5 * rho)) @ k_theta(theta)
            with tr.span("spectral.phi_pairing_row"):
                spectral.phi_pairing_row(lams, g, a["r"])
    points = []
    for c in cases:
        if c["kind"] == "gram":
            points += c["args"]["points"]
        elif c["kind"] == "invariance":
            points += [c["args"]["z"], c["args"]["w"]]
    for p in points:
        z = crown_point(p)
        with tr.span("crown.point_to_tangent"):
            crown.point_to_tangent(z)
    sub_lams = lams[::4]
    radii, _ = numerics.gauss_legendre_grid(
        [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 36.0], 12)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        with tr.span("spectral.phi_radial_matrix"):
            spectral.phi_radial_matrix(sub_lams, radii)
        times.append(time.perf_counter() - t0)
    extras["spectral.phi_radial_matrix.cells_per_s"] = (
        sub_lams.size * radii.size / float(np.median(times)))


def probe_cli(seed, ctx, tr):
    """Fresh-interpreter import, and the geometry layers a cli_cold round
    calls, run in this process with the subcommands' arguments."""
    for _ in range(3):
        with tr.span("cli.import"):
            run_child([sys.executable, "-c", SETUP_CODE["cli_cold"]],
                      ctx).check_returncode()
    cases = {c["kind"]: c["args"] for c in round_cases("cli_cold", seed, 0)}
    a = cases["convexity"]
    with tr.span("horo.convexity_scan"):
        horo.convexity_scan(a["phi"], a["samples"])
    a = cases["escape"]
    for s in np.linspace(0.0, 1.0, a["grid"]):
        with tr.span("horo.escape_curve"):
            horo.escape_curve(a["phi"], float(s))
    with tr.span("crown.match_orbits"):
        crown.match_orbits(cases["match"]["phi"])
    z = crown_point(cases["aproj"]["point"])
    with tr.span("liecore.complex_na_decompose"):
        liecore.complex_na_decompose(z)
    model = maass.SupBoundModel(1.0)
    for kind in ("maass", "maass-violator"):
        y = cases[kind]["y"]
        F = (maass.PeriodicStripFunction.from_coefficients({1: 1.0}, 4 * y)
             if kind == "maass-violator" else
             maass.saturating_strip_function(y))
        with tr.span("maass.pipeline_demo"):
            maass.pipeline_demo(F, y, model, n_max=8)


#: kinds replayed from round 0 when a traced run's own cases did not call
#: the layer; each is the cheapest kind that reaches it
REPLAY_KINDS = {
    "repn_sobolev": ["row1", "doubling", "norm_growth", "h_limit"],
    "spectral_orbital": ["parseval", "invariance", "gutzmer"],
    "cli_cold": ["crown-check", "phi", "kernel", "maass"],
}


def run_probes(workload: str, seed: int, ctx: Context, tr) -> dict:
    """Give every per-layer metric at least one sample.

    The workload's own cases have run.  The other workloads' layers are
    reached by replaying the first case of each kind in REPLAY_KINDS from
    their round 0; then every probe runs.  Returns the per-layer metrics
    that are not span times.
    """
    for other, kinds in REPLAY_KINDS.items():
        if other == workload:
            continue
        if other == "spectral_orbital":
            setup(other, ctx, tr)
        cases = round_cases(other, seed, 0)
        for kind in kinds:
            outcome = run_case(
                other, next(c for c in cases if c["kind"] == kind), ctx, tr)
            if outcome.error:
                print(f"# replay {other}/{kind}: {outcome.error}")
    extras = {}
    probe_repn(seed, tr, extras)
    probe_spectral(seed, ctx, tr, extras)
    probe_cli(seed, ctx, tr)
    return extras
