"""Command line front end: every operation as a subcommand with JSON output.

Complex numbers are written `a+bi` (also `a`, `bi`, `a-bi`).  Output is a
single JSON document on stdout with the command, its inputs (every parsed
argument), its outputs (values and, for identity checks, both sides and
their relative gap), a provenance note and a status; only `gutzmer`
reports an error estimate.  `trace-domain`'s `minimal_angle` is null where
no torus tube holds the value (Re <= 0).  Random sampling is seeded (seed
echoed) so identical invocations print identical bytes.  `suite` prints
one JSON line per criterion and a summary line instead.

Each subcommand imports the modules it runs inside its `cmd_*` function;
the module top imports only what the parser and the shared helpers need
(`errors`, `liecore`, `pairmodel`, none of which loads numpy), so a
process loads only the command it runs: a geometry command never loads
the spectral, representation or quadrature modules, only `suite` loads
`acceptance`, and every geometry command but `convexity` runs without
numpy.  The module sets one BLAS thread before any command can load
numpy, unless the user set OPENBLAS, OMP or MKL_NUM_THREADS.

An option's value may start with '-' in either form, `--phi -1e-12` or
`--phi=-1e-12`: a token led by '-' and a digit, '.', `inf` or `nan` that
follows an option is that option's value.

Exit codes:
    0  the command ran and its status is not `fail`;
    1  usage error: the arguments do not parse (argparse prints the usage
       to stderr, nothing to stdout: an unknown command or option, a
       missing value, or a value after a flag), or an argument value is
       non-finite, out of range or a count too large to allocate
       (`MemoryError`) (a JSON document with status `fail` and the
       error);
    2  numerical or domain failure: the status is `fail`, or a crownkit
       error or an arithmetic error (overflow, division by zero) was
       raised (a JSON document with the error).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import re
import sys

# the BLAS reads its thread count when numpy loads, which only the
# commands below do
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

from .errors import CrownkitError
from .liecore import OMEGA_RADIUS, a_t, complex_na_decompose, n_x
from .pairmodel import BASE_POINT, PairPoint


def parse_complex(text: str) -> complex:
    """Parse `a+bi` / `a-bi` / `bi` / `a` into a complex number."""
    cleaned = text.strip().replace(" ", "")
    if cleaned.endswith("i") and not cleaned.endswith("j"):
        cleaned = cleaned[:-1] + "j"
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex {text!r}") \
            from exc


def _fmt(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    np = sys.modules.get("numpy")  # no numpy value exists before it loads
    if np is not None:
        if isinstance(value, (np.floating, np.integer)):
            value = value.item()
        elif isinstance(value, np.ndarray):
            return [_fmt(v) for v in value.tolist()]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _fmt(v) for k, v in value.items()}
    return value


def emit(args, outputs: dict, status: str = "pass",
         provenance: str = "") -> dict:
    """Print the subcommand's JSON document; its inputs are every parsed
    argument."""
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("func", "command")}
    doc = {"command": args.command, "inputs": _fmt(inputs),
           "outputs": _fmt(outputs), "provenance": provenance,
           "status": status}
    print(json.dumps(doc, sort_keys=True, indent=2, allow_nan=True))
    return doc


def _pair(args) -> PairPoint:
    return PairPoint(args.z1, args.z2)


def _check_width(width: float) -> None:
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")


def cmd_crown_check(args):
    from . import crown
    z = _pair(args)
    out = {"inside": crown.crown_contains(z),
           "xi_plus": crown.xi_pm_contains(z, "+"),
           "xi_minus": crown.xi_pm_contains(z, "-")}
    return emit(args, out, provenance="pair-model membership test")


def cmd_param(args):
    from . import crown
    g = a_t(args.t) @ n_x(args.x_shift)
    if args.kind == "elliptic":
        z = crown.elliptic_point(g, args.phi)
        angle = abs(args.phi)
    else:
        z = crown.unipotent_point(g, args.x)
        angle = 0.5 * math.asin(abs(args.x))  # sin(2 phi) = |x|
    tangent = crown.point_to_tangent(z)
    back = crown.tangent_to_point(tangent)
    # far out, rounding in g can lose the angle before the inverse sees it
    residual = abs(tangent.y.c_h - angle)
    out = {"point": {"z1": z.first, "z2": z.second},
           "tangent_angle": tangent.y.c_h,
           "angle_residual": residual,
           "roundtrip_residual": crown.pair_distance(z, back)}
    status = "pass" if residual <= 1e-9 else "fail"
    return emit(args, out, status,
                provenance="orbit parameterization with disc-bundle inverse")


def cmd_match(args):
    from . import crown
    m = crown.match_orbits(args.phi)
    out = {"residual": m.residual, "boost": m.boost,
           "g": [[v.real for v in row] for row in m.g.rows]}
    status = "pass" if m.residual < 1e-9 else "warn"
    return emit(args, out, status,
                provenance="rotation/boost transporter between orbit models")


def cmd_boundary(args):
    from . import crown
    z = _pair(args)
    cls = crown.boundary_classify(z, args.tol)
    return emit(args, {"stratum": cls.stratum,
                       "has_cone_data": cls.cone_data is not None},
                provenance="boundary stratification with quadric check")


def cmd_quadric(args):
    from . import crown
    z = _pair(args)
    q = crown.to_quadric(z)
    residual = crown.pair_distance(z, crown.from_quadric(q))
    out = {"coordinates": list(q.coords),
           "quadric_residual": q.form_residual(),
           "gindikin": crown.gindikin_contains(q),
           "roundtrip_residual": residual}
    # the chart's limit: a coordinate near 0 opposite one near infinity
    # falls below eps of the quadric coordinates
    status = "pass" if residual <= 1e-9 else "fail"
    return emit(args, out, status,
                provenance="symmetric-model transfer to the complex quadric")


def cmd_aproj(args):
    from . import crown, horo
    z = _pair(args)
    if crown.crown_contains(z):
        proj = horo.log_aC(z)
        extra = {"log_aC": proj.value, "torus_parameter":
                 proj.torus_parameter()}
    else:
        extra = {}
    dec = complex_na_decompose(z)
    out = {"n_part": dec.n_part, "a_part": dec.a_part,
           "sign_ambiguity": dec.sign_ambiguity,
           "reassembly_residual": crown.pair_distance(dec.reassemble(), z)}
    out.update(extra)
    return emit(args, out,
                provenance="horospherical projection, principal branch")


def cmd_convexity(args):
    from . import horo
    scan = horo.convexity_scan(args.phi, args.samples)
    out = {"min_im": scan.min_im, "max_im": scan.max_im,
           "endpoint_gap": scan.endpoint_gap, "violation": scan.violation}
    status = "pass" if scan.violation <= 1e-9 else "fail"
    return emit(args, out, status,
                provenance="rotation-orbit sweep of Im log a_C")


def cmd_trace_domain(args):
    from . import horo
    spec = horo.TraceDomainSpec(args.bound, doubled=args.doubled)
    inside = horo.trace_domain_contains(spec, args.value)
    angle = horo.minimal_trace_angle(args.value)
    out = {"contains": inside,
           "minimal_angle": None if math.isinf(angle) else angle}
    return emit(args, out,
                provenance="closed-form threshold angle of the trace image")


def cmd_escape(args):
    from . import horo
    n = args.grid
    if n < 2:
        raise ValueError(f"grid needs at least two points, got {n}")
    # allocated first, so that a grid too large to hold fails at once
    sigmas = [0.0] * n
    # np.linspace(0, 1, n) bit for bit: k * (1 / (n - 1)), then exactly 1
    step = 1.0 / (n - 1)
    for k in range(n):
        s = k * step if k < n - 1 else 1.0
        sigmas[k] = horo.escape_curve(args.phi, s).sigma
    out = {"sigma_start": sigmas[0], "sigma_end": sigmas[-1],
           "strictly_decreasing": bool(all(b < a for a, b in
                                           zip(sigmas, sigmas[1:])))}
    if args.values:
        out["sigma"] = sigmas
    return emit(args, out, provenance="two-leg trace curve to the slit tip")


def cmd_phi(args):
    from .repn import SpectralParam, phi_lambda
    param = SpectralParam(args.lam)
    value = phi_lambda(param, _pair(args))
    return emit(args, {"value": value},
                provenance="rotation average of the horospherical character")


def cmd_doubling(args):
    from .repn import SpectralParam, doubling_check
    res = doubling_check(SpectralParam(args.lam), a_t(args.t), args.phi)
    status = "pass" if res.gap < 1e-5 else "fail"
    return emit(args, {"lhs": res.lhs, "rhs": res.rhs, "gap": res.gap},
                status, provenance="spherical value vs split pairing")


def cmd_norm_growth(args):
    from .repn import SpectralParam, norm_growth
    eps_list = [float(e) for e in args.eps.split(",")]
    if not all(math.isfinite(e) for e in eps_list):
        raise ValueError(f"eps must be finite, got {args.eps}")
    samples = norm_growth(SpectralParam(args.lam), eps_list)
    ratios = [s.log_ratio_sq for s in samples]
    out = {"samples": [{"eps": s.eps, "norm": s.norm} for s in samples],
           "ratio_sq_over_log": ratios,
           "band": max(ratios) / min(ratios)}
    return emit(args, out,
                provenance="hinted quadrature of the continued vector norm")


def cmd_dpi_check(args):
    import numpy as np
    from .repn import DIRECTIONS, SpectralParam, dpi_fd_gap
    from .vectors import ExpPoly
    rng = np.random.default_rng(args.seed)
    param = SpectralParam(args.lam)
    xs = np.array([0.0, 0.7, -1.3, 2.1])
    worst = {}
    for name in DIRECTIONS:
        deg = int(rng.integers(0, 3))
        f = ExpPoly(1.0, rng.normal(size=deg + 1), (0.0, 0.0, 1.0))
        worst[name] = dpi_fd_gap(param, name, f, xs)
    status = "pass" if max(worst.values()) < 1e-6 else "fail"
    return emit(args, {"worst_relative": worst}, status,
                provenance="derived action vs central differences")


def cmd_sobolev(args):
    from . import sobolev
    from .repn import SpectralParam, continue_vK, rep_norm
    param = SpectralParam(args.lam)
    f = continue_vK(param, args.eps)
    spec = sobolev.SobolevSpec(args.k, args.subgroup)
    value = sobolev.sobolev_norm(param, f, spec)
    return emit(args, {"norm": value, "vector_norm": rep_norm(f)},
                provenance="derived-action monomial norms")


def cmd_invariant_bound(args):
    from . import sobolev
    from .repn import SpectralParam, continue_vK, rep_norm
    param = SpectralParam(args.lam)
    f = continue_vK(param, args.eps)
    m = args.m if args.m else sobolev.choose_m(param, f, args.k)
    bound = sobolev.invariant_upper_bound(param, f, args.k, m)
    out = {"m": m, "bound": bound.bound, "dyadic_rhs": bound.dyadic_rhs,
           "outer_block": bound.outer_block, "inner_block": bound.inner_block,
           "comparison": bound.comparison,
           "rotated_pushed": bound.rotated_pushed,
           "push_scale": bound.push_scale,
           "vector_norm": rep_norm(f)}
    return emit(args, out,
                provenance="dyadic decomposition with invariance moves")


def cmd_transform(args):
    import numpy as np
    from . import spectral
    _check_width(args.width)
    if args.csv:
        try:  # before the phi matrix is built
            open(args.csv, "a").close()
        except OSError as exc:
            raise ValueError(f"cannot write --csv {args.csv!r}: "
                             f"{exc.strerror}") from exc
    density = spectral.spherical_transform(
        spectral.gaussian(0.0, args.width))
    out = {"lambda_max": float(density.lambda_grid[-1]),
           "peak": float(np.max(np.abs(density.values)))}
    if args.csv:
        density.to_csv(args.csv)
        out["csv"] = args.csv
    return emit(args, out, provenance="radial spherical transform")


def cmd_parseval(args):
    from . import spectral
    _check_width(args.width)
    check = spectral.parseval_check(spectral.gaussian(0.0, args.width))
    out = {"constant": spectral.PLANCHEREL.calibration_constant,
           "lhs": check.lhs, "rhs": check.rhs, "gap": check.gap}
    if args.verdict:
        out["verdict"] = spectral.plancherel_verdict()
    status = "pass" if check.gap < 1e-3 else "fail"
    return emit(args, out, status,
                provenance="closed-form tempered weight "
                           "lam tanh(pi lam/2)/(8 pi)")


def cmd_gutzmer(args):
    from . import spectral
    _check_width(args.width)
    density = spectral.gaussian_density(args.center, args.width)
    check = spectral.gutzmer_check(density, args.r)
    status = "pass" if check.gap < 1e-2 else "fail"
    return emit(args, {"lhs": check.lhs, "rhs": check.rhs, "gap": check.gap,
                       "orbit_grid": check.orbit.summary()},
                status, provenance="orbital mass vs spectral integral")


def cmd_hardy_kernel(args):
    import numpy as np
    from . import crown, spectral
    if args.gram < 0:
        raise ValueError(f"gram needs a nonnegative count, got {args.gram}")
    if args.gram:
        rng = np.random.default_rng(args.seed)
        gram = spectral.hardy_gram([crown.random_crown_point(rng, 0.6)
                                    for _ in range(args.gram)])
        eigs = np.linalg.eigvalsh(gram)
        out = {"seed": args.seed, "min_eigenvalue": float(eigs.min()),
               "trace": float(np.trace(gram).real)}
        status = ("pass" if eigs.min() >= -1e-7 * np.trace(gram).real
                  else "fail")
        return emit(args, out, status,
                    provenance="positive-definite invariant kernel")
    z = _pair(args)
    value = spectral.hardy_kernel(z, z)
    return emit(args, {"value": value},
                provenance="diagonal value K(z, z) of the tempered kernel "
                           "with sech spectral damping")


def cmd_kernel(args):
    from . import spectral
    _check_width(args.width)
    measure = spectral.KernelMeasure(
        spectral.gaussian_density(args.center, args.width))
    out = {"value_at_base": spectral.invariant_kernel(measure, BASE_POINT,
                                                      BASE_POINT)}
    return emit(args, out,
                provenance="admissibility-tested spectral measure")


def cmd_maass(args):
    from . import maass
    model = maass.SupBoundModel(args.C)
    if args.violator:
        F = maass.PeriodicStripFunction.from_coefficients({1: 1.0}, 4 * args.y)
    else:
        F = maass.saturating_strip_function(args.y)
    report = maass.pipeline_demo(F, args.y, model, n_max=args.nmax)
    out = {"rows": report.as_json_rows(), "fit": report.fit,
           "reconstructed_sup": report.reconstructed_sup,
           "decay_bound": report.decay_bound, "passes": report.passes}
    status = "pass" if report.passes == (not args.violator) else "fail"
    return emit(args, out, status,
                provenance="contour-shifted coefficient pipeline")


def cmd_suite(args):
    from . import acceptance
    rows = acceptance.run_suite(args.level, seed=args.seed)
    all_pass = all(r["passed"] for r in rows)
    for row in rows:
        print(json.dumps(_fmt(row), sort_keys=True))
    print(json.dumps({"command": "suite", "level": args.level,
                      "seed": args.seed,
                      "passed": int(sum(r["passed"] for r in rows)),
                      "total": len(rows), "all_passed": all_pass},
                     sort_keys=True))
    return 0 if all_pass else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crownkit",
        description="numerics for the crown domain of the upper half plane")
    sub = parser.add_subparsers(dest="command", required=True)

    def pair_args(p):
        p.add_argument("--z1", type=parse_complex, required=True)
        p.add_argument("--z2", type=parse_complex, required=True)

    p = sub.add_parser("crown-check", help="crown membership of a pair point")
    pair_args(p)
    p.set_defaults(func=cmd_crown_check)

    p = sub.add_parser("param", help="orbit parameterizations")
    p.add_argument("--kind", choices=["elliptic", "unipotent"],
                   default="elliptic")
    p.add_argument("--phi", type=float, default=0.3)
    p.add_argument("--x", type=float, default=0.4)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--x-shift", dest="x_shift", type=float, default=0.0)
    p.set_defaults(func=cmd_param)

    p = sub.add_parser("match", help="orbit matching transporter")
    p.add_argument("--phi", type=float, required=True)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("boundary", help="boundary stratum classification")
    pair_args(p)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("quadric", help="quadric-model transfer")
    pair_args(p)
    p.set_defaults(func=cmd_quadric)

    p = sub.add_parser("aproj", help="horospherical projection")
    pair_args(p)
    p.set_defaults(func=cmd_aproj)

    p = sub.add_parser("convexity", help="convexity scan of Im log a_C")
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.set_defaults(func=cmd_convexity)

    p = sub.add_parser("trace-domain", help="trace-image membership")
    p.add_argument("--value", type=parse_complex, required=True)
    p.add_argument("--bound", type=float, default=OMEGA_RADIUS)
    p.add_argument("--doubled", action="store_true")
    p.set_defaults(func=cmd_trace_domain)

    p = sub.add_parser("escape", help="escape curve of the trace")
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--values", action="store_true")
    p.set_defaults(func=cmd_escape)

    p = sub.add_parser("phi", help="extended spherical function")
    p.add_argument("--lam", type=float, required=True)
    pair_args(p)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("doubling", help="doubling identity check")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--t", type=float, default=2.0)
    p.add_argument("--phi", type=float, default=math.pi / 16.0)
    p.set_defaults(func=cmd_doubling)

    p = sub.add_parser("norm-growth", help="continued-vector norm growth")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--eps", type=str, default="1e-2,1e-3,1e-4")
    p.set_defaults(func=cmd_norm_growth)

    p = sub.add_parser("dpi-check", help="derived action vs differences")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=20090)
    p.set_defaults(func=cmd_dpi_check)

    p = sub.add_parser("sobolev", help="Sobolev norms of continued vectors")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--subgroup", choices=["A", "N", "Nbar", "K", "H"],
                   default=None)
    p.set_defaults(func=cmd_sobolev)

    p = sub.add_parser("invariant-bound", help="invariant Sobolev bound")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--m", type=int, default=0,
                   help="dyadic depth, 1..64; 0 picks it by choose_m")
    p.set_defaults(func=cmd_invariant_bound)

    p = sub.add_parser("transform", help="radial spherical transform")
    p.add_argument("--width", type=float, default=1.0)
    p.add_argument("--csv", type=str, default="")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("parseval", help="Parseval identity")
    p.add_argument("--width", type=float, default=0.7)
    p.add_argument("--verdict", action="store_true",
                   help="report both tempered-weight variants")
    p.set_defaults(func=cmd_parseval)

    p = sub.add_parser("gutzmer", help="orbital identity check")
    p.add_argument("--r", type=float, default=0.5 * OMEGA_RADIUS)
    p.add_argument("--center", type=float, default=2.0)
    p.add_argument("--width", type=float, default=0.7)
    p.set_defaults(func=cmd_gutzmer)

    p = sub.add_parser("hardy-kernel", help="Hardy-space kernel")
    p.add_argument("--z1", type=parse_complex, default=1j)
    p.add_argument("--z2", type=parse_complex, default=-1j)
    p.add_argument("--gram", type=int, default=0)
    p.add_argument("--seed", type=int, default=20090)
    p.set_defaults(func=cmd_hardy_kernel)

    p = sub.add_parser("kernel", help="invariant kernel from a measure")
    p.add_argument("--center", type=float, default=2.0)
    p.add_argument("--width", type=float, default=0.7)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("maass", help="coefficient decay pipeline")
    p.add_argument("--y", type=float, default=3.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--violator", action="store_true")
    p.set_defaults(func=cmd_maass)

    p = sub.add_parser("suite", help="run the acceptance suite")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_suite)

    return parser


#: a value led by '-' that argparse reads as an option, as it takes only
#: -1 and -.5 for values: -1e-12, -inf, -0.3+1.2i, -1e-2,1e-3
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _attach_negative_values(argv: list[str]) -> list[str]:
    """`--opt -1e-12` as `--opt=-1e-12`, which argparse reads as the
    option's value; after a flag it stays a usage error."""
    out = []
    for arg in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _NEGATIVE_VALUE.match(arg)):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        for name, value in vars(args).items():
            numeric = isinstance(value, (float, complex))
            if numeric and not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        result = args.func(args)
    except (CrownkitError, ArithmeticError, ValueError, MemoryError) as exc:
        print(json.dumps({"command": args.command, "status": "fail",
                          "error": type(exc).__name__,
                          "message": str(exc)}, sort_keys=True))
        return 1 if isinstance(exc, (ValueError, MemoryError)) else 2
    if isinstance(result, int):
        return result
    return 0 if result.get("status") != "fail" else 2


if __name__ == "__main__":
    sys.exit(main())
