"""The acceptance suite: every check the package promises, with its
tolerance pinned, runnable as one pass/fail table.

Each criterion function returns a dict with `id`, `description`, `passed`,
and the measured numbers.  `run_suite` executes all of them (`quick`
trims sample counts, `full` runs the stated sizes) and is shared by the
command line front end and the test suite.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import crown, horo, maass, sobolev, spectral
from .liecore import (OMEGA_RADIUS, LieVector, a_t, complex_na_decompose,
                      k_theta, p_of_pair)
from .repn import (DIRECTIONS, SpectralParam, continue_vK, doubling_check,
                   dpi_fd_gap, h_limit_gap, levi_form, norm_growth, rep_norm)
from .vectors import ExpPoly

DEFAULT_SEED = 20090


def _rng(seed):
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def _random_schwartz(rng) -> ExpPoly:
    deg = int(rng.integers(0, 4))
    poly = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
    return ExpPoly(1.0, poly, (0.0, 0.5 * rng.normal(),
                               rng.uniform(0.3, 1.2)))


def criterion_1(quick=False, seed=None):
    """Closed-form torus parameter against brute-force decomposition."""
    n = 30 if quick else 100
    thetas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    phis = np.linspace(-0.9, 0.9, n) * OMEGA_RADIUS
    t0 = time.time()
    worst = 0.0
    for phi in phis:
        for th in thetas:
            closed = horo.aC_closed_form(float(th), float(phi))
            dec = complex_na_decompose(
                crown.elliptic_point(k_theta(float(th)), float(phi)))
            gap = min(abs(closed - dec.a_part), abs(closed + dec.a_part))
            worst = max(worst, gap)
    elapsed = time.time() - t0
    return {"id": "AC1", "description": "closed-form a_C vs brute force",
            "worst_gap": worst, "tolerance": 1e-10, "runtime_s": elapsed,
            "passed": bool(worst <= 1e-10 and elapsed < 10.0)}


def criterion_2(quick=False, seed=None):
    """Complex convexity: range and attainment of Im log a_C on rotation
    orbits."""
    n = 2000 if quick else 10000
    t0 = time.time()
    rows = []
    ok = True
    for frac in (0.1, 0.3, 0.7):
        phi = frac * OMEGA_RADIUS
        scan = horo.convexity_scan(phi, n)
        contained = scan.violation <= 1e-9
        attained = scan.endpoint_gap <= 1e-6
        ok = ok and contained and attained
        rows.append({"phi": phi, "violation": scan.violation,
                     "endpoint_gap": scan.endpoint_gap})
    elapsed = time.time() - t0
    return {"id": "AC2", "description": "complex convexity scan",
            "rows": rows, "runtime_s": elapsed,
            "passed": bool(ok and elapsed < 30.0)}


def criterion_3(quick=False, seed=None):
    """Orbit matching residuals across the elliptic band."""
    n = 20 if quick else 50
    phis = np.linspace(0.0, 0.95, n) * OMEGA_RADIUS
    worst = max(crown.match_orbits(float(p)).residual for p in phis)
    return {"id": "AC3", "description": "unipotent/elliptic orbit matching",
            "worst_residual": worst, "tolerance": 1e-9,
            "passed": bool(worst < 1e-9)}


def criterion_4(quick=False, seed=None):
    """Trace-domain inclusion and the escape curve endpoints."""
    rng = _rng(seed)
    n_pts = 1000 if quick else 10000
    ok_inclusion = True
    for _ in range(n_pts):
        value = p_of_pair(crown.random_crown_point(rng))
        if not horo.trace_domain_contains(horo.DOUBLED_OMEGA, value):
            ok_inclusion = False
            break
    n_phi = 5 if quick else 20
    endpoint_gap = 0.0
    monotone = True
    for _ in range(n_phi):
        phi = rng.uniform(OMEGA_RADIUS + 1e-6, math.pi / 2.0 - 1e-6)
        sig = [horo.escape_curve(phi, s).sigma
               for s in np.linspace(0.0, 1.0, 200)]
        endpoint_gap = max(endpoint_gap, abs(sig[0] - 2.0),
                           abs(sig[-1] + 2.0))
        monotone = monotone and all(b < a for a, b in zip(sig, sig[1:]))
    return {"id": "AC4",
            "description": "trace-domain inclusion and escape curve",
            "inclusion": ok_inclusion, "endpoint_gap": endpoint_gap,
            "monotone": monotone,
            "passed": bool(ok_inclusion and endpoint_gap <= 1e-12
                           and monotone)}


def criterion_5(quick=False, seed=None):
    """Derived action against central finite differences of the group
    action, all five directions."""
    rng = _rng(seed)
    param = SpectralParam(1.0)
    n_vec = 5 if quick else 20
    xs = np.array([0.0, 0.7, -1.3, 2.1, -0.4])
    worst = {name: 0.0 for name in DIRECTIONS}
    for _ in range(n_vec):
        f = _random_schwartz(rng)
        for name in DIRECTIONS:
            worst[name] = max(worst[name], dpi_fd_gap(param, name, f, xs))
    return {"id": "AC5", "description": "derived action vs finite differences",
            "worst_relative": worst, "tolerance": 1e-6,
            "passed": bool(max(worst.values()) < 1e-6)}


def criterion_6(quick=False, seed=None):
    """Norm growth of the continued vector: log-law band and monotonicity."""
    eps_list = (1e-2, 1e-3, 1e-4) if quick else (1e-2, 1e-3, 1e-4, 1e-5,
                                                 1e-6)
    t0 = time.time()
    rows = {}
    ok = True
    for lam in (0.5, 1.0, 2.0):
        samples = norm_growth(SpectralParam(lam), eps_list)
        ratios = [s.log_ratio_sq for s in samples]
        band = max(ratios) / min(ratios)
        increasing = all(b.norm > a.norm for a, b in zip(samples, samples[1:]))
        rows[lam] = {"ratios": ratios, "band": band,
                     "monotone": increasing}
        ok = ok and band < 1.5 and increasing
    elapsed = time.time() - t0
    return {"id": "AC6", "description": "log-law norm growth",
            "rows": rows, "runtime_s": elapsed,
            "passed": bool(ok and elapsed < 120.0)}


def criterion_7(quick=False, seed=None):
    """Doubling identity across the torus/angle grid."""
    param = SpectralParam(1.0)
    worst = 0.0
    for t in (1.0, 2.0, 4.0):
        for phi in (math.pi / 32.0, math.pi / 16.0, math.pi / 8.0):
            worst = max(worst, doubling_check(param, a_t(t), phi).gap)
    return {"id": "AC7", "description": "doubling identity",
            "worst_gap": worst, "tolerance": 1e-5,
            "passed": bool(worst < 1e-5)}


def criterion_8(quick=False, seed=None):
    """Sobolev dichotomy: full-norm blow-up vs restricted/invariant bounds."""
    param = SpectralParam(1.0)
    eps_list = (1e-2, 1e-3, 1e-4) if quick else (1e-2, 1e-3, 1e-4, 1e-5,
                                                 1e-6)
    s2, ratio_h, ratio_bound = [], [], []
    for eps in eps_list:
        f = continue_vK(param, eps)
        norm = rep_norm(f)
        s2.append(sobolev.sobolev_norm(param, f, sobolev.SobolevSpec(2)))
        ratio_h.append(sobolev.sobolev_norm(
            param, f, sobolev.SobolevSpec(2, "H")) / norm)
        m = sobolev.choose_m(param, f, 2)
        ratio_bound.append(
            sobolev.invariant_upper_bound(param, f, 2, m).bound / norm)
    slope = float(np.polyfit(np.log(eps_list), np.log(s2), 1)[0])
    band_h = max(ratio_h) / min(ratio_h)
    band_bound = max(ratio_bound) / min(ratio_bound)
    rot = sobolev.rotate_A_to_H(param, continue_vK(param, 1e-3), 1)
    return {"id": "AC8", "description": "Sobolev dichotomy",
            "s2_slope": slope, "restricted_band": band_h,
            "invariant_bound_band": band_bound, "rotation_gap": rot.gap,
            "passed": bool(abs(slope + 2.0) <= 0.15 and band_h < 3.0
                           and band_bound < 3.0 and rot.gap < 1e-5)}


def criterion_9(quick=False, seed=None):
    """Parseval after one-time calibration, and the orbital identity."""
    t0 = time.time()
    weight = spectral.calibrate_parseval()
    held_out = spectral.parseval_check(spectral.gaussian(0.0, 0.7), weight)
    density = spectral.gaussian_density(2.0, 0.7)
    fracs = (0.2, 0.5) if quick else (0.2, 0.5, 0.8)
    rows = []
    rhs_values = [spectral.gutzmer_check(density, 0.0, weight).rhs]
    ok = held_out.gap < 1e-3
    for frac in fracs:
        chk = spectral.gutzmer_check(density, frac * OMEGA_RADIUS, weight)
        rows.append({"r": frac * OMEGA_RADIUS, "gap": chk.gap})
        rhs_values.append(chk.rhs)
        ok = ok and chk.gap < 1e-2
    monotone = all(b > a for a, b in zip(rhs_values, rhs_values[1:]))
    elapsed = time.time() - t0
    return {"id": "AC9", "description": "Parseval and orbital identity",
            "parseval_gap": held_out.gap, "gutzmer": rows,
            "rhs_monotone": monotone, "runtime_s": elapsed,
            "passed": bool(ok and monotone and elapsed < 300.0)}


def criterion_10(quick=False, seed=None):
    """Hardy-kernel positivity, Hermitian symmetry, and G-invariance."""
    rng = _rng(seed)
    n_sets = 2 if quick else 5
    n_inv = 5 if quick else 20
    herm_worst, min_eig_ratio, ok = 0.0, math.inf, True
    for _ in range(n_sets):
        gram = spectral.hardy_gram([crown.random_crown_point(rng, 0.6)
                                    for _ in range(5)])
        herm_worst = max(herm_worst,
                         float(np.max(np.abs(gram - gram.conj().T))))
        eigs = np.linalg.eigvalsh(gram)
        min_eig_ratio = min(min_eig_ratio,
                            float(eigs.min() / np.trace(gram).real))
        ok = ok and eigs.min() >= -1e-7 * np.trace(gram).real
    inv_worst = 0.0
    for _ in range(n_inv):
        g = crown.random_real_element(rng, 0.5)
        z = crown.random_crown_point(rng, 0.5)
        w = crown.random_crown_point(rng, 0.5)
        k1 = spectral.hardy_kernel(z, w)
        k2 = spectral.hardy_kernel(z.apply(g.m), w.apply(g.m))
        inv_worst = max(inv_worst, abs(k1 - k2) / max(abs(k1), 1e-300))
    return {"id": "AC10", "description": "kernel positivity and invariance",
            "hermitian_gap": herm_worst, "min_eig_over_trace": min_eig_ratio,
            "invariance_gap": inv_worst,
            "passed": bool(ok and herm_worst < 1e-10 and inv_worst < 1e-6)}


def criterion_11(quick=False, seed=None):
    """Coefficient pipeline: contour independence, exact specialization,
    synthetic end-to-end run with its negative control."""
    F = maass.PeriodicStripFunction.from_coefficients(
        {1: 0.8, -3: 0.25j}, 8.0)
    contour_gap = abs(maass.fourier_coeff(F, -3, 3.0, 0.2)
                      - maass.fourier_coeff(F, -3, 3.0, 0.45))
    model = maass.SupBoundModel(1.0)
    y = 3.0
    specialization_gap = abs(
        maass.coeff_bound(2, y, 1.0 / y, model)
        - math.exp(-2.0 * math.pi * 2 * (y - 1.0)) * math.sqrt(math.log(y)))
    good = maass.pipeline_demo(maass.saturating_strip_function(y), y, model)
    bad = maass.pipeline_demo(
        maass.PeriodicStripFunction.from_coefficients({1: 1.0}, 10.0),
        y, model)
    return {"id": "AC11", "description": "coefficient decay pipeline",
            "contour_gap": contour_gap,
            "specialization_gap": specialization_gap,
            "fit": good.fit, "negative_control_fit": bad.fit,
            "passed": bool(contour_gap < 1e-9
                           and specialization_gap < 1e-14
                           and good.passes and not bad.passes)}


def criterion_12(quick=False, seed=None):
    """Boundary limit of the continued vector against the holomorphic
    hyperbolic-invariant functional."""
    psis = [ExpPoly(1.0, [1.0], (0.0, 0.0, 1.0)),
            ExpPoly(1.0, [0.3, 0.0, 1.0], (0.0, 0.2, 0.8))]
    eps_list = (1e-1, 1e-2, 1e-3)
    rows = []
    ok = True
    for lam in (0.5, 1.0):
        param = SpectralParam(lam)
        for idx, psi in enumerate(psis):
            gaps = [h_limit_gap(param, psi, eps) for eps in eps_list]
            decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
            ok = ok and decreasing and gaps[-1] < 1e-2
            rows.append({"lam": lam, "psi": idx, "gaps": gaps})
    return {"id": "AC12", "description": "hyperbolic functional limit",
            "rows": rows, "passed": bool(ok)}


def criterion_13(quick=False, seed=None):
    """Subharmonicity of the log squared norm along holomorphic discs."""
    rng = _rng(seed)
    param = SpectralParam(1.0)
    n_discs = 4 if quick else 10
    values = []
    for _ in range(n_discs):
        phi0 = rng.uniform(0.0, 0.9) * OMEGA_RADIUS
        c_h = float(rng.normal(0.0, 0.7))
        c_sym = float(rng.normal(0.0, 0.7))
        direction = LieVector(c_h=c_h, c_e=c_sym, c_f=c_sym)
        values.append(levi_form(param, phi0, direction))
    return {"id": "AC13", "description": "plurisubharmonic norm potential",
            "levi_values": values,
            "passed": bool(all(v > 0 for v in values))}


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8,
                criterion_9, criterion_10, criterion_11, criterion_12,
                criterion_13]


def run_suite(level: str = "full", seed: int | None = None) -> list[dict]:
    quick = level == "quick"
    return [fn(quick=quick, seed=seed) for fn in ALL_CRITERIA]
