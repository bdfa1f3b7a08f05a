"""Spherical transform, Parseval calibration, orbital identity, kernels."""

import json
import math

import mpmath
import numpy as np
import pytest

from conftest import random_crown_point, random_real_element
from crownkit import cli, crown, spectral
from crownkit.errors import AdmissibilityFailure, DomainError
from crownkit.liecore import a_t, k_theta, n_x
from crownkit.pairmodel import BASE_POINT, PairPoint
from crownkit.repn import SpectralParam, continue_vK, phi_lambda, rep_norm


@pytest.fixture(scope="module")
def weight():
    return spectral.PLANCHEREL


def test_phi_radial_matrix_against_conical_oracle():
    lams = np.array([0.0, 0.5, 2.0, 8.0, 32.0])
    radii = np.array([0.0, 0.3, 2.0, 10.0, 30.0])
    mat = spectral.phi_radial_matrix(lams, radii)
    worst = 0.0
    for i, lam in enumerate(lams):
        for j, r in enumerate(radii):
            oracle = complex(mpmath.legenp((1j * lam - 1) / 2, 0,
                                           mpmath.cosh(float(r))))
            denom = max(abs(oracle), 1e-12)
            worst = max(worst, abs(mat[i, j] - oracle) / denom)
    assert worst < 1e-7


def test_legendre_against_mpmath_on_hard_nodes():
    # at lam >= 24 and r in [0.8, 1.5] the hypergeometric series cancels
    # (1.9e-5 off at lam = 31.9, r = 1.5), so a switch that takes it wherever
    # |e^{-2 rho}| <= |(1 - c)/2|, whatever lam, fails here.  r = 60 lies
    # past the old r <= 36 limit.
    lams = np.array([0.0, 2.2e-4, 0.25, 4.0, 16.0, 24.0, 31.9])
    radii = np.array([0.0, 0.2, 0.8, 0.95, 1.0, 1.5, 3.0, 36.0, 60.0])
    mat = spectral.phi_radial_matrix(lams, radii)
    for i, lam in enumerate(lams):
        for j, r in enumerate(radii):
            oracle = complex(mpmath.legenp((1j * lam - 1) / 2, 0,
                                           mpmath.cosh(float(r))))
            assert abs(mat[i, j] - oracle) < 1e-12 * max(1.0, abs(oracle))
    # the most extreme invariants of the spectral_orbital benchmark's kernel
    # pairs: least Re c, largest |c|, complex c nearest -1 and real c near -1
    c = np.array([-6.118295577230798 + 8.248517955486596j,
                  223.20796142668183 - 33.49976941838589j,
                  -0.754189175493866 - 0.11726702523554101j,
                  -0.8899409408688281 + 0j])
    mat = spectral._legendre(lams, 0.5 * (1 - c), 0.5 * (1 + c))
    for i, lam in enumerate(lams):
        for j, cj in enumerate(c):
            oracle = complex(mpmath.legenp((1j * lam - 1) / 2, 0, cj, type=3))
            assert abs(mat[i, j] - oracle) < 1e-12 * max(1.0, abs(oracle))
    # past lam = 64 near c = -1 the two sums of the logarithmic series
    # cancel: at lam = 100, r = 0.74 the series is 2.6e-8 off, so the
    # evaluator must come within 1e-8 of P or raise
    with mpmath.workdps(50):
        oracle = float(mpmath.re(mpmath.legenp(
            (100j - 1) / 2, 0, mpmath.cos(4 * mpmath.mpf(0.74)), type=2)))
    try:
        val = spectral.doubled_torus_values(np.array([100.0]), 0.74)[0]
    except ValueError:
        return
    assert abs(val - oracle) < 1e-8 * abs(oracle)


def test_legendre_overflow_past_lam_450_raises():
    # at c = 0.5 the 2F1 coefficients t_k reach about e^{pi lam/2}: finite
    # at lam = 450, past the largest double at lam = 600
    x, y = np.array([0.25]), np.array([0.75])
    oracle = complex(mpmath.legenp((450j - 1) / 2, 0, 0.5, type=2))
    val = spectral._legendre(np.array([450.0]), x, y)[0, 0]
    assert abs(val - oracle) < 1e-12 * abs(oracle)
    with pytest.raises(ValueError):
        spectral._legendre(np.array([600.0]), x, y)


#: invariants c whose series need many terms (2F1 200, Harish-Chandra 75
#: and log 48 on the kernel rule) and few (15, 6 and 10)
_MANY_TERMS = np.array([-0.46 + 0.09j, -0.22 + 0.25j])
_FEW_TERMS = np.array([1.02, 30.0, -0.999 + 0.001j])


def _table_widths(rule):
    return [0 if t is None else t.shape[-1] for t in rule._tables]


@pytest.mark.parametrize("first, second", [(_MANY_TERMS, _FEW_TERMS),
                                           (_FEW_TERMS, _MANY_TERMS)])
def test_legendre_rule_grows_its_tables_bit_for_bit(first, second):
    lams = spectral.spectral_grid().lam_rule(spectral.KERNEL_LAM_MAX)[0]
    rule = spectral.LegendreRule(lams)
    widths = []
    for c in (first, second):
        val = rule.values(0.5 * (1 - c), 0.5 * (1 + c))
        widths.append(_table_widths(rule))
        assert np.array_equal(val, spectral._legendre(lams, 0.5 * (1 - c),
                                                      0.5 * (1 + c)))
    if first is _FEW_TERMS:     # the second call grew every table
        assert all(a < b for a, b in zip(*widths))
    else:                       # and here read a prefix of each
        assert widths[0] == widths[1]


def test_pairing_row_where_both_series_are_slow():
    # orbit nodes at r = 0.75 where |(1 - c)/2| and |e^{-2 rho}| both
    # exceed 0.45, so neither series of the evaluator converges fast
    r = 0.75
    rho, th = np.meshgrid(np.linspace(0.05, 3.0, 60),
                          np.linspace(0.0, np.pi / 2, 31))
    c = (np.cosh(rho) * math.cos(2 * r)
         + 1j * np.sinh(rho) * math.sin(2 * r) * np.cos(2 * th))
    slow = ((np.abs(0.5 * (1 - c)) > 0.45)
            & (np.abs(np.exp(-2 * np.arccosh(c))) > 0.45))
    picked = np.flatnonzero(slow)[::12]
    assert picked.size >= 8
    lams = np.array([0.0, 0.5, 4.0, 16.0, 31.9])
    w = 1j * np.exp(2j * r)
    for k in picked:
        g = a_t(math.exp(rho.flat[k] / 2)) @ k_theta(th.flat[k])
        row = spectral.phi_pairing_row(lams, g, r)
        pt = PairPoint(w, -w).apply(g.m)
        for lam, val in zip(lams, row):
            oracle = phi_lambda(SpectralParam(float(lam)), pt)
            assert abs(val - oracle) < 1e-12 * max(1.0, abs(oracle))


def test_transform_zero_and_reality(weight):
    dens = spectral.spherical_transform(lambda r: np.zeros_like(r))
    assert np.max(np.abs(dens.values)) == 0.0
    dens = spectral.spherical_transform(lambda r: np.exp(-0.5 * r ** 2))
    assert np.max(np.abs(dens.values.imag)) < 1e-9 * np.max(
        np.abs(dens.values.real))
    # smooth rapidly decaying density
    assert abs(dens.values[-1]) < 1e-8 * np.max(np.abs(dens.values))


def test_calibration_constant_stability():
    c1 = spectral.calibrate_parseval(1.0).calibration_constant
    c2 = spectral.calibrate_parseval(0.6).calibration_constant
    assert abs(c1 - c2) / c1 < 1e-3


def test_plancherel_verdict_selects_half_angle_weight():
    verdict = spectral.plancherel_verdict()
    assert verdict["verdict"] == "lambda_tanh_half"
    assert verdict["lambda_tanh_half"]["relative_spread"] < 1e-3
    assert verdict["lambda_tanh"]["relative_spread"] > 1e-2


def test_plancherel_constant_is_one_over_eight_pi():
    # |c(lam)|^-2 = lam tanh(pi lam/2)/(8 pi); calibration recovers it
    assert spectral.PLANCHEREL.calibration_constant == 1.0 / (8.0 * math.pi)
    assert spectral.PLANCHEREL.form == "lambda_tanh_half"
    calibrated = spectral.calibrate_parseval().calibration_constant
    assert abs(calibrated * 8.0 * math.pi - 1.0) < 1e-14


@pytest.mark.parametrize("width", [0.5, 0.7, 1.0, 2.0])
def test_parseval_holds_with_the_closed_form(width, capsys):
    code = cli.main(["parseval", "--width", str(width)])
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert code == 0 and out["constant"] == 1.0 / (8.0 * math.pi)
    assert out["gap"] <= 1e-14


def test_spectral_side_runs_without_calibration(monkeypatch, capsys):
    def no_calibration(*args, **kwargs):
        raise AssertionError("the spectral side calibrated its weight")

    monkeypatch.setattr(spectral, "calibrate_parseval", no_calibration)
    dens = spectral.gaussian_density(2.0, 0.7)
    assert spectral.gutzmer_check(dens, 0.3).gap < 1e-6
    assert spectral.orbital_mass(dens, 0.3) > 0
    assert spectral.parseval_check(
        lambda r: np.exp(-0.5 * (r / 0.7) ** 2)).gap < 1e-14
    for argv in (["gutzmer"], ["parseval", "--width", "0.7"]):
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_parseval_held_out_profiles(weight):
    profiles = [lambda r: np.exp(-0.5 * (r / 0.7) ** 2),
                lambda r: np.exp(-0.5 * (r / 2.0) ** 2),
                lambda r: np.exp(-0.5 * ((r - 1.5) / 0.8) ** 2)
                + np.exp(-0.5 * ((r + 1.5) / 0.8) ** 2),
                lambda r: np.exp(-0.5 * (r / 0.9) ** 2) * np.cos(2 * r)]
    for f in profiles:
        assert spectral.parseval_check(f, weight).gap < 1e-3


def test_transform_inverse_roundtrip(weight):
    dens = spectral.gaussian_density(2.0, 0.7)
    grid = spectral.spectral_grid()
    nodes, r_nodes = grid.lam_nodes, grid.r_nodes
    coeff = grid.lam_weights * dens(nodes) * weight.density(nodes)
    f_vals = coeff @ grid.phi
    back = 2 * np.pi * grid.phi @ (grid.r_weights * f_vals * np.sinh(r_nodes))
    peak = np.max(np.abs(dens(nodes)))
    assert np.max(np.abs(back - dens(nodes))) / peak < 1e-2


def test_doubled_torus_values_match_norm_oracle():
    lams = np.array([0.5, 1.0, 2.0, 5.0])
    for r in (0.1, 0.3, 0.6):
        dv = spectral.doubled_torus_values(lams, r)
        for lam, val in zip(lams, dv):
            oracle = rep_norm(continue_vK(SpectralParam(float(lam)),
                                          math.pi / 4 - r)) ** 2
            assert abs(val - oracle) / oracle < 1e-7
        assert np.all(dv > 0)
    assert np.allclose(spectral.doubled_torus_values(lams, 0.0), 1.0)


def test_doubled_torus_values_near_the_edge():
    # as r -> pi/4, c = cos 4r -> -1 and the values grow like -log cos^2 2r;
    # the argument of the oracle is formed at 50 digits from the float r
    lams = np.array([0.0, 0.5, 4.0, 16.0, 31.9])
    with mpmath.workdps(50):
        for r in (0.75, 0.999 * math.pi / 4, math.pi / 4 - 1e-6,
                  math.pi / 4 - 1e-12):
            dv = spectral.doubled_torus_values(lams, r)
            arg = mpmath.cos(4 * mpmath.mpf(r))
            for lam, val in zip(lams, dv):
                oracle = float(mpmath.re(mpmath.legenp((1j * lam - 1) / 2, 0,
                                                       arg, type=2)))
                assert abs(val - oracle) < 1e-12 * abs(oracle)


def test_pairing_row_matches_phi_lambda(rng):
    lams = np.array([0.5, 1.3, 3.0])
    for _ in range(5):
        s = float(np.exp(rng.normal() * 0.8))
        th = rng.uniform(0, np.pi)
        r = rng.uniform(0.0, 0.6)
        g = a_t(s) @ k_theta(th)
        row = spectral.phi_pairing_row(lams, g, r)
        w = np.exp(2j * r) * 1j
        pt = PairPoint(w, -w).apply(g.m)
        for lam, val in zip(lams, row):
            oracle = phi_lambda(SpectralParam(float(lam)), pt)
            assert abs(val - oracle) < 1e-12 * max(1.0, abs(oracle))


def test_gutzmer_reduces_to_parseval_at_zero(weight):
    dens = spectral.gaussian_density(2.0, 0.7)
    chk = spectral.gutzmer_check(dens, 0.0, weight)
    assert chk.gap < 1e-3


def test_gutzmer_identity_and_monotone_rhs(weight):
    dens = spectral.gaussian_density(2.0, 0.7)
    rhs_vals = []
    for frac in (0.2, 0.5, 0.8):
        chk = spectral.gutzmer_check(dens, frac * math.pi / 4.0, weight)
        assert chk.gap < 1e-2
        rhs_vals.append(chk.rhs)
    assert rhs_vals[0] < rhs_vals[1] < rhs_vals[2]


@pytest.mark.parametrize("center, width, r", [(2.0, 0.7, 0.3927),
                                              (3.0, 1.0, 0.3),
                                              (0.5, 0.7, 0.6),
                                              (1.2, 0.4, 0.1)])
def test_gutzmer_rhs_against_mpmath(weight, center, width, r):
    # C Int |d(lam)|^2 lam tanh(pi lam/2) P_nu(cos 4r) d lam for the exact
    # Gaussian d; linear interpolation of its samples on the default lam
    # grid put the rhs 6e-5 to 4.4e-4 off
    x = mpmath.cos(4 * mpmath.mpf(r))

    def integrand(lam):
        return (mpmath.exp(-((lam - center) / width) ** 2) * lam
                * mpmath.tanh(mpmath.pi * lam / 2)
                * mpmath.re(mpmath.legenp((1j * lam - 1) / 2, 0, x, type=2)))

    ends = sorted({0.0, max(0.0, center - 3 * width), center,
                   center + 3 * width, center + 9 * width})
    oracle = weight.calibration_constant * float(mpmath.quad(integrand, ends))
    chk = spectral.gutzmer_check(spectral.gaussian_density(center, width), r,
                                 weight)
    assert abs(chk.rhs - oracle) < 1e-12 * oracle


def test_strip_norm_at_small_r_is_l2_mass(weight):
    dens = spectral.gaussian_density(2.0, 0.7)
    nodes, lam_w = spectral._adapted_lambda_quad(dens, weight)
    mass = float(np.sum(lam_w * np.abs(dens(nodes)) ** 2
                        * weight.density(nodes)))
    # the strip norm: the sup over torus angles r < R of the orbital mass
    norm = max(spectral.orbital_mass(dens, r, weight) for r in (0.0, 0.95e-4))
    assert abs(norm - mass) / mass < 1e-2


def test_gutzmer_gap_with_the_radial_cut_above_the_noise_floor(weight):
    # a tail tolerance of 1e-9 read the cut off aliasing noise and ran
    # the rho range to 30-37, integrating that noise: gap 3.6e-5
    chk = spectral.gutzmer_check(spectral.gaussian_density(3.0, 1.0), 0.3,
                                 weight)
    assert chk.gap < 5e-6


def test_orbital_mass_reuses_the_calibrated_phi_matrix(monkeypatch):
    # every reader of the phi matrix takes the one built by calibration
    weight = spectral.calibrate_parseval()

    def fresh_matrix(*args):
        raise AssertionError("a second phi matrix was built")

    monkeypatch.setattr(spectral, "phi_radial_matrix", fresh_matrix)
    dens = spectral.gaussian_density(3.0, 1.0)
    profile = lambda r: np.exp(-0.5 * (r / 0.7) ** 2)
    assert np.max(np.abs(spectral.spherical_transform(profile).values)) > 0
    assert spectral.parseval_check(profile, weight).gap < 1e-3
    assert spectral.gutzmer_check(dens, 0.3, weight).gap < 5e-6
    assert spectral.orbit_quadrature(dens, weight).rho_max > 0
    assert spectral.orbital_mass(dens, 0.3, weight) > 0


@pytest.mark.parametrize("center", [2.0, 0.5])
@pytest.mark.parametrize("r", [0.1, 0.6])
def test_orbital_mass_on_the_mirror_half(weight, center, r):
    # the theta rounds evaluate [0, pi/2] only; the reference sums |f|^2
    # over the full period at all n_theta nodes j pi/n
    dens = spectral.gaussian_density(center, 0.7)
    mass, quad = spectral._integrate_orbit(
        spectral.orbit_quadrature(dens, weight), r)
    n = quad.n_theta
    c = (np.cosh(quad.rho_nodes)[:, None] * math.cos(2 * r)
         + 1j * np.outer(np.sinh(quad.rho_nodes) * math.sin(2 * r),
                         np.cos(2 * np.arange(n) * (math.pi / n)))).ravel()
    f = quad.coeff @ spectral._legendre(quad.lam_nodes, 0.5 * (1 - c),
                                        0.5 * (1 + c))
    radial = 2 * math.pi * quad.rho_weights * np.sinh(quad.rho_nodes)
    reference = radial @ (np.abs(f) ** 2).reshape(-1, n).sum(axis=1) / n
    assert abs(mass - reference) <= 1e-14 * reference
    assert spectral.orbital_mass(dens, r, weight) == mass


def test_legendre_tables_are_built_per_owner_not_per_call(monkeypatch,
                                                          weight):
    names = ("_hyper_coef", "_harish_chandra_coef", "_log_coef")
    builds = {name: [] for name in names}   # the last k of each build

    def counted(name):
        build = getattr(spectral, name)

        def count(mu, n):
            builds[name].append(n if name != "_log_coef" else n.shape[1] - 1)
            return build(mu, n)
        return count

    for name in names:
        monkeypatch.setattr(spectral, name, counted(name))
    z = crown.elliptic_point(k_theta(0.3) @ a_t(1.7) @ n_x(0.2), 0.4)
    w = crown.elliptic_point(k_theta(2.1) @ a_t(0.6) @ n_x(-0.5), -0.3)
    first = spectral.hardy_kernel(z, w)
    for name in names:
        builds[name].clear()
    for _ in range(3):
        assert spectral.hardy_kernel(z, w) == first
    assert all(not ns for ns in builds.values())
    # one Gutzmer check through five theta rounds, 18 rule calls in all:
    # the rounds, their 512-point blocks and the rhs share one rule, and
    # each rebuild of a table at least doubles it
    chk = spectral.gutzmer_check(spectral.gaussian_density(2.0, 0.7), 0.75,
                                 weight)
    assert chk.gap < 1e-2 and chk.orbit.n_theta == 384
    for ns in builds.values():
        assert len(ns) <= 2
        assert all(b >= min(2 * a, spectral._MAX_TERMS)
                   for a, b in zip(ns, ns[1:]))


def test_automatic_radial_cut_matches_a_long_range(weight):
    dens = spectral.gaussian_density(2.0, 0.7)
    quad = spectral.orbit_quadrature(dens, weight)
    assert quad.tail_fraction <= spectral.RHO_TAIL_TOL
    assert quad.rho_max < 30.0
    auto = spectral.orbital_mass(dens, 0.3927, weight)
    long = spectral.orbital_mass(dens, 0.3927, weight, rho_max=30.0)
    assert abs(auto - long) / long < 1e-6


def test_csv_roundtrip(tmp_path):
    dens = spectral.spherical_transform(
        lambda r: np.exp(-0.5 * (r / 0.7) ** 2))
    path = tmp_path / "density.csv"
    dens.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.allclose(data[:, 0], dens.lambda_grid)
    assert np.allclose(data[:, 1] + 1j * data[:, 2], dens.values)


def test_pinned_spectral_numbers():
    # the README gutzmer example, as computed once the density was a
    # closed form rather than interpolated samples (rhs within 4e-15 of
    # test_gutzmer_rhs_against_mpmath's oracle), and the
    # `hardy-kernel --gram 5 --seed 7` Gram matrix, as computed before the
    # lam tables moved into LegendreRule and the theta rule onto its mirror
    # half
    chk = spectral.gutzmer_check(spectral.gaussian_density(2.0, 0.7), 0.3927)
    assert abs(chk.lhs - 0.2245291709552214) < 1e-14 * chk.lhs
    assert abs(chk.rhs - 0.2245291770268346) < 1e-14 * chk.rhs
    assert abs(chk.gap - 2.704153315325428e-08) < 1e-14
    pinned = np.array([
        [0.13178207641240042, 0.10570205098869426 + 0.011704495086595726j,
         0.12440513883650069 + 0.01588741834044582j,
         0.13565706892264115 + 6.445930310864185e-05j,
         0.08653647020249887 - 0.06711597597392845j],
        [0, 0.14336092925097257, 0.1329270721645792 + 0.013636822367907937j,
         0.11035452799497956 + 0.001925544916831533j,
         0.04286681784821352 - 0.03948206830320069j],
        [0, 0, 0.17109408232367823,
         0.11882718482345056 - 0.0026501174788986968j,
         0.08103732412206881 - 0.0750113030442241j],
        [0, 0, 0, 0.15408714073146118,
         0.0919558017449237 - 0.05820561401638259j],
        [0, 0, 0, 0, 0.35346272037245297]])
    rng = np.random.default_rng(7)
    pts = [crown.random_crown_point(rng, 0.6) for _ in range(5)]
    for i in range(5):
        for j in range(5):
            value = spectral.hardy_kernel(pts[i], pts[j])
            expected = pinned[i, j] if i <= j else np.conj(pinned[j, i])
            assert abs(value - expected) < 1e-14 * abs(expected)


def test_kernel_measure_admissibility():
    assert spectral.KernelMeasure(spectral.hardy_density()).admissible()
    fat = spectral.SpectralDensity(lambda lam: np.exp(-0.5 * lam),
                                   "exponential", decay_rate=0.5)
    assert not spectral.KernelMeasure(fat).admissible()
    with pytest.raises(AdmissibilityFailure):
        spectral.invariant_kernel(spectral.KernelMeasure(fat),
                                  BASE_POINT, BASE_POINT)


def test_kernel_base_value_is_total_mass(weight):
    value = spectral.hardy_kernel(BASE_POINT, BASE_POINT)
    nodes, lam_w = spectral.spectral_grid().lam_rule(spectral.KERNEL_LAM_MAX)
    direct = float(np.sum(lam_w * spectral.hardy_density()(nodes).real))
    assert abs(value.real - direct) < 1e-6
    assert abs(value.imag) < 1e-10


@pytest.mark.parametrize("eps, value", [(1e-3, 0.6418345936473534),
                                        (1e-8, 1.9349227023326565),
                                        (1e-30, 7.635823679555382)])
def test_hardy_kernel_at_the_crown_edge(eps, value):
    # K(z, z) at z = (eps i, -i), where c = -1 + 8 eps/(1 + eps)^2; the
    # values sum mpmath's Legendre function at 40 digits over the kernel's
    # lam rule.  A pairing whose x-grid clustered no finer than 1e-9
    # returned 3.02404 at eps = 1e-30.
    z = PairPoint(eps * 1j, -1j)
    k = spectral.hardy_kernel(z, z)
    assert abs(k - value) < 1e-12 * value


def test_kernel_hermitian_and_positive(rng):
    pts = [random_crown_point(rng, 0.6) for _ in range(5)]
    gram = np.zeros((5, 5), dtype=complex)
    for i in range(5):
        for j in range(i, 5):
            gram[i, j] = spectral.hardy_kernel(pts[i], pts[j])
            gram[j, i] = np.conj(gram[i, j])
    # diagonal is real positive
    assert np.all(np.diag(gram).real > 0)
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-7 * np.trace(gram).real


def test_kernel_g_invariance(rng):
    for _ in range(5):
        g = random_real_element(rng, 0.5)
        z, w = random_crown_point(rng, 0.5), random_crown_point(rng, 0.5)
        k1 = spectral.hardy_kernel(z, w)
        k2 = spectral.hardy_kernel(z.apply(g.m), w.apply(g.m))
        assert abs(k1 - k2) < 1e-6 * max(abs(k1), 1e-12)


def test_kernel_g_invariance_on_a_pinned_pair():
    # a fixed x-grid that ignored the pulled vectors' roots missed this
    # pair by 3.8e-5
    z = crown.elliptic_point(k_theta(0.9586) @ a_t(0.7061) @ n_x(-0.482),
                             -0.5492)
    w = crown.elliptic_point(k_theta(0.0029) @ a_t(3.9107) @ n_x(0.6111),
                             0.4399)
    g = k_theta(2.5314) @ a_t(1.3998) @ n_x(0.2008)
    k1 = spectral.hardy_kernel(z, w)
    k2 = spectral.hardy_kernel(z.apply(g.m), w.apply(g.m))
    assert abs(k1 - k2) < 1e-6 * abs(k1)


def test_orbital_mass_domain_errors():
    dens = spectral.gaussian_density(2.0, 0.7)
    with pytest.raises(DomainError):
        spectral.orbital_mass(dens, math.pi / 4)


@pytest.mark.parametrize("r", [-1e-3, math.pi / 4, math.nan])
def test_torus_angle_outside_the_band(r):
    with pytest.raises(DomainError):
        spectral.doubled_torus_values(np.array([1.0]), r)
