"""Spherical transform, Parseval calibration, orbital identity, kernels."""

import math

import mpmath
import numpy as np
import pytest

from conftest import random_crown_point, random_real_element
from crownkit import crown, spectral
from crownkit.errors import AdmissibilityFailure, DomainError
from crownkit.liecore import a_t, k_theta, n_x
from crownkit.pairmodel import BASE_POINT, PairPoint
from crownkit.repn import SpectralParam, continue_vK, phi_lambda, rep_norm


@pytest.fixture(scope="module")
def weight():
    return spectral.calibrated_weight()


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
    nodes, lam_w = spectral._lambda_quad()
    phi = spectral._default_phi_matrix()
    r_nodes, r_w = spectral._radial_quad()
    coeff = lam_w * dens(nodes) * weight.density(nodes)
    f_vals = coeff @ phi
    back = 2 * np.pi * phi @ (r_w * f_vals * np.sinh(r_nodes))
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
            assert abs(val - oracle) < 5e-6 * max(1.0, abs(oracle))


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


def test_strip_norm_at_small_r_is_l2_mass(weight):
    dens = spectral.gaussian_density(2.0, 0.7)
    nodes, lam_w = spectral._adapted_lambda_quad(dens, weight)
    mass = float(np.sum(lam_w * np.abs(dens(nodes)) ** 2
                        * weight.density(nodes)))
    norm = spectral.strip_norm(dens, 1e-4, weight, n_r=2)
    assert abs(norm - mass) / mass < 1e-2


def test_gutzmer_gap_with_the_radial_cut_above_the_noise_floor(weight):
    # a tail tolerance of 1e-9 read the cut off aliasing noise and ran
    # the rho range to 30-37, integrating that noise: gap 3.6e-5
    chk = spectral.gutzmer_check(spectral.gaussian_density(3.0, 1.0), 0.3,
                                 weight)
    assert chk.gap < 5e-6


def test_orbital_mass_reuses_the_calibrated_phi_matrix(monkeypatch):
    weight = spectral.calibrate_parseval()

    def fresh_matrix(*args):
        raise AssertionError("orbital_mass built a phi matrix")

    monkeypatch.setattr(spectral, "phi_radial_matrix", fresh_matrix)
    mass = spectral.orbital_mass(spectral.gaussian_density(3.0, 1.0), 0.3,
                                 weight)
    assert mass > 0


def test_automatic_radial_cut_matches_a_long_range(weight):
    dens = spectral.gaussian_density(2.0, 0.7)
    quad = spectral.orbit_quadrature(dens, weight)
    assert quad.tail_fraction <= spectral.RHO_TAIL_TOL
    assert quad.rho_max < 30.0
    auto = spectral.orbital_mass(dens, 0.3927, weight)
    long = spectral.orbital_mass(dens, 0.3927, weight, rho_max=30.0)
    assert abs(auto - long) / long < 1e-6


def test_eR_membership():
    dens = spectral.gaussian_density(2.0, 0.7)
    assert spectral.eR_membership(dens, 0.9 * math.pi / 4)
    grid = spectral.default_lambda_grid(16.0)
    growing = spectral.SpectralDensity(grid, np.exp(3.0 * grid) * 1e-20,
                                       "polynomial")
    assert not spectral.eR_membership(growing, math.pi / 4)
    # exponential tag with insufficient rate
    slow = spectral.SpectralDensity(grid, np.exp(-0.1 * grid),
                                    "exponential", decay_rate=0.1)
    assert not spectral.eR_membership(slow, 0.8 * math.pi / 4)


def test_csv_roundtrip(tmp_path):
    dens = spectral.gaussian_density(1.5, 0.5)
    path = tmp_path / "density.csv"
    dens.to_csv(path)
    back = spectral.SpectralDensity.from_csv(path)
    assert np.allclose(back.lambda_grid, dens.lambda_grid)
    assert np.allclose(back.values, dens.values)


def test_kernel_measure_admissibility():
    assert spectral.KernelMeasure(spectral.hardy_density()).admissible()
    grid = spectral.default_lambda_grid(16.0)
    fat = spectral.SpectralDensity(grid, np.exp(-0.5 * grid),
                                   "exponential", decay_rate=0.5)
    assert not spectral.KernelMeasure(fat).admissible()
    with pytest.raises(AdmissibilityFailure):
        spectral.invariant_kernel(spectral.KernelMeasure(fat),
                                  BASE_POINT, BASE_POINT)


def test_kernel_base_value_is_total_mass(weight):
    value = spectral.hardy_kernel(BASE_POINT, BASE_POINT)
    nodes, lam_w = spectral._lambda_quad(16.0)
    direct = float(np.sum(lam_w * spectral.hardy_density()(nodes).real))
    assert abs(value.real - direct) < 1e-6
    assert abs(value.imag) < 1e-10


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


def test_poisson_kernel_polarization(rng):
    for _ in range(20):
        z = complex(rng.normal(), abs(rng.normal()) + 0.1)
        val = spectral.poisson_kernel(z, np.conj(z))
        classical = z.imag / (math.pi * abs(z) ** 2)
        assert abs(val - classical) < 1e-12 * max(1.0, classical)


def test_poisson_extension_recovers_harmonic_value():
    # boundary data 1/(1+x^2): its harmonic (mu = 1) extension at iy is
    # (y + 1)/((1 + y)^2) * pi / pi ... checked against direct quadrature
    from scipy import integrate as sci
    boundary = lambda x: 1.0 / (1.0 + np.asarray(x) ** 2)
    z = 0.3 + 1.2j
    mine = spectral.poisson_extension(boundary, 1.0, z, np.conj(z))
    oracle, _ = sci.quad(
        lambda x: (1 / (1 + x * x)) * (z.imag / math.pi
                                       / abs(z - x) ** 2), -60, 60)
    assert abs(mine - oracle) < 1e-6


def test_orbital_mass_domain_errors():
    dens = spectral.gaussian_density(2.0, 0.7)
    with pytest.raises(DomainError):
        spectral.orbital_mass(dens, math.pi / 4)
