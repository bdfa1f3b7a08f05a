"""Horospherical logarithm, convexity, trace domains, escape curve."""

import cmath
import math

import numpy as np
import pytest

from conftest import random_crown_point, random_real_element
from crownkit import crown, horo, spectral
from crownkit.errors import DomainError, NotInCrown
from crownkit.liecore import (IDENTITY, OMEGA_RADIUS, a_t,
                              complex_na_decompose, k_theta, n_x, p_of_pair)
from crownkit.pairmodel import BASE_POINT, PairPoint


def test_log_ac_normalization_and_real_points():
    assert horo.log_aC(BASE_POINT).value == 0.0
    for x, t in [(0.0, 2.0), (1.5, 0.7), (-3.0, 1.2)]:
        z = (n_x(x) @ a_t(t)).pair_point()
        proj = horo.log_aC(z)
        assert abs(proj.value - math.log(t)) < 1e-12
        assert abs(proj.value.imag) < 1e-15


def test_log_ac_exp_reproduces_torus_part(rng):
    for _ in range(200):
        z = random_crown_point(rng)
        proj = horo.log_aC(z)
        dec = complex_na_decompose(z)
        gap = min(abs(proj.torus_parameter() - dec.a_part),
                  abs(proj.torus_parameter() + dec.a_part))
        assert gap < 1e-11


def test_log_ac_outside_crown():
    with pytest.raises(NotInCrown):
        horo.log_aC(PairPoint(2j, 3j))


def test_closed_form_anchors():
    for phi in (-0.5, 0.0, 0.3, 0.7):
        assert abs(horo.aC_closed_form(0.0, phi)
                   - np.exp(1j * phi)) < 1e-15
    # base point is rotation-fixed, so the parameter is identically one
    for th in np.linspace(0, 2 * np.pi, 17):
        assert abs(horo.aC_closed_form(float(th), 0.0) - 1.0) < 1e-15


def test_closed_form_vs_brute_force_grid():
    thetas = np.linspace(0.0, 2 * np.pi, 100, endpoint=False)
    phis = np.linspace(-0.9, 0.9, 100) * math.pi / 4.0
    worst = 0.0
    for phi in phis:
        for th in thetas:
            closed = horo.aC_closed_form(float(th), float(phi))
            dec = complex_na_decompose(
                crown.elliptic_point(k_theta(float(th)), float(phi)))
            worst = max(worst, min(abs(closed - dec.a_part),
                                   abs(closed + dec.a_part)))
    assert worst < 1e-10


def test_convexity_containment_and_attainment():
    scan = horo.convexity_scan(0.0, 64)
    assert scan.min_im == scan.max_im == 0.0
    for frac in (0.1, 0.3, 0.7):
        phi = frac * math.pi / 4.0
        scan = horo.convexity_scan(phi, 10000)
        assert scan.violation <= 1e-9
        assert scan.endpoint_gap <= 1e-6


def test_convexity_orbit_values_within_band(rng):
    for _ in range(20):
        phi = rng.uniform(0.05, 0.95) * math.pi / 4.0
        z = crown.elliptic_point(IDENTITY, phi)
        for theta in rng.uniform(0, 2 * np.pi, size=500):
            im = horo.log_aC(z.apply(k_theta(theta).m)).value.imag
            assert -phi - 1e-12 <= im <= phi + 1e-12


def test_trace_domain_base_cases():
    assert horo.trace_domain_contains(horo.TraceDomainSpec(OMEGA_RADIUS), 2.0)
    assert horo.trace_domain_contains(horo.DOUBLED_OMEGA, 2.0)
    assert not horo.trace_domain_contains(horo.DOUBLED_OMEGA, -3.0)
    assert horo.trace_domain_contains(horo.DOUBLED_OMEGA, -3.0 + 0.5j)
    assert not horo.trace_domain_contains(
        horo.TraceDomainSpec(OMEGA_RADIUS), -1.0)


def test_trace_domain_inclusion_random_band(rng):
    # points on g exp(i phi h) x0 with |phi| < b land inside the b-domain
    for _ in range(2000):
        b = rng.uniform(0.1, 1.0) * math.pi / 4.0
        phi = rng.uniform(-0.999, 0.999) * b
        value = p_of_pair(crown.elliptic_point(random_real_element(rng), phi))
        assert horo.trace_domain_contains(horo.TraceDomainSpec(b), value)


def test_trace_domain_sampled_region_oracle(rng):
    # the closed-form membership against a dense parametric sample
    b = 0.55 * math.pi / 4.0
    ts = np.exp(np.linspace(-3, 3, 400))
    phis = np.linspace(-b, b, 401)
    cloud = []
    for phi in phis[1:-1]:
        vals = (np.cos(2 * phi) * (ts ** 2 + ts ** -2)
                + 1j * np.sin(2 * phi) * (ts ** 2 - ts ** -2))
        cloud.append(vals)
    cloud = np.concatenate(cloud)
    for v in cloud[:: len(cloud) // 200]:
        assert horo.trace_domain_contains(horo.TraceDomainSpec(b), v)
    # and points built with angles beyond b are excluded
    for phi in (1.3 * b, 1.8 * b):
        if phi < math.pi / 4:
            v = 2.0 * np.exp(2j * phi)
            assert not horo.trace_domain_contains(horo.TraceDomainSpec(b), v)


def test_escape_curve_endpoints_and_monotonicity(rng):
    for _ in range(20):
        phi = rng.uniform(math.pi / 4 + 1e-6, math.pi / 2 - 1e-6)
        grid = np.linspace(0.0, 1.0, 200)
        sig = [horo.escape_curve(phi, float(s)).sigma for s in grid]
        assert abs(sig[0] - 2.0) < 1e-12
        assert abs(sig[-1] + 2.0) < 1e-12
        assert all(b < a for a, b in zip(sig, sig[1:]))
        assert all(-2.0 - 1e-12 <= s <= 2.0 + 1e-12 for s in sig)


def test_escape_curve_matches_trace_of_its_point(rng):
    for _ in range(20):
        phi = rng.uniform(math.pi / 4 + 0.05, math.pi / 2 - 0.05)
        s = rng.uniform(0.0, 1.0)
        sample = horo.escape_curve(phi, s)
        # the point gamma(s) exp(i phi(s) h) x0 the curve traces: the angle
        # sweeps to phi on the first leg, and the boost acts on the second
        angle = 2.0 * s * phi if s <= 0.5 else phi
        w = cmath.exp(2j * angle) * 1j
        point = PairPoint(w, -w).apply(sample.g.m)
        assert abs(p_of_pair(point) - sample.sigma) < 1e-9


def test_escape_domain_errors():
    with pytest.raises(DomainError):
        horo.escape_curve(0.2, 0.5)
    with pytest.raises(DomainError):
        horo.escape_curve(1.0, 1.5)


def test_unipotent_boundary_trace_formula(rng):
    # p(a_r n_{it} x0) = r^2 + 1/r^2 - t^2 r^2; for |t| < 1 the infimum over
    # r is 2 sqrt(1 - t^2) > -2, approaching the slit tip only as |t| -> 1
    for _ in range(50):
        r = float(np.exp(rng.normal() * 0.7))
        t = rng.uniform(-0.99, 0.99)
        z = PairPoint(1j * (1.0 + t), 1j * (t - 1.0)).apply(a_t(r).m)
        expected = r ** 2 + r ** -2 - t ** 2 * r ** 2
        assert abs(p_of_pair(z) - expected) < 1e-9 * max(1.0, abs(expected))
    t = 0.999
    rs = np.exp(np.linspace(-2, 2, 801))
    vals = rs ** 2 + rs ** -2 - t ** 2 * rs ** 2
    assert abs(vals.min() - 2.0 * math.sqrt(1 - t * t)) < 1e-4


def test_blowup_scan_positive_increasing():
    # along the escape curve the spherical function is P_nu(sigma/2) at the
    # curve's trace sigma, which grows without bound toward the slit tip
    sigma = np.array([horo.escape_curve(3 * math.pi / 8, s).sigma
                      for s in (0.0, 0.5, 0.9, 0.99, 0.999)])
    values = spectral._legendre(np.array([1.0]), 0.5 - 0.25 * sigma,
                                0.5 + 0.25 * sigma)[0]
    assert abs(values[0] - 1.0) < 1e-14  # starts at the base-point value
    assert np.all(np.abs(values.imag) < 1e-14)
    assert np.all(values.real > 0)
    assert np.all(np.diff(values.real) > 0)
