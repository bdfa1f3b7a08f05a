"""Crown membership, parameterizations, matching, boundary, quadric model."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from conftest import (log_uniform_crown_pairs, random_crown_point,
                      random_real_element)
from crownkit import crown
from crownkit.errors import (DomainError, NotInCrown, NotOnBoundary,
                             NumericalDrift, PointAtInfinity)
from crownkit.liecore import IDENTITY, LieVector, k_theta
from crownkit.pairmodel import (BASE_POINT, BOUNDARY_BASE, INFINITY,
                                PairPoint)


def test_base_point_membership():
    assert crown.crown_contains(BASE_POINT)
    assert not crown.crown_contains(PairPoint(2j, 3j))
    assert not crown.crown_contains(PairPoint(INFINITY, -1j))


def test_elliptic_rotation_points():
    for phi in np.linspace(-0.78, 0.78, 21):
        w = np.exp(2j * phi) * 1j
        assert crown.crown_contains(PairPoint(w, -w)) == (abs(phi) < np.pi / 4)


def test_half_crowns():
    assert crown.xi_pm_contains(PairPoint(1j, 5.0 + 0j), "+")
    assert not crown.xi_pm_contains(PairPoint(1j, 5.0 + 0j), "-")
    assert not crown.xi_pm_contains(PairPoint(-1j, -1j + 1.0), "+")
    z = random_crown_point(np.random.default_rng(1))
    assert crown.xi_pm_contains(z, "+") and crown.xi_pm_contains(z, "-")


def test_g_invariance_of_membership(rng):
    for _ in range(200):
        z = random_crown_point(rng)
        g = random_real_element(rng)
        assert crown.crown_contains(z.apply(g.m))


def test_elliptic_point_values():
    assert crown.pair_distance(crown.elliptic_point(IDENTITY, 0.0),
                               BASE_POINT) <= 1e-9
    z = crown.elliptic_point(IDENTITY, math.pi / 8.0)
    assert abs(z.first - np.exp(1j * math.pi / 4.0) * 1j) < 1e-15
    with pytest.raises(DomainError):
        crown.elliptic_point(IDENTITY, math.pi / 4.0)


def test_unipotent_point_values(rng):
    assert crown.pair_distance(crown.unipotent_point(IDENTITY, 0.0),
                               BASE_POINT) <= 1e-9
    z = crown.unipotent_point(IDENTITY, 0.5)
    assert abs(z.first - 1.5j) < 1e-15 and abs(z.second + 0.5j) < 1e-15
    for _ in range(100):
        z = crown.unipotent_point(random_real_element(rng),
                                  rng.uniform(-0.99, 0.99))
        assert crown.crown_contains(z)


def test_match_orbits_identity_and_residuals():
    m0 = crown.match_orbits(0.0)
    assert m0.boost == 0.0 and m0.residual < 1e-15
    for phi in np.linspace(0.0, 0.95, 50) * math.pi / 4.0:
        assert crown.match_orbits(float(phi)).residual < 1e-9


def test_match_orbits_blowup_scan():
    boosts = [crown.match_orbits(f * math.pi / 4.0).boost
              for f in (0.9, 0.99, 0.999)]
    assert boosts[0] < boosts[1] < boosts[2]  # diverges toward the corner


def test_match_orbits_at_the_last_double_below_pi_over_4():
    # cos(2 phi) = 2.8e-16 there, so the boost scale is 5.9e7: finite
    for phi in (np.nextafter(math.pi / 4.0, 0.0),
                -np.nextafter(math.pi / 4.0, 0.0)):
        m = crown.match_orbits(float(phi))
        assert m.residual < 1e-15
        assert m.boost == pytest.approx(35.8, abs=1e-3)


def test_match_boost_solves_tanh_equation(rng):
    # transported to the quadric, the boost r solves
    # tanh r = (y^2/2)/(1 - y^2/2) with y = sin(2 phi)
    for _ in range(20):
        phi = rng.uniform(0.0, 0.9) * math.pi / 4.0
        y = math.sin(2.0 * phi)
        r = crown.match_orbits(phi).boost
        assert abs(math.tanh(r) - (y * y / 2.0) / (1.0 - y * y / 2.0)) < 1e-12


def test_tangent_bundle_roundtrip(rng):
    worst = 0.0
    for _ in range(500):
        z = random_crown_point(rng)
        coords = crown.point_to_tangent(z)
        back = crown.tangent_to_point(coords)
        worst = max(worst, crown.pair_distance(z, back))
    assert worst < 1e-9


def test_tangent_base_cases():
    coords = crown.point_to_tangent(BASE_POINT)
    assert abs(coords.y.c_h) < 1e-12
    phi = 0.3
    z = crown.elliptic_point(IDENTITY, phi)
    coords = crown.point_to_tangent(z)
    assert abs(abs(coords.y.c_h) - phi) < 1e-12
    with pytest.raises(NotInCrown):
        crown.point_to_tangent(PairPoint(2j, 3j))


def test_tangent_forward_diagonal_vs_rotated(rng):
    # [g, k phi h k^T] and [g k, phi h] are the same bundle class
    for _ in range(50):
        g = random_real_element(rng)
        phi = rng.uniform(0, 0.7)
        theta = rng.uniform(0, np.pi)
        k = k_theta(theta)
        y_rot = phi * (k.m.real @ np.diag([1.0, -1.0]) @ k.m.real.T)
        c1 = crown.TangentBundleCoords(
            g, LieVector(c_h=y_rot[0, 0], c_e=y_rot[0, 1], c_f=y_rot[1, 0]))
        c2 = crown.TangentBundleCoords(g @ k, LieVector(c_h=phi))
        assert crown.pair_distance(crown.tangent_to_point(c1),
                                   crown.tangent_to_point(c2)) < 1e-12


def _far_points(rng, scale, n=2000):
    for _ in range(n):
        g = random_real_element(rng, scale)
        phi = rng.uniform(-0.99, 0.99) * crown.OMEGA_RADIUS
        yield phi, crown.elliptic_point(g, phi)


def test_tangent_roundtrip_far_from_the_base():
    # log t and x of the base have deviation 4: far enough out that a
    # factorization of the symmetric model loses its determinant (a
    # ValueError) or its angle (NotInCrown) on a quarter of these points
    rng = np.random.default_rng(24)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _, z in _far_points(rng, 4.0):
            back = crown.tangent_to_point(crown.point_to_tangent(z))
            assert crown.pair_distance(z, back) <= 1e-12, z


def test_tangent_angle_near_the_base():
    rng = np.random.default_rng(8)
    for phi, z in _far_points(rng, 0.8):
        assert abs(crown.point_to_tangent(z).y.c_h - abs(phi)) <= 1e-13


def test_tangent_roundtrips_over_sixteen_decades():
    rng = np.random.default_rng(3)
    for z in log_uniform_crown_pairs(rng, 2000, 1e-8, 1e8):
        back = crown.tangent_to_point(crown.point_to_tangent(z))
        assert crown.pair_distance(back, z) <= 1e-9, z


def test_tangent_refuses_the_band_edge_and_overflow():
    # the angle of (3 + 1e-300i, 3.1 - 1e-300i) rounds to pi/4, and the base
    # point of the last pair overflows; neither may return coordinates
    with pytest.raises(NotInCrown):
        crown.point_to_tangent(PairPoint(3 + 1e-300j, 3.1 - 1e-300j))
    with pytest.raises(NumericalDrift):
        crown.point_to_tangent(PairPoint(1.5e308 + 1e308j, 1.5e308 - 1e308j))
    z = crown.elliptic_point(IDENTITY, float(np.nextafter(math.pi / 4.0, 0)))
    assert crown.point_to_tangent(z).y.c_h < crown.OMEGA_RADIUS


def test_boundary_classification():
    assert crown.boundary_classify(BOUNDARY_BASE).stratum == "distinguished"
    assert crown.boundary_classify(PairPoint(2j, 0.0 + 0j)).stratum \
        == "unipotent_plus"
    assert crown.boundary_classify(PairPoint(0.0 + 0j, -2j)).stratum \
        == "unipotent_minus"
    with pytest.raises(NotOnBoundary):
        crown.boundary_classify(BASE_POINT)
    with pytest.raises(NotOnBoundary):
        crown.boundary_classify(PairPoint(2j, 1j))  # outside closure


def test_boundary_strata_disjoint_under_tighter_tol(rng):
    # a point classified in one stratum at tol stays there at tol/10
    for _ in range(50):
        g = random_real_element(rng)
        z = PairPoint(1j * 2.0, 0.0 + 0.0j).apply(g.m)  # unipotent orbit
        c1 = crown.boundary_classify(z, 1e-8)
        c2 = crown.boundary_classify(z, 1e-9)
        assert c1.stratum == c2.stratum == "unipotent_plus"


def test_distinguished_cone_data(rng):
    for _ in range(30):
        u, v = sorted(rng.normal(size=2) * 3.0)[::-1]
        if abs(u - v) < 1e-3:
            continue
        z = PairPoint(complex(u), complex(v))
        cls = crown.boundary_classify(z)
        assert cls.stratum == "distinguished"
        g, cone_vec = cls.cone_data
        assert g.is_real
        assert crown.pair_distance(BOUNDARY_BASE.apply(g.m), z) < 1e-9


def test_quadric_base_and_boundary_points():
    q = crown.to_quadric(BASE_POINT)
    assert np.allclose(q.z, [1.0, 0.0, 0.0])
    # the distinguished limit of the elliptic ray: quadric angle doubles
    z = crown.elliptic_point(IDENTITY, math.pi / 4.0 - 1e-12)
    q = crown.to_quadric(z)
    assert abs(q.z[2] - 1j) < 1e-6 and abs(q.z[0]) < 1e-6


def test_quadric_roundtrip_and_gindikin(rng):
    for _ in range(1000):
        z = random_crown_point(rng)
        q = crown.to_quadric(z)
        assert q.form_residual() < 1e-8
        assert crown.gindikin_contains(q) == crown.crown_contains(z)
        assert crown.pair_distance(crown.from_quadric(q), z) < 1e-9


def test_quadric_matches_the_closed_form_far_out():
    # the sum a + w^2/a for the entry s00 of the symmetric model cancels at
    # z1 = 1e20 and 1e120, and the raw form rounds to 0 at n_1e6 x0; the
    # coordinates are i(z1 z2 + 1, z1 + z2, z1 z2 - 1)/(z1 - z2)
    for z in (PairPoint(1e20 + 0j, -1j), PairPoint(1e120 + 0j, -1j),
              PairPoint(1e6 + 1j, 1e6 - 1j), PairPoint(1e6 + 0j, -1j)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = crown.to_quadric(z)
        with mpmath.workdps(40):
            u, v = mpmath.mpc(z.first), mpmath.mpc(z.second)
            exact = [1j * (u * v + 1) / (u - v), 1j * (u + v) / (u - v),
                     1j * (u * v - 1) / (u - v)]
            size = max(1.0, float(np.max(np.abs(q.z))))
            for got, want in zip(q.z, exact):
                assert abs(mpmath.mpc(complex(got)) - want) <= 1e-15 * size
        assert crown.pair_distance(crown.from_quadric(q), z) <= 1e-9


def test_quadric_roundtrips_over_sixteen_decades():
    # the sum a + w^2/a for s00 loses up to 4e-9 of the roundtrip here
    rng = np.random.default_rng(3)
    for z in log_uniform_crown_pairs(rng, 2000, 1e-8, 1e8):
        back = crown.from_quadric(crown.to_quadric(z))
        assert crown.pair_distance(back, z) <= 1e-9, z


def test_from_quadric_at_real_z0_below_minus_one_and_at_infinity():
    # real z0 <= -1 is the slit of a square-root inverse: s = -Id is the
    # symmetric model of diag(i, -i), which sends (i, -i) to (-i, i), and
    # (-2i, 2i) has z0 = -5/4
    back = crown.from_quadric(crown.QuadricPoint([-1.0, 0.0, 0.0]))
    assert back.first == -1j and back.second == 1j
    z = PairPoint(-2j, 2j)
    q = crown.to_quadric(z)
    assert q.z[0] == -1.25
    assert crown.pair_distance(crown.from_quadric(q), z) < 1e-15
    # s11 = 0 and z1 = i: the first coordinate is at infinity
    with pytest.raises(PointAtInfinity):
        crown.from_quadric(crown.QuadricPoint([0.0, 1j, 0.0]))


def test_chordal_distance_far_out_and_near_zero():
    def chordal(z, w):
        z, w = mpmath.mpc(z), mpmath.mpc(w)
        return abs(z - w) / mpmath.sqrt((1 + abs(z) ** 2) * (1 + abs(w) ** 2))

    with mpmath.workdps(40):
        for z, w in ((1e300 + 0j, -1j), (1e300 + 1e300j, -2e300j),
                     (1e-300 + 0j, -1e-300j), (1e-300j, 1e300 + 0j)):
            want = chordal(z, w)
            got = crown.chordal_distance(z, w)
            assert abs(got - want) <= 4e-16 * want
        assert crown.chordal_distance(INFINITY, 1e300 + 0j) == pytest.approx(
            1e-300, rel=1e-15)


def test_quadric_keeps_large_coordinates_without_cancellation():
    # coordinates of size 1e4 round the form by about eps |coords|^2, which
    # the quadric allows relative to their size: n_100 x0, and a distinguished
    # boundary point with coordinates near 1e4
    z = PairPoint(100 + 1j, 100 - 1j)
    q = crown.to_quadric(z)
    assert np.allclose(q.z, [5001.0, 100.0, 5000.0], rtol=1e-12)
    assert crown.pair_distance(crown.from_quadric(q), z) < 1e-9
    cls = crown.boundary_classify(PairPoint(101 + 0j, 100 + 0j))
    assert cls.stratum == "distinguished" and cls.cone_data is not None


def test_gindikin_rejects_outside():
    w = np.exp(2j * 0.9) * 1j  # angle beyond the crown band
    q = crown.to_quadric(PairPoint(w, -w))
    assert not crown.gindikin_contains(q)


def test_distinguished_points_purely_imaginary_quadric(rng):
    for _ in range(100):
        u, v = rng.normal(size=2) * 2.0
        if abs(u - v) < 1e-2:
            continue
        q = crown.to_quadric(PairPoint(complex(u), complex(v)))
        assert np.max(np.abs(q.z.real)) < 1e-9
        imag = q.z.imag
        assert abs(imag[0] ** 2 - imag[1] ** 2 - imag[2] ** 2 + 1.0) < 1e-8
