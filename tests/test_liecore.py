"""Matrix models, exponentials, and the horospherical decompositions."""

import cmath
import math

import numpy as np
import pytest

from conftest import random_real_element
from crownkit.errors import DiagonalPoint, PointAtInfinity
from crownkit.liecore import (E_VEC, H_VEC, IDENTITY, LieVector, U_VEC, a_t,
                              complex_na_decompose, exp_lie, k_theta, n_x,
                              p_invariant, p_of_pair, sym_model)
from crownkit.pairmodel import BASE_POINT, PairPoint
from crownkit import crown


def test_exp_of_zero_is_identity():
    assert np.max(np.abs(exp_lie(LieVector(), 1.0).m - IDENTITY.m)) <= 1e-12


def test_exp_h_gives_elliptic_phase():
    phi = 0.37
    g = exp_lie(H_VEC, 1j * phi)
    assert np.allclose(g.m, np.diag([cmath.exp(1j * phi),
                                     cmath.exp(-1j * phi)]))


def test_exp_e_gives_imaginary_translation():
    g = exp_lie(E_VEC, 1j)
    assert np.allclose(g.m, np.array([[1.0, 1j], [0.0, 1.0]]))


def test_one_parameter_property(rng):
    for _ in range(100):
        v = LieVector(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
        s, t = rng.normal(size=2)
        left = exp_lie(v, s) @ exp_lie(v, t)
        assert np.max(np.abs(left.m - exp_lie(v, s + t).m)) <= 1e-11


def test_exp_matches_scipy(rng):
    from scipy.linalg import expm
    for _ in range(30):
        v = LieVector(*(rng.normal(size=3)))
        scale = complex(rng.normal(), rng.normal())
        assert np.allclose(exp_lie(v, scale).m, expm(scale * v.matrix()),
                           atol=1e-11)


def test_complex_na_base_point():
    dec = complex_na_decompose(BASE_POINT)
    assert abs(abs(dec.a_part) - 1.0) < 1e-15
    assert abs(dec.a_part ** 2 - 1.0) < 1e-15  # representative of +-1
    assert dec.n_part == 0.0


def test_complex_na_translation():
    dec = complex_na_decompose(PairPoint(1j + 3.0, -1j + 3.0))
    assert abs(dec.n_part - 3.0) < 1e-15
    assert abs(dec.a_part ** 2 - 1.0) < 1e-15


def test_complex_na_roundtrip(rng):
    for _ in range(1000):
        z = PairPoint(complex(rng.normal(), rng.normal()),
                      complex(rng.normal(), rng.normal()))
        try:
            dec = complex_na_decompose(z)
        except DiagonalPoint:
            continue
        assert crown.pair_distance(dec.reassemble(), z) < 1e-12
        # representative convention: argument in (-pi/2, pi/2]
        assert -math.pi / 2 < cmath.phase(dec.a_part) <= math.pi / 2 + 1e-15


def test_complex_na_errors():
    from crownkit.pairmodel import INFINITY
    with pytest.raises(PointAtInfinity):
        complex_na_decompose(PairPoint(INFINITY, 1j))


def test_sym_model_base_and_elliptic():
    assert np.allclose(sym_model(IDENTITY), np.eye(2))
    assert abs(p_invariant(IDENTITY) - 2.0) < 1e-15
    phi = 0.3
    g = exp_lie(H_VEC, 1j * phi)
    assert np.allclose(sym_model(g), np.diag([np.exp(2j * phi),
                                              np.exp(-2j * phi)]))
    assert abs(p_invariant(g) - 2.0 * math.cos(2 * phi)) < 1e-14


def test_sym_model_right_KC_invariance(rng):
    for _ in range(20):
        g = random_real_element(rng)
        kc = exp_lie(U_VEC, complex(rng.normal(), rng.normal()) * 0.3)
        assert np.allclose(sym_model(g @ kc), sym_model(g), atol=1e-10)


def test_p_invariant_left_K_right_KC(rng):
    for _ in range(50):
        g = random_real_element(rng)
        k = k_theta(rng.uniform(0, 2 * np.pi))
        kc = exp_lie(U_VEC, complex(rng.normal(), rng.normal()) * 0.3)
        p0 = p_invariant(g)
        assert abs(p_invariant(k @ g) - p0) < 1e-12 * max(1, abs(p0))
        assert abs(p_invariant(g @ kc) - p0) < 1e-10 * max(1, abs(p0))


def test_p_explicit_formula(rng):
    # upper-triangular frame: p = cos(2 phi)(a^2 + a^-2 + b^2)
    #                             + i sin(2 phi)(a^2 - a^-2 - b^2)
    for _ in range(30):
        a = float(np.exp(rng.normal()))
        b = float(rng.normal())
        phi = rng.uniform(-0.99, 0.99) * math.pi / 4.0
        g = a_t(a) @ n_x(b / a)  # [[a, b], [0, 1/a]]
        assert np.allclose(g.m, [[a, b], [0.0, 1.0 / a]])
        z = crown.elliptic_point(g, phi)
        expected = (math.cos(2 * phi) * (a * a + a ** -2 + b * b)
                    + 1j * math.sin(2 * phi) * (a * a - a ** -2 - b * b))
        assert abs(p_of_pair(z) - expected) < 1e-10 * max(1.0, abs(expected))


def test_lievector_domains():
    assert LieVector(c_h=0.5, c_e=0.5, c_f=0.5).in_omega_hat()
    assert not LieVector(c_h=0.7, c_e=0.5, c_f=0.5).in_omega_hat()


def test_group_element_determinant_check():
    with pytest.raises(ValueError):
        from crownkit.liecore import GroupElement
        GroupElement(np.diag([2.0, 1.0]))
