"""Derivative jets of the vector nodes against mpmath.

Each case pairs a node with the same function written in mpmath, and
compares jet(x, 4) with mpmath.diff at 40 digits, to
1e-12 * max(1, |reference|) at every order.
"""

import math

import mpmath
import numpy as np
import pytest

from crownkit.liecore import K0
from crownkit.repn import SpectralParam, apply_pi, continue_vK, d_pi
from crownkit.vectors import ExpPoly, Product, RadialStep

PARAM = SpectralParam(1.3)
CONTINUED = continue_vK(PARAM, 1e-2)
GAUSS = ExpPoly(0.7 + 0.2j, [0.3, -1.0, 0.5j], (0.1, 0.4, 0.8))


def _mp_glue(t):
    g1, g2 = mpmath.exp(-1 / t), mpmath.exp(-1 / (1 - t))
    return g1 / (g1 + g2)


def _mp_edges(a0, a1, b0, b1):
    # RadialStep(a0, a1, b0, b1) on its transitions: rising on a0 < |x| < a1,
    # falling on b0 < |x| < b1
    def step(x):
        ax = abs(x)
        if ax < a1:
            return _mp_glue((ax - a0) / (a1 - a0))
        return _mp_glue((b1 - ax) / (b1 - b0))
    return step


_mp_step = _mp_edges(0, 0, 1, 2)


def _mp_power(vec):
    kappa, sigma = mpmath.mpc(vec.kappa), mpmath.mpc(vec.sigma)
    q0, q1, q2 = (mpmath.mpc(complex(c)) for c in vec.q)
    return lambda x: kappa * (q0 + q1 * x + q2 * x * x) ** sigma


def _mp_gauss(x):
    p = 0.3 - x + 0.5j * x * x
    return mpmath.mpc(0.7, 0.2) * p * mpmath.exp(-(0.1 + 0.4 * x + 0.8 * x * x))


def _mp_pulled_gauss(x):
    # pi(k0) f = |c x + d|^(-1 + i lam) f((a x + b)/(c x + d)), ginv = k0^-1
    s = 1 / mpmath.sqrt(2)
    u = s * x + s
    return abs(u) ** mpmath.mpc(-1, PARAM.lam) * _mp_gauss((s * x - s) / u)


def _mp_dpi_u(x):
    # d_pi(u) = (i lam - 1) x - (1 + x^2) d/dx on a quadratic power, whose
    # derivative is sigma q'/q times the power
    q0, q1, q2 = (mpmath.mpc(complex(c)) for c in CONTINUED.q)
    q = q0 + q1 * x + q2 * x * x
    f = _mp_power(CONTINUED)(x)
    df = mpmath.mpc(CONTINUED.sigma) * (q1 + 2 * q2 * x) / q * f
    return mpmath.mpc(-1, PARAM.lam) * x * f - (1 + x * x) * df


CASES = [
    pytest.param(RadialStep(0.0, 0.0, 1.0, 2.0), _mp_step, (1.3, -1.7, 1.05),
                 id="radial_step"),
    pytest.param(RadialStep(0.5, 1.0, 1.0, 2.0), _mp_edges(0.5, 1, 1, 2),
                 (0.7, -0.93, 1.3, -1.85), id="radial_step_band"),
    pytest.param(RadialStep(0.5, 1.0, math.inf, math.inf),
                 _mp_edges(0.5, 1, math.inf, math.inf), (0.6, -0.8, 0.97),
                 id="radial_step_outer"),
    pytest.param(GAUSS, _mp_gauss, (-1.2, 0.3, 2.0), id="exp_poly"),
    pytest.param(Product(RadialStep(0.0, 0.0, 1.0, 2.0), CONTINUED),
                 lambda x: _mp_step(x) * _mp_power(CONTINUED)(x),
                 (1.3, -1.7), id="product"),
    pytest.param(apply_pi(PARAM, K0, GAUSS), _mp_pulled_gauss,
                 (0.4, -2.5, 1.7), id="mobius_pulled"),
    pytest.param(d_pi(PARAM, "u", CONTINUED), _mp_dpi_u, (0.6, -1.4, 2.2),
                 id="dpi"),
]


@pytest.mark.parametrize("vec, ref_fn, xs", CASES)
def test_node_jets_match_mpmath(vec, ref_fn, xs):
    jets = vec.jet(np.array(xs), 4)
    with mpmath.workdps(40):
        for i, x in enumerate(xs):
            for n in range(5):
                ref = complex(mpmath.diff(ref_fn, mpmath.mpf(x), n))
                assert abs(jets[n, i] - ref) <= 1e-12 * max(1.0, abs(ref))


def test_radial_step_edges_hints_and_support():
    band = RadialStep(0.5, 1.0, 1.0, 2.0)
    assert band.hints == (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
    assert band.support == (-2.0, 2.0)
    outer = RadialStep(0.5, 1.0, math.inf, math.inf)
    assert outer.hints == (-1.0, -0.5, 0.5, 1.0) and outer.support is None
    xs = np.array([0.0, 0.5, 1.0, 2.0, 1e300])
    assert np.array_equal(band.value(xs), [0.0, 0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(outer.value(xs), [0.0, 0.0, 1.0, 1.0, 1.0])
    assert np.array_equal(RadialStep(0.0, 0.0, 1.0, 2.0).value(xs),
                          [1.0, 1.0, 1.0, 0.0, 0.0])


@pytest.mark.parametrize("edges", [(1.0, 1.0, 2.0, 3.0), (0.0, 0.0, 2.0, 2.0),
                                   (0.5, 1.0, 0.8, 2.0), (-1.0, 1.0, 1.0, 2.0),
                                   (0.0, 0.0, 1.0, math.nan)])
def test_radial_step_refuses_unordered_or_missing_edges(edges):
    with pytest.raises(ValueError):
        RadialStep(*edges)
