"""Principal series: unitarity, continuation, derived action, spherical
function, doubling, hyperbolic functionals, norm subharmonicity."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate as sci

from conftest import random_crown_point, random_real_element
from crownkit import crown, numerics, repn
from crownkit.errors import DomainError, NotInCrown
from crownkit.liecore import (H_VEC, IDENTITY, LieVector, U_VEC, a_t,
                              exp_lie, k_theta, n_x)
from crownkit.pairmodel import BASE_POINT, PairPoint
from crownkit.repn import (DIRECTIONS, HFunctional, SpectralParam, apply_pi,
                           continue_vK, d_pi, doubling_check, h_limit_gap,
                           levi_form, norm_growth, phi_lambda, rep_norm,
                           rep_pairing, v_K)
from crownkit.vectors import ExpPoly, Product, RadialStep


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_spherical_vector_normalized(lam):
    assert abs(rep_norm(v_K(SpectralParam(lam))) - 1.0) < 1e-8


def test_unitarity(rng):
    param = SpectralParam(1.0)
    for _ in range(100):
        g = random_real_element(rng)
        assert abs(rep_norm(apply_pi(param, g, v_K(param))) - 1.0) < 2e-7


def test_representation_property(rng):
    param = SpectralParam(0.7)
    xs = np.linspace(-3.0, 3.0, 41)
    for _ in range(10):
        g1, g2 = random_real_element(rng), random_real_element(rng)
        lhs = apply_pi(param, g1, apply_pi(param, g2, v_K(param))).value(xs)
        rhs = apply_pi(param, g1 @ g2, v_K(param)).value(xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


NEAR_POLE = a_t(1.7) @ exp_lie(U_VEC, 0.9)
LARGE_ENTRIES = k_theta(2.80) @ a_t(math.exp(1.5)) @ n_x(2.0)


def _pole(g):
    ginv = g.inverse().m.real
    return float(-ginv[1, 1] / ginv[1, 0])


@pytest.mark.parametrize("lam, eps, g, x0, tol", [
    # 1e-3 from the pole of m, where the composed jets of MobiusPulled
    # miss by 1.3e-5 at order 3 and by 0.14 at order 4
    pytest.param(1.3, 1e-3, NEAR_POLE, _pole(NEAR_POLE) + 1e-3, 1e-13,
                 id="near_pole"),
    # g^{-1} has entries up to 8.4, so the pulled q has coefficients large
    # against its values at x0: jets formed from them lose 5e-10 at order 4
    pytest.param(0.25, 0.556, LARGE_ENTRIES, 2.5, 1e-11, id="large_entries"),
])
def test_pulled_jets_are_exact_next_to_the_mobius_pole(lam, eps, g, x0, tol):
    # pi(g) f = |cx + d|^(-1 + i lam) f(m(x)) differentiated in mpmath
    param = SpectralParam(lam)
    f = continue_vK(param, eps)
    ginv = g.inverse().m.real
    a, b, c, d = (mpmath.mpf(float(v)) for v in ginv.ravel())
    q0, q1, q2 = (mpmath.mpc(complex(v)) for v in f.q)
    sigma = mpmath.mpc(f.sigma)

    def pulled(x):
        m = (a * x + b) / (c * x + d)
        return (f.kappa * abs(c * x + d) ** (2 * sigma)
                * (q0 + q1 * m + q2 * m * m) ** sigma)

    jets = apply_pi(param, g, f).jet(np.array([x0]), 4)[:, 0]
    with mpmath.workdps(40):
        for n in range(5):
            ref = complex(mpmath.diff(pulled, mpmath.mpf(x0), n))
            assert abs(jets[n] - ref) <= tol * abs(ref)


def test_continuation_endpoint_is_spherical_vector():
    param = SpectralParam(1.3)
    xs = np.linspace(-5, 5, 101)
    cont = continue_vK(param, math.pi / 4.0)
    assert np.max(np.abs(cont.value(xs) - v_K(param).value(xs))) == 0.0


def test_continuation_pointwise_magnitude():
    # |continued|^2 concentrates like 1/(|1 - x^2| + eps) near x = +-1
    param = SpectralParam(1.0)
    for eps in (1e-2, 1e-3):
        vec = continue_vK(param, eps)
        peak = abs(vec.value(np.array([1.0]))[0]) ** 2
        off = abs(vec.value(np.array([2.0]))[0]) ** 2
        assert peak > 0.05 / eps * off


def test_norm_growth_log_law():
    for lam in (0.5, 1.0, 2.0):
        samples = norm_growth(SpectralParam(lam), [1e-2, 1e-3, 1e-4, 1e-5,
                                                   1e-6])
        ratios = [s.log_ratio_sq for s in samples]
        assert max(ratios) / min(ratios) < 1.5
        assert all(b.norm > a.norm for a, b in zip(samples, samples[1:]))


def test_norm_growth_against_quadpack_oracle():
    param = SpectralParam(1.0)
    eps = 1e-3
    vec = continue_vK(param, eps)
    mine = rep_norm(vec) ** 2

    def integrand(x):
        return abs(vec.value(np.array([x]))[0]) ** 2

    oracle = sum(sci.quad(integrand, a, b, points=pts, limit=200)[0]
                 for a, b, pts in [(-60.0, 0.0, [-1.0]), (0.0, 60.0, [1.0])])
    oracle += 2.0 * integrand(60.0) * 60.0  # 1/x^2 tail
    assert abs(mine - oracle) / oracle < 1e-6


def test_dpi_directions_against_finite_differences(rng):
    param = SpectralParam(1.0)
    xs = np.array([0.0, 0.7, -1.3, 2.1, -0.4])
    for _ in range(20):
        deg = int(rng.integers(0, 4))
        f = ExpPoly(1.0, rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1),
                    (0.0, 0.5 * rng.normal(), rng.uniform(0.3, 1.2)))
        for name, vec in DIRECTIONS.items():
            h = 1e-4
            fd = (apply_pi(param, exp_lie(vec, h), f).value(xs)
                  - apply_pi(param, exp_lie(vec, -h), f).value(xs)) / (2 * h)
            an = d_pi(param, name, f).value(xs)
            scale = max(float(np.max(np.abs(an))), 1e-10)
            assert np.max(np.abs(fd - an)) / scale < 1e-6


def test_dpi_kills_the_rotation_fixed_vector():
    param = SpectralParam(1.0)
    xs = np.linspace(-4, 4, 31)
    assert np.max(np.abs(d_pi(param, "u", v_K(param)).value(xs))) < 1e-14


def test_dpi_explicit_forms():
    param = SpectralParam(0.8)
    f = ExpPoly(1.0, [1.0], (0.0, 0.0, 1.0))  # exp(-x^2)
    xs = np.array([0.4, -1.1])
    vals = f.value(xs)
    grad = f.jet(xs, 1)[1]
    il = 1j * param.lam
    assert np.allclose(d_pi(param, "e", f).value(xs), -grad)
    assert np.allclose(d_pi(param, "h", f).value(xs),
                       (il - 1.0) * vals - 2.0 * xs * grad)
    assert np.allclose(d_pi(param, "u", f).value(xs),
                       (il - 1.0) * xs * vals - (1.0 + xs ** 2) * grad)


def test_phi_lambda_base_point_and_symmetry(rng):
    assert abs(phi_lambda(SpectralParam(1.0), BASE_POINT) - 1.0) < 1e-11
    for _ in range(10):
        z = random_crown_point(rng, 0.5)
        lam = rng.uniform(0.2, 3.0)
        a = phi_lambda(SpectralParam(lam), z)
        b = phi_lambda(SpectralParam(-lam), z)
        assert abs(a - b) < 1e-8 * max(1.0, abs(a))


def test_phi_lambda_real_points_match_conical_oracle():
    for lam in (0.5, 1.0, 2.5):
        for t in (1.0, 1.5, 3.0):
            z = a_t(t).pair_point()
            mine = phi_lambda(SpectralParam(lam), z)
            oracle = complex(mpmath.legenp((1j * lam - 1) / 2, 0,
                                           math.cosh(2 * math.log(t))))
            assert abs(mine - oracle) < 1e-9
            assert abs(mine.imag) < 1e-10
            if lam * math.log(t) < 1.0:  # before the first oscillation zero
                assert mine.real > 0


def test_phi_lambda_on_the_boundary_matches_norm_oracle():
    # (-1, 1) = exp(i pi/4 h) x0 doubles exp(i pi/8 h) x0, so phi there is
    # the squared norm of the vector continued to eps = pi/8; the rotation
    # integrand has an inverse-square-root spike at each coordinate
    param = SpectralParam(1.0)
    lhs = phi_lambda(param, PairPoint(-1.0, 1.0))
    rhs = rep_norm(continue_vK(param, math.pi / 8.0)) ** 2
    assert abs(lhs - rhs) <= 1e-9 * rhs


def test_phi_lambda_rejects_outside():
    with pytest.raises(NotInCrown):
        phi_lambda(SpectralParam(1.0), PairPoint(2j, 3j))


def test_doubling_identity_grid():
    param = SpectralParam(1.0)
    for t in (1.0, 2.0, 4.0):
        for phi in (math.pi / 32, math.pi / 16, math.pi / 8):
            res = doubling_check(param, a_t(t), phi)
            assert res.gap < 1e-5
    trivial = doubling_check(param, IDENTITY, 0.0)
    assert abs(trivial.lhs - 1.0) < 1e-10 and abs(trivial.rhs - 1.0) < 1e-7


@pytest.mark.parametrize("lam, t, phi", [
    (0.6538932180510986, 3.98169910845357, 0.3919178085712149),
    (0.6100683642989713, 3.156791492134602, 0.39261783501602765),
    (0.7333936560283741, 3.6023273350134315, 0.3916836657883044),
])
def test_doubling_next_to_the_crown_edge(lam, t, phi):
    # phi just below pi/8 puts both coordinates of the doubled point within
    # a spike width |y|/(1 + x^2) of 2e-4, 3.2e-5 and 3.1e-4 of the real line
    res = doubling_check(SpectralParam(lam), a_t(t), phi)
    assert res.gap < 1e-10


def test_doubling_positive_at_identity(rng):
    param = SpectralParam(1.0)
    for phi in (0.1, 0.3, math.pi / 8):
        res = doubling_check(param, IDENTITY, phi)
        assert res.lhs.real > 0 and abs(res.lhs.imag) < 1e-8
        assert res.rhs.real > 0


def test_h_functional_supports_and_prefactor():
    param = SpectralParam(1.0)
    eta1 = HFunctional("eta1", param)
    eta2 = HFunctional("eta2", param)
    xs = np.array([-0.5, 0.0, 0.5, 1.5, -2.0])
    v1 = eta1.value(xs)
    v2 = eta2.value(xs)
    assert np.all(v1[np.abs(xs) > 1] == 0)
    assert np.all(v2[np.abs(xs) < 1] == 0)
    assert abs(v1[1] - 1.0 / math.sqrt(math.pi)) < 1e-15


def test_h_functional_disjoint_support_pairing():
    param = SpectralParam(1.0)
    eta1 = HFunctional("eta1", param)
    # even Gaussian cut to vanish identically on [-1.1, 1.1]
    cut = RadialStep(1.1, 1.5, math.inf, math.inf)
    psi = Product(cut, ExpPoly(1.0, [1.0], (0.0, 0.0, 0.25)))
    val = rep_pairing(psi, eta1)
    assert abs(val) < 1e-12


def test_h_limit_converges_with_derived_coefficients():
    psi = ExpPoly(1.0, [1.0], (0.0, 0.0, 1.0))
    for lam in (0.5, 1.0):
        param = SpectralParam(lam)
        gaps = [h_limit_gap(param, psi, eps) for eps in (1e-1, 1e-2, 1e-3)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 1e-2


def test_h_limit_fails_with_printed_coefficients():
    # the printed phase convention does not match the boundary limit
    psi = ExpPoly(1.0, [1.0], (0.0, 0.0, 1.0))
    param = SpectralParam(1.0)
    derived = h_limit_gap(param, psi, 1e-3, convention="derived")
    printed = h_limit_gap(param, psi, 1e-3, convention="printed")
    assert printed > 100.0 * derived


#: the two test functions of AC12, and one that vanishes beyond |x| = 2.5
H_LIMIT_PSIS = [ExpPoly(1.0, [1.0], (0.0, 0.0, 1.0)),
                ExpPoly(1.0, [0.3, 0.0, 1.0], (0.0, 0.2, 0.8)),
                Product(RadialStep(0.0, 0.0, 1.5, 2.5),
                        ExpPoly(1.0, [1.0, 0.5], (0.0, 0.1, 0.5)))]


def test_h_limit_gap_is_one_quadrature(monkeypatch):
    # <v_H, psi> does not depend on eps, so the gap integrates the
    # difference pi(a_eps) v_K - v_H against psi once
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return numerics.integrate(*args, **kwargs)

    monkeypatch.setattr(repn, "integrate", counted)
    for psi in H_LIMIT_PSIS:
        h_limit_gap(SpectralParam(1.0), psi, 1e-2)
    assert len(calls) == len(H_LIMIT_PSIS)


@pytest.mark.parametrize("lam", [0.25, 1.0, 2.5])
def test_h_limit_gap_matches_the_two_pairings(lam):
    # against <pi(a_eps) v_K, psi> - conj <psi, v_H>, each pairing to
    # REPRESENTATION_CFG; no tighter oracle is at hand, since <psi, v_H>
    # raises NonConvergence at abs_tol 1e-9
    param = SpectralParam(lam)
    v_h = HFunctional("v_H", param)
    for psi in H_LIMIT_PSIS:
        target = np.conj(rep_pairing(psi, v_h))
        for eps in (1e-1, 1e-2, 1e-3):
            two = abs(rep_pairing(continue_vK(param, eps), psi) - target)
            assert abs(h_limit_gap(param, psi, eps) - two) <= 3e-7


def test_v_h_is_combination_of_etas():
    param = SpectralParam(0.7)
    vh = HFunctional("v_H", param)
    c1, c2 = vh.coefficients()
    e1 = HFunctional("eta1", param)
    e2 = HFunctional("eta2", param)
    xs = np.array([-0.5, 0.3, 1.7, -3.0])
    assert np.allclose(vh.value(xs), c1 * e1.value(xs) + c2 * e2.value(xs))
    vbar = HFunctional("v_H_bar", param)
    d1, d2 = vbar.coefficients()
    assert d1 == np.conj(c1) and d2 == np.conj(c2)


def _stencil_levi(param, phi0, direction, step=1e-2):
    """5-point Laplacian of log ||F(w)||^2, each norm taken from the crown
    angle psi of exp(w D) exp(i phi0 h) x0: ||F(w)|| is that of the vector
    continued to pi/4 - psi, since real group elements keep norms."""
    def log_norm_sq(w):
        point = crown.elliptic_point(IDENTITY, phi0).apply(
            exp_lie(direction, w).m)
        psi = abs(crown.point_to_tangent(point).y.c_h)
        return 2.0 * math.log(rep_norm(continue_vK(param, math.pi / 4 - psi)))

    ring = sum(log_norm_sq(w) for w in (step, -step, 1j * step, -1j * step))
    return (ring - 4.0 * log_norm_sq(0.0)) / step ** 2


@pytest.mark.parametrize("phi0, direction", [
    pytest.param(math.pi / 8, H_VEC, id="pi/8-h"),
    pytest.param(math.pi / 8, LieVector(c_e=1.0, c_f=1.0), id="pi/8-e+f"),
    pytest.param(0.3, LieVector(c_h=0.6, c_e=-0.8, c_f=-0.8), id="0.3-mixed"),
    pytest.param(0.1, LieVector(c_h=-0.4, c_e=1.1, c_f=1.1), id="0.1-mixed"),
])
def test_levi_form_matches_the_crown_angle_stencil(phi0, direction):
    # an independent cross-check: second differences of norms read off the
    # crown geometry agree with the derived-action form to the stencil's
    # O(step^2) error
    param = SpectralParam(1.0)
    exact = levi_form(param, phi0, direction)
    assert abs(_stencil_levi(param, phi0, direction) - exact) < 5e-4 * exact


@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("direction", [
    H_VEC, LieVector(c_e=1.0, c_f=1.0), U_VEC,
    LieVector(c_h=0.6, c_e=-0.8, c_f=-0.8),
    LieVector(c_h=-1.3, c_e=0.2, c_f=0.9),
], ids=["h", "e+f", "u", "symmetric", "general"])
def test_levi_form_at_the_base_point_is_the_norm_of_the_p_part(lam, direction):
    # at v_K the form is 2 (1 + lam^2) (c_h^2 + ((c_e + c_f)/2)^2): the
    # rotation part u = e - f fixes v_K and drops out
    c_h, c_e, c_f = direction.c_h, direction.c_e, direction.c_f
    closed = 2.0 * (1.0 + lam ** 2) * (c_h ** 2 + (0.5 * (c_e + c_f)) ** 2)
    value = levi_form(SpectralParam(lam), 0.0, direction)
    assert abs(value - closed) <= 1e-10 * max(closed, 1.0)


def test_levi_positive_on_discs(rng):
    param = SpectralParam(1.0)
    for _ in range(6):
        phi0 = rng.uniform(0.0, 0.9) * math.pi / 4.0
        sym = float(rng.normal())
        direction = LieVector(c_h=float(rng.normal()), c_e=sym, c_f=sym)
        assert levi_form(param, phi0, direction) > 0


def test_levi_two_discs_through_same_point():
    param = SpectralParam(1.0)
    phi0 = math.pi / 8.0
    for direction in (H_VEC, LieVector(c_e=1.0, c_f=1.0)):
        assert levi_form(param, phi0, direction) > 0


@pytest.mark.parametrize("phi0", [-1e-3, math.pi / 4, math.nan])
def test_levi_form_outside_the_band(phi0):
    with pytest.raises(DomainError):
        levi_form(SpectralParam(1.0), phi0, H_VEC)


def test_base_norm_is_one():
    assert abs(rep_norm(v_K(SpectralParam(1.0))) - 1.0) < 1e-9
