"""Property tests on generated inputs: the symmetric model of pair points,
the coordinate round trips, the off-cut invariant of quadratic powers, the
closed-form group action on them and the norms it keeps, Sobolev norms
from one stacked quadrature against one quadrature per monomial, the
closed-form unit-scale dyadic blocks against their Mobius-pulled
construction, the rotation invariance of the spherical function and its
agreement with the closed form up to the crown's edge, the invariance and
Hermitian symmetry of the Hardy kernel, and Parseval for the radial
spherical transform.

Examples are derandomized, so every run draws the same inputs."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crownkit import crown, repn, sobolev, spectral
from crownkit.errors import BranchCut
from crownkit.liecore import (H_VEC, a_t, b_t, exp_lie, k_theta, n_x,
                              p_invariant, p_of_pair, pair_sym, sym_model)
from crownkit.pairmodel import BASE_POINT, PairPoint
from crownkit.vectors import MobiusPulled, Product, QuadraticPower

GEOMETRY = settings(derandomize=True, max_examples=40, deadline=None)

real_elements = st.builds(
    lambda theta, log_t, x: k_theta(theta) @ a_t(math.exp(log_t)) @ n_x(x),
    st.floats(0.0, math.pi), st.floats(-1.5, 1.5), st.floats(-2.0, 2.0))
angles = st.floats(-0.95 * math.pi / 4.0, 0.95 * math.pi / 4.0)


def _close(a, b, tol):
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) <= tol * scale


@GEOMETRY
@given(real_elements, angles)
def test_pair_sym_matches_group_sym_model(g, phi):
    z = crown.elliptic_point(g, phi)
    assert _close(pair_sym(z), sym_model(g @ exp_lie(H_VEC, 1j * phi)), 1e-9)


@GEOMETRY
@given(real_elements, angles)
def test_p_of_pair_is_trace_of_pair_sym(g, phi):
    z = crown.elliptic_point(g, phi)
    s = pair_sym(z)
    assert p_of_pair(z) == s[0, 0] + s[1, 1]
    assert _close(p_of_pair(z), p_invariant(g @ exp_lie(H_VEC, 1j * phi)),
                  1e-9)


@GEOMETRY
@given(real_elements, angles)
def test_tangent_and_quadric_round_trips(g, phi):
    z = crown.elliptic_point(g, phi)
    back = crown.tangent_to_point(crown.point_to_tangent(z))
    assert crown.pair_distance(back, z) < 1e-9
    assert crown.pair_distance(crown.from_quadric(crown.to_quadric(z)), z) < 1e-9


# coefficients on a lattice of quarters: exact zeros and exact touching
# of the cut come up often, which is where the off-cut test can go wrong
quarters = st.integers(-8, 8).map(lambda k: k / 4.0)
coefficients = st.builds(complex, quarters, quarters)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.tuples(coefficients, coefficients, coefficients))
def test_accepted_quadratics_avoid_the_cut(q):
    try:
        QuadraticPower(1.0, q, -0.5)
    except BranchCut:
        return
    q0, q1, q2 = q
    # real zeros of Im q and of Re q, plus a dense grid
    xs = [np.linspace(-20.0, 20.0, 4001)]
    for part in ((q2.imag, q1.imag, q0.imag), (q2.real, q1.real, q0.real)):
        if any(part):
            xs.append(np.roots(part).real)
    x = np.concatenate(xs)
    qv = (q2 * x + q1) * x + q0
    on_cut = (np.abs(qv.imag) <= 1e-12 * np.maximum(1.0, np.abs(qv))) & (
        qv.real <= 0.0)
    assert not np.any(on_cut), x[on_cut]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(real_elements, st.floats(1e-6, math.pi / 4.0), st.floats(0.25, 2.5),
       real_elements)
def test_pulled_quadratic_matches_mobius_pulled(g, eps, lam, g2):
    param = repn.SpectralParam(lam)
    f = repn.continue_vK(param, eps)
    ginv = g.inverse().m.real
    a, b, c, d = ginv.ravel()
    # against mpmath, the composed jets of MobiusPulled, the reference,
    # lose digits near the pole -d/c: 1e-2 from it, over 240 draws of these
    # strategies, up to 5e-3 at order 3 and a factor 2e2 at order 4; next
    # to the power's roots, rounding of its coefficients costs about
    # 1e-16/eps.  So compare where |c x + d| >= 1/2, to these bounds
    xs = np.linspace(-3.0, 3.0, 25)
    xs = xs[np.abs(c * xs + d) >= 0.5]
    assume(xs.size > 0)
    new = f.pulled(ginv).jet(xs, 4)
    ref = MobiusPulled(f, ginv, lam).jet(xs, 4)
    for n, tol in enumerate((1e-11, 1e-11, 1e-11, 1e-8, 1e-8)):
        assert np.max(np.abs(new[n] - ref[n])) <= (
            (tol + 1e-15 / eps) * np.max(np.abs(ref[n])))
    # pulling by g^{-1}, then by g2^{-1}, is pulling by (g2 g)^{-1}
    h2 = g2.inverse().m.real
    twice, once = f.pulled(ginv).pulled(h2), f.pulled(ginv @ h2)
    assert np.max(np.abs(twice.q - once.q)) <= 1e-12 * np.max(np.abs(once.q))
    assert (twice.kappa, twice.sigma) == (once.kappa, once.sigma)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(real_elements, st.floats(0.25, 2.5),
       st.floats(math.log(1e-6), math.log(math.pi / 4.0)).map(math.exp))
def test_action_keeps_norms_of_continued_vectors(g, lam, eps):
    param = repn.SpectralParam(lam)
    f = repn.continue_vK(param, eps)
    norm = repn.rep_norm(f)
    assert abs(repn.rep_norm(repn.apply_pi(param, g, f)) - norm) <= 1e-9 * norm
    assert sobolev.rotate_A_to_H(param, f, 1).gap < 1e-9


def _per_monomial_norms(param, vec, k, subgroup):
    """The norms of every monomial of S_k, each by its own rep_norm."""
    if subgroup is None:
        words = [("f",) * k3 + ("e",) * k2 + ("h",) * k1
                 for k1 in range(k + 1) for k2 in range(k + 1 - k1)
                 for k3 in range(k + 1 - k1 - k2)]
    else:
        direction = {"A": "h", "N": "e", "Nbar": "f", "K": "u",
                     "H": "e+f"}[subgroup]
        words = [(direction,) * j for j in range(k + 1)]
    norms = []
    for word in words:
        v = vec
        for d in word:
            v = repn.d_pi(param, d, v)
        norms.append(repn.rep_norm(v))
    return norms


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.floats(0.25, 2.5), st.floats(-6.0, -2.0).map(lambda e: 10.0 ** e),
       st.integers(0, 2), st.sampled_from([None, "A", "N", "Nbar", "K", "H"]),
       st.sampled_from([None, 1, 2, 3]))
def test_stacked_sobolev_norm_is_the_sum_of_monomial_norms(lam, eps, k,
                                                           subgroup, block):
    # the continued vector, or its dyadic block pi(b_{2^-j}) (phi_j f); each
    # squared monomial norm is good to t = max(abs_tol, rel_tol n^2), which
    # bounds the error of the norm n itself by min(sqrt(2 t), 2 t / n)
    param = repn.SpectralParam(lam)
    f = repn.continue_vK(param, eps)
    if block is not None:
        dec = sobolev.build_dyadic(block)
        f = repn.apply_pi(param, b_t(2.0 ** -block),
                          Product(dec.phis[block], f))
    norms = _per_monomial_norms(param, f, k, subgroup)
    cfg = repn.REPRESENTATION_CFG
    tol = 0.0
    for n in norms:
        t = max(cfg.abs_tol, cfg.rel_tol * n * n)
        tol += min(math.sqrt(2.0 * t), 2.0 * t / max(n, 1e-300))
    stacked = sobolev.sobolev_norm(param, f, sobolev.SobolevSpec(k, subgroup))
    assert abs(stacked - sum(norms)) <= tol


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.floats(0.25, 2.5),
       st.floats(math.log(1e-6), math.log(1e-2)).map(math.exp),
       st.integers(1, 8), st.integers(0, 2))
def test_unit_scale_blocks_match_the_pulled_products(lam, eps, j, k):
    # b_t is the dilation x -> t x, so pi(b_{2^-j})(phi_j f) is
    # phi pi(b_{2^-j}) f, and the inner block at depth j is
    # psi pi(b_{2^-(j+1)}) f; the reference pulls the product of cutoff and
    # vector through MobiusPulled
    param = repn.SpectralParam(lam)
    f = repn.continue_vK(param, eps)
    dec = sobolev.build_dyadic(j)
    pairs = [(dec.inner_block(param, f),
              repn.apply_pi(param, dec.inner_element, Product(dec.tau_m, f))),
             (dec.blocks(param, f)[j - 1],
              repn.apply_pi(param, dec.block_elements[j - 1],
                            Product(dec.phis[j], f)))]
    xs = np.linspace(-2.0, 2.0, 401)
    for closed, pulled in pairs:
        assert isinstance(pulled, MobiusPulled)
        rows, ref = closed.taylor(xs, 2), pulled.taylor(xs, 2)
        for order in range(3):
            scale = np.max(np.abs(ref[order]))
            assert np.max(np.abs(rows[order] - ref[order])) <= 1e-12 * scale
        spec = sobolev.SobolevSpec(k)
        norm = sobolev.sobolev_norm(param, pulled, spec)
        closed_norm = sobolev.sobolev_norm(param, closed, spec)
        assert abs(closed_norm - norm) <= 1e-12 * norm


# interior points of the crown, and points (-1, 1) g of the distinguished
# boundary orbit, where the rotation integrand has inverse-square-root spikes
crown_and_boundary_points = st.one_of(
    st.builds(crown.elliptic_point, real_elements, angles),
    real_elements.map(lambda g: PairPoint(-1.0, 1.0).apply(g.m)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.floats(0.25, 2.5), crown_and_boundary_points,
       st.floats(0.0, math.pi))
def test_phi_lambda_is_rotation_invariant(lam, z, theta):
    param = repn.SpectralParam(lam)
    value = repn.phi_lambda(param, z)
    rotated = repn.phi_lambda(param, z.apply(k_theta(theta).m))
    assert _close(rotated, value, 1e-9)


# angles of either sign, and angles 10^-7 to 1 below pi/4, where the
# rotation integrand peaks narrowly at a coordinate's angle
edge_angles = st.one_of(angles, st.floats(-7.0, 0.0).map(
    lambda u: math.pi / 4.0 - 10.0 ** u))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.floats(0.0, 4.0), real_elements, edge_angles)
def test_phi_lambda_matches_the_closed_form(lam, g, phi):
    z = crown.elliptic_point(g, phi)
    closed = spectral._legendre(np.array([lam]), *spectral._pair_invariant(
        z, BASE_POINT))[0, 0]
    value = repn.phi_lambda(repn.SpectralParam(lam), z)
    assert abs(value - closed) <= 1e-12 * max(1.0, abs(closed))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(real_elements, angles, real_elements, angles, real_elements)
def test_hardy_kernel_is_invariant_and_hermitian(gz, phi_z, gw, phi_w, g):
    z = crown.elliptic_point(gz, phi_z)
    w = crown.elliptic_point(gw, phi_w)
    k = spectral.hardy_kernel(z, w)
    assert abs(spectral.hardy_kernel(z.apply(g.m), w.apply(g.m)) - k) < (
        1e-6 * abs(k))
    assert abs(spectral.hardy_kernel(w, z) - np.conj(k)) <= 1e-15 * abs(k)


# symmetric two-bump radial profiles, whose gaps on this box stay near
# 1e-10; wider profiles crowd their spectral mass below lam = 1/4 and
# their radial mass outwards, and the gap grows (8e-3 at w = 4, c = 2.5)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.floats(0.3, 2.5), st.floats(0.0, 2.5))
def test_parseval_holds_on_two_bump_profiles(w, c):
    def profile(r):
        return (np.exp(-0.5 * ((r - c) / w) ** 2)
                + np.exp(-0.5 * ((r + c) / w) ** 2))
    assert spectral.parseval_check(profile).gap < 1e-3
