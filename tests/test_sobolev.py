"""Sobolev norms, the dyadic cutoff family, and the invariant bound."""

import numpy as np
import pytest

from crownkit import numerics, repn, sobolev
from crownkit.liecore import K0, a_t
from crownkit.repn import SpectralParam, apply_pi, continue_vK, \
    rep_norm, v_K
from crownkit.sobolev import (SobolevSpec, build_dyadic, choose_m,
                              invariant_upper_bound, rotate_A_to_H,
                              sobolev_norm)
from crownkit.vectors import ExpPoly

PARAM = SpectralParam(1.0)


def test_order_zero_is_plain_norm():
    assert abs(sobolev_norm(PARAM, v_K(PARAM), SobolevSpec(0)) - 1.0) < 1e-8
    f = continue_vK(PARAM, 1e-2)
    assert abs(sobolev_norm(PARAM, f, SobolevSpec(0)) - rep_norm(f)) < 1e-10


def test_spec_validation():
    with pytest.raises(ValueError):
        SobolevSpec(5)
    with pytest.raises(ValueError):
        SobolevSpec(1, "Q")


def test_s2_blowup_slope():
    eps_list = [1e-2, 1e-3, 1e-4]
    values = [sobolev_norm(PARAM, continue_vK(PARAM, eps), SobolevSpec(2))
              for eps in eps_list]
    slope = np.polyfit(np.log(eps_list), np.log(values), 1)[0]
    assert abs(slope + 2.0) < 0.15


def test_restricted_h_norm_stays_comparable_to_norm():
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        f = continue_vK(PARAM, eps)
        ratios.append(sobolev_norm(PARAM, f, SobolevSpec(2, "H"))
                      / rep_norm(f))
    assert max(ratios) / min(ratios) < 3.0


def test_dyadic_partition_and_supports():
    dec = build_dyadic(4)
    grid = np.linspace(-2.5, 2.5, 4001)
    assert dec.partition_residual(grid) < 1e-10
    # supports: phi_j lives in the dyadic annulus I_j
    for j, phi in enumerate(dec.phis):
        lo, hi = 2.0 ** (-j - 1), 2.0 ** (-j + 1)
        xs = np.linspace(-3, 3, 2001)
        vals = np.abs(phi.value(xs))
        outside = (np.abs(xs) < lo - 1e-9) | (np.abs(xs) > hi + 1e-9)
        assert np.max(vals[outside]) == 0.0
    # consecutive cutoffs cover each dyadic band completely
    xs = np.linspace(2.0 ** -2, 2.0 ** -1, 500)
    total = sum(p.value(xs) for p in dec.phis[:3])
    assert np.all(np.abs(total - 1.0) < 1e-10)


def test_dyadic_derivative_identity():
    dec3 = build_dyadic(3)
    x_star = np.array([0.7 * 2.0 ** -3])
    assert dec3.tau_m_derivative_identity(x_star, 1) < 1e-12
    dec = build_dyadic(4)
    xs = np.linspace(-2.0 ** -4, 2.0 ** -4, 101)
    for order in (1, 2):
        assert dec.tau_m_derivative_identity(xs, order) < 1e-9


def test_contracting_direction_collapses_restricted_norm():
    # pushing with the torus contracts the unipotent direction:
    # S_{k,N}(pi(a_t) f) decreases monotonically to ||f|| as t grows
    f = ExpPoly(1.0, [1.0, 0.5], (0.0, 0.1, 1.0))
    base = rep_norm(f)
    values = []
    for t in (1.0, 2.0, 4.0, 8.0):
        moved = apply_pi(PARAM, a_t(t), f)
        values.append(sobolev_norm(PARAM, moved, SobolevSpec(1, "N")))
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1.1 * base
    assert values[-1] > base - 1e-6


def test_invariant_bound_dominates_norm_and_is_stable():
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        f = continue_vK(PARAM, eps)
        m = choose_m(PARAM, f, 2)
        bound = invariant_upper_bound(PARAM, f, 2, m)
        norm = rep_norm(f)
        assert bound.bound >= norm  # any upper bound dominates S_0^G
        assert bound.dyadic_rhs >= bound.bound - 1e-9
        ratios.append(bound.bound / norm)
    assert max(ratios) / min(ratios) < 3.0


def test_invariant_bound_k0_is_at_least_norm():
    bound = invariant_upper_bound(PARAM, v_K(PARAM), 0, 2)
    assert bound.bound >= 1.0 - 1e-6


def test_dyadic_rhs_nonincreasing_beyond_chosen_m():
    f = continue_vK(PARAM, 1e-2)
    m0 = choose_m(PARAM, f, 1)
    values = [invariant_upper_bound(PARAM, f, 1, m).dyadic_rhs
              for m in (m0, 2 * m0)]
    assert values[1] <= values[0] * 1.05


def test_rotation_identity_exact():
    f = continue_vK(PARAM, 1e-3)
    rc = rotate_A_to_H(PARAM, f, 1)
    assert rc.gap < 1e-6
    g = ExpPoly(1.0, [0.5, 1.0], (0.0, 0.1, 1.0))
    rc2 = rotate_A_to_H(PARAM, g, 2)
    assert rc2.gap < 1e-5


def test_k2_rotation_passes_the_mobius_pole():
    # pi(k0) of a continued vector is a quadratic power in closed form;
    # composed jets through the Mobius map had a pole at x = -1, where
    # the k = 2 integrands went non-finite and quadrature raised
    param = SpectralParam(2.3)
    rc = rotate_A_to_H(param, continue_vK(param, 1e-4), 2)
    assert rc.gap < 1e-5


def test_k2_invariant_bound_passes_the_mobius_pole():
    param = SpectralParam(2.3)
    f = continue_vK(param, 1e-4)
    bound = invariant_upper_bound(param, f, 2, choose_m(param, f, 2))
    assert bound.bound >= rep_norm(f)


@pytest.mark.parametrize("lam, eps", [(0.5, 1e-6), (1.0746, 1.05e-6)])
def test_rotation_hints_reach_the_far_root(lam, eps):
    # k0 sends the continued vector's root next to x = 1 out to |x| ~ 1/eps;
    # the hints of the rotated power are its roots, so they reach the mass
    # out there.  Hints at x = +-1 and the pole x = -1 alone miss the
    # rotated norm by 1.25e-2 at the second case
    param = SpectralParam(lam)
    f = continue_vK(param, eps)
    assert max(abs(h) for h in apply_pi(param, K0, f).hints) > 1e5
    assert rotate_A_to_H(param, f, 1).gap < 1e-9


def _count_integrate(monkeypatch):
    """Count the adaptive quadratures sobolev and repn start."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return numerics.integrate(*args, **kwargs)

    monkeypatch.setattr(sobolev, "integrate", counted)
    monkeypatch.setattr(repn, "integrate", counted)
    return calls


@pytest.mark.parametrize("spec", [SobolevSpec(0), SobolevSpec(2),
                                  SobolevSpec(4), SobolevSpec(2, "H"),
                                  SobolevSpec(3, "K")])
def test_sobolev_norm_is_one_quadrature(monkeypatch, spec):
    # every monomial of the norm shares one panel pool and one jet of the
    # vector per round: one integrate call whatever the order
    calls = _count_integrate(monkeypatch)
    sobolev_norm(PARAM, continue_vK(PARAM, 1e-3), spec)
    assert len(calls) == 1


@pytest.mark.parametrize("rotated", [False, True], ids=["vK", "K0-vK"])
def test_sobolev_norm_takes_few_rounds(monkeypatch, rotated):
    # a round's fixed cost outweighs its samples: the k = 2 norm of a vector
    # 1e-6 from the crown's edge, rotated or not, takes few integrand calls
    param = SpectralParam(1.3)
    f = continue_vK(param, 1e-6)
    if rotated:
        f = apply_pi(param, K0, f)
    rounds = []

    def counted(rows, *args, **kwargs):
        def g(x):
            rounds.append(1)
            return rows(x)
        return numerics.integrate(g, *args, **kwargs)

    monkeypatch.setattr(sobolev, "integrate", counted)
    sobolev_norm(param, f, SobolevSpec(2))
    assert len(rounds) <= 6


def test_invariant_bound_quadrature_count(monkeypatch):
    # one quadrature per dyadic block (inner and m blocks), one for the
    # outer block together with the display at f, which also gives ||f||,
    # and one for the display after the rotation k0
    f, m = continue_vK(PARAM, 1e-3), 4
    calls = _count_integrate(monkeypatch)
    invariant_upper_bound(PARAM, f, 2, m)
    assert len(calls) == m + 3
