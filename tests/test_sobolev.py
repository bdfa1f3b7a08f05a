"""Sobolev norms, the dyadic cutoff family, and the invariant bound."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import dyadic_phi, dyadic_tau
from crownkit import numerics, repn, sobolev
from crownkit.liecore import K0, a_t, b_t
from crownkit.repn import SpectralParam, apply_pi, continue_vK, \
    rep_norm, v_K
from crownkit.sobolev import (SobolevSpec, choose_m, invariant_upper_bound,
                              rotate_A_to_H, sobolev_norm)
from crownkit.vectors import ExpPoly, MobiusPulled, Product, RadialStep

PARAM = SpectralParam(1.0)


def test_order_zero_is_plain_norm():
    assert abs(sobolev_norm(PARAM, v_K(PARAM), SobolevSpec(0)) - 1.0) < 1e-8
    f = continue_vK(PARAM, 1e-2)
    assert sobolev_norm(PARAM, f, SobolevSpec(0)) == rep_norm(f)


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


def _tau_m_gap(m, xs, order):
    """max gap in tau_m^(l) = -2^{lm} phi^(l)(2^m x), l = order, on
    supp(tau_m)."""
    xs = xs[np.abs(xs) <= 2.0 ** -m]
    lhs = dyadic_tau(m).jet(xs, order)[order]
    rhs = -(2.0 ** (order * m)) * sobolev.PHI.jet(2.0 ** m * xs,
                                                  order)[order]
    return float(np.max(np.abs(lhs - rhs)))


def test_dyadic_partition_and_supports():
    m = 4
    phis = [dyadic_phi(j) for j in range(m + 1)]
    tau = RadialStep(1.0, 2.0, math.inf, math.inf)
    grid = np.linspace(-2.5, 2.5, 4001)
    total = (tau.value(grid) + dyadic_tau(m).value(grid)
             + sum(p.value(grid) for p in phis))
    assert np.max(np.abs(total - 1.0)) < 1e-10
    # the unit-scale cutoffs of the bound: phi = psi - psi(2 .) and
    # tau + phi = 1 - psi(2 .)
    psi2 = sobolev.PSI.value(2.0 * grid)
    phi_gap = sobolev.PHI.value(grid) - (sobolev.PSI.value(grid) - psi2)
    assert np.max(np.abs(phi_gap)) < 1e-10
    assert np.max(np.abs(sobolev.OUTER.value(grid) - (1.0 - psi2))) < 1e-10
    # supports: phi_j lives in the dyadic annulus I_j
    for j, phi in enumerate(phis):
        lo, hi = 2.0 ** (-j - 1), 2.0 ** (-j + 1)
        xs = np.linspace(-3, 3, 2001)
        vals = np.abs(phi.value(xs))
        outside = (np.abs(xs) < lo - 1e-9) | (np.abs(xs) > hi + 1e-9)
        assert np.max(vals[outside]) == 0.0
    # consecutive cutoffs cover each dyadic band completely
    xs = np.linspace(2.0 ** -2, 2.0 ** -1, 500)
    total = sum(p.value(xs) for p in phis[:3])
    assert np.all(np.abs(total - 1.0) < 1e-10)


def test_dyadic_derivative_identity():
    assert _tau_m_gap(3, np.array([0.7 * 2.0 ** -3]), 1) < 1e-12
    xs = np.linspace(-2.0 ** -4, 2.0 ** -4, 101)
    for order in (1, 2):
        assert _tau_m_gap(4, xs, order) < 1e-9


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
    """Count the adaptive quadratures repn starts, every norm's among them."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return numerics.integrate(*args, **kwargs)

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
    # on a first mesh graded toward the hints
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

    monkeypatch.setattr(repn, "integrate", counted)
    sobolev_norm(param, f, SobolevSpec(2))
    assert len(rounds) <= 3


def test_invariant_bound_quadrature_count(monkeypatch):
    # one quadrature for the outer block together with the display at f,
    # which also gives ||f||, one for the inner and the m dyadic blocks,
    # stacked on their common support [-2, 2], and one for the display
    # after the rotation k0
    f, m = continue_vK(PARAM, 1e-3), 4
    calls = _count_integrate(monkeypatch)
    invariant_upper_bound(PARAM, f, 2, m)
    assert len(calls) == 3


def test_even_flags():
    # q = 1 + w x^2 has no linear term, nor has any dilation of it, and the
    # cutoffs are even; the rotation k0 gives q a linear term unless
    # eps = pi/4, where it fixes v_K, and a Mobius pull-back claims no
    # parity whatever its values
    for eps in (1e-4, 1e-2, 0.3):
        f = continue_vK(PARAM, eps)
        assert f.even
        block = apply_pi(PARAM, b_t(2.0 ** -3), f)
        assert block.even and Product(sobolev.PHI, block).even
        assert not apply_pi(PARAM, K0, f).even
        assert not MobiusPulled(f, np.eye(2), PARAM.lam).even
        assert not Product(sobolev.PHI, apply_pi(PARAM, K0, f)).even
    assert v_K(PARAM).even and apply_pi(PARAM, K0, v_K(PARAM)).even
    assert sobolev.PSI.even and sobolev.PHI.even and sobolev.OUTER.even
    assert not ExpPoly(1.0, [1.0], (0.0, 0.0, 1.0)).even


def _even_cases():
    """Even vectors and their full-line oracles: the same functions as
    MobiusPulled by the identity, which claims no parity."""
    for lam, eps in ((0.5, 1e-2), (1.0, 1e-4), (2.3, 1e-3)):
        param = SpectralParam(lam)
        f = continue_vK(param, eps)
        block = Product(sobolev.PHI, apply_pi(param, b_t(0.25), f))
        for vec in (f, block):
            yield param, vec, MobiusPulled(vec, np.eye(2), lam)


@pytest.mark.parametrize("subgroup", [None, "A", "N", "Nbar", "K", "H"])
def test_even_norms_on_the_half_line_match_the_full_line(subgroup):
    # every word of h, e, f, u and e + f keeps or flips parity, so an even
    # vector's squared monomials integrate on the right half at twice the
    # density, to the same value
    for param, vec, oracle in _even_cases():
        assert vec.even and not oracle.even
        for k in range(4):
            spec = SobolevSpec(k, subgroup)
            half = sobolev_norm(param, vec, spec)
            full = sobolev_norm(param, oracle, spec)
            assert abs(half - full) <= 1e-9 * full
        assert abs(rep_norm(vec) - rep_norm(oracle)) <= 1e-9 * rep_norm(oracle)


def test_even_vectors_integrate_the_right_half(monkeypatch):
    # the ranges the quadratures of a bound run on: [0, inf) for f with the
    # outer block, [0, 2] for the stacked blocks, and the whole line for
    # pi(k0) f, which is not even
    ranges = []

    def recorded(rows, a, b, cfg):
        ranges.append((a, b))
        return numerics.integrate(rows, a, b, cfg)

    monkeypatch.setattr(repn, "integrate", recorded)
    f = continue_vK(PARAM, 1e-3)
    rep_norm(f)
    invariant_upper_bound(PARAM, f, 1, 4)
    assert ranges == [(0.0, math.inf), (0.0, math.inf), (0.0, 2.0),
                      (-math.inf, math.inf)]


@pytest.mark.parametrize("m, k", [(4, 1), (12, 2)])
def test_stacked_blocks_match_per_block_norms(m, k):
    # the inner and dyadic blocks stacked on [-2, 2], eight to a
    # quadrature, against one sobolev_norm per block
    f = continue_vK(PARAM, 1e-3)
    blocks = [(sobolev.PSI, 2.0 ** -(m + 1))]
    blocks += [(sobolev.PHI, 2.0 ** -j) for j in range(1, m + 1)]
    stacked = sobolev._word_norms(
        PARAM, [(c, apply_pi(PARAM, b_t(t), f)) for c, t in blocks],
        sobolev._monomials(k))
    for (c, t), norms in zip(blocks, stacked):
        alone = sobolev_norm(PARAM, Product(c, apply_pi(PARAM, b_t(t), f)),
                             SobolevSpec(k))
        assert abs(sum(norms) - alone) <= 1e-9 * alone
    bound = invariant_upper_bound(PARAM, f, k, m)
    assert abs(bound.inner_block - sum(stacked[0])) <= 1e-9 * bound.inner_block


def _bound_peak(f, m):
    tracemalloc.start()
    try:
        invariant_upper_bound(PARAM, f, 2, m)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_deep_bound_memory_stays_at_one_stack():
    # the blocks go at most _STACK to a quadrature, so a round's stack does
    # not grow with m: stacked all at once, the 65 blocks at m = 64 raise
    # the peak about eightfold
    f = continue_vK(PARAM, 1e-3)
    invariant_upper_bound(PARAM, f, 2, 8)
    assert _bound_peak(f, 64) <= 1.25 * _bound_peak(f, 8)
