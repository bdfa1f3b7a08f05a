"""Quadrature engine against scipy/QUADPACK oracles."""

import math

import numpy as np
import pytest
from scipy import integrate as sci

from crownkit import numerics
from crownkit.errors import InvalidIntegrand, NonConvergence
from crownkit.numerics import (GEOMETRY_CFG, REPRESENTATION_CFG,
                               QuadratureConfig, integrate)
from crownkit.repn import SpectralParam, continue_vK, rep_norm


def counted(f):
    """f and a list that counts its calls."""
    calls = []

    def wrapped(x):
        calls.append(x.size)
        return f(x)
    return wrapped, calls


def test_zero_integrand():
    res = integrate(lambda x: np.zeros_like(x), 0.0, 1.0)
    assert res.value == 0.0


def test_cauchy_mass_is_one():
    # the squared modulus of the normalized spherical vector
    res = integrate(lambda x: (1.0 / np.pi) / (1.0 + x * x),
                    -math.inf, math.inf)
    assert abs(res.value - 1.0) < 1e-10
    assert abs(res.value - 1.0) <= res.error


def test_log_singularity_with_hint():
    res = integrate(lambda x: np.abs(np.log(x)), 0.0, 1.0,
                    GEOMETRY_CFG.with_hints([0.0]))
    assert abs(res.value - 1.0) < 1e-9  # analytic antiderivative: x - x log x


def test_algebraic_endpoint_singularity():
    res = integrate(lambda x: 1.0 / np.sqrt(np.abs(1.0 - x * x)), -1.0, 1.0)
    assert abs(res.value - math.pi) < 1e-8


@pytest.mark.parametrize("a,b", [(0.0, 3.0), (-2.0, math.inf),
                                 (-math.inf, math.inf)])
def test_against_quadpack(a, b, rng):
    for _ in range(4):
        c1, c2 = rng.normal(size=2)
        w = rng.uniform(0.5, 2.0)

        def f(x):
            return np.exp(-w * np.asarray(x) ** 2) * (c1 + c2 * np.sin(x))

        mine = integrate(f, a, b).value
        hi = 50.0 if math.isinf(b) else b
        lo = -50.0 if math.isinf(a) else a
        oracle, _ = sci.quad(lambda x: float(f(np.array([x]))[0]), lo, hi)
        assert abs(mine - oracle) < 1e-8


def test_linearity(rng):
    cfg = GEOMETRY_CFG
    for _ in range(5):
        al, be = rng.normal(size=2)
        f = lambda x: np.exp(-x * x)
        g = lambda x: np.cos(x) / (1.0 + x * x)
        combined = integrate(lambda x: al * f(x) + be * g(x), -4.0, 4.0, cfg)
        split = (al * integrate(f, -4.0, 4.0, cfg).value
                 + be * integrate(g, -4.0, 4.0, cfg).value)
        assert abs(combined.value - split) <= 3.0 * cfg.abs_tol


def test_complex_values():
    res = integrate(lambda x: np.exp(1j * x), 0.0, math.pi)
    assert abs(res.value - 2j) < 1e-10


@pytest.mark.parametrize("stack", [False, True], ids=["scalar", "stack"])
def test_real_integrand_stays_real_and_returns_complex(stack):
    # float64 samples give the numbers of their complex cast: the same
    # panels, and value and error to rounding of the rule sums.  An error
    # estimate is the difference K15 - G7 of two such sums, so its rounding
    # is relative to the value, not to itself
    vec = continue_vK(SpectralParam(1.0), 1e-4)

    def real(x):
        v = vec.value(x)
        rows = v.real ** 2 + v.imag ** 2
        if not stack:
            return rows
        return np.array([rows, x * x * rows / (1.0 + x ** 4)])

    cfg = REPRESENTATION_CFG.with_hints(vec.hints)
    res = integrate(real, -math.inf, math.inf, cfg)
    ref = integrate(lambda x: real(x).astype(complex), -math.inf, math.inf,
                    cfg)
    assert np.iscomplexobj(res.value)
    assert res.n_panels == ref.n_panels
    assert np.all(np.abs(res.value - ref.value) <= 1e-15 * np.abs(ref.value))
    assert np.all(np.abs(res.error - ref.error) <= 1e-15 * np.abs(ref.value))


def test_reported_error_within_request():
    # the norm integrals of the continued spherical vector: hinted, doubly
    # infinite, with logarithmic mass gathering at x = +-1 as eps falls;
    # the first mesh, graded toward the hints, leaves at most one round
    cfg = REPRESENTATION_CFG
    param = SpectralParam(1.0)
    for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        vec = continue_vK(param, eps)
        f, calls = counted(lambda x: np.abs(vec.value(x)) ** 2)
        res = integrate(f, -math.inf, math.inf, cfg.with_hints(vec.hints))
        assert res.error <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))
        assert len(calls) <= 2


def _lorentzian(w):
    return (lambda x: w / ((x - 1.0) ** 2 + w * w), -math.inf, math.inf,
            (1.0 - w, 1.0, 1.0 + w), math.pi, 1)


@pytest.mark.parametrize("cfg", [GEOMETRY_CFG, REPRESENTATION_CFG],
                         ids=["geometry", "representation"])
@pytest.mark.parametrize("f,a,b,hints,exact,max_calls", [
    (lambda x: np.log(np.abs(x)), -1.0, 1.0, (0.0,), -2.0, None),
    (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, (), 2.0, None),
    _lorentzian(1e-2), _lorentzian(1e-4), _lorentzian(1e-6),
], ids=["log_abs", "inverse_sqrt", "lorentzian_1e-2", "lorentzian_1e-4",
        "lorentzian_1e-6"])
def test_reported_error_bounds_the_true_error(f, a, b, hints, exact,
                                              max_calls, cfg):
    # the error reported is at least the error made, not only within the
    # request: under the square-root map x^(-1/2) is a constant, so its
    # error is all rounding.  A Lorentzian of width w hinted at its peak
    # and flanks finishes on its first mesh, graded toward the flanks
    # down to the scale w
    f, calls = counted(f)
    res = integrate(f, a, b, cfg.with_hints(hints))
    assert abs(res.value - exact) <= res.error
    assert res.error <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))
    assert max_calls is None or len(calls) <= max_calls


def test_graded_start_is_capped():
    # hints at the least doubles put the local scale 1e-300 and below,
    # hundreds of factors of 4 under the width of the pieces graded
    # toward them; the cap keeps each piece's first mesh small
    hints = [0.0, 5e-324, 1e-300, 1.0]
    table = np.array(numerics._pieces(-math.inf, math.inf, hints)).T
    piece = numerics._start(table[2], table[5])[0]
    assert np.bincount(piece).max() <= (numerics._INITIAL_PANELS
                                        + numerics._GRADE_DEPTH)
    res = integrate(lambda x: np.exp(-x * x), -math.inf, math.inf,
                    GEOMETRY_CFG.with_hints(hints))
    assert abs(res.value - math.sqrt(math.pi)) <= res.error


@pytest.mark.parametrize("cfg", [GEOMETRY_CFG, REPRESENTATION_CFG],
                         ids=["geometry", "representation"])
def test_stacked_errors_bound_the_true_errors(cfg):
    # a Lorentzian of width 1e-6, hinted at its peak, shares its panels with
    # a Gaussian; each component's error bounds its own true error
    width, peak = 1e-6, 0.3

    def f(x):
        return np.array([(width / np.pi) / ((x - peak) ** 2 + width ** 2),
                         np.exp(-x * x)])

    res = integrate(f, -math.inf, math.inf, cfg.with_hints((peak,)))
    exact = np.array([1.0, math.sqrt(math.pi)])
    assert np.all(np.abs(res.value - exact) <= res.error)


def test_stacked_components_meet_their_own_tolerances():
    # one panel pool for a component of scale 1 and one of scale 1e-6: with
    # a negligible absolute target each must meet 1e-9 relative to itself,
    # which the small one would miss if only the summed error were policed
    cfg = QuadratureConfig(abs_tol=1e-20, rel_tol=1e-9)

    def f(x):
        return np.array([1.0 / (1.0 + x * x),
                         1e-6 * np.exp(-x * x) * np.cos(3.0 * x)])

    res = integrate(f, -math.inf, math.inf, cfg)
    exact = np.array([math.pi, 1e-6 * math.sqrt(math.pi) * math.exp(-2.25)])
    assert res.value.shape == res.error.shape == (2,)
    for value, error, ref in zip(res.value, res.error, exact):
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
        assert error <= tol
        assert abs(value - ref) <= tol


def test_one_row_stack_is_the_scalar_call():
    cfg = REPRESENTATION_CFG.with_hints((-1.0, 1.0))
    vec = continue_vK(SpectralParam(1.3), 1e-4)
    scalar = integrate(lambda x: np.abs(vec.value(x)) ** 2, -math.inf,
                       math.inf, cfg)
    stack = integrate(lambda x: np.abs(vec.jet(x, 0)) ** 2, -math.inf,
                      math.inf, cfg)
    assert stack.value.shape == (1,)
    assert (stack.value[0], stack.error[0], stack.n_panels) == (
        scalar.value, scalar.error, scalar.n_panels)


@pytest.mark.parametrize("delta", [1e-5, 1e-4, 1e-3])
@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_one_far_hint_does_not_move_the_split_off_the_mass(eps, delta):
    # pulled by (1 + delta, delta; 1, 1) the continued vector keeps one
    # root next to -1/2, where its mass gathers, and as eps falls the other
    # moves out to about 1/delta: lopsided hints whose midpoint once took
    # the split of the real line far away from the mass
    vec = continue_vK(SpectralParam(1.0), eps)
    pulled = vec.pulled([[1.0 + delta, delta], [1.0, 1.0]])
    assert abs(rep_norm(pulled) - rep_norm(vec)) <= 1e-10 * rep_norm(vec)


def test_invalid_integrand_raises():
    with pytest.raises(InvalidIntegrand):
        integrate(lambda x: 1.0 / np.asarray(x), -1.0, 1.0)


def test_nonconvergence_reports_estimate(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_ADDED", 3)
    cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14)
    with pytest.raises(NonConvergence) as err:
        integrate(lambda x: np.sin(500.0 * x) / (1e-3 + np.abs(x)),
                  -1.0, 1.0, cfg)
    assert err.value.estimate is not None


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1.0)
