"""Coefficient extraction, decay bounds, and the synthetic pipeline."""

import math

import numpy as np
import pytest

from crownkit.errors import DomainError, StripExceeded
from crownkit.maass import (PeriodicStripFunction, SupBoundModel, coeff_bound,
                            fourier_coeff, geometric_coeff_sum, pipeline_demo,
                            saturating_strip_function, sup_decay_bound)

TWO_PI = 2.0 * math.pi


def test_single_mode_extraction():
    F = PeriodicStripFunction.from_coefficients({1: 1.0}, 5.0)
    assert abs(fourier_coeff(F, 1, 3.0, 0.3) - 1.0) < 1e-10
    assert abs(fourier_coeff(F, 2, 3.0, 0.3)) < 1e-10
    assert abs(fourier_coeff(F, -1, 3.0, 0.3)) < 1e-10


def test_negative_mode_and_mixed():
    F = PeriodicStripFunction.from_coefficients({-2: 0.5j, 3: 0.25}, 8.0)
    assert abs(fourier_coeff(F, -2, 2.0, 0.4) - 0.5j) < 1e-10
    assert abs(fourier_coeff(F, 3, 2.0, 0.4) - 0.25) < 1e-10


def test_contour_independence():
    F = PeriodicStripFunction.from_coefficients({1: 0.7, -2: 0.3j}, 8.0)
    for n in (1, -2):
        vals = [fourier_coeff(F, n, 3.0, eps) for eps in (0.1, 0.25, 0.45)]
        assert max(abs(v - vals[0]) for v in vals) < 1e-9


def test_periodicity_residual():
    F = PeriodicStripFunction.from_coefficients({1: 1.0, 2: 0.5}, 3.0)
    samples = np.linspace(-0.4, 0.4, 7) + 0.2j
    assert np.max(np.abs(F(samples + 1.0) - F(samples))) < 1e-10


def test_strip_guard():
    F = PeriodicStripFunction.from_coefficients({1: 1.0}, 1.5)
    with pytest.raises(StripExceeded):
        fourier_coeff(F, 1, 3.0, 0.1)  # contour at 2.7 > 1.5
    with pytest.raises(StripExceeded):
        F(np.array([0.3 + 2.0j]))


def test_coeff_bound_shapes():
    B = SupBoundModel(1.0)
    y = 2.0
    direct = math.exp(-TWO_PI) * math.sqrt(math.log(2.0))
    assert abs(coeff_bound(1, y, 0.5, B) - direct) < 1e-15
    # eps = 1/y specialization
    for n in (1, 2, 5):
        expected = math.exp(-TWO_PI * n * (y - 1.0)) * math.sqrt(math.log(y))
        assert abs(coeff_bound(n, y, 1.0 / y, B) - expected) < 1e-15
    bounds = [coeff_bound(n, 3.0, 0.2, B) for n in (1, 2, 3, 4)]
    assert all(b < a for a, b in zip(bounds, bounds[1:]))


def test_geometric_sum_matches_brute_force():
    B = SupBoundModel(1.3)
    for y in (3.0, 5.0, 8.0):
        brute = sum(coeff_bound(n, y, 1.0 / y, B)
                    for n in range(-200, 201) if n)
        assert abs(brute - geometric_coeff_sum(y, B)) < 1e-12
        assert sum(coeff_bound(n, y, 1.0 / y, B) for n in range(-60, 61)
                   if n) <= sup_decay_bound(y, B) + 1e-15


def test_sup_decay_bound_shape():
    B = SupBoundModel(1.0)
    ratios = [sup_decay_bound(y, B)
              / (math.sqrt(math.log(y)) * math.exp(-TWO_PI * y))
              for y in np.linspace(2.5, 10.0, 16)]
    assert max(ratios) / min(ratios) < 1.2
    assert max(ratios) < 2000.0
    with pytest.raises(DomainError):
        sup_decay_bound(1.5, B)


def test_pipeline_saturating_and_negative_control():
    y = 3.0
    model = SupBoundModel(1.0)
    good = pipeline_demo(saturating_strip_function(y), y, model)
    assert good.passes and 0.5 <= good.fit <= 2.0
    assert good.reconstructed_sup <= good.decay_bound * (1 + 1e-9)
    rows = good.as_json_rows()
    assert all(row["pass"] for row in rows)
    bad = pipeline_demo(
        PeriodicStripFunction.from_coefficients({1: 1.0}, 12.0), y, model)
    assert not bad.passes and bad.fit > 100.0


def test_pipeline_single_mode_trivial_pass():
    # one tiny mode fits with a minuscule constant: inequalities hold
    y = 3.0
    amp = math.exp(-TWO_PI * (y - 1.0))
    F = PeriodicStripFunction.from_coefficients({1: amp}, 6.0)
    report = pipeline_demo(F, y, SupBoundModel(1.0))
    assert all(row["pass"] for row in report.as_json_rows())
