"""Decay pipeline for Fourier coefficients of periodic eigenfunctions.

A cusp form restricted to a horocycle is a smooth 1-periodic function
whose holomorphic continuation reaches the strip |Im w| < y supplied by
the unipotent picture of the crown.  Shifting the coefficient contour to
height (1 - eps) y and bounding the integrand by the sup of the continued
form along the matched elliptic orbit produces

    |A_n(y)| <= C e^{-2 pi |n| y (1 - eps)} |log eps|^{1/2},

and the specialization eps = 1/y gives e^{-2 pi |n| (y - 1)} (log y)^{1/2}.
Summing the geometric series yields the sup-norm decay
(log y)^{1/2} e^{-2 pi y} for y > 2.  The pipeline here takes the sup
bound as an input model and checks the chain on synthetic strip
functions; it does not compute cusp forms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StripExceeded

TWO_PI = 2.0 * math.pi
N_CONTOUR = 1 << 12  # trapezoid nodes; spectrally exact for analytic F


@dataclass(frozen=True)
class SupBoundModel:
    """Sup-norm model B(eps) = C sqrt(|log eps|) for the continued form."""

    C: float = 1.0

    def __post_init__(self):
        if not self.C > 0:
            raise ValueError("bound constant must be positive")

    def __call__(self, eps: float) -> float:
        if not 0.0 < eps < 1.0:
            raise DomainError("eps must lie in (0, 1)")
        return self.C * math.sqrt(abs(math.log(eps)))


class PeriodicStripFunction:
    """1-periodic holomorphic function on the strip |Im w| < half_width."""

    def __init__(self, evaluator, half_width: float):
        if not half_width > 0:
            raise ValueError("strip half width must be positive")
        self.evaluator = evaluator
        self.half_width = float(half_width)

    def __call__(self, w):
        w = np.asarray(w, dtype=complex)
        if np.any(np.abs(w.imag) >= self.half_width):
            raise StripExceeded("evaluation outside the strip of holomorphy")
        return np.asarray(self.evaluator(w), dtype=complex)

    @classmethod
    def from_coefficients(cls, coeffs: dict[int, complex], half_width: float):
        """Finite Fourier series sum a_n e^{2 pi i n w}."""
        items = sorted(coeffs.items())

        def evaluator(w):
            w = np.asarray(w, dtype=complex)
            out = np.zeros(w.shape, dtype=complex)
            for n, a in items:
                out += a * np.exp(TWO_PI * 1j * n * w)
            return out

        return cls(evaluator, half_width)


def fourier_coeff(F: PeriodicStripFunction, n: int, y: float,
                  eps: float) -> complex:
    """Contour-shifted coefficient extraction.

    A_n(y) = e^{-2 pi |n| (1-eps) y} Int_0^1 F(u -+ i(1-eps)y)
             e^{-2 pi i n u} du, the shift direction matching sign(n);
    the value is independent of eps within the strip.
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    shift = (1.0 - eps) * y
    if not 0.0 < shift < F.half_width:
        raise StripExceeded(f"contour height {shift} outside the strip")
    sign = 1.0 if n > 0 else -1.0
    u = np.arange(N_CONTOUR) / N_CONTOUR
    vals = F(u - sign * 1j * shift) * np.exp(-TWO_PI * 1j * n * u)
    return math.exp(-TWO_PI * abs(n) * shift) * complex(np.mean(vals))


def coeff_bound(n: int, y: float, eps: float, B: SupBoundModel) -> float:
    """C e^{-2 pi |n| y (1 - eps)} |log eps|^{1/2}."""
    if n == 0:
        raise ValueError("n must be nonzero")
    return B(eps) * math.exp(-TWO_PI * abs(n) * y * (1.0 - eps))


def geometric_coeff_sum(y: float, B: SupBoundModel) -> float:
    """Closed form of sum over n != 0 of coeff_bound(n, y, 1/y, B)."""
    q = math.exp(-TWO_PI * (y - 1.0))
    return B(1.0 / y) * 2.0 * q / (1.0 - q)


def sup_decay_bound(y: float, B: SupBoundModel) -> float:
    """Sup bound on the form at height y > 2: the coefficient bounds at
    eps = 1/y summed as a geometric series, of shape
    (log y)^{1/2} e^{-2 pi y}."""
    if not y > 2.0:
        raise DomainError("the decay bound needs y > 2")
    return geometric_coeff_sum(y, B)


@dataclass(frozen=True)
class PipelineRow:
    n: int
    coeff_abs: float
    bound_unit: float  # coeff_bound at the input model's constant
    ratio: float

    def as_dict(self, fit: float) -> dict:
        return {"n": self.n, "abs_A_n": self.coeff_abs,
                "bound": self.bound_unit * fit,
                "pass": bool(self.coeff_abs <= self.bound_unit * fit * (1 + 1e-9))}


@dataclass(frozen=True)
class PipelineReport:
    rows: tuple[PipelineRow, ...]
    fit: float                  # single fitted constant multiplying B
    reconstructed_sup: float    # sum |A_n|, a proxy for |F(0)|
    decay_bound: float          # sup_decay_bound at the fitted constant
    passes: bool                # fit within a factor 2 of the input model

    def as_json_rows(self) -> list[dict]:
        return [row.as_dict(self.fit) for row in self.rows]


def pipeline_demo(F: PeriodicStripFunction, y: float, B: SupBoundModel,
                  n_max: int = 8) -> PipelineReport:
    """End-to-end check on a synthetic strip function.

    Extracts coefficients up to |n| = n_max on the eps = 1/y contour,
    fits the single constant making every inequality tight, and compares
    the reconstructed sup with the summed decay bound.  A function whose
    coefficients respect the decay fits within a factor ~2 of the input
    model; a violator drives the fit far above it and is reported as a
    failure.
    """
    if not y > 2.0:
        raise DomainError("the demo needs y > 2")
    if n_max < 1:
        raise ValueError(f"n_max = {n_max}: the demo needs n_max >= 1")
    eps = 1.0 / y
    # beyond this |n| the bound e^{-2 pi |n| y (1 - eps)} leaves the normal
    # double range: the ratios lose their precision, then divide by zero
    usable = int(-math.log(sys.float_info.min) / (TWO_PI * y * (1.0 - eps)))
    if n_max > usable:
        raise ValueError(f"n_max = {n_max} exceeds {usable}, the largest "
                         f"with a representable coefficient bound at y = {y}")
    rows = []
    fit = 0.0
    recon = 0.0
    for n in range(-n_max, n_max + 1):
        if n == 0:
            continue
        a = abs(fourier_coeff(F, n, y, eps))
        bound = coeff_bound(n, y, eps, B)
        rows.append(PipelineRow(n, a, bound, a / bound))
        fit = max(fit, a / bound)
        recon += a
    return PipelineReport(rows=tuple(rows), fit=fit,
                          reconstructed_sup=recon,
                          decay_bound=fit * sup_decay_bound(y, B),
                          passes=bool(0.5 <= fit <= 2.0))


def saturating_strip_function(y: float) -> PeriodicStripFunction:
    """Synthetic form with coefficients e^{-2 pi |n| (y - 0.95)}: holomorphic
    past the eps = 1/y contour and saturating the coefficient bound up to a
    margin of 0.05."""
    rate = y - 1.0 + 0.05  # not y - 0.95, which rounds differently

    def evaluator(w):
        w = np.asarray(w, dtype=complex)
        out = np.zeros(w.shape, dtype=complex)
        for n in range(1, 64):
            weight = math.exp(-TWO_PI * n * rate)
            if weight < 1e-18:
                break
            out += weight * (np.exp(TWO_PI * 1j * n * w)
                             + np.exp(-TWO_PI * 1j * n * w))
        return out

    return PeriodicStripFunction(evaluator, half_width=rate)
