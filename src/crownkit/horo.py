"""Holomorphic horospherical projection on the crown and its consequences.

On the crown, the torus component of the complexified horospherical
decomposition admits a holomorphic logarithm normalized to vanish at the
base point: with zeta^2 = (z1 - z2)/(2i) the radicand has positive real
part everywhere on the crown, so log a_C(z) = (1/2) Log zeta^2 with the
principal branch *is* the continuous branch, globally.  Its imaginary part
fills exactly [-phi, phi] along the rotation orbit of exp(i phi h) x0
(complex convexity), which the scan below verifies by sweeping the orbit.

The trace invariant p cuts out the domains swept by torus orbits: the
doubled domain is the slit plane C minus (-inf, -2], and the escape curve
connects p = 2 to p = -2 inside [-2, 2] once the angle leaves the crown
band, which quantifies why spherical functions blow up there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .crown import crown_contains
from .errors import BranchCut, DomainError, NotInCrown
from .liecore import IDENTITY, OMEGA_RADIUS, GroupElement, check_band
from .pairmodel import PairPoint

#: margin of trace_domain_contains at the slit and at the threshold angle
_TRACE_TOL = 1e-6


@dataclass(frozen=True)
class HoroProjection:
    """Value of log a_C as the coefficient of h; zero at the base point."""

    value: complex

    def torus_parameter(self) -> complex:
        """The A_C/M representative exp(value)."""
        return cmath.exp(self.value)


def log_aC(z: PairPoint) -> HoroProjection:
    """Continuous holomorphic logarithm of the torus projection on the crown.

    The principal branch realizes the continuous one since Re zeta^2 =
    Im(z1 - z2)/2 > 0 on the crown; at real points this reduces to the
    real horospherical coordinate log t.
    """
    if not crown_contains(z):
        raise NotInCrown(f"{z} is outside the crown")
    z1, z2 = z.finite()
    zeta_sq = (z1 - z2) / 2j
    if zeta_sq.real <= 0.0:
        raise BranchCut("radicand left the right half plane inside the crown")
    return HoroProjection(0.5 * cmath.log(zeta_sq))


def aC_closed_form(theta, phi: float):
    """Torus parameter of k_theta exp(i phi h) x0 in closed form, at one
    theta or an array of them.

    zeta^2 = e^{2i phi} / (cos^2 theta + e^{4i phi} sin^2 theta); the
    radicand traverses the right half plane, so the principal square root
    is the branch continuous in theta from theta = 0, where it equals
    e^{i phi}.
    """
    import numpy as np
    check_band(phi)
    c, s = np.cos(theta), np.sin(theta)
    zeta_sq = np.exp(2j * phi) / (c * c + np.exp(4j * phi) * s * s)
    if np.any((zeta_sq.real <= 0.0) & (np.abs(zeta_sq.imag) < 1e-14)):
        raise BranchCut("the radicand crossed the negative axis")
    return np.sqrt(zeta_sq)


@dataclass(frozen=True)
class ConvexityScan:
    min_im: float
    max_im: float
    endpoint_gap: float  # distance of the attained extremes to +-phi
    violation: float     # overshoot beyond [-phi, phi], 0 if contained


def convexity_scan(phi: float, n_samples: int) -> ConvexityScan:
    """Sweep Im log a_C over the rotation orbit of exp(i phi h) x0.

    Im log a_C is the argument of `aC_closed_form`.  Complex convexity
    predicts the exact range [-phi, phi]; the scan reports the observed
    extremes, the attainment gap, and any overshoot.  It scans with numpy
    arrays: a loop over cmath moves the extremes in the last bit, since
    cmath's sqrt and phase are not numpy's.
    """
    import numpy as np
    check_band(phi)
    if n_samples < 2:
        raise ValueError("need at least two samples")
    thetas = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
    ims = np.angle(aC_closed_form(thetas, phi))
    lo, hi = float(np.min(ims)), float(np.max(ims))
    band = abs(phi)
    gap = max(abs(lo + band), abs(hi - band))
    violation = max(0.0, hi - band, -band - lo)
    return ConvexityScan(lo, hi, gap, violation)


@dataclass(frozen=True)
class TraceDomainSpec:
    """Symmetric torus segment (-b, b) h, optionally doubled.

    The image of p on A exp(i omega) x0 is parameterized by
    cos(2 phi)(t^2 + t^-2) + i sin(2 phi)(t^2 - t^-2), t > 0, |phi| < b.
    """

    omega_bound: float
    doubled: bool = False

    def __post_init__(self):
        if not 0.0 < self.omega_bound <= OMEGA_RADIUS:
            raise ValueError("omega_bound must lie in (0, pi/4]")


DOUBLED_OMEGA = TraceDomainSpec(OMEGA_RADIUS, doubled=True)


def minimal_trace_angle(value: complex) -> float:
    """Smallest |phi| with value in the image of the (-phi, phi) torus tube.

    Eliminating t from the parameterization leaves
    x^2/cos^2(2 phi) - y^2/sin^2(2 phi) = 4, strictly increasing in |phi|,
    so the threshold angle solves a quadratic in cos^2(2 phi).
    """
    x, y = float(value.real), float(value.imag)
    if x <= 0.0:
        return math.inf
    if y == 0.0:
        return 0.0 if x >= 2.0 else 0.5 * math.acos(x / 2.0)
    s_sum = 4.0 + x * x + y * y
    disc = max(s_sum * s_sum - 16.0 * x * x, 0.0)
    c_sq = (s_sum - math.sqrt(disc)) / 8.0
    c_sq = min(max(c_sq, 0.0), 1.0)
    return 0.5 * math.acos(math.sqrt(c_sq))


def trace_domain_contains(spec: TraceDomainSpec, value: complex) -> bool:
    """Membership of a trace value in the torus-tube image, with a margin of
    _TRACE_TOL.

    Doubled domains are the slit plane C minus (-inf, -2]; undoubled ones
    use the closed-form threshold angle.
    """
    value = complex(value)
    if spec.doubled:
        on_slit = (abs(value.imag) <= _TRACE_TOL
                   and value.real <= -2.0 + _TRACE_TOL)
        return not on_slit
    return minimal_trace_angle(value) < spec.omega_bound + _TRACE_TOL


@dataclass(frozen=True)
class EscapeSample:
    g: GroupElement
    sigma: float


def escape_curve(phi: float, s: float) -> EscapeSample:
    """Point on the curve driving the trace from 2 down to -2.

    For pi/4 < |phi| < pi/2 the trace of the full torus orbit through the
    angle phi reaches the slit tip -2.  The curve runs in two legs: the
    first sweeps the angle from 0 to phi at the identity (trace
    2 cos(4 s phi), from 2 at the base point), the second boosts along
    upper triangular gamma(u) = [[a, b], [0, 1/a]] with
    a(u) = (sqrt(-cos 2 phi) + u (1 - sqrt(-cos 2 phi)))/sqrt(-cos 2 phi)
    and b = sqrt(a^2 - a^-2), for which the trace is 2 a(u)^2 cos(2 phi),
    reaching exactly -2 at u = 1.  sigma is real and strictly decreasing
    along the whole curve.
    """
    aphi = abs(phi)
    if not OMEGA_RADIUS < aphi < math.pi / 2.0:
        raise DomainError(f"|phi| = {aphi} outside (pi/4, pi/2)")
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"s = {s} outside [0, 1]")
    c2 = math.cos(2.0 * phi)  # negative in the band
    if s <= 0.5:
        angle = 2.0 * s * phi
        sigma = 2.0 * math.cos(2.0 * angle)
        return EscapeSample(IDENTITY, sigma)
    u = 2.0 * s - 1.0
    root = math.sqrt(-c2)
    a = (root + u * (1.0 - root)) / root
    b = math.sqrt(max(a * a - 1.0 / (a * a), 0.0))
    g = GroupElement(((a, b), (0.0, 1.0 / a)))
    sigma = 2.0 * a * a * c2
    return EscapeSample(g, sigma)
