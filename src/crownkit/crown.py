"""The crown domain in the pair model, its parameterizations and boundary.

The crown is Xi = X x Xbar: pairs (z1, z2) with z1 in the upper and z2 in
the lower half plane.  It is swept out by G-orbits through imaginary
diagonal displacements exp(i phi h) x0, |phi| < pi/4 (elliptic picture) and
through imaginary unipotent displacements n_{ix} x0, |x| < 1 (unipotent
picture); the two orbit families match along an explicit rotation/boost.
The topological boundary splits into the distinguished G-orbit of (1, -1)
and the two unipotent orbits through n_{+-i} x0.

A second coordinate system realizes the same space as the complex quadric
z0^2 - z1^2 - z2^2 = 1, reached from the symmetric-matrix model g g^T via
(z0, z1, z2) = ((s11+s22)/2, s12, (s11-s22)/2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (DomainError, NotInCrown, NotOnBoundary,
                     NumericalDrift, PointAtInfinity)
from .liecore import (IDENTITY, OMEGA_RADIUS, GroupElement, LieVector, a_t,
                      check_band, k_theta, n_x, pair_sym_entries)
from .pairmodel import PairPoint, divide, is_infinity


def _imag_or_none(z):
    return None if is_infinity(z) else float(z.imag)


def chordal_distance(z, w) -> float:
    """Distance on the Riemann sphere; bounded, and handles infinity.  The
    factors sqrt(1 + |z|^2) are formed by hypot and divided out one at a
    time, so that none overflows."""
    if is_infinity(z) and is_infinity(w):
        return 0.0
    if is_infinity(z):
        return 1.0 / math.hypot(1.0, abs(w))
    if is_infinity(w):
        return 1.0 / math.hypot(1.0, abs(z))
    return abs(z - w) / math.hypot(1.0, abs(z)) / math.hypot(1.0, abs(w))


def pair_distance(z: PairPoint, w: PairPoint) -> float:
    return max(chordal_distance(z.first, w.first),
               chordal_distance(z.second, w.second))


def crown_contains(z: PairPoint) -> bool:
    """True iff Im(first) > 0 and Im(second) < 0, both coordinates finite."""
    m1 = _imag_or_none(z.first)
    m2 = _imag_or_none(z.second)
    return m1 is not None and m2 is not None and m1 > 0.0 and m2 < 0.0


def xi_pm_contains(z: PairPoint, sign: str) -> bool:
    """Membership in the two half-crowns: '+' constrains the first factor to
    the upper half plane, '-' the second to the lower; the other factor is
    free on the sphere."""
    if sign == "+":
        m1 = _imag_or_none(z.first)
        return m1 is not None and m1 > 0.0
    if sign == "-":
        m2 = _imag_or_none(z.second)
        return m2 is not None and m2 < 0.0
    raise ValueError("sign must be '+' or '-'")


def elliptic_point(g: GroupElement, phi: float) -> PairPoint:
    """g exp(i phi h) x0 = g(e^{2i phi} i, -e^{2i phi} i), |phi| < pi/4."""
    check_band(phi)
    w = cmath.exp(2j * phi) * 1j
    return PairPoint(w, -w).apply(g)


def unipotent_point(g: GroupElement, x: float) -> PairPoint:
    """g n_{ix} x0 = g(i + ix, -i + ix), |x| < 1."""
    if abs(x) >= 1.0:
        raise DomainError(f"|x| = {abs(x)} not < 1")
    return PairPoint(1j * (1.0 + x), 1j * (x - 1.0)).apply(g)


@dataclass(frozen=True)
class OrbitMatch:
    g: GroupElement
    residual: float
    boost: float  # hyperbolic parameter of the A-part, diverges at pi/4


def match_orbits(phi: float) -> OrbitMatch:
    """Group element carrying the unipotent orbit point onto the elliptic one.

    For |phi| < pi/4 the element g = k_{pi/4} a_s with s = cos(2 phi)^{-1/2}
    satisfies g n_{i sin 2 phi} x0 = exp(i phi h) x0.  Writing r = 2 log s,
    the boost solves tanh r = (y^2/2) / (1 - y^2/2) with y = sin 2 phi, and
    r diverges as phi -> pi/4 but is finite on the band: at the last double
    below pi/4, cos(2 phi) is 2.8e-16, so s = 5.9e7 and r = 35.8.
    """
    check_band(phi)
    c = math.cos(2.0 * phi)
    s = c ** -0.5
    g = k_theta(math.pi / 4.0) @ a_t(s)
    y = math.sin(2.0 * phi)
    matched = PairPoint(1j * (1.0 + y), 1j * (y - 1.0)).apply(g)
    target = elliptic_point(IDENTITY, phi)
    return OrbitMatch(g=g, residual=pair_distance(matched, target),
                      boost=2.0 * math.log(s))


@dataclass(frozen=True)
class TangentBundleCoords:
    """Disc-bundle coordinates [g, Y]: real g and symmetric traceless Y with
    spectrum inside (-pi/4, pi/4)."""

    g: GroupElement
    y: LieVector

    def __post_init__(self):
        if not self.g.is_real:
            raise ValueError("tangent coordinates need a real group element")
        if not self.y.in_omega_hat():
            raise DomainError("Y outside the spectral disc")


def tangent_to_point(c: TangentBundleCoords) -> PairPoint:
    """[g, Y] |-> g exp(iY) x0."""
    alpha, beta = float(c.y.c_h.real), float(c.y.c_e.real)
    rho = math.hypot(alpha, beta)
    if rho == 0.0:
        return c.g.pair_point()
    theta = 0.5 * math.atan2(-beta, alpha)
    return elliptic_point(c.g @ k_theta(theta), rho)


def point_to_tangent(z: PairPoint) -> TangentBundleCoords:
    """Inverse disc-bundle coordinates [g, phi h] of a crown point, with
    phi in [0, pi/4) and g = n_x a_t k_theta read off the pair.

    z1 and conj(z2) are g(i e^{+-2i phi}), symmetric about their hyperbolic
    midpoint g(i) = x + iy.  With y1 = Im z1, y2 = -Im z2 and
    d = |z1 - conj(z2)|: tan(2 phi) = d/(2 sqrt(y1 y2)),
    x = (x1 y2 + x2 y1)/(y1 + y2) and
    y = sqrt(y1 y2) hypot(2 sqrt(y1 y2), d)/(y1 + y2).  Moved back over the
    base, z1 is u = k_theta(i e^{2i phi}), and (u - i)/(u + i) =
    e^{2i theta} i tan(phi) gives the rotation (theta = 0 at phi = 0).
    NotInCrown where phi rounds to pi/4, NumericalDrift where the base point
    overflows.
    """
    if not crown_contains(z):
        raise NotInCrown(f"{z} is outside the crown")
    (x1, y1), (x2, y2) = ((w.real, abs(w.imag)) for w in z.finite())
    root = math.sqrt(y1) * math.sqrt(y2)
    d = abs(complex(x1 - x2, y1 - y2))
    phi = 0.5 * math.atan2(d, 2.0 * root)
    if not phi < OMEGA_RADIUS:
        raise NotInCrown(f"recovered angle {phi} is not < pi/4")
    total = y1 + y2
    x = x1 * (y2 / total) + x2 * (y1 / total)
    y = root * (math.hypot(2.0 * root, d) / total)
    if not (math.isfinite(x) and 0.0 < y < math.inf):
        raise NumericalDrift(f"the base point of {z} overflows")
    theta = 0.0
    if d > 0.0:
        u = (y1 / y) * complex((x1 - x2) / total, 1.0)
        theta = 0.5 * (cmath.phase((u - 1j) / (u + 1j)) - 0.5 * math.pi)
    g = n_x(x) @ a_t(math.sqrt(y)) @ k_theta(theta)
    return TangentBundleCoords(g=g, y=LieVector(c_h=phi))


@dataclass(frozen=True)
class BoundaryClass:
    stratum: str  # 'distinguished' | 'unipotent_plus' | 'unipotent_minus'
    cone_data: tuple[GroupElement, LieVector] | None = None


def _real_pair_transporter(u: float, v: float) -> GroupElement:
    """Real group element sending (1, -1) to the distinct real pair (u, v)."""
    if v > u:
        return _real_pair_transporter(v, u) @ k_theta(math.pi / 2.0)
    if not u > v:
        raise DomainError(f"({u}, {v}) is not a pair of distinct reals")
    half = 0.5 * (u - v)
    r = math.sqrt(half)
    return GroupElement(((half / r, 0.5 * (u + v) / r), (0.0, 1.0 / r)))


def boundary_classify(z: PairPoint, tol: float = 1e-8) -> BoundaryClass:
    """Classify a near-boundary point into its stratum.

    Both imaginary parts ~0 means the distinguished orbit of (1, -1); the
    quadric image is then verified to be purely imaginary.  Otherwise the
    degenerate factor picks the unipotent sign.  Interior or exterior
    points raise NotOnBoundary.
    """
    m1 = 0.0 if is_infinity(z.first) else float(z.first.imag)
    m2 = 0.0 if is_infinity(z.second) else -float(z.second.imag)
    if m1 < -tol or m2 < -tol:
        raise NotOnBoundary(f"{z} lies outside the closed crown")
    if min(m1, m2) > tol:
        raise NotOnBoundary(f"{z} is interior to the crown")

    if m1 <= tol and m2 <= tol:
        cone = None
        if not (is_infinity(z.first) or is_infinity(z.second)):
            q = to_quadric(z)
            if not max(abs(c.real) for c in q.coords) <= 100.0 * max(
                    tol, 1e-12) * (1.0 + max(abs(c.imag) for c in q.coords)):
                raise NumericalDrift(
                    "distinguished candidate is not purely imaginary "
                    "in the quadric model")
            cone = (_real_pair_transporter(float(z.first.real),
                                           float(z.second.real)),
                    LieVector())
        return BoundaryClass("distinguished", cone)
    if m1 <= tol:
        return BoundaryClass("unipotent_minus")
    return BoundaryClass("unipotent_plus")


@dataclass(frozen=True)
class QuadricPoint:
    """Point of the complex quadric Q(z) = z0^2 - z1^2 - z2^2 = 1, kept as
    its three coordinates; `z` is their ndarray view."""

    coords: tuple[complex, complex, complex]

    def __post_init__(self):
        coords = tuple(complex(c) for c in self.coords)
        if len(coords) != 3:
            raise ValueError("quadric point needs three coordinates")
        object.__setattr__(self, "coords", coords)
        # cancellation in Q scales with the squared coordinate size
        residual = self.form_residual()
        if not residual <= 1e-10:
            raise NumericalDrift(f"|Q(z) - 1| is {residual:.2g} of the "
                                 f"squared coordinate size")

    @property
    def z(self):
        """The coordinates as a complex ndarray, built on demand."""
        import numpy as np
        return np.array(self.coords)

    def form_residual(self) -> float:
        """|Q(z) - 1| / max(1, max |z_i|^2), formed on z / max(1, max |z_i|)
        so that it does not overflow."""
        scale = max(1.0, max(abs(c) for c in self.coords))
        z0, z1, z2 = (divide(c, scale) for c in self.coords)
        return abs(z0 * z0 - z1 * z1 - z2 * z2 - 1.0 / scale / scale)


def _sym_coords(s00: complex, s01: complex, s11: complex
                ) -> tuple[complex, complex, complex]:
    coords = (0.5 * (s00 + s11), s01, 0.5 * (s00 - s11))
    if not all(cmath.isfinite(c) for c in coords):
        raise NumericalDrift("quadric coordinates overflow")
    return coords


def to_quadric(z: PairPoint) -> QuadricPoint:
    """Quadric coordinates of an affine pair point.

    Fixed by x0 -> (1, 0, 0), with the A-direction flowing in (z0, z2),
    the boost direction of SO(1,1) in (z0, z1), and K rotating (z1, z2);
    under this isogeny the elliptic angle doubles.  The coordinates are read
    off `pair_sym_entries`, which are products, so that they are accurate
    to the rounding of the largest one; NumericalDrift where they overflow.
    """
    return QuadricPoint(_sym_coords(*pair_sym_entries(z)))


def _quotient(a: complex, b: complex, c: complex, d: complex) -> complex:
    """a/b = c/d, divided by the larger denominator; PointAtInfinity where
    both vanish."""
    if abs(b) < abs(d):
        return c / d
    if b == 0:
        raise PointAtInfinity("the pair point leaves the affine chart")
    return a / b


def from_quadric(q: QuadricPoint) -> PairPoint:
    """Affine pair point with the given quadric coordinates.

    The symmetric model has s00 = z0 + z2, s11 = z0 - z2 and s01 = z1, and
    det s = 1 gives s00 s11 = (z1 + i)(z1 - i).  Inverting `pair_sym`, the
    pair is w1 = (z1 + i)/s11 = s00/(z1 - i) and
    w2 = (z1 - i)/s11 = s00/(z1 + i), each read off the form with the larger
    denominator.
    """
    z0, z1, z2 = q.coords
    s00, s11 = z0 + z2, z0 - z2
    return PairPoint(_quotient(z1 + 1j, s11, s00, z1 - 1j),
                     _quotient(z1 - 1j, s11, s00, z1 + 1j))


def gindikin_contains(q: QuadricPoint) -> bool:
    """Crown membership read off the quadric coordinates: the real part must
    be a future-pointing timelike vector, x0 > |(x1, x2)|."""
    z0, z1, z2 = q.coords
    return z0.real > math.hypot(z1.real, z2.real)


def random_real_element(rng, scale: float = 0.8) -> GroupElement:
    """k_theta a_t n_x with theta uniform on [0, pi), log t and x normal
    with standard deviation `scale`, drawn in that order from `rng`."""
    import numpy as np  # rng is a numpy Generator
    return (k_theta(rng.uniform(0.0, np.pi))
            @ a_t(float(np.exp(rng.normal(0.0, scale))))
            @ n_x(float(rng.normal(0.0, scale))))


def random_crown_point(rng, scale: float = 0.8) -> PairPoint:
    """g exp(i phi h) x0 with |phi| <= 0.85 pi/4 drawn first, then g from
    `random_real_element`."""
    phi = rng.uniform(-0.85, 0.85) * OMEGA_RADIUS
    return elliptic_point(random_real_element(rng, scale), phi)
