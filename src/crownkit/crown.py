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

import numpy as np

from .errors import (DomainError, NotInCrown, NotOnBoundary,
                     NumericalDrift)
from .liecore import (OMEGA_RADIUS, GroupElement, LieVector, a_t, check_band,
                      k_theta, n_x, pair_sym)
from .pairmodel import PairPoint, is_infinity


def _imag_or_none(z):
    return None if is_infinity(z) else float(np.imag(z))


def chordal_distance(z, w) -> float:
    """Distance on the Riemann sphere; bounded, and handles infinity."""
    if is_infinity(z) and is_infinity(w):
        return 0.0
    if is_infinity(z):
        return 1.0 / math.sqrt(1.0 + abs(w) ** 2)
    if is_infinity(w):
        return 1.0 / math.sqrt(1.0 + abs(z) ** 2)
    return abs(z - w) / math.sqrt((1.0 + abs(z) ** 2) * (1.0 + abs(w) ** 2))


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
    return PairPoint(w, -w).apply(g.m)


def unipotent_point(g: GroupElement, x: float) -> PairPoint:
    """g n_{ix} x0 = g(i + ix, -i + ix), |x| < 1."""
    if abs(x) >= 1.0:
        raise DomainError(f"|x| = {abs(x)} not < 1")
    return PairPoint(1j * (1.0 + x), 1j * (x - 1.0)).apply(g.m)


@dataclass(frozen=True)
class OrbitMatch:
    g: GroupElement
    residual: float
    boost: float  # hyperbolic parameter of the A-part, diverges at pi/4


_MAX_BOOST_SCALE = 1e8


def match_orbits(phi: float) -> OrbitMatch:
    """Group element carrying the unipotent orbit point onto the elliptic one.

    For |phi| < pi/4 the element g = k_{pi/4} a_s with s = cos(2 phi)^{-1/2}
    satisfies g n_{i sin 2 phi} x0 = exp(i phi h) x0.  Writing r = 2 log s,
    the boost solves tanh r = (y^2/2) / (1 - y^2/2) with y = sin 2 phi, and
    r diverges as phi -> pi/4, where the scale is capped and the residual
    reported as is.
    """
    check_band(phi)
    c = math.cos(2.0 * phi)
    s = min(c ** -0.5, _MAX_BOOST_SCALE)
    g = k_theta(math.pi / 4.0) @ a_t(s)
    y = math.sin(2.0 * phi)
    matched = PairPoint(1j * (1.0 + y), 1j * (y - 1.0)).apply(g.m)
    target = elliptic_point(GroupElement(np.eye(2)), phi)
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
    m = c.y.matrix().real
    alpha, beta = float(m[0, 0]), float(m[0, 1])
    rho = math.hypot(alpha, beta)
    if rho == 0.0:
        return c.g.pair_point()
    theta = 0.5 * math.atan2(-beta, alpha)
    return elliptic_point(c.g @ k_theta(theta), rho)


def point_to_tangent(z: PairPoint) -> TangentBundleCoords:
    """Inverse disc-bundle coordinates of a crown point.

    Splits the symmetric model S = A + iB: the positive square root of A
    moves the point over the base, and diagonalizing what remains recovers
    the rotation, the radial part, and the elliptic angle.  Eigenvalues are
    ordered largest first, which normalizes the angle to [0, pi/4).
    """
    if not crown_contains(z):
        raise NotInCrown(f"{z} is outside the crown")
    s_mat = pair_sym(z)
    A = s_mat.real.copy()
    B = s_mat.imag.copy()
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NotInCrown("real part of the symmetric model is not positive "
                         "definite") from exc
    det_a = float(np.linalg.det(A))
    g1 = L / det_a ** 0.25
    Linv = np.linalg.inv(L)
    b_tilde = Linv @ B @ Linv.T
    evals, evecs = np.linalg.eigh(b_tilde)
    order = np.argsort(evals)[::-1]  # largest first -> phi >= 0
    evals = evals[order]
    R = evecs[:, order]
    if np.linalg.det(R) < 0:
        R[:, 1] = -R[:, 1]
    mu1 = math.sqrt(det_a) * (1.0 + 1j * evals[0])
    t = abs(mu1) ** 0.5
    phi = 0.5 * cmath.phase(mu1)
    if abs(phi) >= OMEGA_RADIUS:
        raise NotInCrown(f"recovered angle {phi} outside (-pi/4, pi/4)")
    # the rotation is folded into g, leaving Y diagonal in this frame
    g = GroupElement(g1) @ GroupElement(R) @ a_t(t)
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
    m = np.array([[half, 0.5 * (u + v)], [0.0, 1.0]]) / math.sqrt(half)
    return GroupElement(m)


def boundary_classify(z: PairPoint, tol: float = 1e-8) -> BoundaryClass:
    """Classify a near-boundary point into its stratum.

    Both imaginary parts ~0 means the distinguished orbit of (1, -1); the
    quadric image is then verified to be purely imaginary.  Otherwise the
    degenerate factor picks the unipotent sign.  Interior or exterior
    points raise NotOnBoundary.
    """
    m1 = 0.0 if is_infinity(z.first) else float(np.imag(z.first))
    m2 = 0.0 if is_infinity(z.second) else -float(np.imag(z.second))
    if m1 < -tol or m2 < -tol:
        raise NotOnBoundary(f"{z} lies outside the closed crown")
    if min(m1, m2) > tol:
        raise NotOnBoundary(f"{z} is interior to the crown")

    if m1 <= tol and m2 <= tol:
        cone = None
        if not (is_infinity(z.first) or is_infinity(z.second)):
            q = to_quadric(z)
            if not np.max(np.abs(q.z.real)) <= 100.0 * max(tol, 1e-12) * (
                    1.0 + np.max(np.abs(q.z.imag))):
                raise NumericalDrift(
                    "distinguished candidate is not purely imaginary "
                    "in the quadric model")
            cone = (_real_pair_transporter(float(np.real(z.first)),
                                           float(np.real(z.second))),
                    LieVector())
        return BoundaryClass("distinguished", cone)
    if m1 <= tol:
        return BoundaryClass("unipotent_minus")
    return BoundaryClass("unipotent_plus")


@dataclass(frozen=True)
class QuadricPoint:
    """Point of the complex quadric Q(z) = z0^2 - z1^2 - z2^2 = 1."""

    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=complex))
        if self.z.shape != (3,):
            raise ValueError("quadric point needs three coordinates")
        # cancellation in Q scales with the squared coordinate size
        scale = max(1.0, float(np.max(np.abs(self.z))) ** 2)
        if not abs(self.quadric_form() - 1.0) <= 1e-10 * scale:
            raise NumericalDrift(f"Q(z) = {self.quadric_form()} != 1")

    def quadric_form(self) -> complex:
        z0, z1, z2 = self.z
        return z0 * z0 - z1 * z1 - z2 * z2


def _sym_coords(s: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):  # inf * 0 is refused below
        coords = np.array([0.5 * (s[0, 0] + s[1, 1]), s[0, 1],
                           0.5 * (s[0, 0] - s[1, 1])])
    if not np.all(np.isfinite(coords)):
        raise NumericalDrift("quadric coordinates overflow")
    return coords


def quadric_of_sym(s: np.ndarray) -> QuadricPoint:
    return QuadricPoint(_sym_coords(s))


def to_quadric(z: PairPoint) -> QuadricPoint:
    """Quadric coordinates of an affine pair point.

    Fixed by x0 -> (1, 0, 0), with the A-direction flowing in (z0, z2),
    the boost direction of SO(1,1) in (z0, z1), and K rotating (z1, z2);
    under this isogeny the elliptic angle doubles.
    """
    coords = _sym_coords(pair_sym(z))
    form = coords[0] ** 2 - coords[1] ** 2 - coords[2] ** 2
    scale = max(1.0, float(np.max(np.abs(coords))) ** 2)
    if not abs(form - 1.0) <= 1e-8 * scale:
        raise NumericalDrift("quadric constraint drifted beyond 1e-8")
    # project exactly back onto the quadric before constructing
    return QuadricPoint(coords / np.sqrt(form))


def from_quadric(q: QuadricPoint, _depth: int = 0) -> PairPoint:
    """Affine pair point with the given quadric coordinates.

    Inverts via the symmetric model: with p = 2 z0 off the slit
    (-inf, -2], the matrix (s + 1) / sqrt(p + 2) is the canonical
    determinant-one square root of s.  On the slit a fixed boost moves the
    point off it first.
    """
    z0, z1, z2 = q.z
    s = np.array([[z0 + z2, z1], [z1, z0 - z2]])
    p = 2.0 * z0
    shifted = p + 2.0
    if abs(shifted.imag) < 1e-12 and shifted.real <= 1e-12:
        if _depth > 2:
            raise NumericalDrift("could not move quadric point off the slit")
        boost = a_t(2.0)
        s_moved = boost.m.real @ s @ boost.m.real.T
        moved = from_quadric(quadric_of_sym(s_moved), _depth + 1)
        return moved.apply(boost.inverse().m)
    root = cmath.sqrt(shifted)
    g = (s + np.eye(2)) / root
    return PairPoint(*(GroupElement(g, check=False).pair_point().finite()))


def gindikin_contains(q: QuadricPoint) -> bool:
    """Crown membership read off the quadric coordinates: the real part must
    be a future-pointing timelike vector."""
    x = q.z.real
    return bool(x[0] > 0.0 and x[0] ** 2 - x[1] ** 2 - x[2] ** 2 > 0.0)


def random_real_element(rng, scale: float = 0.8) -> GroupElement:
    """k_theta a_t n_x with theta uniform on [0, pi), log t and x normal
    with standard deviation `scale`, drawn in that order from `rng`."""
    return (k_theta(rng.uniform(0.0, np.pi))
            @ a_t(float(np.exp(rng.normal(0.0, scale))))
            @ n_x(float(rng.normal(0.0, scale))))


def random_crown_point(rng, scale: float = 0.8) -> PairPoint:
    """g exp(i phi h) x0 with |phi| <= 0.85 pi/4 drawn first, then g from
    `random_real_element`."""
    phi = rng.uniform(-0.85, 0.85) * math.pi / 4.0
    return elliptic_point(random_real_element(rng, scale), phi)
