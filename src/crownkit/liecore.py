"""Matrix models of SL(2,R), SL(2,C), their standard subgroups, and the
decompositions used throughout the package.

Conventions:
    a_t   = diag(t, 1/t), t > 0            (split torus A)
    a_z   = diag(z, 1/z), z in C*          (complexified torus)
    n_x   = [[1, x], [0, 1]]               (unipotent N, complex x allowed)
    k_th  = [[cos, sin], [-sin, cos]]      (rotation group K)
    b_t   = diag(1/sqrt(t), sqrt(t))       (dilation used in dyadic estimates)
    h, e, f = sl(2) basis with u = e - f spanning Lie(K)

The complexified horospherical decomposition writes an affine point
(z1, z2), z1 != z2, as n_w a_zeta K_C with w = (z1+z2)/2 and
zeta^2 = (z1-z2)/(2i), which is kept; zeta is defined modulo the two-group
M = {+-1}, and its representative has argument in (-pi/2, pi/2].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DiagonalPoint, DomainError, PointAtInfinity
from .pairmodel import PairPoint, is_infinity, mobius_apply

_DET_TOL = 1e-12

#: radius of the crown band: |phi| < pi/4 for exp(i phi h) x0
OMEGA_RADIUS = math.pi / 4.0


def check_band(phi: float) -> None:
    """Raise DomainError unless |phi| < pi/4, the crown band (NaN is not)."""
    if not abs(phi) < OMEGA_RADIUS:
        raise DomainError(f"|phi| = {abs(phi)} not < pi/4")


H_MAT = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
E_MAT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
F_MAT = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


class GroupElement:
    """2x2 complex matrix of determinant one, with a real-entries flag."""

    __slots__ = ("m",)

    def __init__(self, m, *, check: bool = True):
        m = np.asarray(m, dtype=complex).reshape(2, 2)
        if check:
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            if abs(det - 1.0) > 1e-9:
                raise ValueError(f"determinant {det} != 1")
        self.m = m

    is_real = property(lambda g: bool(np.abs(g.m.imag).max() < _DET_TOL))

    # -- group structure ---------------------------------------------------

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.m @ other.m, check=False)

    def inverse(self) -> "GroupElement":
        a, b, c, d = self.m.ravel()
        return GroupElement(np.array([[d, -b], [-c, a]]), check=False)

    # -- actions -------------------------------------------------------------

    def act(self, z):
        """Fractional linear action on a point of P1(C)."""
        return mobius_apply(self.m, z)

    def pair_point(self) -> PairPoint:
        """Image of the base point: g |-> (g(i), g(-i))."""
        return PairPoint(self.act(1j), self.act(-1j))

    def __repr__(self):
        return f"GroupElement({self.m.tolist()})"


IDENTITY = GroupElement(np.eye(2))


def a_t(t: float) -> GroupElement:
    if not t > 0:
        raise ValueError("a_t needs t > 0")
    return GroupElement(np.diag([t, 1.0 / t]), check=False)


def n_x(x: complex) -> GroupElement:
    return GroupElement(np.array([[1.0, x], [0.0, 1.0]]), check=False)


def k_theta(theta: float) -> GroupElement:
    c, s = math.cos(theta), math.sin(theta)
    return GroupElement(np.array([[c, s], [-s, c]]), check=False)


def b_t(t: float) -> GroupElement:
    """diag(1/sqrt t, sqrt t); contracts toward the origin for t < 1."""
    if not t > 0:
        raise ValueError("b_t needs t > 0")
    r = math.sqrt(t)
    return GroupElement(np.diag([1.0 / r, r]), check=False)


K0 = GroupElement(np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0))


@dataclass(frozen=True)
class LieVector:
    """Element c_h*h + c_e*e + c_f*f of sl(2), coefficients real or complex."""

    c_h: complex = 0.0
    c_e: complex = 0.0
    c_f: complex = 0.0

    def matrix(self) -> np.ndarray:
        return self.c_h * H_MAT + self.c_e * E_MAT + self.c_f * F_MAT

    def in_omega_hat(self) -> bool:
        """Symmetric traceless with spectrum inside (-pi/4, pi/4)."""
        m = self.matrix()
        if np.max(np.abs(m.imag)) > 1e-14:
            return False
        if abs(m[0, 1] - m[1, 0]) > 1e-14:
            return False
        radius = math.sqrt(float(m[0, 0].real) ** 2
                           + float(m[0, 1].real) * float(m[1, 0].real))
        return radius < OMEGA_RADIUS


H_VEC = LieVector(c_h=1.0)
E_VEC = LieVector(c_e=1.0)
F_VEC = LieVector(c_f=1.0)
U_VEC = LieVector(c_e=1.0, c_f=-1.0)


def exp_lie(v: LieVector, scale: complex = 1.0) -> GroupElement:
    """Matrix exponential of scale * v, in closed form.

    For traceless 2x2 matrices M with M^2 = delta^2 * Id this is
    cosh(delta) Id + sinh(delta)/delta * M, which is exact.
    """
    m = complex(scale) * v.matrix()
    delta_sq = m[0, 0] * m[0, 0] + m[0, 1] * m[1, 0]
    delta = cmath.sqrt(delta_sq)
    if abs(delta) < 1e-8:
        # series fallback; error O(|delta|^8) below double precision here
        c = 1.0 + delta_sq / 2.0 + delta_sq ** 2 / 24.0
        s = 1.0 + delta_sq / 6.0 + delta_sq ** 2 / 120.0
    else:
        c = cmath.cosh(delta)
        s = cmath.sinh(delta) / delta
    return GroupElement(c * np.eye(2) + s * m, check=False)


@dataclass(frozen=True)
class ComplexNADecomposition:
    """N_C A_C coordinates of an affine point: w = (z1+z2)/2 and the A_C/M
    coordinate a_sq = (z1-z2)/(2i) as formed, which reassembles the point
    without squaring a root (that loses the small part of a_sq).

    a_part is its principal root, with argument in (-pi/2, pi/2]; the flag
    records that -a_part describes the same coset.
    """

    n_part: complex
    a_sq: complex
    sign_ambiguity: bool = True

    @property
    def a_part(self) -> complex:
        return cmath.sqrt(self.a_sq)

    def reassemble(self) -> PairPoint:
        return PairPoint(1j * self.a_sq + self.n_part,
                         -1j * self.a_sq + self.n_part)


def complex_na_decompose(z: PairPoint) -> ComplexNADecomposition:
    """Split an affine point as (i zeta^2 + w, -i zeta^2 + w).

    Raises PointAtInfinity off the affine chart and DiagonalPoint when the
    coordinates coincide.
    """
    if is_infinity(z.first) or is_infinity(z.second):
        raise PointAtInfinity(f"{z} has a coordinate at infinity")
    diff = z.first - z.second
    if diff == 0:
        raise DiagonalPoint("coordinates coincide")
    return ComplexNADecomposition(n_part=0.5 * (z.first + z.second),
                                  a_sq=diff / 2j)


def sym_model(g: GroupElement) -> np.ndarray:
    """Image of g in the symmetric-matrix model: g |-> g g^T (det 1)."""
    return g.m @ g.m.T


def p_invariant(g: GroupElement) -> complex:
    """Trace of the symmetric model; generates the K_C-invariants."""
    s = sym_model(g)
    return s[0, 0] + s[1, 1]


def pair_sym(z: PairPoint) -> np.ndarray:
    """Symmetric model of an affine pair point.

    The point is n_w a_zeta x0 with w = (z1+z2)/2 and zeta^2 = (z1-z2)/(2i).
    With d = 1/zeta^2 = 2i/(z1-z2) its symmetric model is
    d [[z1 z2, w], [w, 1]], where zeta^2 + w^2/zeta^2 = d z1 z2 sums no terms
    that cancel.  s00 is formed as z1 (z2 d), so that a far coordinate
    opposite a finite one does not overflow.
    """
    z1, z2 = z.finite()
    d = 2j / (z1 - z2)
    s01 = d * (0.5 * (z1 + z2))
    return np.array([[z1 * (z2 * d), s01], [s01, d]])


def p_of_pair(z: PairPoint) -> complex:
    """Trace invariant evaluated directly on an affine pair point."""
    s = pair_sym(z)
    return complex(s[0, 0] + s[1, 1])
