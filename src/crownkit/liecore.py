"""Matrix models of SL(2,R), SL(2,C), their standard subgroups, and the
decompositions used throughout the package.

Conventions:
    a_t   = diag(t, 1/t), t > 0            (split torus A)
    a_z   = diag(z, 1/z), z in C*          (complexified torus)
    n_x   = [[1, x], [0, 1]]               (unipotent N, complex x allowed)
    k_th  = [[cos, sin], [-sin, cos]]      (rotation group K)
    b_t   = diag(1/sqrt(t), sqrt(t))       (dilation used in dyadic estimates)
    h, e, f = sl(2) basis with u = e - f spanning Lie(K)

A `GroupElement` stores its four entries a, b, c, d as Python complex
numbers, and composes, inverts and acts on them as scalars, so that the
geometry modules run without numpy.  Its `.m` is an ndarray view built on
demand from those entries (numpy loads there), for the representation and
spectral code that reads matrices; `LieVector.matrix`, `exp_lie`,
`sym_model` and `pair_sym` are array forms as well.

The complexified horospherical decomposition writes an affine point
(z1, z2), z1 != z2, as n_w a_zeta K_C with w = (z1+z2)/2 and
zeta^2 = (z1-z2)/(2i), which is kept; zeta is defined modulo the two-group
M = {+-1}, and its representative has argument in (-pi/2, pi/2].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DiagonalPoint, DomainError, PointAtInfinity
from .pairmodel import PairPoint, is_infinity, mobius_apply

_DET_TOL = 1e-12

#: radius of the crown band: |phi| < pi/4 for exp(i phi h) x0
OMEGA_RADIUS = math.pi / 4.0


def check_band(phi: float) -> None:
    """Raise DomainError unless |phi| < pi/4, the crown band (NaN is not)."""
    if not abs(phi) < OMEGA_RADIUS:
        raise DomainError(f"|phi| = {abs(phi)} not < pi/4")


def check_torus_angle(r: float) -> None:
    """Raise DomainError unless 0 <= r < pi/4, a torus angle of the crown."""
    if r < 0.0:
        raise DomainError(f"r = {r} outside [0, pi/4)")
    check_band(r)


class GroupElement:
    """2x2 complex matrix [[a, b], [c, d]] of determinant one, stored as
    its four entries; built from any 2x2 array or nested sequence."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, m, *, check: bool = True):
        (a, b), (c, d) = m
        self.a, self.b = complex(a), complex(b)
        self.c, self.d = complex(c), complex(d)
        if check:
            det = self.a * self.d - self.b * self.c
            if abs(det - 1.0) > 1e-9:
                raise ValueError(f"determinant {det} != 1")

    @property
    def rows(self) -> tuple[tuple[complex, complex], ...]:
        """((a, b), (c, d)), the form `mobius_apply` reads."""
        return (self.a, self.b), (self.c, self.d)

    @property
    def m(self):
        """The matrix as a 2x2 complex ndarray, built on demand."""
        import numpy as np
        return np.array(self.rows)

    is_real = property(lambda g: all(abs(v.imag) < _DET_TOL
                                     for v in (g.a, g.b, g.c, g.d)))

    # -- group structure ---------------------------------------------------

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return GroupElement(((a * e + b * g, a * f + b * h),
                             (c * e + d * g, c * f + d * h)), check=False)

    def inverse(self) -> "GroupElement":
        return GroupElement(((self.d, -self.b), (-self.c, self.a)),
                            check=False)

    # -- actions -------------------------------------------------------------

    def act(self, z):
        """Fractional linear action on a point of P1(C)."""
        return mobius_apply(self, z)

    def pair_point(self) -> PairPoint:
        """Image of the base point: g |-> (g(i), g(-i))."""
        return PairPoint(self.act(1j), self.act(-1j))

    def __repr__(self):
        return f"GroupElement({[list(row) for row in self.rows]})"


IDENTITY = GroupElement(((1.0, 0.0), (0.0, 1.0)))


def a_t(t: float) -> GroupElement:
    if not t > 0:
        raise ValueError("a_t needs t > 0")
    return GroupElement(((t, 0.0), (0.0, 1.0 / t)), check=False)


def n_x(x: complex) -> GroupElement:
    return GroupElement(((1.0, x), (0.0, 1.0)), check=False)


def k_theta(theta: float) -> GroupElement:
    c, s = math.cos(theta), math.sin(theta)
    return GroupElement(((c, s), (-s, c)), check=False)


def b_t(t: float) -> GroupElement:
    """diag(1/sqrt t, sqrt t); contracts toward the origin for t < 1."""
    if not t > 0:
        raise ValueError("b_t needs t > 0")
    r = math.sqrt(t)
    return GroupElement(((1.0 / r, 0.0), (0.0, r)), check=False)


_R = 1.0 / math.sqrt(2.0)
K0 = GroupElement(((_R, _R), (-_R, _R)))


@dataclass(frozen=True)
class LieVector:
    """Element c_h*h + c_e*e + c_f*f of sl(2), coefficients real or complex."""

    c_h: complex = 0.0
    c_e: complex = 0.0
    c_f: complex = 0.0

    def matrix(self):
        """The element as a 2x2 complex ndarray."""
        import numpy as np
        h, e, f = np.array([[[1, 0], [0, -1]], [[0, 1], [0, 0]],
                            [[0, 0], [1, 0]]], dtype=complex)
        return self.c_h * h + self.c_e * e + self.c_f * f

    def in_omega_hat(self) -> bool:
        """Symmetric traceless with spectrum inside (-pi/4, pi/4)."""
        h, e, f = complex(self.c_h), complex(self.c_e), complex(self.c_f)
        if any(abs(v.imag) > 1e-14 for v in (h, e, f)):
            return False
        if abs(e - f) > 1e-14:
            return False
        radius = math.sqrt(h.real ** 2 + e.real * f.real)
        return radius < OMEGA_RADIUS


H_VEC = LieVector(c_h=1.0)
E_VEC = LieVector(c_e=1.0)
F_VEC = LieVector(c_f=1.0)
U_VEC = LieVector(c_e=1.0, c_f=-1.0)


def exp_lie(v: LieVector, scale: complex = 1.0) -> GroupElement:
    """Matrix exponential of scale * v, in closed form.

    For traceless 2x2 matrices M with M^2 = delta^2 * Id this is
    cosh(delta) Id + sinh(delta)/delta * M, which is exact.  It is formed
    on `v.matrix()`; only the representation code, which loads numpy,
    calls it.
    """
    import numpy as np
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


def sym_model(g: GroupElement):
    """Image of g in the symmetric-matrix model: g |-> g g^T (det 1)."""
    return g.m @ g.m.T


def p_invariant(g: GroupElement) -> complex:
    """Trace of the symmetric model; generates the K_C-invariants."""
    s = sym_model(g)
    return s[0, 0] + s[1, 1]


def pair_sym_entries(z: PairPoint) -> tuple[complex, complex, complex]:
    """Entries (s00, s01, s11) of the symmetric model of an affine pair
    point.

    The point is n_w a_zeta x0 with w = (z1+z2)/2 and zeta^2 = (z1-z2)/(2i).
    With d = 1/zeta^2 = 2i/(z1-z2) its symmetric model is
    d [[z1 z2, w], [w, 1]], where zeta^2 + w^2/zeta^2 = d z1 z2 sums no terms
    that cancel.  s00 is formed as z1 (z2 d), so that a far coordinate
    opposite a finite one does not overflow.
    """
    z1, z2 = z.finite()
    d = 2j / (z1 - z2)
    return z1 * (z2 * d), d * (0.5 * (z1 + z2)), d


def pair_sym(z: PairPoint):
    """`pair_sym_entries` as the symmetric 2x2 ndarray."""
    import numpy as np
    s00, s01, s11 = pair_sym_entries(z)
    return np.array([[s00, s01], [s01, s11]])


def p_of_pair(z: PairPoint) -> complex:
    """Trace invariant evaluated directly on an affine pair point."""
    s = pair_sym(z)
    return complex(s[0, 0] + s[1, 1])
