"""The pair model of the complexified upper half plane.

The affine complexification of X = upper half plane is modeled as
P1(C) x P1(C) minus the diagonal via the orbit map g |-> (g(i), g(-i)).
Points of P1(C) are complex numbers or the marker `INFINITY`; fractional
linear maps act with explicit handling of the infinite point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DiagonalPoint, NumericalDrift

#: marker for the point at infinity of P1(C)
INFINITY = "inf"

_EQ_TOL = 1e-13


def is_infinity(z) -> bool:
    return isinstance(z, str) and z == INFINITY


def divide(num: complex, den: complex) -> complex:
    """num / den as numpy divides complex128: Smith's method with a
    reciprocal scale, 1/(den.real + den.imag * ratio) for |den.real| >=
    |den.imag|, and a zero denominator dividing each part by +0.

    Python's own complex `/` divides by that sum instead, and differs in
    the last bit on about two in five quotients; this keeps the scalar
    action bit for bit what the array action gave.
    """
    ar, ai, br, bi = num.real, num.imag, den.real, den.imag
    if abs(br) >= abs(bi):
        if br == 0.0:
            return complex(ar * math.inf, ai * math.inf)
        ratio = bi / br
        scale = 1.0 / (br + bi * ratio)
        return complex((ar + ai * ratio) * scale, (ai - ar * ratio) * scale)
    ratio = br / bi if bi else math.nan  # bi = 0 here only when br is NaN
    scale = 1.0 / (bi + br * ratio)
    return complex((ar * ratio + ai) * scale, (ai * ratio - ar) * scale)


def mobius_apply(g, z):
    """Apply g, a GroupElement or a 2x2 array, to a point of P1(C) by
    fractional linear action, on Python scalars.

    Raises NumericalDrift where the denominator or the image is not finite.
    """
    (a, b), (c, d) = getattr(g, "rows", g)
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    if is_infinity(z):
        num, den = a, c
    else:
        z = complex(z)
        num, den = a * z + b, c * z + d
    if den == 0:
        return INFINITY
    w = divide(num, den)
    if not (cmath.isfinite(den) and cmath.isfinite(w)):
        raise NumericalDrift(f"the image of {z} is not finite")
    return w


@dataclass(frozen=True)
class PairPoint:
    """Point of the complexified space in the pair model.

    `first` and `second` live in P1(C); the diagonal is excluded.  The base
    point is (i, -i) and the real space X embeds as z |-> (z, conj(z)).
    """

    first: complex | str
    second: complex | str

    def __post_init__(self):
        if is_infinity(self.first) and is_infinity(self.second):
            raise DiagonalPoint("(inf, inf) lies on the diagonal")
        if (not is_infinity(self.first) and not is_infinity(self.second)
                and abs(self.first - self.second) <= _EQ_TOL):
            raise DiagonalPoint(f"pair {self.first} repeats within tolerance")

    def apply(self, g) -> "PairPoint":
        """Image under g, a GroupElement or a 2x2 array."""
        return PairPoint(mobius_apply(g, self.first),
                         mobius_apply(g, self.second))

    def finite(self) -> tuple[complex, complex]:
        """Both coordinates as complex numbers; raises on infinity."""
        from .errors import PointAtInfinity
        if is_infinity(self.first) or is_infinity(self.second):
            raise PointAtInfinity(f"{self} leaves the affine chart")
        return complex(self.first), complex(self.second)


BASE_POINT = PairPoint(1j, -1j)
#: base point of the distinguished boundary orbit
BOUNDARY_BASE = PairPoint(1.0 + 0.0j, -1.0 + 0.0j)
