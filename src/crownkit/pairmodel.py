"""The pair model of the complexified upper half plane.

The affine complexification of X = upper half plane is modeled as
P1(C) x P1(C) minus the diagonal via the orbit map g |-> (g(i), g(-i)).
Points of P1(C) are complex numbers or the marker `INFINITY`; fractional
linear maps act with explicit handling of the infinite point.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DiagonalPoint, NumericalDrift

#: marker for the point at infinity of P1(C)
INFINITY = "inf"

_EQ_TOL = 1e-13


def is_infinity(z) -> bool:
    return isinstance(z, str) and z == INFINITY


@np.errstate(all="ignore")  # a non-finite result is refused below
def mobius_apply(m: np.ndarray, z):
    """Apply a 2x2 matrix to a point of P1(C) by fractional linear action.

    Raises NumericalDrift where the denominator or the image is not finite.
    """
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    if is_infinity(z):
        num, den = a, c
    else:
        num, den = a * z + b, c * z + d
    if den == 0:
        return INFINITY
    w = num / den
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

    def apply(self, m: np.ndarray) -> "PairPoint":
        return PairPoint(mobius_apply(m, self.first),
                         mobius_apply(m, self.second))

    def finite(self) -> tuple[complex, complex]:
        """Both coordinates as complex numbers; raises on infinity."""
        from .errors import PointAtInfinity
        if is_infinity(self.first) or is_infinity(self.second):
            raise PointAtInfinity(f"{self} leaves the affine chart")
        return complex(self.first), complex(self.second)


BASE_POINT = PairPoint(1j, -1j)
#: base point of the distinguished boundary orbit
BOUNDARY_BASE = PairPoint(1.0 + 0.0j, -1.0 + 0.0j)
