"""Closed-form vectors with exact derivative jets.

Everything the representation-theoretic modules integrate is built from a
small expression algebra whose nodes evaluate Taylor jets (f, f', ...,
f^(n)) at arrays of real points.  The key node is the complex power of a
quadratic, kappa * q(x)^sigma, which its complex roots rho describe: the
derivatives of log q are (-1)^(k-1) (k-1)! sum_rho (x - rho)^(-k), and
the roots mark where the power peaks and how wide the peak is.  This
covers the spherical vector, all of its analytic continuations, and their
images under the group action, with no finite-difference noise anywhere.

Branch discipline: a quadratic power is only admitted when q(R) avoids the
cut (-inf, 0], in which case the principal branch is the continuous one.
Group translates of continued vectors stay in the algebra because the
pulled-back quadratic (c x + d)^2 q(m(x)) again avoids the cut and the
modulus factors of the unitary action cancel the leftover real-linear
powers exactly: `pull_quadratic` is that carrier and
`QuadraticPower.pulled` the translate, with no Mobius pole.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import BranchCut


def _binom(n, k):
    return math.comb(n, k)


def _leibniz(aj: np.ndarray, bj: np.ndarray) -> np.ndarray:
    """Jets of a product from jets of the factors."""
    n = min(aj.shape[0], bj.shape[0]) - 1
    out = np.zeros((n + 1,) + aj.shape[1:], dtype=complex)
    for k in range(n + 1):
        for j in range(k + 1):
            out[k] += _binom(k, j) * aj[j] * bj[k - j]
    return out


def _compose_jets(fj: np.ndarray, mj: np.ndarray) -> np.ndarray:
    """Jets of f o m from jets of f at m(x) and jets of m at x (order <= 4)."""
    n = min(fj.shape[0], mj.shape[0]) - 1
    out = np.zeros((n + 1,) + fj.shape[1:], dtype=complex)
    out[0] = fj[0]
    if n >= 1:
        out[1] = fj[1] * mj[1]
    if n >= 2:
        out[2] = fj[2] * mj[1] ** 2 + fj[1] * mj[2]
    if n >= 3:
        out[3] = (fj[3] * mj[1] ** 3 + 3.0 * fj[2] * mj[1] * mj[2]
                  + fj[1] * mj[3])
    if n >= 4:
        out[4] = (fj[4] * mj[1] ** 4 + 6.0 * fj[3] * mj[1] ** 2 * mj[2]
                  + fj[2] * (4.0 * mj[1] * mj[3] + 3.0 * mj[2] ** 2)
                  + fj[1] * mj[4])
    if n >= 5:
        raise ValueError("jet composition implemented up to order 4")
    return out


def _poly_jets(coeffs, x: np.ndarray, order: int) -> np.ndarray:
    out = np.zeros((order + 1, x.size), dtype=complex)
    c = np.asarray(coeffs, dtype=complex)
    for k in range(order + 1):
        out[k] = P.polyval(x, c) if c.size else 0.0
        c = P.polyder(c)
    return out


def pull_quadratic(q, ginv) -> np.ndarray:
    """Ascending coefficients of P = (c x + d)^2 q0 + (a x + b)(c x + d) q1
    + (a x + b)^2 q2, q pulled back by (a, b; c, d) = ginv (a matrix or its
    entries).  For real ginv, |c x + d|^(2 sigma) q(m(x))^sigma = P^sigma
    with principal branches, since (c x + d)^2 > 0."""
    a, b, c, d = np.asarray(ginv, dtype=complex).ravel()
    q0, q1, q2 = q
    return np.array([d * d * q0 + b * d * q1 + b * b * q2,
                     2.0 * c * d * q0 + (a * d + b * c) * q1 + 2.0 * a * b * q2,
                     c * c * q0 + a * c * q1 + a * a * q2])


def _offcut_ok(q) -> bool:
    """True when the values on R of the quadratic with ascending
    coefficients q = (q0, q1, q2) avoid the cut (-inf, 0]."""
    q0, q1, q2 = (complex(c) for c in q)
    # real zeros of Im q(x); there Re q must be positive
    candidates = []
    a, b, c = q2.imag, q1.imag, q0.imag
    if abs(a) > 1e-300:
        disc = b * b - 4.0 * a * c
        if disc >= 0:
            r = math.sqrt(disc)
            candidates += [(-b + r) / (2 * a), (-b - r) / (2 * a)]
    elif abs(b) > 1e-300:
        candidates.append(-c / b)
    else:
        if abs(c) > 1e-300:
            return True  # Im q is a nonzero constant: never on the real cut
        # q is real: need q(x) > 0
        ar, br, cr = q2.real, q1.real, q0.real
        if abs(ar) < 1e-300:
            return abs(br) < 1e-300 and cr > 0
        if ar < 0:
            return False
        shift = br * br / (4.0 * ar)
        return cr - shift > 1e-12 * (abs(cr) + shift)
    for x in candidates:
        val = (q2 * x + q1) * x + q0
        # q(x) is real here; a zero lost to rounding still touches the cut
        scale = abs(q2) * x * x + abs(q1) * abs(x) + abs(q0)
        if val.real <= 1e-12 * scale:
            return False
    return True


class SmoothVector:
    """Base class: complex-valued function on R with jets up to order 4.

    support None means the whole line.
    """

    support: tuple[float, float] | None = None
    hints: tuple[float, ...] = ()

    def jet(self, x: np.ndarray, order: int) -> np.ndarray:
        raise NotImplementedError

    def value(self, x):
        return self.jet(np.atleast_1d(np.asarray(x, dtype=float)), 0)[0]

    def __call__(self, x):
        scalar = np.isscalar(x)
        v = self.value(x)
        return complex(v[0]) if scalar else v


class QuadraticPower(SmoothVector):
    """kappa * (q2 x^2 + q1 x + q0)^sigma with the principal branch.

    Its hints are Re rho and Re rho -+ |Im rho| for each complex root rho
    of q: where the power peaks and how wide the peak is."""

    def __init__(self, kappa: complex, q, sigma: complex):
        q = np.asarray(q, dtype=complex)  # ascending: (q0, q1, q2)
        if q.shape != (3,):
            raise ValueError("quadratic needs three ascending coefficients")
        if not _offcut_ok(q):
            raise BranchCut(f"quadratic {q} meets the cut (-inf, 0] on R")
        self.kappa = complex(kappa)
        self.q = q
        self.sigma = complex(sigma)
        roots = P.polyroots(np.trim_zeros(q, "b"))
        self.roots = roots[np.isfinite(roots)]
        self.hints = tuple(sorted(float(r.real + s * abs(r.imag))
                                  for r in self.roots for s in (-1, 0, 1)))

    def pulled(self, ginv) -> "QuadraticPower":
        """pi(g) of this vector, (a, b; c, d) = ginv = g^{-1} real, at the
        parameter lam of its exponent sigma = (-1 + i lam)/2: the power
        kappa * P^sigma of the pulled carrier `pull_quadratic(q, ginv)`."""
        if abs(self.sigma.real + 0.5) > 1e-12:
            raise ValueError("the closed-form action needs the unitary exponent")
        return QuadraticPower(self.kappa, pull_quadratic(self.q, ginv),
                              self.sigma)

    def jet(self, x, order):
        x = np.atleast_1d(np.asarray(x))
        out = np.zeros((order + 1, x.size), dtype=complex)
        # principal log; valid by the off-cut invariant
        out[0] = self.kappa * np.exp(self.sigma * np.log(P.polyval(x, self.q)))
        # dlog[k] = (log q)^(k+1) = (-1)^k k! sum_rho (x - rho)^(-k-1)
        dlog = []
        power = 1.0
        for k in range(order):
            power = power / (x - self.roots[:, None])
            dlog.append((-1) ** k * math.factorial(k) * power.sum(axis=0))
        # f' = sigma (log q)' f, differentiated n times by Leibniz
        for n in range(order):
            out[n + 1] = self.sigma * sum(_binom(n, k) * dlog[k] * out[n - k]
                                          for k in range(n + 1))
        return out


class PolyVector(SmoothVector):
    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=complex)

    def jet(self, x, order):
        return _poly_jets(self.coeffs, np.atleast_1d(np.asarray(x)), order)


class ExpPoly(SmoothVector):
    """kappa * p(x) * exp(-(a x^2 + b x + c)) with Re a > 0 (Schwartz type)."""

    def __init__(self, kappa: complex, poly, quad):
        quad = np.asarray(quad, dtype=complex)  # ascending (c, b, a)
        if quad.shape != (3,) or quad[2].real <= 0:
            raise ValueError("Gaussian needs Re(leading coefficient) > 0")
        self.kappa = complex(kappa)
        self.quad = quad
        self._polys = [np.asarray(poly, dtype=complex)]

    def _p(self, n):
        dq = P.polyder(self.quad)
        while len(self._polys) <= n:
            pk = self._polys[-1]
            self._polys.append(P.polysub(P.polyder(pk), P.polymul(pk, dq)))
        return self._polys[n]

    def jet(self, x, order):
        x = np.atleast_1d(np.asarray(x))
        gauss = np.exp(-P.polyval(x, self.quad))
        out = np.zeros((order + 1, x.size), dtype=complex)
        for n in range(order + 1):
            out[n] = self.kappa * P.polyval(x, self._p(n)) * gauss
        return out


class Sum(SmoothVector):
    def __init__(self, terms):
        """terms: iterable of (coefficient, SmoothVector)."""
        self.terms = [(complex(c), v) for c, v in terms]
        sups = [v.support for _, v in self.terms]
        if any(s is None for s in sups):
            self.support = None
        else:
            self.support = (min(s[0] for s in sups), max(s[1] for s in sups))
        self.hints = tuple(sorted({h for _, v in self.terms for h in v.hints}))

    def jet(self, x, order):
        x = np.atleast_1d(np.asarray(x))
        out = np.zeros((order + 1, x.size), dtype=complex)
        for c, v in self.terms:
            out += c * v.jet(x, order)
        return out


class Product(SmoothVector):
    def __init__(self, u: SmoothVector, v: SmoothVector):
        self.u, self.v = u, v
        if u.support is not None and v.support is not None:
            lo = max(u.support[0], v.support[0])
            hi = min(u.support[1], v.support[1])
            self.support = (lo, hi) if lo < hi else (lo, lo)
        else:
            self.support = u.support if u.support is not None else v.support
        self.hints = tuple(sorted(set(u.hints) | set(v.hints)))

    def jet(self, x, order):
        x = np.atleast_1d(np.asarray(x))
        return _leibniz(self.u.jet(x, order), self.v.jet(x, order))


class DilatedArg(SmoothVector):
    """prefactor * child(alpha x + beta), real affine argument."""

    def __init__(self, child: SmoothVector, alpha: float, beta: float = 0.0,
                 prefactor: complex = 1.0):
        if alpha == 0:
            raise ValueError("alpha must be nonzero")
        self.child = child
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.prefactor = complex(prefactor)
        if child.support is not None:
            a = (child.support[0] - beta) / alpha
            b = (child.support[1] - beta) / alpha
            self.support = (min(a, b), max(a, b))
        self.hints = tuple(sorted((h - beta) / alpha for h in child.hints))

    def jet(self, x, order):
        x = np.atleast_1d(np.asarray(x))
        cj = self.child.jet(self.alpha * x + self.beta, order)
        scale = self.prefactor * self.alpha ** np.arange(order + 1)
        return cj * scale[:, None]


def _interval_preimage(lo, hi, ginv):
    """Preimage of [lo, hi] under the Mobius map of ginv, or None if the
    pole falls inside (the preimage then wraps around infinity)."""
    a, b, c, d = (float(ginv[0, 0].real), float(ginv[0, 1].real),
                  float(ginv[1, 0].real), float(ginv[1, 1].real))
    def inv(y):  # inverse of (a y + b)/(c y + d)
        den = -c * y + a
        return math.inf if den == 0 else (d * y - b) / den
    p1, p2 = inv(lo), inv(hi)
    if math.isinf(p1) or math.isinf(p2):
        return None
    lo2, hi2 = min(p1, p2), max(p1, p2)
    if c != 0:
        pole = -d / c
        if lo2 <= pole <= hi2:
            return None
    return (lo2, hi2)


class MobiusPulled(SmoothVector):
    """Unitary principal-series action of a real group element.

    f(x) = |c x + d|^(-1 + i lam) child((a x + b)/(c x + d)) where
    (a, b; c, d) is the *inverse* of the acting element.  Jets combine the
    closed-form derivatives of the Mobius map, order-4 composition, and
    the modulus factor |u|^nu with u = c x + d.
    """

    def __init__(self, child: SmoothVector, ginv: np.ndarray, lam: float):
        ginv = np.asarray(ginv, dtype=complex)
        if np.max(np.abs(ginv.imag)) > 1e-12:
            raise ValueError("real action requires a real group element")
        self.child = child
        self.gi = ginv.real
        self.nu = complex(-1.0, lam)
        if child.support is not None:
            self.support = _interval_preimage(*child.support, self.gi)
        # the preimages of the child's hints, and the pole -d/c, where the
        # child's behaviour at infinity lands; points sent to infinity drop
        a, b, c, d = self.gi.ravel()
        with np.errstate(all="ignore"):
            pts = [(d * h - b) / (a - c * h) for h in child.hints] + [-d / c]
        self.hints = tuple(sorted(h for h in pts if np.isfinite(h)))

    def _mobius_jets(self, x, order):
        a, b, c, d = self.gi.ravel()
        u = c * x + d
        mj = np.zeros((order + 1, x.size), dtype=complex)
        mj[0] = (a * x + b) / u
        sign = 1.0
        fact = 1.0
        for n in range(1, order + 1):
            # m^(n) = (-1)^(n-1) n! c^(n-1) u^(-n-1)
            mj[n] = sign * fact * c ** (n - 1) * u ** (-(n + 1))
            sign = -sign
            fact *= (n + 1)
        return mj

    def _modulus_jets(self, x, order):
        a, b, c, d = self.gi.ravel()
        u = c * x + d
        au = np.abs(u)
        sgn = np.sign(u)
        out = np.zeros((order + 1, x.size), dtype=complex)
        coeff = 1.0 + 0.0j
        for n in range(order + 1):
            out[n] = coeff * (c * sgn) ** n * au ** (self.nu - n)
            coeff *= (self.nu - n)
        return out

    def jet(self, x, order):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        mj = self._mobius_jets(x, order)
        fj_at_m = self.child.jet(mj[0].real, order)
        comp = _compose_jets(fj_at_m, mj)
        return _leibniz(self._modulus_jets(x, order), comp)


#: ascending coefficients of p_n, n <= 4, with (d/dt)^n exp(-1/t) =
#: exp(-1/t) p_n(1/t): p_0 = 1 and p_n(u) = u^2 (p_{n-1}(u) - p_{n-1}'(u))
_GLUE_POLYS = (np.array([1.0]),
               np.array([0.0, 0.0, 1.0]),
               np.array([0.0, 0.0, 0.0, -2.0, 1.0]),
               np.array([0.0, 0.0, 0.0, 0.0, 6.0, -6.0, 1.0]),
               np.array([0.0, 0.0, 0.0, 0.0, 0.0, -24.0, 36.0, -12.0, 1.0]))


def _glue_jets(t: np.ndarray, order: int) -> np.ndarray:
    """Jets of exp(-1/t) for t > 0 (zero extended for t <= 0)."""
    if order >= len(_GLUE_POLYS):
        raise ValueError("glue jets tabulated up to order 4")
    t = np.asarray(t, dtype=float)
    pos = t > 0
    out = np.zeros((order + 1, t.size), dtype=complex)
    if not np.any(pos):
        return out
    u = 1.0 / t[pos]
    e = np.exp(-u)
    out[0][pos] = e
    for n in range(1, order + 1):
        out[n][pos] = e * P.polyval(u, _GLUE_POLYS[n])
    return out


class RadialStep(SmoothVector):
    """Smooth even cutoff: 1 for |x| <= a, 0 for |x| >= b.

    The transition uses s(t) = g(t)/(g(t) + g(1-t)) with g(t) = exp(-1/t),
    evaluated at t = (b - |x|)/(b - a); all derivatives vanish at both
    transition endpoints.
    """

    def __init__(self, a: float, b: float):
        if not 0 < a < b:
            raise ValueError("need 0 < a < b")
        self.a = float(a)
        self.b = float(b)
        self.support = (-b, b)
        self.hints = (-b, -a, a, b)

    def jet(self, x, order):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        ax = np.abs(x)
        out = np.zeros((order + 1, x.size), dtype=complex)
        out[0][ax <= self.a] = 1.0
        trans = (ax > self.a) & (ax < self.b)
        if not np.any(trans):
            return out
        width = self.b - self.a
        t = (self.b - ax[trans]) / width
        g1 = _glue_jets(t, order)
        g2 = _glue_jets(1.0 - t, order)
        denom = g1 + g2 * (-1.0) ** np.arange(order + 1)[:, None]
        # quotient jets s = g1 / (g1 + g(1-t)) via Leibniz on s * denom = g1
        sj = np.zeros_like(g1)
        sj[0] = g1[0] / denom[0]
        for n in range(1, order + 1):
            acc = g1[n].copy()
            for j in range(n):
                acc -= _binom(n, j) * sj[j] * denom[n - j]
            sj[n] = acc / denom[0]
        # chain through t(x) = (b - |x|)/width, dt/dx = -sign(x)/width
        slope = -np.sign(x[trans]) / width
        for n in range(order + 1):
            out[n][trans] = sj[n] * slope ** n
        return out
