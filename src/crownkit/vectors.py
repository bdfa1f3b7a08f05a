"""Closed-form vectors with exact Taylor coefficients.

Everything the representation-theoretic modules integrate is built from a
small expression algebra whose nodes evaluate normalized Taylor
coefficients f^(k)/k!, k = 0..n, at arrays of real points, one row per k
(`SmoothVector.taylor`; `jet` turns row k into f^(k)).  Four operations on
truncated series (Griewank & Walther, Evaluating Derivatives, 2nd ed.,
ch. 13) give every node's rows from its parts: the Cauchy product
`_mul`, the exponential `_exp` from k e_k = sum_j j g_j e_(k-j), the
quotient `_div`, and the composition `_compose`, Horner in m - m_0;
`_poly_taylor` gives a polynomial's rows.

The key node is the complex power of a quadratic, kappa * q(x)^sigma =
kappa exp(sigma log q), which its complex roots rho describe: the
derivatives of log q are (log q)^(k) = (-1)^(k-1) (k-1)! sum_rho
(x - rho)^(-k), and the roots mark where the power peaks and how wide the
peak is.  This covers the spherical vector, all of its analytic
continuations, and their images under the group action, with no
finite-difference noise anywhere.

Branch discipline: a quadratic power is only admitted when q(R) avoids the
cut (-inf, 0], in which case the principal branch is the continuous one.
Group translates of continued vectors stay in the algebra because the
pulled-back quadratic (c x + d)^2 q(m(x)) again avoids the cut and the
modulus factors of the unitary action cancel the leftover real-linear
powers exactly: `pull_quadratic` is that carrier and
`QuadraticPower.pulled` the translate, with no Mobius pole.

The other nodes are the Gaussian `ExpPoly`, the pointwise `Product`, the
Mobius pull-back `MobiusPulled`, and one cutoff, `RadialStep`, whose four
edges place a smooth rise and fall in |x|.  Each Littlewood-Paley cutoff
of the Sobolev bound is one such node at unit scale.

Parity: a node's `even` flag says it is an even function, derived from
its structure.  A quadratic power is even when its linear coefficient
q1 is 0, as for v_K, every continuation `continue_vK(eps)` and every
dilation pi(b_t) of them; a `RadialStep` always is; a `Product` is when
both factors are.  The derived actions keep parity (h) or flip it (e, f,
u, e + f), so the squared modulus of any word of them applied to an even
vector is even, and `square_range` integrates such squares on the right
half of a symmetric range only.  The other nodes report False, the
group translates `MobiusPulled` among them, whatever their values.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import BranchCut


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Taylor rows of a product: the Cauchy product of the rows."""
    n = min(a.shape[0], b.shape[0])
    out = a[:n] * b[0]
    for k in range(1, n):
        for j in range(k):
            out[k] += a[j] * b[k - j]
    return out


def _exp(g: np.ndarray) -> np.ndarray:
    """Taylor rows of exp(g), from k e_k = sum_{j=1..k} j g_j e_(k-j)."""
    e = np.empty_like(g)
    e[0] = np.exp(g[0])
    for k in range(1, g.shape[0]):
        e[k] = g[1] * e[k - 1]
        for j in range(2, k + 1):
            e[k] += j * g[j] * e[k - j]
        e[k] /= k
    return e


def _div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Taylor rows of a / b, from a = b (a / b) solved row by row."""
    c = np.empty(a.shape, dtype=np.result_type(a, b))
    for k in range(a.shape[0]):
        c[k] = a[k]
        for j in range(1, k + 1):
            c[k] -= b[j] * c[k - j]
        c[k] /= b[0]
    return c


def _compose(f: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Taylor rows of f o m from the rows of f at m_0 and the rows of m:
    sum_k f_k (m - m_0)^k by Horner, where m - m_0 has no constant row."""
    out = np.zeros_like(f)
    out[0] = f[-1]
    for k in range(f.shape[0] - 2, -1, -1):
        out[1:] = _mul(m[1:], out[:-1])
        out[0] = f[k]
    return out


def _poly_taylor(coeffs, x: np.ndarray, order: int) -> np.ndarray:
    """Taylor rows at x of the polynomial with ascending coefficients c, by
    Horner in the series x + h: c_0 + (x + h)(c_1 + (x + h)(c_2 + ...))."""
    out = np.zeros((order + 1, x.size), dtype=complex)
    for c in np.asarray(coeffs, dtype=complex)[::-1]:
        if order:
            out[1:] = out[1:] * x + out[:-1]
        out[0] = out[0] * x + c
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
    """Base class: complex-valued function on R with exact Taylor rows.

    support None means the whole line.
    """

    support: tuple[float, float] | None = None
    hints: tuple[float, ...] = ()
    even: bool = False

    def taylor(self, x: np.ndarray, order: int) -> np.ndarray:
        """Rows f^(k)(x)/k!, k = 0..order, at a 1-d array of points."""
        raise NotImplementedError

    def jet(self, x: np.ndarray, order: int) -> np.ndarray:
        """Rows f^(k)(x), k = 0..order."""
        rows = self.taylor(np.atleast_1d(np.asarray(x, dtype=float)), order)
        for k in range(2, order + 1):
            rows[k] *= math.factorial(k)
        return rows

    def value(self, x):
        return self.taylor(np.atleast_1d(np.asarray(x, dtype=float)), 0)[0]

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
        self.even = bool(q[1] == 0)

    def pulled(self, ginv) -> "QuadraticPower":
        """pi(g) of this vector, (a, b; c, d) = ginv = g^{-1} real, at the
        parameter lam of its exponent sigma = (-1 + i lam)/2: the power
        kappa * P^sigma of the pulled carrier `pull_quadratic(q, ginv)`."""
        if abs(self.sigma.real + 0.5) > 1e-12:
            raise ValueError("the closed-form action needs the unitary exponent")
        return QuadraticPower(self.kappa, pull_quadratic(self.q, ginv),
                              self.sigma)

    def taylor(self, x, order):
        # kappa exp(sigma log q): the principal log, valid by the off-cut
        # invariant, and its rows (-1)^(k-1)/k sum_rho (x - rho)^(-k)
        log_q = np.empty((order + 1, x.size), dtype=complex)
        q0, q1, q2 = self.q
        log_q[0] = np.log((q2 * x + q1) * x + q0)  # Horner, as P.polyval
        power = 1.0
        for k in range(1, order + 1):
            power = power / (x - self.roots[:, None])
            log_q[k] = (-1) ** (k - 1) / k * power.sum(axis=0)
        return self.kappa * _exp(self.sigma * log_q)


class ExpPoly(SmoothVector):
    """kappa * p(x) * exp(-(a x^2 + b x + c)) with Re a > 0 (Schwartz type)."""

    def __init__(self, kappa: complex, poly, quad):
        quad = np.asarray(quad, dtype=complex)  # ascending (c, b, a)
        if quad.shape != (3,) or quad[2].real <= 0:
            raise ValueError("Gaussian needs Re(leading coefficient) > 0")
        self.kappa = complex(kappa)
        self.poly = np.asarray(poly, dtype=complex)
        self.quad = quad

    def taylor(self, x, order):
        return _mul(self.kappa * _poly_taylor(self.poly, x, order),
                    _exp(-_poly_taylor(self.quad, x, order)))


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
        self.even = u.even and v.even

    def taylor(self, x, order):
        return _mul(self.u.taylor(x, order), self.v.taylor(x, order))


def square_range(vecs) -> tuple[float, float, float]:
    """(lo, hi, weight) for the integrals of weight |v|^2 over [lo, hi]
    that give the squared norms of vectors v of one common support: the
    support and weight 1, or, when the support is symmetric and every v
    is even, its right half and weight 2.  Integrating the doubled square
    gives the same value and holds the quadrature to the same tolerance
    on it."""
    support = vecs[0].support
    lo, hi = support if support is not None else (-math.inf, math.inf)
    if lo == -hi and all(v.even for v in vecs):
        return 0.0, hi, 2.0
    return lo, hi, 1.0


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

    f(x) = |u|^(-1 + i lam) child(m(x)), u = c x + d and m = (a x + b)/u,
    where (a, b; c, d) is the *inverse* of the acting element.  Its rows
    are the modulus rows |u|^nu binom(nu, k) (c/u)^k times the child's
    rows at m(x) composed with those of m, m_k = (-c)^(k-1) u^(-k-1).
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

    def taylor(self, x, order):
        a, b, c, d = self.gi.ravel()
        u = c * x + d
        m = np.empty((order + 1, x.size))
        modulus = np.empty((order + 1, x.size), dtype=complex)
        m[0] = (a * x + b) / u
        modulus[0] = np.abs(u) ** self.nu
        for k in range(1, order + 1):
            m[k] = (-c) ** (k - 1) * u ** (-k - 1)
            modulus[k] = modulus[k - 1] * ((self.nu - (k - 1)) / k) * (c / u)
        return _mul(modulus, _compose(self.child.taylor(m[0], order), m))


class RadialStep(SmoothVector):
    """Smooth even cutoff with edges a0 <= a1 <= b0 <= b1: 0 on |x| <= a0,
    rising on (a0, a1), 1 on [a1, b0], falling on (b0, b1) and 0 beyond b1.

    Each transition is s(t) = g(t)/(g(t) + g(1-t)) with g(t) = exp(-1/t),
    at t = (|x| - a0)/(a1 - a0) rising and t = (b1 - |x|)/(b1 - b0)
    falling, so all derivatives vanish at the edges.  a0 = a1 = 0 leaves
    out the rise and b0 = b1 = inf the fall.  The rows are real.
    """

    even = True

    def __init__(self, a0: float, a1: float, b0: float, b1: float):
        a0, a1, b0, b1 = map(float, (a0, a1, b0, b1))
        if not (0 <= a0 <= a1 <= b0 <= b1 and (a0 < a1 or a1 == 0)
                and (b0 < b1 or b0 == math.inf)):
            raise ValueError("need 0 <= a0 < a1 <= b0 < b1, with a0 = a1 = 0 "
                             "for no rise and b0 = b1 = inf for no fall")
        self.edges = (a0, a1, b0, b1)
        self.support = None if b1 == math.inf else (-b1, b1)
        self.hints = tuple(sorted({s * e for e in self.edges
                                   if 0 < e < math.inf for s in (-1, 1)}))

    def taylor(self, x, order):
        a0, a1, b0, b1 = self.edges
        ax = np.abs(x)
        out = np.zeros((order + 1, x.size))
        out[0][(a1 <= ax) & (ax <= b0)] = 1.0
        # on each transition t = (|x| - zero)/(one - zero) runs from the
        # edge where the step is 0 to the one where it is 1
        for zero, one in ((a0, a1), (b1, b0)):
            trans = (min(zero, one) < ax) & (ax < max(zero, one))
            if np.any(trans):
                t = (ax[trans] - zero) / (one - zero)
                slope = np.sign(x[trans]) / (one - zero)   # dt/dx
                # s is the logistic sigma(u) of u = 1/(1 - t) - 1/t, whose
                # rows in x are p (slope p)^k - q (-slope q)^k with
                # p = 1/(1 - t), q = 1/t
                p, q = 1.0 / (1.0 - t), 1.0 / t
                dp, dq = slope * p, -slope * q
                u = np.empty((order + 1, t.size))
                u[0] = p - q
                for j in range(1, order + 1):
                    p, q = p * dp, q * dq
                    u[j] = p - q
                # sigma(-|u|) = e/(1 + e) with e = exp(-|u|) <= 1, and
                # sigma(u) = 1 - sigma(-u) where u >= 0: nothing overflows
                flip = np.where(u[0] >= 0.0, -1.0, 1.0)
                e = _exp(u * flip)
                one_plus = e.copy()
                one_plus[0] += 1.0
                s = _div(e, one_plus) * flip
                s[0] += flip < 0.0
                out[:, trans] = s
        return out
