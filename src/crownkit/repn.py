"""Spherical unitary principal series on L^2(R) and its holomorphic extension.

The unitary action at tempered parameter lam is
    [pi(g) f](x) = |c x + d|^(-1 + i lam) f((a x + b)/(c x + d)),
    (a, b; c, d) = g^{-1},
with spherical vector v_K(x) = (1/sqrt(pi)) (1 + x^2)^(-(1 - i lam)/2).
Conjugating v_K by the elliptic torus element diag(e^{i(pi/4-eps)}, .)
continues to
    c(eps, lam) (1 + e^{-i(pi - 4 eps)} x^2)^(-(1 - i lam)/2),
whose quadratic stays strictly below the real axis for eps in (0, pi/4),
so the principal branch is the continuation from the real point
eps = pi/4.  Its squared norm grows like |log eps|, with logarithmic mass
concentrating at x = +-1.

The spherical function is the K-average of the horospherical character,
phi(z) = (1/2 pi) int exp((1 + i lam) log a_C(k_theta z)) d theta, and on
doubled torus orbits it factors as a pairing of two half-continued
vectors, which keeps it positive there.

The derived action of D = c_h h + c_e e + c_f f is one first-order
operator, linear in D.  Along the holomorphic disc F(w) = pi(exp(w D)) F(0)
it gives F'(0) = d_pi(D) F(0), so the Levi form of log ||F||^2 takes three
integrals and no difference quotient.

Every squared norm of the package is one quadrature, `_word_norms`: the
norms of words d_pi(w_n) ... d_pi(w_1) v, the plain norm being the empty
word.  Each round evaluates the Taylor rows of each vector once and walks
the word tree, one derived-action step per word, and the squared moduli
share one panel pool.  d_pi(h) keeps parity and d_pi(e), d_pi(f), d_pi(u),
d_pi(e + f) flip it, so even vectors on a symmetric support integrate on
the right half (`vectors.square_range`).  Products c g of a cutoff and a
vector with one support go at most _STACK to a quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotInCrown
from .liecore import (E_VEC, F_VEC, H_VEC, OMEGA_RADIUS, U_VEC, GroupElement,
                      LieVector, check_band, check_torus_angle, exp_lie)
from .numerics import (IdentityCheck, QuadratureConfig, REPRESENTATION_CFG,
                       integrate)
from .pairmodel import PairPoint
from .vectors import (MobiusPulled, Product, QuadraticPower, SmoothVector,
                      _mul, square_range)

SQRT_PI = math.sqrt(math.pi)
#: the most products one quadrature of `_word_norms` stacks: the inner and
#: dyadic blocks of a Sobolev bound go in stacks of this many.  All 65
#: blocks of k = 2, m = 64 in one stack raise the tracemalloc peak of the
#: bound to 13 MB; in stacks of 8 it stays at 1.7 MB, as at m = 8
_STACK = 8


@dataclass(frozen=True)
class SpectralParam:
    """Tempered spherical parameter; the class is invariant under lam -> -lam."""

    lam: float

    def __post_init__(self):
        if not math.isfinite(self.lam):
            raise ValueError("spectral parameter must be finite")

    @property
    def vector_exponent(self) -> complex:
        return -0.5 * (1.0 - 1j * self.lam)


def v_K(param: SpectralParam) -> QuadraticPower:
    """Normalized spherical vector; unit L^2 norm for every real lam."""
    return QuadraticPower(1.0 / SQRT_PI, (1.0, 0.0, 1.0),
                          param.vector_exponent)


def continue_vK(param: SpectralParam, eps: float) -> QuadraticPower:
    """Analytic continuation of the orbit map at the elliptic torus element
    with angle pi/4 - eps; eps = pi/4 returns v_K itself.

    The quadratic 1 + e^{-i(pi - 4 eps)} x^2 has strictly negative
    imaginary part for x != 0, so the principal power is the branch
    continuous in eps from the real group element.
    """
    if not 0.0 < eps <= OMEGA_RADIUS + 1e-15:
        raise DomainError(f"eps = {eps} outside (0, pi/4]")
    zeta_log = 1j * (OMEGA_RADIUS - eps)
    kappa = cmath.exp((-1.0 + 1j * param.lam) * zeta_log) / SQRT_PI
    w = cmath.exp(-1j * (math.pi - 4.0 * eps))
    return QuadraticPower(kappa, (1.0, 0.0, w), param.vector_exponent)


def apply_pi(param: SpectralParam, g: GroupElement, f):
    """Unitary action of a real group element on a representation vector;
    in closed form on a quadratic power of the representation's exponent."""
    if not g.is_real:
        raise ValueError("apply_pi handles real group elements; use "
                         "apply_pi_complex for continued ones")
    ginv = g.inverse().m.real
    if isinstance(f, QuadraticPower) and f.sigma == param.vector_exponent:
        return f.pulled(ginv)
    return MobiusPulled(f, ginv, param.lam)


def rep_norm(vec) -> float:
    """L^2 norm of a representation vector: the empty word of
    `_word_norms`."""
    return _word_norms(None, [(None, vec)], [()])[0][0]


def _overlap(*vecs):
    """(lo, hi, cfg) for an integral of a product of vectors: their common
    support and REPRESENTATION_CFG hinted at all their hints."""
    lo, hi = -math.inf, math.inf
    for v in vecs:
        if v.support is not None:
            lo, hi = max(lo, v.support[0]), min(hi, v.support[1])
    hints = sorted(set().union(*(v.hints for v in vecs)))
    return lo, hi, REPRESENTATION_CFG.with_hints(hints)


def rep_pairing(u, v) -> complex:
    """Hermitian pairing <u, v> = int u(x) conj(v(x)) dx."""
    lo, hi, cfg = _overlap(u, v)
    if lo >= hi:
        return 0.0 + 0.0j
    return integrate(lambda x: u.value(x) * np.conj(v.value(x)), lo, hi,
                     cfg).value


@dataclass(frozen=True)
class NormGrowthSample:
    eps: float
    norm: float

    @property
    def log_ratio_sq(self) -> float:
        """norm^2 / |log eps|; stabilizes as eps -> 0."""
        return self.norm ** 2 / abs(math.log(self.eps))


def norm_growth(param: SpectralParam, eps_list) -> list[NormGrowthSample]:
    """Norms of the continued spherical vector along an eps grid.

    The squared norm diverges like |log eps| with mass near x = +-1;
    quadrature is hinted there.
    """
    out = []
    for eps in eps_list:
        vec = continue_vK(param, float(eps))
        out.append(NormGrowthSample(float(eps), rep_norm(vec)))
    return out


#: the derived-action directions as elements of sl(2)
DIRECTIONS = {"h": H_VEC, "e": E_VEC, "f": F_VEC, "u": U_VEC,
              "e+f": LieVector(c_e=1.0, c_f=1.0)}


def action_taylor(param: SpectralParam, direction: LieVector, x):
    """Taylor rows (alpha_0, alpha_1, beta_0, beta_1, beta_2) at x of the
    derived action alpha f + beta f' of D = c_h h + c_e e + c_f f, where
    alpha = c_h (i lam - 1) + c_f (1 - i lam) x and
    beta = -c_e - 2 c_h x + c_f x^2; higher rows vanish."""
    il = 1j * param.lam
    c_h, c_e, c_f = direction.c_h, direction.c_e, direction.c_f
    a0, a1 = c_h * (il - 1.0), c_f * (1.0 - il)
    b1, b2 = -2.0 * c_h, c_f
    return (a0 + a1 * x, a1, (b2 * x + b1) * x - c_e, 2.0 * b2 * x + b1, b2)


def derived_taylor(ab, f: np.ndarray) -> np.ndarray:
    """Taylor rows to order n of alpha f + beta f' from the rows f of f to
    order n + 1 and ab = action_taylor(...) at the same points:
    (alpha f + beta f')_k = alpha_0 f_k + (k + 1) beta_0 f_(k+1)
        + k beta_1 f_k + (alpha_1 + (k - 1) beta_2) f_(k-1)."""
    a0, a1, b0, b1, b2 = ab
    out = a0 * f[:-1] + b0 * f[1:]
    for k in range(1, f.shape[0] - 1):
        out[k] += (k * (b0 * f[k + 1] + b1 * f[k])
                   + (a1 + (k - 1) * b2) * f[k - 1])
    return out


class DPi(SmoothVector):
    """Derived action of D = c_h h + c_e e + c_f f on a vector, the
    first-order operator alpha(x) f + beta(x) f' of `action_taylor`."""

    def __init__(self, param: SpectralParam, direction: LieVector,
                 child: SmoothVector):
        self.param = param
        self.direction = direction
        self.child = child
        self.support = child.support
        self.hints = child.hints

    def taylor(self, x, order):
        return derived_taylor(action_taylor(self.param, self.direction, x),
                              self.child.taylor(x, order + 1))


def d_pi(param: SpectralParam, direction: str, f: SmoothVector) -> DPi:
    """Derived representation along h, e, f, u = e - f, or e + f.

    In this realization: h acts by (i lam - 1) - 2x d/dx, e by -d/dx,
    f by (1 - i lam)x + x^2 d/dx, u by (i lam - 1)x - (1 + x^2) d/dx and
    e + f by (1 - i lam)x - (1 - x^2) d/dx.  The rotation and hyperbolic
    directions degenerate at their fixed circles x = 0/inf resp. x = +-1.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    return DPi(param, DIRECTIONS[direction], f)


def _word_norms(param: SpectralParam | None, products,
                words) -> list[list[float]]:
    """Norms of d_pi(w_n) ... d_pi(w_1) v for each word (w_1, ..., w_n) of
    `words`, each listed after its parent (the word without its last
    letter), for each product v = c g of `products`, pairs (c, g) of a
    cutoff c or None and a vector g: one list per product.  param may be
    None when every word is empty.  Products of one support share
    quadratures, at most _STACK to one, hinted at all their hints; each
    distinct cutoff and vector of a stack has its Taylor rows evaluated
    once per round, and only the words' squared moduli are kept."""
    directions = {d: DIRECTIONS[d] for w in words for d in w}
    order = max(map(len, words))
    vecs = [g if c is None else Product(c, g) for c, g in products]
    by_support = {}
    for i, v in enumerate(vecs):
        by_support.setdefault(v.support, []).append(i)
    norms = [None] * len(products)
    for group in by_support.values():
        for start in range(0, len(group), _STACK):
            stack = group[start:start + _STACK]
            lo, hi, weight = square_range([vecs[i] for i in stack])

            def rows(x, stack=stack, weight=weight):
                ab = {d: action_taylor(param, vec, x)
                      for d, vec in directions.items()}
                taylor = {}   # rows of each distinct cutoff and vector

                def rows_of(u):
                    if id(u) not in taylor:
                        taylor[id(u)] = u.taylor(x, order)
                    return taylor[id(u)]

                out = np.empty((len(stack), len(words), x.size))
                for n, i in enumerate(stack):
                    c, g = products[i]
                    tree = {(): rows_of(g) if c is None
                            else _mul(rows_of(c), rows_of(g))}
                    for w in words[1:]:
                        tree[w] = derived_taylor(ab[w[-1]], tree[w[:-1]])
                    for r, w in enumerate(words):
                        top = tree[w][0]
                        out[n, r] = top.real ** 2 + top.imag ** 2
                out *= weight
                return out.reshape(-1, x.size)

            hints = sorted({h for i in stack for h in vecs[i].hints})
            res = integrate(rows, lo, hi,
                            REPRESENTATION_CFG.with_hints(hints))
            squares = res.value.reshape(len(stack), len(words))
            for i, row in zip(stack, squares):
                norms[i] = [math.sqrt(max(v.real, 0.0)) for v in row]
    return norms


def dpi_fd_gap(param: SpectralParam, direction: str, f: SmoothVector,
               xs: np.ndarray) -> float:
    """Relative gap at xs between d_pi(direction) f and the central
    difference, with step 1e-4, of the group action along the direction."""
    vec = DIRECTIONS[direction]
    step = 1e-4
    plus = apply_pi(param, exp_lie(vec, step), f).value(xs)
    minus = apply_pi(param, exp_lie(vec, -step), f).value(xs)
    fd = (plus - minus) / (2.0 * step)
    an = d_pi(param, direction, f).value(xs)
    scale = max(float(np.max(np.abs(an))), 1e-10)
    return float(np.max(np.abs(fd - an))) / scale


#: the rotation integral of phi_lambda; tighter than REPRESENTATION_CFG,
#: since it is the reference for the closed form of the spherical function
_PHI_CFG = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-10)


def phi_lambda(param: SpectralParam, z: PairPoint) -> complex:
    """Holomorphically extended spherical function at a crown point.

    Real points of X are the degenerate case, where the value is real and
    positive.  Points on the closed crown whose trace stays off the slit
    (-inf, -2] are admitted too.  The factor cos theta - z_j sin theta
    = rho_j sin(t_j - theta) - i y_j sin theta of each coordinate
    z_j = x_j + i y_j (t_j = atan2(1, x_j), rho_j = |x_j + i|) is smallest
    at t_j, where the pi-periodic rotation integrand peaks with width
    |y_j| / rho_j^2, and on the real line has an inverse-square-root
    spike.  So the period is cut at t_1 and t_2 into two arcs, and each
    arc is integrated as two halves in the offset s >= 0 from an end, with
    sine arguments (t_j - t_anchor) -+ s, so that each peak sits exactly at
    the quadrature endpoint s = 0.  An arc of zero length (t_1 = t_2, as at
    real points) is dropped.
    """
    z1, z2 = z.finite()
    if min(z1.imag, -z2.imag) < -1e-12:
        raise NotInCrown(f"{z} lies outside the closed crown")
    exponent = 1.0 + 1j * param.lam
    coords = np.array([(math.atan2(1.0, w.real), math.hypot(1.0, w.real),
                        w.imag) for w in (z1, z2)])
    t, rho, y = coords.T[:, :, None, None]   # by coordinate, half, offset
    t1, t2 = sorted(coords[:, 0])
    zeta0_sq = (z1 - z2) / 2j
    # (anchor, signed half-length) of each half arc, all integrated at once
    # over the offset scaled to [0, 1]; the arc [t2, t1 + pi] ends at t1,
    # since moving an anchor by pi flips the sign of both factors
    gap = t2 - t1
    halves = [(t1, 0.5 * gap), (t2, -0.5 * gap)] if gap > 0.0 else []
    halves += [(t2, 0.5 * (math.pi - gap)), (t1, -0.5 * (math.pi - gap))]
    anchor, step = (np.array(c)[:, None] for c in zip(*halves))

    def integrand(v):
        s = step * v
        denom = np.prod(rho * np.sin((t - anchor) - s)
                        - 1j * y * np.sin(anchor + s), axis=0)
        return np.sum(np.abs(step) * np.exp(
            exponent * (0.5 * np.log(zeta0_sq / denom))), axis=0)

    return integrate(integrand, 0.0, 1.0, _PHI_CFG).value / math.pi


def doubling_check(param: SpectralParam, a: GroupElement,
                   phi: float) -> IdentityCheck:
    """Spherical function at a exp(2 i phi h) x0 against the split pairing
    < pi(a exp(i phi h)) v_K, pi(exp(i phi h)) v_K >."""
    check_band(phi)
    if not a.is_real:
        raise ValueError("doubling check expects a real torus element")
    w = cmath.exp(4j * phi) * 1j
    point = PairPoint(w, -w).apply(a.m)
    lhs = phi_lambda(param, point)
    half = continue_vK(param, OMEGA_RADIUS - abs(phi))
    rhs = rep_pairing(apply_pi(param, a, half), half)
    return IdentityCheck(lhs, rhs)


# -- H-invariant functionals ------------------------------------------------

class HFunctional:
    """Functionals fixed by the hyperbolic rotation subgroup.

    eta1 and eta2 are supported on the two open orbits |x| < 1 and
    |x| > 1 of the boundary circle; v_H and its conjugate are the
    intertwining-natural combinations obtained as boundary limits of the
    continued spherical vector.  `convention` picks the phase bookkeeping:
    'derived' uses exp(-+ i pi/4 (1 - i lam)), the limit of the
    continuation prefactors; 'printed' uses exp(-+ i pi/4 (1 - lam)).
    """

    def __init__(self, kind: str, param: SpectralParam,
                 convention: str = "derived"):
        if kind not in ("eta1", "eta2", "v_H", "v_H_bar"):
            raise ValueError(f"unknown functional kind {kind!r}")
        if convention not in ("derived", "printed"):
            raise ValueError("convention must be 'derived' or 'printed'")
        self.kind = kind
        self.param = param
        self.convention = convention
        self.support = None
        self.hints = (-1.0, 1.0)

    def coefficients(self) -> tuple[complex, complex]:
        """(eta1, eta2) coefficients; (1, 0) and (0, 1) for the etas."""
        if self.kind == "eta1":
            return 1.0, 0.0
        if self.kind == "eta2":
            return 0.0, 1.0
        lam = self.param.lam
        arg = 1.0 - 1j * lam if self.convention == "derived" else 1.0 - lam
        c1 = cmath.exp(-1j * OMEGA_RADIUS * arg)
        c2 = cmath.exp(1j * OMEGA_RADIUS * arg)
        if self.kind == "v_H_bar":
            c1, c2 = c1.conjugate(), c2.conjugate()
        return c1, c2

    def value(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        sig = self.param.vector_exponent
        out = np.zeros(x.size, dtype=complex)
        c1, c2 = self.coefficients()
        inner = np.abs(x) < 1.0
        outer = np.abs(x) > 1.0
        if c1 != 0 and np.any(inner):
            out[inner] = c1 / SQRT_PI * np.exp(sig * np.log1p(-x[inner] ** 2))
        if c2 != 0 and np.any(outer):
            out[outer] = c2 / SQRT_PI * np.exp(sig * np.log(x[outer] ** 2 - 1.0))
        return out


def h_limit_gap(param: SpectralParam, psi: SmoothVector, eps: float,
                convention: str = "derived") -> float:
    """| <pi(a_eps) v_K - v_H, psi> | at one eps: one integral over the
    support of psi, hinted at the peaks of all three."""
    vec, v_h = continue_vK(param, eps), HFunctional("v_H", param, convention)
    lo, hi, cfg = _overlap(vec, v_h, psi)
    res = integrate(lambda x: (vec.value(x) - v_h.value(x))
                    * np.conj(psi.value(x)), lo, hi, cfg)
    return abs(res.value)


# -- plurisubharmonicity of the norm ---------------------------------------

def levi_form(param: SpectralParam, phi0: float,
              direction: LieVector) -> float:
    """Laplacian at w = 0 of log ||F(w)||^2 along the holomorphic disc
    F(w) = pi(exp(w D)) F(0) through the crown point exp(i phi0 h) x0,
    F(0) = pi(exp(i phi0 h)) v_K.

    With F' = d_pi(D) F(0) it is 4 (||F||^2 ||F'||^2 - |<F', F>|^2) / ||F||^4,
    positive by Cauchy-Schwarz unless F' is parallel to F: the testable
    form of strict plurisubharmonicity of the squared-norm potential.
    """
    check_torus_angle(phi0)
    f = continue_vK(param, OMEGA_RADIUS - phi0)
    df = DPi(param, direction, f)
    norm_sq = rep_norm(f) ** 2
    return float(4.0 * (norm_sq * rep_norm(df) ** 2
                        - abs(rep_pairing(df, f)) ** 2) / norm_sq ** 2)
