"""Sobolev norms for the principal series and the dyadic invariant bound.

The k-th Sobolev norm sums the L^2 norms of all monomials
d_pi(h)^{k1} d_pi(e)^{k2} d_pi(f)^{k3} v with k1+k2+k3 <= k; restricted
variants use a single subgroup direction (A: h, N: e, Nbar: f, K: u,
H: e+f).  Because the derivative coefficients of the h and f actions
vanish at the two fixed points of the torus on the circle, the full norm
cannot be controlled by the restricted ones pointwise; the G-invariant
norm can.  The constructive upper bound splits a vector with a
Littlewood-Paley family of dilated cutoffs, translates each dyadic block
to unit scale with b_{2^-j}, and measures the pieces there:

    S_k^G(f) <= S_k((tau + phi) f) + S_k(pi(b)(tau_m f))
               + sum_j S_k(pi(b_{2^-j})(phi_j f)).

The cutoffs come from a fixed smoothstep psi (1 on |x|<=1, 0 on |x|>=2):
phi = psi - psi(2 .), tau = 1 - psi, tau_m = psi(2^{m+1} .), so the
partition and the derivative identity tau_m^(l) = -2^{lm} phi^(l)(2^m x)
hold exactly on the support of tau_m.

A norm is one quadrature with a stacked integrand.  Each round evaluates
the Taylor rows of v to order k once and walks the monomial tree,
f-powers first, then e, then h: each node is one step of the derived
action on Taylor rows from its parent.  The squared moduli of all nodes
share one panel pool, each to its own tolerance, and ||v|| is
component 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .liecore import GroupElement, K0, b_t
from .numerics import REPRESENTATION_CFG, IdentityCheck, integrate
from .repn import (DIRECTIONS, SpectralParam, action_taylor, apply_pi,
                   derived_taylor)
from .vectors import (DilatedArg, PolyVector, Product, RadialStep,
                      SmoothVector, Sum)

_SUBGROUP_DIRECTION = {
    "A": "h",
    "N": "e",
    "Nbar": "f",
    "K": "u",
    "H": "e+f",
}

#: the highest Sobolev order: no caller asks for more, and at k = 4 the
#: norm of v_K already raises NonConvergence, since d_pi(f)^3 v_K and
#: d_pi(f)^4 v_K evaluate to noise that grows with |x|
MAX_ORDER = 4
_M_MAX = 64    # deepest dyadic depth choose_m tries


@dataclass(frozen=True)
class SobolevSpec:
    """Order and optional one-parameter restriction of the Sobolev norm."""

    k: int
    subgroup: str | None = None

    def __post_init__(self):
        if not 0 <= self.k <= MAX_ORDER:
            raise ValueError(f"order k = {self.k} outside 0..{MAX_ORDER}")
        if self.subgroup is not None and self.subgroup not in _SUBGROUP_DIRECTION:
            raise ValueError(f"unknown subgroup {self.subgroup!r}")


def _monomials(k: int):
    """The words of d_pi(h)^k1 d_pi(e)^k2 d_pi(f)^k3, k1 + k2 + k3 <= k, in
    the order their steps apply: f-powers first, then e, then h; the empty
    word first and every word after its parent."""
    return [("f",) * k3 + ("e",) * k2 + ("h",) * k1
            for k1 in range(k + 1) for k2 in range(k + 1 - k1)
            for k3 in range(k + 1 - k1 - k2)]


def _chain(direction: str, k: int):
    """The words of d_pi(direction)^j, j <= k."""
    return [(direction,) * j for j in range(k + 1)]


def _word_norms(param: SpectralParam, f: SmoothVector,
                words) -> list[float]:
    """Norms of d_pi(w_n) ... d_pi(w_1) f for each word (w_1, ..., w_n),
    in the order of `words`, all integrated in one quadrature on f's
    support with f's hints.  The words form a tree: a word's parent, the
    word without its last letter, is listed before it, and each word is
    one step of the derived action on Taylor rows from its parent, so
    one set of Taylor rows of f per quadrature round serves every word."""
    directions = {d: DIRECTIONS[d] for w in words for d in w}
    order = max(map(len, words))

    def rows(x):
        ab = {d: action_taylor(param, vec, x) for d, vec in directions.items()}
        tree = {(): f.taylor(x, order)}
        for w in words[1:]:
            tree[w] = derived_taylor(ab[w[-1]], tree[w[:-1]])
        return np.abs(np.array([tree[w][0] for w in words])) ** 2

    lo, hi = f.support if f.support is not None else (-math.inf, math.inf)
    res = integrate(rows, lo, hi, REPRESENTATION_CFG.with_hints(f.hints))
    return [math.sqrt(max(v.real, 0.0)) for v in res.value]


def sobolev_norm(param: SpectralParam, f, spec: SobolevSpec) -> float:
    """Sobolev norm of order spec.k, full or restricted to one subgroup."""
    if spec.subgroup is None:
        words = _monomials(spec.k)
    else:
        words = _chain(_SUBGROUP_DIRECTION[spec.subgroup], spec.k)
    return sum(_word_norms(param, f, words))


@dataclass
class DyadicDecomposition:
    """Littlewood-Paley cutoff family at depth m with its dilation elements."""

    m: int
    tau: SmoothVector
    phis: list[SmoothVector]        # phi_j = phi(2^j x), j = 0..m
    tau_m: SmoothVector
    inner_element: GroupElement     # b_{2^{-(m+1)}} for the tau_m block
    block_elements: list[GroupElement] = field(default_factory=list)

    def partition_residual(self, grid: np.ndarray) -> float:
        """max |tau + tau_m + sum phi_j - 1| over the grid."""
        total = self.tau.value(grid) + self.tau_m.value(grid)
        for p in self.phis:
            total = total + p.value(grid)
        return float(np.max(np.abs(total - 1.0)))

    def tau_m_derivative_identity(self, xs: np.ndarray, order: int) -> float:
        """max gap in tau_m^(l) = -2^{lm} phi^(l)(2^m x) on supp(tau_m)."""
        xs = np.asarray(xs, dtype=float)
        keep = np.abs(xs) <= 2.0 ** (-self.m)
        xs = xs[keep]
        lhs = self.tau_m.jet(xs, order)[order]
        rhs = -(2.0 ** (order * self.m)) * self.phis[0].jet(
            (2.0 ** self.m) * xs, order)[order]
        return float(np.max(np.abs(lhs - rhs))) if xs.size else 0.0


def build_dyadic(m: int) -> DyadicDecomposition:
    """Construct the cutoff family: smooth, nonnegative, exact partition."""
    if m < 1:
        raise ValueError("need m >= 1")
    psi = RadialStep(1.0, 2.0)
    one = PolyVector([1.0])
    tau = Sum([(1.0, one), (-1.0, psi)])
    phi = Sum([(1.0, psi), (-1.0, DilatedArg(psi, 2.0))])
    phis = [phi] + [DilatedArg(phi, 2.0 ** j) for j in range(1, m + 1)]
    tau_m = DilatedArg(psi, 2.0 ** (m + 1))
    return DyadicDecomposition(
        m=m, tau=tau, phis=phis, tau_m=tau_m,
        inner_element=b_t(2.0 ** (-(m + 1))),
        block_elements=[b_t(2.0 ** (-j)) for j in range(1, m + 1)])


@dataclass(frozen=True)
class InvariantBound:
    bound: float                  # headline: best value over invariance moves
    dyadic_rhs: float             # literal dyadic estimate at the given f
    outer_block: float            # S_k((tau + phi) f)
    inner_block: float            # S_k(pi(b)(tau_m f))
    dyadic_blocks: tuple[float, ...]
    comparison: float             # S_{k,Nbar}(f) + ||f|| + S_{k,A}(f)
    rotated_pushed: float         # same display after the k0/torus moves
    push_scale: float             # torus parameter used by the push
    m: int


def _dyadic_rhs(param, f, k, m):
    dec = build_dyadic(m)
    psi2 = DilatedArg(RadialStep(1.0, 2.0), 2.0)  # tau + phi = 1 - psi(2x)
    one = PolyVector([1.0])
    outer_cut = Sum([(1.0, one), (-1.0, psi2)])
    outer = sobolev_norm(param, Product(outer_cut, f), SobolevSpec(k))
    inner_vec = apply_pi(param, dec.inner_element, Product(dec.tau_m, f))
    inner = sobolev_norm(param, inner_vec, SobolevSpec(k))
    blocks = []
    for j in range(1, m + 1):
        piece = apply_pi(param, dec.block_elements[j - 1],
                         Product(dec.phis[j], f))
        blocks.append(sobolev_norm(param, piece, SobolevSpec(k)))
    return outer, inner, tuple(blocks)


def _display_norms(param, h, k):
    """The norms of d_pi(f)^j h and of d_pi(h)^j h, j <= k, from one
    quadrature: S_{k,Nbar}(h) and S_{k,A}(h) both start at ||h||."""
    norms = _word_norms(param, h, _chain("f", k) + _chain("h", k)[1:])
    return norms[:k + 1], norms[:1] + norms[k + 1:]


def invariant_upper_bound(param: SpectralParam, f: SmoothVector, k: int,
                          m: int) -> InvariantBound:
    """Computable upper bound on the G-invariant Sobolev norm of f.

    `dyadic_rhs` is the literal dyadic estimate with the canonical
    translations g_j = b_{2^-j}, g = b_{2^-(m+1)}; every block lands in
    [-2, 2], where the full norm is controlled.  Since the dyadic family
    compresses toward the origin, that raw value is only small when the
    singular support of f sits at the contraction fixed points; the
    invariant seminorm itself does not change under the group, so the
    headline `bound` additionally exercises the two moves the estimate is
    combined with: the rotation k0 that carries the torus direction into
    the hyperbolic one, and a contracting torus push that collapses the
    restricted Nbar-norm onto the plain norm.  The reported bound is the
    smallest display value over this canonical move family, each member
    of which dominates the invariant norm up to the same uniform constant.
    """
    outer, inner, blocks = _dyadic_rhs(param, f, k, m)
    dyadic_rhs = outer + inner + sum(blocks)
    nbar_f, a_f = _display_norms(param, f, k)
    norm_f = nbar_f[0]
    comparison = sum(nbar_f) + norm_f + sum(a_f)

    # rotate so the singular circle points land on the contraction fixed
    # points, then push with a_t until the Nbar block collapses to ~||f||
    nbar_norms, a_rot = _display_norms(param, apply_pi(param, K0, f), k)
    s_a_rot = sum(a_rot)
    t = 1.0
    for _ in range(64):
        pushed_nbar = sum(t ** (2 * j) * n for j, n in enumerate(nbar_norms))
        if pushed_nbar <= 1.25 * norm_f:
            break
        t *= 0.5
    rotated_pushed = pushed_nbar + norm_f + s_a_rot

    return InvariantBound(bound=min(dyadic_rhs, comparison, rotated_pushed),
                          dyadic_rhs=dyadic_rhs,
                          outer_block=outer, inner_block=inner,
                          dyadic_blocks=blocks,
                          comparison=comparison,
                          rotated_pushed=rotated_pushed,
                          push_scale=t, m=m)


def choose_m(param: SpectralParam, f: SmoothVector, k: int) -> int:
    """Smallest dyadic depth (by doubling search) whose innermost block is
    dominated by ||f||; the localized low-frequency mass is then absorbed."""
    target = sobolev_norm(param, f, SobolevSpec(0))
    m = 1
    while m <= _M_MAX:
        dec = build_dyadic(m)
        inner_vec = apply_pi(param, dec.inner_element, Product(dec.tau_m, f))
        if sobolev_norm(param, inner_vec, SobolevSpec(k)) <= target:
            return m
        m *= 2
    return _M_MAX


def rotate_A_to_H(param: SpectralParam, f: SmoothVector,
                  k: int) -> IdentityCheck:
    """The rotation k0 = (1/sqrt 2)[[1, 1], [-1, 1]] conjugates the torus
    into the hyperbolic subgroup, so S_{k,A}(pi(k0) f) = S_{k,H}(f): lhs
    is the former, rhs the latter."""
    lhs = sobolev_norm(param, apply_pi(param, K0, f), SobolevSpec(k, "A"))
    rhs = sobolev_norm(param, f, SobolevSpec(k, "H"))
    return IdentityCheck(lhs, rhs)
