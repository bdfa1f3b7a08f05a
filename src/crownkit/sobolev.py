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
phi = psi - psi(2 .), tau = 1 - psi, tau_m = psi(2^{m+1} .) and
phi_j = phi(2^j .), so the partition tau + tau_m + sum_{j<=m} phi_j = 1
and the derivative identity tau_m^(l) = -2^{lm} phi^(l)(2^m x) hold
exactly on the support of tau_m.

The blocks are built at unit scale in closed form.  pi(b_t) pulls a
vector back along the dilation x -> t x, up to a constant factor and with
no Mobius pole, so it carries the dilated cutoffs back to the fixed ones:
pi(b_{2^-j})(phi_j f) = phi pi(b_{2^-j}) f and pi(b_{2^-(m+1)})(tau_m f)
= psi pi(b_{2^-(m+1)}) f, where pi(b_t) f is again a quadratic power for
the continued vectors.  The bound therefore reads only three cutoffs,
each one `RadialStep` node with its edges: PSI, PHI and
OUTER = tau + phi = 1 - psi(2 .).

A norm is one quadrature of `repn._word_norms` over the monomial words,
f-powers first, then e, then h, and ||v|| is the empty word.  The
continued vectors, their dilations pi(b_t) and the three cutoffs are
even, so these norms integrate on the right half of the range.  f and
the outer block (tau + phi) f are one quadrature, which also gives the
display at f.  The inner block and the m dyadic blocks all live on
[-2, 2], and the peaks of block j >= 2, near +-2^j, lie outside it, so
a stack of them takes about one block's panels; they go in stacks of at
most repn._STACK = 8 blocks, which caps the memory of a round.  A bound
at depth m thus takes 2 + ceil((m + 1) / 8) quadratures: three up to
m = 7, eleven at m = 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .liecore import K0, b_t
from .numerics import IdentityCheck
from .repn import SpectralParam, _word_norms, apply_pi, rep_norm
from .vectors import RadialStep, SmoothVector

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
#: the deepest dyadic depth: choose_m tries no deeper and
#: invariant_upper_bound refuses more (2^(m+1) overflows at m = 1023).  For
#: v_K continued to eps = 1e-3 at lam = 1, k = 2, going on from m = 64 to
#: m = 200 moves dyadic_rhs by 1.6e-14 relative
_M_MAX = 64

#: the Littlewood-Paley cutoffs at unit scale: the smoothstep psi, 1 on
#: |x| <= 1 and 0 on |x| >= 2; phi = psi - psi(2 .); and the outer cutoff
#: tau + phi = 1 - psi(2 .)
PSI = RadialStep(0.0, 0.0, 1.0, 2.0)
PHI = RadialStep(0.5, 1.0, 1.0, 2.0)
OUTER = RadialStep(0.5, 1.0, math.inf, math.inf)


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


def sobolev_norm(param: SpectralParam, f, spec: SobolevSpec) -> float:
    """Sobolev norm of order spec.k, full or restricted to one subgroup."""
    if spec.subgroup is None:
        words = _monomials(spec.k)
    else:
        words = _chain(_SUBGROUP_DIRECTION[spec.subgroup], spec.k)
    return sum(_word_norms(param, [(None, f)], words)[0])


def _inner_block(param: SpectralParam, f: SmoothVector, m: int):
    """pi(b)(tau_m f) at unit scale, the pair (PSI, pi(b_{2^-(m+1)}) f)."""
    return PSI, apply_pi(param, b_t(2.0 ** -(m + 1)), f)


@dataclass(frozen=True)
class InvariantBound:
    bound: float                  # headline: best value over invariance moves
    dyadic_rhs: float             # literal dyadic estimate at the given f
    outer_block: float            # S_k((tau + phi) f)
    inner_block: float            # S_k(pi(b)(tau_m f))
    comparison: float             # S_{k,Nbar}(f) + ||f|| + S_{k,A}(f)
    rotated_pushed: float         # same display after the k0/torus moves
    push_scale: float             # torus parameter used by the push
    m: int


def _display(words, norms, k):
    """The display terms of a vector from the norms of its words: the norms
    of d_pi(f)^j h and of d_pi(h)^j h, j <= k, for S_{k,Nbar}(h) and
    S_{k,A}(h); both start at ||h||."""
    at = dict(zip(words, norms))
    return [at[w] for w in _chain("f", k)], [at[w] for w in _chain("h", k)]


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
    The order k must lie in 0..MAX_ORDER and the depth m in 1..64, the
    depths `choose_m` tries; both are checked before any work.
    """
    SobolevSpec(k)  # refuses an order outside 0..MAX_ORDER
    if not 1 <= m <= _M_MAX:
        raise ValueError(f"dyadic depth m = {m} outside 1..{_M_MAX}")
    words = _monomials(k)
    # f, the outer block (tau + phi) f, the inner block and the m dyadic
    # blocks, the last m + 1 at unit scale on [-2, 2]
    products = [(None, f), (OUTER, f), _inner_block(param, f, m)]
    products += [(PHI, apply_pi(param, b_t(2.0 ** -j), f))
                 for j in range(1, m + 1)]
    f_norms, outer_norms, inner_norms, *block_norms = _word_norms(
        param, products, words)
    outer, inner = sum(outer_norms), sum(inner_norms)
    dyadic_rhs = outer + inner + sum(sum(n) for n in block_norms)
    nbar_f, a_f = _display(words, f_norms, k)
    norm_f = nbar_f[0]
    comparison = sum(nbar_f) + norm_f + sum(a_f)

    # rotate so the singular circle points land on the contraction fixed
    # points, then push with a_t until the Nbar block collapses to ~||f||
    chains = _chain("f", k) + _chain("h", k)[1:]
    [rot_norms] = _word_norms(param, [(None, apply_pi(param, K0, f))],
                              chains)
    nbar_norms, a_rot = _display(chains, rot_norms, k)
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
                          comparison=comparison,
                          rotated_pushed=rotated_pushed,
                          push_scale=t, m=m)


def choose_m(param: SpectralParam, f: SmoothVector, k: int) -> int:
    """Smallest dyadic depth (by doubling search) whose innermost block is
    dominated by ||f||; the localized low-frequency mass is then absorbed.
    The order k must lie in 0..MAX_ORDER, checked before any work."""
    SobolevSpec(k)  # refuses an order outside 0..MAX_ORDER
    words, target = _monomials(k), rep_norm(f)
    m = 1
    while m <= _M_MAX:
        if sum(_word_norms(param, [_inner_block(param, f, m)],
                           words)[0]) <= target:
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
