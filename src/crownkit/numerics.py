"""Shared numeric substrate: adaptive quadrature, composite Gauss-Legendre
grids and the identity-check record.

The quadrature engine is a globally adaptive Gauss-Kronrod (G7, K15)
scheme on one pool of panels.  The range is cut at the singularity hints
into pieces, each integrated under a square-root substitution at its
hinted or finite end, so refinement clusters geometrically toward
algebraic and logarithmic singularities; Kronrod nodes are interior, so
hinted singular points are never sampled.  Infinite ends are mapped to
finite pieces with the rational substitution x = c + t/(1-t).  Each piece
starts as _INITIAL_PANELS equal panels in u plus a mesh graded toward its
end, geometric with ratio 4 in t from the piece's width down to its local
scale, the distance from that end to the nearest other hint on either
side, and at most _GRADE_DEPTH edges deep: a peak of width w next to a
hint is resolved from the first round (Babuska & Guo, Comput. Mech. 1,
1986, on geometric meshes).  Each round splits the panels that carry
most of the error into _SPLIT equal parts and evaluates all new panels
in a single vectorized integrand call; the loop stops when the summed
error of all panels meets the request.  A round's fixed cost
(bookkeeping and one integrand call) outweighs its 15 samples per panel,
so wide splits that take few rounds beat bisection (Shampine, J. Comput.
Appl. Math. 211, 2008; QUADPACK's global strategy and its roundoff floor
on each panel's error, Piessens et al., 1983).

An integrand may return a stack of m components at once, such as the
squared moduli of all monomials of a Sobolev norm from one set of Taylor
rows of the vector.  They share the panels: each component must meet its
own request max(abs_tol, rel_tol |value_i|), and a panel's claim to a
split is its error summed over the components, each in units of that
component's tolerance.  One component is the scalar case.

A real integrand stays real: its samples, panel sums and error estimates
are float64, and only the returned value is complex.

Everything here is pure and deterministic: the final reduction is an
ordered sum over the panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidIntegrand, NonConvergence

# Nodes/weights of the 15-point Kronrod extension of 7-point Gauss, on [-1, 1].
_K15_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_G7_SLICE = slice(1, 15, 2)  # Gauss nodes sit at the odd Kronrod positions
#: parts each refined panel is split into per round, the equal panels each
#: piece starts as, the most edges its start grades toward its edge, and
#: the cap on the panels refinement adds over the whole range (_SPLIT - 1
#: for each panel split)
_SPLIT = 8
_INITIAL_PANELS = 4
_GRADE_DEPTH = 16
_MAX_ADDED = 4000
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance policy for adaptive integration.

    abs_tol/rel_tol are the absolute and relative targets for the total
    error; singularity_hints lists interior points where the integrand (or
    a derivative) is singular.  Refinement adds at most _MAX_ADDED panels.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    singularity_hints: tuple[float, ...] = ()

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")

    def with_hints(self, hints) -> "QuadratureConfig":
        return QuadratureConfig(self.abs_tol, self.rel_tol, tuple(hints))


#: integrate's default: tight tolerances for cheap, smooth integrands
GEOMETRY_CFG = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9)
#: oscillatory representation-theoretic integrals: looser absolute target
REPRESENTATION_CFG = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-9)


@dataclass(frozen=True)
class IntegralResult:
    value: complex          # an array of m values for a stacked integrand
    error: float            # likewise, one error bound per component
    n_panels: int


@dataclass(frozen=True)
class IdentityCheck:
    """Two sides of an identity and their relative gap."""

    lhs: complex
    rhs: complex

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs) / max(abs(self.lhs), abs(self.rhs),
                                              1e-300)


def _ensure_finite(vals, x):
    if not np.all(np.isfinite(vals)):
        raise InvalidIntegrand("non-finite integrand sample near "
                               f"{(float(x.min()), float(x.max()))!r}")


def _panel_gk(y, half):
    """G7/K15 on a stack of panels: y[..., i, :] holds the 15 Kronrod
    samples of a panel of half-width half[i], for each leading component;
    returns (integrals, errors), shaped like y without its last axis."""
    with np.errstate(all="ignore"):
        k15 = half * (y @ _K15_WEIGHTS)
        g7 = half * (y[..., _G7_SLICE] @ _G7_WEIGHTS)
        # standard QUADPACK-style sharpened error estimate; a real stack
        # takes |y - mean| in place, one stack-sized temporary
        dev = y - (0.5 * k15 / half)[..., None]
        dev = np.abs(dev, out=dev if dev.dtype.kind == "f" else None)
        resasc = half * (dev @ _K15_WEIGHTS)
        del dev
        err = np.abs(k15 - g7)
        sharp = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
        # no panel is known better than the rounding of its K15 sum
        roundoff = 50.0 * _EPS * half * (np.abs(y) @ _K15_WEIGHTS)
    use = (resasc != 0.0) & (err != 0.0) & np.isfinite(resasc)
    return k15, np.maximum(np.where(use, sharp, err), roundoff)


def _cut(lo, hi, cuts, c, d):
    """Pieces of [lo, hi] cut at `cuts`, as rows (t0, sign, width, c, d, s).

    Each side of an edge is integrated in u on [0, width] under the
    square-root substitution t = t0 + sign u^2, which regularizes
    algebraic (power < 1) and logarithmic singularities there.  On a
    mapped infinite range (d != 0) the far edge t = 1 is left regular:
    decaying integrands need no substitution there.  A row's local scale
    s is the distance from its edge to the nearest other edge or cut on
    either side, cuts beyond [lo, hi] included."""
    points = sorted({lo, hi, *cuts})
    gaps = [math.inf, *(q - p for p, q in zip(points, points[1:])),
            math.inf]
    near = [min(g) for g in zip(gaps, gaps[1:])]  # s at each point
    rows = []
    for i in range(points.index(lo), points.index(hi)):
        e0, e1, s0, s1 = points[i], points[i + 1], near[i], near[i + 1]
        if d and e1 == hi:
            rows.append((e0, 1.0, math.sqrt(e1 - e0), c, d, s0))
        else:
            mid = 0.5 * (e0 + e1)
            rows += [(e0, 1.0, math.sqrt(mid - e0), c, d, s0),
                     (e1, -1.0, math.sqrt(e1 - mid), c, d, s1)]
    return rows


def _pieces(a, b, hints):
    """Cut a < b into pieces, each a map u -> x on [0, width]: x = t on a
    finite range; an infinite end is reached by x = c + d t/(1 - t) on
    t in [0, 1), mirrored (d = -1) for -inf.  A doubly infinite range
    is split at the point of the hints' hull nearest 0, so that one far
    hint on one side cannot move the split away from the mass.  A hint
    behind c maps to t = v/(1 + |v|) < 0, v = d(h - c): the mirror of its
    place on the other side, where it still sets the local scale at c."""
    if math.isfinite(a) and math.isfinite(b):
        return _cut(a, b, hints, 0.0, 0.0)
    if math.isinf(a) and math.isinf(b):
        split = min(max(0.0, min(hints)), max(hints)) if hints else 0.0
        ends = [(split, -1.0), (split, 1.0)]
    else:
        ends = [(a, 1.0)] if math.isinf(b) else [(b, -1.0)]
    rows = []
    for c, d in ends:
        rows += _cut(0.0, 1.0, [d * (h - c) / (1.0 + abs(h - c))
                                for h in hints], c, d)
    return rows


def _start(width, scale):
    """The first mesh, as (piece, lo, hi) rows: each piece's
    _INITIAL_PANELS equal panels in u, and edges u = sqrt(s) 2^j (j >= 0)
    below width, the top _GRADE_DEPTH of them, so that it is geometric
    (ratio 4 in t) toward the edge down to the piece's local scale s."""
    root = np.sqrt(scale)
    # frexp's exponent is ceil(log2(width / root)), or one more when the
    # ratio is a power of 2, whose level width is a repeated edge
    top = np.frexp(width / root)[1]
    j = np.maximum(top[:, None] - np.arange(1, _GRADE_DEPTH + 1), 0)
    edges = np.sort(np.concatenate([
        width[:, None] * (np.arange(_INITIAL_PANELS + 1) / _INITIAL_PANELS),
        np.minimum(np.ldexp(root[:, None], j), width[:, None])], axis=1))
    # levels clipped to j = 0 or to the width repeat an edge: drop the
    # empty panels between repeats
    piece, col = np.nonzero(edges[:, 1:] > edges[:, :-1])
    return piece, edges[piece, col], edges[piece, col + 1]


def _split(piece, lo, hi, k):
    """Each panel [lo, hi] of a piece cut into k equal parts, as (piece,
    lo, hi) rows; the outer edges are kept exact, so the parts tile it."""
    edges = lo[:, None] + (hi - lo)[:, None] * (np.arange(k + 1) / k)
    edges[:, 0], edges[:, -1] = lo, hi
    return (np.repeat(piece, k), edges[:, :-1].ravel(),
            edges[:, 1:].ravel())


def integrate(f, a, b, cfg: QuadratureConfig = GEOMETRY_CFG) -> IntegralResult:
    """Integrate a real or complex f over (a, b), either endpoint may be inf.

    `f` is called with a 1-d numpy array of n sample points, once per
    round, and returns n values, or a stack of shape (m, n) whose m
    components share one pool of panels; a stack gives m values and m
    errors.  f returns a new, writable array that it does not keep: the
    Jacobian of the substitution is multiplied into it in place.  Listed
    singularities must sit at hinted points or endpoints.  Each piece
    starts on at most _INITIAL_PANELS + _GRADE_DEPTH panels, graded
    toward its end down to the distance to the nearest other hint.  The
    reported error bounds the total over all panels and is within
    max(abs_tol, rel_tol |value|), for each component of a stack.  Raises
    NonConvergence when the _MAX_ADDED panels that refinement may add do
    not meet that request and InvalidIntegrand on NaN/Inf samples.
    """
    a = float(a)
    b = float(b)
    if a == b:  # f sees no points, only to tell a stack's height
        shape = np.shape(f(np.empty(0)))[:-1]
        if not shape:
            return IntegralResult(0.0 + 0.0j, 0.0, 0)
        return IntegralResult(np.zeros(shape, dtype=complex), np.zeros(shape),
                              0)
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    hints = [float(h) for h in cfg.singularity_hints]
    t0, tsign, width, c, d, scale = np.array(_pieces(a, b, hints)).T
    mapped = d[0] != 0.0  # the pieces of one range are all mapped or none
    stacked = False

    def evaluate(piece, lo, hi):
        nonlocal stacked
        half = 0.5 * (hi - lo)
        u = (lo + half)[:, None] + half[:, None] * _K15_NODES
        x = t0[piece, None] + tsign[piece, None] * u * u
        jac = 2.0 * u
        if mapped:  # t is kept below 1 so x stays finite under deep refinement
            t = np.minimum(x, 1.0 - 1e-14)
            x = c[piece, None] + d[piece, None] * t / (1.0 - t)
            jac /= (1.0 - t) ** 2
        with np.errstate(all="ignore"):  # non-finite samples are policed below
            vals = np.asarray(f(x.ravel()))
            vals = vals.astype(np.result_type(vals, float), copy=False)
            y = vals.reshape((-1,) + x.shape)
            y *= jac
        stacked = vals.ndim == 2
        _ensure_finite(y, x)
        return _panel_gk(y, half)

    piece, lo, hi = _start(width, scale)
    val, err = evaluate(piece, lo, hi)  # (components, panels)
    added = 0  # panels added by splits, against _MAX_ADDED
    while True:
        total, total_err = val.sum(axis=1), err.sum(axis=1)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        if np.all(total_err <= tol):
            break
        budget = (_MAX_ADDED - added) // (_SPLIT - 1)
        if budget < 1:
            worst = int(np.argmax(total_err / tol))
            raise NonConvergence(
                f"quadrature error {total_err[worst]:.3e} above tolerance "
                f"after {added} added panels",
                estimate=sign * (total if stacked else total[0]) + 0j,
                error=total_err if stacked else total_err[0])
        # each panel's error in units of its component's tolerance, summed
        # over the components; split the fewest worst panels that carry
        # all but half a unit, leaving out those below 1% of the worst
        score = (err / tol[:, None]).sum(axis=0)
        order = np.argsort(-score, kind="stable")
        n = int(np.searchsorted(np.cumsum(score[order]), score.sum() - 0.5))
        pick = order[:n + 1]
        pick = pick[score[pick] >= 0.01 * score[pick[0]]]
        pick = pick[:budget]
        added += pick.size * (_SPLIT - 1)
        new = _split(piece[pick], lo[pick], hi[pick], _SPLIT)
        new += evaluate(*new)
        keep = np.ones(score.size, dtype=bool)
        keep[pick] = False
        piece, lo, hi, val, err = (
            np.concatenate([old[..., keep], part], axis=-1)
            for old, part in zip((piece, lo, hi, val, err), new))

    # ordered sum for a deterministic, refinement-independent reduction
    value = sign * val[:, np.lexsort((lo, piece))].sum(axis=1) + 0j
    if not stacked:
        return IntegralResult(value[0], total_err[0], val.shape[1])
    return IntegralResult(value, total_err, val.shape[1])


def gauss_legendre_grid(edges, n_per_panel: int):
    """Composite Gauss-Legendre nodes/weights over consecutive panel edges."""
    base_x, base_w = np.polynomial.legendre.leggauss(n_per_panel)
    edges = np.asarray(edges, dtype=float)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(0.5 * (lo + hi) + half * base_x)
        weights.append(half * base_w)
    return np.concatenate(nodes), np.concatenate(weights)
