"""Shared numeric substrate: adaptive quadrature, grid functions, finite differences.

The quadrature engine is an adaptive Gauss-Kronrod (G7,K15) scheme on panels.
Initial panel edges are seeded from singularity hints so that adaptive
bisection clusters dyadically toward algebraic/logarithmic endpoint
singularities; Kronrod nodes are interior, so hinted singular points are
never sampled.  Semi-infinite and doubly infinite ranges are mapped to
finite panels with the rational substitution x = c + t/(1-t).

Everything here is pure and deterministic: panels are processed worst-error
first and the final reduction is an ordered sum over the panel list.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidIntegrand, NonConvergence, NonIntegrableTail

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


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance policy for adaptive integration.

    abs_tol/rel_tol are the absolute and relative error targets;
    max_subdivisions caps the number of panel bisections; singularity_hints
    lists interior points where the integrand (or a derivative) is singular.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 4000
    singularity_hints: tuple[float, ...] = ()

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")

    def with_hints(self, hints) -> "QuadratureConfig":
        return QuadratureConfig(self.abs_tol, self.rel_tol,
                                self.max_subdivisions, tuple(hints))


#: closed-form geometry checks: cheap integrands, tight tolerances
GEOMETRY_CFG = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9)
#: oscillatory representation-theoretic integrals: looser absolute target
REPRESENTATION_CFG = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-9)


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    error: float
    n_panels: int

    def __complex__(self):
        return complex(self.value)


@dataclass(frozen=True)
class IdentityCheck:
    """Two sides of an identity and their relative gap."""

    lhs: complex
    rhs: complex

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs) / max(abs(self.lhs), abs(self.rhs),
                                              1e-300)


def _ensure_finite(vals, where):
    if not np.all(np.isfinite(vals)):
        raise InvalidIntegrand(f"non-finite integrand sample near {where!r}")


def _panel_gk(f, a, b):
    """One G7/K15 evaluation on [a, b]; returns (integral, error, samples)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid + half * _K15_NODES
    with np.errstate(all="ignore"):  # non-finite samples are policed upstream
        y = np.asarray(f(x), dtype=complex)
        k15 = half * np.sum(_K15_WEIGHTS * y)
        g7 = half * np.sum(_G7_WEIGHTS * y[_G7_SLICE])
        # standard QUADPACK-style sharpened error estimate
        resasc = half * np.sum(_K15_WEIGHTS * np.abs(y - k15 / (b - a)))
    err = abs(k15 - g7)
    if resasc != 0.0 and err != 0.0 and np.isfinite(resasc):
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return k15, err, y


def _initial_edges(a, b, hints):
    pts = [a, b]
    for h in sorted(set(float(h) for h in hints)):
        if a < h < b:
            pts.append(h)
    return sorted(set(pts))


def _adaptive(f, a, b, cfg):
    heap = []
    val, err, y = _panel_gk(f, a, b)
    _ensure_finite(y, (a, b))
    heap.append((-err, 0, a, b, val))
    total, total_err, count = val, err, 1

    subdivisions = 0
    while total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        if subdivisions >= cfg.max_subdivisions:
            raise NonConvergence(
                f"quadrature error {total_err:.3e} above tolerance after "
                f"{subdivisions} subdivisions",
                estimate=total, error=total_err)
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1, y1 = _panel_gk(f, lo, mid)
        v2, e2, y2 = _panel_gk(f, mid, hi)
        _ensure_finite(y1, (lo, mid))
        _ensure_finite(y2, (mid, hi))
        total += (v1 + v2) - val
        total_err += (e1 + e2) - (-neg_err)
        heapq.heappush(heap, (-e1, count, lo, mid, v1))
        count += 1
        heapq.heappush(heap, (-e2, count, mid, hi, v2))
        count += 1
        subdivisions += 1

    # ordered re-sum for a deterministic, heap-independent reduction
    panels = sorted((lo, hi, val) for _, _, lo, hi, val in heap)
    total = sum(p[2] for p in panels)
    return IntegralResult(total, total_err, len(panels))


def _integrate_finite(f, a, b, cfg, sqrt_edges=None):
    """Split at hints; sides touching a hinted singularity or an interval
    endpoint are integrated under the square-root substitution, which
    regularizes algebraic (power < 1) and logarithmic singularities.
    `sqrt_edges` overrides the substituted edge set (used by the mapped
    infinite ranges, whose rational transform already tames the far end)."""
    if sqrt_edges is None:
        sqrt_edges = {a, b}
    hint_set = {float(h) for h in cfg.singularity_hints} | set(sqrt_edges)
    edges = _initial_edges(a, b, hint_set)
    pieces = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        left = lo in hint_set
        right = hi in hint_set
        if left and right:
            mid = 0.5 * (lo + hi)
            pieces.append((lo, mid, "left"))
            pieces.append((mid, hi, "right"))
        else:
            pieces.append((lo, hi, "left" if left else
                           ("right" if right else "none")))
    total = 0.0 + 0.0j
    total_err = 0.0
    n_panels = 0
    for lo, hi, side in pieces:
        width = hi - lo
        if side == "none":
            res = _adaptive(f, lo, hi, cfg)
        elif side == "left":
            # x = lo + u^2: du-integrand 2 u f(lo + u^2)
            res = _adaptive(
                lambda u, lo=lo: 2.0 * u * np.asarray(
                    f(lo + u * u), dtype=complex),
                0.0, math.sqrt(width), cfg)
        else:
            res = _adaptive(
                lambda u, hi=hi: 2.0 * u * np.asarray(
                    f(hi - u * u), dtype=complex),
                0.0, math.sqrt(width), cfg)
        total += res.value
        total_err += res.error
        n_panels += res.n_panels
    return IntegralResult(total, total_err, n_panels)


def integrate(f, a, b, cfg: QuadratureConfig = GEOMETRY_CFG) -> IntegralResult:
    """Integrate a complex-valued f over (a, b), either endpoint may be inf.

    `f` is called with a numpy array of sample points.  Listed
    singularities must sit at hinted points or endpoints.  Raises
    NonConvergence when the subdivision budget is exhausted and
    InvalidIntegrand on NaN/Inf samples.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return IntegralResult(0.0 + 0.0j, 0.0, 0)
    if a > b:
        res = integrate(f, b, a, cfg)
        return IntegralResult(-res.value, res.error, res.n_panels)

    if math.isinf(a) and math.isinf(b):
        hints = list(cfg.singularity_hints) or [0.0]
        split = 0.5 * (min(hints) + max(hints))
        left = integrate(f, a, split, cfg)
        right = integrate(f, split, b, cfg)
        return IntegralResult(left.value + right.value,
                              left.error + right.error,
                              left.n_panels + right.n_panels)

    if math.isinf(b):
        # x = a + t/(1-t) maps [0,1) to [a, inf); the far end needs no
        # substitution (decaying integrands are regular at t = 1), and t
        # is kept below 1 so the map stays finite under deep bisection
        hints = [h - a for h in cfg.singularity_hints if h > a]
        tcfg = cfg.with_hints([h / (1.0 + h) for h in hints])

        def g(t):
            t = np.minimum(np.asarray(t), 1.0 - 1e-14)
            x = a + t / (1.0 - t)
            return np.asarray(f(x), dtype=complex) / (1.0 - t) ** 2

        return _integrate_finite(g, 0.0, 1.0, tcfg, sqrt_edges={0.0})

    if math.isinf(a):
        res = integrate(lambda x: np.asarray(f(-np.asarray(x)), dtype=complex),
                        -b, math.inf, cfg.with_hints(
                            [-h for h in cfg.singularity_hints]))
        return res

    return _integrate_finite(f, a, b, cfg)


def integrate_periodic(f, period: float = 2.0 * np.pi, *,
                       abs_tol: float = 1e-12, rel_tol: float = 1e-11,
                       n_start: int = 32, n_max: int = 1 << 16) -> IntegralResult:
    """Trapezoidal integration of a smooth periodic function over one period.

    Doubles the node count until two successive levels agree; spectrally
    accurate for analytic integrands.
    """
    n = n_start
    x = np.arange(n) * (period / n)
    vals = np.asarray(f(x), dtype=complex)
    _ensure_finite(vals, "periodic grid")
    prev = np.mean(vals) * period
    while n <= n_max:
        # new nodes are the midpoints of the current grid
        xm = x + period / (2 * n)
        vm = np.asarray(f(xm), dtype=complex)
        _ensure_finite(vm, "periodic grid")
        cur = 0.5 * prev + np.sum(vm) * period / (2 * n)
        n *= 2
        x = np.sort(np.concatenate([x, xm]))
        diff = abs(cur - prev)
        prev = cur
        if diff <= max(abs_tol, rel_tol * abs(cur)):
            return IntegralResult(cur, diff, n)
        vals = None  # values are folded into `prev`; only nodes are kept
    raise NonConvergence("periodic rule did not stabilize", estimate=prev,
                         error=diff)


def finite_diff(f, x: float, order: int, step: float) -> float:
    """Central finite difference of first or second order, O(step^2) error."""
    if order == 1:
        return (f(x + step) - f(x - step)) / (2.0 * step)
    if order == 2:
        return (f(x + step) - 2.0 * f(x) + f(x - step)) / step ** 2
    raise ValueError("order must be 1 or 2")


@dataclass
class GridFunction:
    """Sampled function on a strictly increasing real grid.

    tail_exponent models |f(x)| ~ A |x|^(-p) beyond the grid; p must exceed
    1/2 for L2 norms.  tail_exponent=None marks compact support.
    """

    nodes: np.ndarray
    values: np.ndarray
    tail_exponent: float | None = None

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.nodes.ndim != 1 or self.nodes.shape != self.values.shape:
            raise ValueError("nodes and values must be matching 1-d arrays")
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if not (np.all(np.isfinite(self.nodes)) and
                np.all(np.isfinite(self.values))):
            raise ValueError("nodes and values must be finite")

    def __call__(self, x):
        re = np.interp(x, self.nodes, self.values.real)
        im = np.interp(x, self.nodes, self.values.imag)
        return re + 1j * im


def _tail_mass(x_edge: float, amplitude: float, p: float) -> float:
    # integral of A^2 |x|^(-2p) beyond |x| = x_edge
    return amplitude ** 2 * abs(x_edge) ** (1.0 - 2.0 * p) / (2.0 * p - 1.0)


def l2_norm(f: GridFunction) -> float:
    """sqrt of the integral of |f|^2: trapezoid on the grid plus closed-form
    power-law tails from the tail model."""
    mass = float(np.trapezoid(np.abs(f.values) ** 2, f.nodes))
    if f.tail_exponent is not None:
        p = float(f.tail_exponent)
        if p <= 0.5:
            raise NonIntegrableTail(f"tail exponent {p} <= 1/2")
        right_amp = abs(f.values[-1]) * abs(f.nodes[-1]) ** p
        left_amp = abs(f.values[0]) * abs(f.nodes[0]) ** p
        mass += _tail_mass(f.nodes[-1], right_amp, p)
        mass += _tail_mass(f.nodes[0], left_amp, p)
    return math.sqrt(mass)


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
