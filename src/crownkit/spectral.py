"""Spherical transform on radial functions, orbital identities, and
invariant reproducing kernels on the crown.

Conventions.  The hyperbolic area element is dx dy / y^2; the geodesic
radius r relates to the torus by a_t x0 at distance r = 2 log t, so radial
integrals carry the factor 2 pi sinh(r).  The transform of a radial f is
    F f(lam) = 2 pi Int f(r) phi_lam(r) sinh(r) dr.
The Plancherel measure of nu = -1/2 + i lam/2 on lam >= 0 is |c(lam)|^-2
d lam = lam tanh(pi lam/2)/(8 pi) d lam in this normalization (Helgason,
Groups and Geometric Analysis, Ch. IV; Koornwinder 1984): `PLANCHEREL`, the
default weight of every spectral side.  `calibrate_parseval` recovers the
constant from a direct Parseval computation on a reference Gaussian, as a
check; written with tanh(pi lam), no constant fits two reference widths at
once, which `plancherel_verdict` reports.

On the crown every matrix coefficient <pi(z)v_K, pi(w)v_K> is P_nu(c),
nu = -1/2 + i lam/2, at one invariant c of the pair (cosh d(z, w) on real
points, p(z)/2 at w = x0; DLMF 14.3, Kroetz-Stanton, Ann. of Math. 159
(2004)), and every caller reads it from one evaluator, `LegendreRule`.

Every lam rule is a `LamRule`: TRANSFORM_RULE, with its phi matrix, for
the transform, Parseval and the orbital mass's radial cut; KERNEL_RULE for
the kernels; an orbital mass's own rule on the live range of its density.
A rule integrates a density (`SpectralDensity`, a vectorized closed form
in lam with its decay) only where it has decayed by the rule's end.

The orbital identity moves the group integral of |f|^2 over a shifted
copy of X inside the crown to the spectral side, weighted by the doubled
torus value phi_lam(exp(2ir h)), the positive quantity supplied by the
split pairing of half-continued vectors.  Together with admissible
measures on the tempered ray this yields invariant reproducing kernels,
of which the one weighted by lam tanh(pi lam/2)/cosh(pi lam) is the
Hardy-space kernel of the most-continuous spectrum of the hyperboloid.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .crown import crown_contains, elliptic_point
from .errors import (AdmissibilityFailure, DomainError, NonConvergence,
                     NotInCrown)
from .liecore import GroupElement, check_torus_angle
from .numerics import IdentityCheck, gauss_legendre_grid
from .pairmodel import BASE_POINT, PairPoint

TWO_PI = 2.0 * math.pi


# -- lam rules ----------------------------------------------------------------

#: a density lives where, weighted as it is integrated, it exceeds this
#: fraction of its peak on the nodes of its lam rule
_LIVE = 1e-13


class LamRule:
    """A Gauss-Legendre rule in lam on [0, lam_max].  Its nodes and weights
    (from `build`), their `LegendreRule` and its phi matrix are each built
    on first use, so importing the module builds no rule."""

    def __init__(self, lam_max: float, build: Callable[[], tuple]):
        self.lam_max, self._build = lam_max, build

    _rule = cached_property(lambda self: self._build())
    nodes = property(lambda self: self._rule[0])
    weights = property(lambda self: self._rule[1])

    @cached_property
    def legendre(self) -> LegendreRule:
        """The lam side of P_nu on the nodes."""
        return LegendreRule(self.nodes)

    @cached_property
    def radial(self) -> tuple[np.ndarray, np.ndarray]:
        """The radial rule of the phi matrix: 48 nodes on each panel of
        [0, 1/2, 1, 2, 4, 8, 16, 36]."""
        return gauss_legendre_grid([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0,
                                    36.0], 48)

    @cached_property
    def phi(self) -> np.ndarray:
        """phi_lam(r) on the nodes by the radial nodes."""
        return phi_radial_matrix(self.nodes, self.radial[0])

    def check(self, weighted: np.ndarray) -> None:
        """ValueError where a density, weighted as it is integrated on the
        nodes, has no finite positive mass there (its peak is 0, inf or
        nan) or lives at the last node."""
        peak = float(weighted.max())
        if not (math.isfinite(peak) and peak > 0.0):
            raise ValueError(f"the density peaks at {peak:g} on its lam rule "
                             f"on [0, {self.lam_max:g}]: it has no finite "
                             "positive mass there")
        if weighted[-1] > _LIVE * peak:
            raise ValueError(f"the density has not decayed by lam = "
                             f"{self.lam_max:g}, where its lam rule ends")

    def live(self, weighted: np.ndarray) -> LamRule:
        """4 panels of 16 nodes on the range where `weighted` lives, padded
        by 1/4 and ending at the last node at most; ValueError as `check`."""
        self.check(weighted)
        live = self.nodes[weighted > _LIVE * weighted.max()]
        edges = np.linspace(max(0.0, live.min() - 0.25),
                            min(self.nodes[-1], live.max() + 0.25), 5)
        return LamRule(edges[-1], partial(gauss_legendre_grid, edges, 16))


#: the rule of the transform, Parseval and the orbital mass's radial cut:
#: 40 nodes on each panel of [0, 1/4, 1/2, 1, 2, 4, 8, 16, 32], dense near
#: 0 where the tempered weight vanishes linearly
TRANSFORM_RULE = LamRule(32.0, partial(
    gauss_legendre_grid, [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
    40))
#: the rule of the invariant kernels: the transform rule's first seven
#: panels, the same nodes and weights bit for bit
KERNEL_RULE = LamRule(16.0, lambda: (TRANSFORM_RULE.nodes[:280],
                                     TRANSFORM_RULE.weights[:280]))


def default_lambda_grid() -> np.ndarray:
    """The transform rule's nodes (perfbench's spectral probe)."""
    return TRANSFORM_RULE.nodes


@dataclass(frozen=True)
class SpectralDensity:
    """A density on the tempered ray: a vectorized function of lam, with
    its decay as lam -> infinity.

    decay_tag is one of 'super-exponential', 'exponential', 'polynomial';
    decay_rate is the rate a of an exponential decay e^{-a lam}.
    """

    function: Callable[[np.ndarray], np.ndarray]
    decay_tag: str = "super-exponential"
    decay_rate: float | None = None

    def __post_init__(self):
        if self.decay_tag not in ("super-exponential", "exponential",
                                  "polynomial"):
            raise ValueError(f"unknown decay tag {self.decay_tag!r}")

    def __call__(self, lam) -> np.ndarray:
        return self.function(np.asarray(lam, dtype=float))


def gaussian(center: float, width: float) -> Callable:
    """The profile exp(-(x - center)^2 / (2 width^2)), 0 without a warning
    where the square overflows."""
    def profile(x):
        with np.errstate(over="ignore"):
            return np.exp(-0.5 * ((x - center) / width) ** 2)
    return profile


def gaussian_density(center: float, width: float) -> SpectralDensity:
    """Smooth test density: the Gaussian profile in lam."""
    return SpectralDensity(gaussian(center, width))


# -- the spherical function in closed form ------------------------------------

#: B_2m / (2m (2m - 1)), the coefficients of the Stirling series
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680)
#: series tails stop below e^-37 (1e-16); a series may lose e^4 (1.7 digits)
#: to cancellation
_TAIL_NATS, _LOSS_NATS = 37.0, 4.0
#: no series is summed past this many terms
_MAX_TERMS = 8192


def _arg_gamma_over_mu(a: float, mu):
    """arg Gamma(a + i mu)/mu for mu > 0: the Stirling series at
    w = a + 30 + i mu and the recurrence, each term divided by mu, so that
    no digits cancel as mu -> 0."""
    b, w2 = a + 30.0, (a + 30.0) ** 2 + mu * mu
    t = np.arctan(mu / b) / mu                      # arg(w)/mu
    out = (b - 0.5) * t + 0.5 * np.log(w2) - 1.0
    for m, coef in enumerate(_STIRLING):            # Im w^-n/mu, n = 2m + 1
        n = 2 * m + 1
        out -= coef * np.sin(n * mu * t) / mu * w2 ** (-n / 2)
    return out - sum(np.arctan(mu / (a + k)) / mu for k in range(30))


def _re_digamma_half(mu):
    """Re psi(1/2 + i mu) by the Stirling series at 30.5 + i mu, recurred."""
    w = 30.5 + 1j * mu
    out = np.log(w) - 0.5 / w - sum((2 * m + 1) * coef * w ** (-2 * m - 2)
                                    for m, coef in enumerate(_STIRLING))
    return out.real - sum(a / (a * a + mu * mu) for a in np.arange(30) + 0.5)


def _power_series(coef: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k coef[:, k] z^k for real coefficient rows and complex points,
    as one real matrix product."""
    pw = np.ones((coef.shape[1], z.size), dtype=complex)
    pw[1:] = z
    np.cumprod(pw, axis=0, out=pw)
    return (coef @ pw.view(float)).view(complex)


# The coefficient tables of the three series, rows by mu and columns by
# k = 0 .. n.  Each is a cumulative product or sum along k, so the leading
# columns of a longer table are those of a shorter one, bit for bit.  They
# are computed in place in their output, because a table on the kernels'
# 280 lams reaches 2,000 columns (4.5 MB) and temporaries of that size
# raise the peak memory of a process that keeps it.

def _hyper_coef(mu: np.ndarray, n: int) -> np.ndarray:
    """t_0 .. t_n of 2F1(-nu, nu + 1; 1; .), t_k/t_{k-1} = ((k - 1/2)^2 +
    mu^2)/k^2."""
    k = np.arange(1, n + 1)
    t = np.empty((mu.size, n + 1))
    t[:, 0] = 1.0
    np.hypot(k - 0.5, mu, out=t[:, 1:])
    t[:, 1:] /= k
    np.square(t[:, 1:], out=t[:, 1:])
    return np.cumprod(t, axis=1, out=t)


def _harish_chandra_coef(mu: np.ndarray, n: int) -> np.ndarray:
    """The rows of U and of V: |a_k| cos(mu phase_k) and |a_k| sin(mu
    phase_k) times 2|i mu c(mu)|/mu, mu phase_k = arg(i mu c(mu) a_k)."""
    j = np.arange(1, n + 1)
    mod = np.empty((mu.size, n + 1))
    mod[:, 0] = 1.0
    np.hypot(j - 0.5, mu, out=mod[:, 1:])
    mod[:, 1:] *= (j - 0.5) / j
    mod[:, 1:] /= np.hypot(j, mu)
    np.cumprod(mod, axis=1, out=mod)
    phase = np.empty_like(mod)
    phase[:, 0] = 0.0           # arg(a_k/a_{k-1}) = -atan(mu/d)
    np.divide(mu, j * (2 * j - 1) + 2 * mu ** 2, out=phase[:, 1:])
    np.arctan(phase[:, 1:], out=phase[:, 1:])
    phase[:, 1:] /= mu
    np.cumsum(phase, axis=1, out=phase)
    np.subtract(_arg_gamma_over_mu(1.0, mu) - _arg_gamma_over_mu(0.5, mu),
                phase, out=phase)
    phase *= mu
    uv = np.empty((2,) + mod.shape)
    np.cos(phase, out=uv[0])
    np.sin(phase, out=uv[1])
    uv *= mod
    uv *= 2.0 * np.sqrt(mu / np.tanh(math.pi * mu) / math.pi) / mu
    return uv


def _log_coef(mu: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The rows of t_k b_k and of t_k, b_k = 2 psi(k + 1) - 2 Re psi(k +
    1/2 + i mu), from the table t of `_hyper_coef`."""
    k = np.arange(1, t.shape[1])
    tb = np.empty((2,) + t.shape)
    tb[0, :, :1] = -np.euler_gamma - _re_digamma_half(mu)
    np.divide(k - 0.5, (k - 0.5) ** 2 + mu ** 2, out=tb[0, :, 1:])
    np.subtract(1.0 / k, tb[0, :, 1:], out=tb[0, :, 1:])
    np.cumsum(tb[0], axis=1, out=tb[0])
    tb[0] *= 2.0
    tb[0] *= t
    tb[1] = t
    return tb


def _harish_chandra(mu: np.ndarray, rho: np.ndarray, coef: np.ndarray
                    ) -> np.ndarray:
    """e^{-rho/2} (sin(mu rho) U + cos(mu rho) V) in real arithmetic: with
    rho = a + ib, sin(mu rho) = sin(mu a) cosh(mu b) + i cos(mu a) sinh(mu
    b) and cos(mu rho) = cos(mu a) cosh(mu b) - i sin(mu a) sinh(mu b), from
    one cos, sin, cosh and sinh per cell.  Each step is even or odd in b, so
    conj rho gives the conjugate bit for bit.  The parts are written in
    place: complex expressions of the same products keep the symmetry but
    made four warm Gutzmer cases 9% slower."""
    u, v = np.split(_power_series(coef, np.exp(-2.0 * rho)), 2)
    mu_a, mu_b = mu * rho.real, mu * rho.imag
    cos_a, sin_a = np.cos(mu_a), np.sin(mu_a)
    cosh_b, sinh_b = np.cosh(mu_b), np.sinh(mu_b)
    sin_mu = np.empty(u.shape, dtype=complex)
    np.multiply(sin_a, cosh_b, out=sin_mu.real)
    np.multiply(cos_a, sinh_b, out=sin_mu.imag)
    cos_mu = np.empty(u.shape, dtype=complex)
    np.multiply(cos_a, cosh_b, out=cos_mu.real)
    np.multiply(sin_a, sinh_b, out=cos_mu.imag)
    np.negative(cos_mu.imag, out=cos_mu.imag)
    sin_mu *= u
    cos_mu *= v
    sin_mu += cos_mu
    sin_mu *= np.exp(-0.5 * rho)
    return sin_mu


def _log_series(mu: np.ndarray, y: np.ndarray, coef: np.ndarray
                ) -> np.ndarray:
    s, f = np.split(_power_series(coef, y), 2)
    return np.cosh(math.pi * mu) / math.pi * (s - np.log(y) * f)


def _series_error(mu, ratio, arc, decay, bound) -> np.ndarray:
    """The error in nats at mu of a series of `LegendreRule.values`, its
    arrays in any shapes that broadcast; within e^4 of the loss floor the
    ratio minus 1, negative where the series converges, ranks instead."""
    key = np.maximum(arc * mu, _LOSS_NATS)
    key = key + np.maximum(bound - _MAX_TERMS * decay, 0.0)
    return np.where(key > _LOSS_NATS, key, ratio - 1.0)


def _pick(mu, bound, ratio, arc, decay):
    """The least `_series_error` (of equals the first) on each (lam, point)
    cell, int8, and the terms of each picked series: its bound over its
    decay at its neediest cell, at most _MAX_TERMS.  A series' error is its
    ratio - 1 inside its loss floor and above 4 outside, which it leaves
    once as mu grows: a point whose least-ratio series, 2F1 or
    Harish-Chandra, is inside at the largest mu takes it at every lam (95%
    of the benchmark's kernel points, all but 1e-4 of its orbit points).
    The rest are weighed cell by cell, under the guard of `values`."""
    top, cols = mu.argmax(), np.arange(ratio.shape[1])
    first = np.argmin(ratio - 1.0, axis=0)
    pick = np.repeat(first[None].astype(np.int8), mu.size, axis=0)
    top_bound, first_decay = bound[first, top, 0], decay[first, cols]
    covered = (first < 2) & (_series_error(
        mu[top], ratio[first, cols], arc[first, cols], first_decay,
        top_bound) <= _LOSS_NATS)
    need = np.full(3, -np.inf)
    np.maximum.at(need, first[covered], (top_bound / first_decay)[covered])
    if not covered.all():
        rest = ~covered
        error = _series_error(mu, *(a[:, None, rest] for a in
                                    (ratio, arc, decay)), bound)
        pick[:, rest] = least = error.argmin(axis=0)
        best = error.min(axis=0)
        spread = np.log1p(np.abs(np.log(ratio[2, rest])))
        if not np.all(np.where(least == 2, best + spread, best)
                      <= 0.5 * _TAIL_NATS):
            raise ValueError("no series reaches 1e-8 of P_nu on or near "
                             "the cut")
        np.maximum.at(need, least, np.take_along_axis(
            bound / decay[:, None, rest], least[None], 0)[0])
    return pick, [math.ceil(min(n, _MAX_TERMS)) if n > -np.inf else None
                  for n in need]


#: one block of `LegendreRule.blocks` holds at most this many (lam, point)
#: cells, so its complex temporaries stay at 256 KB; on four warm Gutzmer
#: cases 2^12 and 2^15 were 8% and 18% slower, 2^13 within 2%
_CELLS = 2 ** 14


class LegendreRule:
    """The lam side of P_nu, nu = -1/2 + i lam/2, on one array of lams.

    The rule owns the coefficient tables of the three series of `values`
    (the 2F1 t_k, the Harish-Chandra U and V rows, the log-series rows)
    for all of its lams, with the first column at which each lam's rows
    overflow.  A table is built by the first call that sums its series and
    rebuilt at least twice as long when a call needs more terms, so any
    number of calls builds it a logarithmic number of times; each call
    reads the rows and leading columns it needs, in place when it reads
    every row.  Whoever evaluates P_nu repeatedly on one lam array keeps
    one rule for it.
    """

    def __init__(self, lams: np.ndarray):
        self.mu = np.maximum(0.5 * np.abs(np.asarray(lams, float)),
                             1e-30)[:, None]
        self._bound = np.stack([math.pi * self.mu, 0.0 * self.mu,
                                math.pi * self.mu]) + _TAIL_NATS
        self._tables = [None, None, None]
        self._overflow = [None, None, None]

    def _table(self, s: int, n: int) -> np.ndarray:
        """Series s's table through column n at least, grown if needed."""
        table = self._tables[s]
        if table is None or table.shape[-1] <= n:
            if table is not None:
                n = max(n, min(2 * (table.shape[-1] - 1), _MAX_TERMS))
                table = self._tables[s] = None     # not held while building
            with np.errstate(over="ignore", invalid="ignore"):
                table = (_hyper_coef(self.mu, n) if s == 0 else
                         _harish_chandra_coef(self.mu, n) if s == 1 else
                         _log_coef(self.mu, self._table(0, n)[0, :, :n + 1]))
            table = self._tables[s] = table.reshape(-1, self.mu.size, n + 1)
            # a cumulative product stays non-finite once it overflows
            finite = np.isfinite(table)
            self._overflow[s] = np.where(finite.all(axis=-1), n + 1,
                                       finite.argmin(axis=-1)).min(axis=0)
        return table

    def _coef(self, s: int, rows: np.ndarray, n: int) -> np.ndarray:
        """Columns 0 .. n of series s's table on the rows, as one matrix;
        ValueError where they overflow."""
        table = self._table(s, n)[:, :, :n + 1]
        if n >= self._overflow[s][rows].min():
            raise ValueError("the series coefficients of P_nu overflow")
        return (table if rows.all() else table[:, rows]).reshape(-1, n + 1)

    def values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """P_nu(c), mu = lam/2, rho = arccosh c, lams by points given as
        x = (1 - c)/2 and y = (1 + c)/2 formed without cancellation, from
        one of three series:
        - 2F1(-nu, nu + 1; 1; x) = sum t_k x^k, t_k/t_{k-1} = ((k - 1/2)^2
          + mu^2)/k^2.  Its terms reach about e^{mu (2 asin sqrt|x| -
          |Im rho|)} |P| before they cancel.
        - Harish-Chandra (Koornwinder, 1984): c(mu) Phi_mu + c(-mu)
          Phi_-mu, c(mu) = Gamma(i mu)/(sqrt(pi) Gamma(1/2 + i mu)), Phi_mu
          = e^{(i mu - 1/2) rho} sum a_k e^{-2k rho}, a_k/a_{k-1} = (2k -
          1)(2k - 1 - 2i mu)/(4k (k - i mu)).  With |i mu c(mu)|^2 = mu
          coth(pi mu)/pi and the phases divided by mu it is 2|i mu c(mu)|
          e^{-rho/2} (sin(mu rho)/mu U + cos(mu rho) V), U, V real series
          in e^{-2 rho}: exact at mu = 0, the row factors in their tables.
          sin and cos of mu rho are formed in real arithmetic from cos, sin
          of mu Re rho and cosh, sinh of mu Im rho.
        - Near c = -1 (DLMF 15.8.10): (cosh(pi mu)/pi) sum t_k [2 psi(k +
          1) - 2 Re psi(k + 1/2 + i mu) - log y] y^k, the same t_k; its
          terms reach about e^{mu (pi + 2 asin sqrt|y| - |Im rho|)} |P|.
        Each is summed to e^-37 of its term bound, at most _MAX_TERMS
        terms, so its error is e^{loss + left - 37}: loss, the growth of
        its terms over |P|; left, the nats of the bound past the cap.  The
        least error from e^4 up wins, of equals the smallest ratio |x|,
        |e^{-2 rho}| or |y|, ranked once per point (`_pick`).  The log
        series is the difference of sum t_k b_k y^k and log y sum t_k y^k,
        which both reach about |log y| times its terms, so the guard counts
        its error as e^{loss + left - 37} (1 + |log y|): past e^-18.5
        (1e-8), on the cut c <= -1 or near it past lam ~ 64, ValueError.
        ValueError too where the coefficients a call reads overflow: the
        t_k grow to about e^{pi mu}, past lam ~ 450.
        P is even in mu and Harish-Chandra terms are divided by mu: flooring
        mu at 1e-30 moves P by O(mu^2).
        Every step is conjugate-symmetric, so values(conj x, conj y) is
        conj values(x, y) bit for bit.  The work goes in `blocks` of at
        most _CELLS (lam, point) cells.
        """
        out = np.empty((self.mu.size, np.size(x)), dtype=complex)
        for blk, val in self.blocks(x, y):
            out[:, blk] = val
        return out

    def blocks(self, x: np.ndarray, y: np.ndarray):
        """`values` block by block: (slice of the points, P_nu on the lams
        by those points), each block at most _CELLS cells.  The series of
        every cell is picked (`_pick`), the guard checked and each table
        sized for all the points before the first block is summed, so the
        picks are held, one byte per cell, until their block is summed.
        Picking and summing each block in one pass, with the tables grown
        as blocks need, made four warm Gutzmer cases 3-7% slower."""
        mu = self.mu
        x, y = np.asarray(x, complex), np.asarray(y, complex)
        rho = np.arccosh(np.where(np.abs(x) <= np.abs(y), 1.0 - 2.0 * x,
                                  2.0 * y - 1.0))
        ratio = np.stack([np.abs(x), np.exp(-2.0 * rho.real), np.abs(y)])
        arc = (2.0 * np.arcsin(np.sqrt(np.minimum(ratio, 1.0)))
               - np.abs(rho.imag))
        arc[1], arc[2] = 0.0, arc[2] + math.pi
        with np.errstate(divide="ignore"):    # -inf where a series diverges
            decay = -np.log(np.where(ratio < 1.0, ratio, np.inf))
            step = max(1, _CELLS // mu.size)
            slices = [slice(i, i + step) for i in range(0, x.size, step)]
            picks = [_pick(mu, self._bound, ratio[:, blk], arc[:, blk],
                           decay[:, blk]) for blk in slices]
        for s in range(3):
            longest = [ns[s] for _, ns in picks if ns[s] is not None]
            if longest:
                self._table(s, max(longest))

        hyper = lambda mu, x, coef: _power_series(coef, x)
        series = ((hyper, x), (_harish_chandra, rho), (_log_series, y))
        for blk, (pick, ns) in zip(slices, picks):
            out = np.empty(pick.shape, dtype=complex)
            for s, (evaluate, arg) in enumerate(series):
                if ns[s] is None:
                    continue
                sel = pick == s
                rows, cols = sel.any(axis=1), sel.any(axis=0)
                val = evaluate(mu[rows], arg[blk][cols],
                               self._coef(s, rows, ns[s]))
                if sel.all():
                    out = val
                else:
                    out[sel] = val[sel[np.ix_(rows, cols)]]
            yield blk, out


def _legendre(lams: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """P_nu(c) on lams by points (`LegendreRule.values`) for one-off
    callers: the phi matrix, pairing rows, doubled torus values.  Repeated
    evaluation on one lam array reads the tables of its `LamRule`."""
    return LegendreRule(lams).values(x, y)


def phi_radial_matrix(lams: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """phi_lam(a_{e^{r/2}} x0) = P_nu(cosh r), lams by radii."""
    half = 0.5 * np.asarray(radii, dtype=float)
    return _legendre(lams, -np.sinh(half) ** 2, np.cosh(half) ** 2)


# -- transform, Parseval, the Plancherel weight ------------------------------

@dataclass(frozen=True)
class SampledTransform:
    """A radial profile's spherical transform on the transform rule's
    nodes."""

    lambda_grid: np.ndarray
    values: np.ndarray

    def to_csv(self, path) -> None:
        data = np.column_stack([self.lambda_grid, self.values.real,
                                self.values.imag])
        np.savetxt(path, data, delimiter=",",
                   header="lambda,value_real,value_imag", comments="")


def spherical_transform(f_radial) -> SampledTransform:
    """Transform of a radial function given as a vectorized callable of the
    geodesic radius: F f(lam) = 2 pi Int f(r) phi_lam(r) sinh(r) dr, on the
    transform rule's nodes."""
    r, r_w = TRANSFORM_RULE.radial
    fr = np.asarray(f_radial(r), dtype=complex)
    if not np.all(np.isfinite(fr)):
        raise ValueError("radial profile produced non-finite samples")
    vals = TRANSFORM_RULE.phi @ (TWO_PI * r_w * fr * np.sinh(r))
    return SampledTransform(TRANSFORM_RULE.nodes, vals)


@dataclass(frozen=True)
class PlancherelWeight:
    """Tempered weight lam*tanh(pi lam/2) (or the tanh(pi lam) variant)
    times one constant, by default the closed form 1/(8 pi)."""

    calibration_constant: float = 1.0 / (8.0 * math.pi)
    form: str = "lambda_tanh_half"

    def density(self, lam):
        lam = np.asarray(lam, dtype=float)
        half = 0.5 if self.form == "lambda_tanh_half" else 1.0
        return self.calibration_constant * lam * np.tanh(math.pi * lam * half)


#: the Plancherel weight |c(lam)|^-2 = lam tanh(pi lam/2)/(8 pi)
PLANCHEREL = PlancherelWeight()


def parseval_check(f_radial, weight: PlancherelWeight = PLANCHEREL
                   ) -> IdentityCheck:
    """The X-side mass Int_X |f|^2 = 2 pi Int |f(r)|^2 sinh(r) dr of a
    radial function against its spectral mass."""
    dens = spherical_transform(f_radial).values
    rhs = np.sum(TRANSFORM_RULE.weights * np.abs(dens) ** 2
                 * weight.density(TRANSFORM_RULE.nodes))
    r, r_w = TRANSFORM_RULE.radial
    fr = np.asarray(f_radial(r), dtype=complex)
    lhs = TWO_PI * np.sum(r_w * np.abs(fr) ** 2 * np.sinh(r))
    return IdentityCheck(float(lhs), float(rhs))


def calibrate_parseval(reference_width: float = 1.0,
                       form: str = "lambda_tanh_half") -> PlancherelWeight:
    """The constant that makes Parseval exact on a reference radial
    Gaussian: its X-side mass over its spectral mass under the unit weight
    of the form.  A check of the closed form: for the half-angle form it
    is 1/(8 pi) to 7e-16 at reference widths from 0.5 to 2."""
    chk = parseval_check(gaussian(0.0, reference_width),
                         PlancherelWeight(1.0, form))
    return PlancherelWeight(chk.lhs / chk.rhs, form)


def plancherel_verdict() -> dict:
    """Calibrate both printed weight variants on two reference widths; the
    variant whose constants agree is the consistent one."""
    out = {}
    for form in ("lambda_tanh_half", "lambda_tanh"):
        c1 = calibrate_parseval(1.0, form).calibration_constant
        c2 = calibrate_parseval(0.6, form).calibration_constant
        out[form] = {"constant_width_1": c1, "constant_width_0.6": c2,
                     "relative_spread": abs(c1 - c2) / max(c1, c2)}
    half = out["lambda_tanh_half"]["relative_spread"]
    full = out["lambda_tanh"]["relative_spread"]
    out["verdict"] = ("lambda_tanh_half" if half < full else "lambda_tanh")
    return out


# -- the invariant of a pair of crown points ----------------------------------

def _pair_invariant(z: PairPoint, w: PairPoint):
    """x = (1 - c)/2 and y = (1 + c)/2 of crown points z, w, where
    <pi(z)v_K, pi(w)v_K> = P_nu(c), as cross ratios of z1, z2 and the
    conjugates u1, u2 of w1, w2; swapping z and w conjugates both exactly."""
    if not (crown_contains(z) and crown_contains(w)):
        raise NotInCrown(f"{z} or {w} is outside the crown")
    (z1, z2), (w1, w2) = z.finite(), w.finite()
    u1, u2 = w1.conjugate(), w2.conjugate()
    x = (z1 - u2) * (z2 - u1) / ((z1 - z2) * (u2 - u1))
    y = (z1 - u1) * (z2 - u2) / ((z1 - z2) * (u1 - u2))
    if not (cmath.isfinite(x) and cmath.isfinite(y)):
        raise DomainError(f"the invariant of {z} and {w} overflows")
    return np.array([x]), np.array([y])


def phi_pairing_row(lams: np.ndarray, g: GroupElement, r: float
                    ) -> np.ndarray:
    """phi_lam(g exp(i r h) x0) for all lams: `_legendre` at the invariant
    of the point and x0."""
    z = elliptic_point(g, r)
    return _legendre(lams, *_pair_invariant(z, BASE_POINT))[:, 0]


# -- the orbital identity ----------------------------------------------------

def doubled_torus_values(lams: np.ndarray, r: float) -> np.ndarray:
    """phi_lam(exp(2 i r h) x0) for all lams at once.

    By the split pairing this is ||Psi_r||^2, the norm of the continued
    spherical vector: P_nu(cos 4r), at x = sin^2 2r and y = cos^2 2r, which
    grows like -log y as r -> pi/4.
    """
    check_torus_angle(r)
    return _doubled_torus(LegendreRule(lams), r)


def _doubled_torus(rule: LegendreRule, r: float) -> np.ndarray:
    s, c = math.sin(2.0 * r), math.cos(2.0 * r)
    return rule.values(np.array([s * s]), np.array([c * c]))[:, 0].real


#: the orbital mass drops the radial tail of |f|^2 beyond this fraction, and
#: its theta rule doubles until the mass changes by less than this fraction
RHO_TAIL_TOL = 1e-7
#: the theta trapezoid doubles from 24 nodes up to this many
_MAX_THETA = 1536


@dataclass(frozen=True)
class OrbitQuadrature:
    """The grids of one orbital mass: the lam rule, whose `LegendreRule`
    every theta round of the mass and the Gutzmer rhs share, with the
    inverse-transform coefficients of f on its nodes; the rho rule, cut at
    rho_max, which drops tail_fraction of the radial mass of |f|^2; once
    integrated, the theta trapezoid's node count and last change."""

    lam_rule: LamRule
    coeff: np.ndarray
    rho_nodes: np.ndarray
    rho_weights: np.ndarray
    rho_max: float
    tail_fraction: float
    n_theta: int | None = None
    theta_error: float | None = None

    def summary(self) -> dict:
        return {"rho_max": self.rho_max, "tail_fraction": self.tail_fraction,
                "n_rho": self.rho_nodes.size,
                "n_lambda": self.lam_rule.nodes.size,
                "n_theta": self.n_theta, "theta_error": self.theta_error}


def orbit_quadrature(density: SpectralDensity,
                     weight: PlancherelWeight = PLANCHEREL
                     ) -> OrbitQuadrature:
    """The grids `orbital_mass` integrates on.

    The lam rule is TRANSFORM_RULE's `live` rule of the weighted density;
    ValueError as its `check`.  The radial cut reads the profile f(r) = c
    Int d(lam) phi_lam(r) w(lam) d lam off TRANSFORM_RULE's phi matrix and
    ends the rho range one unit past the last radius at which the radial
    mass of |f|^2 left beyond it exceeds RHO_TAIL_TOL of the total (8 for
    a zero profile).
    """
    rule = TRANSFORM_RULE
    dens, wd = density(rule.nodes), weight.density(rule.nodes)
    lam_rule = rule.live(np.abs(dens) * np.maximum(wd, 0.0))
    nodes = lam_rule.nodes
    coeff = lam_rule.weights * density(nodes) * weight.density(nodes)

    r_nodes, r_w = rule.radial
    prof = (rule.weights * dens * wd) @ rule.phi
    prof = np.abs(prof) ** 2 * np.sinh(r_nodes) * r_w
    total = float(prof.sum())
    beyond = np.cumsum(prof[::-1])[::-1]
    keep = r_nodes[beyond > RHO_TAIL_TOL * total]
    rho_max = float(keep.max()) + 1.0 if keep.size else 8.0
    tail = float(prof[r_nodes > rho_max].sum()) / total if total > 0 else 0.0

    rho_nodes, rho_w = gauss_legendre_grid(
        np.linspace(0.0, rho_max, max(5, int(rho_max * 0.75))), 6)
    return OrbitQuadrature(lam_rule, coeff, rho_nodes, rho_w, rho_max, tail)


def _theta_sums(quad: OrbitQuadrature, r: float, n: int,
                offset: float) -> np.ndarray:
    """Per rho node, the sum of |f|^2 at a_{e^{rho/2}} k_theta exp(irh) x0
    over theta = (j + offset) pi/n, j < n, where the invariant is
    c = cosh(rho) cos 2r + i sinh(rho) sin 2r cos 2theta.  c is even about
    theta = pi/2, so only the nodes in [0, pi/2] are evaluated, with weight
    2, or 1 at theta = 0 and pi/2, which are their own mirrors.  The rule
    sums all the points of a round in its blocks (`LegendreRule.blocks`),
    and each block is contracted with the lam coefficients as it comes."""
    j = np.arange(n) + offset
    j = j[2 * j <= n]
    c = (np.cosh(quad.rho_nodes)[:, None] * math.cos(2 * r) + 1j * np.outer(
        np.sinh(quad.rho_nodes) * math.sin(2 * r),
        np.cos(2 * j * (math.pi / n)))).ravel()
    f = np.empty(c.size, dtype=complex)
    rule = quad.lam_rule.legendre
    for blk, val in rule.blocks(0.5 * (1 - c), 0.5 * (1 + c)):
        f[blk] = quad.coeff @ val
    return ((np.abs(f) ** 2).reshape(-1, j.size)
            @ np.where((j == 0) | (2 * j == n), 1.0, 2.0))


def _integrate_orbit(quad: OrbitQuadrature, r: float
                     ) -> tuple[float, OrbitQuadrature]:
    """The orbital mass on quad's grids, and quad with its theta rule;
    NonConvergence where the theta rule reaches _MAX_THETA nodes with the
    mass still moving by more than RHO_TAIL_TOL of itself."""
    radial = TWO_PI * quad.rho_weights * np.sinh(quad.rho_nodes)
    n, sums = 24, _theta_sums(quad, r, 24, 0.0)
    mass, change = float(radial @ sums) / n, math.inf
    while change > RHO_TAIL_TOL * mass:
        if n >= _MAX_THETA:
            raise NonConvergence(
                f"the theta rule of the orbital mass at r = {r:g} still moves"
                f" by {change / mass:.2g} of the mass at {n} nodes",
                estimate=mass, error=change)
        sums += _theta_sums(quad, r, n, 0.5)
        n *= 2
        new = float(radial @ sums) / n
        mass, change = new, abs(new - mass)
    return mass, replace(quad, n_theta=n, theta_error=change)


def orbital_mass(density: SpectralDensity, r: float,
                 weight: PlancherelWeight = PLANCHEREL) -> float:
    """Group integral of |f|^2 over the shifted orbit at torus angle r.

    f is synthesized from its spectral density by the inverse transform,
    f(z) = c Int d(lam) phi_lam(z) w(lam) d lam, and the group integral is
    taken in Cartan coordinates, dg = 2 pi dk1 x sinh(rho) d rho x dk2
    (unit-mass rotation factors; the constant is pinned by the r = 0
    radial reduction).  Left K-invariance of f removes dk1, so the sample
    points are a_{e^{rho/2}} k_theta exp(i r h) x0, and the spherical
    values there are P_nu at their invariant, from the one `LegendreRule` of
    the mass's lam rule.  The theta trapezoid converges spectrally on this
    analytic pi-periodic integrand: it doubles from 24 nodes until the mass
    moves by RHO_TAIL_TOL or less, and raises NonConvergence where it still
    moves by more at 1536 nodes (the (2, 0.7) Gaussian needs 384 at
    r = 0.75, and at r = 0.785 still moves by 2.3e-2 of the mass).  The
    integrand reads theta only through cos 2theta, so each round evaluates
    the nodes in [0, pi/2] and counts each node inside it twice, once for
    its mirror in (pi/2, pi).

    The rho range drops RHO_TAIL_TOL = 1e-7 of the radial mass of |f|^2
    (`orbit_quadrature`).  No smaller tolerance, because the cut is read
    off the transform rule, where the profile aliases e^{i lam r/2} at large
    r (|f| of the (3, 1) Gaussian rises from 5e-13 at r = 30 to 2e-11 at
    r = 35): at 1e-9 the rho range ran to 30-37 and integrated that noise.
    """
    check_torus_angle(r)
    return _integrate_orbit(orbit_quadrature(density, weight), r)[0]


@dataclass(frozen=True)
class GutzmerCheck(IdentityCheck):
    """The Gutzmer identity's two sides, with the grids of its lhs."""

    orbit: OrbitQuadrature


def gutzmer_check(density: SpectralDensity, r: float,
                  weight: PlancherelWeight = PLANCHEREL) -> GutzmerCheck:
    """Orbital mass at torus angle r against the spectral integral weighted
    by the doubled torus value."""
    check_torus_angle(r)
    lhs, orbit = _integrate_orbit(orbit_quadrature(density, weight), r)
    rule = orbit.lam_rule               # coeff conj(d) = lam_w |d|^2 w(lam)
    rhs = np.sum(orbit.coeff * np.conj(density(rule.nodes))
                 * _doubled_torus(rule.legendre, r)).real
    return GutzmerCheck(lhs, float(rhs), orbit)


# -- invariant kernels --------------------------------------------------------

@dataclass(frozen=True)
class KernelMeasure:
    """Measure on the tempered ray defining an invariant kernel.

    Admissible when Int e^{c lam} d mu is finite for every c < 2, which the
    density's decay decides: always when super-exponential, at a rate of 2
    or more when exponential, never when polynomial.
    """

    density: SpectralDensity

    def admissible(self) -> bool:
        tag, rate = self.density.decay_tag, self.density.decay_rate
        if tag == "exponential":
            return rate is not None and rate >= 2.0
        return tag == "super-exponential"

    @cached_property
    def weighted(self) -> np.ndarray:
        """KERNEL_RULE's weights times the density; raises as `check` does."""
        dens = self.density(KERNEL_RULE.nodes)
        KERNEL_RULE.check(np.abs(dens))
        return KERNEL_RULE.weights * dens


def invariant_kernel(measure: KernelMeasure, z: PairPoint,
                     w: PairPoint) -> complex:
    """K(z, w) = Int <pi(z)v, pi(w)v> d mu(lam); Hermitian and G-invariant.

    Every spectral slice <pi(z)v_K, pi(w)v_K> is P_nu at the invariant of
    the pair, so one `LegendreRule` row over KERNEL_RULE gives all of
    them; K(w, z) is conj K(z, w) exactly.  ValueError where the density
    has no finite positive mass on KERNEL_RULE or has not decayed by
    lam = 16, where it ends.
    """
    if not measure.admissible():
        raise AdmissibilityFailure("the kernel measure decays too slowly")
    weighted = measure.weighted
    row = KERNEL_RULE.legendre.values(*_pair_invariant(z, w))[:, 0]
    return complex(np.sum(weighted * row))


def hardy_density() -> SpectralDensity:
    """lam tanh(pi lam/2)/cosh(pi lam) (positive scale), which decays like
    e^{-pi lam}."""
    return SpectralDensity(lambda lam: (lam * np.tanh(0.5 * math.pi * lam)
                                        / np.cosh(math.pi * lam)),
                           "exponential", decay_rate=math.pi)


_HARDY_MEASURE = KernelMeasure(hardy_density())


def hardy_kernel(z: PairPoint, w: PairPoint) -> complex:
    """Reproducing kernel of the holomorphic Hardy space attached to the
    most-continuous spectrum of the hyperboloid, up to positive scale."""
    return invariant_kernel(_HARDY_MEASURE, z, w)


def hardy_gram(points) -> np.ndarray:
    """The Hardy kernel's Gram matrix K(z_i, z_j), both triangles
    evaluated."""
    gram = np.empty((len(points), len(points)), dtype=complex)
    for i, z in enumerate(points):
        for j, w in enumerate(points):
            gram[i, j] = hardy_kernel(z, w)
    return gram
