"""Spherical transform on radial functions, orbital identities, and
invariant reproducing kernels on the crown.

Conventions.  The hyperbolic area element is dx dy / y^2; the geodesic
radius r relates to the torus by a_t x0 at distance r = 2 log t, so radial
integrals carry the factor 2 pi sinh(r).  The transform of a radial f is
    F f(lam) = 2 pi Int f(r) phi_lam(r) sinh(r) dr.
The tempered weight is lam * tanh(pi lam / 2) d lam up to one overall
constant, which is not normalized here but calibrated once against a
direct Parseval computation on a reference Gaussian and then validated on
held-out profiles.  (Written with tanh(pi lam), no constant fits two
different reference widths at once; the calibration harness reports this.)

On the crown the spherical function is a Legendre function of one
invariant, phi_lam(z) = P_nu(c), nu = -1/2 + i lam/2, c = p(z)/2 (cosh r
on the real form; DLMF 14.3, Kroetz-Stanton, Ann. of Math. 159 (2004)),
which the phi matrix, pairing rows and orbital mass read from `_legendre`.

The lam and r rules, the phi matrix on them and the calibrated Plancherel
constant live in one `SpectralGrid`, built once per process by the first
reader of the phi matrix: the transform, Parseval, the orbital mass or
`calibrate_parseval`.

The orbital identity moves the group integral of |f|^2 over a shifted
copy of X inside the crown to the spectral side, weighted by the doubled
torus value phi_lam(exp(2ir h)), the positive quantity supplied by the
split pairing of half-continued vectors.  Together with admissible
measures on the tempered ray this yields invariant reproducing kernels,
of which the one weighted by lam tanh(pi lam/2)/cosh(pi lam) is the
Hardy-space kernel of the most-continuous spectrum of the hyperboloid.

The doubled torus values (c = cos 4r) and the kernel slices reach the cut
c <= -1, where neither series of `_legendre` converges; they are still
matrix coefficients of continued spherical vectors, paired for all lam at
once on an x-grid clustered around the roots of the pulled quadratics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyroots, polyval

from .crown import point_to_tangent
from .errors import AdmissibilityFailure, DomainError
from .liecore import OMEGA_RADIUS, GroupElement, p_of_pair
from .numerics import IdentityCheck, gauss_legendre_grid
from .pairmodel import PairPoint
from .vectors import pull_quadratic

TWO_PI = 2.0 * math.pi


# -- the spectral grid -------------------------------------------------------

#: the lam range of the invariant kernels; the grid's lam rule restricted
#: to its first seven panels
KERNEL_LAM_MAX = 16.0


class SpectralGrid:
    """The fixed rules of the spectral side, the phi matrix on them and the
    Plancherel weight calibrated there.

    - lam: graded Gauss-Legendre rule on [0, 32], 40 nodes on each panel
      of [0, 1/4, 1/2, 1, 2, 4, 8, 16, 32], dense near 0 where the tempered
      weight vanishes linearly; its first seven panels are the rule of the
      kernels on [0, KERNEL_LAM_MAX];
    - r: graded rule on the radial range [0, 36], 48 nodes per panel.

    The phi matrix (`phi_radial_matrix`) and the weight are built on first
    access; through `spectral_grid` that is at most once per process.
    """

    def __init__(self):
        self.lam_nodes, self.lam_weights = gauss_legendre_grid(
            [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0], 40)
        self.r_nodes, self.r_weights = gauss_legendre_grid(
            [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 36.0], 48)

    def lam_rule(self, lam_max: float):
        """Nodes and weights of the lam rule's panels below lam_max."""
        n = int(np.searchsorted(self.lam_nodes, lam_max))
        return self.lam_nodes[:n], self.lam_weights[:n]

    @cached_property
    def phi(self) -> np.ndarray:
        """phi_lam(r) on the lam nodes by the r nodes."""
        return phi_radial_matrix(self.lam_nodes, self.r_nodes)

    @cached_property
    def weight(self) -> PlancherelWeight:
        """The Plancherel weight calibrated on this grid."""
        return calibrate_parseval()


@lru_cache(maxsize=1)
def spectral_grid() -> SpectralGrid:
    """The process's one spectral grid."""
    return SpectralGrid()


def default_lambda_grid(lam_max: float = 32.0) -> np.ndarray:
    return spectral_grid().lam_rule(lam_max)[0]


@dataclass
class SpectralDensity:
    """Sampled function of the tempered parameter with decay metadata.

    decay_tag is one of 'super-exponential', 'exponential', 'polynomial';
    decay_rate is the exponential rate when applicable.
    """

    lambda_grid: np.ndarray
    values: np.ndarray
    decay_tag: str = "super-exponential"
    decay_rate: float | None = None

    def __post_init__(self):
        self.lambda_grid = np.asarray(self.lambda_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.lambda_grid.ndim != 1 or not np.all(np.diff(self.lambda_grid) > 0):
            raise ValueError("lambda grid must be strictly increasing")
        if self.lambda_grid[0] < 0:
            raise ValueError("tempered parameters are nonnegative")
        if self.lambda_grid.shape != self.values.shape:
            raise ValueError("grid/value shape mismatch")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("density values must be finite")
        if self.decay_tag not in ("super-exponential", "exponential",
                                  "polynomial"):
            raise ValueError(f"unknown decay tag {self.decay_tag!r}")

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        re = np.interp(lam, self.lambda_grid, self.values.real)
        im = np.interp(lam, self.lambda_grid, self.values.imag)
        out = re + 1j * im
        return np.where(lam > self.lambda_grid[-1], 0.0, out)

    def to_csv(self, path) -> None:
        data = np.column_stack([self.lambda_grid, self.values.real,
                                self.values.imag])
        np.savetxt(path, data, delimiter=",",
                   header="lambda,value_real,value_imag", comments="")

    @classmethod
    def from_csv(cls, path, decay_tag="super-exponential", decay_rate=None):
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        return cls(data[:, 0], data[:, 1] + 1j * data[:, 2], decay_tag,
                   decay_rate)


def gaussian_density(center: float, width: float) -> SpectralDensity:
    """Smooth test density exp(-(lam-center)^2 / (2 width^2))."""
    grid = default_lambda_grid()
    vals = np.exp(-0.5 * ((grid - center) / width) ** 2)
    return SpectralDensity(grid, vals, "super-exponential")


# -- the spherical function in closed form ------------------------------------

#: B_2m / (2m (2m - 1)), the coefficients of the Stirling series
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680)
#: series tails stop below e^-37 (1e-16); the hypergeometric series may lose
#: e^4 (1.7 digits) to cancellation
_TAIL_NATS, _LOSS_NATS = 37.0, 4.0


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


def _power_series(coef: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k coef[:, k] z^k for real coefficient rows and complex points,
    as one real matrix product."""
    pw = np.ones((coef.shape[1], z.size), dtype=complex)
    pw[1:] = z
    np.cumprod(pw, axis=0, out=pw)
    return (coef @ pw.view(float)).view(complex)


def _legendre(lams: np.ndarray, c: np.ndarray) -> np.ndarray:
    """P_nu(c), nu = -1/2 + i lam/2, lams by c (an array, real >= 1 or
    complex), by one of two series; mu = lam/2, x = (1 - c)/2, rho = arccosh c.

    - 2F1(-nu, nu + 1; 1; x) = sum t_k x^k, t_k/t_{k-1} = ((k - 1/2)^2 +
      mu^2)/k^2.  Its terms reach about e^{mu (2 asin sqrt|x| - |Im rho|)}
      |P| before they cancel, so it serves no lam for which that tops e^4.
    - Harish-Chandra (Koornwinder, 1984): c(mu) Phi_mu + c(-mu) Phi_-mu,
      c(mu) = Gamma(i mu)/(sqrt(pi) Gamma(1/2 + i mu)), Phi_mu = e^{(i mu
      - 1/2) rho} sum a_k e^{-2k rho}, a_k/a_{k-1} = (2k - 1)(2k - 1 - 2i
      mu)/(4k (k - i mu)).  With |i mu c(mu)|^2 = mu coth(pi mu)/pi and the
      phases divided by mu it is 2|i mu c(mu)| e^{-rho/2} (sin(mu rho)/mu U
      + cos(mu rho) V), U, V real series in e^{-2 rho}: exact at mu = 0.
    Otherwise the series with the smaller ratio, |x| or |e^{-2 rho}|, is
    summed to e^-37 of its term bound.  Off the cut c <= -1 (ValueError) one
    converges, slowly near the cut; 2F1 terms overflow past lam ~ 450.
    P is even in mu and every Harish-Chandra term is written divided by mu,
    so mu is floored at 1e-30: that moves P by O(mu^2), with no mu = 0 case.
    """
    mu = np.maximum(0.5 * np.abs(np.asarray(lams, float)), 1e-30)[:, None]
    x, rho = 0.5 * (1.0 - c), np.arccosh(c)
    ax, aq = np.abs(x), np.exp(-2.0 * rho.real)
    arc = 2.0 * np.arcsin(np.sqrt(np.minimum(ax, 1.0))) - np.abs(rho.imag)
    hyper = (ax < 1) & (mu * arc <= _LOSS_NATS) & ((ax <= aq) | (aq >= 1))
    if not np.all(hyper | (aq < 1)):
        raise ValueError("invariant c on the cut c <= -1")
    out = np.empty((mu.size, c.size), dtype=complex)

    cols = hyper.any(axis=0)
    if cols.any():
        need = (math.pi * mu + _TAIL_NATS) / -np.log(ax[cols] + 1e-300)
        k = np.arange(1, math.ceil(need[hyper[:, cols]].max()) + 1)
        t = np.cumprod(np.hstack([np.ones_like(mu),
                                  (np.hypot(k - 0.5, mu) / k) ** 2]), axis=1)
        out[:, cols] = _power_series(t, x[cols])

    cols = ~hyper.all(axis=0)
    if cols.any():
        rho = rho[cols]
        j = np.arange(1, math.ceil(_TAIL_NATS / -math.log(aq[cols].max())) + 1)
        mod = np.cumprod(np.hstack([np.ones_like(mu), (j - 0.5) / j * np.hypot(
            j - 0.5, mu) / np.hypot(j, mu)]), axis=1)
        d = j * (2 * j - 1) + 2 * mu ** 2   # arg(a_k/a_{k-1}) = -atan(mu/d)
        phase = (_arg_gamma_over_mu(1.0, mu) - _arg_gamma_over_mu(0.5, mu)
                 - np.cumsum(np.hstack([np.zeros_like(mu),
                                        np.arctan(mu / d) / mu]), axis=1))
        q = np.exp(-2.0 * rho)
        u = _power_series(mod * np.cos(mu * phase), q)
        v = _power_series(mod * np.sin(mu * phase) / mu, q)
        gmod = np.sqrt(mu / np.tanh(math.pi * mu) / math.pi)
        hc = 2.0 * gmod * np.exp(-0.5 * rho) * (np.sin(mu * rho) / mu * u
                                               + np.cos(mu * rho) * v)
        out[:, cols] = np.where(hyper[:, cols], out[:, cols], hc)
    return out


def phi_radial_matrix(lams: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """phi_lam(a_{e^{r/2}} x0) = P_nu(cosh r), lams by radii."""
    return _legendre(lams, np.cosh(np.asarray(radii, dtype=float)))


# -- transform, Parseval, calibration ----------------------------------------

def spherical_transform(f_radial) -> SpectralDensity:
    """Transform of a radial function given as a vectorized callable of the
    geodesic radius: F f(lam) = 2 pi Int f(r) phi_lam(r) sinh(r) dr, on the
    grid's lam nodes."""
    grid = spectral_grid()
    r = grid.r_nodes
    fr = np.asarray(f_radial(r), dtype=complex)
    if not np.all(np.isfinite(fr)):
        raise ValueError("radial profile produced non-finite samples")
    vals = TWO_PI * grid.phi @ (grid.r_weights * fr * np.sinh(r))
    return SpectralDensity(grid.lam_nodes, vals)


def radial_l2_mass(f_radial) -> float:
    """Int_X |f|^2 = 2 pi Int |f(r)|^2 sinh(r) dr for radial f."""
    grid = spectral_grid()
    r = grid.r_nodes
    fr = np.asarray(f_radial(r), dtype=complex)
    return float(TWO_PI * np.sum(grid.r_weights * np.abs(fr) ** 2
                                 * np.sinh(r)))


@dataclass(frozen=True)
class PlancherelWeight:
    """Tempered weight lam*tanh(pi lam/2) (or the tanh(pi lam) variant)
    times one calibrated constant."""

    calibration_constant: float
    form: str = "lambda_tanh_half"

    def density(self, lam):
        lam = np.asarray(lam, dtype=float)
        half = 0.5 if self.form == "lambda_tanh_half" else 1.0
        return self.calibration_constant * lam * np.tanh(math.pi * lam * half)


def _spectral_mass(density_values: np.ndarray, lam_nodes, lam_weights,
                   weight: PlancherelWeight) -> float:
    return float(np.sum(lam_weights * np.abs(density_values) ** 2
                        * weight.density(lam_nodes)))


def calibrate_parseval(reference_width: float = 1.0,
                       form: str = "lambda_tanh_half") -> PlancherelWeight:
    """Fix the overall Plancherel constant on a reference radial Gaussian.

    The constant is the ratio of the direct X-side mass to the raw
    spectral mass; Parseval then holds by construction on the reference
    and is validated on held-out profiles by `parseval_check`.
    """
    f_ref = lambda r: np.exp(-0.5 * (r / reference_width) ** 2)
    grid = spectral_grid()
    lhs = radial_l2_mass(f_ref)
    dens = spherical_transform(f_ref)
    raw = _spectral_mass(dens.values, grid.lam_nodes, grid.lam_weights,
                         PlancherelWeight(1.0, form))
    return PlancherelWeight(lhs / raw, form)


def parseval_check(f_radial, weight: PlancherelWeight | None = None
                   ) -> IdentityCheck:
    """Direct X-side mass of a radial function against its spectral mass."""
    grid = spectral_grid()
    if weight is None:
        weight = grid.weight
    lhs = radial_l2_mass(f_radial)
    dens = spherical_transform(f_radial)
    rhs = _spectral_mass(dens.values, grid.lam_nodes, grid.lam_weights,
                         weight)
    return IdentityCheck(lhs, rhs)


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


# -- matrix coefficients of continued spherical vectors ---------------------

def _frame(ginv, r: float):
    """The frame (P, r) of pi(g) Psi_r = kappa_r P^{-(1 - i lam)/2}, Psi_r
    the spherical vector continued to torus angle r, kappa_r = e^{(-1 + i
    lam) i r} / sqrt(pi) and P its quadratic 1 + e^{-4ir} x^2 pulled by the
    real ginv = g^{-1}.  Im P <= 0, so the principal logarithm is the
    continuation from the real group and cannot alias."""
    return pull_quadratic((1.0, 0.0, np.exp(-4j * r)), ginv), r


def _pairing(lams: np.ndarray, f1, f2) -> np.ndarray:
    """<pi(g1) Psi_r1, pi(g2) Psi_r2> for all lams, frames f1 = (P1, r1)
    and f2 = (P2, r2), from one lam-by-x exponential of the integrand
    kappa_r1 conj(kappa_r2) exp(A0(x) + lam A1(x)).  The x-grid has octave
    panels and geometric clusters around the complex roots of each P out to
    the reach, 2048 times the largest root modulus (at least 1; at 256 the
    closed-form 1/x^2 tail beyond it put the doubled torus values 5e-7 off
    their norm oracle).  Swapping f1 and f2 conjugates the result."""
    (p1, r1), (p2, r2) = f1, f2
    roots = np.concatenate([polyroots(p1), polyroots(p2)])
    reach = 2048.0 * max([1.0] + [abs(rt) for rt in roots])
    edges = {-reach, reach, -1.0, 1.0, 0.0}
    base = 0.125
    while base < reach:
        edges.update((-base, base))
        base *= 2.0
    for rt in roots:
        width = max(abs(rt.imag), 1e-9)
        stop = min(reach, 8.0 * max(abs(rt.real), 1.0))
        offs = [width * 2.0 ** k for k in range(48) if width * 2.0 ** k < stop]
        edges.update(rt.real + o for o in (0.0, *offs, *(-o for o in offs)))
    xs, ws = gauss_legendre_grid(sorted(e for e in edges if abs(e) <= reach),
                                 16)

    half_log1 = 0.5 * np.log(polyval(xs, p1))
    conj_half_log2 = np.conj(0.5 * np.log(polyval(xs, p2)))
    mat = np.multiply.outer(lams, 1j * (half_log1 - conj_half_log2))
    mat -= half_log1 + conj_half_log2
    np.exp(mat, out=mat)
    amp = 0.5 * (mat[:, -1] * xs[-1] ** 2 + mat[:, 0] * xs[0] ** 2)
    kappa = np.exp(-lams * (r1 + r2) - 1j * (r1 - r2)) / math.pi
    return kappa * (mat @ ws + 2.0 * amp / reach)


def phi_pairing_row(lams: np.ndarray, g: GroupElement, r: float
                    ) -> np.ndarray:
    """phi_lam(g exp(i r h) x0) for all lams: `_legendre` at the invariant
    of the point."""
    w = 1j * np.exp(2j * r)
    c = 0.5 * p_of_pair(PairPoint(w, -w).apply(g.m))
    return _legendre(lams, np.array([c]))[:, 0]


# -- the orbital identity ----------------------------------------------------

def _check_torus_angle(r: float) -> None:
    if not 0.0 <= r < OMEGA_RADIUS:
        raise DomainError(f"r = {r} outside [0, pi/4)")


def doubled_torus_values(lams: np.ndarray, r: float) -> np.ndarray:
    """phi_lam(exp(2 i r h) x0) for all lams at once.

    By the split pairing this equals ||Psi_r||^2, the matrix coefficient of
    the continued spherical vector with itself, on the grid clustered
    around the roots of 1 + w_r x^2 near +-1.
    """
    _check_torus_angle(r)
    lams = np.asarray(lams, dtype=float)
    if r == 0.0:
        return np.ones(lams.size)
    frame = _frame(np.eye(2), r)
    return _pairing(lams, frame, frame).real


def _adapted_lambda_quad(density: SpectralDensity, weight: PlancherelWeight):
    """GL rule concentrated where the weighted density actually lives."""
    grid = density.lambda_grid
    mass = np.abs(density.values) * np.maximum(weight.density(grid), 0.0)
    live = grid[mass > 1e-13 * max(mass.max(), 1e-300)]
    lo = float(live.min()) if live.size else 0.0
    hi = float(live.max()) if live.size else grid[-1]
    lo = max(0.0, lo - 0.25)
    hi = min(float(grid[-1]), hi + 0.25)
    edges = np.linspace(lo, hi, 5)
    return gauss_legendre_grid(edges, 16)


#: the orbital mass drops the radial tail of |f|^2 beyond this fraction, and
#: its theta rule doubles until the mass changes by less than this fraction
RHO_TAIL_TOL = 1e-7


@dataclass(frozen=True)
class OrbitQuadrature:
    """The grids of one orbital mass: lam nodes with the inverse-transform
    coefficients of f, and the rho rule of the Cartan coordinates, cut at
    rho_max, which drops the fraction tail_fraction of the radial mass of
    |f|^2; once integrated, the final node count of the theta trapezoid
    and the change of the mass at its last doubling."""

    lam_nodes: np.ndarray
    coeff: np.ndarray
    rho_nodes: np.ndarray
    rho_weights: np.ndarray
    rho_max: float
    tail_fraction: float
    n_theta: int | None = None
    theta_error: float | None = None

    def summary(self) -> dict:
        return {"rho_max": self.rho_max, "tail_fraction": self.tail_fraction,
                "n_rho": self.rho_nodes.size, "n_lambda": self.lam_nodes.size,
                "n_theta": self.n_theta, "theta_error": self.theta_error}


def orbit_quadrature(density: SpectralDensity,
                     weight: PlancherelWeight | None = None,
                     rho_max: float | None = None) -> OrbitQuadrature:
    """The grids `orbital_mass` integrates on.

    The radial cut reads the profile f(r) = c Int d(lam) phi_lam(r) w(lam)
    d lam off the default phi matrix, which calibration has built, and
    ends the rho range one unit past the last radius at which the radial
    mass of |f|^2 still left beyond it exceeds RHO_TAIL_TOL of the total
    (rho_max = 8 for a zero profile).  An explicit rho_max overrides the
    cut; tail_fraction is the profile mass beyond rho_max either way.
    """
    grid = spectral_grid()
    if weight is None:
        weight = grid.weight
    nodes, lam_w = _adapted_lambda_quad(density, weight)
    coeff = lam_w * density(nodes) * weight.density(nodes)

    lams, r_nodes = grid.lam_nodes, grid.r_nodes
    prof = ((grid.lam_weights * density(lams) * weight.density(lams))
            @ grid.phi)
    prof = np.abs(prof) ** 2 * np.sinh(r_nodes) * grid.r_weights
    total = float(prof.sum())
    if rho_max is None:
        beyond = np.cumsum(prof[::-1])[::-1]
        keep = r_nodes[beyond > RHO_TAIL_TOL * total]
        rho_max = float(keep.max()) + 1.0 if keep.size else 8.0
    tail = float(prof[r_nodes > rho_max].sum()) / total if total > 0 else 0.0

    rho_nodes, rho_w = gauss_legendre_grid(
        np.linspace(0.0, rho_max, max(5, int(rho_max * 0.75))), 6)
    return OrbitQuadrature(nodes, coeff, rho_nodes, rho_w, rho_max, tail)


def _theta_sums(quad: OrbitQuadrature, r: float, n: int,
                offset: float) -> np.ndarray:
    """Per rho node, the sum of |f|^2 at a_{e^{rho/2}} k_theta exp(irh) x0
    over theta = (j + offset) pi/n, j < n, where the invariant is
    c = cosh(rho) cos 2r + i sinh(rho) sin 2r cos 2theta."""
    theta = (np.arange(n) + offset) * (math.pi / n)
    c = (np.cosh(quad.rho_nodes)[:, None] * math.cos(2 * r) + 1j * np.outer(
        np.sinh(quad.rho_nodes) * math.sin(2 * r), np.cos(2 * theta))).ravel()
    f = np.concatenate([quad.coeff @ _legendre(quad.lam_nodes, c[k:k + 1024])
                        for k in range(0, c.size, 1024)])
    return (np.abs(f) ** 2).reshape(-1, n).sum(axis=1)


def _integrate_orbit(quad: OrbitQuadrature, r: float
                     ) -> tuple[float, OrbitQuadrature]:
    """The orbital mass on quad's grids, and quad with its theta rule."""
    radial = TWO_PI * quad.rho_weights * np.sinh(quad.rho_nodes)
    n, sums = 24, _theta_sums(quad, r, 24, 0.0)
    mass, change = float(radial @ sums) / n, math.inf
    while change > RHO_TAIL_TOL * mass and n < 1536:
        sums += _theta_sums(quad, r, n, 0.5)
        n *= 2
        new = float(radial @ sums) / n
        mass, change = new, abs(new - mass)
    return mass, replace(quad, n_theta=n, theta_error=change)


def orbital_mass(density: SpectralDensity, r: float,
                 weight: PlancherelWeight | None = None,
                 rho_max: float | None = None) -> float:
    """Group integral of |f|^2 over the shifted orbit at torus angle r.

    f is synthesized from its spectral density by the inverse transform,
    f(z) = c Int d(lam) phi_lam(z) w(lam) d lam, and the group integral is
    taken in Cartan coordinates, dg = 2 pi dk1 x sinh(rho) d rho x dk2
    (unit-mass rotation factors; the constant is pinned by the r = 0
    radial reduction).  Left K-invariance of f removes dk1, so the sample
    points are a_{e^{rho/2}} k_theta exp(i r h) x0, and the spherical
    values there are `_legendre` at their invariant.  The theta trapezoid
    converges spectrally on this analytic pi-periodic integrand: it doubles
    from 24 nodes, up to 1536, until the mass moves by RHO_TAIL_TOL or less.

    The rho range drops RHO_TAIL_TOL = 1e-7 of the radial mass of |f|^2
    (`orbit_quadrature`).  No smaller tolerance, because the cut is read
    off the default grid, where the profile aliases e^{i lam r/2} at large
    r (|f| of the (3, 1) Gaussian rises from 5e-13 at r = 30 to 2e-11 at
    r = 35): at 1e-9 the rho range ran to 30-37 and integrated that noise.
    """
    _check_torus_angle(r)
    return _integrate_orbit(orbit_quadrature(density, weight, rho_max), r)[0]


@dataclass(frozen=True)
class GutzmerCheck(IdentityCheck):
    """The Gutzmer identity's two sides, with the grids of its lhs."""

    orbit: OrbitQuadrature


def gutzmer_check(density: SpectralDensity, r: float,
                  weight: PlancherelWeight | None = None) -> GutzmerCheck:
    """Orbital mass at torus angle r against the spectral integral weighted
    by the doubled torus value."""
    _check_torus_angle(r)
    if weight is None:
        weight = spectral_grid().weight
    lhs, orbit = _integrate_orbit(orbit_quadrature(density, weight), r)
    nodes = orbit.lam_nodes             # coeff conj(d) = lam_w |d|^2 w(lam)
    rhs = np.sum(orbit.coeff * np.conj(density(nodes))
                 * doubled_torus_values(nodes, r)).real
    return GutzmerCheck(lhs, float(rhs), orbit)


def strip_norm(density: SpectralDensity, big_r: float,
               weight: PlancherelWeight | None = None,
               n_r: int = 4) -> float:
    """sup over a grid of torus angles r < R of the orbital mass."""
    if not 0.0 < big_r <= OMEGA_RADIUS:
        raise DomainError("R must lie in (0, pi/4]")
    rs = np.linspace(0.0, min(big_r * 0.95, OMEGA_RADIUS - 1e-3), n_r)
    return max(orbital_mass(density, float(r), weight) for r in rs)


def eR_membership(density: SpectralDensity, big_r: float,
                  weight: PlancherelWeight | None = None) -> bool:
    """Finiteness of the spectral mass weighted by the doubled torus values
    up to angle R, decided from the decay tag plus a tail fit."""
    if not 0.0 < big_r <= OMEGA_RADIUS:
        raise DomainError("R must lie in (0, pi/4]")
    if weight is None:
        weight = spectral_grid().weight
    if density.decay_tag == "polynomial":
        return False
    if density.decay_tag == "exponential":
        rate = density.decay_rate
        if rate is None or rate <= big_r:
            return False
    # numeric confirmation: the integrand must decay on the grid tail
    nodes = spectral_grid().lam_nodes
    r_eff = min(big_r * 0.999, OMEGA_RADIUS - 1e-6)
    integrand = (np.abs(density(nodes)) ** 2 * doubled_torus_values(nodes, r_eff)
                 * np.maximum(weight.density(nodes), 1e-300))
    tail = nodes > 0.5 * nodes[-1]
    if np.count_nonzero(tail) < 4 or np.all(integrand[tail] < 1e-290):
        return True
    slope = np.polyfit(nodes[tail], np.log(integrand[tail] + 1e-300), 1)[0]
    return bool(slope < -1e-6)


# -- invariant kernels --------------------------------------------------------

@dataclass
class KernelMeasure:
    """Measure on the tempered ray defining an invariant kernel.

    Admissible when Int e^{c lam} d mu is finite for every c < 2; tested
    at c in {0.5, 1.0, 1.9} from the samples plus the decay tag.
    """

    density: SpectralDensity

    def admissible(self, c_values=(0.5, 1.0, 1.9)) -> bool:
        if self.density.decay_tag == "polynomial":
            return False
        nodes = self.density.lambda_grid
        vals = np.abs(self.density.values)
        if self.density.decay_tag == "exponential":
            rate = self.density.decay_rate
            if rate is None or rate <= max(c_values):
                return False
        for c in c_values:
            integrand = vals * np.exp(c * nodes)
            tail = nodes > 0.5 * nodes[-1]
            if np.count_nonzero(tail) >= 4 and integrand[tail].max() > 1e-280:
                slope = np.polyfit(nodes[tail],
                                   np.log(integrand[tail] + 1e-300), 1)[0]
                if slope >= 0:
                    return False
        return True


def _tangent_frame(z: PairPoint):
    """The frame of pi(z) v_K: z = g exp(i psi h) x0 gives pi(g) Psi_psi."""
    tb = point_to_tangent(z)
    return _frame(tb.g.inverse().m.real, abs(float(tb.y.c_h)))


def invariant_kernel(measure: KernelMeasure, z: PairPoint,
                     w: PairPoint) -> complex:
    """K(z, w) = Int <pi(z)v, pi(w)v> d mu(lam); Hermitian and G-invariant.

    Splitting z = g exp(i psi h) x0 makes pi(z)v_K = pi(g) Psi_psi, so every
    spectral slice is one matrix coefficient of two continued spherical
    vectors; a single pairing row over the lam nodes gives all of them, on
    the x-grid clustered around both vectors' near-singular points.
    """
    if not measure.admissible():
        raise AdmissibilityFailure("kernel measure fails the e^{c lam} test")
    nodes, lam_w = spectral_grid().lam_rule(KERNEL_LAM_MAX)
    row = _pairing(nodes, _tangent_frame(z), _tangent_frame(w))
    return complex(np.sum(lam_w * measure.density(nodes) * row))


def hardy_density() -> SpectralDensity:
    """lam tanh(pi lam/2)/cosh(pi lam) on the kernels' lam nodes (positive
    scale)."""
    grid = default_lambda_grid(KERNEL_LAM_MAX)
    vals = grid * np.tanh(0.5 * math.pi * grid) / np.cosh(math.pi * grid)
    return SpectralDensity(grid, vals, "exponential", decay_rate=math.pi)


def hardy_kernel(z: PairPoint, w: PairPoint) -> complex:
    """Reproducing kernel of the holomorphic Hardy space attached to the
    most-continuous spectrum of the hyperboloid, up to positive scale."""
    return invariant_kernel(KernelMeasure(hardy_density()), z, w)
