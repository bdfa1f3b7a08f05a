"""Spherical transform on radial functions, orbital identities, and
invariant reproducing kernels on the crown.

Conventions.  The hyperbolic area element is dx dy / y^2; the geodesic
radius r relates to the torus by a_t x0 at distance r = 2 log t, so radial
integrals carry the factor 2 pi sinh(r).  The transform of a radial f is
    F f(lam) = 2 pi Int f(r) phi_lam(r) sinh(r) dr,
with the spherical function phi evaluated by its rotation-average.  The
tempered weight is lam * tanh(pi lam / 2) d lam up to one overall
constant, which is not normalized here but calibrated once against a
direct Parseval computation on a reference Gaussian and then validated on
held-out profiles.  (Written with tanh(pi lam), no constant fits two
different reference widths at once; the calibration harness reports this.)

The orbital identity moves the group integral of |f|^2 over a shifted
copy of X inside the crown to the spectral side, weighted by the doubled
torus value phi_lam(exp(2ir h)), the positive quantity supplied by the
split pairing of half-continued vectors.  Together with admissible
measures on the tempered ray this yields invariant reproducing kernels,
of which the one weighted by lam tanh(pi lam/2)/cosh(pi lam) is the
Hardy-space kernel of the most-continuous spectrum of the hyperboloid.

Off the real form, the pairing rows, the doubled torus values and the
kernel slices are all matrix coefficients <pi(g1) Psi_r1, pi(g2) Psi_r2>
of continued spherical vectors, computed by one pairing for all lam at
once on an x-grid clustered around the roots of the pulled quadratics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .crown import point_to_tangent
from .errors import AdmissibilityFailure, DomainError
from .liecore import OMEGA_RADIUS, GroupElement
from .numerics import IdentityCheck, gauss_legendre_grid
from .pairmodel import PairPoint

TWO_PI = 2.0 * math.pi


# -- lambda grids ------------------------------------------------------------

@lru_cache(maxsize=8)
def _lambda_quad(lam_max: float = 32.0, n_per_panel: int = 40):
    """Graded Gauss-Legendre grid for spectral integrals; dense near 0 where
    the tempered weight vanishes linearly."""
    edges = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    edges = [e for e in edges if e < lam_max] + [lam_max]
    return gauss_legendre_grid(edges, n_per_panel)


def default_lambda_grid(lam_max: float = 32.0) -> np.ndarray:
    return _lambda_quad(lam_max)[0]


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


def gaussian_density(center: float, width: float,
                     lam_max: float = 32.0) -> SpectralDensity:
    """Smooth test density exp(-(lam-center)^2 / (2 width^2))."""
    grid = default_lambda_grid(lam_max)
    vals = np.exp(-0.5 * ((grid - center) / width) ** 2)
    return SpectralDensity(grid, vals, "super-exponential")


# -- spherical function on grids ---------------------------------------------

def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


@lru_cache(maxsize=4)
def _log_tau_grid(v_min: float = -16.0, v_max: float = 54.0,
                  nodes_per_unit: int = 16):
    edges = list(np.arange(v_min, v_max, 2.0)) + [v_max]
    return gauss_legendre_grid(edges, 2 * nodes_per_unit)


def phi_radial_matrix(lams: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """phi_lam(a_{e^{r/2}} x0) as a (len(lams), len(radii)) matrix.

    The rotation average of the horospherical character reduces, by the
    half-angle substitution tau = tan(theta/2) = e^v, to
        phi(r) = (2/pi) e^{r(s-1)} Int (1 + e^{2(v-r)})^{s-1}
                                        (1 + e^{2v})^{-s} e^v dv,
    s = (1 + i lam)/2.  The bases are strictly positive, so the evaluation
    is branch-free and uniformly accurate in r; the integrand decays like
    e^{-|v|} off the plateau [0, r], whose ends are completed in closed
    form.
    """
    lams = np.asarray(lams, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if radii.size and radii.max() > 36.0:
        raise ValueError("radial grid exceeds the supported range r <= 36")
    v, wv = _log_tau_grid()
    out = np.empty((lams.size, radii.size), dtype=complex)
    s_all = 0.5 * (1.0 + 1j * lams)
    sp2v = _softplus(2.0 * v)
    for j, r in enumerate(radii):
        sp_shift = _softplus(2.0 * (v - r))
        expo = ((s_all[:, None] - 1.0) * sp_shift[None, :]
                - s_all[:, None] * sp2v[None, :] + v[None, :])
        core = np.exp(expo) @ wv
        tails = (math.exp(v[0])                                   # left end
                 + np.exp(-2.0 * r * (s_all - 1.0) - v[-1]))      # right end
        out[:, j] = (2.0 / math.pi) * np.exp(r * (s_all - 1.0)) * (core + tails)
    return out


# -- transform, Parseval, calibration ----------------------------------------

@lru_cache(maxsize=1)
def _radial_quad():
    """Graded Gauss-Legendre rule on the radial range [0, 36]."""
    return gauss_legendre_grid([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 36.0], 48)


@lru_cache(maxsize=1)
def _default_phi_matrix():
    """phi on the default lam grid by the radial grid, built once."""
    return phi_radial_matrix(_lambda_quad()[0], _radial_quad()[0])


def spherical_transform(f_radial, lam_grid: np.ndarray | None = None,
                        decay_tag: str = "super-exponential"
                        ) -> SpectralDensity:
    """Transform of a radial function given as a vectorized callable of the
    geodesic radius: F f(lam) = 2 pi Int f(r) phi_lam(r) sinh(r) dr."""
    r, w = _radial_quad()
    fr = np.asarray(f_radial(r), dtype=complex)
    if not np.all(np.isfinite(fr)):
        raise ValueError("radial profile produced non-finite samples")
    default_nodes = default_lambda_grid()
    if lam_grid is None or (np.asarray(lam_grid).shape == default_nodes.shape
                            and np.allclose(lam_grid, default_nodes)):
        lam_grid = default_nodes
        phi = _default_phi_matrix()
    else:
        phi = phi_radial_matrix(np.asarray(lam_grid, dtype=float), r)
    vals = TWO_PI * phi @ (w * fr * np.sinh(r))
    return SpectralDensity(np.asarray(lam_grid, dtype=float), vals, decay_tag)


def radial_l2_mass(f_radial) -> float:
    """Int_X |f|^2 = 2 pi Int |f(r)|^2 sinh(r) dr for radial f."""
    r, w = _radial_quad()
    fr = np.asarray(f_radial(r), dtype=complex)
    return float(TWO_PI * np.sum(w * np.abs(fr) ** 2 * np.sinh(r)))


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
    lhs = radial_l2_mass(f_ref)
    nodes, weights = _lambda_quad()
    dens = spherical_transform(f_ref, nodes)
    raw = _spectral_mass(dens.values, nodes, weights,
                         PlancherelWeight(1.0, form))
    return PlancherelWeight(lhs / raw, form)


@lru_cache(maxsize=1)
def calibrated_weight() -> PlancherelWeight:
    """The Plancherel weight calibrated once per process."""
    return calibrate_parseval()


def parseval_check(f_radial, weight: PlancherelWeight | None = None
                   ) -> IdentityCheck:
    """Direct X-side mass of a radial function against its spectral mass."""
    if weight is None:
        weight = calibrated_weight()
    lhs = radial_l2_mass(f_radial)
    nodes, weights = _lambda_quad()
    dens = spherical_transform(f_radial, nodes)
    rhs = _spectral_mass(dens.values, nodes, weights, weight)
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

def _psi_factor(r: float) -> complex:
    """w in the quadratic 1 + w x^2 of Psi_r, the spherical vector
    continued to torus angle r."""
    if r > 0:
        return np.exp(-1j * (math.pi - 4.0 * (OMEGA_RADIUS - r)))
    return 1.0 + 0.0j


#: a frame (g^{-1} entries (a, b, c, d), r) stands for the vector
#: pi(g) Psi_r; this one is v_K itself
_V_K = ((1.0, 0.0, 0.0, 1.0), 0.0)


def _frame_logs(frame, xs: np.ndarray):
    """B0, B1 with pi(g) Psi_r = kappa_r exp(B0 + lam B1) on the nodes xs,
    kappa_r = e^{(-1 + i lam) i r} / sqrt(pi).

    The vector is kappa_r |u|^{-1 + i lam} q^{-(1 - i lam)/2}, u = c x + d,
    q = 1 + w_r ((a x + b)/u)^2; Im q <= 0, so the principal logarithm is
    the continuation from the real group and cannot alias.
    """
    (a, b, c, d), r = frame
    u = c * xs + d
    m = (a * xs + b) / u
    log_u = np.log(np.abs(u))
    half_log_q = 0.5 * np.log(1.0 + _psi_factor(r) * m * m)
    return -log_u - half_log_q, 1j * (log_u + half_log_q)


def _pairing_row(lams: np.ndarray, f1, f2, xs: np.ndarray, ws: np.ndarray,
                 reach: float) -> np.ndarray:
    """<pi(g1) Psi_r1, pi(g2) Psi_r2> for all lams on one x-grid (xs, ws)
    ending at +-reach, for the frames f1 = (g1^{-1}, r1), f2 = (g2^{-1}, r2).

    The integrand is kappa_r1 conj(kappa_r2) exp(A0(x) + lam A1(x)), so one
    lam-by-x exponential, built and exponentiated in place, serves every
    spectral node; beyond the reach it decays like 1/x^2, and that tail is
    added in closed form.
    """
    b0, b1 = _frame_logs(f1, xs)
    c0, c1 = _frame_logs(f2, xs)
    mat = np.multiply.outer(lams, b1 + np.conj(c1))
    mat += b0 + np.conj(c0)
    np.exp(mat, out=mat)
    amp = 0.5 * (mat[:, -1] * xs[-1] ** 2 + mat[:, 0] * xs[0] ** 2)
    (_, r1), (_, r2) = f1, f2
    kappa = np.exp(-lams * (r1 + r2) - 1j * (r1 - r2)) / math.pi
    return kappa * (mat @ ws + 2.0 * amp / reach)


def _pairing(lams: np.ndarray, f1, f2) -> np.ndarray:
    """`_pairing_row` on a grid built from the unordered pair of frames.

    Panel edges are octaves out to the reach, geometric clusters around
    the complex roots of each pulled quadratic (c x + d)^2 + w_r (a x + b)^2,
    which carry the only near-singular structure, and each Mobius pole
    -d/c.  The reach is 2048 times the largest root modulus (at least 1):
    at 256 times, the closed-form 1/x^2 tail alone put the doubled torus
    values 5e-7 off their norm oracle.  Swapping f1 and f2 gives the same
    grid, so the result conjugates to rounding.
    """
    roots, poles = [], []
    for (a, b, c, d), r in (f1, f2):
        w_r = _psi_factor(r)
        roots.extend(np.roots([c * c + w_r * a * a,
                               2.0 * (c * d + w_r * a * b),
                               d * d + w_r * b * b]))
        if abs(c) > 1e-300:
            poles.append(-d / c)
    reach = 2048.0 * max([1.0] + [abs(rt) for rt in roots])
    edges = {-reach, reach, -1.0, 1.0, 0.0, *poles}
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
    return _pairing_row(lams, f1, f2, xs, ws, reach)


def phi_pairing_row(lams: np.ndarray, g: GroupElement, r: float
                    ) -> np.ndarray:
    """phi_lam(g exp(i r h) x0) for all lams, by the matrix-coefficient
    pairing <pi(g) Psi_r, v_K> with Psi_r the continued spherical vector."""
    frame = tuple(g.inverse().m.real.ravel()), r
    return _pairing(np.asarray(lams, dtype=float), frame, _V_K)


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
    frame = (_V_K[0], r)
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


def _orbit_row_mass(nodes, coeff, s: float, r: float, thetas,
                    theta_w) -> float:
    """Theta-average of |f|^2 over a_s k_theta exp(irh) x0, vectorized.

    One geometric x-grid serves the whole rotation orbit: the pulled
    quadratic's complex roots sit at |x| ~ s^2 with imaginary parts a
    fixed fraction of their modulus, so per-octave panels of 8 nodes
    resolve them uniformly in s.
    """
    reach = 64.0 * max(1.0, s * s)
    edges = [0.0]
    e = 1.0 / 16.0
    while e < reach:
        edges.append(e)
        e *= 2.0
    edges.append(reach)
    half_x, half_w = gauss_legendre_grid(edges, 8)
    xs = np.concatenate([-half_x[::-1], half_x])
    ws = np.concatenate([half_w[::-1], half_w])

    total = 0.0
    for th, wt in zip(thetas, theta_w):
        ct, st = math.cos(th), math.sin(th)
        # inverse of a_s k_theta
        ginv = (ct / s, -s * st, st / s, s * ct)
        phi_vals = _pairing_row(nodes, (ginv, r), _V_K, xs, ws, reach)
        total += wt * abs(np.sum(coeff * phi_vals)) ** 2
    return total


#: the orbital mass drops the radial tail of |f|^2 beyond this fraction
RHO_TAIL_TOL = 1e-7


@dataclass(frozen=True)
class OrbitQuadrature:
    """The grids of one orbital mass: lam nodes with the inverse-transform
    coefficients of f, and the rho and theta rules of the Cartan
    coordinates, truncated at rho_max, which drops the fraction
    tail_fraction of the radial mass of |f|^2."""

    lam_nodes: np.ndarray
    coeff: np.ndarray
    rho_nodes: np.ndarray
    rho_weights: np.ndarray
    theta_nodes: np.ndarray
    theta_weights: np.ndarray
    rho_max: float
    tail_fraction: float

    def summary(self) -> dict:
        return {"rho_max": self.rho_max, "tail_fraction": self.tail_fraction,
                "n_rho": self.rho_nodes.size, "n_theta": self.theta_nodes.size,
                "n_lambda": self.lam_nodes.size}


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
    if weight is None:
        weight = calibrated_weight()
    nodes, lam_w = _adapted_lambda_quad(density, weight)
    coeff = lam_w * density(nodes) * weight.density(nodes)

    grid, grid_w = _lambda_quad()
    r_nodes, r_w = _radial_quad()
    prof = ((grid_w * density(grid) * weight.density(grid))
            @ _default_phi_matrix())
    prof = np.abs(prof) ** 2 * np.sinh(r_nodes) * r_w
    total = float(prof.sum())
    if rho_max is None:
        beyond = np.cumsum(prof[::-1])[::-1]
        keep = r_nodes[beyond > RHO_TAIL_TOL * total]
        rho_max = float(keep.max()) + 1.0 if keep.size else 8.0
    tail = float(prof[r_nodes > rho_max].sum()) / total if total > 0 else 0.0

    rho_nodes, rho_w = gauss_legendre_grid(
        np.linspace(0.0, rho_max, max(5, int(rho_max * 0.75))), 6)
    theta_nodes, theta_w = gauss_legendre_grid(
        np.linspace(0.0, math.pi, 7), 4)
    return OrbitQuadrature(nodes, coeff, rho_nodes, rho_w, theta_nodes,
                           theta_w, rho_max, tail)


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
    values come from the alias-free matrix-coefficient pairing on 8
    Gauss-Legendre x-nodes per octave (12 moved the mass by at most 8.4e-9
    relative on four test densities).

    The rho range ends where the radial mass of |f|^2 left beyond it is at
    most RHO_TAIL_TOL = 1e-7 of the total (`orbit_quadrature`), below
    every Gutzmer gap measured (2.9e-7 and up).  The cut is read off the
    default grid, and the tolerance is not smaller, because of noise: on
    the 64-node adapted lam rule the profile aliases e^{i lam r/2} at
    large r (|f| of the (3, 1) Gaussian rises from 5e-13 at r = 30 to
    2e-11 at r = 35, while phi_lam decays like e^{-r/2}), and a 1e-9
    tolerance lies below that floor: it ran the rho range to 30-37 for
    every density tried and integrated the noise, at a cost in both time
    and accuracy.
    """
    _check_torus_angle(r)
    quad = orbit_quadrature(density, weight, rho_max)
    total = 0.0
    for rho, wr in zip(quad.rho_nodes, quad.rho_weights):
        s = math.exp(0.5 * rho)
        row = _orbit_row_mass(quad.lam_nodes, quad.coeff, s, r,
                              quad.theta_nodes, quad.theta_weights)
        total += wr * math.sinh(rho) * row / math.pi
    return TWO_PI * total


def gutzmer_check(density: SpectralDensity, r: float,
                  weight: PlancherelWeight | None = None) -> IdentityCheck:
    """Orbital mass at torus angle r against the spectral integral weighted
    by the doubled torus value."""
    _check_torus_angle(r)
    if weight is None:
        weight = calibrated_weight()
    lhs = orbital_mass(density, r, weight)
    nodes, lam_w = _adapted_lambda_quad(density, weight)
    dvals = density(nodes)
    doubled = doubled_torus_values(nodes, r)
    rhs = float(np.sum(lam_w * np.abs(dvals) ** 2 * doubled
                       * weight.density(nodes)))
    return IdentityCheck(lhs, rhs)


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
        weight = calibrated_weight()
    if density.decay_tag == "polynomial":
        return False
    if density.decay_tag == "exponential":
        rate = density.decay_rate
        if rate is None or rate <= big_r:
            return False
    # numeric confirmation: the integrand must decay on the grid tail
    nodes, _ = _lambda_quad()
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
    return tuple(tb.g.inverse().m.real.ravel()), abs(float(tb.y.c_h))


def invariant_kernel(measure: KernelMeasure, z: PairPoint, w: PairPoint,
                     lam_max: float = 16.0) -> complex:
    """K(z, w) = Int <pi(z)v, pi(w)v> d mu(lam); Hermitian and G-invariant.

    Splitting z = g exp(i psi h) x0 makes pi(z)v_K = pi(g) Psi_psi, so every
    spectral slice is one matrix coefficient of two continued spherical
    vectors; a single pairing row over the lam nodes gives all of them, on
    the x-grid clustered around both vectors' near-singular points.
    """
    if not measure.admissible():
        raise AdmissibilityFailure("kernel measure fails the e^{c lam} test")
    nodes, lam_w = _lambda_quad(lam_max)
    row = _pairing(nodes, _tangent_frame(z), _tangent_frame(w))
    return complex(np.sum(lam_w * measure.density(nodes) * row))


def hardy_density(lam_max: float = 16.0) -> SpectralDensity:
    """lam tanh(pi lam/2)/cosh(pi lam) on the default grid (positive scale)."""
    grid = default_lambda_grid(lam_max)
    vals = grid * np.tanh(0.5 * math.pi * grid) / np.cosh(math.pi * grid)
    return SpectralDensity(grid, vals, "exponential", decay_rate=math.pi)


def hardy_kernel(z: PairPoint, w: PairPoint) -> complex:
    """Reproducing kernel of the holomorphic Hardy space attached to the
    most-continuous spectrum of the hyperboloid, up to positive scale."""
    return invariant_kernel(KernelMeasure(hardy_density()), z, w)


# -- Poisson-kernel polarization ----------------------------------------------

def poisson_kernel(z: complex, w: complex) -> complex:
    """Polarized Poisson kernel (z - w)/(2 pi i z w); restricted to the
    totally real slice w = conj(z) it is the classical Im z / (pi |z|^2)."""
    return (z - w) / (2j * math.pi * z * w)


def poisson_extension(boundary_values, mu: complex, z: complex, w: complex,
                      x_max: float = 60.0) -> complex:
    """Formula-level eigenfunction extension: Int phi_R(x) P(z-x, w-x)^mu dx.

    `boundary_values` is a vectorized callable with decay; powers use the
    principal branch, which is the continuous one while (z, w) stays in
    the crown component of the polarized kernel's positivity set.
    """
    xs, ws = gauss_legendre_grid(
        [-x_max, -8.0, -2.0, 0.0, 2.0, 8.0, x_max], 64)
    kernel = np.asarray([(poisson_kernel(z - x, w - x)) for x in xs],
                        dtype=complex)
    vals = np.exp(mu * np.log(kernel)) * boundary_values(xs)
    return complex(np.sum(ws * vals))
