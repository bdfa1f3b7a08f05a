import math

import numpy as np
import pytest

from crownkit.crown import random_crown_point, random_real_element  # noqa: F401
from crownkit.pairmodel import PairPoint
from crownkit.vectors import RadialStep


@pytest.fixture
def rng():
    return np.random.default_rng(20090)


def log_uniform_crown_pairs(rng, n, lo, hi):
    """n crown pairs whose coordinates have moduli log-uniform in [lo, hi]
    and arguments uniform in their half planes; pairs within the diagonal
    tolerance are skipped."""
    pairs = []
    while len(pairs) < n:
        mod = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), 2)
        arg = rng.uniform(0.0, math.pi, 2)
        z1, z2 = mod * np.exp(1j * arg * np.array([1.0, -1.0]))
        if abs(z1 - z2) > 1e-13:
            pairs.append(PairPoint(complex(z1), complex(z2)))
    return pairs


def dyadic_phi(j):
    """The dyadic cutoff phi_j = phi(2^j .): 1 at |x| = 2^-j, 0 off
    (2^-j-1, 2^1-j)."""
    return RadialStep(2.0 ** (-j - 1), 2.0 ** -j, 2.0 ** -j, 2.0 ** (1 - j))


def dyadic_tau(m):
    """The inner cutoff tau_m = psi(2^(m+1) .): 1 on |x| <= 2^-m-1, 0 beyond
    2^-m."""
    return RadialStep(0.0, 0.0, 2.0 ** (-m - 1), 2.0 ** -m)
