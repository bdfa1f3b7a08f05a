"""Seeded case lists for the three benchmark workloads.

A run executes whole rounds.  A round is a fixed sequence of case kinds,
the stated case mix, and only the numeric arguments come from the seed.
Every argument is drawn by stratified sampling: the j-th of the n cases of
a kind in a round falls in stratum perm(j) of n equal strata of its range,
at a seeded offset inside the stratum.  Each round thus covers every range
evenly, so rounds of different seeds cost about the same and meet the same
failure regions of the program; iid draws would make both depend on luck.

The ranges are the ones the README and the acceptance suite use.  The
module uses the standard library only, so the lists are byte-identical for
one seed on every platform.
"""

from __future__ import annotations

import math
import random
from statistics import NormalDist

QUARTER_PI = math.pi / 4.0
_NORMAL = NormalDist()

# one round of each workload, in execution order
# The counts put case_p50_s and case_tail_s inside one large class of
# similar cases (AC8 rows at k=1; invariance pairs), not on a boundary
# between classes of very different cost.
REPN_ROUND = (["row1", "doubling", "row1", "norm_growth", "row2", "row1",
               "h_limit", "row1"] * 3
              + ["row1", "row1", "row2", "row1", "h_limit", "row1"])
SPECTRAL_ROUND = (["gutzmer"]
                  + ["invariance", "invariance", "parseval", "invariance",
                     "invariance", "gram", "invariance", "invariance",
                     "parseval", "invariance", "invariance"] * 2)
CLI_ROUND = ["crown-check", "transform", "param-elliptic", "match",
             "doubling", "boundary", "invariant-bound", "quadric", "aproj",
             "gutzmer", "convexity", "phi", "trace-domain", "hardy-gram",
             "escape", "norm-growth", "param-unipotent", "parseval",
             "dpi-check", "hardy-point", "sobolev", "kernel", "maass",
             "maass-violator"]

ROUNDS = {"repn_sobolev": REPN_ROUND,
          "spectral_orbital": SPECTRAL_ROUND,
          "cli_cold": CLI_ROUND}

#: command family of each cli_cold case kind, for the per-family timings
CLI_FAMILY = {
    **{k: "geometry" for k in ("crown-check", "param-elliptic",
                               "param-unipotent", "match", "boundary",
                               "quadric", "aproj", "convexity",
                               "trace-domain", "escape")},
    **{k: "repn" for k in ("phi", "doubling", "norm-growth", "dpi-check",
                           "sobolev", "invariant-bound")},
    **{k: "spectral" for k in ("transform", "parseval", "gutzmer",
                               "hardy-gram", "hardy-point", "kernel")},
    "maass": "maass", "maass-violator": "maass",
}


class _Strata:
    """Stratified uniforms: draw(name, j, n) lies in stratum perm(j) of n.

    Each parameter name gets its own permutation j -> (a*j + b) mod n with
    a coprime to n, so parameters of one case are not sorted together.
    Mirrored strata s and n-1-s take antithetic offsets u and 1-u, so a
    round's values of each parameter are symmetric about the middle of its
    range; costs that rise or fall with a parameter then vary less from
    seed to seed, while every single draw stays uniform on its stratum.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.salt = {}
        self.offsets = {}

    def draw(self, name: str, j: int, n: int) -> float:
        if name not in self.salt:
            self.salt[name] = len(self.salt)
        s = self.salt[name]
        mult = next(a for a in (1 + 2 * s, 3 + 2 * s, 5 + 2 * s, 1)
                    if math.gcd(a, n) == 1)
        stratum = (mult * j + s) % n
        mirror = n - 1 - stratum
        key = (name, min(stratum, mirror))
        if key not in self.offsets:
            self.offsets[key] = self.rng.random()
        u = self.offsets[key]
        return (stratum + (1.0 - u if stratum > mirror else u)) / n


def _uniform(u, lo, hi):
    return lo + (hi - lo) * u


def _log_uniform(u, lo, hi):
    return 10.0 ** _uniform(u, math.log10(lo), math.log10(hi))


def _real_element(st, tag, j, n, scale):
    """(theta, t, x) of k_theta a_t n_x, the acceptance suite's sampler."""
    return {"theta": _uniform(st.draw(tag + ".theta", j, n), 0.0, math.pi),
            "t": math.exp(scale * _NORMAL.inv_cdf(st.draw(tag + ".t", j, n))),
            "x": scale * _NORMAL.inv_cdf(st.draw(tag + ".x", j, n))}


def _crown_point(st, tag, j, n, scale):
    """A real element and an elliptic angle in (-0.85, 0.85) pi/4."""
    point = _real_element(st, tag, j, n, scale)
    point["phi"] = _uniform(st.draw(tag + ".phi", j, n), -0.85, 0.85) \
        * QUARTER_PI
    return point


def _repn_args(kind, st, j, n):
    lam = _uniform(st.draw(kind + ".lam", j, n), 0.25, 2.5)
    if kind in ("row1", "row2"):
        return {"lam": lam, "k": 1 if kind == "row1" else 2,
                "eps": _log_uniform(st.draw(kind + ".eps", j, n),
                                    1e-6, 1e-2)}
    if kind == "norm_growth":
        # three eps, one from each third of the log range, decreasing
        eps = [_log_uniform((i + st.draw(f"ng.eps{i}", j, n)) / 3.0,
                            1e-2, 1e-6) for i in range(3)]
        return {"lam": lam, "eps": eps}
    if kind == "doubling":
        return {"lam": lam,
                "t": _uniform(st.draw("dbl.t", j, n), 1.0, 4.0),
                "phi": _uniform(st.draw("dbl.phi", j, n), math.pi / 32.0,
                                math.pi / 8.0)}
    if kind == "h_limit":
        return {"lam": lam, "psi": j % 2, "eps": [1e-1, 1e-2, 1e-3]}
    raise ValueError(f"unknown repn case kind {kind!r}")


def _spectral_args(kind, st, j, n):
    if kind == "gutzmer":
        return {"center": _uniform(st.draw("gz.center", j, n), 1.0, 3.0),
                "width": _uniform(st.draw("gz.width", j, n), 0.5, 1.0),
                "r": _uniform(st.draw("gz.r", j, n), 0.1, 0.8) * QUARTER_PI}
    if kind == "parseval":
        return {"width": _uniform(st.draw("pv.width", j, n), 0.5, 1.5),
                "transform_width": _uniform(st.draw("pv.tw", j, n), 0.5,
                                            1.5)}
    if kind == "gram":
        return {"points": [_crown_point(st, f"gram{i}", j, n, 0.6)
                           for i in range(3)]}
    if kind == "invariance":
        return {"z": _crown_point(st, "inv.z", j, n, 0.5),
                "w": _crown_point(st, "inv.w", j, n, 0.5),
                "g": _real_element(st, "inv.g", j, n, 0.5)}
    raise ValueError(f"unknown spectral case kind {kind!r}")


def _cli_args(kind, st, j, n):
    def u(name):
        return st.draw(kind + "." + name, j, n)

    lam = _uniform(u("lam"), 0.25, 2.5)
    if kind in ("crown-check", "quadric", "aproj", "phi", "trace-domain",
                "hardy-point"):
        return {"point": _crown_point(st, kind, j, n, 0.8), "lam": lam}
    if kind == "boundary":
        return {"g": _real_element(st, kind, j, n, 0.8)}
    if kind == "param-elliptic":
        return {"phi": _uniform(u("phi"), -0.85, 0.85) * QUARTER_PI,
                "t": math.exp(0.5 * _NORMAL.inv_cdf(u("t"))),
                "x_shift": 0.5 * _NORMAL.inv_cdf(u("xs"))}
    if kind == "param-unipotent":
        return {"x": _uniform(u("x"), -0.9, 0.9),
                "t": math.exp(0.5 * _NORMAL.inv_cdf(u("t"))),
                "x_shift": 0.5 * _NORMAL.inv_cdf(u("xs"))}
    if kind == "match":
        return {"phi": _uniform(u("phi"), 0.0, 0.95) * QUARTER_PI}
    if kind == "convexity":
        return {"phi": _uniform(u("phi"), 0.1, 0.7) * QUARTER_PI,
                "samples": 10000}
    if kind == "escape":
        return {"phi": _uniform(u("phi"), QUARTER_PI + 1e-6,
                                math.pi / 2.0 - 1e-6), "grid": 200}
    if kind == "doubling":
        return {"lam": lam, "t": _uniform(u("t"), 1.0, 4.0),
                "phi": _uniform(u("phi"), math.pi / 32.0, math.pi / 8.0)}
    if kind == "norm-growth":
        return {"lam": lam,
                "eps": [_log_uniform((i + u(f"eps{i}")) / 3.0, 1e-2, 1e-6)
                        for i in range(3)]}
    if kind == "dpi-check":
        return {"lam": lam, "seed": st.rng.randrange(1, 100000)}
    if kind in ("sobolev", "invariant-bound"):
        return {"lam": lam, "eps": _log_uniform(u("eps"), 1e-6, 1e-2),
                "k": 2 if kind == "sobolev" else 1}
    if kind in ("transform", "parseval"):
        return {"width": _uniform(u("width"), 0.5, 1.5)}
    if kind == "kernel":
        return {"center": _uniform(u("center"), 1.0, 3.0),
                "width": _uniform(u("width"), 0.5, 1.0)}
    if kind == "gutzmer":
        # near the README example (r = pi/8, centre 2, width 0.7): the
        # orbital mass costs 9-19 s depending on the density, and one such
        # process is a third of the round; spectral_orbital covers the
        # whole range
        return {"center": _uniform(u("center"), 1.8, 2.2),
                "width": _uniform(u("width"), 0.65, 0.75),
                "r": _uniform(u("r"), 0.45, 0.55) * QUARTER_PI}
    if kind == "hardy-gram":
        return {"gram": 3, "seed": st.rng.randrange(1, 100000)}
    if kind in ("maass", "maass-violator"):
        return {"y": _uniform(u("y"), 2.5, 6.0)}
    raise ValueError(f"unknown cli case kind {kind!r}")


_ARGS = {"repn_sobolev": _repn_args,
         "spectral_orbital": _spectral_args,
         "cli_cold": _cli_args}


def round_cases(workload: str, seed: int, round_index: int) -> list[dict]:
    """The cases of one round: dicts with `id`, `kind` and `args`.

    Round r of seed s is the same list whatever rounds came before it.
    """
    kinds = ROUNDS[workload]
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    st = _Strata(rng)
    totals = {k: kinds.count(k) for k in kinds}
    seen = {k: 0 for k in kinds}
    out = []
    for pos, kind in enumerate(kinds):
        j = seen[kind]
        seen[kind] += 1
        out.append({"id": round_index * len(kinds) + pos, "kind": kind,
                    "args": _ARGS[workload](kind, st, j, totals[kind])})
    return out
