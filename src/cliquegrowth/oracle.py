"""Exact small-horizon probabilities and closed-form lower bounds.

Everything here is either an exact finite computation (path measures, the
confinement dynamic program, drift expectations) or a certified truncated
infinite product (tail bounded analytically, so the returned value is a true
lower bound, never a point estimate).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .detection import check_final_properties
from .graphs import Graph, OrderedClique, d_sets, is_clique
from .process import RateParams, State, exponent_vector

__all__ = [
    "DEFAULT_ENUM_BUDGET",
    "CliquePathSpace",
    "q_measure",
    "confinement_prob",
    "p11_bound",
    "epsilon_n",
    "epsilon_lower_bound",
    "single_vertex_bound",
    "clique_probs",
    "z_transition_probs",
    "z_drift",
    "drift_shell_max",
    "negative_drift_radius",
]

DEFAULT_ENUM_BUDGET = 1_000_000


@dataclass(frozen=True)
class CliquePathSpace:
    """All length-`horizon` sequences over the positions of an ordered clique."""

    clique: OrderedClique
    horizon: int

    @property
    def size(self) -> int:
        return len(self.clique) ** self.horizon

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(range(len(self.clique)), repeat=self.horizon)


def _allocation_deltas(params: RateParams, g: Graph,
                       vertices: Sequence[int]) -> np.ndarray:
    """Row i: exponent increment vector of one allocation at vertices[i]."""
    alpha_vec, beta_mat, _ = params.arrays(g)
    deltas = np.zeros((len(vertices), g.n), dtype=np.float64)
    for i, v in enumerate(vertices):
        deltas[i] = beta_mat[:, v]
        deltas[i, v] = alpha_vec[v]
    return deltas


def q_measure(g: Graph, params: RateParams, x0: State, clique: OrderedClique,
              horizon: int, budget: int = DEFAULT_ENUM_BUDGET) -> dict[tuple[int, ...], float]:
    """Block-product measure over the clique path space.

    Each path (k(1),...,k(n)) gets the product over j of the one-step
    probability that the allocation lands in block k(j+1), evaluated at the
    state reached by allocating along the path.  The blocks come from the
    D-set partition of `clique`, so the measure always has total mass 1.

    `clique` must be a final maximal clique for x0; the path count m^horizon
    must not exceed `budget`.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    m = len(clique)
    if m ** horizon > budget:
        raise ValueError(
            f"{m}^{horizon} paths exceed the enumeration budget {budget}")
    if not check_final_properties(g, params, x0, clique):
        raise ValueError(f"{clique.vertices} is not a final maximal clique for this state")
    part = d_sets(g, clique)
    block_idx = [np.fromiter(sorted(b), dtype=np.intp) for b in part.blocks]
    exps0 = exponent_vector(params, g, x0)
    deltas = _allocation_deltas(params, g, clique.vertices)

    out: dict[tuple[int, ...], float] = {}
    path: list[int] = []
    nvec = np.zeros(m, dtype=np.int64)

    def rec(depth: int, weight: float) -> None:
        if depth == horizon:
            out[tuple(path)] = weight
            return
        exps = exps0 + nvec @ deltas
        w = np.exp(exps - exps.max())
        total = w.sum()
        for k in range(m):
            mass = w[block_idx[k]].sum() / total
            path.append(k)
            nvec[k] += 1
            rec(depth + 1, weight * mass)
            nvec[k] -= 1
            path.pop()

    rec(0, 1.0)
    return out


def confinement_prob(g: Graph, params: RateParams, x0: State,
                     clique: OrderedClique, horizon: int,
                     budget: int = DEFAULT_ENUM_BUDGET) -> float:
    """Exact probability that the first `horizon` allocations stay in the clique.

    Dynamic program over in-clique count vectors: under confinement every
    rate exponent depends on the path only through how many allocations each
    clique vertex received, so C(horizon+m-1, m-1) states replace m^horizon
    paths.  Singleton cliques are allowed (single-vertex confinement).
    """
    verts = clique.vertices
    if not verts or not is_clique(g, verts):
        raise ValueError(f"{verts} is not a clique")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    m = len(verts)
    if math.comb(horizon + m - 1, m - 1) > budget:
        raise ValueError(
            f"C({horizon}+{m}-1,{m}-1) states exceed the DP budget {budget}")
    if horizon == 0:
        return 1.0
    exps0 = exponent_vector(params, g, x0)
    deltas = _allocation_deltas(params, g, verts)
    vert_idx = np.fromiter(verts, dtype=np.intp)

    level: dict[tuple[int, ...], float] = {(0,) * m: 1.0}
    for _ in range(horizon):
        nxt: dict[tuple[int, ...], float] = {}
        for comp, mass in level.items():
            exps = exps0 + np.asarray(comp, dtype=np.float64) @ deltas
            w = np.exp(exps - exps.max())
            p_in = w[vert_idx] / w.sum()
            for i in range(m):
                key = comp[:i] + (comp[i] + 1,) + comp[i + 1:]
                nxt[key] = nxt.get(key, 0.0) + mass * p_in[i]
        level = nxt
    return float(sum(level.values()))


def p11_bound(n_vertices: int, alpha: float, r: int) -> float:
    """Lower bound 1/(1 + |V| e^(-alpha r)) on the in-vertex-given-in-block
    conditional probability after r own-vertex allocations."""
    if n_vertices < 1 or not alpha > 0 or r < 0:
        raise ValueError("need n_vertices >= 1, alpha > 0, r >= 0")
    return 1.0 / (1.0 + n_vertices * math.exp(-alpha * r))


def _log_product_tail(n_vertices: int, rate: float, start: int,
                      tail_tol: float) -> float:
    """Certified upper bound on sum_{r>=start} log(1 + |V| e^(-rate r))."""
    if not 0 < rate < math.inf:
        raise ValueError("rate must be positive and finite for the product "
                         "to converge")
    if not tail_tol > 0:
        raise ValueError("tail tolerance must be positive")
    total = 0.0
    r = start
    while True:
        # log(1+x) <= x bounds the whole remaining tail geometrically
        tail = n_vertices * math.exp(-rate * (r)) / (1.0 - math.exp(-rate))
        if tail < tail_tol:
            return total + tail
        total += math.log1p(n_vertices * math.exp(-rate * r))
        r += 1


def epsilon_n(n_vertices: int, alpha: float, m: int, horizon: int) -> float:
    """Finite product (prod_{r=1}^{horizon-1} 1/(1+|V| e^(-alpha r)))^m."""
    if n_vertices < 1 or not alpha > 0 or m < 1 or horizon < 1:
        raise ValueError("need n_vertices >= 1, alpha > 0, m >= 1, horizon >= 1")
    s = sum(math.log1p(n_vertices * math.exp(-alpha * r))
            for r in range(1, horizon))
    return math.exp(-m * s)


def epsilon_lower_bound(n_vertices: int, alpha: float, m: int,
                        tail_tol: float = 1e-12) -> float:
    """Certified lower bound on (prod_{r>=1} 1/(1+|V| e^(-alpha r)))^m.

    The infinite product is truncated once the remaining log-tail is below
    tail_tol, and the tail bound is subtracted, so the returned value never
    exceeds the true product.

    As a bound on the probability that every allocation stays in an m-clique
    (for any beta >= 0), it refers to the start state with one particle at
    each clique vertex and none elsewhere: each vertex's conditional factor
    `p11_bound(|V|, alpha, r)` then starts at r = 1.  From the empty state
    each vertex's first allocation adds the r = 0 factor 1/(1+|V|), so the
    bound there is this value divided by (1+|V|)^m.
    """
    if n_vertices < 1 or not alpha > 0 or m < 1:
        raise ValueError("need n_vertices >= 1, alpha > 0 and m >= 1")
    return math.exp(-m * _log_product_tail(n_vertices, alpha, 1, tail_tol))


def single_vertex_bound(n_vertices: int, alpha: float, beta: float,
                        tail_tol: float = 1e-12) -> float:
    """Certified lower bound on prod_{n>=0} 1/(1+|V| e^(-(alpha-beta) n)),
    the probability of confining all allocations to a maximal-rate vertex.
    Requires beta < alpha."""
    if n_vertices < 1:
        raise ValueError("need n_vertices >= 1")
    if beta >= alpha:
        raise ValueError("single-vertex bound needs beta < alpha")
    return math.exp(-_log_product_tail(n_vertices, alpha - beta, 0, tail_tol))


def clique_probs(params: RateParams, g: Graph, state: State,
                 clique: OrderedClique) -> np.ndarray:
    """In-clique allocation distribution at `state` in the critical regime.

    With alpha = beta every in-clique allocation shifts all in-clique
    exponents equally, so this distribution is invariant along confined runs.
    """
    if params.regime != "critical":
        raise ValueError("clique_probs requires the critical regime (alpha = beta > 0)")
    exps = exponent_vector(params, g, state)
    sub = exps[list(clique.vertices)]
    w = np.exp(sub - sub.max())
    return w / w.sum()


def z_transition_probs(m: int, a, lam: float, z) -> np.ndarray:
    """Transition law of the count-difference chain on a complete graph.

    Outcome i < m-1 raises coordinate i with probability a_i e^(-lam z_i)/W;
    the last outcome lowers every coordinate with probability 1/W, where
    W = 1 + sum_i a_i e^(-lam z_i).  Computed in log-space.
    """
    a = np.asarray(a, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if m < 2 or a.shape != (m - 1,) or z.shape != (m - 1,):
        raise ValueError("need m >= 2 and a, z of length m-1")
    if lam <= 0 or (a <= 0).any():
        raise ValueError("need lam > 0 and positive coefficients a")
    logits = np.append(np.log(a) - lam * z, 0.0)
    w = np.exp(logits - logits.max())
    return w / w.sum()


def z_drift(m: int, a, lam: float, z) -> float:
    """Exact one-step drift of f(z) = sum z_i^2 under the difference chain.

    An up-move at i contributes 2 z_i + 1; the down-move shifts every
    coordinate by -1, contributing sum_i (1 - 2 z_i).
    """
    z = np.asarray(z, dtype=np.float64)
    p = z_transition_probs(m, a, lam, z)
    up = 2.0 * z + 1.0
    down = float(np.sum(1.0 - 2.0 * z))
    return float(p[:-1] @ up + p[-1] * down)


def _iter_l1_sphere(dim: int, radius: int) -> Iterator[tuple[int, ...]]:
    """All integer vectors of exact l1 norm `radius`."""
    if dim == 1:
        if radius == 0:
            yield (0,)
        else:
            yield (radius,)
            yield (-radius,)
        return
    for first in range(-radius, radius + 1):
        for rest in _iter_l1_sphere(dim - 1, radius - abs(first)):
            yield (first,) + rest


def drift_shell_max(m: int, a, lam: float, c0: int, c1: int) -> tuple[float, tuple[int, ...], int]:
    """Maximum drift over all z with c0 <= ||z||_1 <= c1.

    Returns (max drift, a maximizing z, number of states scanned).
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if c0 < 0 or c1 < c0:
        raise ValueError("need 0 <= c0 <= c1")
    best = -math.inf
    best_z: tuple[int, ...] | None = None
    count = 0
    for radius in range(c0, c1 + 1):
        for z in _iter_l1_sphere(m - 1, radius):
            count += 1
            d = z_drift(m, a, lam, z)
            if d > best:
                best, best_z = d, z
    if best_z is None:
        raise ValueError("empty shell")
    return best, best_z, count


def negative_drift_radius(m: int, a, lam: float, threshold: float = -0.1,
                          width: int = 10, c_max: int = 200) -> int:
    """Smallest C <= c_max with max drift over ||z||_1 in [C, C+width] below
    `threshold`; outward search from C=1."""
    for c in range(1, c_max + 1):
        top, _, _ = drift_shell_max(m, a, lam, c, c + width)
        if top <= threshold:
            return c
    raise ValueError(f"no radius up to {c_max} gives drift <= {threshold}")
