"""Greedy detection of the final maximal clique of a state.

Starting from a vertex of maximal rate, the clique is grown one vertex at a
time, always taking a maximal-rate common neighbour of what has been built,
until no common neighbour remains.  The result is a maximal clique whose
rate exponents are non-increasing along the build order.  A tie goes to the
smallest vertex index, or to a uniform draw when an rng is given.
"""
from __future__ import annotations

import numpy as np

from .graphs import Graph, OrderedClique
from .process import RateParams, State, exponent_vector

__all__ = ["final_maximal_clique", "check_final_properties", "TIE_REL_TOL"]

# Relative tolerance for treating two exponents as tied.  In uniform mode
# exponents are integer combinations of alpha and beta, so ties are exact;
# the tolerance only guards float noise in general mode.
TIE_REL_TOL = 1e-12


def _tied(exps: np.ndarray, candidates: list[int]) -> list[int]:
    """The candidates within TIE_REL_TOL of their maximum exponent, in order."""
    best = max(exps[v] for v in candidates)
    tol = TIE_REL_TOL * max(1.0, abs(best))
    return [v for v in candidates if exps[v] >= best - tol]


def final_maximal_clique(g: Graph, params: RateParams, state: State,
                         rng: np.random.Generator | None = None) -> OrderedClique:
    """Detect the final maximal clique of `state` by greedy max-rate growth.

    Without `rng` a tie goes to the smallest vertex index, making the result
    a pure function of the inputs; with `rng` it is drawn uniformly.
    """
    if g.n < 2:
        raise ValueError("graph needs at least two vertices")
    exps = exponent_vector(params, g, state)
    chosen = []
    candidates = list(range(g.n))
    while candidates:
        tied = _tied(exps, candidates)
        v = tied[0] if rng is None or len(tied) == 1 else tied[int(rng.integers(len(tied)))]
        chosen.append(v)
        candidates = [u for u in candidates if u in g.adjacency[v]]
    return OrderedClique(tuple(chosen))


def check_final_properties(g: Graph, params: RateParams, state: State,
                           clique: OrderedClique) -> bool:
    """True iff the greedy detector can build `clique`: replayed along its
    order, each vertex is among the tied maxima of the candidates that its
    predecessors leave, and no candidate is left at the end."""
    exps = exponent_vector(params, g, state)
    candidates = list(range(g.n))
    for v in clique.vertices:
        if v not in candidates or v not in _tied(exps, candidates):
            return False
        candidates = [u for u in candidates if u in g.adjacency[v]]
    return not candidates
