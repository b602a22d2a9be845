"""Greedy detection of the final maximal clique of a state.

Starting from a vertex of maximal rate, the clique is grown one vertex at a
time, always taking a maximal-rate common neighbour of what has been built,
until no common neighbour remains.  The result is a maximal clique whose
rate exponents are non-increasing along the build order.
"""
from __future__ import annotations

import numpy as np

from .graphs import Graph, OrderedClique, is_maximal_clique
from .process import RateParams, State, exponent_vector

__all__ = ["final_maximal_clique", "check_final_properties", "TIE_REL_TOL"]

# Relative tolerance for treating two exponents as tied.  In uniform mode
# exponents are integer combinations of alpha and beta, so ties are exact;
# the tolerance only guards float noise in general mode.
TIE_REL_TOL = 1e-12


def _tied_argmax(exps: np.ndarray, candidates: list[int],
                 tie_break: str, rng) -> int:
    best = max(exps[v] for v in candidates)
    tol = TIE_REL_TOL * max(1.0, abs(best))
    tied = [v for v in candidates if exps[v] >= best - tol]
    if tie_break == "lex" or len(tied) == 1:
        return tied[0]
    if tie_break == "random":
        if rng is None:
            raise ValueError("random tie-break needs an rng")
        return tied[int(rng.integers(len(tied)))]
    raise ValueError(f"unknown tie_break {tie_break!r}")


def final_maximal_clique(g: Graph, params: RateParams, state: State,
                         tie_break: str = "lex",
                         rng: np.random.Generator | None = None) -> OrderedClique:
    """Detect the final maximal clique of `state` by greedy max-rate growth.

    tie_break selects among equal-exponent candidates: "lex" takes the
    smallest vertex index (making the result a pure function of the inputs),
    "random" draws uniformly from the tied set using `rng`.
    """
    if g.n < 2:
        raise ValueError("graph needs at least two vertices")
    exps = exponent_vector(params, g, state)
    chosen = [_tied_argmax(exps, list(range(g.n)), tie_break, rng)]
    common = set(g.adjacency[chosen[0]])
    while common:
        nxt = _tied_argmax(exps, sorted(common), tie_break, rng)
        chosen.append(nxt)
        common &= g.adjacency[nxt]
    return OrderedClique(tuple(chosen))


def check_final_properties(g: Graph, params: RateParams, state: State,
                           clique: OrderedClique) -> bool:
    """True iff `clique` could have been produced by the greedy detector.

    Checks, on the exponents of `state`: the first vertex attains the global
    maximum; exponents are non-increasing along the order; each vertex attains
    the maximum among the common neighbours of its predecessors; and the
    result is a maximal clique.
    """
    verts = clique.vertices
    if not verts or not is_maximal_clique(g, verts):
        return False
    exps = exponent_vector(params, g, state)

    def tol_at(x: float) -> float:
        return TIE_REL_TOL * max(1.0, abs(x))

    if exps[verts[0]] < exps.max() - tol_at(exps.max()):
        return False
    for a, b in zip(verts, verts[1:]):
        if exps[b] > exps[a] + tol_at(exps[a]):
            return False
    common = set(g.adjacency[verts[0]])
    for k in range(1, len(verts)):
        vk = verts[k]
        if vk not in common:
            return False
        best = max(exps[v] for v in common)
        if exps[vk] < best - tol_at(best):
            return False
        common &= g.adjacency[vk]
    return True
