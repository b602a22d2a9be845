"""Exact small-horizon probabilities and closed-form lower bounds.

Everything here is either an exact finite computation (path measures, the
confinement dynamic program, drift expectations) or a certified truncated
infinite product (tail bounded analytically, so the returned value is a true
lower bound, never a point estimate).
"""
from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .detection import check_final_properties
from .graphs import Graph, OrderedClique, d_sets, is_clique
from .process import (EXP_UNDERFLOW, RateParams, State, exponent_vector,
                      probs_from_exponents)

__all__ = [
    "DEFAULT_ENUM_BUDGET",
    "MAX_CELLS",
    "q_measure",
    "confinement_prob",
    "p11_bound",
    "epsilon_n",
    "epsilon_lower_bound",
    "single_vertex_bound",
    "z_transition_probs",
    "z_drift",
    "drift_shell_max",
    "negative_drift_radius",
]

DEFAULT_ENUM_BUDGET = 1_000_000
# Array cells (rows times columns) the exact tools evaluate at once: levels
# and shells are scored in row blocks of this many floats per scratch array.
BLOCK_CELLS = 1 << 14
# Most cells (rows times columns) of one enumeration array: a level of count
# vectors, a drift shell or its size table.  As int64 that is 800 MB.
MAX_CELLS = 10**8


def _start_exponents(params: RateParams, g: Graph, x0: State,
                     vertices: Sequence[int], horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The exponents at x0, and as row i the increment of one allocation at
    vertices[i] (column vertices[i] of the interaction matrix K).  Refuses
    rates at which an exponent within `horizon` allocations, or the
    difference of two, would overflow a float, and horizons whose last level
    of count vectors over `vertices`, or the (horizon + 2) x m binomial table
    of `_composition_levels`, would exceed MAX_CELLS cells."""
    m = len(vertices)
    if max(math.comb(horizon + m - 1, m - 1), horizon + 2) * m > MAX_CELLS:
        raise ValueError(f"the horizon-{horizon} levels need more than {MAX_CELLS} array cells")
    exps0 = exponent_vector(params, g, x0)
    deltas = params.interaction_matrix(g).T[list(vertices)]
    reach = float(np.abs(exps0).max()) + horizon * float(np.abs(deltas).max())
    if not math.isfinite(2.0 * reach):
        raise ValueError("rate exponents overflow a float within the horizon; "
                         "use smaller rates or a shorter horizon")
    return exps0, deltas


def _composition_levels(m: int, horizon: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For k = 0..horizon-1, the count vectors of total k over m parts and
    the rows they move to with one more allocation.

    Yields (comps, up): comps is a (C(k+m-1, m-1), m) array in descending
    lexicographic order, the order in which a dict DP that allocates at
    0..m-1 from each vector in turn first reaches them; up[r, i] is the
    row of comps[r] + e_i in the next level.
    """
    # binom[a + 1, p] = C(a + p, p), the number of count vectors of total a
    # over p + 1 parts; row 0 stands for a = -1 and holds 0
    binom = np.zeros((horizon + 2, m), dtype=np.int64)
    binom[1:] = [[math.comb(a + p, p) for p in range(m)] for a in range(horizon + 1)]
    parts_after = np.arange(m - 1, 0, -1)
    comps = np.zeros((1, m), dtype=np.int64)
    for k in range(horizon):
        # The rank of a vector among those of total k+1 counts, for each
        # position j < m-1, the vectors equal to it before j and larger at
        # j.  For comps + e_i that term is `before` for j < i and `after`
        # for j >= i, where its prefix sums are one larger.
        prefix = np.cumsum(comps[:, :-1], axis=1)
        before = binom[k + 1 - prefix, parts_after]
        after = binom[k - prefix, parts_after]
        up = np.zeros((len(comps), m), dtype=np.int64)
        np.cumsum(before, axis=1, out=up[:, 1:])
        up[:, :-1] += np.cumsum(after[:, ::-1], axis=1)[:, ::-1]
        nxt = np.empty((math.comb(k + m, m - 1), m), dtype=np.int64)
        for i in range(m):
            nxt[up[:, i]] = comps
            nxt[up[:, i], i] += 1
        yield comps, up
        comps = nxt


def _level_weights(exps0: np.ndarray, deltas: np.ndarray,
                   comps: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Per block of rows of `comps`: (rows, w, total), where w = exp(L - max L)
    row by row at the exponents L = exps0 + comp @ deltas of each count
    vector, and total (a column) the row sums of w."""
    step = max(1, BLOCK_CELLS // len(exps0))
    for start in range(0, len(comps), step):
        rows = slice(start, start + step)
        # a stack of vector-matrix products: per row the same arithmetic
        # as comp @ deltas on one count vector
        exps = exps0 + (comps[rows, None, :].astype(np.float64) @ deltas)[:, 0]
        w = np.exp(exps - exps.max(axis=1, keepdims=True))
        yield rows, w, w.sum(axis=1, keepdims=True)


def q_measure(g: Graph, params: RateParams, x0: State, clique: OrderedClique,
              horizon: int, budget: int = DEFAULT_ENUM_BUDGET) -> np.ndarray:
    """Block-product measure over the clique path space.

    Each path (k(1),...,k(n)) gets the product over j of the one-step
    probability that the allocation lands in block k(j+1), evaluated at the
    state reached by allocating along the path.  The blocks come from the
    D-set partition of `clique`, so the measure always has total mass 1.

    Returns the m^horizon path weights as one float64 array in
    `itertools.product(range(m), repeat=horizon)` order: entry i is the
    path whose blocks are the base-m digits of i, most significant first.

    The block masses depend on a path prefix only through its count vector,
    so they are computed once per count vector at each depth; the path
    weights are extended a depth at a time.

    `clique` must be a final maximal clique for x0; neither the path count
    m^horizon nor the horizon (the number of levels) may exceed `budget`,
    and m^horizon may not exceed MAX_CELLS.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    m = len(clique)
    # the same test without a huge power: m >= 2 gives m^(bits + 1) > budget;
    # m = 1 has one path but still one level per step
    if horizon > budget or m ** min(horizon, budget.bit_length() + 1) > budget:
        raise ValueError(
            f"{m}^{horizon} paths or {horizon} levels exceed the enumeration budget {budget}")
    # the weights and the gather of their block masses hold m^horizon cells
    if m ** horizon > MAX_CELLS:
        raise ValueError(f"{m}^{horizon} paths exceed {MAX_CELLS} array cells")
    if not check_final_properties(g, params, x0, clique):
        raise ValueError(f"{clique.vertices} is not a final maximal clique for this state")
    part = d_sets(g, clique)
    block_idx = [np.fromiter(sorted(b), dtype=np.intp) for b in part.blocks]
    exps0, deltas = _start_exponents(params, g, x0, clique.vertices, horizon)

    # weights[p]: weight of path prefix p; comp[p]: its count vector's row
    weights = np.ones(1)
    comp = np.zeros(1, dtype=np.int64)
    for depth, (comps, up) in enumerate(_composition_levels(m, horizon), 1):
        masses = np.empty((len(comps), m))
        for rows, w, total in _level_weights(exps0, deltas, comps):
            for k, b in enumerate(block_idx):
                # take() keeps the rows C-contiguous, so each row sums in
                # the order of a 1-D sum (w[:, b] would be column-major)
                masses[rows, k] = w.take(b, axis=1).sum(axis=1) / total[:, 0]
        # scale the gathered block masses in place: the same products as
        # weights[:, None] * masses[comp] without a second m^depth array
        gathered = masses[comp]
        gathered *= weights[:, None]
        weights = gathered.ravel()
        if depth < horizon:  # nothing reads the last level's rows
            comp = up[comp].ravel()
    return weights


def confinement_prob(g: Graph, params: RateParams, x0: State,
                     clique: OrderedClique, horizon: int,
                     budget: int = DEFAULT_ENUM_BUDGET) -> float:
    """Exact probability that the first `horizon` allocations stay in the clique.

    Dynamic program over in-clique count vectors: under confinement every
    rate exponent depends on the path only through how many allocations each
    clique vertex received, so C(horizon+m-1, m-1) states replace m^horizon
    paths.  Singleton cliques are allowed (single-vertex confinement).

    Each level is one array of count vectors.  A vector's mass is the sum of
    its predecessors' contributions, added in the order of the predecessors
    in the level (allocation at position m-1 first), and the last level is
    summed left to right.  Once a level's mass is all zero it stays zero, so
    the result 0.0 is returned there.
    """
    verts = clique.vertices
    if not verts or not is_clique(g, verts):
        raise ValueError(f"{verts} is not a clique")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    m = len(verts)
    # a singleton clique has one state per level: count the levels too
    if max(horizon, math.comb(horizon + m - 1, m - 1)) > budget:
        raise ValueError(
            f"C({horizon}+{m}-1,{m}-1) states or {horizon} levels exceed the DP budget {budget}")
    if horizon == 0:
        return 1.0
    exps0, deltas = _start_exponents(params, g, x0, verts, horizon)
    vert_idx = np.fromiter(verts, dtype=np.intp)

    mass = np.ones(1)
    for k, (comps, up) in enumerate(_composition_levels(m, horizon)):
        p_in = np.empty((len(comps), m))
        for rows, w, total in _level_weights(exps0, deltas, comps):
            p_in[rows] = w[:, vert_idx] / total
        nxt = np.zeros(math.comb(k + m, m - 1))
        for i in range(m - 1, -1, -1):
            nxt[up[:, i]] += mass * p_in[:, i]
        mass = nxt
        if not mass.any():
            return 0.0
    return float(np.add.accumulate(mass)[-1])


def p11_bound(n_vertices: int, alpha: float, r: int) -> float:
    """Lower bound 1/(1 + |V| e^(-alpha r)) on the in-vertex-given-in-block
    conditional probability after r own-vertex allocations."""
    if n_vertices < 1 or not alpha > 0 or r < 0:
        raise ValueError("need n_vertices >= 1, alpha > 0, r >= 0")
    return 1.0 / (1.0 + n_vertices * math.exp(-alpha * r))


def _log_product_tail(n_vertices: int, rate: float, start: int,
                      tail_tol: float) -> float:
    """Certified upper bound on sum_{r>=start} log(1 + |V| e^(-rate r)),
    or inf once the partial sum reaches -EXP_UNDERFLOW or 1 - e^(-rate) is
    0.0 (sum > 10^14): every bound exp(-m sum), m >= 1, is then 0.0."""
    if not 0 < rate < math.inf:
        raise ValueError("rate must be positive and finite for the product "
                         "to converge")
    if not 0 < tail_tol < math.inf:
        raise ValueError("tail tolerance must be positive and finite")
    gap = 1.0 - math.exp(-rate)
    total = 0.0
    r = start
    while gap > 0 and total < -EXP_UNDERFLOW:
        # log(1+x) <= x bounds the whole remaining tail geometrically
        tail = n_vertices * math.exp(-rate * (r)) / gap
        if tail < tail_tol:
            return total + tail
        total += math.log1p(n_vertices * math.exp(-rate * r))
        r += 1
    return math.inf


def epsilon_n(n_vertices: int, alpha: float, m: int, horizon: int) -> float:
    """Finite product (prod_{r=1}^{horizon-1} 1/(1+|V| e^(-alpha r)))^m."""
    if n_vertices < 1 or not alpha > 0 or m < 1 or horizon < 1:
        raise ValueError("need n_vertices >= 1, alpha > 0, m >= 1, horizon >= 1")
    # the factors at alpha r > -EXP_UNDERFLOW are exactly 1
    stop = min(horizon, -EXP_UNDERFLOW / alpha + 1)
    if stop > DEFAULT_ENUM_BUDGET:
        raise ValueError(f"the product has more than {DEFAULT_ENUM_BUDGET} "
                         "factors below 1; use a larger alpha or a shorter horizon")
    s = 0.0
    for r in range(1, math.ceil(stop)):
        s += math.log1p(n_vertices * math.exp(-alpha * r))
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


def _chain_log_coefficients(m: int, a, lam: float) -> np.ndarray:
    """log a, after checking the parameters of the difference chain."""
    a = np.asarray(a, dtype=np.float64)
    if m < 2 or a.shape != (m - 1,):
        raise ValueError("need m >= 2 and a of length m-1")
    if not (math.isfinite(lam) and np.isfinite(a).all()):
        raise ValueError("rate parameters must be finite")
    if not lam > 0 or not (a > 0).all():
        raise ValueError("need lam > 0 and positive coefficients a")
    return np.log(a)


def _check_logits(log_a: np.ndarray, lam: float, reach: float) -> None:
    """Refuse rates at which the logits at |z_i| <= reach, or the difference
    of two, would overflow a float."""
    if not math.isfinite(2.0 * lam * reach + float(log_a.max() - log_a.min())):
        raise ValueError(f"lam * {reach:g} overflows a float; use a smaller rate or shell")


def _z_probs_rows(log_a: np.ndarray, lam: float, z: np.ndarray) -> np.ndarray:
    """Transition law of the difference chain at each row of z."""
    logits = np.empty((len(z), len(log_a) + 1))
    logits[:, :-1] = log_a - lam * z
    logits[:, -1] = 0.0
    return probs_from_exponents(logits)


def _drift_rows(log_a: np.ndarray, lam: float, z: np.ndarray) -> np.ndarray:
    """Drift of sum z_i^2 at each row of z (see `z_drift`)."""
    p = _z_probs_rows(log_a, lam, z)
    up = 2.0 * z + 1.0
    down = np.sum(1.0 - 2.0 * z, axis=1)
    # a stack of dot products: per row the same arithmetic as p[:-1] @ up
    return (p[:, None, :-1] @ up[:, :, None])[:, 0, 0] + p[:, -1] * down


def _chain_point(m: int, a, lam: float, z) -> tuple[np.ndarray, np.ndarray]:
    """(log a, z as a single row), after checking the chain parameters, the
    length of z and its logits."""
    log_a = _chain_log_coefficients(m, a, lam)
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (m - 1,):
        raise ValueError("need z of length m-1")
    _check_logits(log_a, lam, float(np.abs(z).max()))
    return log_a, z[None, :]


def z_transition_probs(m: int, a, lam: float, z) -> np.ndarray:
    """Transition law of the count-difference chain on a complete graph.

    Outcome i < m-1 raises coordinate i with probability a_i e^(-lam z_i)/W;
    the last outcome lowers every coordinate with probability 1/W, where
    W = 1 + sum_i a_i e^(-lam z_i).  Computed in log-space.
    """
    log_a, z = _chain_point(m, a, lam, z)
    return _z_probs_rows(log_a, lam, z)[0]


def z_drift(m: int, a, lam: float, z) -> float:
    """Exact one-step drift of f(z) = sum z_i^2 under the difference chain.

    An up-move at i contributes 2 z_i + 1; the down-move shifts every
    coordinate by -1, contributing sum_i (1 - 2 z_i).  The same row kernel
    scores whole shells in `drift_shell_max`.
    """
    log_a, z = _chain_point(m, a, lam, z)
    return float(_drift_rows(log_a, lam, z)[0])


def _sphere_size(dim: int, radius: int) -> int:
    """Number of integer vectors in `dim` coordinates of l1 norm `radius`:
    k nonzero coordinates, their signs, and radius split into k positive
    parts."""
    if radius == 0:
        return 1
    return sum(2 ** k * math.comb(dim, k) * math.comb(radius - 1, k - 1)
               for k in range(1, min(dim, radius) + 1))


def _l1_sphere(dim: int, radius: int) -> np.ndarray:
    """All integer vectors of exact l1 norm `radius` in `dim` >= 1
    coordinates, one per row.

    The order is that of the recursive enumeration: the first coordinate
    ascending from -radius, each followed by every completion of the
    remaining norm in the same order, and a last coordinate r before -r.
    """
    # sizes[k, r]: vectors of l1 norm r in k coordinates
    sizes = np.zeros((dim + 1, radius + 1), dtype=np.int64)
    sizes[0, 0] = 1
    for k in range(1, dim + 1):
        sizes[k] = sizes[k - 1]
        sizes[k, 1:] += 2 * np.cumsum(sizes[k - 1])[:-1]
    out = np.empty((sizes[dim, radius], dim), dtype=np.int64)
    rest = np.array([radius])  # norm left after each prefix, prefixes in order
    for j in range(dim - 1):
        # each prefix is followed by every value -rest..rest at column j
        n_vals = 2 * rest + 1
        parent = np.repeat(np.arange(len(rest)), n_vals)
        first = np.cumsum(n_vals) - n_vals
        vals = np.arange(len(parent)) - first[parent] - rest[parent]
        rest = rest[parent] - np.abs(vals)
        out[:, j] = np.repeat(vals, sizes[dim - 1 - j, rest])
    # the last coordinate takes the norm left, r before -r
    reps = np.where(rest > 0, 2, 1)
    last = np.repeat(rest, reps)
    neg = (np.cumsum(reps) - 1)[rest > 0]
    last[neg] = -last[neg]
    out[:, -1] = last
    return out


def _check_scan(log_a: np.ndarray, lam: float, c0: int, c1: int) -> int:
    """Number of states with c0 <= l1 norm <= c1, counted before any is
    built; refuses scans over DEFAULT_ENUM_BUDGET states, a shell or size
    table of `_l1_sphere` over MAX_CELLS cells, and rates at which the
    logits of the outer shell would overflow."""
    _check_logits(log_a, lam, c1)
    dim = len(log_a)
    if (dim + 1) * (c1 + 1) > MAX_CELLS:
        raise ValueError(f"the shell {c0}:{c1} needs a size table of over {MAX_CELLS} cells")
    count = 0
    for radius in range(c0, c1 + 1):
        size = _sphere_size(dim, radius)
        count += size
        if count > DEFAULT_ENUM_BUDGET or size * dim > MAX_CELLS:
            raise ValueError(
                f"the shell {c0}:{c1} in {dim} dimensions has more than "
                f"{DEFAULT_ENUM_BUDGET} states or {MAX_CELLS} array cells")
    return count


def _shell_max(log_a: np.ndarray, lam: float,
               radius: int) -> tuple[float, np.ndarray]:
    """Maximum drift over the l1 shell of `radius`, and the first state in
    enumeration order that attains it, scored in row blocks."""
    shell = _l1_sphere(len(log_a), radius)
    step = max(1, BLOCK_CELLS // (len(log_a) + 1))
    best, best_z = -math.inf, shell[0]
    for start in range(0, len(shell), step):
        d = _drift_rows(log_a, lam, shell[start:start + step].astype(np.float64))
        i = int(d.argmax())
        if d[i] > best:
            best, best_z = float(d[i]), shell[start + i]
    return best, best_z


def drift_shell_max(m: int, a, lam: float, c0: int, c1: int) -> tuple[float, tuple[int, ...], int]:
    """Maximum drift over all z with c0 <= ||z||_1 <= c1.

    Returns (max drift, a maximizing z, number of states scanned).  The z is
    the first maximizer in the enumeration order of the shells, radius by
    radius.  Scans of more than DEFAULT_ENUM_BUDGET states are refused.
    """
    log_a = _chain_log_coefficients(m, a, lam)
    if c0 < 0 or c1 < c0:
        raise ValueError("need 0 <= c0 <= c1")
    count = _check_scan(log_a, lam, c0, c1)
    best, best_z = -math.inf, None
    for radius in range(c0, c1 + 1):
        top, z = _shell_max(log_a, lam, radius)
        if top > best:
            best, best_z = top, z
    return best, tuple(best_z.tolist()), count


def negative_drift_radius(m: int, a, lam: float, threshold: float = -0.1,
                          width: int = 10, c_max: int = 200) -> int:
    """Smallest C <= c_max with max drift over ||z||_1 in [C, C+width] below
    `threshold`; outward search from C=1.  Each shell is scored once."""
    log_a = _chain_log_coefficients(m, a, lam)
    tops = [-math.inf]  # tops[r]: max drift over the shell of radius r
    for c in range(1, c_max + 1):
        while len(tops) <= c + width:
            _check_scan(log_a, lam, len(tops), len(tops))
            tops.append(_shell_max(log_a, lam, len(tops))[0])
        if max(tops[c:c + width + 1]) <= threshold:
            return c
    raise ValueError(f"no radius up to {c_max} gives drift <= {threshold}")
