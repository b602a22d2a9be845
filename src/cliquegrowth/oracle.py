"""Exact small-horizon probabilities and closed-form lower bounds.

Everything here is either an exact finite computation (path measures, the
confinement dynamic program, drift expectations) or a certified truncated
infinite product (tail bounded analytically, so the returned value is a true
lower bound, never a point estimate).
"""
from __future__ import annotations

import itertools
import math
import operator
import sys
from typing import Iterator, Sequence

import numpy as np

from .detection import check_final_properties
from .graphs import Graph, OrderedClique, d_sets, is_clique
from .process import (EXP_UNDERFLOW, MAX_CELLS, RateParams, State, column_sum, exp_weights,
                      exponent_vector, on_grid, probs_from_exponents)

__all__ = [
    "DEFAULT_ENUM_BUDGET",
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
# and shells are scored in blocks of this many floats per scratch array.
BLOCK_CELLS = 1 << 14
# A block's laws are columns of an (n, rows) array.  Over fewer vertices the
# array is C-ordered, so that a block is a few whole-column numpy calls;
# from this many on it is the F-ordered transpose of one count vector per
# row, since a transposed copy off the exact grid then costs more than it
# saves (measured crossover, see CHANGES.md).
ROW_LAYOUT_MIN_N = 64


def _start_exponents(params: RateParams, g: Graph, x0: State, vertices: Sequence[int],
                     horizon: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """The exponents at x0, as row i the increment of one allocation at
    vertices[i] (column vertices[i] of K), and whether the exponents of the
    horizon stay on the exact grid (`on_grid`, which refuses an overflow).
    Refuses horizons whose last level of count vectors over `vertices`, or
    the (horizon + 2) x m cells that bound `_level_table`'s index arrays and
    a singleton's levels, would exceed MAX_CELLS cells."""
    m = len(vertices)
    if max(math.comb(horizon + m - 1, m - 1), horizon + 2) * m > MAX_CELLS:
        raise ValueError(f"the horizon-{horizon} levels need more than {MAX_CELLS} array cells")
    exps0 = exponent_vector(params, g, x0)
    deltas = params.interaction_matrix(g).T[list(vertices)]
    return exps0, deltas, on_grid(exps0, deltas, horizon)


def _level_table(m: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The count vectors of total `top` over m parts in descending
    lexicographic order, one per row, and up: up[r, i] is the row of
    comps[r] + e_i among the vectors of total top + 1."""
    # Built part by part from the last.  ys lists the vectors y of total
    # at most `top` over the last p parts, by total `tot` (ascending) and
    # within one total in descending order; up[r, i] is the row of
    # ys[r] + e_i in the same list run one total further.  Over p + 1 parts
    # block t of the list is (t - tot[r], ys[r]) for the rows r with
    # tot[r] <= t, and one more allocation moves a vector to block t + 1:
    # at the new part to the same r, at part i of y to y's up row.
    ys = np.zeros((1, 0), dtype=np.int64)
    tot = np.zeros(1, dtype=np.int64)
    up = np.zeros((1, 0), dtype=np.int64)
    for _ in range(m - 1):
        start = np.zeros(top + 2, dtype=np.int64)
        np.cumsum(np.searchsorted(tot, np.arange(top + 1), side="right"), out=start[1:])
        t = np.repeat(np.arange(top + 1), np.diff(start))
        rows = np.arange(start[-1]) - start[t]
        ys = np.column_stack((t - tot[rows], ys[rows]))
        up = start[t + 1, None] + np.column_stack((rows, up[rows]))
        tot = t
    # part 0 takes what y leaves of `top`; the vectors of total top + 1
    # start with these, part 0 one larger, in the same order
    return np.column_stack((top - tot, ys)), np.column_stack((np.arange(len(tot)), up))


def _composition_levels(m: int, horizon: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For k = 0..horizon-1, the count vectors of total k over m parts and
    the rows they move to with one more allocation.

    Yields (comps, up): comps is a (C(k+m-1, m-1), m) array in descending
    lexicographic order, the order in which a dict DP that allocates at
    0..m-1 from each vector in turn first reaches them; up[r, i] is the
    row of comps[r] + e_i in the next level.

    In that order the vectors of total k are those of total k-1 with one
    more at part 0, then those with part 0 empty.  So every level is a
    prefix of a later one: its rows are the first rows of level `top` with
    part 0 lowered by top - k, and its up map the first rows of level
    top's.  One table (`_level_table`) serves the levels up to `top`; a
    level beyond it rebuilds the table at min(horizon - 1, 2k + 1), so a
    caller that stops early holds at most about twice the last level it
    read.
    """
    top = -1
    for k in range(horizon):
        if k > top:
            top = min(horizon - 1, 2 * k + 1)
            table, table_up = _level_table(m, top)
        rows = math.comb(k + m - 1, m - 1)
        comps = table[:rows].copy()
        comps[:, 0] -= top - k
        yield comps, table_up[:rows]


def _exponents(exps0: np.ndarray, deltas: np.ndarray, comps: np.ndarray,
               exact: bool) -> np.ndarray:
    """The exponents exps0 + comp @ deltas of each row of `comps`, one
    column per count vector, laid out as ROW_LAYOUT_MIN_N says."""
    by_row = len(exps0) >= ROW_LAYOUT_MIN_N
    if exact and not by_row:
        # on the exact grid every sum is a float, in any order: one product
        exps = deltas.T @ comps.T.astype(np.float64)
        exps += exps0[:, None]
        return exps
    if exact:
        exps = comps.astype(np.float64) @ deltas
    else:
        # a stack of vector-matrix products: per count vector the same
        # arithmetic as comp @ deltas on one vector
        exps = (comps[:, None, :].astype(np.float64) @ deltas)[:, 0]
    exps += exps0
    return exps.T if by_row else np.ascontiguousarray(exps.T)


def _level_weights(exps0: np.ndarray, deltas: np.ndarray, comps: np.ndarray,
                   exact: bool) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Per block of rows of `comps`: (rows, w, total), where w holds one
    column per count vector, exp(L - max L) at its `_exponents` L, and
    total the column sums of w."""
    step = max(1, BLOCK_CELLS // len(exps0))
    for start in range(0, len(comps), step):
        rows = slice(start, start + step)
        w = exp_weights(_exponents(exps0, deltas, comps[rows], exact))
        yield rows, w, column_sum(w)


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
        raise ValueError(f"{tuple(g.labels[v] for v in clique.vertices)} "
                         "is not a final maximal clique for this state")
    part = d_sets(g, clique)
    block_idx = [np.fromiter(sorted(b), dtype=np.intp) for b in part.blocks]
    exps0, deltas, exact = _start_exponents(params, g, x0, clique.vertices, horizon)

    # weights[p]: weight of path prefix p; comp[p]: its count vector's row
    weights = np.ones(1)
    comp = np.zeros(1, dtype=np.int64)
    for depth, (comps, up) in enumerate(_composition_levels(m, horizon), 1):
        masses = np.empty((len(comps), m))
        for rows, w, total in _level_weights(exps0, deltas, comps, exact):
            for k, b in enumerate(block_idx):
                masses[rows, k] = column_sum(w[b]) / total
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

    Each level is one array of count vectors, a prefix of a table of a
    later level (`_composition_levels`).  A vector's mass is the sum of its
    predecessors' contributions, added by one `np.bincount` in the order of
    the predecessors in the level (allocation at position m-1 first), and
    the last level is summed left to right.  Once a level's mass is all
    zero it stays zero, so the result 0.0 is returned there; the tables grow
    in doubling steps, so a DP that stops at level k has built none past
    level 2k + 1.
    """
    verts = clique.vertices
    if not verts or not is_clique(g, verts):
        raise ValueError(f"{tuple(g.labels[v] for v in verts)} is not a clique")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    m = len(verts)
    # a singleton clique has one state per level: count the levels too
    if max(horizon, math.comb(horizon + m - 1, m - 1)) > budget:
        raise ValueError(
            f"C({horizon}+{m}-1,{m}-1) states or {horizon} levels exceed the DP budget {budget}")
    if horizon == 0:
        return 1.0
    exps0, deltas, exact = _start_exponents(params, g, x0, verts, horizon)
    rev_idx = np.fromiter(reversed(verts), dtype=np.intp)

    mass = np.ones(1)
    for k, (comps, up) in enumerate(_composition_levels(m, horizon)):
        # p_in[j, r]: the chance that vector r's next allocation is at
        # position m-1-j
        p_in = np.empty((m, len(comps)))
        for rows, w, total in _level_weights(exps0, deltas, comps, exact):
            np.divide(w[rev_idx], total, out=p_in[:, rows])
        p_in *= mass
        # bincount adds in flat order, position m-1's contributions first:
        # each vector of the next level sums its predecessors from m-1 down
        mass = np.bincount(up[:, ::-1].ravel(order="F"), weights=p_in.ravel(),
                           minlength=math.comb(k + m, m - 1))
        if not mass.any():
            return 0.0
    return float(np.add.accumulate(mass, out=mass)[-1])


def p11_bound(n_vertices: int, alpha: float, r: int) -> float:
    """Lower bound 1/(1 + |V| e^(-alpha r)) on the in-vertex-given-in-block
    conditional probability after r own-vertex allocations."""
    try:
        r = operator.index(r)
    except TypeError:
        raise ValueError(f"r counts allocations, so it must be an integer, not {r!r}") from None
    if n_vertices < 1 or not 0 < alpha < math.inf or r < 0:
        raise ValueError("need n_vertices >= 1, a positive finite alpha, r >= 0")
    return 1.0 / (1.0 + n_vertices * math.exp(-alpha * r))


def _log_product_tail(n_vertices: int, rate: float, start: int,
                      tail_tol: float | None = None, stop: int | float = math.inf) -> float:
    """sum_{start <= r < stop} log(1 + |V| e^(-rate r)) in order of r, up to
    the first factor |V| e^(-rate r) of 0.0; inf from -EXP_UNDERFLOW on, where
    exp(-m sum) is 0.0.  For stop = inf a certified upper bound: the geometric
    tail bound is added once below tail_tol, and the sum is rounded up once
    for every rounding before it; inf if 1 - e^(-rate) is 0.0."""
    if n_vertices < 1 or not 0 < rate < math.inf:
        raise ValueError("need n_vertices >= 1 and a positive finite rate")
    infinite = stop == math.inf
    if infinite and not 0 < tail_tol < math.inf:
        raise ValueError("tail tolerance must be positive and finite")
    gap = 1.0 - math.exp(-rate)
    if infinite and gap == 0.0:
        return math.inf
    total = 0.0
    for r in itertools.count(start) if infinite else range(start, stop):
        x = n_vertices * math.exp(-rate * r)
        # log(1+x) <= x bounds the whole remaining tail geometrically
        if infinite and x / gap < tail_tol:
            # each addition rounds by 2^-53 of the sum; each term by rate r
            # (the rounding of exp's argument) plus a few ulps, and the tail
            # also by 1/gap ulps (the rounding of 1 - e^(-rate))
            return (total + x / gap) * (1.0 + (r - start + rate * r + 1.0 / gap + 16) * 2.0**-52)
        if x == 0.0:
            break
        total += math.log1p(x)
        if total >= -EXP_UNDERFLOW:
            return math.inf
    return total


def epsilon_n(n_vertices: int, alpha: float, m: int, horizon: int) -> float:
    """Finite product (prod_{r=1}^{horizon-1} 1/(1+|V| e^(-alpha r)))^m, exact
    up to rounding (no tail, no tolerance) at any horizon."""
    if m < 1 or horizon < 1:
        raise ValueError("need m >= 1 and horizon >= 1")
    return math.exp(-m * _log_product_tail(n_vertices, alpha, 1, stop=horizon))


def epsilon_lower_bound(n_vertices: int, alpha: float, m: int,
                        tail_tol: float = 1e-12) -> float:
    """Certified lower bound on (prod_{r>=1} 1/(1+|V| e^(-alpha r)))^m.

    The infinite product is truncated once the remaining log-tail is below
    tail_tol, the tail bound is subtracted, and every rounding is taken
    downward, so the returned value never exceeds the true product.

    As a bound on the probability that every allocation stays in an m-clique
    (for any beta >= 0), it refers to the start state with one particle at
    each clique vertex and none elsewhere: each vertex's conditional factor
    `p11_bound(|V|, alpha, r)` then starts at r = 1.  From the empty state
    each vertex's first allocation adds the r = 0 factor 1/(1+|V|), so the
    bound there is this value divided by (1+|V|)^m.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    return _exp_lower(m * _log_product_tail(n_vertices, alpha, 1, tail_tol))


def single_vertex_bound(n_vertices: int, alpha: float, beta: float,
                        tail_tol: float = 1e-12) -> float:
    """Certified lower bound on prod_{n>=0} 1/(1+|V| e^(-(alpha-beta) n)),
    the probability of confining all allocations to a maximal-rate vertex.
    Requires beta < alpha."""
    if beta >= alpha:
        raise ValueError("single-vertex bound needs beta < alpha")
    return _exp_lower(_log_product_tail(n_vertices, alpha - beta, 0, tail_tol))


def _exp_lower(y: float) -> float:
    """e^(-y) rounded down: below e^(-y') for every y' <= y (1 + 2^-53), so
    below the true value whatever math.exp (under an ulp) and the one rounding
    of y do; 0.0 for y = inf and below the normal range."""
    if y == math.inf:
        return 0.0
    v = math.exp(-y) * (1.0 - (y + 4.0) * 2.0**-52)
    return v if v >= sys.float_info.min else 0.0


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


def _z_probs(log_a: np.ndarray, lam: float, z: np.ndarray) -> np.ndarray:
    """Transition law of the difference chain at each row of z, one law
    per column."""
    logits = np.zeros((len(log_a) + 1, len(z)))
    logits[:-1] = log_a[:, None] - lam * z.T
    return probs_from_exponents(logits)


def _drift_rows(log_a: np.ndarray, lam: float, z: np.ndarray) -> np.ndarray:
    """Drift of sum z_i^2 at each row of z (see `z_drift`).  The laws come
    one per column from `_z_probs`; the expectation is a dot product per
    state on their transposed copy, one law per row, since another order of
    its adds moves the maximizer among tied states."""
    p = _z_probs(log_a, lam, z).T.copy()
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
    return _z_probs(log_a, lam, z)[:, 0]


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


def _l1_sphere(dim: int, c0: int, c1: int) -> np.ndarray:
    """All integer vectors of l1 norm c0..c1 in `dim` >= 1 coordinates, one
    per row, radius by radius.

    Within a radius the order is that of the recursive enumeration: the
    first coordinate ascending from -radius, each followed by every
    completion of the remaining norm in the same order, and a last
    coordinate r before -r.
    """
    # sizes[k, r]: vectors of l1 norm r in k coordinates
    sizes = np.zeros((dim + 1, c1 + 1), dtype=np.int64)
    sizes[0, 0] = 1
    for k in range(1, dim + 1):
        sizes[k] = sizes[k - 1]
        sizes[k, 1:] += 2 * np.cumsum(sizes[k - 1])[:-1]
    out = np.empty((sizes[dim, c0:].sum(), dim), dtype=np.int64)
    rest = np.arange(c0, c1 + 1)  # norm left after each prefix, an empty one per radius
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
    built; refuses scans over DEFAULT_ENUM_BUDGET states, an array of the
    states or a size table of `_l1_sphere` over MAX_CELLS cells, and rates
    at which the logits of the outer shell would overflow."""
    _check_logits(log_a, lam, c1)
    dim = len(log_a)
    if (dim + 1) * (c1 + 1) > MAX_CELLS:
        raise ValueError(f"the shell {c0}:{c1} needs a size table of over {MAX_CELLS} cells")
    count = 0
    for radius in range(c0, c1 + 1):
        count += _sphere_size(dim, radius)
        if count > DEFAULT_ENUM_BUDGET or count * dim > MAX_CELLS:
            raise ValueError(
                f"the shell {c0}:{c1} in {dim} dimensions has more than "
                f"{DEFAULT_ENUM_BUDGET} states or {MAX_CELLS} array cells")
    return count


def _scan_max(log_a: np.ndarray, lam: float, c0: int, c1: int) -> tuple[float, np.ndarray, int]:
    """Maximum drift over the shells c0..c1, the first state in enumeration
    order that attains it, and the number of states: the scan is checked
    (`_check_scan`), built as one array and scored in row blocks."""
    count = _check_scan(log_a, lam, c0, c1)
    states = _l1_sphere(len(log_a), c0, c1)
    step = max(1, BLOCK_CELLS // (len(log_a) + 1))
    best, best_z = -math.inf, states[0]
    for start in range(0, count, step):
        d = _drift_rows(log_a, lam, states[start:start + step].astype(np.float64))
        i = int(d.argmax())
        if d[i] > best:
            best, best_z = float(d[i]), states[start + i]
    return best, best_z, count


def drift_shell_max(m: int, a, lam: float, c0: int, c1: int) -> tuple[float, tuple[int, ...], int]:
    """Maximum drift over all z with c0 <= ||z||_1 <= c1.

    Returns (max drift, a maximizing z, number of states scanned).  The z is
    the first maximizer in the enumeration order of the shells, radius by
    radius.  Scans of more than DEFAULT_ENUM_BUDGET states are refused.
    """
    log_a = _chain_log_coefficients(m, a, lam)
    if c0 < 0 or c1 < c0:
        raise ValueError("need 0 <= c0 <= c1")
    best, best_z, count = _scan_max(log_a, lam, c0, c1)
    return best, tuple(best_z.tolist()), count


def negative_drift_radius(m: int, a, lam: float, threshold: float = -0.1,
                          width: int = 10, c_max: int = 200) -> int:
    """Smallest C <= c_max with max drift over ||z||_1 in [C, C+width] below
    `threshold`; outward search from C=1.  Each shell is scored once."""
    if width < 0 or math.isnan(threshold):
        raise ValueError("need width >= 0 and a threshold that is a number")
    log_a = _chain_log_coefficients(m, a, lam)
    tops = [-math.inf]  # tops[r]: max drift over the shell of radius r
    for c in range(1, c_max + 1):
        while len(tops) <= c + width:
            tops.append(_scan_max(log_a, lam, len(tops), len(tops))[0])
        if max(tops[c:c + width + 1]) <= threshold:
            return c
    raise ValueError(f"no radius up to {c_max} gives drift <= {threshold}")
