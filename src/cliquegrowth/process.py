"""The reinforced allocation process: rate model, stable sampling, trajectories.

One particle is allocated per step; vertex v is chosen with probability
proportional to exp(L_v) where L_v is a linear function of the current counts
in the closed neighbourhood of v.  A run that could overflow the exponents on
some path of its length is refused before its first step (`on_grid`),
even if the sampled path would not: the exact oracles' rule for a horizon.

`run` keeps the exponents L = offset + K x, with K = diag(alpha) + beta, and
adds the support of column K[:, v] after each allocation at v.  It draws one
uniform per step (in blocks) and inverts the cumulative weights
exp(L - max L).  Small graphs use a pure-Python kernel with memoized `np.exp`
weights, larger ones a numpy kernel; both give the same allocations bit for
bit, so the output depends only on (seed, stream), never on the kernel.

A run whose exponents stay exact (`on_grid`: L0 and K's nonzero entries
multiples of one 2^-e with 2 reach 2^e < 2^52) may draw most of its steps
by one fast path, chosen once per run.  Where a column of K peaks on its
diagonal, the run can freeze, and on either kernel it draws a frozen law
(`_Frozen`): a set C holding all float weight but a negligible tail, whose
safe vertices leave the law bitwise unchanged, so their draws take one
`searchsorted`.  A small-graph run with no peaked column, such as the
clique regime alpha < beta, never freezes: the count differences inside
the final clique form a positive-recurrent chain, and the run walks a
table of laws keyed by d = L - max L, handing near ties to the kernel
(`_DifferenceChain`).

Every path draws a leading run of a block's uniforms and names the kernel
steps that follow before it draws again; it reads the run's one exponent
array but never writes it.  The kernels advance that array in place, step
by step; after each walk `_allocate` adds the columns of its picks in one
step, exact in any order on the grid.  On every path, allocations, final
exponents and the uniforms consumed are those of the kernels alone.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, chain
from typing import IO, Mapping, NamedTuple

import numpy as np

from .graphs import Graph, is_connected

__all__ = [
    "RateParams",
    "State",
    "Trajectory",
    "make_rng",
    "exponent_vector",
    "transition_probs",
    "run",
    "write_trajectory_csv",
    "MAX_STEPS",
    "MAX_CELLS",
]

REGIME_SINGLE_VERTEX = "single_vertex"
REGIME_CRITICAL = "critical"
REGIME_CLIQUE = "clique"
REGIME_OTHER = "other"

# Graphs with at most this many vertices are sampled by the pure-Python
# kernel, larger ones by the numpy kernel (measured crossover, see CHANGES.md).
SCALAR_KERNEL_MAX_N = 64
# Uniforms drawn per rng.random call.
UNIFORM_BLOCK = 4096
# Kernel steps between two tests for a frozen law, where a run can freeze.
FREEZE_CHUNK = 64
# A frozen law's tail weighs less than this share of its smallest weight: a
# quarter of the 2^-54 below which adding it to any partial sum cannot round.
FROZEN_TAIL = 2.0**-56
# np.exp(d) is exactly 0.0 for every d below this.
EXP_UNDERFLOW = -746.0
# Most np.exp weights the scalar kernel memoizes in one run.
EXP_MEMO_MAX = 1 << 15
# Most cells the difference chain's table holds in one run: per state, its
# key of n exponents and four entries per live vertex.
CHAIN_MAX_CELLS = 1 << 16
# The difference chain's tail: the coordinates more than this below the top.
CHAIN_TAIL = -37.0
# A re-derived tail starts this far below CHAIN_TAIL, and a live exponent
# this far below that again ends the walk.
CHAIN_CUT_SLACK = 8.0
# Most steps one run takes: its int64 allocations array is then 800 MB.
MAX_STEPS = 10**8
# Most cells of one array: a graph's n x n arrays, a level of count vectors,
# a drift shell or its size table.  As int64 that is 800 MB.
MAX_CELLS = 10**8
# Trajectory CSV rows encoded as one byte table per write.
CSV_BLOCK = 1 << 16


@dataclass(frozen=True)
class RateParams:
    """Interaction parameters of the allocation process.

    `alpha` weighs a vertex's own count in its exponent: one float, or one
    weight per vertex.  `beta` weighs a neighbour's count: one float, or
    sorted `(v, u, b)` triples, b the weight of u's count inside v's exponent
    for adjacent v, u.  `offset` (default zero) adds a constant to each
    exponent, a prefactor on the rate.  Uniform means both rates are floats.
    """

    alpha: float | tuple[float, ...]
    beta: float | tuple[tuple[int, int, float], ...]
    offset: tuple[float, ...] | None = None

    def __post_init__(self):
        # the vertex indices in the beta triples are finite too
        if not all(np.isfinite(np.asarray(f, dtype=np.float64)).all()
                   for f in (self.alpha, self.beta, self.offset or ())):
            raise ValueError("rate parameters must be finite")
        for v, u, _ in self.beta if isinstance(self.beta, tuple) else ():
            try:
                operator.index(v), operator.index(u)
            except TypeError:
                raise ValueError(f"beta_vu pair ({v}, {u}) needs integer vertex indices") from None

    @staticmethod
    def uniform(alpha: float, beta: float,
                base_offset_v: tuple[float, ...] | None = None) -> "RateParams":
        return RateParams(float(alpha), float(beta), _offset_tuple(base_offset_v))

    @staticmethod
    def general(alpha_v, beta_vu: Mapping[tuple[int, int], float],
                base_offset_v=None) -> "RateParams":
        return RateParams(
            tuple(float(a) for a in alpha_v),
            tuple(sorted((v, u, float(b)) for (v, u), b in beta_vu.items())),
            _offset_tuple(base_offset_v),
        )

    @property
    def regime(self) -> str:
        """Parameter regime: single_vertex (beta<alpha), critical (alpha=beta),
        clique (alpha<beta) for positive uniform parameters, else other."""
        a, b = self.alpha, self.beta
        if isinstance(a, tuple) or isinstance(b, tuple) or not (a > 0 and b > 0):
            return REGIME_OTHER
        if b < a:
            return REGIME_SINGLE_VERTEX
        if a == b:
            return REGIME_CRITICAL
        return REGIME_CLIQUE

    @property
    def lam(self) -> float:
        """The regime rate: alpha in the critical regime, beta-alpha in the
        clique regime.  Undefined elsewhere."""
        r = self.regime
        if r == REGIME_CRITICAL:
            return self.alpha
        if r == REGIME_CLIQUE:
            return self.beta - self.alpha
        raise ValueError(f"lambda is undefined in regime {r!r}")

    def arrays(self, g: Graph) -> tuple[np.ndarray, np.ndarray]:
        """(K, offset) for graph g, materialized once and read-only.  Raises
        if per-vertex or per-pair rates do not fit g."""
        return _materialized_arrays(self, g)[:2]

    def interaction_matrix(self, g: Graph) -> np.ndarray:
        """K = diag(alpha) + beta for graph g: the exponents are
        L = offset + K x, and one allocation at v adds column K[:, v]."""
        return _materialized_arrays(self, g)[0]


def _offset_tuple(offset) -> tuple[float, ...] | None:
    return None if offset is None else tuple(float(c) for c in offset)


@lru_cache(maxsize=1)
def _materialized_arrays(p: RateParams, g: Graph):
    """For the last (params, g) asked, the one that a command, a replica or
    an oracle call reads, kept read-only: K, the offset, the support (indices,
    values) of each column K[:, v], which one allocation at v adds, for the
    fast paths peaked, with peaked[u, v] saying K[u, v] equals K[v, v] and
    column v of K peaks there (None if no column does), and the supports'
    values end to end, K's nonzero entries (`on_grid`).  Refuses a graph
    whose n x n arrays would exceed MAX_CELLS cells."""
    n = g.n
    if n * n > MAX_CELLS:
        raise ValueError(f"a graph of {n} vertices needs more than {MAX_CELLS} array cells")
    alpha_vec = np.asarray(p.alpha, dtype=np.float64)
    if alpha_vec.ndim == 0:
        alpha_vec = np.full(n, alpha_vec)
    elif len(alpha_vec) != n:
        raise ValueError(f"alpha_v has length {len(alpha_vec)}, graph has {n} vertices")
    beta_mat = np.zeros((n, n), dtype=np.float64)
    if isinstance(p.beta, tuple):
        for v, u, b in p.beta:
            if not (0 <= v < n and u in g.adjacency[v]):
                raise ValueError(f"beta_vu defined for non-adjacent pair ({v}, {u})")
            beta_mat[v, u] = b
    else:
        beta_mat[np.repeat(np.arange(n), list(map(len, g.adjacency))),
                 list(chain.from_iterable(g.adjacency))] = p.beta
    offset = np.zeros(n) if p.offset is None else np.asarray(p.offset, dtype=np.float64)
    if len(offset) != n:
        raise ValueError("base_offset_v length does not match the graph")
    # beta_mat[v, u] is the weight of u's count in v's exponent
    K = beta_mat + np.diag(alpha_vec)
    nonzero = K.T != 0
    idx, val = nonzero.nonzero()[1], K.T[nonzero]
    diag = K.diagonal()
    peaked = (K == diag) & (K.max(axis=0) <= diag)
    for a in (K, offset, idx, val, peaked):
        a.setflags(write=False)
    ends = np.cumsum(nonzero.sum(axis=1)).tolist()
    supports = tuple((idx[a:b], val[a:b]) for a, b in zip([0] + ends, ends))
    return K, offset, supports, peaked if peaked.any() else None, val


@dataclass
class State:
    """Per-vertex particle counts."""

    counts: np.ndarray

    def __post_init__(self):
        try:
            counts = np.asarray(self.counts)
            with np.errstate(invalid="ignore"):
                self.counts = counts.astype(np.int64)
            bad = counts.ndim != 1 or not (self.counts == counts).all() or (self.counts < 0).any()
        except OverflowError:  # an integer past 64 bits
            bad = True
        if bad:
            raise ValueError("counts must be one non-negative integer per vertex")

    @staticmethod
    def zeros(n: int) -> "State":
        return State(np.zeros(n, dtype=np.int64))

    @staticmethod
    def from_label_counts(g: Graph, label_counts: Mapping[int, int]) -> "State":
        counts = [0] * g.n
        for lab, c in label_counts.items():
            counts[g.index(lab)] = c
        return State(counts)

    def copy(self) -> "State":
        return State(self.counts.copy())


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator: PCG64 keyed by SeedSequence([seed, stream]).

    Replica i of a multi-replica experiment uses stream=i, giving independent
    streams that are reproducible from the single master seed.
    """
    try:
        key = [operator.index(seed), operator.index(stream)]
    except TypeError:
        raise ValueError(f"seed and stream must be integers, not {seed!r} and {stream!r}") from None
    if min(key) < 0:
        raise ValueError("seed and stream must be non-negative")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def exponent_vector(params: RateParams, g: Graph, state: State) -> np.ndarray:
    """All rate exponents, computed from scratch.  Raises if the state does
    not fit g or an exponent is not a finite float."""
    if len(state.counts) != g.n:
        raise ValueError("initial state size does not match the graph")
    K, offset = params.arrays(g)
    with np.errstate(over="ignore", invalid="ignore"):
        exps = offset + K @ state.counts.astype(np.float64)
    if not np.isfinite(exps).all():
        raise ValueError("rate exponents are not finite at the given counts; "
                         "use smaller rates or counts")
    return exps


def transition_probs(params: RateParams, g: Graph, state: State) -> np.ndarray:
    """One-step allocation probabilities, exp(L_v - max L) normalized."""
    return probs_from_exponents(exponent_vector(params, g, state))


def exp_weights(exponents: np.ndarray) -> np.ndarray:
    """exp(L - max L) along axis 0: one weight vector per column of a 2-D
    array, in its memory order, so that a C-ordered block of laws is a few
    whole-column ufunc calls."""
    w = exponents - exponents.max(axis=0)
    return np.exp(w, out=w)


def column_sum(w: np.ndarray) -> np.ndarray:
    """Sums along axis 0, each with the bits of numpy's sum of its column
    as one contiguous row.  Below 8 rows numpy adds in order from 0.0 either
    way.  A C-ordered w of 8 to 128 rows and at least as many columns is
    added by whole rows as numpy adds a row of that length: eight
    interleaved partial sums, their tree, then the rest in order, from 0.0,
    so that zeros sum to 0.0, never -0.0.  Otherwise it sums the rows of
    w's transpose, a view when w is F-ordered; a copy of a w with more rows
    than columns, or more than 128, costs less than that many slices."""
    n = len(w)
    if n < 8 or w.ndim == 1:
        return w.sum(axis=0)
    if not w.flags.c_contiguous or n > min(128, w.shape[1]):
        return np.ascontiguousarray(w.T).sum(axis=1)
    end = n - n % 8
    part = w[:8]
    for i in range(8, end, 8):
        part = part + w[i:i + 8]
    pairs = part[0::2] + part[1::2]
    total = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
    for row in w[end:]:
        total += row
    return total + 0.0


def probs_from_exponents(exponents: np.ndarray) -> np.ndarray:
    """The softmax along axis 0: `exp_weights` over its `column_sum`, one
    probability vector per column of a 2-D array."""
    w = exp_weights(exponents)
    return w / column_sum(w)


def _scalar_kernel(L: np.ndarray, pairs, memo: dict, uniforms: list) -> list:
    """One vertex per uniform, advancing the exponent array L in place;
    `pairs[v]` lists column K[:, v]'s support as (index, value) pairs.

    The same arithmetic as `_numpy_kernel`, step for step, on Python floats:
    weights exp(L_j - max L) summed left to right, then the first index whose
    partial sum exceeds u * total.  Weights come from `np.exp`, memoized in
    `memo` per run (never `math.exp`, which differs from `np.exp` in the last
    bit for some arguments); below EXP_UNDERFLOW `np.exp` returns 0.0, so
    those weights are 0.0 without a lookup.
    """
    exps = L.tolist()
    get = memo.get
    picks = []
    for u in uniforms:
        top = max(exps)
        total = 0.0
        cum = []
        append = cum.append
        for x in exps:
            d = x - top
            if d >= EXP_UNDERFLOW:
                w = get(d)
                if w is None:
                    w = float(np.exp(d))
                    if len(memo) < EXP_MEMO_MAX:
                        memo[d] = w
                total += w
            append(total)
        # no clamp: u <= 1 - 2^-53 and total >= 1 (the top weight is 1.0),
        # so the exact u * total lies total 2^-53 or more below total, over
        # half the float spacing just below it (a whole one at a power of
        # two), and rounds below total; the search stays inside the list
        v = bisect_right(cum, u * total)
        for j, k in pairs[v]:
            exps[j] += k
        picks.append(v)
    L[:] = exps
    return picks


def _numpy_kernel(L: np.ndarray, supports, uniforms: list) -> list:
    """One vertex per uniform, advancing the exponent array L in place:
    cumsum(exp(L - max L)) and a right-side search for u * total, which
    stays below total as in `_scalar_kernel`."""
    w = np.empty_like(L)
    cum = np.empty_like(L)
    picks = []
    for u in uniforms:
        # the ufuncs behind L.max() and np.cumsum, without their Python wrappers
        np.subtract(L, np.maximum.reduce(L), out=w)
        np.exp(w, out=w)
        np.add.accumulate(w, out=cum)
        v = int(cum.searchsorted(u * cum[-1], side="right"))
        idx, val = supports[v]
        L[idx] += val
        picks.append(v)
    return picks


def on_grid(exps0: np.ndarray, deltas: np.ndarray, horizon: int) -> bool:
    """Whether `horizon` steps adding entries of `deltas` to the exponents
    exps0 stay exact.  Refuses the steps unless 2 reach, a bound on
    |L_i - L_j|, is finite, where the reach |exps0|max + horizon
    |deltas|max bounds |L_i|.  They are exact if exps0 and deltas are
    multiples of 2^-e with 2 reach 2^e < 2^52, so that every exponent, sum
    and difference on any path of `horizon` steps is a float."""
    reach = float(np.abs(exps0).max()) + horizon * float(np.abs(deltas).max(initial=0.0))
    if not np.isfinite(2.0 * reach):
        raise ValueError(f"rate exponents could turn non-finite within {horizon} steps")
    e = min(51 - math.frexp(reach)[1], 64)
    # fmod is exact, and unlike x 2^e it cannot overflow
    return e >= 0 and not any(np.fmod(x, 2.0**-e).any() for x in (exps0, deltas))


class _Law(NamedTuple):
    """A frozen law (`_frozen_law`): the set C (ascending), its weights'
    partial sums cum, its safe flags, and the mask of the vertices off C."""

    C: np.ndarray
    cum: np.ndarray
    safe: np.ndarray
    tail: np.ndarray


def _frozen_law(exps: np.ndarray, peaked: np.ndarray,
                last: _Law | None = None) -> _Law | None:
    """The law of the next steps at exponents exps if it is frozen, else
    None.  Its set C carries all float weight exp(L - max L) but a tail
    below FROZEN_TAIL of C's smallest weight; cum are C's weights summed in
    index order; safe[i] says column K[:, C[i]] is constant on C and no
    larger off it (`peaked` on C).

    With exact exponents (`on_grid`), an allocation at a safe vertex
    adds one constant to C's exponents and no more to the others, so C's
    weights stay bitwise the same and the tail only shrinks.  Each kernel
    partial sum is then a partial sum of C, since adding the tail does not
    round, and the tail stays below 2^-53 <= u * total for every u > 0: the
    kernels draw C[cum.searchsorted(u * total, side="right")] while u > 0
    and every pick before is safe.

    C is the smallest such set (`_top_part`).  It lies inside every such
    set, so it is searched for first inside the C of `last`, a law found
    before, whose safe flags still hold if C is the same; then
    inside the vertices weighing 2^-56 or more, which are in every such
    set; then among all vertices.
    """
    w = np.exp(exps - np.maximum.reduce(exps))
    C = None
    if last is not None:
        C = _top_part(w, last.C, np.add.reduce(w, where=last.tail))
        if C is last.C:
            return _Law(C, np.add.accumulate(w.take(C)), last.safe, last.tail)
    if C is None:
        heavy = w >= FROZEN_TAIL
        # a safe vertex's column peaks on every heavy vertex: a cheap test
        # that fails most laws
        if not np.logical_and.reduce(peaked[heavy], axis=0).any():
            return None
        C = _top_part(w, heavy.nonzero()[0], np.add.reduce(w, where=~heavy))
        if C is None:
            C = _top_part(w, np.arange(len(w)), 0.0)
    safe = np.logical_and.reduce(peaked.take(C, axis=0).take(C, axis=1), axis=0)
    if not safe.any():
        return None
    tail = np.ones(len(w), dtype=bool)
    tail[C] = False
    return _Law(C, np.add.accumulate(w.take(C)), safe, tail)


def _top_part(w: np.ndarray, C: np.ndarray, below: float):
    """The smallest set of C's heaviest vertices (ascending) whose other
    weights in w[C], with `below` more, sum below FROZEN_TAIL of its smallest
    weight: C itself if no smaller set does, None if not even C does.  The
    ascending weights of C are summed from `below` and cut at the last
    point where the sum is below FROZEN_TAIL of the next weight."""
    wc = w.take(C)
    low = np.minimum.reduce(wc)
    if low >= FROZEN_TAIL:
        # each weight of C is at least 2^-56 and at most 1, so no part of
        # C is a tail of the rest
        return C if below < FROZEN_TAIL * low else None
    order = wc.argsort()
    ws = wc.take(order)
    rest = np.add.accumulate(np.concatenate(([below], ws[:-1])))
    cut = (rest < FROZEN_TAIL * ws).nonzero()[0]
    if not len(cut):
        return None
    return C if cut[-1] == 0 else np.sort(C.take(order[cut[-1]:]))


class _Frozen:
    """The kernels' picks while the run's law is frozen (`_frozen_law`),
    drawn at once in one search over C's partial sums.

    A walk with no law tests for one, from the last law's C; a test that
    finds none hands the kernel FREEZE_CHUNK steps.  A law ends at its
    first unsafe pick, which it still draws, or at a uniform of 0.0, whose
    one step the kernel takes; the next walk then tests again at once, so an
    early exit costs one test and no kernel chunk.  A law that still holds
    after the last uniform it was given is kept for the next walk.  A walk
    reads the run's exponents L only to test for a law.
    """

    def __init__(self, L: np.ndarray, peaked: np.ndarray):
        self.L, self.peaked = L, peaked
        self.law = self.last = None

    def walk(self, us: np.ndarray):
        """(vertices, kernel steps) for a leading run of the uniforms us:
        the law's picks up to and with the first unsafe one, scanned in
        windows growing from FREEZE_CHUNK."""
        if self.law is None:
            self.law = _frozen_law(self.L, self.peaked, self.last)
            if self.law is None:
                return (), FREEZE_CHUNK
        law = self.last = self.law
        parts, start, size = [], 0, FREEZE_CHUNK
        while start < len(us):
            u = us[start:start + size]
            # below len(C): cum[-1] >= 1, C holding the top weight 1.0
            pick = law.cum.searchsorted(u * law.cum[-1], side="right")
            ok = law.safe[pick] & (u > 0.0)
            if not np.logical_and.reduce(ok):
                j = int(ok.argmin())
                parts.append(pick[:j + (u[j] > 0.0)])
                break
            parts.append(pick)
            start, size = start + size, 8 * size
        picks = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if len(picks) < len(us) or not law.safe[picks[-1]]:
            self.law = None
        return law.C[picks], int(len(picks) < len(us) and us[len(picks)] == 0.0)


# A band's link: the kernel takes the step.
_BAND = (None, None, 0.0)


class _DifferenceChain:
    """The scalar kernel's picks on the exact grid (`on_grid`), one table
    lookup a step, for runs that cannot freeze.

    On the grid the kernel's law depends only on d = L - max L, which it
    computes exactly.  A state of the table is keyed by d with its *tail*,
    the coordinates below CHAIN_TAIL, keyed as -inf.  It keeps the partial
    sums c_i of its live weights (`math.exp`, summed left to right) over
    their total, and per live vertex v a link (v, state after a pick at v,
    rise), that state's key being d + K[:, v] less its max with the same
    tail.

    These fractions are near the kernel's, not equal.  To first order each
    is within (2n + 7) 2^-53 of the exact one (two ulps per weight from
    either exp, 2^-53 per add over at most n adds, one division), and the
    kernel's partial sum over its total, against u rounded once, within
    (3n + 8) 2^-53 of it, the tail's n weights below e^-37 < 2^-53
    included: in all under half of near = (n + 8) 2^-49.  So for a uniform
    u farther than near from 0, from 1 and from every c_i / total, the
    chain picks what the kernel picks.  The state's `edges` are those
    fractions plus and minus near, made ascending; u's gap among them is a
    link, and the even gaps, the *bands*, link to `_BAND`: a uniform in a
    band, 0.0 among them, ends the walk, and the kernel takes its step.

    The walk carries a bound on the tail's exponents; a link adds to it its
    rise, the largest tail entry of K[:, v] less the step's shift.  A walk
    ends at a band, when the bound reaches the state's threshold CHAIN_TAIL,
    and on entering a state with a live exponent below CHAIN_TAIL - 2
    CHAIN_CUT_SLACK (threshold -inf), so that a coordinate falling away
    joins the tail and keys recur.  The next walk re-derives its state from
    the run's exact exponents L = L0 + K x, to which `_allocate` has added
    the picks, with the tail below CHAIN_TAIL - CHAIN_CUT_SLACK, so it takes
    at least one step.  A full table (CHAIN_MAX_CELLS cells) hands the rest
    of the run to the kernel.
    """

    def __init__(self, L: np.ndarray, K: np.ndarray):
        self.L, self.K, self.near = L, K, (len(L) + 8) * 2.0**-49
        self.table: dict[tuple, tuple] = {}
        self.cells = 0
        self.state, self.bound = self._resync()

    def walk(self, us: np.ndarray):
        """(vertices as an int64 array, kernel steps) for a leading run of
        the uniforms us, up to the bound reaching its threshold (no kernel
        step), a uniform in a band (one kernel step) or a full table (`state`
        None: the kernel takes the rest of the run, MAX_STEPS)."""
        picks: list[int] = []
        append = picks.append
        s, bound, k = self.state, self.bound, 0
        if s is not None and bound >= s[2]:
            s, bound = self.state, self.bound = self._resync()
        if s is None:
            return np.empty(0, dtype=np.int64), MAX_STEPS
        edges, links, thr, _ = s
        for u in us.tolist():
            if bound >= thr:
                break
            pos = bisect_right(edges, u)
            v, nxt, rise = links[pos]
            if nxt is None:
                if v is None:  # a band
                    bound, k = math.inf, 1
                    break
                nxt, rise = self._successor(s, pos)
                if nxt is None:
                    append(v)
                    s, k = None, MAX_STEPS  # v is the kernel's pick
                    break
            append(v)
            bound += rise
            s = nxt
            edges, links, thr, _ = s
        self.state, self.bound = s, bound
        return np.fromiter(picks, np.int64, len(picks)), k

    def _resync(self):
        """(state of the exact exponents L, largest tail exponent); the
        state is None if it is new and the table is full."""
        exps = self.L.tolist()
        top = max(exps)
        d = [x - top for x in exps]
        cut = CHAIN_TAIL - CHAIN_CUT_SLACK
        key = tuple(x if x >= cut else -math.inf for x in d)
        return self._state(key), max((x for x in d if x < cut), default=-math.inf)

    def _state(self, key: tuple):
        """The table's state for key, built on a miss; None if it is new and
        the table is full."""
        s = self.table.get(key)
        if s is not None or self.cells >= CHAIN_MAX_CELLS:
            return s
        live = [j for j, x in enumerate(key) if x > -math.inf]
        cum = list(accumulate(math.exp(key[j]) for j in live))
        bounds = chain.from_iterable((c / cum[-1] - self.near, c / cum[-1] + self.near)
                                     for c in [0.0] + cum)
        edges = list(accumulate(bounds, max))[1:-1]
        links = [_BAND, *chain.from_iterable(((v, None, 0.0), _BAND) for v in live)]
        low = min(key[j] for j in live)
        thr = CHAIN_TAIL if low >= CHAIN_TAIL - 2 * CHAIN_CUT_SLACK else -math.inf
        s = self.table[key] = (edges, links, thr, key)
        self.cells += len(key) + 4 * len(live)
        return s

    def _successor(self, s, k: int):
        """Link position k of state s to the state after a pick there:
        (that state, the link's rise of the tail bound); the state is None
        if the table is full."""
        _, links, _, key = s
        v = links[k][0]
        col = self.K[:, v].tolist()
        moved = [x + c for x, c in zip(key, col)]
        shift = max(moved)
        nxt = self._state(tuple(x - shift for x in moved))
        rise = max((c for x, c in zip(key, col) if x == -math.inf), default=shift) - shift
        if nxt is not None:
            links[k] = (v, nxt, rise)
        return nxt, rise


def _allocate(params: RateParams, g: Graph, x0: State, rng, steps: int,
              scalar: bool) -> np.ndarray:
    """Allocations for `steps` uniforms of rng.random from x0, by the scalar
    or the numpy kernel (the two agree bit for bit), once `on_grid` passes.
    Uniform 0 selects the first vertex with positive weight.

    A run on the exact grid (`on_grid`) has one fast path: the frozen law
    where a column of K peaks on its diagonal, on either kernel, else the
    difference chain on the scalar kernel's graphs.  In each block of
    uniforms, each walk of the path is followed by the kernel steps it names.
    The kernels advance the one exponent array L in place; a walk only
    reads it, and the columns of its picks are added here.
    """
    L = exponent_vector(params, g, x0)
    K, _, supports, peaked, entries = _materialized_arrays(params, g)
    exact = on_grid(L, entries, steps)
    if scalar:
        pairs = [list(zip(idx.tolist(), val.tolist())) for idx, val in supports]
        draw = partial(_scalar_kernel, L, pairs, {})
    else:
        draw = partial(_numpy_kernel, L, supports)
    path = None
    if exact and peaked is not None:
        path = _Frozen(L, peaked)
    elif exact and scalar:
        path = _DifferenceChain(L, K)
    out = np.empty(steps, dtype=np.int64)
    done = 0
    while done < steps:
        us = rng.random(min(UNIFORM_BLOCK, steps - done))
        i = 0
        while i < len(us):
            picks, k = path.walk(us[i:]) if path else ((), len(us))
            if len(picks):
                # the path's picks, exact in any order on the grid
                counts = np.bincount(picks, minlength=len(L))
                hit = counts.nonzero()[0]
                L += K.take(hit, axis=1) @ counts.take(hit)
            out[done:done + len(picks)] = picks
            done, i = done + len(picks), i + len(picks)
            k = min(k, len(us) - i)
            if k:
                out[done:done + k] = draw(us[i:i + k].tolist())
            done, i = done + k, i + k
    return out


@dataclass
class Trajectory:
    """A realized run: initial state plus the ordered allocation vertices.

    Replaying `allocations` from `initial` reproduces the final state.
    """

    initial: State
    allocations: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.allocations)

    def final_counts(self) -> np.ndarray:
        return self.counts_at(self.n_steps)

    def final_state(self) -> State:
        return State(self.final_counts())

    def counts_at(self, n: int) -> np.ndarray:
        """Counts after the first n allocations."""
        n = _index(n, self.n_steps + 1, "step", "the run's steps")
        counts = self.initial.counts.copy()
        if n:
            np.add.at(counts, self.allocations[:n], 1)
        return counts

    def count_paths(self, vertices) -> np.ndarray:
        """Running counts, shape (n_steps+1, len(vertices)); row 0 is initial."""
        verts, n = list(vertices), len(self.initial.counts)
        out = np.empty((self.n_steps + 1, len(verts)), dtype=np.int64)
        for j, v in enumerate(verts):
            v = _index(v, n, "vertex", "the graph's vertices")
            out[0, j] = self.initial.counts[v]
            np.cumsum(self.allocations == v, out=out[1:, j])
            out[1:, j] += self.initial.counts[v]
        return out


def _index(x, stop: int, what: str, where: str) -> int:
    """x as an int in 0..stop - 1, which no non-integer is."""
    i = operator.index(x) if hasattr(x, "__index__") else -1
    if not 0 <= i < stop:
        raise ValueError(f"{what} {x} is outside {where} 0..{stop - 1}")
    return i


def run(g: Graph, params: RateParams, x0: State, steps: int,
        seed: int, stream: int = 0) -> Trajectory:
    """Run the allocation process for `steps` steps from x0.

    Rejects disconnected graphs (the localisation statements assume
    connectivity) and, before the first step, runs that could overflow on
    some path of `steps` allocations (`on_grid`), even if not on this one.
    Deterministic given (seed, stream).
    """
    if not 0 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must be in [0, {MAX_STEPS}]")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    alloc = _allocate(params, g, x0, make_rng(seed, stream), steps,
                      scalar=g.n <= SCALAR_KERNEL_MAX_N)
    return Trajectory(initial=x0.copy(), allocations=alloc)


def write_trajectory_csv(fh: IO[str], t: Trajectory, g: Graph) -> None:
    """Write `step,vertex` rows (1-based steps, vertex labels).

    Each block of CSV_BLOCK rows is one uint8 table, a row's cells its step's
    digits right-aligned, a comma, its label's bytes left-aligned and a
    newline, written as the table's nonzero cells: a step's leading cells
    and a label's padding are zero, and no label holds a NUL."""
    texts = [str(lab) for lab in g.labels]
    width = max(map(len, texts))
    labels = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)
    fh.write("step,vertex\n")
    for start in range(0, t.n_steps, CSV_BLOCK):
        block = t.allocations[start:start + CSV_BLOCK]
        stop = start + len(block)
        digits = len(str(stop))
        cells = np.empty((len(block), digits + width + 2), dtype=np.uint8)
        # steps are at most MAX_STEPS < 2^32, and uint32 divides faster
        x = np.arange(start + 1, stop + 1, dtype=np.uint32)
        for c in range(digits - 1, -1, -1):
            x, r = np.divmod(x, 10)
            cells[:, c] = r + ord("0")
            # the steps below 10^(digits - 1 - c), a prefix of the ascending
            # block, have no digit in this cell
            cells[:max(10 ** (digits - 1 - c) - start - 1, 0), c] = 0
        cells[:, digits] = ord(",")
        cells[:, digits + 1:-1] = labels[block]
        cells[:, -1] = ord("\n")
        fh.write(cells[cells != 0].tobytes().decode("ascii"))
