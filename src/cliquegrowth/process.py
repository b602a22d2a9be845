"""The reinforced allocation process: rate model, stable sampling, trajectories.

One particle is allocated per step; vertex v is chosen with probability
proportional to exp(L_v) where L_v is a linear function of the current counts
in the closed neighbourhood of v.  All probability work happens on the
exponents L_v with max-subtraction, never on the raw rates, so runs of 10^6+
steps stay finite in 64-bit floats.

`run` keeps the exponents L = offset + K x, with K = diag(alpha) + beta, and
adds the support of column K[:, v] after each allocation at v.  It draws one
uniform per step (in blocks) and inverts the cumulative weights
exp(L - max L).  Small graphs use a pure-Python kernel with memoized `np.exp`
weights, larger ones a numpy kernel; both give the same allocations bit for
bit, so the output depends only on (seed, stream), never on the kernel.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import IO, Mapping

import numpy as np

from .graphs import Graph, is_connected

__all__ = [
    "RateParams",
    "State",
    "Trajectory",
    "make_rng",
    "rate_exponent",
    "exponent_vector",
    "transition_probs",
    "run",
    "write_trajectory_csv",
    "write_state_csv",
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
# np.exp(d) is exactly 0.0 for every d below this.
EXP_UNDERFLOW = -746.0
# Most np.exp weights the scalar kernel memoizes in one run.
EXP_MEMO_MAX = 1 << 15


@dataclass(frozen=True)
class RateParams:
    """Interaction parameters of the allocation process.

    Uniform mode uses one own-count weight `alpha` and one neighbour-count
    weight `beta` for every vertex.  General mode carries per-vertex weights
    `alpha_v` and per-ordered-pair weights `beta_vu` (the weight of u's count
    inside v's exponent), supported on adjacent pairs only.  `base_offset_v`
    adds a constant to each exponent, i.e. a multiplicative prefactor on the
    rate; it defaults to zero.
    """

    mode: str
    alpha: float | None = None
    beta: float | None = None
    alpha_v: tuple[float, ...] | None = None
    beta_vu: tuple[tuple[int, int, float], ...] | None = None
    base_offset_v: tuple[float, ...] | None = None

    def __post_init__(self):
        values = [self.alpha, self.beta, *(self.alpha_v or ()),
                  *(b for _, _, b in self.beta_vu or ()), *(self.base_offset_v or ())]
        if not all(math.isfinite(x) for x in values if x is not None):
            raise ValueError("rate parameters must be finite")

    @staticmethod
    def uniform(alpha: float, beta: float,
                base_offset_v: tuple[float, ...] | None = None) -> "RateParams":
        return RateParams(mode="uniform", alpha=float(alpha), beta=float(beta),
                          base_offset_v=None if base_offset_v is None
                          else tuple(float(c) for c in base_offset_v))

    @staticmethod
    def general(alpha_v, beta_vu: Mapping[tuple[int, int], float],
                base_offset_v=None) -> "RateParams":
        return RateParams(
            mode="general",
            alpha_v=tuple(float(a) for a in alpha_v),
            beta_vu=tuple(sorted((v, u, float(b)) for (v, u), b in beta_vu.items())),
            base_offset_v=None if base_offset_v is None
            else tuple(float(c) for c in base_offset_v),
        )

    @property
    def regime(self) -> str:
        """Parameter regime: single_vertex (beta<alpha), critical (alpha=beta),
        clique (alpha<beta) for positive uniform parameters, else other."""
        if self.mode != "uniform":
            return REGIME_OTHER
        a, b = self.alpha, self.beta
        if not (a > 0 and b > 0):
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

    def arrays(self, g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialize (alpha_vec, beta_mat, offset_vec) for graph g.

        beta_mat[v, u] is the weight of u's count in v's exponent; zero off
        the adjacency.  Raises if general-mode arrays do not fit g.
        """
        return _materialized_arrays(self, g)

    def interaction_matrix(self, g: Graph) -> np.ndarray:
        """K = diag(alpha) + beta for graph g: the exponents are
        L = offset + K x, and one allocation at v adds column K[:, v]."""
        alpha_vec, beta_mat, _ = self.arrays(g)
        return beta_mat + np.diag(alpha_vec)


@lru_cache(maxsize=64)
def _materialized_arrays(p: RateParams, g: Graph):
    n = g.n
    if p.mode == "uniform":
        alpha_vec = np.full(n, p.alpha, dtype=np.float64)
        beta_mat = np.zeros((n, n), dtype=np.float64)
        for v in range(n):
            for u in g.adjacency[v]:
                beta_mat[v, u] = p.beta
    elif p.mode == "general":
        if len(p.alpha_v) != n:
            raise ValueError(f"alpha_v has length {len(p.alpha_v)}, graph has {n} vertices")
        alpha_vec = np.asarray(p.alpha_v, dtype=np.float64)
        beta_mat = np.zeros((n, n), dtype=np.float64)
        for v, u, b in p.beta_vu:
            if not (0 <= v < n and 0 <= u < n) or u not in g.adjacency[v]:
                raise ValueError(f"beta_vu defined for non-adjacent pair ({v}, {u})")
            beta_mat[v, u] = b
    else:
        raise ValueError(f"unknown mode {p.mode!r}")
    if p.base_offset_v is None:
        offset = np.zeros(n, dtype=np.float64)
    else:
        if len(p.base_offset_v) != n:
            raise ValueError("base_offset_v length does not match the graph")
        offset = np.asarray(p.base_offset_v, dtype=np.float64)
    alpha_vec.setflags(write=False)
    beta_mat.setflags(write=False)
    offset.setflags(write=False)
    return alpha_vec, beta_mat, offset


@dataclass
class State:
    """Per-vertex particle counts."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")

    @staticmethod
    def zeros(n: int) -> "State":
        return State(np.zeros(n, dtype=np.int64))

    @staticmethod
    def from_label_counts(g: Graph, label_counts: Mapping[int, int]) -> "State":
        counts = np.zeros(g.n, dtype=np.int64)
        for lab, c in label_counts.items():
            counts[g.index(lab)] = c
        return State(counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def copy(self) -> "State":
        return State(self.counts.copy())


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator: PCG64 keyed by SeedSequence([seed, stream]).

    Replica i of a multi-replica experiment uses stream=i, giving independent
    streams that are reproducible from the single master seed.
    """
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be non-negative")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), int(stream)])))


def rate_exponent(params: RateParams, g: Graph, state: State, v: int) -> float:
    """L_v = offset_v + alpha_v x_v + sum over neighbours u of beta_vu x_u."""
    alpha_vec, beta_mat, offset = params.arrays(g)
    x = state.counts
    return float(offset[v] + alpha_vec[v] * x[v] + beta_mat[v] @ x)

def exponent_vector(params: RateParams, g: Graph, state: State) -> np.ndarray:
    """All rate exponents, computed from scratch."""
    alpha_vec, beta_mat, offset = params.arrays(g)
    x = state.counts.astype(np.float64)
    return offset + alpha_vec * x + beta_mat @ x


def transition_probs(params: RateParams, g: Graph, state: State) -> np.ndarray:
    """One-step allocation probabilities, exp(L_v - max L) normalized."""
    return probs_from_exponents(exponent_vector(params, g, state))


def probs_from_exponents(exponents: np.ndarray) -> np.ndarray:
    """exp(L - max L) normalized along the last axis: one probability vector
    per row of a 2-D array."""
    w = np.exp(exponents - exponents.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def _columns(params: RateParams, g: Graph) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per vertex v, the support (indices, values) of column v of the
    interaction matrix K = diag(alpha) + beta: what one allocation at v adds
    to the exponents."""
    K = params.interaction_matrix(g)
    cols = []
    for v in range(g.n):
        idx = np.flatnonzero(K[:, v])
        cols.append((idx, K[idx, v]))
    return cols


def _scalar_kernel(L: list, columns, uniforms):
    """Yield one vertex per uniform, advancing the exponent list L in place.

    The same arithmetic as `_numpy_kernel`, step for step, on Python floats:
    weights exp(L_j - max L) summed left to right, then the first index whose
    partial sum exceeds u * total.  Weights come from `np.exp`, memoized per
    run (never `math.exp`, which differs from `np.exp` in the last bit for
    some arguments); below EXP_UNDERFLOW `np.exp` returns 0.0, so those
    weights are 0.0 without a lookup.
    """
    cols = [list(zip(idx.tolist(), val.tolist())) for idx, val in columns]
    memo: dict[float, float] = {}
    get = memo.get
    last = len(L) - 1
    for u in uniforms:
        top = max(L)
        total = 0.0
        cum = []
        append = cum.append
        for x in L:
            d = x - top
            if d >= EXP_UNDERFLOW:
                w = get(d)
                if w is None:
                    w = float(np.exp(d))
                    if len(memo) < EXP_MEMO_MAX:
                        memo[d] = w
                total += w
            append(total)
        v = bisect_right(cum, u * total)
        if v > last:
            v = last
        for j, k in cols[v]:
            L[j] += k
        yield v


def _numpy_kernel(L: np.ndarray, columns, uniforms):
    """Yield one vertex per uniform, advancing the exponent array L in place:
    cumsum(exp(L - max L)) and a right-side search for u * total."""
    last = len(L) - 1
    w = np.empty_like(L)
    cum = np.empty_like(L)
    for u in uniforms:
        np.subtract(L, L.max(), out=w)
        np.exp(w, out=w)
        np.cumsum(w, out=cum)
        v = int(cum.searchsorted(u * cum[-1], side="right"))
        if v > last:
            v = last
        idx, val = columns[v]
        L[idx] += val
        yield v


def _allocate(params: RateParams, g: Graph, x0: State, uniforms, steps: int,
              scalar: bool) -> tuple[np.ndarray, np.ndarray]:
    """Allocations for the first `steps` uniforms from x0, and the exponents
    after them, by the scalar or the numpy kernel (the two agree bit for
    bit).  Uniform 0 selects the first vertex with positive weight."""
    L = exponent_vector(params, g, x0)
    kernel = _numpy_kernel
    if scalar:
        L, kernel = L.tolist(), _scalar_kernel
    alloc = np.fromiter(kernel(L, _columns(params, g), uniforms),
                        dtype=np.int64, count=steps)
    return alloc, np.asarray(L, dtype=np.float64)


def _uniforms(rng: np.random.Generator, steps: int):
    """`steps` uniforms drawn UNIFORM_BLOCK at a time; PCG64 gives the same
    numbers as one `rng.random()` per step."""
    for start in range(0, steps, UNIFORM_BLOCK):
        yield from rng.random(min(UNIFORM_BLOCK, steps - start)).tolist()


@dataclass
class Trajectory:
    """A realized run: initial state plus the ordered allocation vertices.

    Replaying `allocations` from `initial` reproduces the final state; the
    run is fully determined by (seed, stream).
    """

    initial: State
    allocations: np.ndarray
    seed: int
    stream: int = 0

    @property
    def n_steps(self) -> int:
        return len(self.allocations)

    def final_counts(self) -> np.ndarray:
        counts = self.initial.counts.copy()
        if len(self.allocations):
            np.add.at(counts, self.allocations, 1)
        return counts

    def final_state(self) -> State:
        return State(self.final_counts())

    def counts_at(self, n: int) -> np.ndarray:
        """Counts after the first n allocations."""
        counts = self.initial.counts.copy()
        if n:
            np.add.at(counts, self.allocations[:n], 1)
        return counts

    def count_paths(self, vertices) -> np.ndarray:
        """Running counts, shape (n_steps+1, len(vertices)); row 0 is initial."""
        verts = list(vertices)
        out = np.empty((self.n_steps + 1, len(verts)), dtype=np.int64)
        for j, v in enumerate(verts):
            out[0, j] = self.initial.counts[v]
            np.cumsum(self.allocations == v, out=out[1:, j])
            out[1:, j] += self.initial.counts[v]
        return out


def run(g: Graph, params: RateParams, x0: State, steps: int,
        seed: int, stream: int = 0) -> Trajectory:
    """Run the allocation process for `steps` steps from x0.

    Rejects disconnected graphs (the localisation statements assume
    connectivity) and runs whose exponents leave the finite floats.
    Deterministic given (seed, stream).
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if len(x0.counts) != g.n:
        raise ValueError("initial state size does not match the graph")
    rng = make_rng(seed, stream)
    alloc, exponents = _allocate(params, g, x0, _uniforms(rng, steps), steps,
                                 scalar=g.n <= SCALAR_KERNEL_MAX_N)
    if not np.isfinite(exponents).all():
        raise ValueError("rate exponents overflowed to a non-finite value; "
                         "use smaller rates or fewer steps")
    return Trajectory(initial=x0.copy(), allocations=alloc, seed=seed, stream=stream)


def write_trajectory_csv(fh: IO[str], t: Trajectory, g: Graph) -> None:
    """Write `step,vertex` rows (1-based steps, vertex labels)."""
    fh.write("step,vertex\n")
    labels = g.labels
    for i, v in enumerate(t.allocations, start=1):
        fh.write(f"{i},{labels[v]}\n")


def write_state_csv(fh: IO[str], state: State, g: Graph) -> None:
    """Write a `vertex,count` snapshot (vertex labels, index order)."""
    fh.write("vertex,count\n")
    for v in range(g.n):
        fh.write(f"{g.labels[v]},{int(state.counts[v])}\n")
