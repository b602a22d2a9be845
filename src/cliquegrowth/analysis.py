"""Trajectory post-processing: localisation detection, critical-regime
log-ratio matrices, the law-of-large-numbers deviation, count-difference
chains, and Monte Carlo aggregation.

The localisation statements are asymptotic; every finite-horizon detector
here is an explicit proxy (tail support over the last fraction of a run) and
replicas that have not settled are reported as undecided, never force-fitted.
"""
from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .graphs import Graph, enumerate_maximal_cliques, is_clique, is_connected, is_maximal_clique
from .process import (MAX_STEPS, REGIME_CLIQUE, REGIME_CRITICAL, RateParams,
                      State, Trajectory, run)

__all__ = [
    "ReplicaOutcome",
    "LocalisationReport",
    "ZChainPath",
    "localisation_set",
    "classify_outcome",
    "c_matrix",
    "lln_deviation",
    "z_chain",
    "monte_carlo_report",
    "replica_outcome",
    "MAX_REPLICAS",
]

# Most replicas one report runs: the report holds one entry per replica.
MAX_REPLICAS = 10**6

KIND_SINGLE_VERTEX = "single_vertex"
KIND_CLIQUE = "clique"
KIND_UNDECIDED = "undecided"


@dataclass(frozen=True)
class ReplicaOutcome:
    """One replica at its horizon; the field names are its JSON report keys."""

    localisation_set: tuple[int, ...]
    classification: str
    onset: int
    ratio_matrix: tuple[tuple[float, ...], ...] | None
    c_matrix: tuple[tuple[float, ...], ...] | None


@dataclass(frozen=True)
class LocalisationReport:
    per_replica: tuple[ReplicaOutcome, ...]
    clique_frequencies: dict[tuple[int, ...], float]
    single_vertex_frequency: float
    undecided_frequency: float

    def to_jsonable(self, g: Graph) -> dict:
        """JSON-ready dict with vertex indices translated to labels."""

        labels = [int(lab) for lab in g.labels]
        names = [str(lab) for lab in labels]
        # json writes the matrix tuples as arrays
        return {
            "replicas": len(self.per_replica),
            "per_replica": [{**vars(r),
                             "localisation_set": [labels[v] for v in r.localisation_set]}
                            for r in self.per_replica],
            "aggregate": {
                "clique_frequencies": {
                    ",".join(map(names.__getitem__, c)): f
                    for c, f in self.clique_frequencies.items()
                },
                "single_vertex_frequency": self.single_vertex_frequency,
                "undecided_frequency": self.undecided_frequency,
            },
        }


def localisation_set(t: Trajectory, tail_fraction: float) -> tuple[int, ...]:
    """Vertices hit in the last ceil(tail_fraction * n) allocations, sorted."""
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must be in (0, 1]")
    n = t.n_steps
    if n == 0:
        raise ValueError("empty trajectory")
    tail = t.allocations[n - math.ceil(tail_fraction * n):]
    return tuple(np.flatnonzero(np.bincount(tail)).tolist())


def classify_outcome(g: Graph, s: Sequence[int]) -> str:
    """The kind of vertex set `s`: single_vertex for a singleton, clique for a
    maximal clique, else undecided."""
    if len(set(s)) == 1:
        return KIND_SINGLE_VERTEX
    if is_maximal_clique(g, s):
        return KIND_CLIQUE
    return KIND_UNDECIDED


def c_matrix(g: Graph, lam: float, state: State, clique: Sequence[int]) -> np.ndarray:
    """Log-ratio matrix of the critical regime at `state`.

    Entry (i, j) is lam times the signed count of particles at vertices
    adjacent to clique vertex i but not to clique vertex j (minus the reverse),
    skipping the two vertices themselves: lam (s_i - s_j) for the counts s
    of the closed neighbourhoods.  Within the clique the terminal count ratio
    of i over j converges to exp of this entry.  Antisymmetric by
    construction, -0.0 below a zero.
    """
    verts = list(clique)
    if not is_clique(g, verts) or len(verts) < 2:
        raise ValueError(f"{tuple(g.labels[v] for v in verts)} is not a clique of size >= 2")
    x = state.counts
    s = x[verts] + [x[list(g.adjacency[v])].sum() for v in verts]
    upper = np.triu_indices(len(verts), 1)
    out = np.zeros((len(verts), len(verts)), dtype=np.float64)
    out[upper] = lam * (s[upper[0]] - s[upper[1]])
    out.T[upper] = -out[upper]
    return out


def lln_deviation(t: Trajectory, clique: Sequence[int], n0: int = 1) -> float:
    """sup over n >= n0 of (1/n) sum_i |X_i(n) - n/m| along the trajectory,
    for the m vertices of `clique`: the distance of the occupation
    frequencies from uniform over the whole path, not at one time."""
    verts = list(clique)
    if not verts or len(set(verts)) < len(verts):
        raise ValueError("need one or more distinct clique vertices")
    n = t.n_steps
    if not 0 < n0 <= n:
        raise ValueError("need 0 < n0 <= horizon")
    paths = t.count_paths(verts).astype(np.float64)  # (n+1, m)
    ns = np.arange(n0, n + 1, dtype=np.float64)
    dev = np.abs(paths[n0:] - ns[:, None] / len(verts)).sum(axis=1) / ns
    return float(dev.max())


@dataclass(frozen=True)
class ZChainPath:
    """Count differences against the last vertex of a complete graph."""

    z_path: np.ndarray          # (n_steps+1, m-1) integers
    return_times: np.ndarray    # 0, then every n >= 1 with Z(n) = 0

    def gaps(self) -> np.ndarray:
        return np.diff(self.return_times)


def z_chain(t: Trajectory, g: Graph) -> ZChainPath:
    """Difference the counts of a complete-graph run against its last vertex."""
    m = g.n
    for v in range(m):
        if len(g.adjacency[v]) != m - 1:
            raise ValueError("z_chain requires a complete graph")
    paths = t.count_paths(range(m))
    z = paths[:, : m - 1] - paths[:, m - 1:m]
    at_origin = np.flatnonzero((z == 0).all(axis=1))
    returns = at_origin[at_origin >= 1]
    return ZChainPath(z_path=z, return_times=np.concatenate(([0], returns)))


def onset_step(t: Trajectory, s: Sequence[int]) -> int:
    """Last 1-based step allocating outside `s`; 0 if the run never left it."""
    outside = np.ones(len(t.initial.counts), dtype=bool)
    outside[list(s)] = False
    hits = np.flatnonzero(outside[t.allocations])
    return int(hits[-1]) + 1 if len(hits) else 0


def replica_outcome(g: Graph, params: RateParams, t: Trajectory,
                    tail_fraction: float) -> ReplicaOutcome:
    """Classify one trajectory and collect its terminal matrices."""
    s = localisation_set(t, tail_fraction)
    kind = classify_outcome(g, s)
    ratios = cmat = None
    if kind == KIND_CLIQUE:
        final = t.final_state()
        counts = final.counts[list(s)].astype(np.float64)
        ratios = tuple(map(tuple, (counts[:, None] / counts).tolist()))
        if params.regime == REGIME_CRITICAL:
            cmat = tuple(map(tuple, c_matrix(g, params.lam, final, s).tolist()))
        elif params.regime == REGIME_CLIQUE:
            # the log-ratio limits vanish here: ratios converge to 1
            cmat = tuple((0.0,) * len(s) for _ in s)
    return ReplicaOutcome(s, kind, onset_step(t, s), ratios, cmat)


def _replica_outcome_job(g, params, x0, steps, seed, tail_fraction, stream) -> ReplicaOutcome:
    # module-level so ProcessPoolExecutor can pickle it
    t = run(g, params, x0, steps, seed, stream=stream)
    return replica_outcome(g, params, t, tail_fraction)


def monte_carlo_report(g: Graph, params: RateParams, x0: State, steps: int,
                       replicas: int, seed: int, tail_fraction: float = 0.5,
                       jobs: int = 1) -> LocalisationReport:
    """Run independent replicas and aggregate their localisation outcomes.

    Replica i uses the RNG stream (seed, i); results are folded in replica
    order, so the report is identical for any `jobs`.  At most
    min(jobs, replicas, CPUs) worker processes run; with one, none is started.
    """
    if not 1 <= replicas <= MAX_REPLICAS:
        raise ValueError(f"replicas must be in [1, {MAX_REPLICAS}]")
    if not 1 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must be in [1, {MAX_STEPS}]")
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must be in (0, 1]")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    # checked first, as run() checks it, so a disconnected graph lists no
    # clique; enumerated before the replicas, so a graph with too many
    # cliques runs none
    if not is_connected(g):
        raise ValueError("graph must be connected")
    cliques = enumerate_maximal_cliques(g)
    job = partial(_replica_outcome_job, g, params, x0, steps, seed, tail_fraction)
    workers = min(jobs, replicas, os.cpu_count() or 1)
    if workers > 1:
        # imported here: it loads multiprocessing, which a serial run never uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = tuple(pool.map(job, range(replicas), chunksize=8))
    else:
        outcomes = tuple(map(job, range(replicas)))
    kinds = Counter(out.classification for out in outcomes)
    hits = Counter(out.localisation_set for out in outcomes
                   if out.classification == KIND_CLIQUE)
    return LocalisationReport(
        per_replica=outcomes,
        clique_frequencies={c: hits[c] / replicas for c in cliques},
        single_vertex_frequency=kinds[KIND_SINGLE_VERTEX] / replicas,
        undecided_frequency=kinds[KIND_UNDECIDED] / replicas,
    )
