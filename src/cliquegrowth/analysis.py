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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, enumerate_maximal_cliques, is_clique, is_maximal_clique
from .process import MAX_STEPS, RateParams, State, Trajectory, run

__all__ = [
    "Classification",
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
class Classification:
    kind: str
    members: tuple[int, ...]


@dataclass(frozen=True)
class ReplicaOutcome:
    """Summary of one replica at its horizon."""

    localisation_set: tuple[int, ...]
    classification: Classification
    onset: int
    ratio_matrix: tuple[tuple[float, ...], ...] | None
    c_matrix: tuple[tuple[float, ...], ...] | None


@dataclass(frozen=True)
class LocalisationReport:
    replicas: int
    per_replica: tuple[ReplicaOutcome, ...]
    clique_frequencies: dict[tuple[int, ...], float]
    single_vertex_frequency: float
    undecided_frequency: float

    def to_jsonable(self, g: Graph) -> dict:
        """JSON-ready dict with vertex indices translated to labels."""

        def lab(vs):
            return [int(g.labels[v]) for v in vs]

        per = []
        for r in self.per_replica:
            per.append({
                "localisation_set": lab(r.localisation_set),
                "classification": r.classification.kind,
                "onset": r.onset,
                "ratio_matrix": None if r.ratio_matrix is None
                else [list(row) for row in r.ratio_matrix],
                "c_matrix": None if r.c_matrix is None
                else [list(row) for row in r.c_matrix],
            })
        return {
            "replicas": self.replicas,
            "per_replica": per,
            "aggregate": {
                "clique_frequencies": {
                    ",".join(str(x) for x in lab(c)): f
                    for c, f in sorted(self.clique_frequencies.items())
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
    return tuple(sorted(int(v) for v in np.unique(tail)))


def classify_outcome(g: Graph, s: Sequence[int]) -> Classification:
    """single_vertex for singletons, clique for maximal cliques, else undecided."""
    members = tuple(sorted(set(s)))
    if len(members) == 1:
        return Classification(KIND_SINGLE_VERTEX, members)
    if is_maximal_clique(g, members):
        return Classification(KIND_CLIQUE, members)
    return Classification(KIND_UNDECIDED, members)


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
        raise ValueError(f"{tuple(verts)} is not a clique of size >= 2")
    x = state.counts
    s = x @ g.adjacency_matrix[:, verts] + x[verts]
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
    outside = ~np.isin(t.allocations, list(s))
    hits = np.flatnonzero(outside)
    return int(hits[-1]) + 1 if len(hits) else 0


def replica_outcome(g: Graph, params: RateParams, t: Trajectory,
                    tail_fraction: float) -> ReplicaOutcome:
    """Classify one trajectory and collect its terminal matrices."""
    s = localisation_set(t, tail_fraction)
    cls = classify_outcome(g, s)
    onset = onset_step(t, s)
    ratios = None
    cmat = None
    if cls.kind == KIND_CLIQUE:
        counts = t.final_counts()[list(s)].astype(np.float64)
        ratios = tuple(map(tuple, (counts[:, None] / counts).tolist()))
        if params.regime == "critical":
            cmat = tuple(map(tuple, c_matrix(g, params.lam, t.final_state(), s).tolist()))
        elif params.regime == "clique":
            # the log-ratio limits vanish here: ratios converge to 1
            cmat = tuple((0.0,) * len(s) for _ in s)
    return ReplicaOutcome(s, cls, onset, ratios, cmat)


def _replica_outcome_job(args) -> ReplicaOutcome:
    # module-level so ProcessPoolExecutor can pickle it
    g, params, x0, steps, seed, stream, tail_fraction = args
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
    if not 0 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must be in [0, {MAX_STEPS}]")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    # enumerated first, so a graph with too many cliques runs no replica
    cliques = enumerate_maximal_cliques(g)
    args = [(g, params, x0, steps, seed, i, tail_fraction) for i in range(replicas)]
    workers = min(jobs, replicas, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_replica_outcome_job, args, chunksize=8))
    else:
        outcomes = [_replica_outcome_job(a) for a in args]

    freq: dict[tuple[int, ...], float] = {c: 0.0 for c in cliques}
    single = 0
    undecided = 0
    for out in outcomes:
        kind = out.classification.kind
        if kind == KIND_CLIQUE:
            freq[out.classification.members] += 1.0
        elif kind == KIND_SINGLE_VERTEX:
            single += 1
        else:
            undecided += 1
    return LocalisationReport(
        replicas=replicas,
        per_replica=tuple(outcomes),
        clique_frequencies={c: f / replicas for c, f in freq.items()},
        single_vertex_frequency=single / replicas,
        undecided_frequency=undecided / replicas,
    )
