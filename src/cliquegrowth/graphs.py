"""Finite simple graphs, maximal-clique machinery, and ordered-clique partitions."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Graph",
    "GraphParseError",
    "OrderedClique",
    "DPartition",
    "parse_graph",
    "complete_graph",
    "path_graph",
    "is_connected",
    "is_clique",
    "is_maximal_clique",
    "enumerate_maximal_cliques",
    "d_sets",
    "validate_partition",
    "MAX_CLIQUES",
]

# Most maximal cliques one enumeration lists; the count can grow as 3^(n/3).
MAX_CLIQUES = 10**6


class GraphParseError(ValueError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with integer vertex labels.

    Vertices are addressed internally by dense indices 0..n-1, assigned by
    first appearance in the defining edge list; ``labels[i]`` is the external
    label of vertex i.  Adjacency is symmetric and loop-free.
    """

    labels: tuple[int, ...]
    adjacency: tuple[frozenset[int], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def _label_index(self) -> dict[int, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: int) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise ValueError(f"unknown vertex label {label}") from None

    @cached_property
    def adjacency_matrix(self) -> np.ndarray:
        """Read-only boolean (n, n) matrix, True at [u, v] iff u ~ v."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        for v, nbrs in enumerate(self.adjacency):
            adj[v, list(nbrs)] = True
        adj.setflags(write=False)
        return adj

    def edges(self) -> list[tuple[int, int]]:
        """All edges as index pairs (u, v) with u < v, sorted."""
        return sorted(
            (u, v) for u in range(self.n) for v in self.adjacency[u] if u < v
        )

    def edge_labels(self) -> list[tuple[int, int]]:
        """All edges as label pairs, each sorted, list sorted."""
        return sorted(
            tuple(sorted((self.labels[u], self.labels[v])))
            for u, v in self.edges()
        )

    @staticmethod
    def from_edge_labels(pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from labelled edges; indices follow first appearance.

        Duplicate edges are collapsed; self-loops are rejected.
        """
        labels: list[int] = []
        index: dict[int, int] = {}
        adj: list[set[int]] = []

        def intern(lab: int) -> int:
            if lab not in index:
                index[lab] = len(labels)
                labels.append(lab)
                adj.append(set())
            return index[lab]

        seen_any = False
        for a, b in pairs:
            if a == b:
                raise ValueError(f"self-loop {a}-{b} is not allowed")
            u, v = intern(a), intern(b)
            adj[u].add(v)
            adj[v].add(u)
            seen_any = True
        if not seen_any:
            raise ValueError("graph needs at least one edge")
        return Graph(tuple(labels), tuple(frozenset(s) for s in adj))


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document into a Graph.

    Format: one edge per line as two whitespace-separated non-negative integer
    labels; lines starting with '#' and blank lines are ignored.  Duplicate
    edges collapse silently; a self-loop or an unreadable token is rejected
    with its line number.
    """
    pairs: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphParseError(line_no, f"expected two vertex labels, got {line!r}")
        try:
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphParseError(line_no, f"unreadable vertex label in {line!r}") from None
        if a < 0 or b < 0:
            raise GraphParseError(line_no, f"vertex labels must be non-negative in {line!r}")
        if a == b:
            raise GraphParseError(line_no, f"self-loop {a} {b} is not allowed")
        pairs.append((a, b))
    if not pairs:
        raise ValueError("graph needs at least one edge")
    return Graph.from_edge_labels(pairs)


def complete_graph(m: int) -> Graph:
    """Complete graph on m >= 2 vertices labelled 1..m."""
    if m < 2:
        raise ValueError("complete_graph needs m >= 2")
    return Graph.from_edge_labels(
        (i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
    )


def path_graph(m: int) -> Graph:
    """Path graph on m >= 2 vertices labelled 1..m, edges i-(i+1)."""
    if m < 2:
        raise ValueError("path_graph needs m >= 2")
    return Graph.from_edge_labels((i, i + 1) for i in range(1, m))


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability of every vertex from vertex 0."""
    if g.n == 0:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == g.n


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff the vertices are distinct and pairwise adjacent.

    Empty and singleton sets count as (trivial) cliques.
    """
    verts = list(vertices)
    if len(set(verts)) != len(verts):
        return False
    return all(
        verts[j] in g.adjacency[verts[i]]
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
    )


def is_maximal_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff `vertices` is a clique no outside vertex extends."""
    verts = set(vertices)
    if not verts or not is_clique(g, verts):
        return False
    common = frozenset.intersection(*(g.adjacency[v] for v in verts))
    return not common


def enumerate_maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques, each a sorted index tuple, list sorted.

    Bron-Kerbosch with pivoting; exact, output-exponential in the worst case,
    fine for the few-hundred-vertex graphs this package targets.  Refuses a
    graph with more than MAX_CLIQUES maximal cliques.
    """
    adj = g.adjacency
    out: list[tuple[int, ...]] = []

    def expand(r: list[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            out.append(tuple(sorted(r)))
            if len(out) > MAX_CLIQUES:
                raise ValueError(f"the graph has more than {MAX_CLIQUES} maximal cliques")
            return
        pivot = max(p | x, key=lambda u: len(p & adj[u]))
        for v in sorted(p - adj[pivot]):
            r.append(v)
            expand(r, p & adj[v], x & adj[v])
            r.pop()
            p.remove(v)
            x.add(v)

    expand([], set(range(g.n)), set())
    return sorted(out)


@dataclass(frozen=True)
class OrderedClique:
    """A clique whose vertex order matters (it drives the D-set partition)."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("clique vertices must be distinct")

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)


@dataclass(frozen=True)
class DPartition:
    """D-sets of an ordered maximal clique and the blocks they induce.

    For clique order (v_1,...,v_m): D_{v_1} holds the non-neighbours of v_1,
    and D_{v_k} holds the vertices adjacent to all of v_1..v_{k-1} but not to
    v_k.  Block k is {v_k} union D_{v_k}; the blocks partition the vertex set.
    """

    clique: OrderedClique
    d_sets: tuple[frozenset[int], ...]
    blocks: tuple[frozenset[int], ...]


def d_sets(g: Graph, clique: OrderedClique) -> DPartition:
    """Compute the D-sets and blocks for an ordered maximal clique."""
    verts = clique.vertices
    if not is_maximal_clique(g, verts):
        raise ValueError(f"{verts} is not a maximal clique")
    ds: list[frozenset[int]] = []
    for k, vk in enumerate(verts):
        prefix = verts[:k]
        dk = frozenset(
            v
            for v in range(g.n)
            if v != vk
            and v not in g.adjacency[vk]
            and all(v in g.adjacency[u] for u in prefix)
        )
        ds.append(dk)
    blocks = tuple(frozenset({vk}) | dk for vk, dk in zip(verts, ds))
    return DPartition(clique, tuple(ds), blocks)


def validate_partition(part: DPartition, g: Graph) -> bool:
    """Check the three partition identities of a DPartition against g.

    1. every D-set is disjoint from the clique vertices;
    2. the D-sets are pairwise disjoint;
    3. the blocks {v_k} + D_{v_k} cover the vertex set exactly.
    """
    verts = part.clique.vertices
    cset = set(verts)
    if len(cset) != len(verts) or len(part.d_sets) != len(verts):
        return False
    if any(cset & d for d in part.d_sets):
        return False
    for i in range(len(part.d_sets)):
        for j in range(i + 1, len(part.d_sets)):
            if part.d_sets[i] & part.d_sets[j]:
                return False
    expected_blocks = tuple(
        frozenset({vk}) | dk for vk, dk in zip(verts, part.d_sets)
    )
    if part.blocks != expected_blocks:
        return False
    covered = cset.union(*part.d_sets) if part.d_sets else cset
    if covered != set(range(g.n)):
        return False
    return len(verts) + sum(len(d) for d in part.d_sets) == g.n
