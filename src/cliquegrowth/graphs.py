"""Finite simple graphs, maximal-clique machinery, and ordered-clique partitions."""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
import operator
from operator import eq
from typing import Iterable, Iterator

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
    def adjacency_bits(self) -> tuple[int, ...]:
        """The neighbours of each vertex as an int bitset: bit u of entry v is
        set iff u ~ v."""
        return tuple(sum(map((1).__lshift__, nbrs)) for nbrs in self.adjacency)

    def edge_labels(self) -> list[tuple[int, int]]:
        """All edges as label pairs, each sorted, list sorted: the vertices
        in label order, each with its larger-labelled neighbours sorted."""
        labels = self.labels
        pairs: list[tuple[int, int]] = []
        for a, nbrs in sorted(zip(labels, self.adjacency)):
            # each edge appears from both ends: keep it where a is smaller
            bs = sorted(map(labels.__getitem__, nbrs))
            pairs += zip(repeat(a), bs[bisect_right(bs, a):])
        return pairs

    @staticmethod
    def from_edge_labels(pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from labelled edges; indices follow first appearance.

        Duplicate edges are collapsed; self-loops and labels that are not
        integers are rejected.
        """
        pairs = list(pairs)
        if not set(map(len, pairs)) <= {2}:
            raise ValueError("every edge needs two vertex labels")
        flat = []
        for label in chain.from_iterable(pairs):
            try:
                flat.append(operator.index(label))
            except TypeError:
                raise ValueError(f"vertex label {label!r} is not an integer") from None
        return _graph_of(flat)


def _graph_of(flat: list[int]) -> Graph:
    """The graph of the edges flat[0]-flat[1], flat[2]-flat[3], ...; its
    indices follow first appearance."""
    heads, tails = flat[0::2], flat[1::2]
    loops = list(map(eq, heads, tails))
    if True in loops:
        i = loops.index(True)
        raise ValueError(f"self-loop {heads[i]}-{tails[i]} is not allowed")
    if not flat:
        raise ValueError("graph needs at least one edge")
    labels = tuple(dict.fromkeys(flat))
    index = dict(zip(labels, range(len(labels))))
    ends = list(map(index.__getitem__, flat))
    adj: list[set[int]] = [set() for _ in labels]
    for u, v in zip(ends[0::2], ends[1::2]):
        adj[u].add(v)
        adj[v].add(u)
    return Graph(labels, tuple(map(frozenset, adj)))


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document into a Graph.

    Format: one edge per line as two whitespace-separated non-negative integer
    labels; lines starting with '#' and blank lines are ignored.  Duplicate
    edges collapse silently; a self-loop or an unreadable token is rejected
    with its line number.
    """
    kept = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    # every line is checked at once; only a document that fails a check is
    # read again line by line, to name its first bad line
    flat = None
    if set(map(len, map(str.split, kept))) <= {2}:
        try:
            flat = list(map(int, " ".join(kept).split()))
        except ValueError:
            pass
    if flat is None or min(flat, default=0) < 0 or any(map(eq, flat[0::2], flat[1::2])):
        _raise_first_bad_line(text)
    return _graph_of(flat)


def _raise_first_bad_line(text: str) -> None:
    """Raise the GraphParseError of the first bad line of an edge-list
    document."""
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
    """Breadth-first reachability of every vertex from vertex 0, on the
    adjacency bitsets."""
    if g.n == 0:
        return True
    adj = g.adjacency_bits
    seen = frontier = 1
    while frontier:
        reached = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reached |= adj[low.bit_length() - 1]
        frontier = reached & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


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

    Bron-Kerbosch with Tomita's pivot on int bitsets (`adjacency_bits`): the
    candidate set p, the excluded set x and the branches still to take are
    ints, the pivot is the vertex u of p | x with the most neighbours in p,
    (p & adj[u]).bit_count(), and a branch left with one candidate is closed
    without a search level of its own.  The levels sit on an explicit
    stack, so a clique of any size fits; exact, output-exponential in the
    worst case, fine for the few-hundred-vertex graphs this package
    targets.  Refuses a graph with more than MAX_CLIQUES maximal cliques.
    """
    adj = g.adjacency_bits
    out: list[tuple[int, ...]] = []

    def branches(p: int, x: int) -> int:
        m, best = p | x, -1
        while m:
            low = m & -m
            m ^= low
            covered = (p & adj[low.bit_length() - 1]).bit_count()
            if covered > best:
                best, pivot = covered, low
        return p & ~adj[pivot.bit_length() - 1]

    # one level [r, p, x, branches] per vertex of the clique r being grown,
    # plus the root
    everything = (1 << g.n) - 1
    stack = [[(), everything, 0, branches(everything, 0)]]
    while stack:
        level = stack[-1]
        r, p, x, todo = level
        if not todo:
            stack.pop()
            continue
        low = todo & -todo
        level[1:] = p ^ low, x | low, todo ^ low
        v = low.bit_length() - 1
        pv, xv = p & adj[v], x & adj[v]
        if pv & (pv - 1):
            stack.append([r + (v,), pv, xv, branches(pv, xv)])
            continue
        if pv:
            # one candidate w: r + v + w is maximal unless x holds a
            # neighbour of w
            w = pv.bit_length() - 1
            if xv & adj[w]:
                continue
            clique = r + (v, w)
        elif xv:
            continue
        else:
            clique = r + (v,)
        out.append(tuple(sorted(clique)))
        if len(out) > MAX_CLIQUES:
            raise ValueError(f"the graph has more than {MAX_CLIQUES} maximal cliques")
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

    @property
    def blocks(self) -> tuple[frozenset[int], ...]:
        """The blocks {v_k} union D_{v_k}, in clique order."""
        return tuple(frozenset({vk}) | dk for vk, dk in zip(self.clique, self.d_sets))


def d_sets(g: Graph, clique: OrderedClique) -> DPartition:
    """Compute the D-sets for an ordered maximal clique."""
    verts = clique.vertices
    if not is_maximal_clique(g, verts):
        raise ValueError(f"{tuple(g.labels[v] for v in verts)} is not a maximal clique")
    adj = g.adjacency_bits
    ds: list[frozenset[int]] = []
    common = (1 << g.n) - 1  # the vertices adjacent to every v_j, j < k
    for vk in verts:
        dk = common & ~adj[vk] & ~(1 << vk)
        ds.append(frozenset(v for v in range(g.n) if dk >> v & 1))
        common &= adj[vk]
    return DPartition(clique, tuple(ds))


def validate_partition(part: DPartition, g: Graph) -> bool:
    """Check the three partition identities of a DPartition against g.

    1. every D-set is disjoint from the clique vertices;
    2. the D-sets are pairwise disjoint;
    3. the blocks {v_k} + D_{v_k} cover the vertex set exactly.

    Once the clique and its D-sets, one per clique vertex, cover the n
    vertices, 1 and 2 hold exactly when their sizes add up to n: a union is
    as large as the sum of its parts only if they are pairwise disjoint.
    """
    verts = part.clique.vertices
    return (len(part.d_sets) == len(verts)
            and set(verts).union(*part.d_sets) == set(range(g.n))
            and len(verts) + sum(map(len, part.d_sets)) == g.n)
