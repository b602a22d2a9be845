import random
from functools import partial

import numpy as np
import pytest
from hypothesis import settings

from cliquegrowth import Graph, GraphParseError, exponent_vector, parse_graph
from cliquegrowth.process import _materialized_arrays, _numpy_kernel, _scalar_kernel

# 8-vertex test graph with exactly six maximal cliques:
# {1,2}, {2,7}, {4,8}, {7,8}, {4,5,6}, {2,3,4,5}
FIG1_EDGES = """\
1 2
2 3
2 4
2 5
2 7
3 4
3 5
4 5
4 6
4 8
5 6
7 8
"""


# Complete tripartite K_{2,2,2} on parts {1,2}, {3,4}, {5,6}: 2^3 = 8
# maximal cliques, one vertex from each part.
K222_EDGES = "".join(f"{u} {v}\n" for u in range(1, 7) for v in range(u + 1, 7)
                     if (u + 1) // 2 != (v + 1) // 2)


# Graphs whose automorphisms move every maximal clique to every other, and
# every vertex to every other: the cycle C_n (its n edges), the Petersen
# graph (15 edges; outer 5-cycle 1-5, spokes i-(i+5), inner pentagram
# 6-10) and the complete tripartite K_{3,3,3} (27 triangles).
def cycle_graph(n: int) -> Graph:
    return Graph.from_edge_labels((i, i % n + 1) for i in range(1, n + 1))


PETERSEN = Graph.from_edge_labels(
    [(i, i % 5 + 1) for i in range(1, 6)] + [(i, i + 5) for i in range(1, 6)]
    + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)])
K333 = Graph.from_edge_labels((u, v) for u in range(1, 10) for v in range(u + 1, 10)
                              if (u - 1) // 3 != (v - 1) // 3)


def reference_parse_graph(text: str) -> Graph:
    """The edge-list parser read line by line, one call per line and per
    endpoint, interning each label at its first appearance: the reference
    `parse_graph` agrees with, its graph or its error."""
    index: dict[int, int] = {}
    adj: list[set[int]] = []
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
        for lab in (a, b):
            if lab not in index:
                index[lab] = len(index)
                adj.append(set())
        adj[index[a]].add(index[b])
        adj[index[b]].add(index[a])
    if not index:
        raise ValueError("graph needs at least one edge")
    return Graph(tuple(index), tuple(map(frozenset, adj)))


@pytest.fixture(scope="session")
def fig1() -> Graph:
    return parse_graph(FIG1_EDGES)


def sparse_edges(n: int, extra: int) -> list[tuple[int, int]]:
    """A connected graph's edges on labels 1..n: the path 1-2-...-n, then
    `extra` pairs of distinct vertices drawn by random.Random(1) (a repeated
    pair is one edge).  The tier-1 workflow writes sparse2000.edges by the
    same recipe."""
    rng = random.Random(1)
    return ([(v, v + 1) for v in range(1, n)]
            + [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(extra)])


@pytest.fixture(scope="session")
def sparse2000() -> Graph:
    return Graph.from_edge_labels(sparse_edges(2000, 8000))


def idx(g: Graph, *labels: int) -> tuple[int, ...]:
    """Map vertex labels to internal indices."""
    return tuple(g.index(lab) for lab in labels)


def serial_pool(started: list):
    """A stand-in for ProcessPoolExecutor that starts no process: it records
    each `max_workers` in `started` and maps in this process."""

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    return SerialPool


KERNELS = (_scalar_kernel, _numpy_kernel)


def scalar_pairs(supports):
    """The scalar kernel's (index, value) pairs of each column support."""
    return [list(zip(idx.tolist(), val.tolist())) for idx, val in supports]


def drive_kernel(kernel, params, g: Graph, x0, uniforms, splits=()):
    """Run one sampling kernel from x0 over `uniforms` on the sampler's
    column supports, in one call per stretch between the ascending indices
    `splits`, carrying one exponent array (and the scalar kernel's memo)
    across the calls: its allocations, and the exponents it keeps, after
    them."""
    L = exponent_vector(params, g, x0)
    supports = _materialized_arrays(params, g)[2]
    if kernel is _scalar_kernel:
        draw = partial(kernel, L, scalar_pairs(supports), {})
    else:
        draw = partial(kernel, L, supports)
    uniforms = list(uniforms)
    ends = [0, *splits, len(uniforms)]
    alloc = [v for a, b in zip(ends, ends[1:]) for v in draw(uniforms[a:b])]
    return np.array(alloc, dtype=np.int64), L


def labs(g: Graph, verts) -> tuple[int, ...]:
    """Map internal indices back to labels, sorted."""
    return tuple(sorted(g.labels[v] for v in verts))


# Property tests draw the same 200 examples on every run, so tier-1 stays
# reproducible; no example database is written.
settings.register_profile("tier1", derandomize=True, max_examples=200,
                          deadline=None, database=None)
settings.load_profile("tier1")
