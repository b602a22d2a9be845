import pytest
from hypothesis import settings

from cliquegrowth import Graph, parse_graph

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


@pytest.fixture(scope="session")
def fig1() -> Graph:
    return parse_graph(FIG1_EDGES)


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


def labs(g: Graph, verts) -> tuple[int, ...]:
    """Map internal indices back to labels, sorted."""
    return tuple(sorted(g.labels[v] for v in verts))


# Property tests draw the same 200 examples on every run, so tier-1 stays
# reproducible; no example database is written.
settings.register_profile("tier1", derandomize=True, max_examples=200,
                          deadline=None, database=None)
settings.load_profile("tier1")
