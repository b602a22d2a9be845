import itertools

import numpy as np
import pytest

from cliquegrowth import (
    GraphParseError,
    OrderedClique,
    complete_graph,
    d_sets,
    enumerate_maximal_cliques,
    is_connected,
    is_maximal_clique,
    parse_graph,
    path_graph,
    validate_partition,
)
from cliquegrowth.graphs import DPartition, Graph

from cliquegrowth import graphs

from conftest import K222_EDGES, idx, labs


def random_connected_graph(rng, max_n=10):
    """Random connected G(n, p) with labels 1..n, retried until connected."""
    while True:
        n = int(rng.integers(2, max_n + 1))
        p = rng.uniform(0.25, 0.55)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < p]
        if not pairs:
            continue
        g = Graph.from_edge_labels(pairs)
        if g.n == n and is_connected(g):
            return g


class TestParse:
    def test_smallest_graph(self):
        g = parse_graph("1 2\n")
        assert g.n == 2
        assert g.edge_labels() == [(1, 2)]

    def test_fig1_reconstruction(self, fig1):
        assert fig1.n == 8
        assert len(fig1.edge_labels()) == 12

    def test_self_loop_rejected_with_position(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("1 2\n3 3\n")
        assert err.value.line_no == 2

    def test_unreadable_token_rejected_with_position(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("1 2\n2 x\n")
        assert err.value.line_no == 2

    def test_wrong_arity_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph("1 2 3\n")

    def test_comments_and_blanks_ignored(self):
        g = parse_graph("# header\n\n1 2\n# tail\n")
        assert g.n == 2

    def test_duplicate_edges_collapse(self):
        g = parse_graph("1 2\n2 1\n1 2\n")
        assert g.edge_labels() == [(1, 2)]

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            parse_graph("# nothing\n")

    def test_negative_label_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph("-1 2\n")

    def test_indices_by_first_appearance(self, fig1):
        assert fig1.labels == (1, 2, 3, 4, 5, 7, 6, 8)


class TestConnectivity:
    def test_fig1_connected(self, fig1):
        assert is_connected(fig1)

    def test_two_disjoint_edges(self):
        g = Graph.from_edge_labels([(1, 2), (3, 4)])
        assert not is_connected(g)

    def test_single_vertex(self):
        g = Graph(labels=(1,), adjacency=(frozenset(),))
        assert is_connected(g)


class TestMaximalCliques:
    def test_fig1_has_exactly_six(self, fig1):
        got = {labs(fig1, c) for c in enumerate_maximal_cliques(fig1)}
        assert got == {(1, 2), (2, 7), (4, 8), (7, 8), (4, 5, 6), (2, 3, 4, 5)}

    def test_complete_graph(self):
        g = complete_graph(4)
        assert enumerate_maximal_cliques(g) == [(0, 1, 2, 3)]

    def test_path_graph(self):
        g = path_graph(3)
        got = {labs(g, c) for c in enumerate_maximal_cliques(g)}
        assert got == {(1, 2), (2, 3)}

    def test_clique_limit(self, monkeypatch):
        g = parse_graph(K222_EDGES)
        monkeypatch.setattr(graphs, "MAX_CLIQUES", 8)
        assert len(enumerate_maximal_cliques(g)) == 8
        monkeypatch.setattr(graphs, "MAX_CLIQUES", 7)
        with pytest.raises(ValueError, match="more than 7 maximal cliques"):
            enumerate_maximal_cliques(g)

    def test_is_maximal_examples(self, fig1):
        assert not is_maximal_clique(fig1, idx(fig1, 4, 5))      # 6 extends it
        assert is_maximal_clique(fig1, idx(fig1, 4, 5, 6))
        assert not is_maximal_clique(fig1, idx(fig1, 1, 3))      # not an edge

    def test_incomparable_and_edge_covering(self, fig1):
        cliques = [set(c) for c in enumerate_maximal_cliques(fig1)]
        for a, b in itertools.combinations(cliques, 2):
            assert not a <= b and not b <= a
        for u, v in fig1.edges():
            assert any({u, v} <= c for c in cliques)

    def test_cross_check_all_subsets(self, fig1):
        members = set(enumerate_maximal_cliques(fig1))
        for r in range(fig1.n + 1):
            for s in itertools.combinations(range(fig1.n), r):
                assert is_maximal_clique(fig1, s) == (s in members)


class TestDSets:
    def test_order_12(self, fig1):
        part = d_sets(fig1, OrderedClique(idx(fig1, 1, 2)))
        assert labs(fig1, part.d_sets[0]) == (3, 4, 5, 6, 7, 8)
        assert part.d_sets[1] == frozenset()

    def test_order_21(self, fig1):
        part = d_sets(fig1, OrderedClique(idx(fig1, 2, 1)))
        assert labs(fig1, part.d_sets[0]) == (6, 8)
        assert labs(fig1, part.d_sets[1]) == (3, 4, 5, 7)

    def test_complete_graph_all_empty(self):
        g = complete_graph(3)
        part = d_sets(g, OrderedClique((0, 1, 2)))
        assert all(d == frozenset() for d in part.d_sets)

    def test_non_maximal_clique_rejected(self, fig1):
        with pytest.raises(ValueError):
            d_sets(fig1, OrderedClique(idx(fig1, 4, 5)))

    def test_output_always_validates(self, fig1):
        for c in enumerate_maximal_cliques(fig1):
            for order in itertools.permutations(c):
                assert validate_partition(d_sets(fig1, OrderedClique(order)), fig1)

    def test_vertex_in_two_blocks_invalid(self, fig1):
        part = d_sets(fig1, OrderedClique(idx(fig1, 2, 1)))
        ds = list(part.d_sets)
        ds[1] = ds[1] | ds[0]  # duplicate a vertex across D-sets
        bad = DPartition(part.clique, tuple(ds),
                         tuple(frozenset({v}) | d for v, d in zip(part.clique, ds)))
        assert not validate_partition(bad, fig1)

    def test_missing_vertex_invalid(self, fig1):
        part = d_sets(fig1, OrderedClique(idx(fig1, 1, 2)))
        ds = (part.d_sets[0] - {fig1.index(8)}, part.d_sets[1])
        bad = DPartition(part.clique, ds,
                         tuple(frozenset({v}) | d for v, d in zip(part.clique, ds)))
        assert not validate_partition(bad, fig1)


def test_partition_property_random_graphs():
    rng = np.random.default_rng(12345)
    for _ in range(40):
        g = random_connected_graph(rng)
        for c in enumerate_maximal_cliques(g):
            for order in itertools.permutations(c):
                assert validate_partition(d_sets(g, OrderedClique(order)), g)
