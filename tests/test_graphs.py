import itertools
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, seed
from hypothesis import strategies as st

from cliquegrowth import (
    GraphParseError,
    OrderedClique,
    complete_graph,
    d_sets,
    enumerate_maximal_cliques,
    is_clique,
    is_connected,
    is_maximal_clique,
    parse_graph,
    path_graph,
    validate_partition,
)
from cliquegrowth.graphs import DPartition, Graph

from cliquegrowth import graphs

from conftest import K222_EDGES, idx, labs, reference_parse_graph


# labels: small ones, so that edges repeat, and spellings int() reads as
# non-negative; then tokens it does not read, or reads as negative
LABELS = st.one_of(st.integers(0, 6).map(str), st.sampled_from(["+5", "1_0", "01", "-0", "\u0663"]))
BAD_TOKENS = st.one_of(st.integers(-10, -1).map(str),
                       st.sampled_from(["x", "1.5", "0x1", "_1", "\u00bd"]))
# separators inside a line, and line breaks: str.split and str.splitlines
# both split on \x0c and \x1c, so a pad of \x0c ends its line early;
# \u00a0 and \u3000 are spaces, not breaks
SPACES = st.sampled_from([" ", "  ", "\t", "\u00a0", "\u3000"])
BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x1c", "\u2028"])
PADS = st.sampled_from(["", " ", "\t", "\x0c"])


@st.composite
def edge_lines(draw, bad: bool):
    """One line: an edge row (most often), a blank or comment line, or, if
    `bad`, a row of one or three tokens, a row with a token int() rejects or
    reads as negative, or a self-loop."""
    kinds = ["row"] * 4 + ["blank", "comment"] + (["arity", "token", "loop"] if bad else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "blank":
        return draw(PADS)
    if kind == "comment":
        return draw(PADS) + draw(st.sampled_from(["#", "# 1 2", "#x y z", "#\t3 3"]))
    if kind == "arity":
        tokens = draw(st.lists(LABELS, min_size=1, max_size=3).filter(lambda t: len(t) != 2))
    elif kind == "token":
        tokens = draw(st.permutations([draw(LABELS), draw(BAD_TOKENS)]))
    elif kind == "loop":
        tokens = [draw(LABELS)] * 2
    else:
        tokens = draw(st.lists(LABELS, min_size=2, max_size=2, unique=True))
    line = tokens[0]
    for token in tokens[1:]:
        line += draw(SPACES) + token
    return draw(PADS) + line + draw(PADS)


@st.composite
def edge_documents(draw):
    """An edge-list document of up to 12 lines, each ended by a break of
    its own, the last one optionally not; half the documents may hold bad
    lines."""
    bad = draw(st.booleans())
    lines = draw(st.lists(edge_lines(bad), max_size=12))
    text = "".join(line + draw(BREAKS) for line in lines)
    return text[:-1] if lines and draw(st.booleans()) else text


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

    def test_agrees_with_the_line_by_line_reader(self):
        """`parse_graph` gives the graph of `reference_parse_graph` (labels,
        indices and adjacency), or its exception with the same type, message
        and line number, on documents mixing rows and duplicate edges, blank
        and comment lines, line breaks str.splitlines knows besides \\n,
        odd separators and spellings, and each kind of bad line; its edge echo
        is the globally sorted edge list."""
        seen = Counter()

        @seed(0)
        @given(edge_documents())
        @example("")
        @example("# only a comment\n\n")
        @example("+5 1_0\r\n01\t2\x0c\n3\x1c4 5\u00a0 6\n")
        def check(text):
            try:
                want = reference_parse_graph(text)
            except ValueError as exc:
                with pytest.raises(type(exc)) as err:
                    parse_graph(text)
                assert str(err.value) == str(exc)
                assert getattr(err.value, "line_no", None) == getattr(exc, "line_no", None)
                # a parse error counts under the first word after its line number
                seen[str(exc).partition(": ")[2].split(" ")[0] or str(exc)] += 1
                return
            g = parse_graph(text)
            assert (g.labels, g.adjacency) == (want.labels, want.adjacency)
            assert g.edge_labels() == sorted(
                (a, b) for a, nbrs in zip(want.labels, want.adjacency)
                for b in (want.labels[u] for u in nbrs) if a < b)
            seen["graph"] += 1

        check()
        # every outcome is drawn: graphs, and each of the five errors
        assert seen["graph"] >= 20
        for kind in ("expected", "unreadable", "vertex", "self-loop",
                     "graph needs at least one edge"):
            assert seen[kind] >= 5, seen


class TestConnectivity:
    def test_fig1_connected(self, fig1):
        assert is_connected(fig1)

    def test_two_disjoint_edges(self):
        g = Graph.from_edge_labels([(1, 2), (3, 4)])
        assert not is_connected(g)

    def test_single_vertex(self):
        g = Graph(labels=(1,), adjacency=(frozenset(),))
        assert is_connected(g)

    def test_no_vertices(self):
        assert is_connected(Graph(labels=(), adjacency=()))


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

    def test_no_recursion_depth_limit(self):
        # one search level per clique vertex: K_200 goes 200 levels deep
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            got = enumerate_maximal_cliques(complete_graph(200))
        finally:
            sys.setrecursionlimit(limit)
        assert got == [tuple(range(200))]

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 10))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < rng.uniform(0.2, 0.9)]
            if not pairs:
                continue
            g = Graph.from_edge_labels(pairs)
            want = [s for r in range(1, g.n + 1)
                    for s in itertools.combinations(range(g.n), r)
                    if is_maximal_clique(g, s)]
            assert enumerate_maximal_cliques(g) == sorted(want)

    def test_is_maximal_examples(self, fig1):
        assert not is_maximal_clique(fig1, idx(fig1, 4, 5))      # 6 extends it
        assert is_maximal_clique(fig1, idx(fig1, 4, 5, 6))
        assert not is_maximal_clique(fig1, idx(fig1, 1, 3))      # not an edge

    def test_incomparable_and_edge_covering(self, fig1):
        cliques = [set(c) for c in enumerate_maximal_cliques(fig1)]
        for a, b in itertools.combinations(cliques, 2):
            assert not a <= b and not b <= a
        for u, nbrs in enumerate(fig1.adjacency):
            assert all(any({u, v} <= c for c in cliques) for v in nbrs)

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
        bad = DPartition(part.clique, tuple(ds))
        assert not validate_partition(bad, fig1)

    def test_clique_vertex_in_d_set_invalid(self, fig1):
        part = d_sets(fig1, OrderedClique(idx(fig1, 2, 1)))
        ds = (part.d_sets[0], part.d_sets[1] | {fig1.index(2)})
        bad = DPartition(part.clique, ds)
        assert not validate_partition(bad, fig1)

    def test_blocks_follow_clique_order(self, fig1):
        for c in enumerate_maximal_cliques(fig1):
            for order in itertools.permutations(c):
                part = d_sets(fig1, OrderedClique(order))
                assert part.blocks == tuple(
                    {vk} | part.d_sets[k] for k, vk in enumerate(order))

    def test_missing_vertex_invalid(self, fig1):
        part = d_sets(fig1, OrderedClique(idx(fig1, 1, 2)))
        ds = (part.d_sets[0] - {fig1.index(8)}, part.d_sets[1])
        bad = DPartition(part.clique, ds)
        assert not validate_partition(bad, fig1)


def test_partition_property_random_graphs():
    rng = np.random.default_rng(12345)
    for _ in range(40):
        g = random_connected_graph(rng)
        for c in enumerate_maximal_cliques(g):
            for order in itertools.permutations(c):
                part = d_sets(g, OrderedClique(order))
                assert validate_partition(part, g)
                # D_k by its definition: not v_k, not adjacent to v_k, and
                # adjacent to every earlier v_j
                for k, vk in enumerate(order):
                    assert part.d_sets[k] == {
                        v for v in range(g.n)
                        if v != vk and v not in g.adjacency[vk]
                        and all(v in g.adjacency[u] for u in order[:k])}


def ref_validate_partition(part, g):
    """The three partition identities checked as they read, after the
    D-set count: every D-set misses the clique, the D-sets are pairwise
    disjoint, and the blocks cover the vertex set."""
    verts, ds = part.clique.vertices, part.d_sets
    if len(ds) != len(verts):
        return False
    misses_clique = all(not set(verts) & d for d in ds)
    pairwise_disjoint = all(not a & b for a, b in itertools.combinations(ds, 2))
    covers = set().union(*part.blocks) == set(range(g.n))
    return misses_clique and pairwise_disjoint and covers


@st.composite
def partitions(draw):
    """A D-partition of a random connected graph, and up to three edits:
    a vertex (in range or just outside it) added to or removed from a
    D-set, or a D-set dropped or appended."""
    g = random_connected_graph(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), 7)
    order = draw(st.permutations(draw(st.sampled_from(enumerate_maximal_cliques(g)))))
    part = d_sets(g, OrderedClique(tuple(order)))
    ds = list(part.d_sets)
    edits = st.tuples(st.sampled_from(["add", "remove", "drop", "append"]),
                      st.integers(0, len(ds) - 1), st.integers(-1, g.n))
    for kind, k, v in draw(st.lists(edits, max_size=3)):
        if kind == "add":
            ds[k % len(ds)] |= {v}
        elif kind == "remove":
            ds[k % len(ds)] -= {v}
        elif kind == "drop" and len(ds) > 1:
            ds.pop()
        elif kind == "append":
            ds.append(frozenset({v}))
    return DPartition(part.clique, tuple(ds)), g


@given(partitions())
def test_partition_verdict_matches_identities(case):
    # the count of the parts stands in for both disjointness identities
    part, g = case
    assert validate_partition(part, g) == ref_validate_partition(part, g)


@pytest.mark.parametrize("build, message", [
    (lambda: Graph.from_edge_labels([(1,)]), "every edge needs two vertex labels"),
    (lambda: Graph.from_edge_labels([(1, 2), (3, 3)]), "self-loop 3-3 is not allowed"),
    # a float label was echoed as given but named as an int in a clique
    (lambda: Graph.from_edge_labels([(1.5, 2), (2, 3), (3, 1.5)]),
     "vertex label 1.5 is not an integer"),
    (lambda: complete_graph(1), "complete_graph needs m >= 2"),
    (lambda: path_graph(1), "path_graph needs m >= 2"),
    (lambda: OrderedClique((1, 1)), "clique vertices must be distinct")],
    ids=["one-label-edge", "self-loop", "non-integer-label", "complete-1", "path-1",
         "repeated-clique-vertex"])
def test_constructors_refuse_in_own_words(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


def test_repeated_vertex_is_no_clique(fig1):
    v = fig1.index(4)
    assert is_clique(fig1, [v, fig1.index(5)]) and not is_clique(fig1, [v, v])
