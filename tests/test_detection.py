from itertools import permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliquegrowth import (
    Graph,
    OrderedClique,
    RateParams,
    State,
    check_final_properties,
    enumerate_maximal_cliques,
    exponent_vector,
    final_maximal_clique,
    make_rng,
)
from cliquegrowth.detection import TIE_REL_TOL
from cliquegrowth.graphs import is_maximal_clique

from conftest import idx, labs


@pytest.fixture
def params():
    return RateParams.uniform(1.0, 1.0)


def test_zero_state_lexicographic(fig1, params):
    fc = final_maximal_clique(fig1, params, State.zeros(fig1.n))
    assert labs(fig1, fc.vertices) == (1, 2)
    assert fc.vertices[0] == fig1.index(1)


def test_counts_at_5_and_6(fig1, params):
    # exponents tie at 5 for vertices 4,5,6; lexicographic greedy gives (4,5,6)
    s = State.from_label_counts(fig1, {5: 3, 6: 2})
    fc = final_maximal_clique(fig1, params, s)
    assert tuple(fig1.labels[v] for v in fc.vertices) == (4, 5, 6)


def test_first_two_choices_5_then_6(fig1):
    # rates making 5 then 6 the two top choices lead to the ordered clique (5,6,4)
    offsets = [0.0] * fig1.n
    offsets[fig1.index(5)] = 3.0
    offsets[fig1.index(6)] = 2.0
    p = RateParams.uniform(1.0, 1.0, base_offset_v=tuple(offsets))
    fc = final_maximal_clique(fig1, p, State.zeros(fig1.n))
    assert tuple(fig1.labels[v] for v in fc.vertices) == (5, 6, 4)


def test_output_is_always_maximal(fig1):
    maximal = set(enumerate_maximal_cliques(fig1))
    rng = np.random.default_rng(31)
    p = RateParams.uniform(1.0, 2.0)
    for _ in range(200):
        counts = rng.integers(0, 6, size=fig1.n)
        fc = final_maximal_clique(fig1, p, State(counts))
        assert tuple(sorted(fc.vertices)) in maximal


def test_pure_function_of_inputs(fig1, params):
    s = State.from_label_counts(fig1, {3: 2, 7: 2})
    a = final_maximal_clique(fig1, params, s)
    b = final_maximal_clique(fig1, params, s)
    assert a == b


def test_exponent_monotone_along_order(fig1):
    p = RateParams.uniform(1.0, 2.0)
    rng = np.random.default_rng(55)
    for _ in range(100):
        s = State(rng.integers(0, 5, size=fig1.n))
        fc = final_maximal_clique(fig1, p, s)
        L = exponent_vector(p, fig1, s)
        vals = [L[v] for v in fc.vertices]
        assert all(x >= y for x, y in zip(vals, vals[1:]))


def test_seeded_random_tie_break(fig1, params):
    s = State.zeros(fig1.n)
    seen = set()
    for k in range(40):
        fc = final_maximal_clique(fig1, params, s, rng=make_rng(100, k))
        assert check_final_properties(fig1, params, s, fc)
        seen.add(fc.vertices)
    assert len(seen) > 1  # the arbitrariness is actually explored


def ref_check_final_properties(g, params, state, clique):
    """The checker as first written, property by property: the first vertex
    attains the global maximum, exponents are non-increasing along the
    order, each vertex attains the maximum among the common neighbours of
    its predecessors, and the result is a maximal clique."""
    verts = clique.vertices
    if not verts or not is_maximal_clique(g, verts):
        return False
    exps = exponent_vector(params, g, state)

    def tol_at(x):
        return TIE_REL_TOL * max(1.0, abs(x))

    if exps[verts[0]] < exps.max() - tol_at(exps.max()):
        return False
    for a, b in zip(verts, verts[1:]):
        if exps[b] > exps[a] + tol_at(exps[a]):
            return False
    common = set(g.adjacency[verts[0]])
    for k in range(1, len(verts)):
        vk = verts[k]
        if vk not in common:
            return False
        best = max(exps[v] for v in common)
        if exps[vk] < best - tol_at(best):
            return False
        common &= g.adjacency[vk]
    return True


@st.composite
def detection_cases(draw):
    """A connected graph, uniform or general rates (integer-valued, so ties
    are exact and frequent, or real), a state, and vertex orders to check:
    every ordering of every maximal clique and random distinct sequences."""
    n = draw(st.integers(2, 6))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    g = Graph.from_edge_labels(sorted(edges))
    rate = st.integers(-2, 2).map(float) if draw(st.booleans()) else st.floats(-2, 2)
    if draw(st.booleans()):
        params = RateParams.uniform(draw(rate), draw(rate))
    else:
        pairs = [(v, u) for v in range(n) for u in sorted(g.adjacency[v])]
        params = RateParams.general(draw(st.lists(rate, min_size=n, max_size=n)),
                                    {vu: draw(rate) for vu in pairs})
    state = State(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    orders = [p for c in enumerate_maximal_cliques(g) for p in permutations(c)]
    orders += draw(st.lists(st.lists(st.integers(0, n - 1), unique=True, max_size=n),
                            max_size=8))
    return g, params, state, orders, draw(st.integers(0, 2**32))


@given(detection_cases())
def test_replay_matches_reference_checker(case):
    g, params, state, orders, seed = case
    for order in orders:
        clique = OrderedClique(tuple(order))
        assert (check_final_properties(g, params, state, clique)
                == ref_check_final_properties(g, params, state, clique)), order
    for k in range(3):
        rng = None if k == 0 else make_rng(seed, k)
        fc = final_maximal_clique(g, params, state, rng)
        assert check_final_properties(g, params, state, fc)


class TestCheckProperties:
    def test_outputs_always_pass(self, fig1):
        rng = np.random.default_rng(7)
        p = RateParams.uniform(1.0, 1.0)
        for _ in range(100):
            s = State(rng.integers(0, 4, size=fig1.n))
            fc = final_maximal_clique(fig1, p, s)
            assert check_final_properties(fig1, p, s, fc)

    def test_tied_orders_both_valid(self, fig1, params):
        s = State.zeros(fig1.n)
        assert check_final_properties(fig1, params, s, OrderedClique(idx(fig1, 1, 2)))
        assert check_final_properties(fig1, params, s, OrderedClique(idx(fig1, 2, 1)))

    def test_fails_when_not_max_rate(self, fig1, params):
        s = State.from_label_counts(fig1, {4: 1})
        assert not check_final_properties(fig1, params, s, OrderedClique(idx(fig1, 7, 8)))

    def test_fails_on_non_maximal(self, fig1, params):
        s = State.zeros(fig1.n)
        assert not check_final_properties(fig1, params, s, OrderedClique(idx(fig1, 4, 5)))


def test_one_vertex_graph_refused(params):
    g = Graph((1,), (frozenset(),))
    with pytest.raises(ValueError) as refused:
        final_maximal_clique(g, params, State.zeros(1))
    assert str(refused.value) == "graph needs at least two vertices"
