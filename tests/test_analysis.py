import concurrent.futures
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliquegrowth import (
    RateParams,
    State,
    Trajectory,
    c_matrix,
    classify_outcome,
    complete_graph,
    enumerate_maximal_cliques,
    exponent_vector,
    lln_deviation,
    localisation_set,
    monte_carlo_report,
    parse_graph,
    run,
    z_chain,
)
from cliquegrowth import analysis, graphs
from cliquegrowth.analysis import onset_step
from cliquegrowth.graphs import Graph

from conftest import K222_EDGES, idx, serial_pool


def reference_c_matrix(g, lam, state, clique):
    """The original O(m^2 n) loop: for each pair i < j, lam times the signed
    count outside {v, u} adjacent to one of them only; the lower triangle is
    the negation of the upper one (so -0.0 below a zero)."""
    verts = list(clique)
    x = state.counts
    m = len(verts)
    out = np.zeros((m, m), dtype=np.float64)
    for i in range(m):
        for j in range(i + 1, m):
            v, u = verts[i], verts[j]
            total = 0
            for w in range(g.n):
                if w == v or w == u:
                    continue
                wv = w in g.adjacency[v]
                wu = w in g.adjacency[u]
                if wv and not wu:
                    total += int(x[w])
                elif wu and not wv:
                    total -= int(x[w])
            out[i, j] = lam * total
            out[j, i] = -out[i, j]
    return out


@st.composite
def c_matrix_cases(draw):
    """A connected graph (random spanning tree plus random extra edges), an
    ordered clique of size >= 2 in it, counts and a rate."""
    n = draw(st.integers(2, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n * 3))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    g = Graph.from_edge_labels(sorted(edges))
    maximal = draw(st.sampled_from(enumerate_maximal_cliques(g)))
    order = draw(st.permutations(maximal))
    clique = order[:draw(st.integers(2, len(order)))]
    counts = draw(st.lists(st.integers(0, 60), min_size=g.n, max_size=g.n))
    lam = draw(st.sampled_from([0.7, 1.3, 1.0, 0.1, 2.9, -0.7])
               | st.floats(1e-3, 10.0))
    return g, lam, State(np.array(counts)), clique


def make_traj(g, alloc):
    return Trajectory(initial=State.zeros(g.n),
                      allocations=np.asarray(alloc, dtype=np.int64))


class TestLocalisationSet:
    def test_tail_support(self, fig1):
        a = idx(fig1, 4)[0]
        b = idx(fig1, 5)[0]
        c = idx(fig1, 6)[0]
        other = idx(fig1, 1)[0]
        alloc = [other] * 10 + [a, b, c] * 10
        t = make_traj(fig1, alloc)
        assert localisation_set(t, 0.5) == tuple(sorted((a, b, c)))

    def test_single_vertex(self, fig1):
        v = idx(fig1, 7)[0]
        t = make_traj(fig1, [v] * 20)
        assert localisation_set(t, 0.3) == (v,)

    def test_full_fraction_gives_support(self, fig1):
        alloc = idx(fig1, 1, 2, 7)
        t = make_traj(fig1, list(alloc))
        assert localisation_set(t, 1.0) == tuple(sorted(alloc))

    def test_empty_trajectory_rejected(self, fig1):
        t = make_traj(fig1, [])
        with pytest.raises(ValueError):
            localisation_set(t, 0.5)

    def test_zero_fraction_rejected(self, fig1):
        t = make_traj(fig1, [0, 1])
        with pytest.raises(ValueError, match=r"^tail_fraction must be in \(0, 1\]$"):
            localisation_set(t, 0)


class TestClassify:
    def test_maximal_clique(self, fig1):
        assert classify_outcome(fig1, idx(fig1, 2, 3, 4, 5)) == "clique"

    def test_non_maximal_clique_undecided(self, fig1):
        assert classify_outcome(fig1, idx(fig1, 4, 5)) == "undecided"

    def test_singleton(self, fig1):
        assert classify_outcome(fig1, idx(fig1, 7)) == "single_vertex"

    def test_clique_kind_matches_enumeration(self):
        # members of size >= 2 classify as a clique exactly when they are one
        # of the enumerated maximal cliques
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(150):
            n = int(rng.integers(3, 11))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < rng.uniform(0.2, 0.8)]
            if not pairs:
                continue
            g = Graph.from_edge_labels(pairs)
            cliques = set(enumerate_maximal_cliques(g))
            candidates = [c for c in cliques if len(c) >= 2]
            candidates += [c[:-1] for c in candidates if len(c) > 2]
            candidates += [tuple(sorted(rng.choice(g.n, size=k, replace=False).tolist()))
                           for k in rng.integers(2, g.n + 1, size=6)]
            for members in candidates:
                kind = classify_outcome(g, members)
                assert (kind == "clique") == (members in cliques)
                checked += 1
        assert checked > 1000


class TestCMatrix:
    def test_complete_graph_all_zero(self):
        g = complete_graph(4)
        s = State(np.array([3, 1, 4, 1]))
        C = c_matrix(g, 1.0, s, (0, 1, 2, 3))
        assert (C == 0).all()

    def test_fig1_clique_12(self, fig1):
        # no vertex is adjacent to 1 but not 2; {3,4,5,7} are adjacent to 2 only
        s = State.from_label_counts(fig1, {3: 2, 4: 1, 5: 1, 7: 3, 8: 5})
        lam = 0.5
        C = c_matrix(fig1, lam, s, idx(fig1, 1, 2))
        assert C[0, 1] == pytest.approx(-lam * (2 + 1 + 1 + 3))
        assert C[1, 0] == -C[0, 1]

    def test_antisymmetry_exact(self, fig1):
        rng = np.random.default_rng(3)
        s = State(rng.integers(0, 9, size=fig1.n))
        C = c_matrix(fig1, 1.3, s, idx(fig1, 2, 3, 4, 5))
        assert (C + C.T == 0).all()

    def test_exponent_difference_identity(self, fig1):
        # the log-ratio matrix equals in-clique exponent differences exactly
        p = RateParams.uniform(1.0, 1.0)
        rng = np.random.default_rng(4)
        s = State(rng.integers(0, 7, size=fig1.n))
        verts = idx(fig1, 2, 3, 4, 5)
        C = c_matrix(fig1, p.lam, s, verts)
        L = exponent_vector(p, fig1, s)
        for i, v in enumerate(verts):
            for j, u in enumerate(verts):
                assert C[i, j] == pytest.approx(L[v] - L[u], abs=1e-9)

    def test_requires_adjacent_members(self, fig1):
        # the message names labels 1, 3, not their indices
        with pytest.raises(ValueError, match=r"\(1, 3\) is not a clique"):
            c_matrix(fig1, 1.0, State.zeros(fig1.n), idx(fig1, 1, 3))

    @given(c_matrix_cases())
    def test_matches_reference_loop_bytes(self, case):
        # bytes, not values: the signs of the zeros must match too
        g, lam, state, clique = case
        want = reference_c_matrix(g, lam, state, clique)
        assert c_matrix(g, lam, state, clique).tobytes() == want.tobytes()


class TestLlnDeviation:
    def test_round_robin_is_tight(self):
        g = complete_graph(3)
        t = make_traj(g, [0, 1, 2] * 2000)
        assert lln_deviation(t, (0, 1, 2), n0=100) <= 3 / 100

    def test_all_one_vertex_is_maximal(self):
        g = complete_graph(3)
        t = make_traj(g, [0] * 3000)
        dev = lln_deviation(t, (0, 1, 2), n0=1000)
        assert dev == pytest.approx(2 * (3 - 1) / 3, abs=1e-9)

    @pytest.mark.parametrize("n0", [0, 61], ids=["zero", "past-horizon"])
    def test_n0_outside_the_run_rejected(self, n0):
        t = make_traj(complete_graph(3), [0, 1, 2] * 20)
        with pytest.raises(ValueError, match=r"^need 0 < n0 <= horizon$"):
            lln_deviation(t, (0, 1, 2), n0=n0)

    # an empty list divided by m = 0; a repeated vertex counted twice
    @pytest.mark.parametrize("clique", [(), (1, 1), (0, 2, 0)], ids=["empty", "repeat", "repeat-apart"])
    def test_empty_or_repeated_clique_rejected(self, clique):
        t = make_traj(complete_graph(3), [0, 1, 2] * 20)
        with pytest.raises(ValueError, match=r"^need one or more distinct clique vertices$"):
            lln_deviation(t, clique)


class TestZChain:
    def test_alternating_on_k2(self):
        g = complete_graph(2)
        t = make_traj(g, [0, 1] * 10)
        chain = z_chain(t, g)
        assert chain.z_path[:5, 0].tolist() == [0, 1, 0, 1, 0]
        assert chain.return_times.tolist() == [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
        assert (chain.gaps() == 2).all()

    def test_requires_complete_graph(self, fig1):
        t = make_traj(fig1, [0, 1])
        with pytest.raises(ValueError):
            z_chain(t, fig1)

    def test_return_gaps_stabilize(self):
        # positive recurrence shows as a stabilizing mean return gap
        g = complete_graph(3)
        p = RateParams.uniform(1.0, 2.0)
        t = run(g, p, State.zeros(3), 100_000, seed=13)
        chain = z_chain(t, g)
        gaps = chain.gaps().astype(float)
        assert len(gaps) > 1000
        half = len(gaps) // 2
        m1, m2 = gaps[:half].mean(), gaps.mean()
        se = gaps.std(ddof=1) / math.sqrt(half)
        assert abs(m1 - m2) <= 4 * se


class TestMonteCarloReport:
    def test_zero_replicas_rejected(self, fig1):
        with pytest.raises(ValueError):
            monte_carlo_report(fig1, RateParams.uniform(1.0, 1.0),
                               State.zeros(fig1.n), 100, 0, seed=1)

    def test_clique_limit_refused_before_replicas(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a replica ran before the cliques were enumerated")

        g = parse_graph(K222_EDGES)
        monkeypatch.setattr(analysis, "run", no_run)
        monkeypatch.setattr(graphs, "MAX_CLIQUES", 7)
        with pytest.raises(ValueError, match="maximal cliques"):
            monte_carlo_report(g, RateParams.uniform(1.0, 1.0), State.zeros(g.n),
                               10, 3, seed=1)

    @pytest.mark.parametrize("steps, tail, message", [
        (0, 0.5, "steps must be in"), (10, 2.0, "tail_fraction"),
        (10, 0.0, "tail_fraction"), (10, math.nan, "tail_fraction")])
    def test_bad_steps_or_tail_refused_before_replicas(self, monkeypatch, fig1,
                                                       steps, tail, message):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the arguments were checked")

        started = []
        monkeypatch.setattr(analysis, "run", no_work)
        monkeypatch.setattr(analysis, "enumerate_maximal_cliques", no_work)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool(started))
        with pytest.raises(ValueError, match=message):
            monte_carlo_report(fig1, RateParams.uniform(1.0, 1.0), State.zeros(fig1.n),
                               steps, 3, seed=1, tail_fraction=tail, jobs=2)
        assert started == []

    def test_frequencies_sum_to_one(self, fig1):
        p = RateParams.uniform(1.0, 1.0)
        rep = monte_carlo_report(fig1, p, State.zeros(fig1.n), 800, 40, seed=6)
        total = (sum(rep.clique_frequencies.values())
                 + rep.single_vertex_frequency + rep.undecided_frequency)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert len(rep.per_replica) == 40

    def test_classified_sets_obey_invariants(self, fig1):
        p = RateParams.uniform(1.0, 1.0)
        maximal = set(enumerate_maximal_cliques(fig1))
        rep = monte_carlo_report(fig1, p, State.zeros(fig1.n), 800, 40, seed=6)
        for out in rep.per_replica:
            kind = out.classification
            if kind == "single_vertex":
                assert len(out.localisation_set) == 1
            elif kind == "clique":
                assert out.localisation_set in maximal
                assert out.ratio_matrix is not None
                assert out.c_matrix is not None  # critical regime

    def test_single_vertex_regime(self, fig1):
        p = RateParams.uniform(1.0, 0.5)
        rep = monte_carlo_report(fig1, p, State.zeros(fig1.n), 1500, 30, seed=6,
                                 tail_fraction=0.2)
        assert rep.single_vertex_frequency >= 0.9

    def test_clique_regime_c_matrix_is_zero(self, fig1):
        p = RateParams.uniform(1.0, 2.0)
        rep = monte_carlo_report(fig1, p, State.zeros(fig1.n), 1000, 20, seed=8)
        cliques = [r for r in rep.per_replica if r.classification == "clique"]
        assert cliques
        for r in cliques:
            assert all(x == 0.0 for row in r.c_matrix for x in row)

    def test_jobs_do_not_change_report(self, fig1):
        p = RateParams.uniform(1.0, 1.0)
        a = monte_carlo_report(fig1, p, State.zeros(fig1.n), 500, 12, seed=9, jobs=1)
        b = monte_carlo_report(fig1, p, State.zeros(fig1.n), 500, 12, seed=9, jobs=4)
        assert a == b

    @pytest.mark.parametrize("cpus", [None, 1, 2, 8])
    def test_workers_capped_by_replicas_and_cpus(self, fig1, monkeypatch, cpus):
        # never more workers than replicas or CPUs, and none for one
        started = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool(started))
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: cpus)
        p = RateParams.uniform(1.0, 1.0)
        args = (fig1, p, State.zeros(fig1.n), 200, 3)
        assert (monte_carlo_report(*args, seed=9, jobs=10**6)
                == monte_carlo_report(*args, seed=9, jobs=1))
        want = min(3, cpus or 1)
        assert started == ([want] if want > 1 else [])

    def test_jsonable_schema(self, fig1):
        p = RateParams.uniform(1.0, 1.0)
        rep = monte_carlo_report(fig1, p, State.zeros(fig1.n), 400, 10, seed=2)
        doc = rep.to_jsonable(fig1)
        assert set(doc) == {"replicas", "per_replica", "aggregate"}
        assert len(doc["per_replica"]) == 10
        assert set(doc["aggregate"]) == {"clique_frequencies",
                                         "single_vertex_frequency",
                                         "undecided_frequency"}
        for row in doc["per_replica"]:
            assert set(row) == {"localisation_set", "classification", "onset",
                                "ratio_matrix", "c_matrix"}


class TestOnsetAndOutcome:
    def test_onset_is_last_outside_step(self, fig1):
        a, b, other = idx(fig1, 4, 5, 1)
        t = make_traj(fig1, [a, other, a, b, a, b])
        assert onset_step(t, (a, b)) == 2
        assert onset_step(t, (a, b, other)) == 0

    def test_exponent_differences_frozen_after_onset(self, fig1):
        # critical regime: once allocations stay inside the set, in-set
        # exponent differences never move again
        p = RateParams.uniform(1.0, 1.0)
        for i in range(10):
            t = run(fig1, p, State.zeros(fig1.n), 2000, seed=15, stream=i)
            s = localisation_set(t, 0.5)
            if classify_outcome(fig1, s) != "clique":
                continue
            onset = onset_step(t, s)
            L1 = exponent_vector(p, fig1, State(t.counts_at(onset)))
            L2 = exponent_vector(p, fig1, t.final_state())
            d1 = np.array([L1[v] for v in s])
            d2 = np.array([L2[v] for v in s])
            assert np.abs((d2 - d2[0]) - (d1 - d1[0])).max() <= 1e-9
