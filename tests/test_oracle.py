import itertools
import math
import random
import sys
from decimal import Decimal, localcontext
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cliquegrowth import (
    Graph,
    OrderedClique,
    RateParams,
    State,
    complete_graph,
    confinement_prob,
    d_sets,
    drift_shell_max,
    epsilon_lower_bound,
    epsilon_n,
    exponent_vector,
    final_maximal_clique,
    is_clique,
    negative_drift_radius,
    p11_bound,
    parse_graph,
    q_measure,
    run,
    single_vertex_bound,
    transition_probs,
    z_drift,
    z_transition_probs,
)

from cliquegrowth import oracle

from conftest import FIG1_EDGES, idx


def brute_force_confinement(g, params, x0, verts, horizon):
    """Independent oracle: enumerate every in-clique allocation sequence and
    sum the exact chain probabilities."""
    total = 0.0
    for path in itertools.product(verts, repeat=horizon):
        counts = x0.counts.copy()
        pr = 1.0
        for v in path:
            pr *= transition_probs(params, g, State(counts))[v]
            counts[v] += 1
        total += pr
    return total


class TestPathSpace:
    def test_size_and_membership(self, fig1):
        # one weight per path of the clique path space, entry i for the path
        # of the base-3 digits of i, in itertools.product order
        c = OrderedClique(idx(fig1, 4, 5, 6))
        weights = q_measure(fig1, RateParams.uniform(1.0, 1.0),
                            State.zeros(fig1.n), c, 4)
        paths = list(itertools.product(range(3), repeat=4))
        assert weights.dtype == np.float64 and weights.shape == (3 ** 4,)
        assert [np.unravel_index(i, (3,) * 4) for i in range(len(weights))] == paths
        assert all(all(0 <= k < 3 for k in p) for p in paths)


class TestQMeasure:
    def test_mass_one_horizon_one(self, fig1):
        p = RateParams.uniform(1.0, 1.0)
        q = q_measure(fig1, p, State.zeros(fig1.n), OrderedClique(idx(fig1, 1, 2)), 1)
        assert sum(q.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_mass_one_both_cliques(self, fig1):
        for a, b in ((1.0, 1.0), (1.0, 2.0)):
            p = RateParams.uniform(a, b)
            for verts in (idx(fig1, 1, 2), idx(fig1, 4, 5, 6)):
                q = q_measure(fig1, p, State.zeros(fig1.n), OrderedClique(verts), 5)
                assert sum(q.tolist()) == pytest.approx(1.0, abs=1e-9)

    def test_k2_blocks_are_singletons(self):
        # on a complete graph all D-sets are empty, so the measure is the
        # law of the chain itself
        g = complete_graph(2)
        p = RateParams.uniform(1.0, 2.0)
        x0 = State.zeros(2)
        q = q_measure(g, p, x0, OrderedClique((0, 1)), 2)
        assert len(q) == 2 ** 2
        for path, mass in zip(itertools.product(range(2), repeat=2), q.tolist()):
            counts = x0.counts.copy()
            pr = 1.0
            for k in path:
                pr *= transition_probs(p, g, State(counts))[k]
                counts[k] += 1
            assert mass == pytest.approx(pr, abs=1e-15)

    def test_budget_enforced(self, fig1):
        p = RateParams.uniform(1.0, 1.0)
        with pytest.raises(ValueError, match="budget"):
            q_measure(fig1, p, State.zeros(fig1.n),
                      OrderedClique(idx(fig1, 4, 5, 6)), 20, budget=1000)

    def test_singleton_levels_count_against_budget(self):
        # one path at every horizon, but one level per step
        g = Graph((1,), (frozenset(),))
        p = RateParams.uniform(1.0, 1.0)
        assert q_measure(g, p, State.zeros(1), OrderedClique((0,)), 10,
                         budget=10).tolist() == [1.0]
        with pytest.raises(ValueError, match="budget"):
            q_measure(g, p, State.zeros(1), OrderedClique((0,)), 11, budget=10)

    def test_paths_over_cell_limit_refused(self, fig1, monkeypatch):
        # 3^17 paths are within the budget but over MAX_CELLS: refused
        # before the first level; at a lowered limit 3^4 still runs
        p = RateParams.uniform(1.0, 1.0)
        c = OrderedClique(idx(fig1, 4, 5, 6))
        with pytest.raises(ValueError, match="cells"):
            q_measure(fig1, p, State.zeros(fig1.n), c, 17, budget=10**11)
        monkeypatch.setattr(oracle, "MAX_CELLS", 3 ** 4)
        assert len(q_measure(fig1, p, State.zeros(fig1.n), c, 4)) == 3 ** 4
        with pytest.raises(ValueError, match="cells"):
            q_measure(fig1, p, State.zeros(fig1.n), c, 5)

    def test_non_final_clique_rejected(self, fig1):
        p = RateParams.uniform(1.0, 1.0)
        s = State.from_label_counts(fig1, {4: 5})
        with pytest.raises(ValueError, match="final"):
            q_measure(fig1, p, s, OrderedClique(idx(fig1, 1, 2)), 2)


class TestConfinement:
    def test_horizon_zero(self, fig1):
        p = RateParams.uniform(1.0, 1.0)
        assert confinement_prob(fig1, p, State.zeros(fig1.n),
                                OrderedClique(idx(fig1, 1, 2)), 0) == 1.0

    def test_uniform_first_step(self, fig1):
        p = RateParams.uniform(1.0, 1.0)
        c = confinement_prob(fig1, p, State.zeros(fig1.n),
                             OrderedClique(idx(fig1, 1, 2)), 1)
        assert c == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("labels", [(1, 2), (4, 5, 6)])
    def test_dp_matches_brute_force(self, fig1, labels):
        p = RateParams.uniform(1.0, 1.0)
        verts = idx(fig1, *labels)
        x0 = State.zeros(fig1.n)
        for n in range(1, 7):
            dp = confinement_prob(fig1, p, x0, OrderedClique(verts), n)
            bf = brute_force_confinement(fig1, p, x0, verts, n)
            assert abs(dp - bf) <= 1e-12

    def test_non_increasing_in_horizon(self, fig1):
        p = RateParams.uniform(1.0, 2.0)
        c = OrderedClique(idx(fig1, 4, 5, 6))
        vals = [confinement_prob(fig1, p, State.zeros(fig1.n), c, n)
                for n in range(0, 20)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    @pytest.mark.parametrize("labels, horizon", [((2, 3, 4, 5), 10), ((4, 5, 6), 20)])
    def test_levels_sum_in_dict_order(self, fig1, beta, labels, horizon):
        # integer exponents: every mass must be summed in the order of the
        # dict DP to give the same bits
        p = RateParams.uniform(1.0, beta)
        c = OrderedClique(idx(fig1, *labels))
        x0 = State.zeros(fig1.n)
        assert (confinement_prob(fig1, p, x0, c, horizon)
                == ref_confinement_prob(fig1, p, x0, c, horizon))

    def test_not_a_clique_rejected(self, fig1):
        p = RateParams.uniform(1.0, 1.0)
        with pytest.raises(ValueError, match="clique"):
            confinement_prob(fig1, p, State.zeros(fig1.n),
                             OrderedClique(idx(fig1, 1, 3)), 2)

    def test_budget_enforced(self, fig1):
        p = RateParams.uniform(1.0, 1.0)
        with pytest.raises(ValueError, match="budget"):
            confinement_prob(fig1, p, State.zeros(fig1.n),
                             OrderedClique(idx(fig1, 2, 3, 4, 5)), 400, budget=100)

    def test_singleton_levels_bounded(self, fig1):
        # one count vector per level: the levels count against the budget,
        # and the (horizon + 2) x 1 cells that bound them against MAX_CELLS
        p = RateParams.uniform(1.0, 1.0)
        c = OrderedClique(idx(fig1, 1))
        with pytest.raises(ValueError, match="budget"):
            confinement_prob(fig1, p, State.zeros(fig1.n), c, 11, budget=10)
        with pytest.raises(ValueError, match="cells"):
            confinement_prob(fig1, p, State.zeros(fig1.n), c, 10**12, budget=10**20)
        assert confinement_prob(fig1, p, State.zeros(fig1.n), c, 10, budget=10) > 0

    def test_underflowed_mass_stops(self, fig1, monkeypatch):
        # a one-vertex clique's mass is exactly 0.0 long before level 5000:
        # the DP returns there instead of scoring the remaining levels
        levels = []
        compositions = oracle._composition_levels

        def counted(m, horizon):
            for level in compositions(m, horizon):
                levels.append(level)
                yield level

        monkeypatch.setattr(oracle, "_composition_levels", counted)
        c = OrderedClique(idx(fig1, 1))
        p = RateParams.uniform(1.0, 1.0)
        assert confinement_prob(fig1, p, State.zeros(fig1.n), c, 5000) == 0.0
        stop = len(levels)
        assert stop < 2500
        levels.clear()
        assert confinement_prob(fig1, p, State.zeros(fig1.n), c, stop - 1) > 0.0
        assert len(levels) == stop - 1

    def test_early_stop_builds_tables_near_its_last_level(self, fig1, monkeypatch):
        # the non-maximal edge {3,4} loses all its mass at level 1066 of a
        # horizon-999,999 DP: no level table past twice that level is
        # built, however far the horizon
        levels, tops = [], []
        compositions, level_table = oracle._composition_levels, oracle._level_table

        def counted(m, horizon):
            for level in compositions(m, horizon):
                levels.append(level)
                yield level

        def spied(m, top):
            tops.append(top)
            return level_table(m, top)

        monkeypatch.setattr(oracle, "_composition_levels", counted)
        monkeypatch.setattr(oracle, "_level_table", spied)
        c = OrderedClique(idx(fig1, 3, 4))
        p = RateParams.uniform(1.0, 1.0)
        assert confinement_prob(fig1, p, State.zeros(fig1.n), c, 999_999) == 0.0
        assert len(levels) == 1066
        assert max(tops) <= 2 * 1066 + 1

    @pytest.mark.parametrize("measure", [confinement_prob, q_measure])
    def test_levels_over_cell_limit_refused(self, measure):
        # within the budget, but the last level is C(601, 599) = 180300
        # count vectors of 600 counts: 1.08e8 cells
        g = complete_graph(600)
        with pytest.raises(ValueError, match="cells"):
            measure(g, RateParams.uniform(1.0, 1.0), State.zeros(g.n),
                    OrderedClique(tuple(range(g.n))), 2)


def compositions_descending(m, total):
    """Every count vector of `total` over m parts, in descending
    lexicographic order, from the m-1 bar positions among total+m-1 slots."""
    comps = []
    for bars in itertools.combinations(range(total + m - 1), m - 1):
        ends = (-1, *bars, total + m - 1)
        comps.append(tuple(b - a - 1 for a, b in zip(ends, ends[1:])))
    return np.array(sorted(comps, reverse=True), dtype=np.int64).reshape(-1, m)


@pytest.mark.parametrize("m, horizon",
                         [(m, h) for m in range(1, 7) for h in range(1, 13)]
                         + [(4, 30), (7, 6), (8, 5), (3, 40), (2, 200)])
def test_composition_levels_match_enumeration(m, horizon):
    levels = list(oracle._composition_levels(m, horizon))
    assert len(levels) == horizon
    nxt = compositions_descending(m, 0)
    for k, (comps, up) in enumerate(levels):
        assert np.array_equal(comps, nxt)
        nxt = compositions_descending(m, k + 1)
        assert up.shape == comps.shape
        for i in range(m):
            assert np.array_equal(nxt[up[:, i]], comps + np.eye(m, dtype=np.int64)[i])


class TestP11Bound:
    def test_plug_in(self):
        assert p11_bound(8, 1.0, 0) == pytest.approx(1 / 9, abs=1e-15)

    def test_limit(self):
        assert p11_bound(8, 1.0, 5000) == 1.0

    def test_monotone_in_r(self):
        vals = [p11_bound(8, 0.7, r) for r in range(20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    # an infinite alpha gave nan: exp(-inf * 0)
    @pytest.mark.parametrize("n_vertices, alpha, r", [
        (0, 1.0, 0), (8, 0.0, 0), (8, -1.0, 0), (8, float("nan"), 0),
        (1, float("inf"), 0), (8, 1.0, -1)])
    def test_bad_inputs_rejected(self, n_vertices, alpha, r):
        with pytest.raises(ValueError, match="need n_vertices"):
            p11_bound(n_vertices, alpha, r)

    # r counts allocations: a NaN gave nan, 2.5 a bound between two counts
    @pytest.mark.parametrize("r", [float("nan"), 2.5, 2.0, "2"])
    def test_non_integer_r_rejected(self, r):
        with pytest.raises(ValueError, match="must be an integer"):
            p11_bound(3, 1.0, r)

    def test_numpy_int_r_accepted(self):
        assert p11_bound(3, 1.0, np.int64(2)) == p11_bound(3, 1.0, 2)

    # |V| counts vertices: 2.5 gave a bound for no graph
    def test_non_integer_n_vertices_rejected(self):
        with pytest.raises(ValueError) as refused:
            p11_bound(2.5, 1.0, 1)
        assert str(refused.value) == "n_vertices counts vertices, so it must be an integer, not 2.5"
        assert p11_bound(np.int64(3), 1.0, 2) == p11_bound(3, 1.0, 2)


def decimal_product(n_vertices, rate, start, m=1):
    """(prod_{r >= start} 1/(1 + |V| e^(-rate r)))^m to 40 digits, from
    below: the log-sum stops once the geometric bound on the rest, which it
    then adds, is below 1e-45."""
    with localcontext() as ctx:
        ctx.prec = 40
        rate, total = Decimal(rate), Decimal(0)
        gap = 1 - (-rate).exp()
        for r in itertools.count(start):
            x = n_vertices * (-rate * r).exp()
            if x / gap < Decimal("1e-45"):
                return (-m * (total + x / gap + Decimal("1e-38"))).exp()
            total += (1 + x).ln()


class TestEpsilonBound:
    def test_frozen_value(self):
        # independently evaluated truncated product for |V|=2, alpha=1, m=2
        assert epsilon_lower_bound(2, 1.0, 2) == pytest.approx(0.15164602596070414,
                                                               abs=1e-9)

    def test_certified_below_partial_products(self):
        # at most a few ulps above the converged partial product, never more
        for v, a, m in ((2, 1.0, 2), (8, 0.5, 2), (8, 2.0, 3)):
            partial = math.exp(-m * sum(math.log1p(v * math.exp(-a * r))
                                        for r in range(1, 5000)))
            assert epsilon_lower_bound(v, a, m) <= partial
            assert epsilon_lower_bound(v, a, m) >= partial - 1e-9

    def test_certified_below_exact_products(self):
        # 40-digit decimal products; the first case was 9.7e-14 relative
        # above the product before the sum was rounded up
        rng = random.Random(13)
        cases = [(8, 0.10875753012431669, 12, 2.266154681892146e-07)]
        cases += [(rng.randint(1, 1000), 10 ** rng.uniform(-1.3, 0.7), rng.randint(1, 20),
                   10 ** rng.uniform(-15, -3)) for _ in range(30)]
        for v, a, m, tol in cases:
            exact = decimal_product(v, a, 1, m)
            got = epsilon_lower_bound(v, a, m, tol)
            assert Decimal(got) <= exact
            # short of it by the tail (below tol per factor) and the roundings;
            # 0.0 below the normal range
            assert got >= float(exact) * (1 - 2 * m * tol - 1e-9) or (
                got == 0.0 and exact < sys.float_info.min)
            beta = a * rng.uniform(-1, 0.9)
            exact = decimal_product(v, a - beta, 0)
            assert Decimal(single_vertex_bound(v, a, beta, tol)) <= exact

    def test_large_alpha_tends_to_one(self):
        assert epsilon_lower_bound(8, 200.0, 3) == pytest.approx(1.0, abs=1e-6)

    def test_monotonicity(self):
        assert epsilon_lower_bound(3, 1.0, 2) > epsilon_lower_bound(4, 1.0, 2)
        assert epsilon_lower_bound(3, 1.0, 2) > epsilon_lower_bound(3, 1.0, 3)
        assert epsilon_lower_bound(3, 2.0, 2) > epsilon_lower_bound(3, 1.0, 2)

    def test_finite_horizon_product(self):
        v, a, m = 8, 1.0, 2
        want = math.exp(-m * sum(math.log1p(v * math.exp(-a * r)) for r in (1, 2)))
        assert epsilon_n(v, a, m, 3) == pytest.approx(want, abs=1e-15)
        assert epsilon_n(v, a, m, 1) == 1.0

    # m is a clique size: 2.5 raised the m = 1 product to that power
    def test_non_integer_m_rejected(self):
        with pytest.raises(ValueError) as refused:
            epsilon_lower_bound(3, 1.0, 2.5)
        assert str(refused.value) == "m is a clique size, so it must be an integer, not 2.5"
        assert epsilon_lower_bound(3, 1.0, np.int64(2)) == epsilon_lower_bound(3, 1.0, 2)

    def test_finite_horizon_product_refuses_non_integer_m(self):
        with pytest.raises(ValueError) as refused:
            epsilon_n(3, 1.0, 2.5, 10)
        assert str(refused.value) == "m is a clique size, so it must be an integer, not 2.5"
        assert epsilon_n(3, 1.0, np.int64(2), 10) == epsilon_n(3, 1.0, 2, 10)

    # a horizon of 10.5 or NaN reached `range` and raised a TypeError there
    @pytest.mark.parametrize("horizon", [10.5, math.nan])
    def test_finite_horizon_product_refuses_non_integer_horizon(self, horizon):
        with pytest.raises(ValueError) as refused:
            epsilon_n(3, 1.0, 2, horizon)
        assert str(refused.value) == (
            f"horizon counts steps, so it must be an integer, not {horizon!r}")
        assert epsilon_n(3, 1.0, 2, np.int64(10)) == epsilon_n(3, 1.0, 2, 10)


class TestSingleVertexBound:
    def test_first_factor(self):
        # the r=0 factor alone is 1/(1+|V|); a huge gap leaves only it
        assert single_vertex_bound(8, 100.0, 1.0) == pytest.approx(1 / 9, abs=1e-6)

    def test_against_partial_product(self):
        partial = math.exp(-sum(math.log1p(8 * math.exp(-1.0 * n))
                                for n in range(0, 5000)))
        got = single_vertex_bound(8, 2.0, 1.0)
        assert got <= partial
        assert got == pytest.approx(partial, abs=1e-9)

    def test_requires_beta_below_alpha(self):
        with pytest.raises(ValueError):
            single_vertex_bound(8, 1.0, 1.0)

    def test_non_integer_n_vertices_rejected(self):
        with pytest.raises(ValueError) as refused:
            single_vertex_bound(2.5, 1.0, 0.5)
        assert str(refused.value) == "n_vertices counts vertices, so it must be an integer, not 2.5"
        assert single_vertex_bound(np.int64(8), 2.0, 1.0) == single_vertex_bound(8, 2.0, 1.0)


class TestZTransitionProbs:
    def test_origin_uniform(self):
        for m in (2, 3, 5):
            probs = z_transition_probs(m, np.ones(m - 1), 1.0, np.zeros(m - 1))
            assert np.allclose(probs, 1 / m)
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_logistic_on_two_vertices(self):
        for z in (-20, -3, 0, 3, 20):
            probs = z_transition_probs(2, [1.0], 0.5, [z])
            want = math.exp(-0.5 * z) / (1 + math.exp(-0.5 * z))
            assert probs[0] == pytest.approx(want, rel=1e-12)

    def test_pushforward_of_growth_process(self):
        # along a complete-graph run, the chain's one-step law at any state
        # equals the difference-chain law with coefficients from the start
        m = 3
        g = complete_graph(m)
        alpha, beta = 1.0, 2.0
        p = RateParams.uniform(alpha, beta)
        rng = np.random.default_rng(17)
        for _ in range(20):
            x0 = State(rng.integers(0, 6, size=m))
            L0 = exponent_vector(p, g, x0)
            a = np.exp(L0[:-1] - L0[-1])
            t = run(g, p, x0, 60, seed=int(rng.integers(1 << 30)))
            r = np.zeros(m, dtype=np.int64)
            for v in t.allocations:
                direct = transition_probs(p, g, State(x0.counts + r))
                viaz = z_transition_probs(m, a, beta - alpha, r[:-1] - r[-1])
                assert np.allclose(direct, viaz, atol=1e-12)
                r[v] += 1


class TestZDrift:
    def test_origin_hand_value(self):
        for m in (2, 3, 4):
            got = z_drift(m, np.ones(m - 1), 0.8, np.zeros(m - 1))
            assert got == pytest.approx(2 * (m - 1) / m, rel=1e-12)

    def test_far_out_is_negative(self):
        assert z_drift(2, [1.0], 0.5, [10]) == pytest.approx(-18.732285963, abs=1e-6)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            m = int(rng.integers(2, 5))
            a = rng.uniform(0.5, 2.0, size=m - 1)
            lam = rng.uniform(0.3, 1.5)
            z = rng.integers(-6, 7, size=m - 1)
            exact = z_drift(m, a, lam, z)
            probs = z_transition_probs(m, a, lam, z)
            incs = np.append(2.0 * z + 1.0, np.sum(1.0 - 2.0 * z))
            n = 20000
            draws = rng.choice(len(probs), size=n, p=probs)
            sample = incs[draws]
            se = sample.std(ddof=1) / math.sqrt(n)
            assert abs(sample.mean() - exact) <= 3 * se + 1e-12

    def test_shell_scan_and_radius(self):
        c = negative_drift_radius(3, np.ones(2), 1.0, threshold=-0.1, width=10)
        top, argmax, count = drift_shell_max(3, np.ones(2), 1.0, c, c + 10)
        assert top <= -0.1
        assert count > 0
        # one shell inward the guarantee does not yet hold
        inner, _, _ = drift_shell_max(3, np.ones(2), 1.0, c - 1, c - 1 + 10)
        assert inner > -0.1


# Reference oracles: the exact tools evaluated one count vector, path prefix
# or lattice point at a time.  The level-at-a-time versions must match them.

def ref_increments(params, g, vertices):
    """Row i: what one allocation at vertices[i] adds to each exponent,
    read off the RateParams fields one entry at a time."""
    n = g.n
    alpha = params.alpha if isinstance(params.alpha, tuple) else (params.alpha,) * n
    if isinstance(params.beta, tuple):
        beta = {(v, u): b for v, u, b in params.beta}
    else:
        beta = {(v, u): params.beta for v in range(n) for u in g.adjacency[v]}
    deltas = np.zeros((len(vertices), n), dtype=np.float64)
    for i, v in enumerate(vertices):
        for u in range(n):
            deltas[i, u] = alpha[v] if u == v else beta.get((u, v), 0.0)
    return deltas


def ref_confinement_prob(g, params, x0, clique, horizon):
    verts = clique.vertices
    m = len(verts)
    if horizon == 0:
        return 1.0
    exps0 = exponent_vector(params, g, x0)
    deltas = ref_increments(params, g, verts)
    vert_idx = np.fromiter(verts, dtype=np.intp)
    level = {(0,) * m: 1.0}
    for _ in range(horizon):
        nxt = {}
        for comp, mass in level.items():
            exps = exps0 + np.asarray(comp, dtype=np.float64) @ deltas
            w = np.exp(exps - exps.max())
            p_in = w[vert_idx] / w.sum()
            for i in range(m):
                key = comp[:i] + (comp[i] + 1,) + comp[i + 1:]
                nxt[key] = nxt.get(key, 0.0) + mass * p_in[i]
        level = nxt
    return float(sum(level.values()))


def ref_q_measure(g, params, x0, clique, horizon):
    m = len(clique)
    part = d_sets(g, clique)
    block_idx = [np.fromiter(sorted(b), dtype=np.intp) for b in part.blocks]
    exps0 = exponent_vector(params, g, x0)
    deltas = ref_increments(params, g, clique.vertices)
    out = {}
    path = []
    nvec = np.zeros(m, dtype=np.int64)

    def rec(depth, weight):
        if depth == horizon:
            out[tuple(path)] = weight
            return
        exps = exps0 + nvec @ deltas
        w = np.exp(exps - exps.max())
        total = w.sum()
        for k in range(m):
            mass = w[block_idx[k]].sum() / total
            path.append(k)
            nvec[k] += 1
            rec(depth + 1, weight * mass)
            nvec[k] -= 1
            path.pop()

    rec(0, 1.0)
    return out


def ref_z_drift(a, lam, z):
    z = np.asarray(z, dtype=np.float64)
    logits = np.append(np.log(np.asarray(a, dtype=np.float64)) - lam * z, 0.0)
    w = np.exp(logits - logits.max())
    p = w / w.sum()
    up = 2.0 * z + 1.0
    down = float(np.sum(1.0 - 2.0 * z))
    return float(p[:-1] @ up + p[-1] * down)


def ref_iter_l1_sphere(dim, radius):
    if dim == 1:
        if radius == 0:
            yield (0,)
        else:
            yield (radius,)
            yield (-radius,)
        return
    for first in range(-radius, radius + 1):
        for rest in ref_iter_l1_sphere(dim - 1, radius - abs(first)):
            yield (first,) + rest


def ref_drift_scan(m, a, lam, c0, c1):
    """Every (z, drift) of the shells c0..c1 in enumeration order."""
    return [(z, ref_z_drift(a, lam, z)) for radius in range(c0, c1 + 1)
            for z in ref_iter_l1_sphere(m - 1, radius)]


def ref_drift_shell_max(m, a, lam, c0, c1):
    best, best_z, count = -math.inf, None, 0
    for z, d in ref_drift_scan(m, a, lam, c0, c1):
        count += 1
        if d > best:
            best, best_z = d, z
    return best, best_z, count


@st.composite
def oracle_cases(draw):
    """A connected graph (random spanning tree plus random extra edges),
    uniform or general-mode parameters (all integers, all multiples of 1/8,
    or reals), a start state, a random clique grown from a random vertex,
    and a horizon."""
    n = draw(st.integers(2, 9))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n * 3))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    g = Graph.from_edge_labels(sorted(edges))
    kind = draw(st.sampled_from(["integral", "dyadic", "real"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(size):
        if kind == "integral":
            return rng.integers(-1, 4, size).astype(np.float64)
        if kind == "dyadic":
            return rng.integers(-8, 24, size) / 8.0
        return rng.uniform(-0.5, 2.5, size)

    if draw(st.booleans()):
        alpha, beta = values(2)
        params = RateParams.uniform(alpha, beta,
                                    base_offset_v=tuple(values(n).tolist()))
    else:
        pairs = [(v, u) for v in range(n) for u in sorted(g.adjacency[v])]
        params = RateParams.general(values(n), dict(zip(pairs, values(len(pairs)))),
                                    base_offset_v=values(n))
    x0 = State(rng.integers(0, 4, n))
    size = rng.integers(1, n + 1)
    verts = [int(rng.integers(n))]
    common = set(g.adjacency[verts[0]])
    while common and len(verts) < size:
        verts.append(int(rng.choice(sorted(common))))
        common &= g.adjacency[verts[-1]]
    return g, params, kind, x0, OrderedClique(tuple(verts)), int(rng.integers(0, 7))


def assert_same(got, want, exact):
    if exact:
        assert got == want
    else:
        assert abs(got - want) <= 1e-13 * abs(want)


@given(oracle_cases())
def test_level_oracles_match_reference(case):
    """Level-at-a-time DP and path measure against the per-state loops:
    identical values when every exponent is an integer or a multiple of
    1/8, within 1e-13 relative otherwise, and the q paths in the same
    order."""
    g, params, kind, x0, clique, horizon = case
    exact = kind != "real"
    assert is_clique(g, clique.vertices)
    assert_same(confinement_prob(g, params, x0, clique, horizon),
                ref_confinement_prob(g, params, x0, clique, horizon), exact)

    final = final_maximal_clique(g, params, x0)
    hq = max(1, horizon)
    while len(final) ** hq > 729:
        hq -= 1
    got = q_measure(g, params, x0, final, hq)
    want = ref_q_measure(g, params, x0, final, hq)
    assert list(want) == list(itertools.product(range(len(final)), repeat=hq))
    assert len(got) == len(want)
    for mass_got, mass in zip(got.tolist(), want.values()):
        assert_same(mass_got, mass, exact)


# fig1 in general mode with alpha 0.7 at label 1 and 1.0 elsewhere, beta 1 on
# every edge: only column 1 of K is off the exact grid, and the clique
# {2,3,4,5} never adds it
FIG1_OFF = parse_graph(FIG1_EDGES)
OFF_PARAMS = RateParams.general(
    [0.7 if lab == 1 else 1.0 for lab in FIG1_OFF.labels],
    {(v, u): 1.0 for v in range(FIG1_OFF.n) for u in FIG1_OFF.adjacency[v]})
OFF_CLIQUE = OrderedClique(idx(FIG1_OFF, 2, 3, 4, 5))


@given(oracle_cases().filter(lambda case: case[2] != "real"))
@example((FIG1_OFF, OFF_PARAMS, "real", State.zeros(FIG1_OFF.n), OFF_CLIQUE, 12))
def test_one_product_matches_stacked_products_on_grid(case):
    """On the exact grid a level's exponents are one matrix product; they
    equal the per-vector products of the path off the grid bit for bit, at
    every level, in both layouts, with offsets, start counts and negative
    general-mode entries, and where a column the clique never adds is off
    the grid."""
    g, params, _, x0, clique, horizon = case
    horizon = max(horizon, 1)
    exps0, deltas, exact = oracle._start_exponents(params, g, x0, clique.vertices, horizon)
    assert exact
    for min_n in (oracle.ROW_LAYOUT_MIN_N, 1):
        with patch.object(oracle, "ROW_LAYOUT_MIN_N", min_n):
            for comps, _ in oracle._composition_levels(len(clique), horizon):
                one = oracle._exponents(exps0, deltas, comps, True)
                stacked = oracle._exponents(exps0, deltas, comps, False)
                assert one.shape == stacked.shape == (g.n, len(comps))
                assert one.tobytes() == stacked.tobytes()


@given(oracle_cases())
def test_layouts_give_the_same_bits(case):
    """The DP and the path measure, with every block's laws C-ordered (as
    on graphs under ROW_LAYOUT_MIN_N vertices) and F-ordered (one count
    vector per row, as on larger graphs): identical results, on and off the
    exact grid."""
    g, params, _, x0, clique, horizon = case
    final = final_maximal_clique(g, params, x0)
    hq = max(1, horizon)
    while len(final) ** hq > 729:
        hq -= 1
    want = (confinement_prob(g, params, x0, clique, horizon).hex(),
            q_measure(g, params, x0, final, hq).tobytes())
    with patch.object(oracle, "ROW_LAYOUT_MIN_N", 1):
        got = (confinement_prob(g, params, x0, clique, horizon).hex(),
               q_measure(g, params, x0, final, hq).tobytes())
    assert got == want


def test_layouts_give_the_same_bits_off_the_grid(fig1):
    # at h = 12 one product per level instead of the stacked products would
    # move the last bit of both values
    c = OrderedClique(idx(fig1, 2, 3, 4, 5))
    for p in (RateParams.uniform(0.7, 1.3), RateParams.uniform(0.3, 0.7)):
        want = confinement_prob(fig1, p, State.zeros(fig1.n), c, 12).hex()
        with patch.object(oracle, "ROW_LAYOUT_MIN_N", 1):
            assert confinement_prob(fig1, p, State.zeros(fig1.n), c, 12).hex() == want


def test_column_off_grid_outside_the_clique_keeps_the_value():
    # the exponents the DP reads are on the grid, so taking them as one
    # product moves no bit of the value found with stacked products
    x0 = State.zeros(FIG1_OFF.n)
    value = confinement_prob(FIG1_OFF, OFF_PARAMS, x0, OFF_CLIQUE, 30)
    assert value.hex() == "0x1.52184a10cba5ep-3"


def test_one_product_rule_is_off_beside_the_grid(fig1):
    # 0.7 and 1.3 are no multiples of a power of two; 1e200 rates are
    # integers, but a horizon's reach is far past 2^52
    c = idx(fig1, 2, 3, 4, 5)
    for p in (RateParams.uniform(0.7, 1.3), RateParams.uniform(1e200, 1e200)):
        assert not oracle._start_exponents(p, fig1, State.zeros(fig1.n), c, 100)[2]
    assert oracle._start_exponents(RateParams.uniform(1.0, 1.0), fig1,
                                   State.zeros(fig1.n), c, 100)[2]


@given(st.integers(2, 5), st.integers(0, 2**32 - 1), st.integers(0, 5),
       st.integers(0, 3), st.booleans())
def test_drift_scan_matches_reference(m, seed, c0, extra, symmetric):
    """The shell scan against the per-state loop: the same state count, the
    maximum within 1e-13, z_drift at the returned z equal to the maximum
    bit for bit, and the reference argmax when its maximum is unique by
    more than 1e-12.  Among tied states (a = 1 gives many) the returned z
    is the first maximizer of z_drift in enumeration order."""
    rng = np.random.default_rng(seed)
    a = np.ones(m - 1) if symmetric else rng.uniform(0.2, 3.0, m - 1)
    lam = float(rng.uniform(0.05, 2.0))
    c1 = c0 + extra
    top, z, count = drift_shell_max(m, a, lam, c0, c1)
    scan = ref_drift_scan(m, a, lam, c0, c1)
    want_top, want_z, want_count = ref_drift_shell_max(m, a, lam, c0, c1)
    assert count == want_count == len(scan)
    assert abs(top - want_top) <= 1e-13 * max(1.0, abs(want_top))
    assert z_drift(m, a, lam, z) == top
    mine = [z_drift(m, a, lam, zz) for zz, _ in scan]
    assert max(mine) == top and z == scan[mine.index(top)][0]
    assert abs(z_drift(m, a, lam, want_z) - ref_z_drift(a, lam, want_z)) <= 1e-13 * max(1.0, abs(want_top))
    runner_up = max((d for zz, d in scan if zz != want_z), default=-math.inf)
    if want_top - runner_up > 1e-12:
        assert z == want_z


def test_row_blocks_do_not_change_results(fig1, monkeypatch):
    # one- to three-row blocks against one block per level or scan; a = 1
    # gives tied maxima that fall in different blocks
    p = RateParams.uniform(0.7, 1.3)
    x0 = State.from_label_counts(fig1, {2: 1})
    c = OrderedClique(idx(fig1, 2, 3, 4, 5))
    a, lam, c0, c1 = np.ones(3), 0.8, 4, 7

    def results():
        return (confinement_prob(fig1, p, x0, c, 8),
                q_measure(fig1, p, x0, final_maximal_clique(fig1, p, x0), 6).tolist(),
                drift_shell_max(4, a, lam, c0, c1))

    whole = results()
    for cells in (8, 12):
        monkeypatch.setattr(oracle, "BLOCK_CELLS", cells)
        assert results() == whole
    # at 12 cells the scan's blocks hold three rows: one straddles the
    # boundary of shells 6 and 7, and its tied maxima lie in three blocks
    step = 12 // 4
    ends = np.cumsum([oracle._sphere_size(3, r) for r in range(c0, c1 + 1)])
    assert (ends % step).any()
    drifts = np.array([z_drift(4, a, lam, z) for z in oracle._l1_sphere(3, c0, c1)])
    tied = np.flatnonzero(drifts == whole[2][0])
    assert len(set((tied // step).tolist())) == 3


# Reference product series: the two loops that summed the factors
# log(1 + |V| e^(-rate r)) before `_log_product_tail` became the only one.
# The first refused products of more than 10^6 factors below 1.

def ref_log_product_tail(n_vertices, rate, start, tail_tol):
    gap = 1.0 - math.exp(-rate)
    total = 0.0
    r = start
    while gap > 0 and total < 746.0:
        tail = n_vertices * math.exp(-rate * (r)) / gap
        if tail < tail_tol:
            # rounded up as the library rounds its certified sum
            ulps = r - start + rate * r + 1.0 / gap + 16
            return (total + tail) * (1.0 + ulps * 2.0**-52)
        total += math.log1p(n_vertices * math.exp(-rate * r))
        r += 1
    return math.inf


def ref_epsilon_n(n_vertices, alpha, m, horizon):
    """None where the product had too many factors to sum."""
    stop = min(horizon, 746.0 / alpha + 1)
    if stop > 1_000_000:
        return None
    s = 0.0
    for r in range(1, math.ceil(stop)):
        s += math.log1p(n_vertices * math.exp(-alpha * r))
    return math.exp(-m * s)


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@given(st.integers(1, 10**6), log_uniform(-17, 3), st.floats(0, 0.999),
       st.integers(1, 20), log_uniform(0, 13), log_uniform(0, 13),
       log_uniform(-15, 0))
def test_product_series_matches_references(n_vertices, alpha, beta_frac, m,
                                           h1, h2, tol):
    """All three bounds give the reference bits where the reference answers
    and epsilon_n is 0.0 where it refused; epsilon_n never rises with the
    horizon; epsilon_lower_bound stays below epsilon_n at every horizon.
    Rates below 1.1e-16 make 1 - e^(-rate) zero."""
    beta = alpha * beta_frac
    lower, upper = sorted((int(h1), int(h2)))
    lb = epsilon_lower_bound(n_vertices, alpha, m, tol)
    assert lb == oracle._exp_lower(m * ref_log_product_tail(n_vertices, alpha, 1, tol))
    assert single_vertex_bound(n_vertices, alpha, beta, tol) == oracle._exp_lower(
        ref_log_product_tail(n_vertices, alpha - beta, 0, tol))
    eps = [epsilon_n(n_vertices, alpha, m, h) for h in (lower, upper)]
    for h, got in zip((lower, upper), eps):
        want = ref_epsilon_n(n_vertices, alpha, m, h)
        assert got == (0.0 if want is None else want)
    assert eps[1] <= eps[0]
    # Past the bound's cut the horizon sum adds each factor on its own: k
    # additions round by at most 2^-53 of the total each, and the terms
    # (exp arguments below 746) by under 1000 x 2^-53 of the tail together.
    # The slack covers that rounding, with k at most the factors below 1;
    # the excess over 1e-14 was seen up to 1.7e-13.
    if lb > 0.0:
        rounding = (min(upper, 746.0 / alpha + 1) + 1000) * 2.0**-53 * -math.log(lb)
        for got in eps:
            assert lb <= got * (1 + 1e-14) * math.exp(rounding)


class TestShellEnumeration:
    def test_rows_in_recursive_order(self):
        # a range of shells is the shells c0..c1 one after another
        for dim in range(1, 6):
            for c0 in range(9):
                for c1 in range(c0, 9):
                    want = [list(z) for r in range(c0, c1 + 1)
                            for z in ref_iter_l1_sphere(dim, r)]
                    assert oracle._l1_sphere(dim, c0, c1).tolist() == want
                    assert sum(oracle._sphere_size(dim, r)
                               for r in range(c0, c1 + 1)) == len(want)

    def test_range_over_cell_limit_refused(self, monkeypatch):
        # in two dimensions shells 0..4 hold 1, 4, 8, 12 and 16 states: at
        # 50 cells each shell fits, shells 0..3 (25 states) fit, and 0..4
        # (41 states, 82 cells) do not
        monkeypatch.setattr(oracle, "MAX_CELLS", 50)
        a = np.ones(2)
        assert [drift_shell_max(3, a, 1.0, r, r)[2] for r in range(5)] == [1, 4, 8, 12, 16]
        with pytest.raises(ValueError, match="or 50 array cells"):
            drift_shell_max(3, a, 1.0, 0, 4)
        assert drift_shell_max(3, a, 1.0, 0, 3)[2] == 25

    def test_scan_over_budget_refused(self):
        # 4r states at radius r in two dimensions: 250000 is exactly the budget
        a = np.ones(2)
        assert oracle._sphere_size(2, 250_000) == oracle.DEFAULT_ENUM_BUDGET
        top, z, count = drift_shell_max(3, a, 1.0, 250_000, 250_000)
        assert count == oracle.DEFAULT_ENUM_BUDGET
        assert z_drift(3, a, 1.0, z) == top
        with pytest.raises(ValueError, match="states"):
            drift_shell_max(3, a, 1.0, 250_001, 250_001)
        with pytest.raises(ValueError, match="states"):
            drift_shell_max(3, a, 1.0, 0, 250_000)

    def test_shells_in_use_fit_the_budget(self):
        # the benchmark's scan and the CLI tests' scans
        for m, c0, c1 in ((4, 0, 15), (3, 0, 3), (1500, 0, 1)):
            oracle._check_scan(np.zeros(m - 1), 1.0, c0, c1)

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_negative_drift_radius_matches_rescanning_loop(self, m, lam):
        a, threshold, width = np.ones(m - 1), -0.1, 10
        want = next(c for c in range(1, 201)
                    if drift_shell_max(m, a, lam, c, c + width)[0] <= threshold)
        assert negative_drift_radius(m, a, lam, threshold, width) == want

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_rates_rejected(self, lam):
        with pytest.raises(ValueError):
            drift_shell_max(3, np.ones(2), lam, 0, 3)
        with pytest.raises(ValueError):
            negative_drift_radius(3, np.ones(2), lam)

    # a negative width scored no shell and raised max()'s error; a NaN
    # threshold scanned every radius up to c_max before refusing
    @pytest.mark.parametrize("scan", [dict(width=-1), dict(threshold=float("nan"))])
    def test_bad_scans_rejected(self, scan):
        with pytest.raises(ValueError, match="width >= 0"):
            negative_drift_radius(3, np.ones(2), 1.0, **scan)

    def test_overflowing_logits_rejected(self):
        # lam * z overflows: an error, not a NaN drift
        with pytest.raises(ValueError, match="overflows"):
            drift_shell_max(3, np.ones(2), 1e308, 0, 3)
        with pytest.raises(ValueError, match="overflows"):
            z_drift(3, np.ones(2), 1e308, [2, -2])


def fig1_call(oracle_call, horizon):
    """`oracle_call` on fig1 at alpha = beta = 1 from zero counts, on the
    clique (4, 5, 6), at `horizon`."""
    def call(fig1):
        c = OrderedClique(idx(fig1, 4, 5, 6))
        return oracle_call(fig1, RateParams.uniform(1.0, 1.0), State.zeros(fig1.n), c,
                           horizon=horizon)
    return call


@pytest.mark.parametrize("call, message", [
    (fig1_call(q_measure, 0), "horizon must be >= 1"),
    (fig1_call(confinement_prob, -1), "horizon must be >= 0"),
    (lambda fig1: epsilon_n(8, 1.0, 0, 5), "need m >= 1 and horizon >= 1"),
    (lambda fig1: z_transition_probs(3, [1, 1], 1.0, [0]), "need z of length m-1"),
    (lambda fig1: z_transition_probs(3, [1, 1], 1.0, [math.nan, 0]), "z must be finite"),
    (lambda fig1: z_transition_probs(3, [1, 1], 1.0, [math.inf, 0]), "z must be finite"),
    (lambda fig1: z_drift(3, [1, 1], 1.0, [math.nan, 0]), "z must be finite"),
    (lambda fig1: z_drift(3, [1, 1], 1.0, [0, -math.inf]), "z must be finite"),
    (lambda fig1: drift_shell_max(3, [1, 1], 1.0, 3, 1), "need 0 <= c0 <= c1"),
    (lambda fig1: negative_drift_radius(3, [1, 1], 1.0, threshold=-100, c_max=3),
     "no radius up to 3 gives drift <= -100")],
    ids=["q-horizon-0", "confine-horizon-negative", "epsilon-m-0", "z-length", "z-nan",
         "z-inf", "drift-z-nan", "drift-z-inf", "shell-reversed", "no-radius"])
def test_refusals_in_own_words(fig1, call, message):
    with pytest.raises(ValueError) as refused:
        call(fig1)
    assert str(refused.value) == message
