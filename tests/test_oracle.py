import itertools
import math

import numpy as np
import pytest
from hypothesis import given
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
    q_measure,
    run,
    single_vertex_bound,
    transition_probs,
    z_drift,
    z_transition_probs,
)

from cliquegrowth import oracle

from conftest import idx


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
        # and the (horizon + 2) x 1 binomial table against MAX_CELLS
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

    @pytest.mark.parametrize("measure", [confinement_prob, q_measure])
    def test_levels_over_cell_limit_refused(self, measure):
        # within the budget, but the last level is C(601, 599) = 180300
        # count vectors of 600 counts: 1.08e8 cells
        g = complete_graph(600)
        with pytest.raises(ValueError, match="cells"):
            measure(g, RateParams.uniform(1.0, 1.0), State.zeros(g.n),
                    OrderedClique(tuple(range(g.n))), 2)


class TestP11Bound:
    def test_plug_in(self):
        assert p11_bound(8, 1.0, 0) == pytest.approx(1 / 9, abs=1e-15)

    def test_limit(self):
        assert p11_bound(8, 1.0, 5000) == 1.0

    def test_monotone_in_r(self):
        vals = [p11_bound(8, 0.7, r) for r in range(20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


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
            assert epsilon_lower_bound(v, a, m) <= partial * (1 + 1e-14)
            assert epsilon_lower_bound(v, a, m) >= partial - 1e-9

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
    uniform or general-mode parameters (all integers, or reals), a start
    state, a random clique grown from a random vertex, and a horizon."""
    n = draw(st.integers(2, 9))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n * 3))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    g = Graph.from_edge_labels(sorted(edges))
    integral = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(size):
        if integral:
            return rng.integers(-1, 4, size).astype(np.float64)
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
    return g, params, integral, x0, OrderedClique(tuple(verts)), int(rng.integers(0, 7))


def assert_same(got, want, exact):
    if exact:
        assert got == want
    else:
        assert abs(got - want) <= 1e-13 * abs(want)


@given(oracle_cases())
def test_level_oracles_match_reference(case):
    """Level-at-a-time DP and path measure against the per-state loops:
    identical values when every exponent is an integer, within 1e-13
    relative otherwise, and the q paths in the same order."""
    g, params, integral, x0, clique, horizon = case
    assert is_clique(g, clique.vertices)
    assert_same(confinement_prob(g, params, x0, clique, horizon),
                ref_confinement_prob(g, params, x0, clique, horizon), integral)

    final = final_maximal_clique(g, params, x0)
    hq = max(1, horizon)
    while len(final) ** hq > 729:
        hq -= 1
    got = q_measure(g, params, x0, final, hq)
    want = ref_q_measure(g, params, x0, final, hq)
    assert list(want) == list(itertools.product(range(len(final)), repeat=hq))
    assert len(got) == len(want)
    for mass_got, mass in zip(got.tolist(), want.values()):
        assert_same(mass_got, mass, integral)


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
    # one- or two-row blocks against one block per level or shell; a = 1
    # gives tied maxima that straddle blocks
    p = RateParams.uniform(0.7, 1.3)
    x0 = State.from_label_counts(fig1, {2: 1})
    c = OrderedClique(idx(fig1, 2, 3, 4, 5))

    def results():
        return (confinement_prob(fig1, p, x0, c, 8),
                q_measure(fig1, p, x0, final_maximal_clique(fig1, p, x0), 6).tolist(),
                drift_shell_max(4, np.ones(3), 0.8, 4, 6))

    whole = results()
    monkeypatch.setattr(oracle, "BLOCK_CELLS", 8)
    assert results() == whole


class TestShellEnumeration:
    def test_rows_in_recursive_order(self):
        for dim in range(1, 6):
            for radius in range(9):
                want = [list(z) for z in ref_iter_l1_sphere(dim, radius)]
                assert oracle._l1_sphere(dim, radius).tolist() == want
                assert oracle._sphere_size(dim, radius) == len(want)

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

    def test_overflowing_logits_rejected(self):
        # lam * z overflows: an error, not a NaN drift
        with pytest.raises(ValueError, match="overflows"):
            drift_shell_max(3, np.ones(2), 1e308, 0, 3)
        with pytest.raises(ValueError, match="overflows"):
            z_drift(3, np.ones(2), 1e308, [2, -2])
