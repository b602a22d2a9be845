import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cliquegrowth import (
    OrderedClique,
    RateParams,
    State,
    complete_graph,
    confinement_prob,
    exponent_vector,
    final_maximal_clique,
    make_rng,
    run,
    transition_probs,
    write_trajectory_csv,
)
from cliquegrowth.graphs import Graph
from cliquegrowth.process import (
    _materialized_arrays,
    _scalar_kernel,
    column_sum,
    exp_weights,
    probs_from_exponents,
)

from conftest import KERNELS, drive_kernel, idx, scalar_pairs


def uniforms_selecting(params, g, x0, vertices):
    """Uniforms that make the sampler allocate exactly `vertices` from x0:
    each is the midpoint of its vertex's slice of the cumulative law."""
    counts = x0.counts.copy()
    out = []
    for v in vertices:
        c = np.cumsum(transition_probs(params, g, State(counts)))
        lo = c[v - 1] if v else 0.0
        out.append((lo + c[v]) / 2 / c[-1])
        counts[v] += 1
    return out


def reference_arrays(g, mode, alpha=None, beta=None, alpha_v=None,
                     beta_vu=None, base_offset_v=None):
    """The original materialization from the six fields of the original
    RateParams (beta_vu as sorted (v, u, b) triples): Python loops over the
    adjacency, the same checks in the same order."""
    n = g.n
    if mode == "uniform":
        alpha_vec = np.full(n, alpha, dtype=np.float64)
        beta_mat = np.zeros((n, n), dtype=np.float64)
        for v in range(n):
            for u in g.adjacency[v]:
                beta_mat[v, u] = beta
    else:
        if len(alpha_v) != n:
            raise ValueError(f"alpha_v has length {len(alpha_v)}, graph has {n} vertices")
        alpha_vec = np.asarray(alpha_v, dtype=np.float64)
        beta_mat = np.zeros((n, n), dtype=np.float64)
        for v, u, b in beta_vu:
            if not (0 <= v < n and 0 <= u < n) or u not in g.adjacency[v]:
                raise ValueError(f"beta_vu defined for non-adjacent pair ({v}, {u})")
            beta_mat[v, u] = b
    if base_offset_v is None:
        offset = np.zeros(n, dtype=np.float64)
    else:
        if len(base_offset_v) != n:
            raise ValueError("base_offset_v length does not match the graph")
        offset = np.asarray(base_offset_v, dtype=np.float64)
    return alpha_vec, beta_mat, offset


def reference_error(g, **fields):
    with pytest.raises(ValueError) as err:
        reference_arrays(g, **fields)
    return str(err.value)


@st.composite
def rate_cases(draw):
    """A connected graph and uniform or general parameters on it, with and
    without offsets; values include -0.0 and non-dyadic rates."""
    n = draw(st.integers(2, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n * 2))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    g = Graph.from_edge_labels(sorted(edges))
    rate = st.sampled_from([0.7, 1.3, -0.0, 0.0, 1.0, -2.5]) | st.floats(-5.0, 5.0)
    offset = draw(st.none() | st.lists(rate, min_size=n, max_size=n))
    if draw(st.booleans()):
        fields = dict(mode="uniform", alpha=draw(rate), beta=draw(rate))
        params = RateParams.uniform(fields["alpha"], fields["beta"], offset)
    else:
        alpha_v = draw(st.lists(rate, min_size=n, max_size=n))
        pairs = [(v, u) for v in range(n) for u in sorted(g.adjacency[v])]
        beta_vu = {vu: draw(rate) for vu in draw(st.lists(st.sampled_from(pairs),
                                                           unique=True))}
        fields = dict(mode="general", alpha_v=alpha_v,
                      beta_vu=sorted((v, u, b) for (v, u), b in beta_vu.items()))
        params = RateParams.general(alpha_v, beta_vu, offset)
    return g, params, dict(fields, base_offset_v=offset)


class TestRateParams:
    def test_regimes(self):
        assert RateParams.uniform(2.0, 1.0).regime == "single_vertex"
        assert RateParams.uniform(1.0, 1.0).regime == "critical"
        assert RateParams.uniform(1.0, 2.0).regime == "clique"
        assert RateParams.uniform(-1.0, 1.0).regime == "other"

    def test_lambda(self):
        assert RateParams.uniform(1.5, 1.5).lam == 1.5
        assert RateParams.uniform(1.0, 2.5).lam == 1.5
        with pytest.raises(ValueError):
            RateParams.uniform(2.0, 1.0).lam

    def test_general_mode_checks_adjacency(self, fig1):
        p = RateParams.general([1.0] * 8, {(0, 2): 1.0})  # 1 and 3 not adjacent
        with pytest.raises(ValueError):
            p.arrays(fig1)

    @pytest.mark.parametrize("pair", [(1.0, 2), (0, 1.5)])
    def test_beta_pair_needs_integer_indices(self, fig1, pair):
        # a float index was a TypeError traceback, a fractional one a
        # "non-adjacent pair"
        with pytest.raises(ValueError) as err:
            RateParams.general([1.0] * 8, {pair: 1.0}).interaction_matrix(fig1)
        assert str(err.value) == f"beta_vu pair {pair} needs integer vertex indices"

    def test_beta_pair_takes_numpy_indices(self, fig1):
        p = RateParams.general([1.0] * 8, {(np.int64(0), np.int64(1)): 2.0})
        want = RateParams.general([1.0] * 8, {(0, 1): 2.0})
        assert p.interaction_matrix(fig1).tobytes() == want.interaction_matrix(fig1).tobytes()

    def test_three_fields(self):
        p = RateParams.uniform(0.7, 1.3)
        assert (p.alpha, p.beta, p.offset) == (0.7, 1.3, None)
        q = RateParams.general([0.5, 0.25], {(1, 0): 2.0, (0, 1): 3.0}, [1, 2])
        assert (q.alpha, q.beta, q.offset) == ((0.5, 0.25),
                                               ((0, 1, 3.0), (1, 0, 2.0)),
                                               (1.0, 2.0))
        assert q.regime == "other"

    @given(rate_cases())
    def test_arrays_match_reference_bytes(self, case):
        g, params, fields = case
        # the cache is keyed by value, and -0.0 == 0.0: start it empty
        _materialized_arrays.cache_clear()
        alpha_vec, beta_mat, offset = reference_arrays(g, **fields)
        K = beta_mat + np.diag(alpha_vec)
        got = params.arrays(g)
        assert [a.tobytes() for a in got] == [K.tobytes(), offset.tobytes()]
        assert params.interaction_matrix(g).tobytes() == K.tobytes()

    @pytest.mark.parametrize("fields", [
        dict(mode="general", alpha_v=[1.0] * 7, beta_vu=[]),
        dict(mode="general", alpha_v=[1.0] * 9, beta_vu=[]),
        dict(mode="general", alpha_v=[1.0] * 8, beta_vu=[(0, 2, 1.0)]),
        dict(mode="general", alpha_v=[1.0] * 8, beta_vu=[(0, 1, 1.0), (2, 0, 0.5)]),
        dict(mode="general", alpha_v=[1.0] * 8, beta_vu=[(0, 8, 1.0)]),
        dict(mode="general", alpha_v=[1.0] * 8, beta_vu=[(-1, 0, 1.0)]),
        dict(mode="general", alpha_v=[1.0] * 8, beta_vu=[],
             base_offset_v=[0.0] * 7),
        dict(mode="uniform", alpha=1.0, beta=1.0, base_offset_v=[0.0] * 9),
    ])
    def test_arrays_raise_reference_errors(self, fig1, fields):
        if fields["mode"] == "uniform":
            p = RateParams.uniform(fields["alpha"], fields["beta"],
                                   fields["base_offset_v"])
        else:
            p = RateParams.general(fields["alpha_v"],
                                   {(v, u): b for v, u, b in fields["beta_vu"]},
                                   fields.get("base_offset_v"))
        with pytest.raises(ValueError) as err:
            p.arrays(fig1)
        assert str(err.value) == reference_error(fig1, **fields)


class TestState:
    # a float count was truncated toward zero, and 2-D counts were kept
    @pytest.mark.parametrize("counts", [[1.5, 0.2, 0], [[0, 1], [2, 3]], 5,
                                        [0, math.nan], [1e30], [0, -1]])
    def test_refuses_what_is_not_one_count_per_vertex(self, counts):
        with pytest.raises(ValueError, match="^counts must be one non-negative integer per vertex$"):
            State(counts)

    @pytest.mark.parametrize("counts", [[0, 10**20], [10**30], [0, -10**20]])
    def test_refuses_integers_past_64_bits(self, counts):
        # numpy's OverflowError once came through in its own words
        with pytest.raises(ValueError, match="^counts must be one non-negative integer per vertex$"):
            State(counts)

    def test_label_counts_refused_alike(self):
        with pytest.raises(ValueError, match="one non-negative integer per vertex"):
            State.from_label_counts(complete_graph(3), {1: 1.5})

    def test_keeps_integer_valued_floats(self):
        counts = State([2.0, 0, 1]).counts
        assert counts.tolist() == [2, 0, 1] and counts.dtype == np.int64


class TestExponents:
    def test_zero_state_is_zero(self, fig1):
        p = RateParams.uniform(1.3, 0.7)
        s = State.zeros(fig1.n)
        assert all(L == 0.0 for L in exponent_vector(p, fig1, s))

    def test_one_particle_at_4(self, fig1):
        p = RateParams.uniform(1.0, 1.0)
        s = State.from_label_counts(fig1, {4: 1})
        L = exponent_vector(p, fig1, s)
        expect = {1: 0.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 1.0, 6: 1.0, 7: 0.0, 8: 1.0}
        for lab, want in expect.items():
            assert L[fig1.index(lab)] == want

    def test_state_size_refused(self):
        # one message on every path to the exponents, not numpy's matmul text
        g, p, s = complete_graph(3), RateParams.uniform(1.0, 1.0), State([0, 0])
        for call in (lambda: exponent_vector(p, g, s), lambda: transition_probs(p, g, s),
                     lambda: final_maximal_clique(g, p, s),
                     lambda: confinement_prob(g, p, s, OrderedClique((0, 1, 2)), 2),
                     lambda: run(g, p, s, 10, seed=1)):
            with pytest.raises(ValueError, match="^initial state size does not match the graph$"):
                call()

    def test_base_offset_at_zero_counts(self):
        g = complete_graph(3)
        offs = (math.log(2.0), math.log(3.0), math.log(5.0))
        p = RateParams.general([1.0] * 3, {(i, j): 1.0 for i in range(3)
                                           for j in range(3) if i != j},
                               base_offset_v=offs)
        L = exponent_vector(p, g, State.zeros(3))
        assert np.allclose(L, offs)


class TestTransitionProbs:
    def test_zero_state_uniform(self, fig1):
        p = RateParams.uniform(1.0, 2.0)
        probs = transition_probs(p, fig1, State.zeros(fig1.n))
        assert np.allclose(probs, 1 / 8)
        assert (probs > 0).all()

    def test_one_particle_at_4(self, fig1):
        p = RateParams.uniform(1.0, 1.0)
        probs = transition_probs(p, fig1, State.from_label_counts(fig1, {4: 1}))
        e = math.e
        assert probs[fig1.index(4)] == pytest.approx(e / (6 * e + 2), abs=1e-15)
        assert probs[fig1.index(1)] == pytest.approx(1 / (6 * e + 2), abs=1e-15)

    def test_k2_critical_invariance(self):
        # With alpha=beta every allocation shifts both exponents equally,
        # so the distribution never moves.
        g = complete_graph(2)
        p = RateParams.uniform(0.7, 0.7)
        base = transition_probs(p, g, State.zeros(2))
        t = run(g, p, State.zeros(2), 200, seed=0)
        for i in range(1, 201):
            probs = transition_probs(p, g, State(t.counts_at(i)))
            assert np.allclose(probs, base, atol=1e-12)

    def test_huge_exponents_stay_finite(self):
        g = complete_graph(2)
        p = RateParams.uniform(1.0, 0.5)
        s = State(np.array([2000, 0]))
        probs = transition_probs(p, g, s)
        assert np.isfinite(probs).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestApplyAllocation:
    def test_k2_example(self):
        g = complete_graph(2)
        p = RateParams.uniform(2.0, 1.0)
        for kernel in KERNELS:
            alloc, L = drive_kernel(kernel, p, g, State.zeros(2), [0.0])
            assert alloc.tolist() == [0]
            assert L[0] == 2.0
            assert L[1] == 1.0

    def test_allocations_commute_on_state(self, fig1):
        p = RateParams.uniform(1.0, 2.0)
        x0 = State.zeros(fig1.n)
        for kernel in KERNELS:
            ends = []
            for order in ([0, 3], [3, 0]):
                us = uniforms_selecting(p, fig1, x0, order)
                alloc, L = drive_kernel(kernel, p, fig1, x0, us)
                assert alloc.tolist() == order
                ends.append((x0.counts + np.bincount(alloc, minlength=fig1.n), L))
            (ca, La), (cb, Lb) = ends
            assert (ca == cb).all()
            assert (La == Lb).all()

    def test_cache_matches_recomputation_after_1e4(self, fig1):
        p = RateParams.uniform(0.9, 1.7)
        x0 = State.zeros(fig1.n)
        us = make_rng(42).random(10_000).tolist()
        for kernel in KERNELS:
            alloc, L = drive_kernel(kernel, p, fig1, x0, us)
            final = x0.counts + np.bincount(alloc, minlength=fig1.n)
            fresh = exponent_vector(p, fig1, State(final))
            assert np.abs(L - fresh).max() <= 1e-9


class TestSampling:
    def test_zero_draw_takes_first_positive_mass(self):
        g = complete_graph(3)

        def first(offsets, kernel):
            p = RateParams.general([0.0] * 3, {}, base_offset_v=offsets)
            alloc, _ = drive_kernel(kernel, p, g, State.zeros(3), [0.0])
            return int(alloc[0])

        for kernel in KERNELS:
            assert first((0.0, 5.0, 1.0), kernel) == 0
            # first entry carries no mass once it underflows
            assert first((-800.0, 5.0, 1.0), kernel) == 1

    @pytest.mark.parametrize("key", [(-1,), (1, -1)], ids=["seed", "stream"])
    def test_negative_seed_or_stream_refused(self, key):
        with pytest.raises(ValueError) as refused:
            make_rng(*key)
        assert str(refused.value) == "seed and stream must be non-negative"

    @pytest.mark.parametrize("key", [(1.5,), (1, 2.0)], ids=["seed", "stream"])
    def test_float_seed_or_stream_refused(self, key):
        # a float once drew what its integer part draws
        with pytest.raises(ValueError, match="must be integers"):
            make_rng(*key)

    def test_numpy_integer_seed_draws_as_its_int(self, fig1):
        assert make_rng(np.int64(3), np.int64(1)).random() == make_rng(3, 1).random()
        p = RateParams.uniform(1.0, 1.0)
        with pytest.raises(ValueError, match="must be integers"):
            run(fig1, p, State.zeros(fig1.n), 10, 1.9)
        want = run(fig1, p, State.zeros(fig1.n), 10, 1).allocations
        assert (run(fig1, p, State.zeros(fig1.n), 10, np.int64(1)).allocations == want).all()

    def test_identical_seeds_identical_sequences(self, fig1):
        p = RateParams.uniform(1.0, 1.0)
        t1 = run(fig1, p, State.zeros(fig1.n), 2000, seed=9)
        t2 = run(fig1, p, State.zeros(fig1.n), 2000, seed=9)
        assert (t1.allocations == t2.allocations).all()
        t3 = run(fig1, p, State.zeros(fig1.n), 2000, seed=9, stream=1)
        assert not (t1.allocations == t3.allocations).all()

    def test_empirical_frequencies_match_probs(self):
        # On a complete graph with alpha = beta every allocation shifts all
        # exponents equally, so a run draws i.i.d. from one fixed law.
        g = complete_graph(4)
        p = RateParams.uniform(1.0, 1.0, base_offset_v=(0.0, 0.5, 1.0, -0.3))
        probs = transition_probs(p, g, State.zeros(4))
        n = 1_000_000
        t = run(g, p, State.zeros(4), n, seed=123)
        freq = np.bincount(t.allocations, minlength=4) / n
        se = np.sqrt(probs * (1 - probs) / n)
        assert (np.abs(freq - probs) <= 3 * se).all()


class TestRun:
    def test_zero_steps(self, fig1):
        p = RateParams.uniform(1.0, 1.0)
        t = run(fig1, p, State.zeros(fig1.n), 0, seed=1)
        assert t.n_steps == 0
        assert (t.final_counts() == 0).all()

    def test_disconnected_rejected(self):
        g = Graph.from_edge_labels([(1, 2), (3, 4)])
        with pytest.raises(ValueError):
            run(g, RateParams.uniform(1.0, 1.0), State.zeros(4), 10, seed=1)

    def test_conservation_and_monotonicity(self, fig1):
        p = RateParams.uniform(1.0, 0.5)
        x0 = State.from_label_counts(fig1, {2: 3})
        t = run(fig1, p, x0, 5000, seed=4)
        assert t.final_counts().sum() == x0.counts.sum() + 5000
        paths = t.count_paths(range(fig1.n))
        assert (np.diff(paths, axis=0) >= 0).all()

    @pytest.mark.parametrize("step", [-1, 11, 99])
    def test_counts_at_refuses_steps_outside_the_run(self, fig1, step):
        t = run(fig1, RateParams.uniform(1.0, 1.0), State.zeros(fig1.n), 10, seed=1)
        with pytest.raises(ValueError, match=f"step {step} is outside the run's steps 0..10"):
            t.counts_at(step)

    @pytest.mark.parametrize("vertex", [-1, 8])
    def test_count_paths_refuses_vertices_outside_the_graph(self, fig1, vertex):
        t = run(fig1, RateParams.uniform(1.0, 1.0), State.zeros(fig1.n), 10, seed=1)
        with pytest.raises(ValueError, match=f"vertex {vertex} is outside the graph's vertices 0..7"):
            t.count_paths([0, vertex])

    def test_replay_reproduces_final_state(self, fig1):
        p = RateParams.uniform(1.0, 1.0)
        t = run(fig1, p, State.zeros(fig1.n), 1000, seed=5)
        counts = t.initial.counts.copy()
        for v in t.allocations:
            counts[v] += 1
        assert (counts == t.final_counts()).all()


@pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (1.0, 2.0), (0.3, 0.7)])
def test_run_does_no_n_by_n_work_once_the_cache_is_warm(sparse2000, alpha, beta):
    """Once K and its supports are built for (params, g), a run's memory
    peak stays below a quarter of one n x n float64 array: no step of it,
    `on_grid` included, scans the dense K."""
    g, p = sparse2000, RateParams.uniform(alpha, beta)
    _materialized_arrays(p, g)
    tracemalloc.start()
    try:
        run(g, p, State.zeros(g.n), 1000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.n * g.n * 8 // 4


def test_normalization_along_long_run(fig1):
    # probability vector sums to 1 within 1e-12 at every visited state, taken
    # from the exponents the scalar kernel (the one run() uses on fig1) keeps
    # incrementally: its picks replayed through its own pairs end on its
    # array; the property test holds the numpy kernel's to the same bits
    p = RateParams.uniform(1.0, 1.0)
    L = exponent_vector(p, fig1, State.zeros(fig1.n))
    exps = L.tolist()
    pairs = scalar_pairs(_materialized_arrays(p, fig1)[2])
    picks = _scalar_kernel(L, pairs, {}, make_rng(77).random(1_000_000).tolist())
    for start in range(0, len(picks) + 1, 50_000):
        rows = [list(exps)]
        for v in picks[start:start + 50_000]:
            for j, k in pairs[v]:
                exps[j] += k
            rows.append(list(exps))
        # one law per column: the visited states' exponents transposed
        probs = probs_from_exponents(np.array(rows).T)
        assert np.abs(probs.sum(axis=0) - 1.0).max() <= 1e-12
    assert exps == L.tolist()


@pytest.mark.parametrize("shape", [(1,), (8,), (300,), (0, 3), (1, 8), (2048, 8),
                                   (54, 300), (7, 1), (5, 3000)])
def test_exp_weights_take_each_rows_own_maximum(shape):
    # laws given one per row, weighed one per column (axis 0) on their
    # transpose, against numpy's row max, bit for bit, with rows whose
    # maximum sits anywhere (ties included) and spreads up to 1e4
    rng = np.random.default_rng(shape[-1])
    x = np.round(rng.standard_normal(shape) * 10.0 ** rng.integers(0, 5, shape[:-1] + (1,)), 1)
    want = np.exp(x - x.max(axis=-1, keepdims=True))
    got = exp_weights(x.T).T
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # and the softmax of each column has the bits of the row's own
    probs = probs_from_exponents(x.T).T
    assert probs.tobytes() == (want / want.sum(axis=-1, keepdims=True)).tobytes()


@given(st.integers(1, 600), st.integers(0, 5), st.booleans(), st.integers(0, 2**32 - 1))
@example(7, 3, False, 0)
@example(8, 3, True, 0)
@example(128, 0, True, 0)
@example(129, 3, True, 0)
@example(600, 3, False, 0)
def test_column_sum_adds_as_numpy_adds_a_row(width, columns, square, seed):
    # every column of width w, summed along axis 0, against numpy's sum of
    # the same numbers as one contiguous row, bit for bit: in order below
    # 8, eight partial sums up to 128 rows with at least as many columns
    # (square), a transposed copy otherwise; and an F-ordered array by its
    # transpose; with magnitudes over 16 decades, so that the order shows,
    # and zeros of both signs
    if square:
        columns += width
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((width, columns)) * 10.0 ** rng.integers(-8, 8, (width, columns))
    x[rng.random(x.shape) < 0.1] = 0.0
    x[rng.random(x.shape) < 0.1] = -0.0
    want = x.T.copy().sum(axis=1)
    for layout in (x, np.asfortranarray(x)):
        got = column_sum(layout)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for row in x.T:
        one = np.ascontiguousarray(row)
        assert np.asarray(column_sum(one)).tobytes() == one.sum().tobytes()
    # all zeros: numpy's sum starts from 0.0, so -0.0 sums to 0.0
    zeros = np.full(x.shape, -0.0)
    assert column_sum(zeros).tobytes() == zeros.T.copy().sum(axis=1).tobytes()


def test_critical_clique_invariance(fig1):
    # confined allocations in a clique keep in-clique exponent differences
    # fixed; an offset of -1e4 outside the clique keeps the run inside it
    clique = list(idx(fig1, 2, 3, 4, 5))
    offsets = tuple(0.0 if v in clique else -1e4 for v in range(fig1.n))
    p = RateParams.uniform(1.0, 1.0, base_offset_v=offsets)
    x0 = State.zeros(fig1.n)
    base = exponent_vector(p, fig1, x0)[clique]
    us = make_rng(8).random(100_000).tolist()
    for kernel in KERNELS:
        alloc, L = drive_kernel(kernel, p, fig1, x0, us)
        assert set(alloc.tolist()) == set(clique)
        now = L[clique]
        drift = np.abs((now - now[0]) - (base - base[0])).max()
        assert drift <= 1e-9


class TestCsv:
    def test_trajectory_csv(self, fig1):
        p = RateParams.uniform(1.0, 1.0)
        t = run(fig1, p, State.zeros(fig1.n), 3, seed=2)
        buf = io.StringIO()
        write_trajectory_csv(buf, t, fig1)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "step,vertex"
        assert len(lines) == 4
        assert lines[1].startswith("1,")


class TestNonFinite:
    @pytest.mark.parametrize("alpha, beta", [(math.nan, 1.0), (1.0, math.inf),
                                             (-math.inf, 1.0)])
    def test_uniform_rejects(self, alpha, beta):
        with pytest.raises(ValueError, match="finite"):
            RateParams.uniform(alpha, beta)

    def test_general_rejects(self):
        ok = dict(alpha_v=[1.0, 1.0], beta_vu={(0, 1): 1.0, (1, 0): 1.0},
                  base_offset_v=[0.0, 0.0])
        RateParams.general(**ok)
        for key, bad in [("alpha_v", [1.0, math.nan]),
                         ("beta_vu", {(0, 1): math.inf}),
                         ("base_offset_v", [0.0, -math.inf])]:
            with pytest.raises(ValueError, match="finite"):
                RateParams.general(**{**ok, key: bad})
        with pytest.raises(ValueError, match="finite"):
            RateParams.uniform(1.0, 1.0, base_offset_v=(0.0, math.nan))

    def test_run_rejects_overflow(self, fig1):
        p = RateParams.uniform(1e308, 1e308)
        with pytest.raises(ValueError, match="non-finite"):
            run(fig1, p, State.zeros(fig1.n), 20, seed=1)
