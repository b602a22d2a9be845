"""Both sampling kernels against the original one-step numpy loop, and the
fast paths of `_allocate` against the kernels.

`run()` picks the scalar kernel or the numpy kernel by graph size; each must
give the allocations of the reference loop below bit for bit, for any graph,
parameters and uniforms, or golden outputs would change with the graph size.
The reference recomputes the exponents densely at every step; the kernels
update them incrementally, which must stay within 1e-9 of a recomputation.
`_allocate` draws the steps of a frozen law at once, on either kernel, or
walks the difference chain's table; it must give the kernels' allocations
and exponents exactly, on the same uniforms.
"""
import math
import random
from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from cliquegrowth import (Graph, RateParams, State, complete_graph, exponent_vector, is_connected,
                          path_graph, process, run)
from cliquegrowth.process import _allocate, _DifferenceChain, _numpy_kernel, _scalar_kernel

from conftest import drive_kernel, scalar_pairs


def reference_allocations(params, g, x0, uniforms):
    """One uniform per step: np.exp/cumsum/searchsorted over exponents
    recomputed from the counts, index clamped to the last vertex."""
    counts = x0.counts.copy()
    out = []
    for u in uniforms:
        L = exponent_vector(params, g, State(counts))
        c = np.cumsum(np.exp(L - L.max()))
        v = min(int(np.searchsorted(c, u * c[-1], side="right")), g.n - 1)
        counts[v] += 1
        out.append(v)
    return np.array(out, dtype=np.int64)


def connected_graphs(draw, max_n=12):
    """A random spanning tree plus random extra edges."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n * 2))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    return Graph.from_edge_labels(sorted(edges))


@st.composite
def cases(draw):
    """A connected graph, real-valued general-mode parameters on it at one of
    several scales, a start state, and uniforms with some exact zeros among
    them."""
    g = connected_graphs(draw)
    n = g.n
    scale = draw(st.sampled_from([0.05, 0.5, 1.0, 4.0]))
    steps = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha_v = scale * rng.uniform(-0.5, 2.5, n)
    beta_vu = {(v, u): scale * rng.uniform(-0.5, 2.5)
               for v in range(n) for u in sorted(g.adjacency[v])}
    offsets = rng.normal(0.0, 2.0, n)
    params = RateParams.general(alpha_v, beta_vu, base_offset_v=offsets)
    x0 = State(rng.integers(0, 6, n))
    uniforms = rng.random(steps)
    uniforms[rng.random(steps) < 0.02] = 0.0
    return g, params, x0, uniforms.tolist()


@given(cases(), st.data())
def test_kernels_match_reference_bit_for_bit(case, data):
    """Each kernel gives the reference's allocations, and both keep the same
    exponent bytes, whether the uniforms come in one call or in up to four
    that carry the exponent array (and the scalar kernel's memo) across."""
    g, params, x0, uniforms = case
    splits = sorted(data.draw(st.lists(st.integers(0, len(uniforms)), max_size=3)))
    want = reference_allocations(params, g, x0, uniforms)
    scalar, L_scalar = drive_kernel(_scalar_kernel, params, g, x0, uniforms)
    vector, L_vector = drive_kernel(_numpy_kernel, params, g, x0, uniforms)
    assert scalar.tolist() == want.tolist()
    assert vector.tolist() == want.tolist()
    assert L_scalar.tobytes() == L_vector.tobytes()
    for kernel in (_scalar_kernel, _numpy_kernel):
        split, L_split = drive_kernel(kernel, params, g, x0, uniforms, splits)
        assert split.tolist() == want.tolist()
        assert L_split.tobytes() == L_scalar.tobytes()
    final = State(x0.counts + np.bincount(want, minlength=g.n))
    assert np.abs(L_scalar - exponent_vector(params, g, final)).max() <= 1e-9


EDGE_UNIFORMS = (0.0, 2.0**-53, 1.0 - 2.0**-53)


@st.composite
def dyadic_cases(draw, clique=False):
    """Runs that can freeze: a connected graph with uniform or general-mode
    rates on a grid of 1/4 (beta possibly negative, the critical regime
    alpha = beta likely), offsets on a grid of 1/8, a start state, uniforms
    with 0.0, 2^-53 and 1 - 2^-53 injected.  With `clique`, beta = 2 alpha
    (uniform rates then cannot freeze), and with uniform rates some vertices
    start 40 to 80 below the others, about the edge of the difference
    chain's tail."""
    g = connected_graphs(draw, max_n=10)
    n = g.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    beta = 2 * alpha if clique else \
        draw(st.sampled_from([alpha, alpha, alpha / 2, -0.25, 2 * alpha]))
    if draw(st.booleans()):
        offsets = rng.integers(-16, 17, n) / 8 if draw(st.booleans()) or clique else None
        if clique:
            offsets[rng.random(n) < 0.3] -= rng.integers(40, 81)
        params = RateParams.uniform(alpha, beta, offsets)
    else:
        alpha_v = np.full(n, alpha)
        beta_vu = {(v, u): beta for v in range(n) for u in sorted(g.adjacency[v])}
        # perturb some rates by multiples of 1/4, keeping them dyadic
        for v in np.flatnonzero(rng.random(n) < 0.3):
            alpha_v[v] += rng.integers(-2, 5) / 4
        for key in list(beta_vu):
            if rng.random() < 0.2:
                beta_vu[key] += rng.integers(-4, 3) / 4
        params = RateParams.general(alpha_v, beta_vu,
                                    base_offset_v=rng.integers(-16, 17, n) / 8)
    x0 = State(rng.integers(0, 4, n) * (rng.random(n) < 0.5))
    steps = draw(st.integers(1, 700))
    uniforms = rng.random(steps)
    hit = rng.random(steps) < 0.01
    uniforms[hit] = rng.choice(EDGE_UNIFORMS, hit.sum())
    return g, params, x0, uniforms


class StubRng:
    """Serves crafted uniforms in order through `random(size)`."""

    def __init__(self, uniforms):
        self.uniforms, self.served = uniforms, 0

    def random(self, size):
        out = self.uniforms[self.served:self.served + size]
        assert len(out) == size, "more uniforms asked than the run has steps"
        self.served += size
        return out.copy()


class Tally:
    """Counts, while `installed`, the steps `process`'s kernels take (each
    call one pick per uniform it is given), and what each fast path's `walk`
    draws: the steps of the frozen law (`fast_steps`) and of the difference
    chain, the chain's hand-backs (those after a pick on the last uniform it
    was given as `block_end_handbacks`) and its uniforms of 0.0 (each a
    kernel step between two walks), and the chain's last table's states.
    Three internals are counted too: the tests for a frozen law and the laws
    they find (`entries`), the chain's misses, and its re-syncs (those
    leaving a tail as `tails`).  The last exponent array `exponent_vector`
    returned, the run's, is `exponents`, which the kernels advance in place
    and to which `_allocate` adds the fast paths' picks.  A frozen law's
    exit is `unsafe` when its last pick is unsafe (the law draws that step
    itself; `unsafe_at_block_end` if that is the last uniform it was given)
    and `zero` at a uniform of 0.0."""

    def __init__(self):
        self.kernel_steps = self.fast_steps = self.entries = self.tests = 0
        self.chain_steps = self.misses = self.resyncs = self.tails = 0
        self.handbacks = self.block_end_handbacks = self.chain_zeros = self.states = 0
        self.exits = Counter()
        self.exponents = None

    def _exponent_vector(self, original):
        def kept(*args):
            self.exponents = original(*args)
            return self.exponents
        return kept

    def _kernel(self, original):
        def counted(*args):
            picks = original(*args)
            assert len(picks) == len(args[-1])
            self.kernel_steps += len(picks)
            return picks
        return counted

    def _frozen_walk(self, original):
        def counted(path, us):
            picks, k = original(path, us)
            self.fast_steps += len(picks)
            law = path.last
            if len(picks) and not law.safe[law.C.searchsorted(picks[-1])]:
                self.exits["unsafe"] += 1
                self.exits["unsafe_at_block_end"] += len(picks) == len(us)
            elif k == 1:
                self.exits["zero"] += 1
            return picks, k
        return counted

    def _chain_walk(self, original):
        def counted(chain, us):
            live = chain.state is not None
            picks, k = original(chain, us)
            # a walk that neither draws nor names a kernel step stalls `_allocate`
            assert len(picks) or k
            self.chain_steps += len(picks)
            self.chain_zeros += k == 1
            self.handbacks += live and chain.state is None
            self.block_end_handbacks += live and chain.state is None and len(picks) == len(us)
            self.states = len(chain.table)
            return picks, k
        return counted

    def _frozen_law(self, original):
        def counted(*args):
            law = original(*args)
            self.tests += 1
            self.entries += law is not None
            return law
        return counted

    def _successor(self, original):
        def counted(*args):
            self.misses += 1
            return original(*args)
        return counted

    def _resync(self, original):
        def counted(*args):
            state, bound = original(*args)
            self.resyncs += 1
            self.tails += bound > -math.inf
            return state, bound
        return counted

    @contextmanager
    def installed(self):
        with ExitStack() as stack:
            for owner, name, wrap in (
                    (process, "exponent_vector", self._exponent_vector),
                    (process, "_scalar_kernel", self._kernel),
                    (process, "_numpy_kernel", self._kernel),
                    (process._Frozen, "walk", self._frozen_walk),
                    (_DifferenceChain, "walk", self._chain_walk),
                    (process, "_frozen_law", self._frozen_law),
                    (_DifferenceChain, "_successor", self._successor),
                    (_DifferenceChain, "_resync", self._resync)):
                stack.enter_context(patch.object(owner, name, wrap(getattr(owner, name))))
            yield self


def test_frozen_path_matches_kernels():
    """On the same uniforms `_allocate` gives the kernel's allocations and
    final exponents, draws each uniform once (the kernel takes only those
    no fast path used), and enters each fast path often enough that this is
    no vacuous pass.  Every case runs on both kernels, and both take the frozen
    path alike: the same kernel steps, law tests, laws and exits."""
    entries, exits, frozen = [], Counter(), []

    @seed(0)
    @given(dyadic_cases())
    def check(case):
        g, params, x0, uniforms = case
        costs = []
        for scalar, kernel in ((True, _scalar_kernel), (False, _numpy_kernel)):
            want, L_want = drive_kernel(kernel, params, g, x0, uniforms.tolist())
            stub, tally = StubRng(uniforms), Tally()
            with tally.installed():
                got = _allocate(params, g, x0, stub, len(uniforms), scalar)
            assert got.tolist() == want.tolist()
            assert (tally.exponents == L_want).all()
            assert stub.served == len(uniforms)
            assert tally.kernel_steps + tally.fast_steps + tally.chain_steps == len(uniforms)
            assert tally.chain_steps == 0 or (scalar and tally.tests == 0)
            costs.append((tally.kernel_steps, tally.fast_steps, tally.tests, tally.entries,
                          tally.exits))
        on_scalar, on_numpy = costs
        if tally.tests:  # the numpy kernel's run tested for a law: it took the frozen path
            assert on_scalar == on_numpy
        entries.append(tally.entries)
        exits.update(tally.exits)
        frozen.append(on_scalar[1] / len(uniforms))

    check()
    # these 200 examples, drawn from seed 0, give 676 entries in 108 runs,
    # 519 unsafe and 60 zero exits on each kernel, and the frozen law keeping
    # over half the steps of 92 scalar-kernel runs
    assert sum(entries) >= 100 and sum(e > 0 for e in entries) >= 50
    assert exits["unsafe"] >= 30 and exits["zero"] >= 20
    assert sum(v > 0.5 for v in frozen) >= 80


def smallest_cut(w):
    """The smallest set C of the heaviest weights w whose other weights sum
    (exactly rounded) below FROZEN_TAIL of C's smallest, by trying every
    cut of the ascending weights from the top."""
    order = sorted(range(len(w)), key=w.__getitem__)
    for k in range(len(w) - 1, -1, -1):
        if math.fsum(w[j] for j in order[:k]) < process.FROZEN_TAIL * w[order[k]]:
            return sorted(order[k:])


@st.composite
def spread_exponents(draw):
    """Exponents in runs of close values split by gaps of 20 to 60, so
    that tails, light members of C and near-tails all occur; the same
    exponents moved some way, which may leave a law's C as it is, shrink it
    or break it; and a `peaked` matrix."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    steps = rng.choice([0.0, 0.25, 1.0, 3.0, 20.0, 45.0, 60.0], n,
                       p=[.1, .2, .3, .2, .1, .05, .05])
    exps = -np.cumsum(steps)[rng.permutation(n)]
    later = exps + rng.choice([0.0, 0.0, 1.0, -2.0, 4.0, -30.0, 30.0], n)
    return exps, later, rng.random((n, n)) < draw(st.sampled_from([0.5, 0.9, 1.0]))


@given(spread_exponents())
def test_frozen_law_cuts_where_the_sorted_weights_do(case):
    """`_frozen_law` finds the smallest set C whose tail is negligible, the
    cut a search over every cut of the sorted weights finds, whether it
    searches all vertices, the heavy ones, or inside the C of a law found a
    few allocations before; its safe flags are `peaked` on C, and its
    partial sums are C's."""
    exps, later, peaked = case
    last = process._frozen_law(exps, peaked)
    for x, prior in ((exps, None), (later, last)):
        w = np.exp(x - x.max())
        C = smallest_cut(w.tolist())
        safe = peaked[np.ix_(C, C)].all(axis=0)
        law = process._frozen_law(x, peaked, prior)
        if not safe.any():
            assert law is None
            continue
        assert law.C.tolist() == C and law.safe.tolist() == safe.tolist()
        assert law.cum.tolist() == np.cumsum(w[C]).tolist()
        assert law.tail.tolist() == [j not in C for j in range(len(x))]


def test_frozen_path_holds_across_block_ends():
    """With blocks of uniforms short enough that frozen laws meet block
    ends, an unsafe pick on a block's last uniform among them, both kernels'
    runs still give the kernel's allocations and exponents, with the same
    exits: a law ended there is tested again in the next block, one that
    holds is kept."""
    seen = Counter()

    @seed(0)
    @settings(max_examples=100)
    @given(dyadic_cases(), st.sampled_from([1, 3, 16, 64]))
    def check(case, block):
        g, params, x0, uniforms = case
        exits = []
        for scalar, kernel in ((True, _scalar_kernel), (False, _numpy_kernel)):
            want, L_want = drive_kernel(kernel, params, g, x0, uniforms.tolist())
            stub, tally = StubRng(uniforms), Tally()
            with tally.installed(), patch.object(process, "UNIFORM_BLOCK", block):
                got = _allocate(params, g, x0, stub, len(uniforms), scalar)
            assert got.tolist() == want.tolist()
            assert (tally.exponents == L_want).all()
            assert tally.kernel_steps + tally.fast_steps + tally.chain_steps == len(uniforms)
            exits.append(tally.exits)
        assert exits[0] == exits[1]
        seen.update(exits[1])

    check()
    # these 100 examples, drawn from seed 0, give 364 unsafe exits, 356 of
    # them on a block's last uniform, and 54 zero exits on each kernel
    assert seen["unsafe_at_block_end"] >= 40 and seen["zero"] >= 10


def test_frozen_path_waits_while_the_tail_can_grow():
    """Vertex 1 starts 40 below vertex 0, in C = {0}'s tail, but each draw
    on 0 adds 2 to it and 1 to vertex 0: 0 is unsafe, so the law is not
    frozen, and the kernels soon draw 1."""
    g = Graph.from_edge_labels([(0, 1)])
    params = RateParams.general([1.0, 0.0], {(0, 1): 0.0, (1, 0): 2.0},
                                base_offset_v=[0.0, -40.0])
    uniforms = np.random.default_rng(5).random(200)
    for scalar, kernel in ((True, _scalar_kernel), (False, _numpy_kernel)):
        want, _ = drive_kernel(kernel, params, g, State.zeros(2), uniforms.tolist())
        got = _allocate(params, g, State.zeros(2), StubRng(uniforms), 200, scalar)
        assert got.tolist() == want.tolist()
        assert 1 in want


def test_frozen_path_takes_most_steps(fig1):
    """fig1 at alpha = beta = 1 freezes on one clique within a few hundred
    steps, so the kernels take few of four 5000-step runs."""
    p = RateParams.uniform(1.0, 1.0)
    tally = Tally()
    with tally.installed():
        for stream in range(4):
            run(fig1, p, State.zeros(fig1.n), 5000, seed=1, stream=stream)
    assert tally.kernel_steps <= 2000
    assert tally.kernel_steps + tally.fast_steps == 20_000
    assert tally.chain_steps == 0


def sparse_graph(seed, n=300, p=0.1):
    """A connected G(n, p) on labels 1..n drawn from `random.Random(seed)`."""
    rng = random.Random(seed)
    while True:
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < p]
        g = Graph.from_edge_labels(edges)
        if g.n == n and is_connected(g):
            return g


def test_frozen_law_costs_the_same_whatever_the_seed(fig1):
    """At alpha = beta = 1, on a seeded G(300, 0.1) (the numpy kernel) and on
    fig1 (the scalar kernel), a 5000-step run gives the kernel's allocations
    and exponents, and takes a few kernel chunks and a bounded number of
    tests for a frozen law whatever the seed: a law that ends early costs
    the next test, not a kernel chunk.  (Seeds 1-10 took 64 to 192 kernel
    steps and 3 to 111 tests on G(300, 0.1), two streams each, and 64 to
    128 kernel steps and 3 to 53 tests on fig1, four streams each, 63 tests
    at most over seeds 1-40; with a 64-step chunk after each early exit
    G(300, 0.1) took 128 to 1,996 kernel steps.)"""
    p = RateParams.uniform(1.0, 1.0)
    for seed in range(1, 11):
        for g, streams, chunks, tests in ((sparse_graph(seed), 2, 4, 150), (fig1, 4, 2, 80)):
            scalar = g.n <= process.SCALAR_KERNEL_MAX_N
            x0 = State.zeros(g.n)
            for stream in range(streams):
                uniforms = process.make_rng(seed, stream).random(5000)
                want, L_want = drive_kernel(_scalar_kernel if scalar else _numpy_kernel,
                                            p, g, x0, uniforms.tolist())
                tally = Tally()
                with tally.installed():
                    got = _allocate(p, g, x0, StubRng(uniforms), 5000, scalar)
                assert got.tolist() == want.tolist()
                assert (tally.exponents == L_want).all()
                assert tally.kernel_steps + tally.fast_steps == 5000
                assert tally.kernel_steps <= chunks * process.FREEZE_CHUNK
                assert tally.tests <= tests


class Chosen(Exception):
    """Carries the name of the fast path `_allocate` built, or None."""


class Refusing:
    """An rng that draws nothing: `_allocate` builds its path before."""

    def random(self, size):
        raise Chosen(None)


def chosen_path(params, g, x0, steps, scalar):
    """The fast path `_allocate` builds for a run, "frozen", "chain" or
    None, found before its first uniform is drawn."""
    def build(name):
        def raising(*args):
            raise Chosen(name)
        return raising

    with ExitStack() as stack:
        for name, cls in (("frozen", "_Frozen"), ("chain", "_DifferenceChain")):
            stack.enter_context(patch.object(process, cls, build(name)))
        try:
            _allocate(params, g, x0, Refusing(), steps, scalar)
        except Chosen as chosen:
            return chosen.args[0]
    raise AssertionError("the run drew no uniform")


def test_frozen_path_only_where_exact(fig1):
    """Runs with a column of K peaking on its diagonal and exponents exact
    over every path may freeze; the clique regime and rates off the grid
    that `steps` leaves do not."""
    def can(alpha, beta, steps=5000):
        p = RateParams.uniform(alpha, beta)
        return chosen_path(p, fig1, State.zeros(fig1.n), steps, True) == "frozen"

    assert can(1, 1) and can(1, 0.5) and can(0.25, -0.75)
    assert not can(1, 2)  # no column peaks on its diagonal
    assert not can(0.7, 0.7)
    assert can(1 + 2**-30, 1 + 2**-30, steps=100)
    assert not can(1 + 2**-30, 1 + 2**-30, steps=2**25)


def per_run_path(params, g, x0, steps, scalar):
    """The path chosen from K and the start exponents anew for each run, as
    `_peaked_columns` and `_on_grid` did before K's peaked columns were
    cached per (params, g)."""
    def on_grid(exps0, K, reach):
        e = min(51 - math.frexp(reach)[1], 64)
        if e < 0:
            return False
        grid = np.concatenate((K.ravel(), exps0)) * 2.0**e
        return bool((grid == np.rint(grid)).all())

    def peaked_columns(exps0, K, reach):
        diag = K.diagonal()
        peaked = (K == diag) & (K.max(axis=0) <= diag)
        return peaked if peaked.any() and on_grid(exps0, K, reach) else None

    exps0, K = exponent_vector(params, g, x0), params.interaction_matrix(g)
    # a bound on |L_i| over every path of `steps` allocations; twice it
    # bounds |L_i - L_j|, which must be finite
    reach = float(np.abs(exps0).max()) + steps * float(np.abs(K).max())
    if not np.isfinite(2.0 * reach):
        raise ValueError(f"rate exponents could turn non-finite within {steps} steps")
    if peaked_columns(exps0, K, reach) is not None:
        return "frozen"
    return "chain" if scalar and on_grid(exps0, K, reach) else None


@st.composite
def grid_edge_cases(draw):
    """A run about the edge of the exact grid: dyadic rates (`dyadic_cases`)
    or real-valued ones (`cases`) for 1 to MAX_STEPS steps, or uniform rates
    1 + a 2^-k with a odd, so K's grid is exactly 2^-k, for about
    2^(50 - k + d) steps, d in -1..1, which leaves the run's exponents on
    the grid of 2^-(k - d): off K's grid at d = 1, on it otherwise."""
    kind = draw(st.sampled_from(["dyadic", "real", "fine"]))
    steps = draw(st.sampled_from([1, 100, 5000, 2**20, 2**25, process.MAX_STEPS]))
    if kind == "dyadic":
        g, params, x0, _ = draw(dyadic_cases())
    elif kind == "real":
        g, params, x0, _ = draw(cases())
    else:
        g = connected_graphs(draw)
        k = draw(st.integers(25, 49))
        alpha = (2 * draw(st.integers(-2**11, 2**11)) + 1) * 2.0**-k
        beta = draw(st.integers(-2**12, 2**12)) * 2.0**-k
        offsets = [draw(st.integers(-64, 64)) * 2.0**-draw(st.integers(0, 50))
                   for _ in range(g.n)] if draw(st.booleans()) else None
        params = RateParams.uniform(1 + alpha, 1 + beta, offsets)
        x0 = State([draw(st.integers(0, 3)) for _ in range(g.n)])
        steps = max(1, 2 ** (50 - k + draw(st.integers(-1, 1))) + draw(st.integers(-1, 1)))
    return g, params, x0, steps


def test_path_is_chosen_as_by_per_run_facts(fig1):
    """The peaked columns of K, computed once per (params, g), and
    `on_grid` on the start exponents and K's nonzero entries choose each
    run's path as the per-run tests of K and the start exponents did, on
    both kernels; among the runs, fig1 at rates 1 + 2^-30, on the grid for
    100 steps and off it for 2^25."""
    seen = Counter()
    fine = RateParams.uniform(1 + 2**-30, 1 + 2**-30)

    @seed(0)
    @given(grid_edge_cases())
    @example((fig1, fine, State.zeros(fig1.n), 100))
    @example((fig1, fine, State.zeros(fig1.n), 2**25))
    @example((fig1, RateParams.uniform(0.7, 0.7), State.zeros(fig1.n), 5000))
    def check(case):
        g, params, x0, steps = case
        for scalar in (True, False):
            want = per_run_path(params, g, x0, steps, scalar)
            assert chosen_path(params, g, x0, steps, scalar) == want
            seen[want, scalar] += 1

    check()
    # these 200 examples, drawn from seed 0, and the three above choose the
    # frozen law 81 times on each kernel, the chain 30 and no path 214
    assert min(seen["frozen", True], seen["frozen", False], seen["chain", True],
               seen[None, True] + seen[None, False]) >= 20


@given(st.floats(1.0, 2.0**12))
def test_largest_uniform_times_total_stays_below_total(total):
    """Why the kernels need no clamp: the largest uniform numpy draws is
    1 - 2^-53, each kernel's total is at least 1 (the top weight is 1.0), and
    u * total then rounds below total, so the search never passes the last
    vertex."""
    assert (1.0 - 2.0**-53) * total < total


def test_largest_uniform_times_a_power_of_two_stays_below_it():
    """The closest case: below a power of two the floats are twice as dense,
    and total 2^-53 is exactly their spacing there."""
    for k in range(1024):
        assert (1.0 - 2.0**-53) * 2.0**k < 2.0**k


def test_difference_chain_matches_kernel():
    """On the same uniforms `_allocate` gives the scalar kernel's
    allocations and final exponents in the clique regime, where no column of
    K peaks on its diagonal and the difference chain walks the run: with
    tails (vertices started 40-80 below the rest or fallen there), uniforms
    of 0.0 and 1 - 2^-53, tables capped small enough to hand runs back to
    the kernel, and uniform blocks short enough that block ends meet
    re-syncs and hand-backs.  Each of these engages often enough that this
    is no vacuous pass."""
    seen = Counter()

    @seed(0)
    @given(dyadic_cases(clique=True), st.sampled_from([1 << 7, 1 << 10, process.CHAIN_MAX_CELLS]),
           st.sampled_from([1, 7, 64, process.UNIFORM_BLOCK]))
    def check(case, cap, block):
        g, params, x0, uniforms = case
        want, L_want = drive_kernel(_scalar_kernel, params, g, x0, uniforms.tolist())
        stub, tally = StubRng(uniforms), Tally()
        with tally.installed(), patch.object(process, "CHAIN_MAX_CELLS", cap), \
                patch.object(process, "UNIFORM_BLOCK", block):
            got = _allocate(params, g, x0, stub, len(uniforms), True)
        assert got.tolist() == want.tolist()
        assert (tally.exponents == L_want).all()
        assert stub.served == len(uniforms)
        assert tally.kernel_steps + tally.fast_steps + tally.chain_steps == len(uniforms)
        seen.update(walked=tally.chain_steps > 0, tails=tally.tails > 0,
                    resynced=tally.resyncs > 1, handed_back=tally.handbacks > 0,
                    at_block_end=tally.block_end_handbacks > 0,
                    zeros=tally.chain_zeros > 0,
                    ones=tally.chain_steps > 0 and bool((uniforms == 1.0 - 2.0**-53).any()))

    check()
    # these 200 examples, drawn from seed 0, give 153 runs walked, 75 with a
    # tail, 71 re-synced past their start, 62 handed back (15 of them after
    # a pick on a block's last uniform), 41 handed a 0.0 to the kernel
    # between two walks and 64 walked runs drew 1 - 2^-53
    assert seen["walked"] >= 80 and seen["tails"] >= 25 and seen["resynced"] >= 20
    assert seen["handed_back"] >= 35 and seen["at_block_end"] >= 10
    assert seen["zeros"] >= 12 and seen["ones"] >= 20


def test_difference_chain_states_hold_the_kernel_sums():
    """The invariant behind the walk, checked after every step from the
    exact exponents L: while the bound is below the state's threshold, the
    state's key holds L - max L at its live vertices, the tail's exponents
    are at most the bound, and the state's partial sums and total are the
    kernel's at its live vertices.  (Picks alone could miss a tail too heavy
    by far: it moves a pick only for uniforms within a few ulps.)"""
    audited = []

    @seed(0)
    @settings(max_examples=60)
    @given(dyadic_cases(clique=True))
    def check(case):
        g, params, x0, uniforms = case
        L = exponent_vector(params, g, x0)
        K, _, supports, _, _ = process._materialized_arrays(params, g)
        assert process.on_grid(L, K, len(uniforms))
        pairs, memo = scalar_pairs(supports), {}
        chain = _DifferenceChain(L, K, memo)
        for step in range(len(uniforms)):
            u = uniforms[step:step + 1]
            picks, k = chain.walk(u)
            L += K @ np.bincount(picks, minlength=g.n)  # as `_allocate` adds them
            if k == 1:  # a uniform of 0.0: the kernel takes it
                _scalar_kernel(L, pairs, memo, u.tolist())
            if chain.state is None:
                break
            cum, total, links, thr, key = chain.state
            if not chain.bound < thr:
                continue  # the next step re-derives the state first
            exps = L.tolist()
            top = max(exps)
            live = [v for v, _, _ in links]
            weights = [float(np.exp(x - top)) if x - top >= process.EXP_UNDERFLOW else 0.0
                       for x in exps]
            assert [key[j] for j in live] == [exps[j] - top for j in live]
            assert all(exps[j] - top <= chain.bound for j in range(g.n) if j not in live)
            sums = np.cumsum(weights)  # left to right, as the kernel adds
            assert [float(sums[j]) for j in live] == cum and float(sums[-1]) == total
            audited.append(len(live) < g.n)

    check()
    # 7,405 states audited, 5,651 of them with a tail, in these 60 examples
    # drawn from seed 0
    assert len(audited) >= 5000 and sum(audited) >= 4000


def floor_chain():
    """A difference chain on the path of 16 vertices at alpha = 1, beta = 2,
    started from exponents 45 apart (gap + CHAIN_CUT_SLACK is about 50.6)."""
    g = path_graph(16)
    params = RateParams.uniform(1.0, 2.0, -45.0 * np.arange(16))
    x0 = State.zeros(16)
    return g, params, x0, _DifferenceChain(exponent_vector(params, g, x0),
                                           params.interaction_matrix(g), {})


def test_difference_chain_cut_stops_at_the_live_floor():
    """`_cut` looks for a gap only above CHAIN_LIVE_FLOOR: exponents 45
    apart keep all 16 live, even with a gap of 55 below -600, where the scan
    has stopped; 55 apart they are cut at the first gap.  A state whose live
    set reaches below the floor above a tail has threshold -inf: a walk
    ends on entering it, and the next walk re-derives the state."""
    chain = floor_chain()[3]
    spaced = [-45.0 * i for i in range(16)]
    assert chain._cut(spaced) == list(range(16))
    assert chain._cut(spaced[:15] + [spaced[14] - 55.0]) == list(range(16))
    assert chain._cut([-55.0 * i for i in range(16)]) == [0]
    assert chain._state(tuple(spaced[:15]) + (-math.inf,))[3] == -math.inf


def test_difference_chain_matches_kernel_past_the_live_floor():
    """From exponents 45 apart on the path of 16 vertices, the chain's cuts
    stop at the live floor (4 times on these uniforms) and the run still
    gives the scalar kernel's allocations and exponents."""
    g, params, x0, _ = floor_chain()
    uniforms = np.random.default_rng(3).random(3000)
    want, L_want = drive_kernel(_scalar_kernel, params, g, x0, uniforms.tolist())
    stops, cut = [], _DifferenceChain._cut

    def counted(chain, d):
        live = cut(chain, d)
        # a cut keeps nothing below the floor, and a scan that meets no gap
        # tests every coordinate but the last against it: two live ones
        # below it mean the scan stopped there
        stops.append(sum(d[j] < process.CHAIN_LIVE_FLOOR for j in live) >= 2)
        return live

    tally = Tally()
    with tally.installed(), patch.object(_DifferenceChain, "_cut", counted):
        got = _allocate(params, g, x0, StubRng(uniforms), len(uniforms), True)
    assert got.tolist() == want.tolist()
    assert (tally.exponents == L_want).all()
    assert tally.chain_steps > 0 and sum(stops) >= 1


def test_difference_chain_hits_its_table(fig1):
    """The chain's cost does not follow the seed: on K3 at alpha = 1,
    beta = 2 at least 99% of a 50,000-step run's steps are table hits
    (about 145 misses were seen), and on fig1 a 100,000-step run's table
    stays below 1,000 states (at most about 400 seen) with few re-syncs."""
    p = RateParams.uniform(1.0, 2.0)
    k3 = complete_graph(3)
    for seed in range(1, 11):
        tally = Tally()
        with tally.installed():
            run(k3, p, State.zeros(3), 50_000, seed=seed)
        assert tally.chain_steps == 50_000
        assert tally.misses <= 500 and tally.resyncs == 1
    for seed in range(1, 4):
        tally = Tally()
        with tally.installed():
            run(fig1, p, State.zeros(fig1.n), 100_000, seed=seed)
        assert tally.chain_steps == 100_000
        assert tally.states < 1000 and tally.resyncs <= 50
