"""Acceptance suite: one test per criterion, one printed status line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 03 and 06 each have two tests that check different forms of
the same fact: criterion 03 checks the certified product bound from the start
state it is proved for (one particle at each clique vertex) and, in its
companion, the empty-start bound with the first-allocation factors restored;
criterion 06 checks that post-onset in-clique counts follow the exp(C)
multinomial law and, in its companion, the exact rate-ratio identity.  The
docstrings give the argument for each form.
"""
import itertools
import json
import math
import subprocess
import sys
from statistics import NormalDist

import numpy as np
import pytest

from cliquegrowth import (
    OrderedClique,
    RateParams,
    State,
    c_matrix,
    classify_outcome,
    complete_graph,
    confinement_prob,
    d_sets,
    drift_shell_max,
    enumerate_maximal_cliques,
    epsilon_lower_bound,
    exponent_vector,
    final_maximal_clique,
    lln_deviation,
    localisation_set,
    monte_carlo_report,
    negative_drift_radius,
    p11_bound,
    parse_graph,
    path_graph,
    run,
    single_vertex_bound,
    transition_probs,
    validate_partition,
    z_chain,
    z_drift,
    z_transition_probs,
)
from cliquegrowth.analysis import onset_step
from cliquegrowth.graphs import Graph
from cliquegrowth.process import State as _State

from conftest import FIG1_EDGES, K333, PETERSEN, cycle_graph, idx

ZERO = lambda g: State.zeros(g.n)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} ({name}): {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


def random_connected_graph(rng, max_n=10):
    while True:
        n = int(rng.integers(2, max_n + 1))
        p = rng.uniform(0.25, 0.55)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < p]
        if not pairs:
            continue
        g = Graph.from_edge_labels(pairs)
        if g.n == n:
            from cliquegrowth import is_connected
            if is_connected(g):
                return g


@pytest.fixture(scope="module")
def critical_runs(fig1):
    """500 replicas x 5000 steps at alpha = beta = 1 from the zero state."""
    p = RateParams.uniform(1.0, 1.0)
    return p, [run(fig1, p, ZERO(fig1), 5000, seed=2025, stream=i)
               for i in range(500)]


@pytest.fixture(scope="module")
def clique_regime_runs(fig1):
    """500 replicas x 5000 steps at alpha = 1, beta = 2 from the zero state."""
    p = RateParams.uniform(1.0, 2.0)
    return p, [run(fig1, p, ZERO(fig1), 5000, seed=7, stream=i)
               for i in range(500)]


def test_criterion_01_partition_identities(fig1):
    """Every ordering of every maximal clique induces a valid partition."""
    graphs = [fig1]
    rng = np.random.default_rng(20250810)
    while len(graphs) < 101:
        graphs.append(random_connected_graph(rng))
    checked = 0
    for g in graphs:
        for c in enumerate_maximal_cliques(g):
            for order in itertools.permutations(c):
                part = d_sets(g, OrderedClique(order))
                assert validate_partition(part, g)
                checked += 1
    _report(1, "partition identities", checked > 0,
            f"{checked} orderings over {len(graphs)} graphs")


def test_criterion_02_path_measure_mass(fig1):
    """The block-product path measure is a probability measure."""
    from cliquegrowth import q_measure

    worst = 0.0
    for a, b in ((1.0, 1.0), (1.0, 2.0)):
        p = RateParams.uniform(a, b)
        for labels in ((1, 2), (4, 5, 6)):
            c = OrderedClique(idx(fig1, *labels))
            for n in range(1, 7):
                mass = sum(q_measure(fig1, p, ZERO(fig1), c, n).tolist())
                worst = max(worst, abs(mass - 1.0))
    _report(2, "path measure mass", worst <= 1e-9, f"max |mass-1| = {worst:.2e}")


def _bound_chain_cases():
    fig1 = parse_graph(FIG1_EDGES)
    graphs = [("fig1", fig1)] + [(f"P{m}", path_graph(m)) for m in (3, 4, 5, 6)]
    for name, g in graphs:
        for alpha in (0.5, 1.0, 2.0):
            p = RateParams.uniform(alpha, alpha)
            clique = final_maximal_clique(g, p, ZERO(g))
            yield name, g, alpha, p, clique


def test_criterion_03_confinement_bound_chain():
    """Exact confinement probability dominates the r >= 1 product epsilon,
    from one particle at each clique vertex and none elsewhere.

    This is the start state the certified `epsilon_lower_bound` (the `value`
    of `cliquegrowth bounds`) refers to.  Every u in block D_k is not
    adjacent to v_k, and under confinement only clique vertices hold
    particles, so L_u <= L_{v_k} - alpha x_{v_k} for any beta >= 0; hence
    P(v_k | block k) >= p11_bound(|V|, alpha, x_{v_k}) (criterion 04), and
    with x_{v_k} >= 1 from the start the factors run over r >= 1.

    From the empty state the r >= 1 product is not a bound: every vertex
    then has the same rate, so the confinement probability is at most
    m/|V| at any horizon, while the product tends to 1 as alpha grows.
    That start is covered by the companion, which restores the r = 0
    factors 1/(1+|V|).
    """
    violations = []
    worst_margin = math.inf
    for name, g, alpha, p, clique in _bound_chain_cases():
        eps = epsilon_lower_bound(g.n, alpha, len(clique))
        counts = np.zeros(g.n, dtype=np.int64)
        counts[list(clique.vertices)] = 1
        for n in range(0, 51):
            cp = confinement_prob(g, p, State(counts), clique, n)
            if not cp >= eps:
                violations.append((name, alpha, n, cp, eps))
            worst_margin = min(worst_margin, cp / eps)
    detail = (f"{len(violations)} violations, first: "
              f"{violations[0][:3]} conf={violations[0][3]:.4f} < eps={violations[0][4]:.4f}"
              if violations else f"no violations, min conf/eps = {worst_margin:.2f}")
    _report(3, "confinement bound chain, r>=1 product from one particle "
            "per clique vertex", not violations, detail)


def test_criterion_03_companion_first_factor_repaired():
    """Same matrix, bound with the r = 0 factors restored: conf >= eps/(1+|V|)^m."""
    worst_margin = math.inf
    for name, g, alpha, p, clique in _bound_chain_cases():
        eps = (epsilon_lower_bound(g.n, alpha, len(clique))
               / (1 + g.n) ** len(clique))
        for n in range(0, 51):
            cp = confinement_prob(g, p, ZERO(g), clique, n)
            assert cp >= eps, (name, alpha, n, cp, eps)
            worst_margin = min(worst_margin, cp / eps)
    print(f"[acceptance] criterion 03 companion (r>=0 product): PASS "
          f"min conf/bound = {worst_margin:.2f}")


def test_criterion_04_conditional_in_block_bound(fig1):
    """Conditional in-vertex-given-in-block probabilities dominate the
    1/(1+|V|e^(-alpha r)) bound in exhaustive enumeration, n <= 5."""
    worst = math.inf
    for alpha, beta in ((1.0, 1.0), (1.0, 2.0)):
        p = RateParams.uniform(alpha, beta)
        clique = final_maximal_clique(fig1, p, ZERO(fig1))
        part = d_sets(fig1, clique)
        blocks = [sorted(b) for b in part.blocks]
        m = len(clique)
        for n in range(1, 6):
            for prefix in itertools.product(range(m), repeat=n - 1):
                counts = np.zeros(fig1.n, dtype=np.int64)
                for k in prefix:
                    counts[clique.vertices[k]] += 1
                probs = transition_probs(p, fig1, _State(counts))
                for k in range(m):
                    r = sum(1 for q in prefix if q == k)
                    cond = probs[clique.vertices[k]] / probs[blocks[k]].sum()
                    slack = cond - p11_bound(fig1.n, alpha, r)
                    assert slack >= -1e-12, (alpha, beta, n, prefix, k)
                    worst = min(worst, slack)
    _report(4, "conditional in-block bound", worst >= -1e-12,
            f"min slack = {worst:.3e}")


def test_criterion_05_single_vertex_regime(fig1):
    """beta < alpha: runs localise on one vertex; DP dominates the product bound."""
    p = RateParams.uniform(1.0, 0.5)
    singles = 0
    for i in range(500):
        t = run(fig1, p, ZERO(fig1), 5000, seed=11, stream=i)
        if len(np.unique(t.allocations[-1000:])) == 1:
            singles += 1
    frac = singles / 500

    u = final_maximal_clique(fig1, p, ZERO(fig1)).vertices[0]
    bound = single_vertex_bound(fig1.n, 1.0, 0.5)
    dp_ok = all(
        confinement_prob(fig1, p, ZERO(fig1), OrderedClique((u,)), n) >= bound
        for n in range(0, 31))
    _report(5, "single-vertex localisation", frac >= 0.95 and dp_ok,
            f"single-vertex tail fraction = {frac:.3f}, DP >= bound: {dp_ok}")


def test_criterion_06_critical_regime_localisation(fig1, critical_runs):
    """alpha = beta: decided tails are maximal cliques; in-clique exponent
    differences freeze after the last outside allocation."""
    p, runs = critical_runs
    maximal = set(enumerate_maximal_cliques(fig1))
    decided = 0
    all_maximal = True
    max_drift = 0.0
    for t in runs:
        s = localisation_set(t, 0.5)
        cls = classify_outcome(fig1, s)
        if cls == "undecided":
            continue
        decided += 1
        if cls != "clique" or s not in maximal:
            all_maximal = False
            continue
        onset = onset_step(t, s)
        l_on = exponent_vector(p, fig1, _State(t.counts_at(onset)))
        l_end = exponent_vector(p, fig1, t.final_state())
        d_on = np.array([l_on[v] for v in s])
        d_end = np.array([l_end[v] for v in s])
        max_drift = max(max_drift, float(
            np.abs((d_end - d_end[0]) - (d_on - d_on[0])).max()))
    frac = decided / len(runs)
    ok = frac >= 0.9 and all_maximal and max_drift <= 1e-9
    _report(6, "critical-regime localisation", ok,
            f"decided = {frac:.3f}, all maximal = {all_maximal}, "
            f"max exponent drift = {max_drift:.2e}")


def _chi2_upper_quantile(dof: int, tail: float) -> float:
    """Upper `tail` quantile of chi-square with `dof` degrees of freedom
    (Wilson-Hilferty cube-root normal approximation)."""
    z = NormalDist().inv_cdf(1.0 - tail)
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + z * math.sqrt(c)) ** 3


def _post_onset_chi2(g, p, runs, scale=1.0):
    """Pooled Pearson statistic of post-onset in-clique counts against the
    multinomial law q proportional to exp(scale * C[:, 0]).

    Returns (statistic, degrees of freedom, replicas, smallest expected
    count) over the replicas classified as cliques.
    """
    stat, dof, replicas, min_expected = 0.0, 0, 0, math.inf
    for t in runs:
        s = localisation_set(t, 0.5)
        if classify_outcome(g, s) != "clique":
            continue
        onset = onset_step(t, s)
        counts = (t.final_counts() - t.counts_at(onset))[list(s)].astype(float)
        C = c_matrix(g, p.lam, t.final_state(), s)
        w = np.exp(scale * C[:, 0])
        expected = counts.sum() * w / w.sum()
        stat += float(((counts - expected) ** 2 / expected).sum())
        dof += len(s) - 1
        replicas += 1
        min_expected = min(min_expected, float(expected.min()))
    return stat, dof, replicas, min_expected


def test_criterion_06_terminal_ratio_tolerance(fig1, critical_runs):
    """Post-onset in-clique counts follow the exp(C) multinomial law.

    With alpha = beta each in-clique allocation raises every in-clique
    exponent by the same amount, so once the run stops leaving the clique
    the in-clique allocation law is fixed at q_i proportional to
    exp(C[i, 0]).  The counts N_v allocated after `onset_step` are then a
    multinomial sample of size steps - onset, up to the small bias from
    conditioning on the run not leaving the clique.  The Pearson statistic,
    pooled over every clique replica, must lie below the 1e-6 upper
    quantile of its chi-square law; the same statistic under exp(1.05 C)
    must lie above it, which shows the check can fail.

    The theorem gives an almost-sure limit with no rate, so raw terminal
    ratios are not held to a fixed tolerance: they mix pre-onset particles
    with Binomial noise, and realized C values are unbounded, so some
    members expect only about a dozen post-onset particles at horizon 5000.
    """
    p, runs = critical_runs
    stat, dof, replicas, min_expected = _post_onset_chi2(fig1, p, runs)
    stat_off, _, _, _ = _post_onset_chi2(fig1, p, runs, scale=1.05)
    limit = _chi2_upper_quantile(dof, 1e-6)
    ok = replicas > 0 and stat < limit < stat_off
    _report(6, "post-onset counts vs exp(C) multinomial", ok,
            f"chi2 = {stat:.1f} on {dof} dof over {replicas} replicas "
            f"(limit {limit:.1f}, min expected {min_expected:.1f}); "
            f"exp(1.05 C) gives {stat_off:.1f}")


def test_criterion_06_companion_exact_ratio_form(fig1, critical_runs):
    """The assertable form of the ratio limit: settled rate ratios equal
    exp(C) exactly, replica by replica."""
    p, runs = critical_runs
    worst = 0.0
    for t in runs:
        s = localisation_set(t, 0.5)
        if classify_outcome(fig1, s) != "clique":
            continue
        C = c_matrix(fig1, p.lam, t.final_state(), s)
        L = exponent_vector(p, fig1, t.final_state())
        dev = max(
            abs(math.exp(L[v] - L[u]) - math.exp(C[i, j])) * math.exp(-C[i, j])
            for i, v in enumerate(s) for j, u in enumerate(s) if i != j)
        worst = max(worst, dev)
    assert worst <= 1e-9
    print(f"[acceptance] criterion 06 companion (exact rate-ratio identity): "
          f"PASS max dev = {worst:.2e}")


def test_criterion_07_clique_regime(fig1, clique_regime_runs):
    """alpha < beta: decided sets are maximal cliques; long runs have
    count ratios within 2% of 1."""
    p, runs = clique_regime_runs
    maximal = set(enumerate_maximal_cliques(fig1))
    decided = 0
    all_maximal = True
    for t in runs:
        s = localisation_set(t, 0.5)
        cls = classify_outcome(fig1, s)
        if cls == "undecided":
            continue
        decided += 1
        if not (cls == "clique" and s in maximal):
            all_maximal = False

    worst = 0.0
    localized_long = 0
    for i in range(32):
        t = run(fig1, p, ZERO(fig1), 100_000, seed=7, stream=1000 + i)
        s = localisation_set(t, 0.5)
        if classify_outcome(fig1, s) != "clique":
            continue
        localized_long += 1
        counts = t.final_counts()[list(s)].astype(float)
        dev = max(abs(counts[a] / counts[b] - 1.0)
                  for a in range(len(s)) for b in range(len(s)) if a != b)
        worst = max(worst, dev)
    ok = all_maximal and localized_long >= 30 and worst <= 0.02
    _report(7, "clique-regime localisation", ok,
            f"decided = {decided / len(runs):.3f}, all maximal = {all_maximal}, "
            f"long-run max |ratio-1| = {worst:.2e} over {localized_long} replicas")


def test_criterion_08_complete_graph_slln():
    """K_3, alpha=1, beta=2, 10^6 steps: occupation frequencies near 1/3
    along the whole path from n0 = 10^5 on, not only at the horizon.  The
    statistic bounds the terminal max |X_i/n - 1/3| from above."""
    g = complete_graph(3)
    p = RateParams.uniform(1.0, 2.0)
    t = run(g, p, ZERO(g), 1_000_000, seed=5)
    dev = lln_deviation(t, range(3), n0=100_000)
    _report(8, "complete-graph SLLN", dev <= 0.01,
            f"sup_(n >= 1e5) sum_i |X_i/n - 1/3| = {dev:.2e}")


def test_criterion_09_drift_condition():
    """Exact drift of sum z_i^2: value 2(m-1)/m at the origin, and uniformly
    <= -0.1 on an l1 shell found by outward search."""
    origin = z_drift(3, np.ones(2), 1.0, np.zeros(2))
    origin_ok = abs(origin - 4 / 3) <= 1e-12
    details = [f"origin drift = {origin:.6f}"]
    shell_ok = True
    for lam in (0.5, 1.0):
        c = negative_drift_radius(3, np.ones(2), lam, threshold=-0.1, width=10)
        top, argmax, count = drift_shell_max(3, np.ones(2), lam, c, c + 10)
        shell_ok &= top <= -0.1
        details.append(f"lam={lam}: C={c}, max drift {top:.3f} over {count} states")
    _report(9, "drift condition", origin_ok and shell_ok, "; ".join(details))


def test_criterion_10_cross_module_consistency(fig1):
    """Difference-chain law matches simulation frequencies; DP matches
    brute-force path enumeration."""
    g = complete_graph(3)
    p = RateParams.uniform(1.0, 2.0)
    t = run(g, p, ZERO(g), 100_000, seed=3)
    z_path = z_chain(t, g).z_path
    visits = {}
    for n, v in enumerate(t.allocations):
        cnt = visits.setdefault(tuple(z_path[n]), np.zeros(3))
        cnt[min(int(v), 2)] += 1
    freq_ok = True
    checked = 0
    for z, cnt in visits.items():
        n = cnt.sum()
        if n < 500:
            continue
        checked += 1
        th = z_transition_probs(3, np.ones(2), 1.0, z)
        se = np.sqrt(th * (1 - th) / n)
        if (np.abs(cnt / n - th) > 3 * se).any():
            freq_ok = False

    pcrit = RateParams.uniform(1.0, 1.0)
    dp_worst = 0.0
    for labels in ((1, 2), (4, 5, 6)):
        verts = idx(fig1, *labels)
        for n in range(1, 7):
            dp = confinement_prob(fig1, pcrit, ZERO(fig1), OrderedClique(verts), n)
            bf = 0.0
            for path in itertools.product(verts, repeat=n):
                counts = np.zeros(fig1.n, dtype=np.int64)
                pr = 1.0
                for v in path:
                    pr *= transition_probs(pcrit, fig1, _State(counts.copy()))[v]
                    counts[v] += 1
                bf += pr
            dp_worst = max(dp_worst, abs(dp - bf))
    ok = freq_ok and checked >= 5 and dp_worst <= 1e-12
    _report(10, "cross-module consistency", ok,
            f"{checked} z-states within 3 SE: {freq_ok}; "
            f"max |DP - brute| = {dp_worst:.2e}")


def test_criterion_11_determinism(tmp_path):
    """Identical seeds give byte-identical CLI outputs; job count is invisible."""
    graph_file = tmp_path / "fig1.edges"
    graph_file.write_text(FIG1_EDGES)

    sim = [sys.executable, "-m", "cliquegrowth.cli", "simulate", str(graph_file),
           "--alpha", "1", "--beta", "1", "--steps", "2000", "--seed", "7"]
    s1 = subprocess.run(sim, capture_output=True, check=True).stdout
    s2 = subprocess.run(sim, capture_output=True, check=True).stdout

    loc = [sys.executable, "-m", "cliquegrowth.cli", "localize", str(graph_file),
           "--alpha", "1", "--beta", "1", "--steps", "1000",
           "--replicas", "16", "--seed", "5"]
    l1 = subprocess.run(loc + ["--jobs", "1"], capture_output=True, check=True).stdout
    l2 = subprocess.run(loc + ["--jobs", "1"], capture_output=True, check=True).stdout
    l4 = subprocess.run(loc + ["--jobs", "4"], capture_output=True, check=True).stdout

    ok = s1 == s2 and l1 == l2 and l1 == l4 and len(s1) > 0 and len(l1) > 0
    json.loads(l1)  # well-formed document
    _report(11, "determinism", ok,
            f"simulate {len(s1)} bytes, localize {len(l1)} bytes, jobs-invariant")


# Criterion 15: 600 replicas x 1000 steps per graph and regime, seed 15,
# fixed before the criterion was first run.  C_70 runs on the numpy kernel.
SYMMETRIC_GRAPHS = {"C_8": cycle_graph(8), "Petersen": PETERSEN,
                    "K_{3,3,3}": K333, "C_70": cycle_graph(70)}


def _uniform_winner_chi2(g, params, kind):
    """Pooled Pearson statistic of the winners of the runs of `kind`
    (clique or single_vertex) against the uniform law over the maximal
    cliques or the vertices of g, its limit (the upper 1e-6 quantile), and
    the fraction of runs of that kind."""
    report = monte_carlo_report(g, params, ZERO(g), 1000, 600, seed=15)
    cells = (enumerate_maximal_cliques(g) if kind == "clique"
             else [(v,) for v in range(g.n)])
    hits = dict.fromkeys(cells, 0)
    for out in report.per_replica:
        if out.classification == kind:
            hits[out.localisation_set] += 1
    decided = sum(hits.values())
    expected = decided / len(cells)
    stat = sum((h - expected) ** 2 / expected for h in hits.values())
    return stat, _chi2_upper_quantile(len(cells) - 1, 1e-6), decided / 600


def test_criterion_15_uniform_winner_on_symmetric_graphs():
    """From zero counts on a graph whose automorphisms move every maximal
    clique (every vertex) to every other, each is equally likely to win: at
    alpha = beta = 1 over the maximal cliques, at (1, 0.5) over the
    vertices.  Pooled chi-square against uniform over the decided runs,
    with the 1e-6 limit of criterion 06."""
    ok, details = True, []
    for name, g in SYMMETRIC_GRAPHS.items():
        for beta, kind in ((1.0, "clique"), (0.5, "single_vertex")):
            stat, limit, decided = _uniform_winner_chi2(g, RateParams.uniform(1.0, beta), kind)
            ok &= stat <= limit and decided >= 0.9
            details.append(f"{name} (1, {beta:g}) chi2 = {stat:.1f}/{limit:.1f}")
    _report(15, "uniform winner on symmetric graphs", ok, "; ".join(details))


def test_criterion_15_fails_with_one_interaction_dropped():
    # K with one entry dropped, beta[0, u] = 0 for a neighbour u of vertex
    # 0, breaks the symmetry: the clique statistic on K_{3,3,3} passes its
    # limit, 118.5 against 76.2 (112-150 at seeds 11-13)
    u0 = min(K333.adjacency[0])
    dropped = RateParams.general(
        [1.0] * K333.n, {(v, u): 0.0 if (v, u) == (0, u0) else 1.0
                         for v in range(K333.n) for u in K333.adjacency[v]})
    stat, limit, _ = _uniform_winner_chi2(K333, dropped, "clique")
    assert stat > limit
