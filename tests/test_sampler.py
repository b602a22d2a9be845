"""Both sampling kernels against the original one-step numpy loop.

`run()` picks the scalar kernel or the numpy kernel by graph size; each must
give the allocations of the reference loop below bit for bit, for any graph,
parameters and uniforms, or golden outputs would change with the graph size.
The reference recomputes the exponents densely at every step; the kernels
update them incrementally, which must stay within 1e-9 of a recomputation.
"""
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cliquegrowth import Graph, RateParams, State, exponent_vector
from cliquegrowth.process import _numpy_kernel, _scalar_kernel

from conftest import drive_kernel


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


@st.composite
def cases(draw):
    """A connected graph (random spanning tree plus random extra edges),
    real-valued general-mode parameters on it at one of several scales, a
    start state, and uniforms with some exact zeros among them."""
    n = draw(st.integers(2, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n * 2))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    g = Graph.from_edge_labels(sorted(edges))
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


@given(cases())
def test_kernels_match_reference_bit_for_bit(case):
    g, params, x0, uniforms = case
    want = reference_allocations(params, g, x0, uniforms)
    scalar, L_scalar = drive_kernel(_scalar_kernel, params, g, x0, uniforms)
    vector, L_vector = drive_kernel(_numpy_kernel, params, g, x0, uniforms)
    assert scalar.tolist() == want.tolist()
    assert vector.tolist() == want.tolist()
    assert L_scalar.tobytes() == L_vector.tobytes()
    final = State(x0.counts + np.bincount(want, minlength=g.n))
    assert np.abs(L_scalar - exponent_vector(params, g, final)).max() <= 1e-9
