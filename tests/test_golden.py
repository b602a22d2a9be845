"""Golden pins: sha256 of CLI outputs and of one general-mode allocation array.

The determinism tests elsewhere compare a run with itself; these compare it
with bytes recorded from the original one-draw-per-step numpy sampler, so an
engine that consumed the random stream differently, or broke ties another
way, fails here.  The `exact` pins hold the q path measure's total and the
confinement DP to the bytes of the per-path dict and level-array oracles,
and the `bounds` pin holds `epsilon_n` to the bytes of its earlier sum.  The pins cover both sampling kernels: `data/fig1.edges`
(8 vertices) runs on the scalar kernel, and a seeded connected G(200, 0.05)
above the kernel crossover runs on the numpy kernel.  The K3 pins hold the
clique regime's difference-chain walk to bytes recorded before that walk
changed how it hands steps back to the kernel.
"""
import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

from cliquegrowth import RateParams, State, is_connected, parse_graph, process, run
from cliquegrowth.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIG1 = "data/fig1.edges"
SPARSE = "sparse200.edges"
K3 = "k3.edges"

# (id, argv, sha256 of stdout)
CLI_PINS = [
    ("simulate-fig1",
     ["simulate", FIG1, "--alpha", "1", "--beta", "1", "--steps", "3000",
      "--seed", "7"],
     "fe4d426ce21b88bd2769d89aa5bbeff0aaa5b883ec74750cb202959e3be31cae"),
    ("simulate-fig1-x0",
     ["simulate", FIG1, "--alpha", "0.7", "--beta", "1.3", "--steps", "3000",
      "--seed", "12", "--x0", "4:3,7:1"],
     "96a641968d5ec46ae3d63a0187d0addbb18e07548711433766f02de8707dffb4"),
    ("localize-fig1",
     ["localize", FIG1, "--alpha", "1", "--beta", "1", "--steps", "1500",
      "--replicas", "6", "--seed", "11"],
     "a9ef7deeb71436c2f7729387f66f4b7fba2c0ef3486113149db7145e99ef7d14"),
    # clique regime: every clique replica has a zero c_matrix
    ("localize-fig1-clique-regime",
     ["localize", FIG1, "--alpha", "1", "--beta", "2", "--steps", "1500",
      "--replicas", "6", "--seed", "11"],
     "9d5ab770a14cd35a61f22e362002048330295d0244bbf02fbc6f18473532d356"),
    # 3 clique, 5 single-vertex and 4 undecided replicas, c_matrix null
    ("localize-fig1-mixed-kinds",
     ["localize", FIG1, "--alpha", "1", "--beta", "0.7", "--steps", "40",
      "--replicas", "12", "--seed", "3"],
     "c93dc449ad5dcef7252ed508c69d7bd241372b4c2c69fab4777cb45bd9eb2d11"),
    ("simulate-sparse",
     ["simulate", SPARSE, "--alpha", "1", "--beta", "1", "--steps", "3000",
      "--seed", "3"],
     "6721c547955611838812c1b0074cfb5f40b4e25ae3da7d5e4c3b0bbf24c526ae"),
    ("localize-sparse",
     ["localize", SPARSE, "--alpha", "1", "--beta", "1", "--steps", "800",
      "--replicas", "2", "--seed", "5"],
     "be6d3032518331fa061dfe8c626da6512dd8c597699df0580f61aaa5fdf29344"),
    ("exact-q-fig1",
     ["exact", FIG1, "--alpha", "0.7", "--beta", "0.7", "--clique", "4,5,6",
      "--horizon", "7", "--mode", "q"],
     "893f2dcc03bbea453773d2e6c862c0706f0b1beb8ee1b3181095755843384535"),
    ("exact-q-fig1-h10",
     ["exact", FIG1, "--alpha", "1", "--beta", "1", "--clique", "4,5,6",
      "--horizon", "10", "--mode", "q"],
     "b145761ce534a6994976ab3c8fdcb17fd19f26f99173bacfa36be97fb0444b74"),
    ("exact-confine-fig1",
     ["exact", FIG1, "--alpha", "0.7", "--beta", "1.3", "--clique", "2,3,4,5",
      "--horizon", "25", "--mode", "confine"],
     "1b8d8ec6bba1bc691cd73a3c52f4157f269784d4eab9ab2d1d5356321274196c"),
    # the one-vertex DP's mass is 0.0 from level 1071 on
    ("exact-confine-fig1-singleton",
     ["exact", FIG1, "--alpha", "1", "--beta", "1", "--clique", "1",
      "--horizon", "100000"],
     "bd5d12abbfc27e24ed7f4b03573ad8c36e4a82efde5411625bdf179ae1e5512e"),
    # mostly frozen runs, drawn in one search per block after a few hundred
    # kernel steps: recorded before that fast path existed
    ("simulate-fig1-frozen-clique",
     ["simulate", FIG1, "--alpha", "2", "--beta", "2", "--steps", "20000",
      "--seed", "4"],
     "2f51a9b29569d7f8c923776d40e94ce363915b1cc0615200a9423574a73642d7"),
    ("localize-fig1-frozen-vertex",
     ["localize", FIG1, "--alpha", "1", "--beta", "0.5", "--steps", "3000",
      "--replicas", "8", "--seed", "9"],
     "e8802530ca3981bb8c94f9bbc0c5cb0f264ccd8fa0c193f26e3fe047f4a6f3a3"),
    ("simulate-sparse-frozen",
     ["simulate", SPARSE, "--alpha", "1", "--beta", "1", "--steps", "5000",
      "--seed", "8"],
     "f428820f6d78402c25e4502cc4153a5647d7af214a054c7600d41a3fc5b8ac3c"),
    # epsilon_n adds 999 log factors; value and single_vertex are rounded down
    ("bounds-epsilon-n",
     ["bounds", "--vertices", "8", "--alpha", "0.05", "--beta", "0.02",
      "--m", "2", "--horizon", "1000"],
     "0ed51b74c9ac1e5db9d4d7e4bca5717ed2780a322f99c33937e7e0a39b923d4f"),
    # the clique regime on K3, walked by the difference chain's table:
    # recorded before its walk handed uniforms of 0.0 to the kernel
    ("simulate-k3-clique-regime",
     ["simulate", K3, "--alpha", "1", "--beta", "2", "--steps", "50000",
      "--seed", "1"],
     "97665a4ee2fc7ed3586a01bf69d7c86f220bb97c06ee0801be12b90e9676dbf2"),
    # labels of one to three digits over 150,000 rows: the CSV crosses a
    # block of 65,536 rows and the step 10^5; recorded from the writer that
    # formatted one row at a time
    ("simulate-sparse-long",
     ["simulate", SPARSE, "--alpha", "1", "--beta", "1", "--steps", "150000",
      "--seed", "3"],
     "871b510c2ddf916696b80a9a794f3d6c5cfeb58035cb2eb5ad97d53f76f947db"),
    ("zchain-k3",
     ["zchain", "--m", "3", "--alpha", "1", "--beta", "2", "--steps", "20000",
      "--seed", "5"],
     "809f8f58a63e39148ebc9bca002d379a80e64492139fe4a9902604cabfb7fa00"),
]

GENERAL_PIN = "8294a115a76848990c4becce95e22b8bd20c78daca9f36dd0952a1171ed0e015"


def sparse_edges(seed=2024, n=200, p=0.05):
    """A connected G(n, p) on labels 1..n, drawn from the seed alone."""
    rng = random.Random(seed)
    while True:
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < p]
        g = parse_graph("".join(f"{a} {b}\n" for a, b in edges))
        if g.n == n and is_connected(g):
            return edges


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding data/fig1.edges, the sparse graph and K3, so the
    file names echoed in JSON outputs are fixed relative paths."""
    d = tmp_path_factory.mktemp("golden")
    (d / "data").mkdir()
    (d / FIG1).write_bytes((ROOT / FIG1).read_bytes())
    (d / K3).write_text("1 2\n1 3\n2 3\n")
    (d / SPARSE).write_text("".join(f"{a} {b}\n" for a, b in sparse_edges()))
    return d


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv, want", [p[1:] for p in CLI_PINS],
                         ids=[p[0] for p in CLI_PINS])
def test_cli_output_pinned(argv, want, workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    assert main(argv) == 0
    assert _sha(capsys.readouterr().out.encode()) == want


def test_kernels_both_pinned(workdir):
    fig1 = parse_graph((workdir / FIG1).read_text())
    sparse = parse_graph((workdir / SPARSE).read_text())
    assert fig1.n <= process.SCALAR_KERNEL_MAX_N < sparse.n


def test_general_mode_allocations_pinned(workdir):
    g = parse_graph((workdir / FIG1).read_text())
    rng = np.random.default_rng(99)
    alpha_v = rng.uniform(0.2, 0.6, g.n)
    beta_vu = {(v, u): float(rng.uniform(0.8, 1.4))
               for v in range(g.n) for u in g.adjacency[v]}
    offset = rng.normal(0.0, 0.8, g.n)
    params = RateParams.general(alpha_v, beta_vu, base_offset_v=offset)
    t = run(g, params, State.zeros(g.n), 4000, seed=31, stream=2)
    assert _sha(t.allocations.astype("<i8").tobytes()) == GENERAL_PIN
