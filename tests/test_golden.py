"""Golden pins: sha256 of CLI outputs and of one general-mode allocation array.

The determinism tests elsewhere compare a run with itself; these compare it
with bytes recorded from the original one-draw-per-step numpy sampler, so an
engine that consumed the random stream differently, or broke ties another
way, fails here.  The `exact` pins hold the q path measure's total and the
confinement DP to the bytes of the per-path dict and level-array oracles,
and the `bounds` pin holds `epsilon_n` to the bytes of its earlier sum.  The pins cover both sampling kernels: `data/fig1.edges`
(8 vertices) runs on the scalar kernel, and a seeded connected G(200, 0.05)
above the kernel crossover runs on the numpy kernel.
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
    # epsilon_n adds 999 log factors
    ("bounds-epsilon-n",
     ["bounds", "--vertices", "8", "--alpha", "0.05", "--beta", "0.02",
      "--m", "2", "--horizon", "1000"],
     "a49405a9208bdb911ffc37923afb3e1aa9c6bd4a697519c449a42337ba8d074c"),
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
    """A directory holding data/fig1.edges and the sparse graph, so the file
    names echoed in JSON outputs are fixed relative paths."""
    d = tmp_path_factory.mktemp("golden")
    (d / "data").mkdir()
    (d / FIG1).write_bytes((ROOT / FIG1).read_bytes())
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
