"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import random
import re
import subprocess
import sys

import pytest

import run
import workloads as wl


@pytest.fixture
def runner_for(monkeypatch):
    package, cli = run.load_program()
    monkeypatch.chdir(run.ROOT)

    def make(name: str, seed: int = wl.DEFAULT_SEED) -> run.Runner:
        return run.Runner(wl.prepare(name, seed), package, cli)
    return make


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_emitted_metrics_match_benchmark_json(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.declared_metrics(trace)
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for spec in declared:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_sparse_graph_is_a_function_of_the_seed():
    first = wl.sparse_edges(5)
    assert wl.sparse_edges(5) == first
    assert wl.sparse_edges(6) != first
    assert wl._connected(wl.SPARSE_N, first)
    density = len(first) / (wl.SPARSE_N * (wl.SPARSE_N - 1) / 2)
    assert abs(density - wl.SPARSE_P) < 0.01


def test_brute_force_matches_a_hand_count():
    # on K2 every allocation lands in the clique {1, 2}, and in {1} half the time
    edges = [(1, 2)]
    assert wl.brute_confinement(edges, 1.0, 1.0, [1, 2], 4) == pytest.approx(1.0)
    assert wl.brute_confinement(edges, 1.0, 1.0, [1], 3) == pytest.approx(0.125)


def test_reference_seconds_divide_out_the_kernels_beside_a_time(monkeypatch):
    kernel_times = iter([0.05, 0.02, 0.03, 0.01])  # the first warms up
    monkeypatch.setattr(run, "reference_kernel", lambda: next(kernel_times))
    ref = run.Reference()
    assert ref.scale(1.0) == pytest.approx(run.REF_KERNEL_S / 0.025)
    assert ref.scale(2.0) == pytest.approx(2.0 * run.REF_KERNEL_S / 0.02)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_a_corrupted_output_byte_is_a_failure(runner_for, workload):
    runner = runner_for(workload)
    runner.one_pass(runner.cli.main)
    assert runner.failed == 0
    rng = random.Random(0)
    for cmd in runner.w.commands:
        data = open(cmd.out, "rb").read()
        # digits past the 10th significant one of a float may move within
        # the oracle tolerance, so they are not corrupted here
        tolerated = {i for m in re.finditer(rb"\d\.\d{9}(\d+)", data)
                     for i in range(*m.span(1))}
        for pos in rng.sample(sorted(set(range(len(data))) - tolerated), 20):
            bad = bytearray(data)
            bad[pos] = (bad[pos] + rng.randrange(1, 256)) % 256
            fresh = run.Runner(runner.w, runner.package, runner.cli)
            assert not fresh.check(cmd, bytes(bad)), (cmd.kind, pos)
            assert fresh.failed == 1


def test_a_changed_later_pass_is_a_failure(runner_for):
    runner = runner_for("oracle-exact", seed=9)
    runner.one_pass(runner.cli.main)
    cmd = runner.w.commands[2]
    data = open(cmd.out, "rb").read().replace(b"4991", b"4992")
    assert not runner.check(cmd, data)
    assert runner.failed == 1


def test_the_dp_check_catches_a_wrong_value(runner_for):
    runner = runner_for("oracle-exact", seed=4)
    runner.brute_check()
    assert runner.failed == 0
    cmd = wl.brute_check_command(runner.w)
    doc = json.loads(open(cmd.out).read())
    doc["value"] *= 1 + 1e-6
    bad = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    assert wl.check_output(runner.w, cmd, bad, runner.pins)


def test_wrappers_are_restored(runner_for):
    runner = runner_for("oracle-exact")
    before = {(o, a): vars(o)[a] for o, a in _plan_owners(runner.package)}
    trace = run.Trace()
    restore = trace.install(runner.package)
    assert any(vars(o)[a] is not before[(o, a)] for o, a in before)
    restore()
    assert all(vars(o)[a] is before[(o, a)] for o, a in before)


def _plan_owners(package):
    from spans import PLAN
    for owner_path, attr, *_ in PLAN:
        owner = package
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        yield owner, attr
