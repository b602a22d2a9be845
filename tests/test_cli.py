import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliquegrowth import analysis, graphs, oracle
from cliquegrowth.analysis import MAX_REPLICAS
from cliquegrowth.cli import main
from cliquegrowth.process import MAX_STEPS

from conftest import FIG1_EDGES, K222_EDGES, serial_pool


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.edges"
    path.write_text(FIG1_EDGES)
    return str(path)


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCliques:
    def test_six_lines(self, capsys, fig1_file):
        code, out, _ = run_main(capsys, "cliques", fig1_file)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert "4 5 6" in lines and "2 3 4 5" in lines

    def test_json(self, capsys, fig1_file):
        code, out, _ = run_main(capsys, "cliques", fig1_file, "--json")
        doc = json.loads(out)
        assert len(doc["cliques"]) == 6
        assert doc["inputs"]["graph"]["edges"]

    def test_bad_graph_is_one_line_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("1 1\n")
        code, out, err = run_main(capsys, "cliques", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


class TestDsets:
    def test_reverse_order(self, capsys, fig1_file):
        code, out, _ = run_main(capsys, "dsets", fig1_file, "--clique", "2,1")
        doc = json.loads(out)
        assert doc["d_sets"] == [[6, 8], [3, 4, 5, 7]]
        assert doc["partition_valid"] is True

    def test_not_a_maximal_clique(self, capsys, fig1_file):
        code, _, err = run_main(capsys, "dsets", fig1_file, "--clique", "4,5")
        assert code == 1 and "maximal" in err


class TestFinalClique:
    def test_zero_state(self, capsys, fig1_file):
        code, out, _ = run_main(capsys, "final-clique", fig1_file,
                                "--alpha", "1", "--beta", "1")
        assert out == "1 2\n"

    def test_with_counts(self, capsys, fig1_file):
        code, out, _ = run_main(capsys, "final-clique", fig1_file,
                                "--alpha", "1", "--beta", "1",
                                "--counts", "5:3,6:2")
        assert out == "4 5 6\n"

    def test_random_tie(self, capsys, fig1_file):
        code, out, _ = run_main(capsys, "final-clique", fig1_file,
                                "--alpha", "1", "--beta", "1", "--tie", "rand:5")
        assert code == 0 and len(out.split()) >= 2


class TestSimulate:
    def test_csv_shape(self, capsys, fig1_file):
        code, out, _ = run_main(capsys, "simulate", fig1_file, "--alpha", "1",
                                "--beta", "0.5", "--steps", "50", "--seed", "3")
        lines = out.splitlines()
        assert lines[0] == "step,vertex"
        assert len(lines) == 51

    def test_x0_and_out_file(self, capsys, fig1_file, tmp_path):
        dest = tmp_path / "traj.csv"
        code, out, _ = run_main(capsys, "simulate", fig1_file, "--alpha", "1",
                                "--beta", "1", "--steps", "5", "--seed", "3",
                                "--x0", "4:10", "--out", str(dest))
        assert code == 0 and out == ""
        assert dest.read_text().startswith("step,vertex\n")


class TestExactAndBounds:
    def test_confine(self, capsys, fig1_file):
        code, out, _ = run_main(capsys, "exact", fig1_file, "--alpha", "1",
                                "--beta", "1", "--clique", "1,2",
                                "--horizon", "1", "--mode", "confine")
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(0.25, abs=1e-12)
        assert doc["certified_bound"] is False

    def test_q_mass(self, capsys, fig1_file):
        code, out, _ = run_main(capsys, "exact", fig1_file, "--alpha", "1",
                                "--beta", "1", "--clique", "4,5,6",
                                "--horizon", "4", "--mode", "q")
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(1.0, abs=1e-9)
        assert doc["n_paths"] == 81

    def test_budget_error(self, capsys, fig1_file):
        code, _, err = run_main(capsys, "exact", fig1_file, "--alpha", "1",
                                "--beta", "1", "--clique", "4,5,6",
                                "--horizon", "30", "--mode", "q")
        assert code == 1 and "budget" in err

    def test_bounds(self, capsys):
        code, out, _ = run_main(capsys, "bounds", "--vertices", "2",
                                "--alpha", "1", "--m", "2")
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(0.152, abs=5e-4)
        assert doc["single_vertex"] is None
        assert doc["certified_bound"] is True

    def test_bounds_with_beta_and_horizon(self, capsys):
        code, out, _ = run_main(capsys, "bounds", "--vertices", "8",
                                "--alpha", "1", "--beta", "0.5", "--m", "2",
                                "--horizon", "10")
        doc = json.loads(out)
        assert 0 < doc["single_vertex"] < 1
        assert doc["epsilon_n"] > doc["value"]


class TestZchainAndDrift:
    def test_zchain(self, capsys):
        code, out, _ = run_main(capsys, "zchain", "--m", "3", "--alpha", "1",
                                "--beta", "2", "--steps", "5000", "--seed", "4")
        doc = json.loads(out)
        assert doc["returns_observed"] > 50
        assert doc["mean_gap"] > 0
        assert doc["inputs"]["seed"] == 4

    def test_drift(self, capsys):
        code, out, _ = run_main(capsys, "drift", "--m", "3", "--alpha", "1",
                                "--beta", "2", "--shell", "5:15")
        doc = json.loads(out)
        assert doc["max_drift"] < -0.1
        assert doc["states_scanned"] > 100

    def test_drift_many_dimensions(self, capsys):
        # 1499 dimensions: deeper than Python's recursion limit for an
        # enumerator that recurses per coordinate; the unique maximum is at 0
        code, out, _ = run_main(capsys, "drift", "--m", "1500", "--alpha", "1",
                                "--beta", "2", "--shell", "0:1")
        assert code == 0
        doc = json.loads(out)
        assert doc["states_scanned"] == 1 + 2 * 1499
        assert doc["argmax_z"] == [0] * 1499
        assert doc["max_drift"] == pytest.approx(2 * 1499 / 1500, rel=1e-14)

    def test_drift_needs_lambda_positive(self, capsys):
        code, _, err = run_main(capsys, "drift", "--m", "3", "--alpha", "2",
                                "--beta", "1", "--shell", "5:15")
        assert code == 1


class TestDeterminism:
    def test_simulate_byte_identical(self, fig1_file):
        cmd = [sys.executable, "-m", "cliquegrowth.cli", "simulate", fig1_file,
               "--alpha", "1", "--beta", "1", "--steps", "300", "--seed", "7"]
        a = subprocess.run(cmd, capture_output=True, check=True).stdout
        b = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert a == b and len(a) > 0

    def test_localize_jobs_invariant(self, fig1_file):
        base = [sys.executable, "-m", "cliquegrowth.cli", "localize", fig1_file,
                "--alpha", "1", "--beta", "1", "--steps", "400",
                "--replicas", "8", "--seed", "5"]
        a = subprocess.run(base + ["--jobs", "1"], capture_output=True,
                           check=True).stdout
        b = subprocess.run(base + ["--jobs", "4"], capture_output=True,
                           check=True).stdout
        assert a == b
        doc = json.loads(a)
        assert doc["report"]["replicas"] == 8


class TestBadInput:
    """Inputs that once gave a traceback or silent garbage: each now exits 1
    with a single `error:` line and no output."""

    def check_rejected(self, capsys, *argv):
        code, out, err = run_main(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        return err

    @pytest.mark.parametrize("alpha, beta", [("nan", "1"), ("inf", "1"),
                                             ("1", "-inf"), ("1e308", "1e308")])
    def test_simulate_non_finite_rates(self, capsys, fig1_file, alpha, beta):
        self.check_rejected(capsys, "simulate", fig1_file, f"--alpha={alpha}",
                            f"--beta={beta}", "--steps", "20", "--seed", "1")

    def test_localize_overflowing_rates(self, capsys, fig1_file):
        self.check_rejected(capsys, "localize", fig1_file, "--alpha", "1e308",
                            "--beta", "1e308", "--steps", "20",
                            "--replicas", "2", "--seed", "1")

    def test_drift_m_below_two(self, capsys):
        self.check_rejected(capsys, "drift", "--m", "1", "--alpha", "1",
                            "--beta", "2", "--shell", "0:3")

    @pytest.mark.parametrize("rates", [["--alpha", "1", "--beta", "inf"],
                                       ["--alpha", "1", "--beta", "nan"],
                                       ["--alpha=-inf", "--beta", "1"]])
    def test_drift_non_finite_rates(self, capsys, rates):
        err = self.check_rejected(capsys, "drift", "--m", "3", *rates,
                                  "--shell", "0:3")
        assert "finite" in err

    @pytest.mark.parametrize("m, shell", [("2", "999999999:1000000000"),
                                          ("500000", "0:1")])
    def test_drift_over_cell_limit(self, capsys, m, shell):
        # within the state budget, but the size table or the shell would
        # take gigabytes: refused before either is built
        err = self.check_rejected(capsys, "drift", "--m", m, "--alpha", "1",
                                  "--beta", "2", "--shell", shell)
        assert "cells" in err

    def test_drift_shell_over_budget(self, capsys):
        # 4 * 250001 states, just over the enumeration budget
        self.check_rejected(capsys, "drift", "--m", "3", "--alpha", "1",
                            "--beta", "2", "--shell", "250001:250001")

    @pytest.mark.parametrize("mode", ["confine", "q"])
    def test_exact_overflowing_exponents(self, capsys, fig1_file, mode):
        self.check_rejected(capsys, "exact", fig1_file, "--alpha", "1e308",
                            "--beta", "1e308", "--clique", "4,5,6",
                            "--horizon", "3", "--mode", mode)

    @pytest.mark.parametrize("work", [
        ["--clique", "1", "--horizon", "1000000000000"],
        ["--clique", "4,5,6", "--horizon", "22", "--mode", "q",
         "--budget", "100000000000"]])
    def test_exact_work_over_limits(self, capsys, fig1_file, work):
        # a singleton clique has one state per level but 10^12 levels; 3^22
        # paths are within the budget but over MAX_CELLS: both are refused
        # before any level is built
        self.check_rejected(capsys, "exact", fig1_file, "--alpha", "1",
                            "--beta", "1", *work)

    def test_zchain_over_cell_limit(self, capsys, monkeypatch):
        # (10^6 + 1) x 400 counts: refused before the run, not after it
        err = self.check_rejected(capsys, "zchain", "--m", "400", "--alpha", "1",
                                  "--beta", "2", "--steps", "1000000", "--seed", "1")
        assert str(oracle.MAX_CELLS) in err
        monkeypatch.setattr(oracle, "MAX_CELLS", 30)
        argv = ["zchain", "--m", "3", "--alpha", "1", "--beta", "2", "--seed", "1"]
        assert run_main(capsys, *argv, "--steps", "9")[0] == 0
        self.check_rejected(capsys, *argv, "--steps", "10")

    def test_cliques_over_limit(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "k222.edges"
        path.write_text(K222_EDGES)
        monkeypatch.setattr(graphs, "MAX_CLIQUES", 8)
        assert run_main(capsys, "cliques", str(path))[1].count("\n") == 8
        monkeypatch.setattr(graphs, "MAX_CLIQUES", 7)
        err = self.check_rejected(capsys, "cliques", str(path))
        assert "more than 7 maximal cliques" in err

    def test_localize_jobs_zero(self, capsys, fig1_file):
        self.check_rejected(capsys, "localize", fig1_file, "--alpha", "1",
                            "--beta", "1", "--steps", "20", "--replicas", "2",
                            "--seed", "1", "--jobs", "0")

    def test_drift_shell_without_colon(self, capsys):
        err = self.check_rejected(capsys, "drift", "--m", "3", "--alpha", "1",
                                  "--beta", "2", "--shell", "5")
        assert err == "error: bad shell '5', expected C0:C1\n"

    def test_drift_m_zero(self, capsys):
        err = self.check_rejected(capsys, "drift", "--m", "0", "--alpha", "1",
                                  "--beta", "2", "--shell", "0:3")
        assert "m >= 2" in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "GRAPH", "--alpha", "1", "--beta", "1", "--seed", "1"],
        ["zchain", "--m", "3", "--alpha", "1", "--beta", "2", "--seed", "1"],
        ["localize", "GRAPH", "--alpha", "1", "--beta", "1", "--replicas", "2",
         "--seed", "1"],
    ])
    def test_steps_over_limit(self, capsys, fig1_file, argv):
        # refused before the allocations array is built
        err = self.check_rejected(capsys, *(fig1_file if a == "GRAPH" else a
                                            for a in argv),
                                  "--steps", str(MAX_STEPS + 1))
        assert str(MAX_STEPS) in err

    def test_replicas_over_limit(self, capsys, fig1_file):
        err = self.check_rejected(capsys, "localize", fig1_file, "--alpha", "1",
                                  "--beta", "1", "--steps", "20", "--seed", "1",
                                  "--replicas", str(MAX_REPLICAS + 1))
        assert str(MAX_REPLICAS) in err

    @pytest.mark.parametrize("argv", [
        ["drift", "--m", "3", "--alpha", "1", "--beta", "2", "--shell", "-1:3"],
        ["drift", "--m", "3", "--alpha", "1", "--beta", "2"],
        ["simulate", "GRAPH", "--alpha", "1", "--beta", "1", "--steps", "x",
         "--seed", "1"],
        ["simulate", "GRAPH", "--alpha", "1", "--beta", "1", "--steps", "5",
         "--seed", "1", "--bogus"],
        ["bogus"],
        [],
    ])
    def test_usage_errors(self, capsys, fig1_file, argv):
        # argparse's own errors: exit 1 and one line, no usage block
        self.check_rejected(capsys, *(fig1_file if a == "GRAPH" else a
                                      for a in argv))

    def test_out_into_missing_directory(self, capsys, fig1_file, tmp_path):
        self.check_rejected(capsys, "cliques", fig1_file, "--out",
                            str(tmp_path / "missing" / "out.txt"))

    def test_count_out_of_range(self, capsys, fig1_file):
        self.check_rejected(capsys, "final-clique", fig1_file, "--alpha", "1",
                            "--beta", "1", "--counts", "4:99999999999999999999")

    @pytest.mark.parametrize("rates", [["--alpha", "1e-300"], ["--alpha", "1e-8"],
                                       ["--alpha", "1", "--beta", "0.99999999999"]])
    def test_bounds_tiny_rates_give_zero(self, capsys, rates):
        # the product then needs ~1/rate factors: it once hung or divided
        # by zero; it is 0.0 in floats
        code, out, _ = run_main(capsys, "bounds", "--vertices", "3", "--m", "2",
                                *rates)
        doc = json.loads(out)
        assert code == 0
        assert 0.0 in (doc["value"], doc["single_vertex"])

    def test_bounds_huge_horizon(self, capsys):
        code, out, _ = run_main(capsys, "bounds", "--vertices", "3", "--alpha",
                                "1", "--m", "2", "--horizon", "10000000000000")
        assert code == 0
        assert json.loads(out)["epsilon_n"] == pytest.approx(0.073, abs=1e-3)
        self.check_rejected(capsys, "bounds", "--vertices", "3", "--alpha",
                            "1e-5", "--m", "2", "--horizon", "10000000000000")

    def test_bounds_zero_vertices(self, capsys):
        self.check_rejected(capsys, "bounds", "--vertices", "0", "--alpha", "1",
                            "--m", "2")

    @pytest.mark.parametrize("extra", [["--alpha", "nan"], ["--alpha", "inf"],
                                       ["--alpha", "1", "--tol", "0"],
                                       ["--alpha", "1", "--tol", "nan"],
                                       ["--alpha", "2", "--beta", "nan"],
                                       ["--alpha", "2", "--beta=-inf"],
                                       ["--alpha", "1", "--tol", "inf"]])
    def test_bounds_nan_inf_or_zero_tolerance(self, capsys, extra):
        self.check_rejected(capsys, "bounds", "--vertices", "3", "--m", "2",
                            *extra)


# Argument vectors for the CLI fuzz test: every subcommand, each option
# mostly good but now and then bad (nan, inf, negatives, empty strings,
# garbage, malformed label:count and C0:C1 lists, integers past int64,
# step and replica counts past their limits, unusable graph and --out paths)
# or left out.  Good work sizes stay small: steps <= 200, replicas <= 3,
# horizons <= 5, shells within 0:8; --jobs 1000000 runs under a serial
# stand-in for the process pool, and --m 500000 meets the cell bound.
BAD_SIZES = ["0", "-1", "", "x", "1.5", "nan"]
# past MAX_STEPS and MAX_REPLICAS, refused before anything is allocated
OVER_LIMIT = ["100000000001", "99999999999999999999"]


def ints(*good):
    return list(good), BAD_SIZES + ["99999999999999999999"]


RATES = (["1", "0.7", "1.3", "2", "0.5"],
         ["0", "-1", "nan", "inf", "-inf", "1e308", "1e-300", "", "x"])
LABELS = st.sampled_from([str(v) for v in range(1, 9)] + ["9", "0", "-1", "x", ""])
COUNTS = (["4:1", "5:3,6:2", "2:1,3:2,8:1"], st.lists(st.one_of(
    st.builds("{}:{}".format, LABELS,
              st.sampled_from(["0", "3", "-1", "", "x", "1.5",
                               "99999999999999999999"])),
    LABELS, st.builds(":{}".format, LABELS)), max_size=4).map(",".join))
CLIQUES = (["1,2", "2,1", "4,5,6", "6,5,4", "2,3,4,5", "5,4,3,2", "7,8", "1,2,3"],
           st.lists(LABELS, max_size=4).map(",".join))
SHELLS = (st.builds("{}:{}".format, st.integers(0, 8), st.integers(0, 8)),
          ["5", "", ":", "a:b", "1:2:3", "-1:3", "nan:1", "0:"])
STEPS = (["1", "50", "200"], BAD_SIZES + OVER_LIMIT)
SEEDS = ints("7", "12345")
# 2^30 paths are within a 10^11 budget but over MAX_CELLS; 10^12 levels are
# over every budget drawn
HORIZONS = (["1", "3", "5"], BAD_SIZES + ["30", "1000000000000",
                                          "99999999999999999999"])
MS = ints("2", "3", "4", "500000")

# subcommand -> (takes a graph file, {option: ((good, bad) values, required)});
# None marks a flag without a value
SUBCOMMANDS = {
    "cliques": (True, {"--json": (None, False)}),
    "dsets": (True, {"--clique": (CLIQUES, True)}),
    "final-clique": (True, {
        "--alpha": (RATES, True), "--beta": (RATES, True),
        "--counts": (COUNTS, False),
        "--tie": ((["lex", "rand:5"], ["rand:", "rand:x", "rand:-1", "bogus", ""]),
                  False)}),
    "simulate": (True, {
        "--alpha": (RATES, True), "--beta": (RATES, True),
        "--steps": (STEPS, True), "--seed": (SEEDS, True),
        "--x0": (COUNTS, False)}),
    "localize": (True, {
        "--alpha": (RATES, True), "--beta": (RATES, True),
        "--steps": (STEPS, True),
        "--replicas": ((["1", "2", "3"], BAD_SIZES + OVER_LIMIT), True),
        "--seed": (SEEDS, True),
        "--tail": ((["0.5", "1", "0.1"], ["0", "1.5", "nan", ""]), False),
        "--jobs": ((["1", "1000000"], ["0", "-1", "x"]), False)}),
    "exact": (True, {
        "--alpha": (RATES, True), "--beta": (RATES, True),
        "--clique": (CLIQUES, True), "--horizon": (HORIZONS, True),
        "--mode": ((["q", "confine"], ["bogus"]), False),
        "--budget": ((["1000000", "10", "100000000000"], ["0", "-1", "x"]), False)}),
    "bounds": (False, {
        "--vertices": (ints("1", "8", "300"), True),
        "--alpha": (RATES, True), "--beta": (RATES, False),
        "--m": (ints("1", "2", "3", "500000"), True),
        "--tol": ((["1e-12", "1e-6"], ["0", "-1", "nan", "inf", ""]), False),
        "--horizon": (ints("1", "3", "5"), False)}),
    "zchain": (False, {
        "--m": (MS, True),
        "--alpha": (RATES, True), "--beta": (RATES, True),
        "--steps": (STEPS, True), "--seed": (SEEDS, True)}),
    "drift": (False, {
        "--m": (MS, True),
        "--alpha": (RATES, True), "--beta": (RATES, True),
        "--shell": (SHELLS, True)}),
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """(good, bad) graph paths: fig1 and a triangle; a self-loop, a
    disconnected graph, a directory and a missing file.  And (good, bad)
    --out paths: a new file; a directory and a file in a missing one."""
    root = tmp_path_factory.mktemp("fuzz")
    texts = {"fig1": FIG1_EDGES, "k3": "1 2\n2 3\n1 3\n", "loop": "1 2\n2 2\n",
             "split": "1 2\n3 4\n"}
    for name, text in texts.items():
        (root / f"{name}.edges").write_text(text)
    paths = [str(root / f"{name}.edges") for name in texts]
    graphs = paths[:2], paths[2:] + [str(root), str(root / "missing.edges")]
    outs = [str(root / "out.txt")], [str(root), str(root / "missing" / "out.txt")]
    return graphs, outs


def one_in(draw, n):
    return draw(st.integers(1, n)) == 1


def pick(draw, values):
    """A draw from the good values, or one time in eight from the bad ones."""
    values = values[one_in(draw, 8)]
    return draw(st.sampled_from(values) if isinstance(values, list) else values)


@st.composite
def argv_vectors(draw, fuzz_files):
    graphs, outs = fuzz_files
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    takes_graph, options = SUBCOMMANDS[command]
    argv = [command]
    if takes_graph and not one_in(draw, 20):
        argv.append(pick(draw, graphs))
    for flag, (values, required) in {**options, "--out": (outs, False)}.items():
        if one_in(draw, 20) if required else draw(st.booleans()):
            continue
        if values is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={pick(draw, values)}")
        else:
            argv += [flag, pick(draw, values)]
    if one_in(draw, 20):
        argv.append("--bogus")
    return argv


def check_output(command, out):
    """Exit 0: strict JSON (no NaN or Infinity) for the JSON subcommands,
    the step,vertex CSV for simulate, lines of labels otherwise."""
    if command == "simulate":
        header, *rows = out.splitlines()
        assert header == "step,vertex"
        for i, row in enumerate(rows, start=1):
            step, vertex = row.split(",")
            assert int(step) == i and int(vertex) >= 0
    elif command == "final-clique" or (command == "cliques" and out[:1] != "{"):
        lines = out.splitlines()
        assert lines and all(int(v) >= 0 for line in lines for v in line.split())
        assert command == "cliques" or len(lines) == 1
    else:
        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        assert json.loads(out, parse_constant=reject)["operation"] == command


@given(st.data())
def test_fuzz_argv(fuzz_files, data):
    argv = data.draw(argv_vectors(fuzz_files))
    target = Path(fuzz_files[1][0][0])
    target.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    started = []
    with (patch.object(analysis, "ProcessPoolExecutor", serial_pool(started)),
          redirect_stdout(out), redirect_stderr(err)):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    # at most one worker per replica (<= 3) and per CPU
    assert all(w <= min(3, os.cpu_count() or 1) for w in started)
    if code == 0:
        assert err == ""
        if target.exists():
            assert out == ""
            out = target.read_text()
        check_output(argv[0], out)
    else:
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
