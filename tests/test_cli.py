import concurrent.futures
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from enum import IntEnum
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, seed
from hypothesis import strategies as st

from cliquegrowth import analysis, cli, graphs, oracle, process
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


def test_one_parser_serves_every_call(capsys, fig1_file):
    """`main` builds its parser once per process.  Different subcommands,
    usage errors and --help run in one process give the bytes and exit
    codes that each gives with a parser of its own."""
    calls = [
        ("cliques", fig1_file),
        ("simulate", fig1_file, "--alpha", "1", "--beta", "2", "--steps", "40", "--seed", "3"),
        ("simulate", fig1_file, "--alpha", "1"),
        ("zchain", "--m", "3", "--alpha", "1", "--beta", "2", "--steps", "100", "--seed", "5"),
        ("simulate", "--help"),
        ("bounds", "--vertices", "2", "--alpha", "1", "--m", "2", "--horizon", "5"),
        ("nosuchcommand",),
        ("--help",),
        ("drift", "--m", "3", "--alpha", "1", "--beta", "2", "--shell", "0:4"),
    ]

    def call(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    cli.build_parser.cache_clear()
    together = [call(argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(call(argv))
    assert together == alone
    assert [code for code, _, _ in together] == [0, 0, 1, 0, 0, 0, 1, 0, 0]
    assert together[2][2].startswith("error:") and len(together[2][2].splitlines()) == 1
    assert together[4][1].startswith("usage: cliquegrowth simulate")


# strings json must escape: quotes, backslashes, control characters,
# non-ASCII text, a lone surrogate
ESCAPED = st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\x7f\t\n\r\b\f", "\u00e9",
                           "\u65e5\u672c", "\u2028\u2029", "\U0001f600", "\ud800", ""])
TEXTS = st.one_of(st.text(), ESCAPED)
# special floats beside arbitrary ones
FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 5e-324, 0.1, 1.0,
                                                 math.nan, math.inf, -math.inf]))
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2**200, 2**200), FLOATS, TEXTS)
# json sorts a dict's keys, then writes each as a string: keys of one kind
# per dict, or of mixed kinds, which json may fail to sort
JSON_KEYS = (TEXTS, st.integers(-2**70, 2**70), FLOATS, st.booleans(),
             st.one_of(TEXTS, st.integers(), FLOATS, st.none()))


def json_containers(inner):
    return st.one_of(st.lists(inner, max_size=6), st.lists(inner, max_size=6).map(tuple),
                     *(st.dictionaries(keys, inner, max_size=6) for keys in JSON_KEYS))


# a list, tuple or dict at the top, as every command's document is
JSON_DOCS = json_containers(st.recursive(JSON_LEAVES, json_containers, max_leaves=12))


class Text(str):
    """A str subclass, which `_dump` writes by `_scalar`'s `str` branch and
    by `_key`, not by the escaper it maps over dicts whose keys are all
    exactly str."""


class Small(IntEnum):
    """An int subclass, which json writes by int.__repr__: its members leave
    the run of exact ints."""

    ONE = 1


@given(JSON_DOCS)
@example([Text("a\u00e9")])
@example({Text("b"): [Text("x")], Text("a"): None})
def test_dump_writes_what_json_writes(doc):
    """`cli._dump` gives json.dumps(doc, sort_keys=True, indent=2) + newline
    for any JSON document: nested dicts, lists and tuples, escaped and
    non-ASCII keys and strings, str subclasses, bools, None, big ints, and
    floats with -0.0, the smallest subnormal, NaN and the infinities.
    Where json refuses a document (keys of kinds it cannot sort together),
    so does `_dump`."""
    try:
        want = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    except TypeError:
        with pytest.raises(TypeError):
            cli._dump(doc)
    else:
        assert cli._dump(doc) == want


# entries of rows of one width: ints, those beyond 2^63 too, and finite
# floats, for the one row template; then ints with bools, floats with NaN
# and the infinities, or any JSON leaf
ROW_INTS = st.one_of(st.integers(-2**70, 2**70), st.sampled_from([2**63, -2**63 - 1, 2**64]))


def equal_rows(entries):
    """Lists of rows of one width, 0 included; each row a list or a tuple."""
    return st.integers(0, 4).flatmap(lambda width: st.lists(
        st.one_of(st.lists(entries, min_size=width, max_size=width),
                  st.lists(entries, min_size=width, max_size=width).map(tuple)),
        max_size=30))


# long runs of floats, all finite or with -0.0, NaN and the infinities
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SPECIAL_OR_FINITE = st.one_of(FINITE, st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))
ROW_DOCS = st.one_of(
    equal_rows(ROW_INTS),
    equal_rows(FINITE),
    equal_rows(st.one_of(ROW_INTS, st.booleans())),
    equal_rows(SPECIAL_OR_FINITE),
    equal_rows(JSON_LEAVES),
    st.lists(st.lists(ROW_INTS, max_size=4), max_size=30),
    st.lists(ROW_INTS, max_size=60),
    st.lists(FINITE, max_size=60),
    st.lists(SPECIAL_OR_FINITE, max_size=60),
)
# the same inside dicts and tuples
ROW_TREES = st.one_of(ROW_DOCS, st.dictionaries(TEXTS, ROW_DOCS, max_size=3),
                      st.dictionaries(st.integers(), ROW_DOCS, max_size=3),
                      st.lists(ROW_DOCS, max_size=3).map(tuple))


@seed(0)
@given(ROW_TREES)
@example([[1, 2], [3, 4]])
@example([[], []])
@example(([2**64, -1],))
@example([[True, 1], [0, False]])
@example([[1], [1, 2]])
@example([(1.0, 0.5), (-0.0, 1e300)])
@example([[1.0, 2], [3.5, math.inf]])
@example([1.5, -0.0, math.nan, 2.0])
@example({"edges": [(1, 2), (1, 3)], "f": {"1,2": 0.5, "3": 1.0}})
@example([1, 2**64, -3])
@example([True, 1, 0])
@example([1, 2.0])
@example([1, Small.ONE, 2])
@example({1.5: 0, 2.5: 1})
@example({True: 1})
def test_dump_writes_rows_and_float_runs_as_json_does(doc):
    """The writer's bulk paths (rows of one width holding only ints or only
    finite floats, dicts with str keys, runs of exact ints or of finite
    floats) and what falls back from them (bools, int subclasses, ragged
    rows, mixed rows, non-str keys, NaN and the infinities) give json's
    text."""
    assert cli._dump(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_dump_refuses_a_numpy_int_in_a_row():
    with pytest.raises(TypeError):
        cli._dump([[1, np.int64(2)]])


@pytest.mark.parametrize("bad", [np.int64(3), {1, 2}, frozenset(), object(), np.float32(1.5)])
def test_dump_refuses_what_json_refuses(bad):
    """A value json cannot write raises the TypeError json raises, in a
    list and in a dict, at any depth."""
    for doc in ([bad], [1, bad], {"a": {"b": [bad]}}, [[1, 2], [3, bad]]):
        with pytest.raises(TypeError):
            json.dumps(doc, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            cli._dump(doc)


def test_dump_refuses_a_tuple_key_as_json_does():
    doc = {(1, 2): 3}
    with pytest.raises(TypeError) as want:
        json.dumps(doc, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as got:
        cli._dump(doc)
    assert str(got.value) == str(want.value)


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

    def test_final_clique_non_finite_start_exponents(self, capsys, fig1_file):
        # 3 * 1e308 overflows: no exponent to break ties on
        self.check_rejected(capsys, "final-clique", fig1_file, "--alpha", "1e308",
                            "--beta", "1", "--counts", "5:3")

    def test_simulate_non_finite_start_exponents(self, capsys, fig1_file,
                                                 monkeypatch):
        # refused before the kernel draws its first uniform: exponents that
        # are not finite at the start, and finite ones (zero) that a second
        # allocation would overflow
        drawn = []
        allocate = process._allocate

        def counting(params, g, x0, rng, steps, scalar):
            class Tally:
                def random(self, size):
                    us = rng.random(size)
                    drawn.extend(us)
                    return us
            return allocate(params, g, x0, Tally(), steps, scalar)

        monkeypatch.setattr(process, "_allocate", counting)
        for rates in (["--alpha", "1e308", "--beta", "1", "--x0", "5:3"],
                      ["--alpha", "1e308", "--beta", "1e308"]):
            self.check_rejected(capsys, "simulate", fig1_file, *rates,
                                "--steps", "1000000", "--seed", "1")
            assert drawn == []

    def test_simulate_overflow_on_numpy_kernel(self, capsys, tmp_path):
        # 100 vertices run on the numpy kernel, which warned about overflow
        # and NaN weights when the run was checked only after sampling
        path = tmp_path / "cycle100.edges"
        path.write_text("".join(f"{v} {(v + 1) % 100}\n" for v in range(100)))
        assert 100 > process.SCALAR_KERNEL_MAX_N
        self.check_rejected(capsys, "simulate", str(path), "--alpha", "1e308",
                            "--beta", "1e308", "--steps", "2000", "--seed", "1")

    def test_sampler_and_oracles_share_the_overflow_rule(self, capsys, fig1_file):
        # from zero counts the exponents grow by at most 1e307 a step:
        # 2 * 8e307 is a finite float and 2 * 9e307 is not
        rates = ["--alpha", "1e307", "--beta", "1e307"]
        for n, ok in [("8", True), ("9", False)]:
            for argv in (["simulate", fig1_file, *rates, "--steps", n, "--seed", "1"],
                         ["exact", fig1_file, *rates, "--clique", "4,5,6",
                          "--horizon", n]):
                if ok:
                    code, out, err = run_main(capsys, *argv)
                    assert (code, err) == (0, "") and out
                else:
                    self.check_rejected(capsys, *argv)

    def test_graph_over_cell_limit(self, capsys, tmp_path):
        # a path of 10,001 vertices needs dense n x n arrays of over
        # MAX_CELLS cells: refused before any is made, where 10,000 would
        # build arrays of about 3 GB.  Its cliques are still listed.
        n = 10001
        assert n * n > process.MAX_CELLS >= (n - 1) ** 2
        path = tmp_path / "path.edges"
        path.write_text("".join(f"{v} {v + 1}\n" for v in range(1, n)))
        rates = [str(path), "--alpha", "1", "--beta", "1"]
        tracemalloc.start()
        try:
            for argv in (["simulate", *rates, "--steps", "10", "--seed", "1"],
                         ["localize", *rates, "--steps", "10", "--replicas", "1", "--seed", "1"],
                         ["exact", *rates, "--clique", "1,2", "--horizon", "3"],
                         ["exact", *rates, "--clique", "1,2", "--horizon", "3", "--mode", "q"],
                         ["final-clique", *rates]):
                err = self.check_rejected(capsys, *argv)
                assert err == (f"error: a graph of {n} vertices needs more than "
                               f"{process.MAX_CELLS} array cells\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n
        code, out, _ = run_main(capsys, "cliques", str(path))
        assert code == 0 and out.count("\n") == n - 1

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

    @pytest.mark.parametrize("argv, want", [
        (["dsets", "--clique", "5"], "(5,) is not a maximal clique"),
        (["exact", "--clique", "5,9", "--mode", "confine"], "(5, 9) is not a clique"),
        (["exact", "--clique", "5,9", "--mode", "q"], "(5, 9) is not a final maximal clique")],
        ids=["dsets", "confine", "q"])
    def test_clique_errors_name_labels(self, capsys, tmp_path, argv, want):
        # on the path 5-7-9 the labels 5, 9 are the indices 0, 2
        path = tmp_path / "path579.edges"
        path.write_text("5 7\n7 9\n")
        rates = ["--alpha", "1", "--beta", "1", "--horizon", "2"] if argv[0] == "exact" else []
        err = self.check_rejected(capsys, argv[0], str(path), *argv[1:], *rates)
        assert want in err

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

    def test_localize_disconnected_lists_no_clique(self, capsys, monkeypatch, tmp_path):
        # K_{2,2,2} plus a disjoint edge: connectivity is checked before
        # any maximal clique is listed
        def no_cliques(g):
            raise AssertionError("cliques were listed before connectivity was checked")

        path = tmp_path / "split.edges"
        path.write_text(K222_EDGES + "7 8\n")
        monkeypatch.setattr(analysis, "enumerate_maximal_cliques", no_cliques)
        err = self.check_rejected(capsys, "localize", str(path), "--alpha", "1",
                                  "--beta", "1", "--steps", "20", "--replicas", "2",
                                  "--seed", "1")
        assert err == "error: graph must be connected\n"

    def test_localize_jobs_zero(self, capsys, fig1_file):
        self.check_rejected(capsys, "localize", fig1_file, "--alpha", "1",
                            "--beta", "1", "--steps", "20", "--replicas", "2",
                            "--seed", "1", "--jobs", "0")

    @pytest.mark.parametrize("option, line", [
        (["--steps", "1000000", "--tail", "2"], "error: tail_fraction must be in (0, 1]\n"),
        (["--steps", "0"], f"error: steps must be in [1, {MAX_STEPS}]\n")])
    def test_localize_bad_tail_or_steps_runs_nothing(self, capsys, monkeypatch,
                                                     fig1_file, option, line):
        def no_run(*args, **kwargs):
            raise AssertionError("a replica ran before the arguments were checked")

        started = []
        monkeypatch.setattr(analysis, "run", no_run)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool(started))
        err = self.check_rejected(capsys, "localize", fig1_file, "--alpha", "1",
                                  "--beta", "1", "--replicas", "2", "--seed", "1",
                                  "--jobs", "2", *option)
        assert err == line
        assert started == []

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

    def test_count_out_of_range_in_own_words(self, capsys, fig1_file):
        err = self.check_rejected(capsys, "final-clique", fig1_file, "--alpha", "1",
                                  "--beta", "1", "--counts", "5:99999999999999999999")
        assert err == "error: counts must be one non-negative integer per vertex\n"

    @pytest.mark.parametrize("argv, line", [
        (["final-clique", "GRAPH", "--alpha", "1", "--beta", "1", "--counts", "5"],
         "error: bad counts item '5': invalid literal for int() with base 10: ''\n"),
        (["final-clique", "GRAPH", "--alpha", "1", "--beta", "1", "--counts", "5:-1"],
         "error: negative count in '5:-1'\n"),
        (["simulate", "GRAPH", "--alpha", "1", "--beta", "1", "--steps", "5", "--seed", "-1"],
         "error: seed and stream must be non-negative\n"),
        (["drift", "--m", "1000002", "--alpha", "1", "--beta", "2", "--shell", "0:1"],
         "error: m - 1 exceeds the enumeration budget 1000000\n")],
        ids=["counts-item", "negative-count", "negative-seed", "m-over-budget"])
    def test_refusals_in_own_words(self, capsys, fig1_file, argv, line):
        err = self.check_rejected(capsys, *(fig1_file if a == "GRAPH" else a
                                            for a in argv))
        assert err == line

    @pytest.mark.parametrize("argv", [
        ["final-clique", "--counts", "5:1,5:0"],
        ["final-clique", "--counts", "5:0,4:2,5:1"],
        ["simulate", "--x0", "4:3,4:3", "--steps", "5", "--seed", "1"]])
    def test_label_given_twice(self, capsys, fig1_file, argv):
        # the last value once won: 5:1,5:0 and 5:0,5:1 gave different cliques
        err = self.check_rejected(capsys, argv[0], fig1_file, "--alpha", "1",
                                  "--beta", "1", *argv[1:])
        assert "given twice" in err

    @pytest.mark.parametrize("tie", ["rand:abc", "rand:-1", "rand:"])
    def test_bad_tie_seed_in_own_words(self, capsys, fig1_file, tie):
        err = self.check_rejected(capsys, "final-clique", fig1_file, "--alpha", "1",
                                  "--beta", "1", "--tie", tie)
        assert err == f"error: bad tie-break {tie!r}, expected lex or rand:SEED\n"

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
        # ~10^13 factors below 1: the log-sum passes -EXP_UNDERFLOW within
        # a few thousand of them, so the product is exactly 0.0 in floats
        code, out, _ = run_main(capsys, "bounds", "--vertices", "3", "--alpha",
                                "1e-5", "--m", "2", "--horizon", "10000000000000")
        assert code == 0
        assert json.loads(out)["epsilon_n"] == 0.0

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
    with (patch.object(concurrent.futures, "ProcessPoolExecutor", serial_pool(started)),
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
