import json
import subprocess
import sys

import pytest

from cliquegrowth.cli import main

from conftest import FIG1_EDGES


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

    def test_localize_jobs_zero(self, capsys, fig1_file):
        self.check_rejected(capsys, "localize", fig1_file, "--alpha", "1",
                            "--beta", "1", "--steps", "20", "--replicas", "2",
                            "--seed", "1", "--jobs", "0")

    def test_bounds_zero_vertices(self, capsys):
        self.check_rejected(capsys, "bounds", "--vertices", "0", "--alpha", "1",
                            "--m", "2")

    @pytest.mark.parametrize("extra", [["--alpha", "nan"], ["--alpha", "inf"],
                                       ["--alpha", "1", "--tol", "0"],
                                       ["--alpha", "1", "--tol", "nan"],
                                       ["--alpha", "2", "--beta", "nan"],
                                       ["--alpha", "2", "--beta=-inf"]])
    def test_bounds_nan_inf_or_zero_tolerance(self, capsys, extra):
        self.check_rejected(capsys, "bounds", "--vertices", "3", "--m", "2",
                            *extra)
