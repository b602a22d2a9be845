"""Benchmark of the cliquegrowth command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout: the program is imported from `src/` and nothing
is installed.  The run makes the workload's inputs from the seed, then calls
`cliquegrowth.cli.main` with the workload's commands in passes for S
seconds, checking every output.  With `--trace 0` it reports the end-to-end
metrics of BENCHMARK.json, in reference seconds (see `Reference`); with
`--trace 1` it alternates plain and traced passes and reports the per-layer
metrics of BENCHMARK.json.  The last line of standard output is one JSON
object; the lines before it give every metric by name and unit, the raw
seconds beside the reference ones, and the machine it ran on.
"""
from __future__ import annotations

import os

# One single-threaded process, as for a CLI user with --jobs 1; set before
# numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads as wl
from spans import Trace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_STARTS = 15
REF_KERNEL_S = 0.010
REF_EDGES = [(1, 2), (1, 3), (2, 3), (3, 4)]

SETUP_SNIPPET = """
import sys
import cliquegrowth.cli
from cliquegrowth.graphs import parse_graph
from cliquegrowth.process import RateParams
with open(sys.argv[1], encoding="utf-8") as fh:
    g = parse_graph(fh.read())
RateParams.uniform(float(sys.argv[2]), float(sys.argv[3])).arrays(g)
"""


def load_program():
    """Import cliquegrowth from this checkout's src/, never from elsewhere."""
    if not (SRC / "cliquegrowth" / "cli.py").is_file() or not (ROOT / wl.FIG1).is_file():
        raise SystemExit(f"error: no cliquegrowth source checkout at {ROOT}")
    sys.path.insert(0, str(SRC))
    import cliquegrowth
    from cliquegrowth import cli
    if Path(cliquegrowth.__file__).resolve().parent != SRC / "cliquegrowth":
        raise SystemExit(f"error: imported cliquegrowth from {cliquegrowth.__file__}")
    return cliquegrowth, cli


def machine_info() -> dict:
    import numpy
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    llc_level, llc = 0, ""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            if level >= llc_level:
                llc_level, llc = level, (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "llc": f"L{llc_level} {llc}" if llc else "",
            "python": platform.python_version(), "numpy": numpy.__version__}


def setup_start(w: wl.Workload) -> float:
    """Seconds for one fresh interpreter to import cliquegrowth.cli, load the
    graph and materialize RateParams.arrays."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    # no timeout: waiting with one makes subprocess poll in sleeps of up to
    # 50 ms, which would quantize the measured time
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET, w.graph, str(w.alpha), str(w.beta)],
                   env=env, check=True)
    return perf_counter() - t0


def fresh_start(package) -> None:
    """Empty module-level function caches and collect the last pass's
    garbage, so each pass starts as cold and as clean as a fresh CLI process."""
    gc.collect()
    for name in dir(package):
        module = getattr(package, name)
        if type(module) is type(package):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def reference_kernel() -> float:
    """Seconds for a fixed piece of the benchmark's own work, shaped like
    the program's hot loop: per-step numpy sampling on a small vector, then a
    pure-Python path sum.  Nothing in it calls the program."""
    t0 = perf_counter()
    rng = np.random.default_rng(7)
    x = np.zeros(8)
    for _ in range(600):
        w = np.exp(x - x.max())
        c = np.cumsum(w)
        x[min(int(np.searchsorted(c, rng.random() * c[-1], side="right")), 7)] += 0.01
    wl.brute_confinement(REF_EDGES, 1.0, 1.0, [1, 2, 3], 5)
    return perf_counter() - t0


class Reference:
    """Converts a measured time into reference seconds: the time scaled by
    REF_KERNEL_S over the time `reference_kernel` took just before and just
    after it, on the same CPU.

    On a shared host each CPU runs this code at one speed or at about half
    of it, switching every second or so as other tenants come and go.  A
    slowdown stretches a command and the kernels beside it alike, so the
    scaled time moves with the program and hardly with the host.  REF_KERNEL_S
    is what the kernel takes on an unloaded CPU of the machine the benchmark
    was written on, so there reference seconds read as plain seconds."""

    def __init__(self):
        reference_kernel()  # warm up
        self.last = reference_kernel()

    def scale(self, seconds: float) -> float:
        before, self.last = self.last, reference_kernel()
        return seconds * REF_KERNEL_S / ((before + self.last) / 2)


class Runner:
    """Runs passes of one workload and keeps the tally of operations."""

    def __init__(self, w: wl.Workload, package, cli):
        self.w, self.package, self.cli = w, package, cli
        self.pins = wl.load_pins()
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, str] = {}     # output path -> sha256 of first pass
        self.checked: set[str] = set()      # sha256 of outputs already checked
        self.output_bytes = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED {self.w.name}: {message}", file=sys.stderr)

    def invoke(self, cmd: wl.Command, main) -> tuple[float, bytes | None]:
        self.attempted += 1
        out = Path(cmd.out)
        out.unlink(missing_ok=True)
        t0 = perf_counter()
        try:
            code = main(cmd.argv)
        except Exception:  # a crash of the program is a failed operation
            elapsed = perf_counter() - t0
            self.fail(f"{' '.join(cmd.argv)} raised\n{traceback.format_exc()}")
            return elapsed, None
        elapsed = perf_counter() - t0
        if code != 0 or not out.is_file():
            self.fail(f"{' '.join(cmd.argv)} exited {code}")
            return elapsed, None
        return elapsed, out.read_bytes()

    def check(self, cmd: wl.Command, data: bytes) -> bool:
        digest = hashlib.sha256(data).hexdigest()
        first = self.first.setdefault(cmd.out, digest)
        if digest != first:
            self.fail(f"{cmd.kind}: output differs from the first pass's output")
            return False
        if digest not in self.checked:
            errors = wl.check_output(self.w, cmd, data, self.pins)
            if errors:
                self.fail("; ".join(errors))
                return False
            self.checked.add(digest)
        return True

    def one_pass(self, main, ref: Reference | None = None) -> tuple[float, int, float]:
        """Run every command once; return (seconds, work done, reference
        seconds), each command scaled by `ref` on its own."""
        fresh_start(self.package)
        wall, norm, outputs = 0.0, 0.0, []
        for cmd in self.w.commands:
            elapsed, data = self.invoke(cmd, main)
            wall += elapsed
            norm += ref.scale(elapsed) if ref else elapsed
            outputs.append(data)
        work = 0
        ok = [d is not None and self.check(c, d) for c, d in zip(self.w.commands, outputs)]
        if all(ok):
            work = self.w.work(outputs)
            self.output_bytes = sum(len(d) for d in outputs)
        return wall, work, norm

    def brute_check(self) -> None:
        """Compare the confinement DP with the benchmark's own path sum."""
        cmd = wl.brute_check_command(self.w)
        _, data = self.invoke(cmd, self.cli.main)
        if data is not None:
            errors = wl.check_output(self.w, cmd, data, self.pins)
            if errors:
                self.fail("; ".join(errors))


def measure(runner: Runner, seconds: float) -> dict:
    """Passes for `seconds` of wall time, with the SETUP_STARTS
    fresh-interpreter starts spread evenly between them.  Each command and
    each start is scaled to reference seconds; medians are reported."""
    ref = Reference()
    walls, norm_walls, rates, setups, norm_setups = [], [], [], [], []
    t0 = perf_counter()
    while not walls or perf_counter() - t0 < seconds:
        if len(setups) * seconds < SETUP_STARTS * (perf_counter() - t0):
            setups.append(setup_start(runner.w))
            norm_setups.append(ref.scale(setups[-1]))
        wall, work, norm = runner.one_pass(runner.cli.main, ref)
        walls.append(wall)
        norm_walls.append(norm)
        rates.append(work / norm)
    while len(setups) < SETUP_STARTS:
        setups.append(setup_start(runner.w))
        norm_setups.append(ref.scale(setups[-1]))
    return {"norm_wall_s": (statistics.median(norm_walls), "s"),
            "norm_work_per_s": (statistics.median(rates), "1/s"),
            "setup_s": (statistics.median(norm_setups), "s"),
            "raw_wall_s": (statistics.median(walls), "s"),
            "raw_setup_s": (statistics.median(setups), "s"),
            "passes": (len(walls), "count")}


def measure_traced(runner: Runner, seconds: float) -> dict:
    """Alternate plain and traced passes; per-layer metrics are per traced pass."""
    trace = Trace()
    traced_main = trace.span("cli.main", runner.cli.main)
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while True:
        plain.append(runner.one_pass(runner.cli.main)[0])
        restore = trace.install(runner.package)
        try:
            traced.append(runner.one_pass(traced_main)[0])
        finally:
            restore()
        if perf_counter() >= deadline:
            break
    n = len(traced)
    total, own = trace.totals()
    count, busy = trace.count, trace.busy
    main_s = total["cli.main"] / n
    run_s = total["process.run"] / n
    steps = count["process.steps"] / n
    replicas = sorted(trace.replica_times())
    decided = _decided_frac(runner.w)
    m = {
        "graphs.parse_s": (total["graphs.parse"] / n, "s"),
        "graphs.cliques_calls": (_calls(trace, "graphs.cliques") / n, "count"),
        "graphs.cliques_s": (total["graphs.cliques"] / n, "s"),
        "graphs.cliques_frac": (total["graphs.cliques"] / n / main_s, "frac"),
        "graphs.connected_s": (total["graphs.connected"] / n, "s"),
        "process.run_calls": (_calls(trace, "process.run") / n, "count"),
        "process.steps": (steps, "count"),
        "process.run_s": (run_s, "s"),
        "process.run_frac": (run_s / main_s, "frac"),
        "process.ns_per_step": (run_s / steps * 1e9 if steps else 0.0, "ns"),
        "process.draw_calls": (count["process.draw"] / n, "count"),
        "process.draw_s": (busy["process.draw"] / n, "s"),
        "process.update_s": (busy["process.update"] / n, "s"),
        "process.step_self_s": ((busy["process.step"] - busy["process.draw"]
                                 - busy["process.update"]) / n, "s"),
        "process.cache_build_s": (busy["process.cache_build"] / n, "s"),
        "process.csv_s": (total["process.csv"] / n, "s"),
        "analysis.outcome_calls": (_calls(trace, "analysis.outcome") / n, "count"),
        "analysis.outcome_s": (total["analysis.outcome"] / n, "s"),
        "analysis.classify_s": (total["analysis.classify"] / n, "s"),
        "analysis.c_matrix_s": (total["analysis.c_matrix"] / n, "s"),
        "analysis.report_self_s": (own["analysis.report"] / n, "s"),
        "analysis.replica_s_p50": (_quantile(replicas, 0.50), "s"),
        "analysis.replica_s_p98": (_quantile(replicas, 0.98), "s"),
        "analysis.replica_samples": (len(replicas), "count"),
        "analysis.decided_frac": (decided, "frac"),
        "oracle.confine_s": (total["oracle.confine"] / n, "s"),
        "oracle.confine_states": (count["oracle.confine_states"] / n, "count"),
        "oracle.q_s": (total["oracle.q"] / n, "s"),
        "oracle.q_paths": (count["oracle.q_paths"] / n, "count"),
        "oracle.drift_s": (total["oracle.drift"] / n, "s"),
        "oracle.drift_states": (count["oracle.drift_states"] / n, "count"),
        "detection.check_calls": (_calls(trace, "detection.check") / n, "count"),
        "detection.check_s": (total["detection.check"] / n, "s"),
        "cli.main_s": (main_s, "s"),
        "cli.self_s": (own["cli.main"] / n, "s"),
        "cli.output_bytes": (runner.output_bytes, "B"),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(plain) - 1, "frac"),
        "trace.passes": (n, "count"),
    }
    return m


def _calls(trace: Trace, name: str) -> int:
    return sum(1 for s in trace.spans if s[0] == name)


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _decided_frac(w: wl.Workload) -> float:
    """Share of replicas of a localize output that settled on a clique or a
    single vertex; 0 for workloads without a Monte Carlo report."""
    decided = total = 0
    for cmd in w.commands:
        if cmd.kind == "localize" and Path(cmd.out).is_file():
            for r in json.loads(Path(cmd.out).read_bytes())["report"]["per_replica"]:
                total += 1
                decided += r["classification"] != "undecided"
    return decided / total if total else 0.0


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package, cli = load_program()
    os.chdir(ROOT)
    w = wl.prepare(args.workload, args.seed)
    runner = Runner(w, package, cli)
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    # one CPU for the run and its setup starts, so that a time and the
    # reference kernels beside it are measured on the same CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.trace:
        measured = measure_traced(runner, args.seconds)
    else:
        measured = measure(runner, args.seconds)
        measured["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    if w.name == "oracle-exact":
        runner.brute_check()
    failed_frac = runner.failed / runner.attempted
    measured["ops_failed_frac"] = (failed_frac, "frac")

    metrics = {}
    for spec in declared_metrics(args.trace):
        value, unit = measured[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": unit}
    for name, (value, unit) in measured.items():
        print(f"{name:26s} {value:.6g} {unit}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
