"""Timing wrappers for a traced run, installed around the program's functions.

Each wrapper replaces a name in the namespace where its caller looks it up
(`analysis.run`, not only `process.run`), and `Trace.install` returns a
function that puts every original back.  Coarse calls become spans, kept in
memory with a link to the enclosing span so self times can be computed.
Per-step calls (`step`, `draw_vertex`, `apply_allocation`) are too many for
spans; they add to a call count and a busy time instead.
"""
from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

from workloads import confine_compositions


def _run_steps(trace, fn, args, kwargs, result):
    trace.count["process.steps"] += inspect.signature(fn).bind(*args, **kwargs).arguments["steps"]


def _confine_states(trace, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    m, horizon = len(bound["clique"].vertices), bound["horizon"]
    trace.count["oracle.confine_states"] += confine_compositions(m, horizon)


def _q_paths(trace, fn, args, kwargs, result):
    trace.count["oracle.q_paths"] += len(result)


def _drift_states(trace, fn, args, kwargs, result):
    trace.count["oracle.drift_states"] += result[2]


# (module, attribute, span or counter name, kind, tally of the result)
PLAN = [
    ("cli", "parse_graph", "graphs.parse", "span", None),
    ("analysis", "monte_carlo_report", "analysis.report", "span", None),
    ("analysis", "run", "process.run", "span", _run_steps),
    ("process", "run", "process.run", "span", _run_steps),
    ("process", "is_connected", "graphs.connected", "span", None),
    ("process.ExponentCache", "build", "process.cache_build", "count", None),
    ("process", "step", "process.step", "count", None),
    ("process", "draw_vertex", "process.draw", "count", None),
    ("process", "apply_allocation", "process.update", "count", None),
    ("process", "write_trajectory_csv", "process.csv", "span", None),
    ("analysis", "replica_outcome", "analysis.outcome", "span", None),
    ("analysis", "classify_outcome", "analysis.classify", "span", None),
    ("analysis", "enumerate_maximal_cliques", "graphs.cliques", "span", None),
    ("analysis", "c_matrix", "analysis.c_matrix", "span", None),
    ("oracle", "confinement_prob", "oracle.confine", "span", _confine_states),
    ("oracle", "q_measure", "oracle.q", "span", _q_paths),
    ("oracle", "drift_shell_max", "oracle.drift", "span", _drift_states),
    ("oracle", "check_final_properties", "detection.check", "span", None),
]


class Trace:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.count: defaultdict[str, int] = defaultdict(int)
        self.busy: defaultdict[str, float] = defaultdict(float)

    def span(self, name, fn, tally=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if tally is not None:
                tally(self, fn, args, kwargs, result)
            return result
        return wrapper

    def counter(self, name, fn):
        count, busy = self.count, self.busy

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += perf_counter() - t0
                count[name] += 1
        return wrapper

    def install(self, package):
        """Wrap every name of PLAN that `package` still has; return the undo."""
        saved = []
        for owner_path, attr, name, kind, tally in PLAN:
            owner = package
            for part in owner_path.split("."):
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                continue
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapped = self.counter(name, fn) if kind == "count" else self.span(name, fn, tally)
            setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
            saved.append((owner, attr, raw))

        def restore():
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
        return restore

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Summed duration and summed self time of the spans of each name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            total[name] += end - start
            own[name] += end - start - inner
        return total, own

    def replica_times(self) -> list[float]:
        """Per replica: its `run` span plus the `replica_outcome` span after it,
        both direct children of a Monte Carlo report."""
        out = []
        pending: dict[int, float] = {}
        for name, start, end, parent in self.spans:
            if parent < 0 or self.spans[parent][0] != "analysis.report":
                continue
            if name == "process.run":
                pending[parent] = end - start
            elif name == "analysis.outcome" and parent in pending:
                out.append(pending.pop(parent) + end - start)
        return out
