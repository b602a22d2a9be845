"""Command-line interface.

Every randomized subcommand requires an explicit --seed; JSON outputs echo the
full inputs so any run can be reproduced bit-exactly.  Output documents are
built completely before anything is written, so a failure never leaves
partial output.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import sys

import numpy as np

from . import analysis, detection, oracle, process
from .graphs import Graph, OrderedClique, complete_graph, d_sets, enumerate_maximal_cliques, parse_graph, validate_partition
from .process import RateParams, State


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _parse_counts(text: str | None, g: Graph) -> State:
    state = State.zeros(g.n)
    if text:
        for item in text.split(","):
            lab, _, cnt = item.partition(":")
            try:
                v = g.index(int(lab))
                c = int(cnt)
            except ValueError as exc:
                raise ValueError(f"bad counts item {item!r}: {exc}") from None
            if c < 0:
                raise ValueError(f"negative count in {item!r}")
            state.counts[v] = c
    return state


def _parse_clique(text: str, g: Graph) -> OrderedClique:
    try:
        verts = tuple(g.index(int(tok)) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad clique {text!r}: {exc}") from None
    return OrderedClique(verts)


def _graph_echo(path: str, g: Graph) -> dict:
    return {"file": path, "vertices": [int(x) for x in sorted(g.labels)],
            "edges": [list(e) for e in g.edge_labels()]}


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _labels(g: Graph, verts) -> list[int]:
    return [int(g.labels[v]) for v in verts]


def cmd_cliques(args) -> str:
    g = _load_graph(args.graph)
    cliques = [_labels(g, c) for c in enumerate_maximal_cliques(g)]
    cliques = sorted(cliques, key=lambda c: (len(c), c))
    if args.json:
        return _dump({"operation": "cliques",
                      "inputs": {"graph": _graph_echo(args.graph, g)},
                      "cliques": cliques})
    return "".join(" ".join(str(v) for v in c) + "\n" for c in cliques)


def cmd_dsets(args) -> str:
    g = _load_graph(args.graph)
    clique = _parse_clique(args.clique, g)
    part = d_sets(g, clique)
    return _dump({
        "operation": "dsets",
        "inputs": {"graph": _graph_echo(args.graph, g),
                   "clique": _labels(g, clique.vertices)},
        "d_sets": [sorted(_labels(g, d)) for d in part.d_sets],
        "blocks": [sorted(_labels(g, b)) for b in part.blocks],
        "partition_valid": validate_partition(part, g),
    })


def _tie_args(text: str):
    if text == "lex":
        return None
    kind, _, seed = text.partition(":")
    if kind == "rand" and seed:
        return process.make_rng(int(seed))
    raise ValueError(f"bad tie-break {text!r}, expected lex or rand:SEED")


def cmd_final_clique(args) -> str:
    g = _load_graph(args.graph)
    params = RateParams.uniform(args.alpha, args.beta)
    x0 = _parse_counts(args.counts, g)
    clique = detection.final_maximal_clique(g, params, x0, _tie_args(args.tie))
    return " ".join(str(x) for x in _labels(g, clique.vertices)) + "\n"


def cmd_simulate(args) -> str:
    g = _load_graph(args.graph)
    params = RateParams.uniform(args.alpha, args.beta)
    x0 = _parse_counts(args.x0, g)
    t = process.run(g, params, x0, args.steps, args.seed)
    buf = io.StringIO()
    process.write_trajectory_csv(buf, t, g)
    return buf.getvalue()


def cmd_localize(args) -> str:
    g = _load_graph(args.graph)
    params = RateParams.uniform(args.alpha, args.beta)
    x0 = State.zeros(g.n)
    report = analysis.monte_carlo_report(
        g, params, x0, args.steps, args.replicas, args.seed,
        tail_fraction=args.tail, jobs=args.jobs)
    # jobs deliberately not echoed: output is identical for any job count
    return _dump({
        "operation": "localize",
        "inputs": {"graph": _graph_echo(args.graph, g),
                   "alpha": args.alpha, "beta": args.beta,
                   "steps": args.steps, "replicas": args.replicas,
                   "seed": args.seed, "tail_fraction": args.tail},
        "report": report.to_jsonable(g),
    })


def cmd_exact(args) -> str:
    g = _load_graph(args.graph)
    params = RateParams.uniform(args.alpha, args.beta)
    x0 = State.zeros(g.n)
    clique = _parse_clique(args.clique, g)
    inputs = {"graph": _graph_echo(args.graph, g), "alpha": args.alpha,
              "beta": args.beta, "clique": _labels(g, clique.vertices),
              "horizon": args.horizon, "mode": args.mode,
              "budget": args.budget}
    if args.mode == "confine":
        value = oracle.confinement_prob(g, params, x0, clique, args.horizon,
                                        budget=args.budget)
        doc = {"operation": "exact", "inputs": inputs,
               "value": value, "certified_bound": False, "tail_tol": None}
    else:
        weights = oracle.q_measure(g, params, x0, clique, args.horizon,
                                   budget=args.budget)
        doc = {"operation": "exact", "inputs": inputs,
               "value": float(np.add.accumulate(weights)[-1]),
               "n_paths": len(weights),
               "certified_bound": False, "tail_tol": None}
    return _dump(doc)


def cmd_bounds(args) -> str:
    epsilon = oracle.epsilon_lower_bound(args.vertices, args.alpha,
                                         args.m, args.tol)
    doc = {
        "operation": "bounds",
        "inputs": {"vertices": args.vertices, "alpha": args.alpha,
                   "beta": args.beta, "m": args.m, "tol": args.tol,
                   "horizon": args.horizon},
        "value": epsilon,
        "epsilon_n": None if args.horizon is None
        else oracle.epsilon_n(args.vertices, args.alpha, args.m, args.horizon),
        "single_vertex": None if args.beta is None
        else oracle.single_vertex_bound(args.vertices, args.alpha, args.beta,
                                        args.tol),
        "certified_bound": True,
        "tail_tol": args.tol,
    }
    return _dump(doc)


def cmd_zchain(args) -> str:
    if args.m * (args.m - 1) // 2 > oracle.DEFAULT_ENUM_BUDGET:
        raise ValueError(f"K_{args.m} has more than {oracle.DEFAULT_ENUM_BUDGET} edges")
    # the count paths hold (steps + 1) x m integers, the chain nearly as many
    if (args.steps + 1) * args.m > oracle.MAX_CELLS:
        raise ValueError(f"{args.steps} steps on K_{args.m} need more than "
                         f"{oracle.MAX_CELLS} array cells")
    g = complete_graph(args.m)
    params = RateParams.uniform(args.alpha, args.beta)
    t = process.run(g, params, State.zeros(g.n), args.steps, args.seed)
    chain = analysis.z_chain(t, g)
    gaps = chain.gaps().astype(np.float64)
    doc = {
        "operation": "zchain",
        "inputs": {"m": args.m, "alpha": args.alpha, "beta": args.beta,
                   "steps": args.steps, "seed": args.seed},
        "returns_observed": int(len(chain.return_times) - 1),
        "mean_gap": None if len(gaps) == 0 else float(gaps.mean()),
        "se_gap": None if len(gaps) < 2
        else float(gaps.std(ddof=1) / np.sqrt(len(gaps))),
        "max_abs_z": int(np.abs(chain.z_path).max()),
        "final_z": [int(x) for x in chain.z_path[-1]],
    }
    return _dump(doc)


def cmd_drift(args) -> str:
    if not (math.isfinite(args.alpha) and math.isfinite(args.beta)):
        raise ValueError("rate parameters must be finite")
    lam = args.beta - args.alpha
    if not lam > 0:
        raise ValueError("drift scan needs beta > alpha")
    c0, _, c1 = args.shell.partition(":")
    try:
        lo, hi = int(c0), int(c1)
    except ValueError:
        raise ValueError(f"bad shell {args.shell!r}, expected C0:C1") from None
    if args.m - 1 > oracle.DEFAULT_ENUM_BUDGET:
        raise ValueError(f"m - 1 exceeds the enumeration budget {oracle.DEFAULT_ENUM_BUDGET}")
    # an empty list for m < 2, which drift_shell_max rejects
    top, argmax, count = oracle.drift_shell_max(
        args.m, [1.0] * (args.m - 1), lam, lo, hi)
    return _dump({
        "operation": "drift",
        "inputs": {"m": args.m, "alpha": args.alpha, "beta": args.beta,
                   "shell": [lo, hi]},
        "max_drift": top,
        "argmax_z": list(argmax),
        "states_scanned": count,
    })


class _Parser(argparse.ArgumentParser):
    """Usage errors, in subparsers too, end as one `error:` line from main."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cliquegrowth",
        description="Simulate and verify the clique-localising growth process.")
    sub = parser.add_subparsers(dest="command", required=True)
    required_int = {"type": int, "required": True}
    required_float = {"type": float, "required": True}
    # the arguments several subcommands share, each defined once
    shared = {"graph": {}, "--alpha": required_float, "--beta": required_float,
              "--steps": required_int, "--seed": required_int, "--m": required_int}

    def command(name, func, summary, *arguments):
        """A subcommand with `arguments` in order, each a shared name or a
        (flag, options) pair, then --out."""
        p = sub.add_parser(name, help=summary)
        for arg in arguments:
            flag, options = (arg, shared[arg]) if isinstance(arg, str) else arg
            p.add_argument(flag, **options)
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.set_defaults(func=func)

    command("cliques", cmd_cliques, "list maximal cliques of a graph",
            "graph", ("--json", {"action": "store_true"}))
    command("dsets", cmd_dsets, "D-sets and partition check for an ordered clique",
            "graph", ("--clique", {"required": True, "help": "ordered labels, e.g. 2,1"}))
    command("final-clique", cmd_final_clique, "greedy final maximal clique of a state",
            "graph", "--alpha", "--beta",
            ("--counts", {"help": "initial counts as label:count,..."}),
            ("--tie", {"default": "lex", "help": "lex or rand:SEED"}))
    command("simulate", cmd_simulate, "run one trajectory, emit step,vertex CSV",
            "graph", "--alpha", "--beta", "--steps", "--seed",
            ("--x0", {"help": "initial counts as label:count,..."}))
    command("localize", cmd_localize, "Monte Carlo localisation report (JSON)",
            "graph", "--alpha", "--beta", "--steps", ("--replicas", required_int),
            "--seed", ("--tail", {"type": float, "default": 0.5}),
            ("--jobs", {"type": int, "default": 1}))
    command("exact", cmd_exact, "exact path-measure mass or confinement probability",
            "graph", "--alpha", "--beta", ("--clique", {"required": True}),
            ("--horizon", required_int),
            ("--mode", {"choices": ["q", "confine"], "default": "confine"}),
            ("--budget", {"type": int, "default": oracle.DEFAULT_ENUM_BUDGET}))
    command("bounds", cmd_bounds, "certified confinement lower bounds",
            ("--vertices", required_int), "--alpha", ("--beta", {"type": float}), "--m",
            ("--tol", {"type": float, "default": 1e-12}),
            ("--horizon", {"type": int, "help": "also report the finite-horizon product"}))
    command("zchain", cmd_zchain, "count-difference chain statistics on a complete graph",
            "--m", "--alpha", "--beta", "--steps", "--seed")
    command("drift", cmd_drift, "exact max drift over an l1 shell",
            "--m", "--alpha", "--beta", ("--shell", {"required": True, "help": "C0:C1"}))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = args.func(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
