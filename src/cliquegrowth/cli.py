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
from .graphs import Graph, OrderedClique, d_sets, enumerate_maximal_cliques, parse_graph, validate_partition
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
        return "lex", None
    kind, _, seed = text.partition(":")
    if kind == "rand" and seed:
        return "random", process.make_rng(int(seed))
    raise ValueError(f"bad tie-break {text!r}, expected lex or rand:SEED")


def cmd_final_clique(args) -> str:
    g = _load_graph(args.graph)
    params = RateParams.uniform(args.alpha, args.beta)
    x0 = _parse_counts(args.counts, g)
    tie_break, rng = _tie_args(args.tie)
    clique = detection.final_maximal_clique(g, params, x0, tie_break, rng)
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
        measure = oracle.q_measure(g, params, x0, clique, args.horizon,
                                   budget=args.budget)
        doc = {"operation": "exact", "inputs": inputs,
               "value": float(sum(measure.values())),
               "n_paths": len(measure),
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
    from .graphs import complete_graph

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
    lo, hi = int(c0), int(c1)
    top, argmax, count = oracle.drift_shell_max(
        args.m, np.ones(args.m - 1), lam, lo, hi)
    return _dump({
        "operation": "drift",
        "inputs": {"m": args.m, "alpha": args.alpha, "beta": args.beta,
                   "shell": [lo, hi]},
        "max_drift": top,
        "argmax_z": list(argmax),
        "states_scanned": count,
    })


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquegrowth",
        description="Simulate and verify the clique-localising growth process.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("cliques", help="list maximal cliques of a graph")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    add_out(p)
    p.set_defaults(func=cmd_cliques)

    p = sub.add_parser("dsets", help="D-sets and partition check for an ordered clique")
    p.add_argument("graph")
    p.add_argument("--clique", required=True, help="ordered labels, e.g. 2,1")
    add_out(p)
    p.set_defaults(func=cmd_dsets)

    p = sub.add_parser("final-clique", help="greedy final maximal clique of a state")
    p.add_argument("graph")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--counts", help="initial counts as label:count,...")
    p.add_argument("--tie", default="lex", help="lex or rand:SEED")
    add_out(p)
    p.set_defaults(func=cmd_final_clique)

    p = sub.add_parser("simulate", help="run one trajectory, emit step,vertex CSV")
    p.add_argument("graph")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--x0", help="initial counts as label:count,...")
    add_out(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("localize", help="Monte Carlo localisation report (JSON)")
    p.add_argument("graph")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tail", type=float, default=0.5)
    p.add_argument("--jobs", type=int, default=1)
    add_out(p)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("exact", help="exact path-measure mass or confinement probability")
    p.add_argument("graph")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--clique", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--mode", choices=["q", "confine"], default="confine")
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_ENUM_BUDGET)
    add_out(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("bounds", help="certified confinement lower bounds")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--horizon", type=int,
                   help="also report the finite-horizon product")
    add_out(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("zchain", help="count-difference chain statistics on a complete graph")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    add_out(p)
    p.set_defaults(func=cmd_zchain)

    p = sub.add_parser("drift", help="exact max drift over an l1 shell")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--shell", required=True, help="C0:C1")
    add_out(p)
    p.set_defaults(func=cmd_drift)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
