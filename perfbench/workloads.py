"""The four benchmark workloads: inputs made from a seed, commands, output checks.

A workload is a list of `cliquegrowth` commands that one measured pass runs.
Everything here that judges an output is owned by the benchmark and does not
call the program: edge lists are read by `read_edges`, cliques are checked by
`is_maximal_clique`, and the confinement DP is compared with
`brute_confinement`, a plain path sum.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

DEFAULT_SEED = 1
FIG1 = "data/fig1.edges"
OUT_DIR = "perfbench/out"
PINS = Path(__file__).with_name("pins.json")

LOCALIZE_STEPS = 5000
FIG1_REPLICAS = 4
SPARSE_N, SPARSE_P, SPARSE_REPLICAS = 300, 0.1, 2
K3_STEPS = 50_000
ORACLE_REL_TOL = 1e-9
Q_MASS_TOL = 1e-12
BRUTE_HORIZON = 5

WORKLOADS = ("localize-fig1", "localize-sparse300", "trajectory-k3", "oracle-exact")


@dataclass
class Command:
    """One CLI invocation of a pass; `kind` selects its output check."""

    kind: str
    argv: list[str]
    out: str
    replicas: int = 0
    steps: int = 0


@dataclass
class Workload:
    name: str
    seed: int
    graph: str
    alpha: float
    beta: float
    commands: list[Command]
    edges: list[tuple[int, int]] = field(default_factory=list)

    def work(self, outputs: list[bytes]) -> int:
        """Allocation steps, or oracle states, that one pass completed."""
        total = 0
        for cmd, out in zip(self.commands, outputs):
            if cmd.kind in ("localize", "simulate"):
                total += cmd.steps * cmd.replicas
            elif cmd.kind == "confine":
                total += confine_compositions(len(_arg(cmd, "--clique").split(",")),
                                              int(_arg(cmd, "--horizon")))
            elif cmd.kind == "q":
                total += json.loads(out)["n_paths"]
            elif cmd.kind == "drift":
                total += json.loads(out)["states_scanned"]
        return total


def _arg(cmd: Command, flag: str) -> str:
    return cmd.argv[cmd.argv.index(flag) + 1]


def confine_compositions(m: int, horizon: int) -> int:
    """In-clique count vectors the confinement DP expands over its horizon:
    sum over levels k < horizon of C(k+m-1, m-1), which is C(horizon+m-1, m)."""
    return math.comb(horizon + m - 1, m)


def sparse_edges(seed: int, n: int = SPARSE_N, p: float = SPARSE_P) -> list[tuple[int, int]]:
    """A connected G(n, p) on labels 1..n, drawn from the seed alone."""
    rng = random.Random(seed)
    while True:
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < p]
        if _connected(n, edges):
            return edges


def _connected(n: int, edges) -> bool:
    adj = _adjacency(edges)
    if len(adj) != n:
        return False
    start = next(iter(adj))
    seen, todo = {start}, [start]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def _adjacency(edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def write_edges(path: str, edges) -> None:
    Path(path).write_text("".join(f"{a} {b}\n" for a, b in edges), encoding="ascii")


def read_edges(path: str) -> list[tuple[int, int]]:
    edges = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            a, b = line.split()
            edges.append((int(a), int(b)))
    return edges


def _localize(graph: str, seed: int, replicas: int, out: str) -> Command:
    return Command("localize",
                   ["localize", graph, "--alpha", "1", "--beta", "1",
                    "--steps", str(LOCALIZE_STEPS), "--replicas", str(replicas),
                    "--seed", str(seed), "--jobs", "1", "--out", out],
                   out, replicas=replicas, steps=LOCALIZE_STEPS)


def prepare(name: str, seed: int) -> Workload:
    """Write the workload's generated inputs under OUT_DIR and return it."""
    Path(OUT_DIR).mkdir(parents=True, exist_ok=True)
    out = f"{OUT_DIR}/{name}"
    if name == "localize-fig1":
        w = Workload(name, seed, FIG1, 1.0, 1.0,
                     [_localize(FIG1, seed, FIG1_REPLICAS, out + ".json")])
    elif name == "localize-sparse300":
        graph = f"{OUT_DIR}/sparse300-seed{seed}.edges"
        write_edges(graph, sparse_edges(seed))
        w = Workload(name, seed, graph, 1.0, 1.0,
                     [_localize(graph, seed, SPARSE_REPLICAS, out + ".json")])
    elif name == "trajectory-k3":
        graph = f"{OUT_DIR}/k3.edges"
        write_edges(graph, [(1, 2), (1, 3), (2, 3)])
        w = Workload(name, seed, graph, 1.0, 2.0, [Command(
            "simulate", ["simulate", graph, "--alpha", "1", "--beta", "2",
                         "--steps", str(K3_STEPS), "--seed", str(seed),
                         "--out", out + ".csv"],
            out + ".csv", replicas=1, steps=K3_STEPS)])
    elif name == "oracle-exact":
        common = [FIG1, "--alpha", "1", "--beta", "1"]
        w = Workload(name, seed, FIG1, 1.0, 1.0, [
            Command("confine", ["exact", *common, "--clique", "2,3,4,5",
                                "--horizon", "30", "--mode", "confine",
                                "--out", out + "-confine.json"], out + "-confine.json"),
            Command("q", ["exact", *common, "--clique", "4,5,6",
                          "--horizon", "10", "--mode", "q",
                          "--out", out + "-q.json"], out + "-q.json"),
            Command("drift", ["drift", "--m", "4", "--alpha", "1", "--beta", "2",
                              "--shell", "0:15", "--out", out + "-drift.json"],
                    out + "-drift.json"),
        ])
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    w.edges = read_edges(w.graph)
    return w


def brute_check_command(w: Workload) -> Command:
    """A small-horizon confinement query on a seed-chosen ordered maximal
    clique of fig1, to compare with `brute_confinement`."""
    rng = random.Random(w.seed)
    cliques = maximal_cliques(w.edges)
    clique = list(rng.choice(cliques))
    rng.shuffle(clique)
    out = f"{OUT_DIR}/{w.name}-brute.json"
    argv = ["exact", w.graph, "--alpha", "1", "--beta", "1",
            "--clique", ",".join(map(str, clique)),
            "--horizon", str(BRUTE_HORIZON), "--mode", "confine", "--out", out]
    return Command("brute", argv, out)


def maximal_cliques(edges) -> list[tuple[int, ...]]:
    """Every maximal clique, by testing every vertex subset (small graphs only)."""
    adj = _adjacency(edges)
    verts = sorted(adj)
    found = []
    for mask in range(1, 1 << len(verts)):
        sub = [v for i, v in enumerate(verts) if mask >> i & 1]
        if is_maximal_clique(adj, sub):
            found.append(tuple(sub))
    return found


def is_maximal_clique(adj: dict[int, set[int]], members) -> bool:
    members = list(members)
    if not members or len(set(members)) != len(members):
        return False
    if any(b not in adj.get(a, ()) for i, a in enumerate(members) for b in members[i + 1:]):
        return False
    common = set.intersection(*(adj[v] for v in members))
    return not common


def brute_confinement(edges, alpha: float, beta: float, clique, horizon: int) -> float:
    """P(the first `horizon` allocations from zero counts all land in `clique`),
    summed over every path in clique^horizon with plain float arithmetic."""
    adj = _adjacency(edges)
    verts = sorted(adj)
    total = 0.0
    for path in product(clique, repeat=horizon):
        x = dict.fromkeys(verts, 0)
        prob = 1.0
        for v in path:
            logits = {u: alpha * x[u] + beta * sum(x[w] for w in adj[u]) for u in verts}
            top = max(logits.values())
            weights = {u: math.exp(l - top) for u, l in logits.items()}
            prob *= weights[v] / sum(weights.values())
            x[v] += 1
        total += prob
    return total


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def _close(value: float, pinned: float) -> bool:
    return abs(value - pinned) <= ORACLE_REL_TOL * max(abs(pinned), 1e-300)


def _same(doc, pinned, where: str = "") -> list[str]:
    """Differences between a JSON document and its pin: floats within
    ORACLE_REL_TOL, everything else exactly."""
    if isinstance(pinned, dict) and isinstance(doc, dict):
        if doc.keys() != pinned.keys():
            return [f"{where or 'document'} has keys {sorted(doc)}, pin has {sorted(pinned)}"]
        return [e for k in pinned for e in _same(doc[k], pinned[k], f"{where}.{k}")]
    if isinstance(pinned, list) and isinstance(doc, list) and len(doc) == len(pinned):
        return [e for i, (d, p) in enumerate(zip(doc, pinned)) for e in _same(d, p, f"{where}[{i}]")]
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (doc, pinned))
    if numbers and (isinstance(doc, float) or isinstance(pinned, float)):
        ok = _close(doc, pinned)
    else:
        ok = type(doc) is type(pinned) and doc == pinned
    return [] if ok else [f"{where} is {doc!r}, pin is {pinned!r}"]


def check_output(w: Workload, cmd: Command, data: bytes, pins: dict) -> list[str]:
    """Problems found in one command's output; an empty list means correct."""
    try:
        if cmd.kind == "simulate":
            errors = _check_csv(w, cmd, data.decode("ascii"))
        else:
            text = data.decode("utf-8")
            doc = json.loads(text)
            errors = [] if json.dumps(doc, sort_keys=True, indent=2) + "\n" == text \
                else [f"{cmd.kind}: output is not the canonical JSON dump of itself"]
            check = _check_localize if cmd.kind == "localize" else _check_oracle
            errors += check(w, cmd, doc, pins["oracle"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{cmd.kind}: unreadable output ({type(exc).__name__}: {exc})"]
    pinned = pins["sha256"].get(w.name)
    if w.seed == pins["seed"] and cmd.kind in ("localize", "simulate") and pinned:
        digest = hashlib.sha256(data).hexdigest()
        if digest != pinned:
            errors.append(f"{cmd.kind}: sha256 {digest} differs from the pin {pinned}")
    return errors


def _check_localize(w: Workload, cmd: Command, doc: dict, _pins) -> list[str]:
    errors = []
    adj = _adjacency(w.edges)
    rep = doc["report"]
    per = rep["per_replica"]
    if rep["replicas"] != cmd.replicas or len(per) != cmd.replicas:
        errors.append(f"localize: {len(per)} replicas reported, {cmd.replicas} asked")
    agg = rep["aggregate"]
    freqs = agg["clique_frequencies"]
    total = sum(freqs.values()) + agg["single_vertex_frequency"] + agg["undecided_frequency"]
    if abs(total - 1.0) > 1e-12:
        errors.append(f"localize: frequencies sum to {total!r}")
    kinds = {"clique": 0, "single_vertex": 0, "undecided": 0}
    seen: dict[str, int] = {}
    for r in per:
        kind, members = r["classification"], r["localisation_set"]
        kinds[kind] += 1
        if kind == "clique":
            key = ",".join(map(str, members))
            seen[key] = seen.get(key, 0) + 1
            if not is_maximal_clique(adj, members):
                errors.append(f"localize: clique {members} is not a maximal clique")
        elif kind == "single_vertex" and len(members) != 1:
            errors.append(f"localize: single vertex outcome {members}")
        c = r["c_matrix"]
        if c is not None and any(c[i][j] != -c[j][i]
                                 for i in range(len(c)) for j in range(len(c))):
            errors.append(f"localize: c_matrix of {members} is not antisymmetric")
        if not 0 <= r["onset"] <= cmd.steps:
            errors.append(f"localize: onset {r['onset']} outside the run")
    n = max(len(per), 1)
    for key, count in seen.items():
        if freqs.get(key) != count / n:
            errors.append(f"localize: frequency of {key} is {freqs.get(key)}, replicas give {count / n}")
    if agg["single_vertex_frequency"] != kinds["single_vertex"] / n:
        errors.append("localize: single-vertex frequency disagrees with the replicas")
    if agg["undecided_frequency"] != kinds["undecided"] / n:
        errors.append("localize: undecided frequency disagrees with the replicas")
    return errors


def _check_csv(w: Workload, cmd: Command, text: str) -> list[str]:
    lines = text.split("\n")
    if lines[0] != "step,vertex" or lines[-1] != "":
        return ["simulate: bad CSV header or missing final newline"]
    rows = lines[1:-1]
    if len(rows) != cmd.steps:
        return [f"simulate: {len(rows)} rows for {cmd.steps} steps"]
    labels = {str(v) for e in w.edges for v in e}
    for i, row in enumerate(rows, start=1):
        step, _, label = row.partition(",")
        if step != str(i) or label not in labels:
            return [f"simulate: bad row {i}: {row!r}"]
    return []


def _check_oracle(w: Workload, cmd: Command, doc: dict, pins: dict) -> list[str]:
    if cmd.kind == "brute":
        # the pinned confine document with this query's clique, horizon and value
        clique = [int(v) for v in _arg(cmd, "--clique").split(",")]
        want = json.loads(json.dumps(pins["confine"]))
        want["inputs"].update(clique=clique, horizon=BRUTE_HORIZON)
        want["value"] = brute_confinement(w.edges, w.alpha, w.beta, clique, BRUTE_HORIZON)
        return [f"brute: {e}" for e in _same(doc, want)]
    errors = [f"{cmd.kind}: {e}" for e in _same(doc, pins[cmd.kind])]
    if cmd.kind == "q" and abs(doc["value"] - 1.0) > Q_MASS_TOL:
        errors.append(f"q: mass {doc['value']!r} is not 1")
    if cmd.kind == "drift":
        inputs, z = doc["inputs"], doc["argmax_z"]
        lo, hi = inputs["shell"]
        if not lo <= sum(map(abs, z)) <= hi:
            errors.append(f"drift: argmax {z} lies outside the shell")
        elif not _close(z_drift(inputs["beta"] - inputs["alpha"], z), doc["max_drift"]):
            errors.append(f"drift: the drift at argmax {z} is not max_drift")
    return errors


def z_drift(lam: float, z) -> float:
    """Expected one-step change of sum z_i^2 for the difference chain on
    K_(len(z)+1) with unit coefficients: an up-move at i has weight
    e^(-lam z_i), the move of every coordinate down has weight 1."""
    weights = [math.exp(-lam * zi) for zi in z]
    up = sum(wi * (2 * zi + 1) for wi, zi in zip(weights, z))
    down = sum(1 - 2 * zi for zi in z)
    return (up + down) / (sum(weights) + 1.0)
