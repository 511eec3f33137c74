"""The benchmark's workloads: seeded inputs, the timed calls, and their checks.

A workload is one ``full``-scale segment plus the other two segments at
``smoke`` scale.  The full segment carries the work the workload exists for;
the smoke segments cost milliseconds and make every traced layer record a
measured, non-zero time in every workload.  Each segment has three steps:

- ``setup(rng, scale, workdir)`` builds the inputs from the seeded generator;
- ``run(inp, latencies)`` makes the timed calls and returns their outputs,
  appending one latency per operation of the workload's op stream;
- ``check(inp, out, wl)`` compares the outputs with exact expected values and
  returns ``(attempted, failures)``; ``wl`` is the ``Workload``, for its seed
  and its memo of oracle results.

Every c4lab call goes through an attribute of the ``c4lab`` package, looked up
at call time, so that the traced run sees the wrapped entry points.
"""

from __future__ import annotations

import os
import time

import numpy as np

import c4lab
import c4lab.supersat

# kept before tracing wraps it: the wrapper hides ``cache_clear``
_ER_GRAPH_CACHE = c4lab.supersat.er_graph

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

# ex(n, C4), the classical small values (also frozen in the package's gate)
EXPECTED_EX = {4: 4, 5: 6, 6: 7, 7: 9, 8: 11}
# h(n, t) = min C4 count with ex(n, C4) + t edges, frozen from the seed commit
EXPECTED_H = {(5, 1): 2, (7, 1): 1, (7, 2): 2}
# random_supersat x/y lists, frozen only for the default seed
EXPECTED_SUPERSAT = {
    ("full", DEFAULT_SEED): [[109, 106], [7098, 6899]],
    ("smoke", DEFAULT_SEED): [[62, 88], [720, 1146]],
}

SCALES = {
    "construct": {
        "full": {"orders": (27, 32, 49, 64), "queries": 2000},
        "smoke": {"orders": (2, 3, 4), "queries": 20},
    },
    "perturb": {
        "full": {
            "edge_q": 16, "edge_ops": 1000, "matching_q": 64, "matching_ts": (1, 2),
            "supersat": (64, 50, 2), "classify_q": 32, "classify_sets": 10,
        },
        "smoke": {
            "edge_q": 4, "edge_ops": 10, "matching_q": 8, "matching_ts": (1,),
            "supersat": (8, 40, 2), "classify_q": 8, "classify_sets": 4,
        },
    },
    "small": {
        "full": {"graphs": 2000, "max_n": 32, "turan": (4, 5, 6, 7, 8), "h": ((7, 1), (7, 2))},
        "smoke": {"graphs": 20, "max_n": 12, "turan": (4, 5, 6), "h": ((5, 1),)},
    },
}


def _timed(latencies, fn, *args, **kwargs):
    t = time.perf_counter()
    out = fn(*args, **kwargs)
    if latencies is not None:
        latencies.append(time.perf_counter() - t)
    return out


# ---------------------------------------------------------------------------
# construct-certify: plane -> audit -> polarity graph -> count -> stats -> files


def construct_setup(rng, scale, workdir):
    sc = SCALES["construct"][scale]
    tag = f"{os.getpid()}-{scale}"
    top = sc["orders"][-1]
    return {
        "orders": sc["orders"],
        # indices into the edge list of the largest order's polarity graph,
        # which has q(q+1)^2/2 edges; one order only, so the latency
        # quantiles fall inside one cluster rather than between orders
        "queries": rng.integers(0, top * (top + 1) ** 2 // 2, sc["queries"]).tolist(),
        "paths": {
            kind: os.path.join(workdir, f"{kind}-{tag}.txt")
            for kind in ("incidence", "incidence-again", "edges", "edges-again")
        },
    }


def construct_run(inp, latencies):
    out = []
    for q in inp["orders"]:
        spec = c4lab.spec_for_order(q)
        plane = c4lab.build_pg2(spec)
        verdict = c4lab.verify_projective_plane(plane)
        pg = c4lab.polarity_graph(c4lab.orthogonal_polarity(spec))
        count = c4lab.count_c4(pg.graph)
        stats = c4lab.graph_stats(pg.graph, q)
        fact = {
            "q": q, "ok": verdict.ok, "order": verdict.order, "count": count,
            "m": pg.graph.m, "n": pg.graph.n, "hist": stats.degree_histogram,
            "p2": stats.p2, "up": stats.up, "through": [],
        }
        if q == inp["orders"][-1]:
            # the op stream: 4-cycles through seeded edges of the certified graph
            edges = pg.graph.edges()
            fact["through"] = [
                _timed(latencies, c4lab.c4_through_edge, pg.graph, int(edges[i, 0]), int(edges[i, 1]))
                for i in inp["queries"]
            ]
            paths = inp["paths"]
            c4lab.write_incidence(plane, paths["incidence"])
            fact["plane"], fact["plane_back"] = plane, c4lab.read_incidence(paths["incidence"])
            c4lab.write_edge_list(pg.graph, paths["edges"])
            fact["graph"] = pg.graph
            fact["graph_back"] = c4lab.read_edge_list(paths["edges"], pg.graph.n)
        out.append(fact)
    return out


def _same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def construct_check(inp, out, wl):
    failures = []
    for f in out:
        q, n = f["q"], f["n"]
        wrong = [
            name
            for name, ok in (
                ("plane axioms", f["ok"] and f["order"] == q),
                ("count_c4 == 0", f["count"] == 0),
                ("m == q(q+1)^2/2", f["m"] == q * (q + 1) ** 2 // 2),
                ("degree histogram", f["hist"] == {q: q + 1, q + 1: q * q}),
                ("p2 + up == C(n,2)", f["p2"] + f["up"] == n * (n - 1) // 2),
            )
            if not ok
        ]
        if wrong:
            failures.append(f"construct q={q}: {wrong}")
        # a C4-free graph has no 4-cycle through any edge
        failures += [
            f"construct q={q}: edge query {i} found {count} 4-cycles"
            for i, (count, cycles) in enumerate(f["through"])
            if count != 0 or cycles != []
        ]
    io = [f for f in out if "plane" in f]
    attempted = len(out) + len(io) + sum(len(f["through"]) for f in out)
    for f in io:
        paths = inp["paths"]
        # the read-back objects must equal the originals and re-serialize byte for byte
        c4lab.write_incidence(f["plane_back"], paths["incidence-again"])
        c4lab.write_edge_list(f["graph_back"], paths["edges-again"])
        ok = (
            f["plane_back"] == f["plane"]
            and np.array_equal(f["graph_back"].edges(), f["graph"].edges())
            and _same_bytes(paths["incidence"], paths["incidence-again"])
            and _same_bytes(paths["edges"], paths["edges-again"])
        )
        for path in paths.values():
            os.remove(path)
        if not ok:
            failures.append(f"construct q={f['q']}: file round trip not exact")
    return attempted, failures


# ---------------------------------------------------------------------------
# perturb-recount: experiments that rebuild a polarity graph and recount it


def _nonedges(g):
    """All non-adjacent pairs (u < v) of a graph, as a (k, 2) array."""
    adj = np.zeros((g.n, g.n), dtype=bool)
    adj[np.repeat(np.arange(g.n), g.degrees()), g.indices] = True
    us, vs = np.triu_indices(g.n, 1)
    keep = ~adj[us, vs]
    return np.column_stack([us[keep], vs[keep]])


def _sample(pairs, rng, k):
    """k distinct rows of an edge array, seeded, as int tuples."""
    return [(int(u), int(v)) for u, v in pairs[rng.choice(len(pairs), size=k, replace=False)]]


def perturb_setup(rng, scale, workdir):
    sc = SCALES["perturb"][scale]
    _ER_GRAPH_CACHE.cache_clear()
    # the experiments reuse these cached builds; building them is set-up
    pg_edge = c4lab.er_graph(sc["edge_q"])
    pg_class = c4lab.er_graph(sc["classify_q"])
    c4lab.er_graph(sc["matching_q"])
    c4lab.er_graph(sc["supersat"][0])
    non, edges = _nonedges(pg_class.graph), pg_class.graph.edges()
    # s added and s - 1 removed edges, s = 1..4
    sets = [
        (_sample(non, rng, 1 + i % 4), _sample(edges, rng, i % 4))
        for i in range(sc["classify_sets"])
    ]
    return {
        "scale": scale,
        "pg_edge": pg_edge,
        "edge_pairs": _sample(_nonedges(pg_edge.graph), rng, sc["edge_ops"]),
        "matching_q": sc["matching_q"],
        "matching_ts": sc["matching_ts"],
        "matching_seed": int(rng.integers(1, 2**31)),
        "supersat": sc["supersat"],
        "supersat_seed": int(rng.integers(0, 2**31)),
        "pg_class": pg_class,
        "sets": sets,
    }


def perturb_run(inp, latencies):
    pg = inp["pg_edge"]
    edge = [_timed(latencies, c4lab.add_edge_experiment, pg, u, v) for u, v in inp["edge_pairs"]]
    matching = [
        c4lab.matching_experiment(inp["matching_q"], t, seed=inp["matching_seed"])
        for t in inp["matching_ts"]
    ]
    q, t, trials = inp["supersat"]
    supersat = c4lab.random_supersat(q, t, trials, seed=inp["supersat_seed"])
    classified = [
        (
            c4lab.classify_perturbation(inp["pg_class"], add, rem),
            c4lab.upper_count_audit(inp["pg_class"], add),
        )
        for add, rem in inp["sets"]
    ]
    return {"edge": edge, "matching": matching, "supersat": supersat, "classified": classified}


def perturb_check(inp, out, wl):
    failures = []
    q = inp["pg_edge"].q
    for r in out["edge"]:
        if not (r.passed() and r.measured["count"] in (q - 1, q, q + 1)):
            failures.append(f"add_edge {r.params}: {r.verdicts}")
    mq = inp["matching_q"]
    for r in out["matching"]:
        if not (r.passed() and r.measured["count"] == r.params["t"] * (mq - 1)):
            failures.append(f"matching {r.params}: count {r.measured['count']}")
    sup = out["supersat"]
    frozen = EXPECTED_SUPERSAT.get((inp["scale"], wl.seed))
    xy = [sup.measured["x_per_trial"], sup.measured["y_per_trial"]]
    if not sup.passed() or (frozen is not None and xy != frozen):
        failures.append(f"random_supersat {sup.params}: {sup.verdicts} x/y {xy}")
    for r, audit in out["classified"]:
        if not r.passed():
            failures.append(f"classify {r.params}: {r.verdicts}")
        if not (audit["bound_ok"] and audit["total"] == audit["C0"] + audit["C1"]):
            failures.append(f"upper_count_audit s={audit['s']}: {audit}")
    attempted = len(out["edge"]) + len(out["matching"]) + 1 + 2 * len(out["classified"])
    return attempted, failures


# ---------------------------------------------------------------------------
# small-exact: tiny counts, where per-call overhead dominates, and exact search


def small_setup(rng, scale, workdir):
    sc = SCALES["small"][scale]
    graphs = []
    for _ in range(sc["graphs"]):
        n = int(rng.integers(4, sc["max_n"] + 1))
        mask = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.9), 1)
        graphs.append(c4lab.from_edges(n, np.argwhere(mask)))
    return {"graphs": graphs, "turan": sc["turan"], "h": sc["h"]}


def small_run(inp, latencies):
    counts = [_timed(latencies, c4lab.count_c4, g) for g in inp["graphs"]]
    turan = {n: c4lab.turan_bruteforce(n).ex_value for n in inp["turan"]}
    h = {nt: c4lab.h_bruteforce(*nt) for nt in inp["h"]}
    return {"counts": counts, "turan": turan, "h": h}


def small_check(inp, out, wl):
    failures = []
    # every pass and every repeated set-up counts the same graphs: brute-force them once
    if "oracle" not in wl.memo:
        wl.memo["oracle"] = [c4lab.count_c4_bruteforce(g) for g in inp["graphs"]]
    for i, (fast, brute) in enumerate(zip(out["counts"], wl.memo["oracle"])):
        if fast != brute:
            failures.append(f"graph {i} (n={inp['graphs'][i].n}): count_c4 {fast} != brute force {brute}")
    for n, value in out["turan"].items():
        if value != EXPECTED_EX[n]:
            failures.append(f"ex({n}, C4) = {value}, expected {EXPECTED_EX[n]}")
    for nt, value in out["h"].items():
        if value != EXPECTED_H[nt]:
            failures.append(f"h{nt} = {value}, expected {EXPECTED_H[nt]}")
    return len(out["counts"]) + len(out["turan"]) + len(out["h"]), failures


# ---------------------------------------------------------------------------
# workloads: one full segment plus the others at smoke scale

SEGMENTS = {
    "construct": (construct_setup, construct_run, construct_check),
    "perturb": (perturb_setup, perturb_run, perturb_check),
    "small": (small_setup, small_run, small_check),
}

WORKLOADS = {
    "construct-certify": "construct",
    "perturb-recount": "perturb",
    "small-exact": "small",
}


class Workload:
    """One workload's segments at their scales, for one seed."""

    def __init__(self, name: str, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.workdir = workdir
        main = WORKLOADS[name]
        self.scales = {
            seg: "full" if seg == main and not smoke else "smoke" for seg in SEGMENTS
        }
        self.main = main
        self.inputs: dict = {}
        self.memo: dict = {}

    def setup(self) -> None:
        self.inputs = {}
        for i, (seg, (setup, _, _)) in enumerate(SEGMENTS.items()):
            rng = np.random.default_rng([self.seed, i])
            self.inputs[seg] = setup(rng, self.scales[seg], self.workdir)

    def run(self, latencies: list) -> dict:
        """One timed pass; latencies of the main segment's op stream are appended."""
        return {
            seg: run(self.inputs[seg], latencies if seg == self.main else None)
            for seg, (_, run, _) in SEGMENTS.items()
        }

    def check(self, out: dict) -> tuple[int, list[str]]:
        attempted, failures = 0, []
        for seg, (_, _, check) in SEGMENTS.items():
            a, f = check(self.inputs[seg], out[seg], self)
            attempted += a
            failures += f
        return attempted, failures
