"""Supersaturation experiments on polarity graphs.

Single-edge and matching additions, the randomized sparse-perturbation
construction, the unconditional halfway lower bound, and the perturbation
classifier.  Every experiment returns a self-contained report that can be
re-run from its parameters and seed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, replace
from functools import lru_cache

import numpy as np

from c4lab.field import spec_for_order
from c4lab.graph import Graph, _c4_through_edge, _edge_codes, _pair_codes, count_c4
from c4lab.polarity import (
    PolarityGraph,
    degree_q_independence,
    orthogonal_polarity,
    polarity_graph,
    special_vertex_w,
)

RECOUNT_MAX_Q = 64  # above this the global recount is skipped (route is exact)
_DRAW_BLOCK = 1 << 19  # raw draws per random_raw call: 4 MB of words


@dataclass
class ExperimentReport:
    """Named experiment with parameters, measurements, bounds, and verdicts."""

    experiment: str
    params: dict
    measured: dict
    bounds: dict
    verdicts: dict
    wall_time: float = 0.0

    def passed(self) -> bool:
        return all(bool(v) for v in self.verdicts.values())

    def same_results(self, other: "ExperimentReport") -> bool:
        """Equality of everything except the timing."""
        return replace(self, wall_time=0.0) == replace(other, wall_time=0.0)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ExperimentReport":
        d = json.loads(text)
        return ExperimentReport(
            experiment=d["experiment"],
            params=d["params"],
            measured=d["measured"],
            bounds=d["bounds"],
            verdicts=d["verdicts"],
            wall_time=d.get("wall_time", 0.0),
        )

    def _flat(self) -> list[tuple[str, object]]:
        out: list[tuple[str, object]] = [("experiment", self.experiment)]
        for group, data in (
            ("params", self.params),
            ("measured", self.measured),
            ("bounds", self.bounds),
            ("verdicts", self.verdicts),
        ):
            for k in sorted(data):
                out.append((f"{group}.{k}", data[k]))
        return out

    def csv_header(self) -> str:
        return ",".join(k for k, _ in self._flat())

    def csv_row(self) -> str:
        cells = []
        for _, v in self._flat():
            text = json.dumps(v) if isinstance(v, (list, dict)) else str(v)
            cells.append('"' + text.replace('"', '""') + '"' if "," in text else text)
        return ",".join(cells)


@lru_cache(maxsize=8)
def er_graph(q: int) -> PolarityGraph:
    """Cached orthogonal polarity graph of order q.

    Every caller shares the result; ``polarity_graph`` already made the graph
    read-only, and the polarity and plane arrays are frozen here.
    """
    pg = polarity_graph(orthogonal_polarity(spec_for_order(q)))
    plane = pg.polarity.plane
    for arr in (pg.polarity.sigma, plane.line_ptr, plane.line_idx):
        arr.flags.writeable = False
    return pg


def _rng(seed: int, trial: int) -> np.random.Generator:
    # counter-based generator: (seed, trial) fully determines the stream
    return np.random.Generator(np.random.Philox(key=[seed, trial]))


def _cycle_partition(g: Graph, added) -> tuple[int, int]:
    """(C0, C1): 4-cycles of g through the added edges, split by usage.

    C0 counts cycles using exactly one added edge, C1 the rest.  When the
    base graph was C4-free this is a partition of ALL 4-cycles of g.  Each
    distinct added edge uv, in code order, lists its paths v-x-y-u with
    _c4_through_edge, so a cycle using j added edges is listed once from each
    of them, and the listings that use j added edges number j times the cycles.
    """
    added = np.asarray(added, dtype=np.int64).reshape(-1, 2)
    codes, first = np.unique(_edge_codes(g.n, added), return_index=True)
    paths = [np.zeros((0, 4), dtype=np.int64)]
    for u, v in added[first].tolist():
        if not g.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge")
        x, y = _c4_through_edge(g, u, v)
        paths.append(np.column_stack([np.full_like(x, v), x, y, np.full_like(y, u)]))
    path = np.concatenate(paths)
    # the codes of each listing's edges vx, xy and yu
    listed = _pair_codes(g.n, path[:, :3], path[:, 1:])
    listings = np.bincount(1 + np.isin(listed, codes).sum(axis=1), minlength=5)
    if np.any(listings[2:] % np.arange(2, 5)):
        raise AssertionError(f"cycle listings {listings[2:]} not multiples of 2, 3, 4")
    return int(listings[1]), int(np.sum(listings[2:] // np.arange(2, 5)))


def add_edge_experiment(pg: PolarityGraph, u: int, v: int) -> ExperimentReport:
    """Add one non-edge to a polarity graph and audit the created 4-cycles.

    Checks the count lies in {q-1, q, q+1}, equals q-1 exactly when both
    endpoints have degree q, and that the cycles pairwise share only uv.
    total_c4 is the base's cached count plus the listed cycles, so it equals
    the count exactly when the base has no 4-cycle.
    """
    t0 = time.perf_counter()
    q, g = pg.q, pg.graph
    if g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is already an edge")
    if u == v:
        raise ValueError(f"loop at vertex {int(u)} rejected")
    # the cycles that uv closes are the paths v-x-y-u, which already lie in g
    x, y = _c4_through_edge(g, u, v)
    # their edges vx, xy and yu are of three kinds that never meet (x is not u, y is
    # not v, and g has no loops), so the cycles share only uv when the x, the y and
    # the xy codes are each distinct; x ascends, and the xy codes + n lie above every y
    keys = np.concatenate([y, _pair_codes(g.n, x, y) + g.n])
    keys.sort()
    count = len(x)
    deg_u, deg_v = int(g.indptr[u + 1] - g.indptr[u]), int(g.indptr[v + 1] - g.indptr[v])
    total = pg.c4_count + count  # every listed cycle passes through uv once
    verdicts = {
        "count_in_range": count in (q - 1, q, q + 1),
        "q_minus_1_iff_both_degree_q": (count == q - 1)
        == (deg_u == q and deg_v == q),
        "cycles_pairwise_share_only_uv": not (
            (x[1:] == x[:-1]).any() or (keys[1:] == keys[:-1]).any()
        ),
        "all_cycles_counted_through_uv": total == count,
    }
    return ExperimentReport(
        experiment="add_edge",
        params={"q": q, "u": int(u), "v": int(v)},
        measured={"count": count, "deg_u": deg_u, "deg_v": deg_v, "total_c4": total},
        bounds={"allowed_counts": [q - 1, q, q + 1]},
        verdicts=verdicts,
        wall_time=time.perf_counter() - t0,
    )


def matching_experiment(q: int, t: int, seed: int = 0) -> ExperimentReport:
    """Add a t-edge matching among degree-q vertices; the C4 count is t(q-1).

    With seed=0 the matched vertices are the lowest-index degree-q vertices,
    so the headline check is deterministic; other seeds shuffle the choice.
    """
    t0 = time.perf_counter()
    if q % 2:
        raise ValueError("odd order")
    if not 0 <= 2 * t <= q + 1:
        raise ValueError(f"t out of range: need 0 <= t <= {(q + 1) // 2}")
    pg = er_graph(q)
    independent, _ = degree_q_independence(pg)
    w = special_vertex_w(pg)
    absolute = pg.absolute_points
    if seed == 0:
        chosen = absolute[: 2 * t]
    else:
        order = _rng(seed, 0).permutation(len(absolute))
        chosen = absolute[order[: 2 * t]]
    in_nw = bool(np.isin(chosen, pg.graph.neighbors(w)).all())
    added = [
        [int(chosen[2 * i]), int(chosen[2 * i + 1])] for i in range(t)
    ]
    g2 = pg.graph.add_edges(added)
    c0, c1 = _cycle_partition(g2, added)
    count = c0 + c1
    verdicts = {
        "degree_q_set_independent": independent,
        "matched_vertices_in_neighborhood_of_w": in_nw,
        "count_equals_t_times_q_minus_1": count == t * (q - 1),
        "no_cycle_uses_two_added_edges": c1 == 0,
    }
    if q <= RECOUNT_MAX_Q:
        verdicts["global_recount_matches"] = count_c4(g2) == count
    return ExperimentReport(
        experiment="matching",
        params={"q": q, "t": t, "seed": seed},
        measured={"count": count, "c0": c0, "c1": c1, "added": added, "w": w},
        bounds={"expected": t * (q - 1)},
        verdicts=verdicts,
        wall_time=time.perf_counter() - t0,
    )


def _bernoulli_additions(
    pg: PolarityGraph, alpha: float, rng: np.random.Generator
) -> list[tuple[int, int]]:
    """One draw per non-adjacent pair in lexicographic order; hits are added.

    A draw is a hit when ``rng.random() < alpha``.  Philox's double is
    (raw >> 11) * 2**-53 for its next raw 64-bit word, so the words are read
    instead and a hit is raw >> 11 < T = ceil(alpha * 2**53), in exact
    integers.  T is capped at 2**53, which every raw >> 11 is below, so
    alpha >= 1 hits every time.  The words are taken _DRAW_BLOCK at a time:
    the generator yields the same stream however the calls split it, so the
    block edges need not fall between rows.
    """
    g = pg.graph
    n = g.n
    rows = np.repeat(np.arange(n), g.degrees())
    # the candidates of row u are the vertices h > u that are not its neighbours
    n_cand = np.arange(n - 1, -1, -1) - np.bincount(rows[g.indices > rows], minlength=n)
    start = np.concatenate([[0], np.cumsum(n_cand)])
    threshold = min(math.ceil(alpha * 2**53), 2**53)
    added = []
    for lo in range(0, int(start[-1]), _DRAW_BLOCK):
        draws = rng.bit_generator.random_raw(min(_DRAW_BLOCK, int(start[-1]) - lo))
        draws >>= 11
        for k in (lo + np.flatnonzero(draws < threshold)).tolist():
            u = int(np.searchsorted(start, k, side="right")) - 1
            r = k - int(start[u])
            # nb[i] - u - 1 - i candidates lie between u and nb[i], so the r-th
            # candidate lies beyond the neighbours with at most r below them
            nb = g.neighbors(u)
            nb = nb[nb > u]
            skipped = np.searchsorted(nb - u - 1 - np.arange(len(nb)), r, side="right")
            added.append((u, u + 1 + r + int(skipped)))
    return added


def random_supersat(
    q: int,
    t: int,
    trials: int,
    seed: int,
    count_cycles: bool = True,
    fraction_floor: float = 0.15,
) -> ExperimentReport:
    """Bernoulli(alpha) edge additions to the ER graph, alpha = 4t/(q^3(q+1)).

    Per trial: X = number of added edges, Y = resulting C4 count, the base's
    cached count plus the cycles through the added edges.  Reports
    the fraction of trials with X >= t (the proof guarantees 0.22 per trial;
    fraction_floor leaves slack for sampling noise) and checks Y against the
    explicit budget 500(tq + t^4/q^8), decided in exact integers.
    """
    t0 = time.perf_counter()
    cap = q**3 * (q + 1)
    if 4 * t > cap:
        raise ValueError(f"4t = {4 * t} exceeds q^3(q+1) = {cap}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not 0 <= fraction_floor <= 1:
        raise ValueError(f"fraction_floor must be a finite number in [0, 1], not {fraction_floor}")
    pg = er_graph(q)
    alpha = 4 * t / cap
    n_pairs = pg.n * (pg.n - 1) // 2 - pg.graph.m
    xs: list[int] = []
    ys: list[int | None] = []
    for trial in range(trials):
        rng = _rng(seed, trial)
        added = _bernoulli_additions(pg, alpha, rng)
        xs.append(len(added))
        if count_cycles:
            g2 = pg.graph.add_edges(added)
            ys.append(pg.c4_count + sum(_cycle_partition(g2, added)))
        else:
            ys.append(None)
    frac = sum(1 for x in xs if x >= t) / trials
    measured = {
        "x_per_trial": xs,
        "y_per_trial": ys,
        "x_mean": sum(xs) / trials,
        "fraction_x_ge_t": frac,
        "nonadjacent_pairs": n_pairs,
        "alpha": alpha,
    }
    bounds = {
        "expected_x": 2 * t,
        "proof_probability_floor": 0.22,
        "tested_fraction_floor": fraction_floor,
        # y bound 500(tq + t^4/q^8), kept as the exact integer pair
        "y_budget_times_q8": 500 * (t * q**9 + t**4),
        "q8": q**8,
    }
    verdicts: dict = {"fraction_meets_floor": frac >= fraction_floor}
    if count_cycles:
        good_ys = [y for x, y in zip(xs, ys) if x >= t]
        verdicts["all_y_within_budget"] = all(
            y * q**8 <= 500 * (t * q**9 + t**4) for y in ys
        )
        verdicts["min_qualifying_y_within_budget"] = (not good_ys) or min(
            good_ys
        ) * q**8 <= 500 * (t * q**9 + t**4)
    return ExperimentReport(
        experiment="random_supersat",
        params={"q": q, "t": t, "trials": trials, "seed": seed},
        measured=measured,
        bounds=bounds,
        verdicts=verdicts,
        wall_time=time.perf_counter() - t0,
    )


def halfway_bound_check(g: Graph, q: int) -> ExperimentReport:
    """The unconditional lower bound #C4 >= (tq - 2.5q - t)/2 for even q.

    t is recovered from the edge count; the comparison is exact:
    4*#C4 >= 2tq - 5q - 2t.
    """
    t0 = time.perf_counter()
    if q % 2:
        raise ValueError("odd order")
    n = q * q + q + 1
    if g.n != n:
        raise ValueError(f"wrong vertex count: {g.n} != {n}")
    base = q * (q + 1) ** 2 // 2
    t = g.m - base
    if t < 1:
        raise ValueError(f"edge count {g.m} is below the threshold {base + 1}")
    count = count_c4(g)
    rhs4 = 2 * t * q - 5 * q - 2 * t  # 4 times the bound
    return ExperimentReport(
        experiment="halfway_bound",
        params={"q": q, "n": g.n, "edges": g.m},
        measured={"t": t, "count": count},
        bounds={"bound_times_4": rhs4, "bound": rhs4 / 4},
        verdicts={"count_meets_bound": 4 * count >= rhs4},
        wall_time=time.perf_counter() - t0,
    )


def classify_perturbation(pg: PolarityGraph, add, remove) -> ExperimentReport:
    """Perturb a polarity graph by +s/-(s-1) edges and test sq-s^2 <= #C4 <= sq+s^2.

    Only s=1 is a hard requirement (it is the single-edge lemma); for s >= 2
    the range needs q much larger than s, so the verdict is informative.  The
    count is the base's cached count, less the cycles through the removed
    edges, plus the cycles through the added ones.  An edge listed twice in
    add or in remove, or with an endpoint that is not an integer, is refused.
    """
    t0 = time.perf_counter()
    n = pg.graph.n
    add, remove = ([list(divmod(c, n)) for c in _edge_codes(n, e).tolist()] for e in (add, remove))
    if len(add) != len(remove) + 1:
        raise ValueError("need exactly one more added edge than removed")
    for name, edges in (("add", add), ("remove", remove)):
        if len({tuple(e) for e in edges}) < len(edges):
            raise ValueError(f"an edge is listed twice in {name}")
    # both lists are checked against pg itself, so an edge listed in both is refused
    pg.graph._locate(add, present=False)
    g2 = pg.graph.remove_edges(remove).add_edges(add)
    lost = sum(_cycle_partition(pg.graph, remove))
    count = pg.c4_count - lost + sum(_cycle_partition(g2, add))
    q = pg.q
    s = len(add)
    lo, hi = s * q - s * s, s * q + s * s
    in_range = lo <= count <= hi
    kind = "required" if s == 1 else "informative"
    return ExperimentReport(
        experiment="classify_perturbation",
        params={"q": q, "add": add, "remove": remove},
        measured={"s": s, "count": count, "in_range": in_range, "verdict_kind": kind},
        bounds={"low": lo, "high": hi},
        # only s=1 is guaranteed at every order; larger s is reported, not gated
        verdicts={"in_range": in_range} if s == 1 else {},
        wall_time=time.perf_counter() - t0,
    )


def upper_count_audit(pg: PolarityGraph, add) -> dict:
    """Partition the cycles of pg + add by added-edge usage and check budgets.

    C0 = cycles through exactly one added edge (at most s(q+1)); C1 = the
    rest (at most 2*C(s,2)).  The partition total is cross-checked against a
    global count.  An edge listed twice in add, in either orientation, is
    refused, since it would double the budgets for the same cycles.
    """
    s = len(add)
    if s > 64:
        raise ValueError("at most 64 added edges are supported")
    q = pg.q
    if len(np.unique(_edge_codes(pg.graph.n, add))) < s:
        raise ValueError("an edge is listed twice in add")
    g2 = pg.graph.add_edges(add)
    c0, c1 = _cycle_partition(g2, add)
    bound_c0 = s * (q + 1)
    bound_c1 = s * (s - 1)  # 2 * C(s, 2)
    out = {
        "s": s,
        "C0": c0,
        "C1": c1,
        "bound_c0": bound_c0,
        "bound_c1": bound_c1,
        "bound_ok": c0 <= bound_c0 and c1 <= bound_c1,
    }
    if q <= RECOUNT_MAX_Q:
        total = count_c4(g2)
        if c0 + c1 != total:
            raise AssertionError(f"cycle partition {c0} + {c1} misses cycles of {total}")
        out["total"] = total
    else:
        out["total"] = c0 + c1
    return out
