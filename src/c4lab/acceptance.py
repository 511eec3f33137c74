"""Release gate: twelve checks covering plane axioms, polarity-graph
exactness, cycle-count oracles, supersaturation bounds, and the exact
arithmetic chain. Each criterion is a standalone function returning
(ok, detail); run_all wraps them with timing and exception capture."""

import time
from dataclasses import dataclass

import numpy as np

from .extremal import furedi_value, reiman_bound, turan_bruteforce, turan_lower_bound
from .field import spec_for_order
from .graph import (
    Graph,
    claim_c4_inequality,
    convexity_bound,
    count_c4,
    count_c4_bruteforce,
    from_edges,
    graph_stats,
    neighborhood_family,
)
from .plane import (
    IncidenceStructure,
    bruck_ryser_excluded,
    build_pg2,
    extend_one_intersecting,
    verify_projective_plane,
)
from .polarity import degree_q_independence, special_vertex_w
from .supersat import (
    add_edge_experiment,
    er_graph,
    halfway_bound_check,
    matching_experiment,
    random_supersat,
)

SEED = 20260815


@dataclass
class CriterionResult:
    number: int
    title: str
    ok: bool
    detail: str
    wall_time: float

    def line(self) -> str:
        tag = "PASS" if self.ok else "FAIL"
        return f"criterion {self.number:2d} [{tag}] {self.title}: {self.detail}"


def _nonedge_pairs(g: Graph) -> np.ndarray:
    """All non-adjacent (u, v) with u < v, lexicographic. Dense; small n only."""
    adj = np.zeros((g.n, g.n), dtype=bool)
    rows = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees())
    adj[rows, g.indices] = True
    us, vs = np.triu_indices(g.n, 1)
    keep = ~adj[us, vs]
    return np.column_stack([us[keep], vs[keep]])


# ---------------------------------------------------------------------------
# criteria


def plane_axioms(full: bool = False) -> tuple[bool, str]:
    orders = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 64]
    if full:
        orders += [49, 81, 121, 128]
    start = time.monotonic()
    for q in orders:
        v = verify_projective_plane(build_pg2(spec_for_order(q)))
        if not (v.ok and v.order == q):
            return False, f"order {q} rejected: {v.detail}"
    elapsed = time.monotonic() - start
    budget_ok = full or elapsed < 60
    return budget_ok, f"{len(orders)} orders verified in {elapsed:.1f}s (budget 60s)"


def er_graph_exactness(full: bool = False) -> tuple[bool, str]:
    orders = [2, 4, 8, 16, 32, 64, 128]
    if full:
        orders += [256]
    start = time.monotonic()
    for q in orders:
        pg = er_graph(q)
        degs = pg.graph.degrees()
        checks = [
            ("vertices", pg.n == q * q + q + 1),
            ("edges", pg.graph.m == q * (q + 1) ** 2 // 2),
            ("c4_count", count_c4(pg.graph) == 0),
            ("degree_q_count", int(np.sum(degs == q)) == q + 1),
            ("independence", degree_q_independence(pg.graph, q)[0]),
        ]
        w = special_vertex_w(pg)  # raises if missing or ambiguous
        checks.append(
            ("w_neighborhood",
             np.array_equal(np.sort(pg.graph.neighbors(w)), np.flatnonzero(degs == q)))
        )
        bad = [name for name, ok in checks if not ok]
        if bad:
            return False, f"q={q} failed {bad}"
    elapsed = time.monotonic() - start
    budget_ok = full or elapsed < 300
    return budget_ok, f"q up to {orders[-1]} exact in {elapsed:.1f}s (budget 300s)"


def single_edge_census(full: bool = False) -> tuple[bool, str]:
    """Every non-edge at q = 4 and 8, 10 000 sampled at q = 16.

    The reports take total_c4 from the cached base count; every 10th pair is
    recounted globally and must agree.
    """
    rng = np.random.default_rng(SEED)
    total = 0
    for q in (4, 8, 16):
        pg = er_graph(q)
        pairs = _nonedge_pairs(pg.graph)
        if q == 16:
            pairs = pairs[rng.choice(len(pairs), size=10_000, replace=False)]
        for u, v in pairs.tolist():
            r = add_edge_experiment(pg, u, v)
            if not r.passed():
                return False, f"q={q} uv=({u},{v}) verdicts {r.verdicts}"
            if total % 10 == 0:
                recount = count_c4(pg.graph.add_edges([(u, v)]))
                if recount != r.measured["total_c4"]:
                    return False, (
                        f"q={q} uv=({u},{v}) recount {recount} "
                        f"!= total_c4 {r.measured['total_c4']}"
                    )
            total += 1
    return True, f"{total} single-edge additions, zero violations"


def matching_counts(full: bool = False) -> tuple[bool, str]:
    total = 0
    for q in (8, 16, 64):
        for t in range(1, min(8, (q + 1) // 2) + 1):
            r = matching_experiment(q, t)
            if r.measured["count"] != t * (q - 1) or not r.passed():
                return False, (
                    f"q={q} t={t}: count {r.measured['count']} != {t * (q - 1)} "
                    f"or verdicts {r.verdicts}"
                )
            total += 1
    return True, f"{total} (q, t) pairs, all counts exactly t(q-1)"


def unconditional_supersaturation(full: bool = False) -> tuple[bool, str]:
    checked = 0
    for q in (4, 16):
        pg = er_graph(q)
        n = pg.n
        base_m = pg.graph.m
        pairs = _nonedge_pairs(pg.graph)
        us, vs = np.triu_indices(n, 1)
        rng = np.random.default_rng(SEED + q)
        for i in range(200):
            t = int(rng.integers(3, 51))
            if i % 2 == 0:
                pick = rng.choice(len(pairs), size=t, replace=False)
                g2 = pg.graph.add_edges(pairs[pick])
            else:
                pick = rng.choice(len(us), size=base_m + t, replace=False)
                g2 = from_edges(n, np.column_stack([us[pick], vs[pick]]))
            if not halfway_bound_check(g2, q).passed():
                kind = "perturbed" if i % 2 == 0 else "random"
                return False, f"q={q} t={t} ({kind}): count below (tq-2.5q-t)/2"
            checked += 1
    return True, f"{checked} instances (added-edge and uniform-random), zero violations"


def random_addition_bounds(full: bool = False) -> tuple[bool, str]:
    start = time.monotonic()
    fracs = []
    for t in (5, 50):
        r = random_supersat(16, t, 50, seed=SEED)
        if not r.verdicts["fraction_meets_floor"]:
            return False, f"t={t}: fraction {r.measured['fraction_x_ge_t']} < 0.15"
        if not r.verdicts["all_y_within_budget"]:
            return False, f"t={t}: some trial exceeds the cycle budget"
        fracs.append(r.measured["fraction_x_ge_t"])
    elapsed = time.monotonic() - start
    return elapsed < 120, (
        f"fractions {fracs} >= 0.15, all cycle counts within budget, "
        f"{elapsed:.1f}s (budget 120s)"
    )


def counting_oracle(full: bool = False) -> tuple[bool, str]:
    rng = np.random.default_rng(SEED)
    densities = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    for i in range(1000):
        n = int(rng.integers(4, 33))
        p = densities[i % len(densities)]
        mask = np.triu(rng.random((n, n)) < p, 1)
        g = from_edges(n, np.argwhere(mask))
        fast, brute = count_c4(g), count_c4_bruteforce(g)
        if fast != brute:
            return False, f"instance {i} (n={n}, p={p}): {fast} != {brute}"
    return True, "1000 random graphs, fast count == brute force"


def counting_identities(full: bool = False) -> tuple[bool, str]:
    rng = np.random.default_rng(SEED)
    qs = [2, 3, 4, 5, 7, 8, 9]
    for i in range(200):
        pg = er_graph(qs[i % len(qs)])
        edges = pg.graph.edges()
        keep = rng.random(len(edges)) < 0.1 + 0.9 * rng.random()
        g = from_edges(pg.n, edges[keep])
        st = graph_stats(g, pg.q)
        if st.p2 + st.up != g.n * (g.n - 1) // 2:
            return False, f"pair identity failed on C4-free instance {i}"
    for i in range(500):
        n = int(rng.integers(4, 41))
        mask = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.6), 1)
        g = from_edges(n, np.argwhere(mask))
        a = np.flatnonzero(rng.random(n) < rng.random())
        if not claim_c4_inequality(g, a)["holds"]:
            return False, f"cycle inequality failed on sample {i} (n={n}, |A|={len(a)})"
    for i in range(100_000):
        m = int(rng.integers(1, 9))
        k = int(rng.integers(1, 8))
        r = int(rng.integers(-m, 6))
        a = rng.integers(0, 2 * k + 3, size=m)
        short = k * m + r - int(a.sum())
        if short > 0:
            a[int(rng.integers(m))] += short
        if not convexity_bound(a.tolist(), k, r)["holds"]:
            return False, f"convexity bound failed: a={a.tolist()} k={k} r={r}"
    return True, "200 pair identities, 500 cycle inequalities, 10^5 convexity bounds"


def turan_desk_values(full: bool = False) -> tuple[bool, str]:
    expected = {4: 4, 5: 6, 6: 7, 7: 9, 8: 11, 9: 13, 13: 24}
    start = time.monotonic()
    for n, want in expected.items():
        rec = turan_bruteforce(n)
        if rec.ex_value != want:
            return False, f"n={n}: got {rec.ex_value}, expected {want}"
        if rec.ex_value > reiman_bound(n):
            return False, f"n={n}: value exceeds the degree-bound ceiling"
    for q in (2, 3):
        if expected[q * q + q + 1] != furedi_value(q).value:
            return False, f"n={q * q + q + 1} disagrees with the exact prime-power formula"
    elapsed = time.monotonic() - start
    return elapsed < 300, f"n=4..9 and 13 values frozen, {elapsed:.1f}s (budget 300s)"


def order_exclusion(full: bool = False) -> tuple[bool, str]:
    excluded = [6, 14, 21, 22]
    allowed = [2, 3, 4, 5, 7, 8, 9, 10, 12, 16]
    for q in excluded:
        if not bruck_ryser_excluded(q):
            return False, f"order {q} should be excluded"
    for q in allowed:
        if bruck_ryser_excluded(q):
            return False, f"order {q} should not be excluded"
    return True, f"{len(excluded)} excluded, {len(allowed)} admitted, all exact"


def neighborhood_diagnostic(full: bool = False) -> tuple[bool, str]:
    rng = np.random.default_rng(SEED)
    sizes = []
    for q in (8, 16):
        pg = er_graph(q)
        nf = neighborhood_family(pg.graph, q, delta=0.25)
        if not nf.one_intersecting:
            return False, f"q={q}: family not 1-intersecting at {nf.witness}"
        if nf.size < q * q - 1:
            return False, f"q={q}: family size {nf.size} < {q * q - 1}"
        k = int(rng.integers(1, 4))
        drop = pg.graph.edges()[rng.choice(pg.graph.m, size=k, replace=False)]
        nf2 = neighborhood_family(pg.graph.remove_edges(drop), q, delta=0.25)
        if not nf2.one_intersecting:
            return False, f"q={q} minus {k} edges: not 1-intersecting at {nf2.witness}"
        # removals only shrink A when B is unchanged; see the decisions ledger
        if set(nf2.b.tolist()) <= set(nf.b.tolist()) and nf2.size < q * q - 1 - 2 * k:
            return False, f"q={q} minus {k} edges: size {nf2.size} dropped too far"
        sizes.append((q, nf.size, k, nf2.size))
    fano = build_pg2(spec_for_order(2))
    partial = IncidenceStructure(7, [fano.line(i) for i in range(1, 7)])
    extended, _ = extend_one_intersecting(partial, [fano.line(0)])
    if extended.line_set() != fano.line_set():
        return False, "seven-point plane not reconstructed from six lines"
    return True, f"families (q, size, removed, size') = {sizes}; plane reconstructed"


def prime_window_chain(full: bool = False) -> tuple[bool, str]:
    expected_p = {10**4: 97, 10**6: 997, 10**8: 9973}
    for n, want in expected_p.items():
        d = turan_lower_bound(n)
        if d["p"] != want:
            return False, f"n={n}: prime {d['p']} != {want}"
        if not d["p_lower_ok"]:
            return False, f"n={n}: prime misses the window floor"
        if not d["chain_holds"]:
            return False, f"n={n}: bound falls below the exact target formula"
    return True, "n in {10^4, 10^6, 10^8}: window primes and exact chain verified"


CRITERIA: list[tuple[int, str, object]] = [
    (1, "projective plane axioms", plane_axioms),
    (2, "polarity graph exactness", er_graph_exactness),
    (3, "single-edge cycle census", single_edge_census),
    (4, "matching construction counts", matching_counts),
    (5, "unconditional supersaturation", unconditional_supersaturation),
    (6, "random addition bounds", random_addition_bounds),
    (7, "counting oracle agreement", counting_oracle),
    (8, "counting identities", counting_identities),
    (9, "small-n extremal values", turan_desk_values),
    (10, "plane order exclusion", order_exclusion),
    (11, "neighborhood family diagnostic", neighborhood_diagnostic),
    (12, "prime window chain", prime_window_chain),
]


def run_criterion(number: int, full: bool = False) -> CriterionResult:
    for num, title, fn in CRITERIA:
        if num == number:
            start = time.monotonic()
            try:
                ok, detail = fn(full=full)
            except Exception as exc:  # noqa: BLE001 - the gate must not abort
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            return CriterionResult(num, title, ok, detail, time.monotonic() - start)
    raise ValueError(f"no criterion numbered {number}")


def run_all(full: bool = False) -> list[CriterionResult]:
    return [run_criterion(num, full=full) for num, _, _ in CRITERIA]
