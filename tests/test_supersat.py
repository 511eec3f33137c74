"""Supersaturation experiments: exact matching counts, randomized additions,
the unconditional halfway bound, and perturbation audits."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import c4lab.graph
import c4lab.polarity
import c4lab.supersat
from c4lab.acceptance import _nonedge_pairs
from c4lab.cli import cli_dispatch
from c4lab.graph import (
    _c4_through_edge,
    _edge_codes,
    _pair_codes,
    c4_through_edge,
    count_c4,
    count_c4_bruteforce,
    from_edges,
)
from c4lab.plane import _ranges
from c4lab.polarity import PolarityGraph
from c4lab.supersat import (
    ExperimentReport,
    _bernoulli_additions,
    _cycle_partition,
    _rng,
    add_edge_experiment,
    classify_perturbation,
    er_graph,
    halfway_bound_check,
    matching_experiment,
    random_supersat,
    upper_count_audit,
)


def nonedges(pg, rng, k):
    """k distinct non-adjacent pairs of pg, seeded."""
    n = pg.n
    out = []
    seen = set()
    while len(out) < k:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        u, v = min(u, v), max(u, v)
        if (u, v) in seen or pg.graph.has_edge(u, v):
            continue
        seen.add((u, v))
        out.append((u, v))
    return out


def cycle_usage_oracle(g, added) -> Counter:
    """Cycles through the added edges, by how many added edges each uses.

    The frozenset bookkeeping that the multiplicity count replaced.
    """
    canon = lambda a, b: (a, b) if a < b else (b, a)  # noqa: E731
    added_set = {canon(*e) for e in added}
    seen = set()
    for u, v in sorted(added_set):
        for a, b, x, y in c4_through_edge(g, u, v)[1]:
            seen.add(frozenset([canon(a, b), canon(b, x), canon(x, y), canon(y, a)]))
    return Counter(len(cyc & added_set) for cyc in seen)


def gather_partition(g, added, drop=None):
    """(C0, C1) from one gather of the cycles through every distinct added edge.

    The batched np.isin lister that the per-edge _cycle_partition replaced;
    ``drop`` leaves out the edge at that position in the order of the edge codes.
    """
    added = np.asarray(added, dtype=np.int64).reshape(-1, 2)
    codes, first = np.unique(_edge_codes(g.n, added), return_index=True)
    edges = np.delete(added[first], [] if drop is None else [drop], axis=0)
    u, v = edges[:, 0], edges[:, 1]
    deg, n = g.degrees(), g.n
    # x runs over N(v) - u, y over N(x) - v; the cycle closes when y is in N(u)
    at_v = np.repeat(np.arange(len(edges)), deg[v])
    x = g.indices[_ranges(g.indptr[v], deg[v])]
    is_u = x == u[at_v]
    at_v, x = at_v[~is_u], x[~is_u]
    at_x = np.repeat(np.arange(len(x)), deg[x])
    y = g.indices[_ranges(g.indptr[x], deg[x])]
    owner = at_v[at_x]
    at_u = np.repeat(np.arange(len(edges)), deg[u])
    closes = (y != v[owner]) & np.isin(
        owner * n + y, at_u * n + g.indices[_ranges(g.indptr[u], deg[u])]
    )
    owner, x, y = owner[closes], x[at_x[closes]], y[closes]
    listed = _pair_codes(n, np.column_stack([v[owner], x, y]), np.column_stack([x, y, u[owner]]))
    listings = np.bincount(1 + np.isin(listed, codes).sum(axis=1), minlength=5)
    if np.any(listings[2:] % np.arange(2, 5)):
        raise AssertionError(f"cycle listings {listings[2:]} not multiples of 2, 3, 4")
    return int(listings[1]), int(np.sum(listings[2:] // np.arange(2, 5)))


def dropping(codes_of_dropped):
    """A _c4_through_edge that lists nothing for the edges with the given codes."""

    def listing(g, u, v):
        x, y = _c4_through_edge(g, u, v)
        if _edge_codes(g.n, [(u, v)])[0] in codes_of_dropped:
            return x[:0], y[:0]
        return x, y

    return listing


def outcome(fn, *args):
    try:
        return fn(*args)
    except AssertionError as exc:
        return str(exc)


def star_perturbation(pg, rng):
    """Every non-edge among a vertex w, two neighbours of w and two other vertices.

    Added cycles then use two (w-a-x-b-w), three (w-a-x-y-w) and four
    (a-x-b-y-a) added edges.
    """
    g = pg.graph
    w = int(rng.integers(g.n))
    nbrs = rng.choice(g.neighbors(w), 2, replace=False).tolist()
    others = np.setdiff1d(np.arange(g.n), np.append(g.neighbors(w), w))
    s = [w] + nbrs + rng.choice(others, 2, replace=False).tolist()
    return [(a, b) for i, a in enumerate(s) for b in s[i + 1 :] if not g.has_edge(a, b)]


@pytest.mark.parametrize("q", [4, 8, 16])
def test_cycle_partition_matches_cycle_sets(q):
    pg = er_graph(q)
    rng = np.random.default_rng(40 + q)
    usage = Counter()
    for _ in range(6):
        added = star_perturbation(pg, rng) + nonedges(pg, rng, 3)
        added = list(dict.fromkeys(added))
        g2 = pg.graph.add_edges(added)
        expected = cycle_usage_oracle(g2, added)
        c0, c1 = _cycle_partition(g2, added)
        assert (c0, c1) == (expected[1], sum(expected.values()) - expected[1])
        assert c0 + c1 == count_c4(g2)
        usage += expected
    assert {2, 3, 4} <= set(usage)


def test_cycle_partition_rejects_a_missing_listing(monkeypatch):
    # one 4-cycle a-b-c-d-a through two added edges, ab and cd
    pg = er_graph(8)
    g = pg.graph
    a, d = (int(x) for x in g.edges()[0])
    b, c = next(
        (int(b), int(c))
        for b, c in g.edges()[1:]
        if len({a, b, c, d}) == 4 and not g.has_edge(a, b) and not g.has_edge(c, d)
    )
    added = [(a, b), (c, d)]
    g2 = g.add_edges(added)
    assert cycle_usage_oracle(g2, added)[2] == 1
    # listing the cycle from ab alone leaves one listing for a two-edge cycle
    monkeypatch.setattr(c4lab.supersat, "_c4_through_edge", dropping(_edge_codes(g.n, [(c, d)])))
    with pytest.raises(AssertionError, match="not multiples"):
        _cycle_partition(g2, added)


@pytest.mark.parametrize("q", [4, 8, 16, 32, 64])
def test_cycle_partition_matches_the_per_edge_loop(monkeypatch, q):
    # the per-edge _cycle_partition against the batched gather, with and
    # without one edge's listings; the last case adds 30 random non-edges
    pg = er_graph(q)
    rng = np.random.default_rng(70 + q)
    cases = [star_perturbation(pg, rng) + nonedges(pg, rng, 4) for _ in range(4)]
    for added in cases + [nonedges(pg, np.random.default_rng(5), 30)]:
        added = list(dict.fromkeys(added))
        g2 = pg.graph.add_edges(added)
        assert _cycle_partition(g2, added) == gather_partition(g2, added)
        # the same verdict when one edge's listings go missing
        codes = np.unique(_edge_codes(g2.n, added))
        drop = int(rng.integers(len(codes)))
        with monkeypatch.context() as m:
            m.setattr(c4lab.supersat, "_c4_through_edge", dropping(codes[drop : drop + 1]))
            assert outcome(_cycle_partition, g2, added) == outcome(
                gather_partition, g2, added, drop
            )


def test_cycle_partition_rejects_an_absent_edge():
    pg = er_graph(4)
    u, v = nonedges(pg, np.random.default_rng(0), 1)[0]
    with pytest.raises(ValueError, match=f"\\({u}, {v}\\) is not an edge"):
        _cycle_partition(pg.graph, [(u, v)])


@pytest.mark.parametrize("seed", range(12))
def test_perturbed_count_identity_on_graphs_with_cycles(seed):
    # C4(G - R + A) = C4(G) - (cycles of G through R) + (cycles of G - R + A through A)
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(8, 33))
    p = (0.15, 0.3, 0.5)[seed % 3]
    g = from_edges(n, np.argwhere(np.triu(rng.random((n, n)) < p, 1)))
    pg = PolarityGraph(0, g, np.zeros(0, dtype=np.int64), 0, 0, None)
    edges = g.edges()
    removed = edges[rng.choice(len(edges), size=min(len(edges), 3), replace=False)]
    added = nonedges(pg, rng, 4)
    g2 = g.remove_edges(removed).add_edges(added)
    count = classify_perturbation(pg, added, removed).measured["count"]
    assert count_c4(g) > 0
    assert count == count_c4(g2) == count_c4_bruteforce(g2)


def test_partition_check_survives_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import c4lab.supersat as s; s.count_c4 = lambda g: -1; pg = s.er_graph(4); "
        "a = pg.absolute_points; s.upper_count_audit(pg, [(int(a[0]), int(a[1]))])"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode != 0
    assert "AssertionError: cycle partition" in result.stderr


def test_cached_er_graph_arrays_are_read_only():
    pg = er_graph(4)
    plane = pg.polarity.plane
    for arr in (
        pg.graph.indptr,
        pg.graph.indices,
        pg.absolute_points,
        pg.polarity.sigma,
        plane.line_ptr,
        plane.line_idx,
    ):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


class TestExperimentReport:
    def test_json_roundtrip_ignores_timing(self):
        r = matching_experiment(8, 2)
        back = ExperimentReport.from_json(r.to_json())
        assert back.same_results(r)
        back.wall_time = 99.0
        assert back.same_results(r)  # timing never participates

    def test_passed_reflects_verdicts(self):
        r = matching_experiment(8, 2)
        assert r.passed()
        r.verdicts["count_equals_t_times_q_minus_1"] = False
        assert not r.passed()

    def test_csv_shape(self):
        r = matching_experiment(8, 1)
        header = r.csv_header().split(",")
        assert header[0] == "experiment"
        assert "params.q" in header and "measured.count" in header
        # quoted cells keep the row aligned with the header
        row = r.csv_row()
        assert row.count(",") >= len(header) - 1


class TestAddEdge:
    def test_both_degree_q(self):
        pg = er_graph(8)
        a = pg.absolute_points
        r = add_edge_experiment(pg, int(a[0]), int(a[1]))
        assert r.measured["count"] == 7
        assert r.passed()

    def test_mixed_degrees_excludes_low_branch(self):
        pg = er_graph(8)
        degs = pg.graph.degrees()
        u = int(pg.absolute_points[0])
        v = next(
            int(x) for x in np.flatnonzero(degs == 9) if not pg.graph.has_edge(u, int(x))
        )
        r = add_edge_experiment(pg, u, v)
        assert r.measured["count"] in (8, 9)
        assert r.passed()

    def test_existing_edge_rejected(self):
        pg = er_graph(4)
        u, v = pg.graph.edges()[0]
        with pytest.raises(ValueError, match="already an edge"):
            add_edge_experiment(pg, int(u), int(v))

    def test_shared_edge_fails_the_sharing_verdict(self):
        for n, base in (
            # the cycles 0-1-2-3 and 0-1-2-4 through the new edge 01 share the edge 12;
            # the base's own cycle 0-3-2-4-0 does not pass through uv
            (5, [(1, 2), (2, 3), (3, 0), (2, 4), (4, 0)]),
            # K4 minus 01: the cycles 0-1-2-3 and 0-1-3-2 share the chord 23 though
            # their x and their y differ; the base's own cycle is 0-2-1-3-0
            (4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        ):
            pg = PolarityGraph(2, from_edges(n, base), np.zeros(0, dtype=np.int64), 0, 0, None)
            r = add_edge_experiment(pg, 0, 1)
            assert r.measured["count"] == 2
            assert not r.verdicts["cycles_pairwise_share_only_uv"]
            assert r.measured["total_c4"] == 3
            assert not r.verdicts["all_cycles_counted_through_uv"]

    @pytest.mark.parametrize("seed", range(4))
    def test_sharing_verdict_on_any_simple_base(self, seed):
        # true exactly when no two listed cycles share one of the edges vx, xy, yu
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(8, 13))
        g = from_edges(n, np.argwhere(np.triu(rng.random((n, n)) < 0.4, 1)))
        pg = PolarityGraph(2, g, np.zeros(0, dtype=np.int64), 0, 0, None)
        verdicts = Counter()
        for u in range(n):
            for v in range(n):
                if u == v or g.has_edge(u, v):
                    continue
                x, y = _c4_through_edge(g, u, v)
                used = [frozenset(e) for a, b in zip(x.tolist(), y.tolist())
                        for e in ((v, a), (a, b), (b, u))]
                disjoint = len(set(used)) == len(used)
                r = add_edge_experiment(pg, u, v)
                assert r.verdicts["cycles_pairwise_share_only_uv"] is disjoint
                verdicts[disjoint] += 1
        assert verdicts[True] and verdicts[False]

    def test_refusals_keep_their_messages_and_order(self):
        pg = er_graph(4)
        for a, b, message in (
            (3, 3, "loop at vertex 3 rejected"),
            (pg.n, 1, "edge endpoint out of range"),
            (1, -1, "edge endpoint out of range"),
            (pg.n, pg.n, "edge endpoint out of range"),  # the range before the loop
        ):
            with pytest.raises(ValueError, match=message):
                add_edge_experiment(pg, a, b)

    def test_base_is_scanned_once(self, monkeypatch):
        scans = []

        def counting(g):
            scans.append(g.m)
            return count_c4(g)

        monkeypatch.setattr(c4lab.polarity, "count_c4", counting)
        monkeypatch.setattr(c4lab.supersat, "count_c4", counting)
        er_graph.cache_clear()
        pg = er_graph(16)
        for u, v in nonedges(pg, np.random.default_rng(6), 200):
            assert add_edge_experiment(pg, u, v).passed()
        assert scans == [pg.graph.m]

    def test_total_equals_recount(self, monkeypatch):
        cases = []
        for q, pairs in (
            (4, _nonedge_pairs(er_graph(4).graph).tolist()),
            (8, nonedges(er_graph(8), np.random.default_rng(8), 200)),
        ):
            pg = er_graph(q)
            cases += [(pg, u, v, count_c4(pg.graph.add_edges([(u, v)]))) for u, v in pairs]

        def refuse(*args):
            raise AssertionError("add_edge_experiment built a graph")

        # the cycles that uv closes are listed on the base itself
        monkeypatch.setattr(c4lab.graph.Graph, "add_edges", refuse)
        monkeypatch.setattr(c4lab.supersat, "_cycle_partition", refuse)
        for pg, u, v, recount in cases:
            r = add_edge_experiment(pg, u, v)
            assert r.passed() and r.measured["total_c4"] == recount

    def test_exhaustive_q4(self):
        pg = er_graph(4)
        degs = pg.graph.degrees()
        for u in range(pg.n):
            for v in range(u + 1, pg.n):
                if pg.graph.has_edge(u, v):
                    continue
                r = add_edge_experiment(pg, u, v)
                assert r.passed(), (u, v, r.verdicts)
                expected_low = degs[u] == 4 and degs[v] == 4
                assert (r.measured["count"] == 3) == expected_low


class TestMatching:
    @pytest.mark.parametrize("q,t,expected", [(8, 3, 21), (16, 1, 15), (8, 0, 0)])
    def test_examples(self, q, t, expected):
        r = matching_experiment(q, t)
        assert r.measured["count"] == expected
        assert r.passed()

    @pytest.mark.parametrize("q", [2, 4, 8, 16])
    def test_exact_for_all_t(self, q):
        for t in range((q + 1) // 2 + 1):
            r = matching_experiment(q, t)
            assert r.measured["count"] == t * (q - 1), (q, t)
            assert r.passed()

    def test_q32_spot(self):
        for t in (1, 16):
            r = matching_experiment(32, t)
            assert r.measured["count"] == t * 31
            assert r.passed()

    @pytest.mark.slow
    @pytest.mark.parametrize("q", [64, 128])
    def test_exact_for_all_t_large(self, q):
        for t in range((q + 1) // 2 + 1):
            r = matching_experiment(q, t)
            assert r.measured["count"] == t * (q - 1), (q, t)
            assert r.passed()

    def test_seeded_selection(self):
        r0 = matching_experiment(8, 2, seed=0)
        r5a = matching_experiment(8, 2, seed=5)
        r5b = matching_experiment(8, 2, seed=5)
        assert r5a.measured["added"] == r5b.measured["added"]
        assert r0.measured["added"] != r5a.measured["added"]
        assert r5a.passed()

    def test_structure_verdicts_present(self):
        r = matching_experiment(8, 1)
        assert r.verdicts["degree_q_set_independent"]
        assert r.verdicts["matched_vertices_in_neighborhood_of_w"]
        assert r.verdicts["no_cycle_uses_two_added_edges"]
        assert r.verdicts["global_recount_matches"]

    def test_errors(self):
        with pytest.raises(ValueError, match="odd order"):
            matching_experiment(9, 1)
        with pytest.raises(ValueError, match="out of range"):
            matching_experiment(8, 5)  # 2t = 10 > q+1
        with pytest.raises(ValueError, match="out of range"):
            matching_experiment(8, -1)

    def test_t_out_of_range_is_rejected_before_the_graph_is_built(self, monkeypatch, capsys):
        def refuse(q):
            raise AssertionError("graph built")

        monkeypatch.setattr(c4lab.supersat, "er_graph", refuse)
        with pytest.raises(ValueError, match="t out of range"):
            matching_experiment(128, 99)
        assert cli_dispatch(["supersat", "matching", "--q", "128", "--t", "99"]) == 2
        assert "t out of range" in capsys.readouterr().err


class TestRandomSupersat:
    def test_reproducible_and_prefix(self):
        a = random_supersat(16, 5, 5, seed=42)
        b = random_supersat(16, 5, 5, seed=42)
        c = random_supersat(16, 5, 10, seed=42)
        assert a.same_results(b)
        assert c.measured["x_per_trial"][:5] == a.measured["x_per_trial"]

    def test_y_equals_recount_of_the_same_draws(self):
        r = random_supersat(16, 50, 5, seed=7)
        pg = er_graph(16)
        recounts = [
            count_c4(pg.graph.add_edges(_bernoulli_additions(pg, r.measured["alpha"], _rng(7, i))))
            for i in range(5)
        ]
        assert r.measured["y_per_trial"] == recounts

    def test_trivial_t0(self):
        r = random_supersat(4, 0, 3, seed=1)
        assert r.measured["x_per_trial"] == [0, 0, 0]
        assert r.measured["y_per_trial"] == [0, 0, 0]
        assert r.passed()

    def test_q16_bounds(self):
        r = random_supersat(16, 5, 20, seed=7)
        assert r.measured["fraction_x_ge_t"] >= 0.15
        assert r.verdicts["fraction_meets_floor"]
        assert r.verdicts["all_y_within_budget"]
        assert r.verdicts["min_qualifying_y_within_budget"]
        assert r.measured["nonadjacent_pairs"] == 16**3 * 17 // 2

    @pytest.mark.parametrize("floor", [float("nan"), float("inf"), -0.01, 1.01])
    def test_rejects_a_floor_outside_the_unit_interval(self, floor):
        with pytest.raises(ValueError, match=r"fraction_floor must be a finite number in \[0, 1\]"):
            random_supersat(4, 1, 2, seed=1, fraction_floor=floor)
        assert random_supersat(4, 1, 2, seed=1, fraction_floor=1.0).bounds["tested_fraction_floor"] == 1.0

    def test_mean_x_tracks_binomial(self):
        r = random_supersat(64, 100, 5, seed=11, count_cycles=False)
        n_pairs = r.measured["nonadjacent_pairs"]
        alpha = r.measured["alpha"]
        sigma = (n_pairs * alpha * (1 - alpha)) ** 0.5
        assert abs(r.measured["x_mean"] - 200) <= 5 * sigma / 5**0.5
        assert r.measured["y_per_trial"] == [None] * 5
        assert "all_y_within_budget" not in r.verdicts

    @pytest.mark.parametrize("q", [4, 8, 16])
    def test_block_draws_match_per_row_draws(self, monkeypatch, q):
        def per_row(pg, alpha, rng):
            # the reference: one Generator.random call per row
            g = pg.graph
            row = np.zeros(g.n, dtype=bool)
            added = []
            for u in range(g.n - 1):
                row[:] = False
                row[g.neighbors(u)] = True
                cand = np.flatnonzero(~row[u + 1 :]) + u + 1
                added += [(u, h) for h in cand[rng.random(len(cand)) < alpha].tolist()]
            return added

        pg = er_graph(q)
        n_pairs = pg.n * (pg.n - 1) // 2 - pg.graph.m
        # about 20 hits per trial
        alpha = 40 / (pg.n * (pg.n - 1) - 2 * pg.graph.m)
        for block in (c4lab.supersat._DRAW_BLOCK, 7):
            monkeypatch.setattr(c4lab.supersat, "_DRAW_BLOCK", block)
            for seed in range(4):
                expected = per_row(pg, alpha, _rng(seed, 1))
                assert expected
                assert _bernoulli_additions(pg, alpha, _rng(seed, 1)) == expected
            for seed in range(2):
                # the least draw of the trial is a dyadic alpha that no draw is below;
                # the next double up takes that one draw, the next one down none
                least = float(_rng(seed, 1).random(n_pairs).min())
                cases = {1.0: n_pairs, 2.0**-53: 0, least: 0}
                cases[np.nextafter(least, 1.0)] = 1
                cases[np.nextafter(least, 0.0)] = 0
                for a, hits in cases.items():
                    expected = per_row(pg, a, _rng(seed, 1))
                    assert len(expected) == hits
                    assert _bernoulli_additions(pg, a, _rng(seed, 1)) == expected

    def test_errors(self):
        with pytest.raises(ValueError, match="exceeds"):
            random_supersat(2, 7, 1, seed=0)  # 28 > 2^3*3 = 24
        with pytest.raises(ValueError, match="trials"):
            random_supersat(4, 1, 0, seed=0)


class TestHalfwayBound:
    def test_spec_scale_example(self):
        pg = er_graph(4)
        rng = np.random.default_rng(3)
        g2 = pg.graph.add_edges(nonedges(pg, rng, 10))
        r = halfway_bound_check(g2, 4)
        assert r.measured["t"] == 10
        assert r.bounds["bound_times_4"] == 2 * 10 * 4 - 5 * 4 - 2 * 10
        assert r.bounds["bound"] == 10.0
        assert r.measured["count"] >= 10
        assert r.passed()

    def test_trivial_small_t(self):
        pg = er_graph(4)
        rng = np.random.default_rng(4)
        g2 = pg.graph.add_edges(nonedges(pg, rng, 1))
        r = halfway_bound_check(g2, 4)
        assert r.bounds["bound_times_4"] < 0  # vacuous bound still holds
        assert r.passed()

    @pytest.mark.parametrize("seed", range(6))
    def test_fuzz_q4(self, seed):
        pg = er_graph(4)
        rng = np.random.default_rng(100 + seed)
        t = int(rng.integers(3, 30))
        g2 = pg.graph.add_edges(nonedges(pg, rng, t))
        assert halfway_bound_check(g2, 4).passed()

    def test_errors(self):
        pg = er_graph(4)
        with pytest.raises(ValueError, match="odd order"):
            halfway_bound_check(pg.graph, 5)
        with pytest.raises(ValueError, match="wrong vertex count"):
            halfway_bound_check(pg.graph, 8)
        with pytest.raises(ValueError, match="below the threshold"):
            halfway_bound_check(pg.graph, 4)  # t = 0


class TestClassifyPerturbation:
    def test_s1_required(self):
        pg = er_graph(16)
        a = pg.absolute_points
        r = classify_perturbation(pg, add=[(int(a[0]), int(a[1]))], remove=[])
        assert r.measured["count"] == 15
        assert (r.bounds["low"], r.bounds["high"]) == (15, 17)
        assert r.measured["verdict_kind"] == "required"
        assert r.verdicts == {"in_range": True}

    def test_s2_informative(self):
        pg = er_graph(16)
        a = pg.absolute_points
        drop = tuple(int(x) for x in pg.graph.edges()[40])
        r = classify_perturbation(
            pg,
            add=[(int(a[0]), int(a[1])), (int(a[2]), int(a[3]))],
            remove=[drop],
        )
        assert (r.bounds["low"], r.bounds["high"]) == (28, 36)
        assert r.measured["verdict_kind"] == "informative"
        assert r.verdicts == {}  # reported, not gated
        assert isinstance(r.measured["in_range"], bool)

    @pytest.mark.parametrize("q", [8, 16])
    def test_count_equals_recount(self, q):
        pg = er_graph(q)
        rng = np.random.default_rng(30 + q)
        edges = pg.graph.edges()
        for i in range(20):
            add = nonedges(pg, rng, 1 + i % 4)
            remove = [tuple(map(int, e)) for e in edges[rng.choice(len(edges), i % 4, replace=False)]]
            r = classify_perturbation(pg, add, remove)
            assert r.measured["count"] == count_c4(pg.graph.remove_edges(remove).add_edges(add))

    def test_repeated_edges_rejected(self):
        pg = er_graph(4)
        assert pg.graph.has_edge(0, 1) and not pg.graph.has_edge(0, 2)
        with pytest.raises(ValueError, match="listed twice in add"):
            classify_perturbation(pg, add=[(0, 2), (0, 2)], remove=[(0, 1)])
        with pytest.raises(ValueError, match="listed twice in add"):
            classify_perturbation(pg, add=[(0, 2), (2, 0)], remove=[(0, 1)])
        gaps = nonedges(pg, np.random.default_rng(1), 3)
        with pytest.raises(ValueError, match="listed twice in remove"):
            classify_perturbation(pg, add=gaps, remove=[(0, 1), (1, 0)])

    def test_fractional_vertex_refused(self):
        # a fractional endpoint used to be truncated: (0.5, 2) was read as (0, 2)
        pg = er_graph(4)
        assert pg.graph.has_edge(0, 1) and not pg.graph.has_edge(0, 2)
        with pytest.raises(ValueError, match="vertex 0.5 is not an integer"):
            classify_perturbation(pg, add=[(0.5, 2)], remove=[])
        gaps = nonedges(pg, np.random.default_rng(1), 2)
        with pytest.raises(ValueError, match="vertex 1.5 is not an integer"):
            classify_perturbation(pg, add=gaps, remove=[(0, 1.5)])

    def test_errors(self):
        pg = er_graph(4)
        e = tuple(int(x) for x in pg.graph.edges()[0])
        rng = np.random.default_rng(0)
        gaps = nonedges(pg, rng, 3)
        with pytest.raises(ValueError, match="one more added"):
            classify_perturbation(pg, add=[], remove=[])
        with pytest.raises(ValueError, match="already present"):
            classify_perturbation(pg, add=[e], remove=[])
        with pytest.raises(ValueError, match="not present"):
            classify_perturbation(pg, add=gaps[:2], remove=[gaps[2]])
        # an edge listed both as added and as removed is refused either way
        with pytest.raises(ValueError, match="already present"):
            classify_perturbation(pg, add=[e, gaps[0]], remove=[e])
        with pytest.raises(ValueError, match="not present"):
            classify_perturbation(pg, add=gaps[:2], remove=[gaps[0]])


class TestUpperCountAudit:
    def test_single_edge(self):
        pg = er_graph(8)
        a = pg.absolute_points
        out = upper_count_audit(pg, [(int(a[0]), int(a[1]))])
        assert out["C1"] == 0
        assert out["C0"] <= 9
        assert out["bound_ok"]

    def test_matching_is_pure_c0(self):
        pg = er_graph(8)
        a = pg.absolute_points
        add = [(int(a[2 * i]), int(a[2 * i + 1])) for i in range(3)]
        out = upper_count_audit(pg, add)
        assert out["C0"] == 3 * 7 and out["C1"] == 0
        assert out["total"] == 21

    @pytest.mark.parametrize("seed", range(4))
    def test_random_adds_within_budget(self, seed):
        pg = er_graph(8)
        rng = np.random.default_rng(seed)
        add = nonedges(pg, rng, 3)
        out = upper_count_audit(pg, add)
        assert out["C0"] <= 27 and out["C1"] <= 6
        assert out["bound_ok"]
        # partition completeness against the global count
        assert out["total"] == count_c4(pg.graph.add_edges(add))

    def test_repeated_edge_refused(self):
        # listed twice, one non-edge would be audited against twice its budget
        pg = er_graph(4)
        assert upper_count_audit(pg, [(0, 2)])["s"] == 1
        for add in ([(0, 2), (0, 2)], [(0, 2), (2, 0)]):
            with pytest.raises(ValueError, match="an edge is listed twice in add"):
                upper_count_audit(pg, add)

    def test_empty_add(self):
        out = upper_count_audit(er_graph(4), [])
        assert out == {
            "s": 0, "C0": 0, "C1": 0, "bound_c0": 0, "bound_c1": 0,
            "bound_ok": True, "total": 0,
        }

    def test_total_is_the_partition_above_the_recount_limit(self, monkeypatch):
        pg = er_graph(8)
        add = nonedges(pg, np.random.default_rng(4), 5)
        expected = upper_count_audit(pg, add)

        def refuse(g):
            raise AssertionError("recounted above RECOUNT_MAX_Q")

        monkeypatch.setattr(c4lab.supersat, "RECOUNT_MAX_Q", 0)
        monkeypatch.setattr(c4lab.supersat, "count_c4", refuse)
        out = upper_count_audit(pg, add)
        assert out == expected and out["total"] == out["C0"] + out["C1"]

    def test_cap(self):
        pg = er_graph(16)
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="64"):
            upper_count_audit(pg, nonedges(pg, rng, 65))
