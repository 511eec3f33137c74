"""Graph construction, four-cycle counting (both routes), and pair statistics."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import c4lab.graph
import c4lab.plane
from c4lab.field import spec_for_order
from c4lab.plane import (
    IncidenceStructure,
    _codegree_blocks,
    _listing,
    build_pg2,
    is_one_intersecting,
    verify_projective_plane,
)
from c4lab.supersat import er_graph
from c4lab.graph import (
    MAX_BRUTEFORCE_N,
    MAX_COUNT_N,
    Graph,
    _c4_through_edge,
    _quadruples,
    c4_through_edge,
    claim_c4_inequality,
    codegree,
    convexity_bound,
    count_c4,
    count_c4_bruteforce,
    from_edges,
    graph_stats,
    is_c4_free,
    neighborhood_family,
    read_edge_list,
    write_edge_list,
)


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))  # outer cycle
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))  # spokes
    return from_edges(10, edges)


def k(n: int) -> Graph:
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return from_edges(n, edges)


def run_python(*args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports c4lab from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_loads_no_scipy():
    result = run_python(
        "-c",
        "import sys, c4lab; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_scans_do_not_depend_on_block_size(monkeypatch):
    g = random_graph(30, 0.3, 5)
    plane = build_pg2(spec_for_order(4))
    # a foreign fifth-order line: some pairs now meet twice, some not at all
    family = IncidenceStructure(21, plane.lines()[1:] + [[0, 1, 2, 3, 4]])
    # lines 0 and 9 trade points 1 and 0: sizes and degrees stay 5, but line 0
    # now meets line 1 in points 0 and 5
    swapped = plane.lines()
    swapped[0], swapped[9] = [0, 5, 9, 13, 17], [1, 9, 10, 11, 12]

    def scans():
        stats = graph_stats(g, 3)
        return (
            count_c4(g),
            is_c4_free(g),
            (stats.p2, stats.up),
            claim_c4_inequality(g, range(0, 30, 2)),
            is_one_intersecting(family),
            is_one_intersecting(family.dual()),
            verify_projective_plane(IncidenceStructure(21, swapped)).witness,
        )

    expected = scans()
    assert expected[4][0] is False and expected[5][0] is False
    assert expected[6] == (0, 1, 2)
    # blocks of one or two rows
    monkeypatch.setattr(c4lab.plane, "_BLOCK_SIZE", 40)
    assert scans() == expected
    # every block counted by sorting, then every block by a dense bincount
    for ratio in (10**9, 0):
        monkeypatch.setattr(c4lab.plane, "_SPARSE_RATIO", ratio)
        assert scans() == expected


def dense_codegrees(g: Graph) -> np.ndarray:
    adj = np.zeros((g.n, g.n), dtype=np.int64)
    e = g.edges()
    adj[e[:, 0], e[:, 1]] = adj[e[:, 1], e[:, 0]] = 1
    return adj @ adj


def perturbed_er_graph(q: int, seed: int) -> Graph:
    """er_graph(q) plus 3q seeded new edges, which make codegrees of 2 and 3."""
    g = er_graph(q).graph
    rng = np.random.default_rng(seed)
    pairs = np.unique(np.sort(rng.integers(0, g.n, size=(6 * q, 2)), axis=1), axis=0)
    pairs = [(u, v) for u, v in pairs.tolist() if u != v and not g.has_edge(u, v)]
    return g.add_edges(pairs[: 3 * q])


# 1 << 19 holds every input here in one block, and 40 splits it into many
@pytest.mark.parametrize("block,ratio", [(1 << 19, 0), (1 << 19, 10**9), (40, 0), (40, 10**9)])
def test_both_reductions_list_the_upper_codegrees(monkeypatch, block, ratio):
    monkeypatch.setattr(c4lab.plane, "_BLOCK_SIZE", block)
    monkeypatch.setattr(c4lab.plane, "_SPARSE_RATIO", ratio)
    g = perturbed_er_graph(4, 0)
    codeg = np.triu(dense_codegrees(g), 1)
    i_ref, x_ref = np.nonzero(codeg)
    listed = [
        _listing(lo, g.n, codes, c)
        for lo, _, codes, c, _ in _codegree_blocks(g.indptr, g.indices)
    ]
    if block == 40:
        assert len(listed) > 1
    i, x, c = (np.concatenate(part) for part in zip(*listed))
    assert i.tolist() == i_ref.tolist()
    assert x.tolist() == x_ref.tolist()
    assert c.tolist() == codeg[i_ref, x_ref].tolist()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_count_matches_dense_codegrees(monkeypatch, q):
    g = perturbed_er_graph(q, q)
    codeg = np.triu(dense_codegrees(g), 1)
    expected = int(np.sum(codeg * (codeg - 1) // 2)) // 2
    assert codeg.max() >= 2
    assert count_c4(g) == expected
    for ratio in (0, 10**9):
        monkeypatch.setattr(c4lab.plane, "_SPARSE_RATIO", ratio)
        assert count_c4(g) == expected


def test_counts_and_passing_audits_list_no_pairs(monkeypatch):
    def refuse(*args):
        raise AssertionError("pair listing requested")

    monkeypatch.setattr(c4lab.plane, "_listing", refuse)
    pg = er_graph(16)
    for ratio in (0, 10**9):
        monkeypatch.setattr(c4lab.plane, "_SPARSE_RATIO", ratio)
        assert count_c4(pg.graph) == 0 and is_c4_free(pg.graph)
        assert count_c4(perturbed_er_graph(16, 1)) > 0
        assert verify_projective_plane(pg.polarity.plane).ok
        stats = graph_stats(pg.graph, 16)
        assert (stats.p2, stats.up) == (36856, 272)
        assert claim_c4_inequality(pg.graph, range(0, pg.n, 2))["holds"]


def relabelled(g: Graph, perm: np.ndarray) -> Graph:
    """g with vertex v renamed perm[v]."""
    return from_edges(g.n, perm[g.edges()])


def invariants(g: Graph, q: int) -> tuple:
    stats = graph_stats(g, q)
    return (
        count_c4(g),
        is_c4_free(g),
        stats.degree_histogram,
        stats.p2,
        stats.up,
    )


@pytest.mark.parametrize("ratio", [0, 10**9])
def test_vertex_relabelling_keeps_counts_and_stats(monkeypatch, ratio):
    monkeypatch.setattr(c4lab.plane, "_SPARSE_RATIO", ratio)
    rng = np.random.default_rng(17)
    sizes = ((5, 0.6), (13, 0.4), (24, 0.25), (32, 0.5))
    graphs = [(random_graph(n, p, 900 + n), 3) for n, p in sizes]
    graphs += [(er_graph(4).graph, 4), (perturbed_er_graph(8, 3), 8)]
    assert count_c4(graphs[-1][0]) > 0
    for g, q in graphs:
        expected = invariants(g, q)
        for _ in range(3):
            perm = rng.permutation(g.n)
            h = relabelled(g, perm)
            assert invariants(h, q) == expected


# 1 << 19 holds every input here in one block, and 40 splits it into many
@pytest.mark.parametrize("block,ratio", [(1 << 19, 0), (1 << 19, 10**9), (40, 0), (40, 10**9)])
def test_least_vertex_count_is_half_the_full_scan(monkeypatch, block, ratio):
    # count_c4 takes each cycle once from its least vertex; the full scan sums
    # C(codegree, 2) over all pairs, which meets each cycle at both diagonals
    monkeypatch.setattr(c4lab.plane, "_BLOCK_SIZE", block)
    monkeypatch.setattr(c4lab.plane, "_SPARSE_RATIO", ratio)

    def full_scan(g):
        blocks = _codegree_blocks(g.indptr, g.indices)
        return sum(int(np.sum(c * (c - 1) // 2)) for *_, c, _ in blocks)

    rng = np.random.default_rng(23)
    sizes = ((6, 0.7), (45, 0.3), (120, 0.12), (300, 0.04))
    for n, p in sizes:
        g = random_graph(n, p, 700 + n)
        expected = full_scan(g)
        assert expected > 0 and 2 * count_c4(g) == expected
        for _ in range(3):
            h = relabelled(g, rng.permutation(n))
            assert 2 * count_c4(h) == full_scan(h) == expected


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 32])
def test_c4_free_exactly_when_the_count_is_zero(q):
    free, perturbed = er_graph(q).graph, perturbed_er_graph(q, q)
    assert is_c4_free(free) and count_c4(free) == 0
    assert is_c4_free(perturbed) == (count_c4(perturbed) == 0)


def test_sparse_graph_at_the_vertex_limit():
    n = MAX_COUNT_N
    # a 4-cycle and a pendant path on the highest vertices
    top = n - 1 - np.arange(6)
    cycle = [(top[0], top[1]), (top[1], top[2]), (top[2], top[3]), (top[3], top[0])]
    g = from_edges(n, cycle + [(top[3], top[4]), (top[4], top[5])])
    assert count_c4(g) == 1
    assert not is_c4_free(g)
    stats = graph_stats(g, 2)
    # degrees 2, 2, 2, 3, 2, 1
    assert stats.p2 == 1 + 1 + 1 + 3 + 1
    # covered pairs: the two diagonals (codegree 2), top[2]-top[4] and
    # top[0]-top[4] via top[3], top[3]-top[5] via top[4]
    assert stats.up == n * (n - 1) // 2 - 5
    # so few wedges need one block, not a dense scan of n^2 entries
    blocks = _codegree_blocks(g.indptr, g.indices)
    assert len(list(blocks)) == 1


# ---------------------------------------------------------------------------
# construction


class TestFromEdges:
    def test_deduplicates_and_sorts(self):
        g = from_edges(4, [(1, 0), (0, 1), (2, 3), (3, 2), (0, 1)])
        assert g.m == 2
        assert g.edges().tolist() == [[0, 1], [2, 3]]
        assert g.neighbors(0).tolist() == [1]
        assert g.neighbors(3).tolist() == [2]

    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            from_edges(3, [(0, 1), (2, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edges(3, [(0, 3)])
        with pytest.raises(ValueError, match="out of range"):
            from_edges(3, [(-1, 2)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            from_edges(-1, [])
        assert from_edges(0, []).indptr.tolist() == [0]

    def test_rejects_fractional_vertices(self):
        with pytest.raises(ValueError, match=r"^vertex 0\.5 is not an integer$"):
            from_edges(4, [(0.5, 1.7), (2, 3.9)])
        for bad in (np.array([[0.0, 2.5]]), np.array([[1, np.nan]]), np.array([[0, np.inf]])):
            with pytest.raises(ValueError, match="is not an integer"):
                from_edges(4, bad)

    @pytest.mark.parametrize("dtype", [
        np.int8, np.int32, np.int64, np.uint8, np.uint64, np.float32, np.float64,
    ])
    def test_accepts_integer_values_of_any_numeric_dtype(self, dtype):
        edges = np.array([(1, 0), (2, 3)], dtype=dtype)
        assert same_csr(from_edges(4, edges), from_edges(4, [(0, 1), (2, 3)]))
        assert same_csr(from_edges(4, [(1.0, 0), (2, 3.0)]), from_edges(4, edges))

    def test_empty_graph(self):
        g = from_edges(5, [])
        assert g.m == 0
        assert g.degrees().tolist() == [0] * 5
        assert count_c4(g) == 0

    def test_neighbor_rows_sorted(self):
        g = from_edges(6, [(3, 5), (3, 0), (3, 4), (3, 1)])
        assert g.neighbors(3).tolist() == [0, 1, 4, 5]

    def test_has_edge(self):
        g = petersen()
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    @pytest.mark.parametrize("accessor, index", [
        ("neighbors", -3), ("neighbors", 7), ("line", -2), ("line", 7),
        ("point_lines", -2), ("point_lines", 7),
    ])
    def test_row_accessors_reject_out_of_range(self, accessor, index):
        # the q = 2 polarity graph and PG(2, 2) have 7 rows each; a negative
        # index must not read another row from the end of the CSR
        from c4lab.polarity import orthogonal_polarity, polarity_graph

        pi = orthogonal_polarity(spec_for_order(2))
        owner = polarity_graph(pi).graph if accessor == "neighbors" else pi.plane
        with pytest.raises(ValueError, match="out of range"):
            getattr(owner, accessor)(index)

    def test_add_and_remove_edges(self):
        g = petersen()
        g2 = g.add_edges([(0, 2)])
        assert g2.m == 16 and g2.has_edge(0, 2)
        assert not g.has_edge(0, 2)  # original untouched
        g3 = g2.remove_edges([(0, 2)])
        assert g3.edges().tolist() == g.edges().tolist()
        with pytest.raises(ValueError, match="already present"):
            g.add_edges([(0, 1)])
        with pytest.raises(ValueError, match="not present"):
            g.remove_edges([(0, 2)])


def same_csr(a: Graph, b: Graph) -> bool:
    return (
        a.n == b.n
        and (a.indptr.dtype, a.indices.dtype) == (b.indptr.dtype, b.indices.dtype)
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
    )


class TestMutation:
    @pytest.mark.parametrize("seed", range(8))
    def test_add_matches_rebuild_and_remove_undoes_it(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(4, 40))
        g = random_graph(n, float(rng.uniform(0.05, 0.7)), seed)
        gaps = np.argwhere(np.triu(~dense_adj(g), 1))
        new = gaps[rng.choice(len(gaps), size=min(len(gaps), 10), replace=False)]
        flip = rng.random(len(new)) < 0.5
        new[flip] = new[flip, ::-1]  # either orientation
        grown = g.add_edges(new)
        assert same_csr(grown, from_edges(n, np.vstack([g.edges(), new])))
        assert same_csr(grown.remove_edges(new), g)
        assert same_csr(g.add_edges([]), g) and same_csr(g.remove_edges([]), g)
        for u, v in new.tolist():
            g_e = g.add_edges([(u, v)])
            assert count_c4(g_e) - count_c4(g) == c4_through_edge(g_e, u, v)[0]

    def test_errors_name_the_first_offending_edge(self):
        g = petersen()
        # repeats and both orientations of one edge are one edge
        assert same_csr(g.add_edges([(2, 0), (0, 2), (0, 2)]), g.add_edges([(0, 2)]))
        assert same_csr(g.remove_edges([(1, 0), (0, 1)]), g.remove_edges([(0, 1)]))
        # the first in input order, not in code order
        with pytest.raises(ValueError, match=r"^edge \(1, 2\) already present$"):
            g.add_edges([(0, 2), (2, 1), (4, 0)])
        with pytest.raises(ValueError, match=r"^edge \(1, 3\) not present$"):
            g.remove_edges([(0, 1), (3, 1), (2, 0)])
        with pytest.raises(ValueError, match="loop"):
            g.add_edges([(0, 2), (3, 3)])
        with pytest.raises(ValueError, match="out of range"):
            g.remove_edges([(0, 10)])

    def test_fractional_vertices_are_rejected(self):
        g = petersen()
        with pytest.raises(ValueError, match=r"^vertex 2\.5 is not an integer$"):
            g.add_edges([(0, 2.5)])
        with pytest.raises(ValueError, match=r"^vertex 0\.5 is not an integer$"):
            g.remove_edges(np.array([[0.5, 1.0]]))
        assert same_csr(g.add_edges([(0.0, 2.0)]), g.add_edges([(0, 2)]))
        assert same_csr(g.remove_edges(np.array([[1.0, 0.0]])), g.remove_edges([(0, 1)]))


# ---------------------------------------------------------------------------
# codegree and counting


class TestCodegree:
    def test_known_values(self):
        g = petersen()
        assert codegree(g, 0, 1) == 0  # adjacent, girth 5
        assert codegree(g, 0, 2) == 1  # distance 2
        gk = k(5)
        assert codegree(gk, 0, 1) == 3

    def test_rejects_equal_vertices(self):
        with pytest.raises(ValueError, match="distinct"):
            codegree(petersen(), 3, 3)

    def test_rejects_vertices_outside_the_graph(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert codegree(g, 3, 1) == 2
        # -1 must not wrap to vertex 3, and 4 must not reach past the CSR
        for u, v in [(-1, 1), (4, 1), (1, -1), (1, 4)]:
            with pytest.raises(ValueError, match="out of range"):
                codegree(g, u, v)


KNOWN_COUNTS = [
    # (builder, expected number of 4-cycles)
    (lambda: from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 1),
    (lambda: k(4), 3),
    (lambda: k(5), 15),  # C(5,4) quadruples, 3 cycles each
    (lambda: k(6), 45),
    (petersen, 0),
    # complete bipartite 3+3: choose 2 on each side
    (lambda: from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)]), 9),
]


def complete_bipartite(side: list[int], other: list[int]) -> Graph:
    return from_edges(len(side) + len(other), [(a, b) for a in side for b in other])


class TestCountC4:
    @pytest.mark.parametrize("builder,expected", KNOWN_COUNTS)
    def test_known_graphs(self, builder, expected):
        g = builder()
        assert count_c4(g) == expected
        assert count_c4_bruteforce(g) == expected

    @pytest.mark.parametrize("builder,expected", [
        (lambda: k(70), 3 * math.comb(70, 4)),
        (lambda: k(80), 3 * math.comb(80, 4)),
        # the sides as two ranges, then interleaved
        (lambda: complete_bipartite(list(range(30)), list(range(30, 71))),
         math.comb(30, 2) * math.comb(41, 2)),
        (lambda: complete_bipartite(list(range(0, 75, 3)), [v for v in range(75) if v % 3]),
         math.comb(25, 2) * math.comb(50, 2)),
        (lambda: complete_bipartite(list(range(2, 90, 11)), [v for v in range(90) if v % 11 != 2]),
         math.comb(8, 2) * math.comb(82, 2)),
    ])
    def test_closed_forms_above_the_bruteforce_cap(self, builder, expected):
        g = builder()
        assert g.n > MAX_BRUTEFORCE_N
        assert count_c4(g) == expected
        assert not is_c4_free(g)

    @pytest.mark.parametrize("n,p,seed", [
        (8, 0.3, 1), (8, 0.7, 2), (12, 0.2, 3), (12, 0.5, 4),
        (16, 0.15, 5), (16, 0.4, 6), (20, 0.3, 7), (24, 0.25, 8),
        (24, 0.6, 9), (32, 0.2, 10),
    ])
    def test_fast_route_matches_bruteforce(self, n, p, seed):
        g = random_graph(n, p, seed)
        assert count_c4(g) == count_c4_bruteforce(g)

    def test_is_c4_free(self):
        assert is_c4_free(petersen())
        assert not is_c4_free(k(4))
        assert is_c4_free(from_edges(3, [(0, 1), (1, 2), (0, 2)]))  # triangle

    def test_bruteforce_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            count_c4_bruteforce(from_edges(65, []))

    def test_bruteforce_quadruples_are_cached_read_only(self):
        quads = _quadruples(MAX_BRUTEFORCE_N)
        assert _quadruples(MAX_BRUTEFORCE_N) is quads
        assert quads.dtype == np.uint8 and not quads.flags.writeable
        assert quads.shape == (math.comb(MAX_BRUTEFORCE_N, 4), 4)
        assert quads[-1].tolist() == [60, 61, 62, 63]
        assert _quadruples(6).tolist() == [list(c) for c in itertools.combinations(range(6), 4)]

    def test_fast_route_vertex_limit(self):
        with pytest.raises(ValueError, match="certified"):
            count_c4(from_edges((1 << 17) + 1, []))

    def test_parity_invariant_survives_optimize(self):
        # hand-built asymmetric CSRs: 0, 1 -> {2, 3} with rows 2, 3 empty, whose
        # columns 2, 3 hold entries that their rows lack, and the directed
        # 3-cycle 0 -> 1 -> 2 -> 0, whose column counts equal its row degrees
        for ptr, idx, message in (
            ([0, 2, 4, 4, 4], [2, 3, 2, 3], "column counts differ from row degrees"),
            ([0, 1, 2, 3], [1, 2, 0], "entry (0, 1) has no mirror"),
        ):
            result = run_python(
                "-O",
                "-c",
                "import numpy as np; from c4lab.graph import Graph, count_c4; "
                f"count_c4(Graph({len(ptr) - 1}, np.array({ptr}), np.array({idx})))",
            )
            assert result.returncode != 0
            assert f"AssertionError: {message}: the CSR is not symmetric" in result.stderr

    @pytest.mark.parametrize("block", [c4lab.plane._BLOCK_SIZE, 40], ids=["default", "40"])
    def test_asymmetric_csrs_are_refused(self, monkeypatch, block):
        # differential against the dense check a == a.T: loop-free sorted CSRs,
        # half of them symmetrised, and the directed 3-cycle
        monkeypatch.setattr(c4lab.plane, "_BLOCK_SIZE", block)
        rng = np.random.default_rng(29)
        mats = [np.roll(np.eye(3, dtype=bool), 1, axis=1)]
        for _ in range(600):
            n = int(rng.integers(3, 9))
            a = rng.random((n, n)) < 0.4
            np.fill_diagonal(a, False)
            mats.append(a | a.T if rng.random() < 0.5 else a)
        refused = 0
        for a in mats:
            g = Graph(len(a), np.concatenate([[0], np.cumsum(a.sum(axis=1))]),
                      np.nonzero(a)[1].astype(np.int32))
            if np.array_equal(a, a.T):
                assert count_c4(g) == count_c4_bruteforce(g)
                continue
            refused += 1
            with pytest.raises(AssertionError, match="the CSR is not symmetric"):
                count_c4(g)
            with pytest.raises(AssertionError, match="the CSR is not symmetric"):
                is_c4_free(g)
        assert refused > 250

    def test_is_c4_free_checks_every_block_before_it_answers(self):
        # K4 on 0..3, whose first block already has a codegree of 2, then the
        # directed 3-cycle 4 -> 5 -> 6 -> 4, whose column counts equal its row
        # degrees; one wedge per block puts the cycle in later blocks
        graph = (
            "Graph(7, np.array([0, 3, 6, 9, 12, 13, 14, 15]), "
            "np.array([1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2, 5, 6, 4]))"
        )
        for flags in ([], ["-O"]):
            result = run_python(
                *flags,
                "-c",
                "import numpy as np; import c4lab.plane; "
                "from c4lab.graph import Graph, count_c4, is_c4_free; "
                f"c4lab.plane._BLOCK_SIZE = 1; g = {graph}\n"
                "for check in (count_c4, is_c4_free):\n"
                "    try:\n"
                "        check(g)\n"
                "    except AssertionError as err:\n"
                "        print(check.__name__, err)",
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout.splitlines() == [
                f"{name} entry (4, 5) has no mirror: the CSR is not symmetric"
                for name in ("count_c4", "is_c4_free")
            ]

    def test_fast_route_degree_limit(self):
        hub = (1 << 10) + 1
        g = from_edges(hub + 1, [(hub, i) for i in range(hub)])
        with pytest.raises(ValueError, match="degree"):
            count_c4(g)


class TestC4ThroughEdge:
    def test_k4_edge(self):
        count, cycles = c4_through_edge(k(4), 0, 1)
        assert count == 2
        assert cycles is not None and len(cycles) == 2
        for u, v, x, y in cycles:
            assert {u, v, x, y} == {0, 1, 2, 3}

    def test_cycles_are_genuine(self):
        g = random_graph(14, 0.45, 11)
        e = g.edges()[len(g.edges()) // 2]
        u, v = int(e[0]), int(e[1])
        count, cycles = c4_through_edge(g, u, v)
        assert count == len(cycles)
        seen = set()
        for a, b, x, y in cycles:
            assert (a, b) == (u, v)
            assert len({a, b, x, y}) == 4
            assert g.has_edge(a, b) and g.has_edge(b, x)
            assert g.has_edge(x, y) and g.has_edge(y, a)
            key = frozenset([(b, x), (x, y), (y, a)])
            assert key not in seen
            seen.add(key)

    def test_total_over_edges(self):
        # each 4-cycle contains exactly 4 edges
        g = random_graph(12, 0.5, 12)
        total = sum(
            c4_through_edge(g, int(u), int(v))[0] for u, v in g.edges().tolist()
        )
        assert total == 4 * count_c4(g)

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError, match="not an edge"):
            c4_through_edge(petersen(), 0, 2)

    def test_cycles_above_the_cap_are_only_counted(self, monkeypatch):
        monkeypatch.setattr(c4lab.graph, "CYCLE_LIST_CAP", 2)
        assert len(c4_through_edge(k(4), 0, 1)[1]) == 2
        monkeypatch.setattr(c4lab.graph, "CYCLE_LIST_CAP", 1)
        assert c4_through_edge(k(4), 0, 1) == (2, None)

    @pytest.mark.parametrize("seed", range(8))
    def test_private_lister_on_a_non_edge_lists_the_cycles_uv_closes(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(8, 33))
        g = random_graph(n, float(rng.uniform(0.25, 0.5)), 700 + seed)
        assert count_c4(g) > 0
        gaps = [(u, v) for u in range(n) for v in range(n) if u != v and not g.has_edge(u, v)]
        for k in rng.choice(len(gaps), 12, replace=False).tolist():
            u, v = gaps[k]
            g_uv = g.add_edges([(u, v)])
            x, y = _c4_through_edge(g, u, v)
            x_uv, y_uv = _c4_through_edge(g_uv, u, v)
            assert set(zip(x.tolist(), y.tolist())) == set(zip(x_uv.tolist(), y_uv.tolist()))
            assert len(x) == count_c4(g_uv) - count_c4(g)

    def test_endpoint_out_of_range_rejected(self):
        g = petersen()
        for u, v in ((g.n, 0), (0, g.n), (-1, 4)):
            with pytest.raises(ValueError, match="endpoint out of range"):
                c4_through_edge(g, u, v)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_enumeration(self, seed):
        # every ordered pair: edges through the public lister, non-edges (the
        # cycles that adding uv closes) through the private one
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 17))
        g = random_graph(n, float(rng.uniform(0.2, 0.8)), 100 + seed)
        # isolate up to two vertices, and the last vertex n - 1 in odd seeds
        lone = set(rng.choice(n - 1, int(rng.integers(0, 3)), replace=False).tolist())
        lone |= {n - 1} if seed % 2 else set()
        g = from_edges(n, [e for e in g.edges().tolist() if lone.isdisjoint(e)])
        assert (g.degrees()[n - 1] == 0) == bool(seed % 2)
        adj = dense_adj(g)
        for u, v in itertools.permutations(range(n), 2):
            expected = [
                (x, y)
                for x in range(n)
                for y in range(n)
                if len({u, v, x, y}) == 4 and adj[v, x] and adj[x, y] and adj[y, u]
            ]
            x, y = _c4_through_edge(g, u, v)
            assert list(zip(x.tolist(), y.tolist())) == expected
            if adj[u, v]:
                cycles = [(u, v, x, y) for x, y in expected]
                assert c4_through_edge(g, u, v) == (len(expected), cycles)

    def test_matches_dense_rows_on_er16(self):
        g = er_graph(16).graph
        adj = dense_adj(g)
        rng = np.random.default_rng(16)
        edges = g.edges()[rng.choice(g.m, 40, replace=False)].tolist()
        gaps = np.argwhere(np.triu(~adj, 1))
        pairs = edges + gaps[rng.choice(len(gaps), 40, replace=False)].tolist()
        listed = 0
        for a, b in pairs:
            for u, v in ((a, b), (b, a)):
                expected = [
                    (x, y)
                    for x in np.flatnonzero(adj[v]).tolist()
                    if x != u
                    for y in np.flatnonzero(adj[x] & adj[u]).tolist()
                    if y != v
                ]
                x, y = _c4_through_edge(g, u, v)
                assert list(zip(x.tolist(), y.tolist())) == expected
                listed += len(expected)
        # ER(16) has no 4-cycle, and adding a non-edge closes 15, 16 or 17
        assert 2 * 40 * 15 <= listed <= 2 * 40 * 17


# ---------------------------------------------------------------------------
# pair statistics


def dense_adj(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=bool)
    e = g.edges()
    a[e[:, 0], e[:, 1]] = True
    a[e[:, 1], e[:, 0]] = True
    return a


def dense_pair_counts(g: Graph) -> tuple[int, int]:
    """(p2, up) from the dense codegree matrix: sum C(d, 2) and the uncovered pairs."""
    degs = dense_adj(g).sum(axis=1)
    cod = dense_codegrees(g)[np.triu_indices(g.n, k=1)]
    return int(np.sum(degs * (degs - 1) // 2)), int(np.sum(cod == 0))


class TestUpP2:
    def test_five_cycle(self):
        g = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        st = graph_stats(g, q=2)
        assert st.p2 == 5
        # five of the ten pairs are covered
        assert st.up == 5

    def test_petersen(self):
        st = graph_stats(petersen(), q=2)
        assert st.p2 == 30
        # C4-free: every covered pair has exactly one common neighbour, so 30
        # of the 45 pairs are covered
        assert st.up == 15

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_against_dense(self, seed):
        g = random_graph(18, 0.3, seed)
        st = graph_stats(g, q=3)
        assert (st.p2, st.up) == dense_pair_counts(g)
        assert st.up > 0


class TestGraphStats:
    def test_star_plus_edge(self):
        # vertex 0 joined to 1..4, plus edge (1, 2)
        g = from_edges(5, [(0, i) for i in range(1, 5)] + [(1, 2)])
        st = graph_stats(g, q=2)
        assert st.degree_histogram == {1: 2, 2: 2, 4: 1}
        assert st.s_below.tolist() == [1, 2, 3, 4]
        assert st.f_values.tolist() == [0, 1, 1, 2, 2]
        assert st.f_total == 6
        assert st.p2 == 6 + 1 + 1
        # only (0, 3) and (0, 4) lack a common neighbour
        assert st.up == 2

    def test_no_vertices(self):
        st = graph_stats(from_edges(0, []), q=3)
        assert (st.n, st.m, st.degree_histogram, st.f_total, st.p2, st.up) == (0, 0, {}, 0, 0, 0)
        for arr in (st.degrees, st.s_below, st.f_values):
            assert arr.dtype == np.int64 and len(arr) == 0


class TestClaimInequality:
    def test_k4_full_vertex_set_is_tight(self):
        out = claim_c4_inequality(k(4), range(4))
        assert out["lhs"] == 6 and out["rhs"] == 6
        assert out["holds"]

    def test_empty_subset(self):
        out = claim_c4_inequality(petersen(), [])
        assert out["rhs"] == 0 and out["holds"]

    def test_out_of_range_subset(self):
        with pytest.raises(ValueError, match="outside"):
            claim_c4_inequality(k(4), [0, 4])

    def test_fractional_subset(self):
        cycle = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError, match=r"^vertex 0\.5 is not an integer$"):
            claim_c4_inequality(cycle, [0.5, 2.7])
        whole = claim_c4_inequality(cycle, [0, 2])
        assert claim_c4_inequality(cycle, np.array([0.0, 2.0])) == whole
        assert claim_c4_inequality(cycle, np.array([0, 2], dtype=np.uint8)) == whole

    @pytest.mark.parametrize("build", [
        petersen, lambda: k(6), lambda: random_graph(20, 0.3, 7),
        lambda: perturbed_er_graph(4, 2), lambda: from_edges(5, []),
    ])
    def test_whole_vertex_set_matches_up_p2_stats(self, build):
        g = build()
        out = claim_c4_inequality(g, range(g.n))
        assert (out["p2_a"], out["up_a"]) == dense_pair_counts(g)
        assert out["a_pairs"] == g.n * (g.n - 1) // 2

    def test_subset_with_isolated_vertices(self):
        # the 4-cycle 0-1-2-3, the edge 4-5, and isolated vertices 6 and 7
        g = from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)])
        out = claim_c4_inequality(g, [7, 0, 6, 2])
        # 1 and 3 each have both 0 and 2 as neighbours in A
        assert out["p2_a"] == 2
        # of the six pairs in A only (0, 2) has a common neighbour
        assert out["up_a"] == 5 and out["a_pairs"] == 6
        assert out["lhs"] == 2 and out["rhs"] == 1 and out["holds"]
        assert all(type(out[key]) is int for key in ("lhs", "rhs", "p2_a", "up_a", "a_pairs"))
        assert type(out["holds"]) is bool
        whole = claim_c4_inequality(g, range(8))
        assert (whole["p2_a"], whole["up_a"]) == dense_pair_counts(g)

    @pytest.mark.parametrize("seed", [41, 42, 43, 44])
    def test_random_graphs_random_subsets(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(16, 0.4, seed + 100)
        adj = dense_adj(g)
        for _ in range(5):
            size = int(rng.integers(0, 17))
            a = rng.choice(16, size=size, replace=False)
            out = claim_c4_inequality(g, a)
            assert out["holds"]
            in_a = np.zeros(16, dtype=bool)
            in_a[a] = True
            # brute-force the restricted path count
            p2 = 0
            for v in range(16):
                t = int(np.sum(adj[v] & in_a))
                p2 += t * (t - 1) // 2
            assert out["p2_a"] == p2
            cod = adj.astype(np.int64) @ adj.astype(np.int64)
            up = sum(
                1
                for i_, u in enumerate(sorted(a))
                for w in sorted(a)[i_ + 1 :]
                if cod[u, w] == 0
            )
            assert out["up_a"] == up


class TestNeighborhoodFamily:
    def test_mechanics_on_small_graph(self):
        # two triangles sharing no vertex, plus a bridge 2-3
        g = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        fam = neighborhood_family(g, q=2, delta=0.5)
        # every vertex has degree <= 2 except 2 and 3
        assert fam.s.tolist() == [0, 1, 4, 5]
        # threshold is 1 neighbour in S; all six vertices qualify
        assert fam.b.tolist() == [0, 1, 2, 3, 4, 5]
        assert fam.a.tolist() == []
        assert fam.size == 0
        assert fam.one_intersecting

    def test_family_lines_are_neighborhoods(self):
        g = petersen()
        fam = neighborhood_family(g, q=2, delta=4.0)  # high bar empties B
        assert fam.b.tolist() == []
        assert fam.a.tolist() == list(range(10))
        for row, v in zip(fam.family.lines(), fam.a.tolist()):
            assert row.tolist() == g.neighbors(v).tolist()
        # Petersen neighbourhoods are pairwise disjoint or meet in one point
        assert not fam.one_intersecting  # disjoint pairs exist
        assert fam.witness is not None and fam.witness[2] == 0

    def test_rejects_bad_delta(self):
        for delta in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="delta must be finite and positive"):
                neighborhood_family(petersen(), q=2, delta=delta)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
    def test_family_matches_per_vertex_oracle(self, q):
        g = er_graph(q).graph
        rng = np.random.default_rng(q)
        e = g.edges()
        g = g.remove_edges(e[rng.choice(len(e), size=q, replace=False)])
        degs = g.degrees()
        sizes = []
        for delta in (0.25, 1.0, 4.0):
            nf = neighborhood_family(g, q, delta)
            in_s = [int(np.sum(degs[g.neighbors(v)] <= q)) for v in range(g.n)]
            assert nf.b.tolist() == [v for v in range(g.n) if in_s[v] >= delta * q]
            oracle = IncidenceStructure(g.n, [g.neighbors(int(x)) for x in nf.a])
            sizes.append(nf.size)
            assert nf.family == oracle
            assert nf.family.line_ptr.dtype == oracle.line_ptr.dtype
            assert nf.family.line_idx.dtype == oracle.line_idx.dtype
            assert (nf.one_intersecting, nf.witness) == is_one_intersecting(oracle)
        assert max(sizes) > 0


class TestConvexityBound:
    def test_equality_case(self):
        out = convexity_bound([4, 4, 4], k=4, r=0)
        assert out["lhs"] == out["rhs"] == 18
        assert out["holds"] and out["m"] == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            convexity_bound([], k=2, r=0)
        with pytest.raises(ValueError, match="positive"):
            convexity_bound([1, 2], k=0, r=0)
        with pytest.raises(ValueError, match="nonnegative"):
            convexity_bound([1, -1], k=1, r=-2)
        with pytest.raises(ValueError, match="at least -m"):
            convexity_bound([5, 5], k=1, r=-3)
        with pytest.raises(ValueError, match="below"):
            convexity_bound([1, 1], k=5, r=0)

    def test_holds_on_random_instances(self):
        rng = np.random.default_rng(51)
        done = 0
        while done < 300:
            m = int(rng.integers(1, 12))
            a = rng.integers(0, 30, size=m)
            k_ = int(rng.integers(1, 12))
            slack = int(a.sum()) - k_ * m
            if slack < -m:
                continue
            r = int(rng.integers(-m, slack + 1))
            out = convexity_bound(a.tolist(), k=k_, r=r)
            assert out["holds"], (a.tolist(), k_, r, out)
            done += 1


# ---------------------------------------------------------------------------
# serialization


class TestEdgeListIO:
    def test_roundtrip_bytes(self, tmp_path):
        g = random_graph(20, 0.3, 61)
        p1 = tmp_path / "g.edges"
        p2 = tmp_path / "g2.edges"
        write_edge_list(g, str(p1))
        h = read_edge_list(str(p1))
        write_edge_list(h, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert h.edges().tolist() == g.edges().tolist()

    @pytest.mark.parametrize("block", [c4lab.plane._WRITE_BLOCK, 1, 7], ids=["default", "1", "7"])
    def test_roundtrip_bytes_at_q64(self, monkeypatch, tmp_path, block):
        # the writer formats about ``block`` values at a time, so block ends
        # fall mid-file; the oracle writes one line at a time
        monkeypatch.setattr(c4lab.plane, "_WRITE_BLOCK", block)
        g = er_graph(64).graph
        oracle, p1, p2 = (tmp_path / f"{name}.edges" for name in ("oracle", "g", "g2"))
        with open(oracle, "w", encoding="ascii") as fh:
            for u, v in g.edges().tolist():
                fh.write(f"{u} {v}\n")
        write_edge_list(g, str(p1))
        assert p1.read_bytes() == oracle.read_bytes()
        h = read_edge_list(str(p1))
        assert np.array_equal(h.indptr, g.indptr) and np.array_equal(h.indices, g.indices)
        write_edge_list(h, str(p2))
        assert p2.read_bytes() == oracle.read_bytes()

    def test_numeric_order(self, tmp_path):
        g = from_edges(12, [(10, 2), (1, 11), (0, 3)])
        p = tmp_path / "g.edges"
        write_edge_list(g, str(p))
        assert p.read_text() == "0 3\n1 11\n2 10\n"

    def test_comments_and_isolated_vertices(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# header\n\n0 1  # trailing\n1 2\n")
        g = read_edge_list(str(p))
        assert g.n == 3 and g.m == 2
        g5 = read_edge_list(str(p), n=5)
        assert g5.n == 5 and g5.degrees().tolist() == [1, 2, 1, 0, 0]
