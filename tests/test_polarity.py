"""Polarity verification and the structure of orthogonal polarity graphs."""

import math
from dataclasses import replace

import numpy as np
import pytest

import c4lab.graph
import c4lab.plane
import c4lab.polarity
from c4lab.cli import cli_dispatch
from c4lab.field import FieldSpec, spec_for_order
from c4lab.graph import count_c4, from_edges
from c4lab.plane import ProjectivePlane, build_pg2, triple_of_index
from c4lab.polarity import (
    Polarity,
    PolarityVerdict,
    degree_q_independence,
    orthogonal_polarity,
    polarity_graph,
    read_polarity,
    special_vertex_w,
    verify_polarity,
    write_polarity,
)
from c4lab.supersat import er_graph

from plane_helpers import index_of_triple


def er(q: int):
    return polarity_graph(orthogonal_polarity(spec_for_order(q)))


def setxor_verify_polarity(pi: Polarity) -> PolarityVerdict:
    """The smallest code i*n + j present in exactly one of the paired incidence
    matrix and its transpose, found by a symmetric difference of the codes."""
    n = pi.plane.n_points
    ptr = pi.plane.line_ptr
    sizes = np.diff(ptr)[pi.sigma]
    rows = np.repeat(np.arange(n, dtype=np.int64), sizes)
    cols = np.concatenate([pi.plane.line(int(s)) for s in pi.sigma]).astype(np.int64)
    asymmetric = np.setxor1d(rows * n + cols, cols * n + rows, assume_unique=True)
    if len(asymmetric) == 0:
        return PolarityVerdict(True, None)
    i, j = divmod(int(asymmetric[0]), n)
    return PolarityVerdict(False, (i, j))


class TestVerifyPolarity:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_orthogonal_passes(self, q):
        assert verify_polarity(orthogonal_polarity(spec_for_order(q))).ok

    def test_swapped_sigma_fails_with_witness(self):
        pi = orthogonal_polarity(spec_for_order(3))
        sigma = pi.sigma.copy()
        sigma[[2, 9]] = sigma[[9, 2]]
        verdict = verify_polarity(Polarity(pi.plane, sigma))
        assert not verdict.ok
        i, j = verdict.witness
        lines = pi.plane.lines()
        m = np.zeros((pi.plane.n_points, pi.plane.n_points), dtype=np.int8)
        for row, line in enumerate(sigma):
            m[row, lines[line]] = 1
        assert m[i, j] != m[j, i]
        # row-major first: nothing asymmetric strictly before (i, j)
        asym = np.argwhere(m != m.T)
        assert (asym[0] == [i, j]).all()

    def test_fractional_sigma_is_rejected(self):
        plane = build_pg2(spec_for_order(2))
        with pytest.raises(ValueError, match=r"^vertex 0\.5 is not an integer$"):
            Polarity(plane, np.arange(7) + 0.5)  # not truncated to the identity

    def test_codes_exceed_int32_at_order_256(self):
        # PG(2, 256) has n = 65793 points, so codes i*n + j pass 2^31.  One
        # point per line, paired by the involution i <-> n-1-i, keeps the
        # paired matrix a symmetric permutation matrix at that size.
        n = 256**2 + 256 + 1
        plane = ProjectivePlane(
            spec_for_order(256),
            np.arange(n + 1, dtype=np.int64),
            (n - 1 - np.arange(n)).astype(np.int32),
        )
        sigma = np.arange(n)
        assert verify_polarity(Polarity(plane, sigma)).ok
        # row n-3 now holds point 0, which row 0 does not mirror
        sigma[[n - 3, n - 1]] = sigma[[n - 1, n - 3]]
        assert verify_polarity(Polarity(plane, sigma)).witness == (0, n - 3)

    def test_shuffled_line_indexing_fails(self):
        # identity pairing under an arbitrary reindexing of the lines
        pi = orthogonal_polarity(spec_for_order(4))
        rng = np.random.default_rng(7)
        found_failure = False
        for _ in range(5):
            sigma = rng.permutation(pi.plane.n_points)
            if not verify_polarity(Polarity(pi.plane, sigma)).ok:
                found_failure = True
        assert found_failure

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_matches_the_symmetric_difference_oracle(self, q):
        pi = orthogonal_polarity(spec_for_order(q))
        n = pi.plane.n_points
        rng = np.random.default_rng(q)
        sigmas = [pi.sigma] + [rng.permutation(n) for _ in range(30)]
        for swaps in [1] * 10 + [2] * 20:
            sigma = pi.sigma.copy()
            for _ in range(swaps):
                a, b = rng.choice(n, size=2, replace=False)
                sigma[[a, b]] = sigma[[b, a]]
            sigmas.append(sigma)
        verdicts = [verify_polarity(Polarity(pi.plane, sigma)) for sigma in sigmas]
        assert verdicts[0].ok and sum(not v.ok for v in verdicts) >= 50
        for sigma, verdict in zip(sigmas, verdicts):
            assert verdict == setxor_verify_polarity(Polarity(pi.plane, sigma))

    def test_rejects_non_permutation(self):
        pi = orthogonal_polarity(spec_for_order(2))
        with pytest.raises(ValueError, match="not a permutation"):
            Polarity(pi.plane, [0] * 7)
        with pytest.raises(ValueError, match="length"):
            Polarity(pi.plane, [0, 1, 2])
        with pytest.raises(ValueError, match="out of range"):
            Polarity(pi.plane, [0, 1, 2, 3, 4, 5, 7])


class TestPolarityGraph:
    @pytest.mark.parametrize("q,edges,deg_q", [(2, 9, 3), (8, 324, 9)])
    def test_counts(self, q, edges, deg_q):
        pg = er(q)
        assert pg.n == q * q + q + 1
        assert pg.edge_count == edges
        assert pg.a == deg_q
        assert np.sum(pg.graph.degrees() == q) == deg_q

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
    def test_invariants_small_orders(self, q):
        pg = er(q)
        assert pg.m_pi == 0 and pg.a == q + 1
        assert 2 * pg.edge_count == q * (q + 1) ** 2
        degs = pg.graph.degrees()
        assert set(np.unique(degs).tolist()) <= {q, q + 1}
        assert np.array_equal(np.flatnonzero(degs == q), pg.absolute_points)
        assert count_c4(pg.graph) == 0

    def test_q16_c4_free(self):
        pg = er(16)
        assert pg.edge_count == 2312
        assert count_c4(pg.graph) == 0

    def test_q2_absolute_points_explicit(self):
        # over GF(2) the absolute points are those with coordinate sum zero
        pg = er(2)
        expect = sorted(
            index_of_triple(2, *t) for t in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
        )
        assert pg.absolute_points.tolist() == expect

    def test_q3_absolute_count(self):
        # a^2+b^2+c^2 = 0 over GF(3) has q+1 = 4 projective solutions
        pg = er(3)
        assert pg.a == 4

    def test_adjacency_matches_incidence_independently(self):
        # rebuild adjacency from raw plane incidence, bypassing the matrix path
        q = 5
        pi = orthogonal_polarity(spec_for_order(q))
        pg = polarity_graph(pi)
        assert self.edges_from_lines(pi) == {tuple(e) for e in pg.graph.edges().tolist()}

    @staticmethod
    def edges_from_lines(pi):
        edges = set()
        for x in range(pi.plane.n_points):
            for y in pi.plane.line(int(pi.sigma[x])).tolist():
                if y != x:
                    edges.add((min(x, y), max(x, y)))
        return edges

    def test_build_runs_no_pair_scan(self, monkeypatch):
        # C4-freeness rests on the plane theorem; the gate counts it instead
        def refuse(*args):
            raise AssertionError("pair scan")

        graphs = []
        with monkeypatch.context() as m:
            m.setattr(c4lab.graph, "_codegree_blocks", refuse)
            m.setattr(c4lab.plane, "_codegree_blocks", refuse)
            for q in (2, 3, 4, 8, 9, 16, 27):
                pi = orthogonal_polarity(spec_for_order(q))
                pg = polarity_graph(pi)
                assert self.edges_from_lines(pi) == {tuple(e) for e in pg.graph.edges().tolist()}
                graphs.append(pg.graph)
        assert all(count_c4(g) == 0 for g in graphs)

    def test_graph_arrays_are_read_only(self):
        pg = polarity_graph(orthogonal_polarity(spec_for_order(4)))
        for arr in (pg.graph.indptr, pg.graph.indices, pg.absolute_points):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]

    def test_c4_count_is_cached_per_object(self):
        pg = polarity_graph(orthogonal_polarity(spec_for_order(4)))
        assert pg.c4_count == 0
        a = pg.absolute_points
        g2 = pg.graph.add_edges([(int(a[0]), int(a[1]))])
        # a copy with another graph is another object and counts its own graph
        assert replace(pg, graph=g2).c4_count == count_c4(g2) == 3
        assert pg.c4_count == 0
        with pytest.raises(AttributeError):
            pg.graph = g2

    @pytest.mark.parametrize("q,a,m_pi,edges", [(4, 9, 2, 48), (9, 28, 6, 441)])
    def test_unitary_polarity_has_q_root_q_plus_1_absolute_points(self, q, a, m_pi, edges):
        # sigma([a:b:c]) = [a^r:b^r:c^r] with r = sqrt(q): a Baer count a = q + 1 + m*r
        spec, r = spec_for_order(q), math.isqrt(q)
        plane = build_pg2(spec)
        sigma = [
            index_of_triple(q, *(spec.pow_index(x, r) for x in triple_of_index(q, i)))
            for i in range(plane.n_points)
        ]
        pi = Polarity(plane, sigma)
        assert verify_polarity(pi).ok
        pg = polarity_graph(pi)
        assert (pg.a, pg.m_pi, pg.edge_count, count_c4(pg.graph)) == (a, m_pi, edges, 0)
        assert a == q * r + 1

    def test_rejects_non_polarity(self):
        pi = orthogonal_polarity(spec_for_order(3))
        sigma = pi.sigma.copy()
        sigma[[0, 5]] = sigma[[5, 0]]
        with pytest.raises(ValueError, match="not a polarity"):
            polarity_graph(Polarity(pi.plane, sigma))


class TestSpecialVertex:
    @pytest.mark.parametrize("q", [2, 4, 8, 16])
    def test_even_orders(self, q):
        pg = er(q)
        w = special_vertex_w(pg)
        degs = pg.graph.degrees()
        assert degs[w] == q + 1
        assert np.array_equal(pg.graph.neighbors(w), np.flatnonzero(degs == q))

    def test_q2_w_is_all_ones_point(self):
        # the degree-2 vertices lie on the line [1:1:1]; w is its pole
        assert special_vertex_w(er(2)) == index_of_triple(2, 1, 1, 1)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError, match="odd order"):
            special_vertex_w(er(3))

    @staticmethod
    def scan(g, q):
        """The vertices whose neighbourhood is exactly S_q, one vertex at a time."""
        degs = g.degrees()
        s_q = np.flatnonzero(degs == q)
        return [
            int(v)
            for v in np.flatnonzero(degs == q + 1)
            if np.array_equal(g.neighbors(int(v)), s_q)
        ]

    @pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 64])
    def test_matches_per_vertex_scan(self, q):
        pg = er_graph(q)
        w = special_vertex_w(pg)
        assert self.scan(pg.graph, q) == [w]
        # w no longer matches once it loses the edge to its first neighbour
        cut = replace(pg, graph=pg.graph.remove_edges([(w, int(pg.graph.neighbors(w)[0]))]))
        assert self.scan(cut.graph, q) == []
        with pytest.raises(ValueError, match="not found"):
            special_vertex_w(cut)
        # an edge away from w and S_q = N(w): S_q gains its ends and still holds N(w)
        e = pg.graph.edges()
        far = e[(pg.graph.degrees()[e].min(axis=1) == q + 1) & (e != w).all(axis=1)]
        grown = replace(pg, graph=pg.graph.remove_edges(far[:1]))
        assert len(np.flatnonzero(grown.graph.degrees() == q)) == q + 3
        assert self.scan(grown.graph, q) == []
        with pytest.raises(ValueError, match="not found"):
            special_vertex_w(grown)

    def test_csr_matches_from_edges(self):
        for q in (2, 3, 4, 5, 7, 8, 9, 16):
            g = er(q).graph
            built = from_edges(g.n, g.edges())
            for ours, theirs in ((g.indptr, built.indptr), (g.indices, built.indices)):
                assert ours.dtype == theirs.dtype
                assert np.array_equal(ours, theirs)


class TestDegreeQIndependence:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16])
    def test_orthogonal_graphs_pass(self, q):
        ok, witness = degree_q_independence(er(q))
        assert ok and witness is None

    def test_negative_control(self):
        # path 0-1-2 plus pendant 3 on vertex 0: degree-2 set {0, 1} spans an edge
        g = from_edges(4, [(0, 1), (1, 2), (0, 3)])
        ok, witness = degree_q_independence(g, q=2)
        assert not ok and witness == (0, 1)

    def test_plain_graph_requires_q(self):
        with pytest.raises(ValueError, match="required"):
            degree_q_independence(from_edges(3, [(0, 1)]))


class TestSerialization:
    def test_roundtrip_bytes(self, tmp_path):
        pi = orthogonal_polarity(FieldSpec(2, 2))
        p1, p2 = tmp_path / "a.pol", tmp_path / "b.pol"
        write_polarity(pi, str(p1))
        back = read_polarity(str(p1))
        assert back.q == pi.q
        assert np.array_equal(back.sigma, pi.sigma)
        write_polarity(back, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_format(self, tmp_path):
        pi = orthogonal_polarity(FieldSpec(2))
        path = tmp_path / "q2.pol"
        write_polarity(pi, str(path))
        text = path.read_text().splitlines()
        assert text[0] == "q 2"
        assert len(text) == 8

    def test_short_sigma_is_rejected_before_the_plane_is_built(self, tmp_path, monkeypatch):
        def refuse(spec):
            raise AssertionError("plane built")

        monkeypatch.setattr(c4lab.polarity, "build_pg2", refuse)
        path = tmp_path / "short.pol"
        path.write_text("q 64\n0\n")
        with pytest.raises(ValueError, match="sigma must have length 4161"):
            read_polarity(str(path))
        assert cli_dispatch(["polarity", "verify", "--in", str(path)]) == 3
