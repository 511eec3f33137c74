"""Turán bounds, brute-force oracles, prime windows, and the exact chain."""

import itertools
import math

import numpy as np
import pytest

from c4lab.extremal import (
    FUREDI_EXCLUDED,
    MAX_TURAN_N,
    _canonical_key,
    _decode_key,
    _equitable,
    _iroot,
    _p_window_ok,
    _surd_sign,
    corollary_turan_decision,
    furedi_value,
    h_bruteforce,
    prime_in_interval,
    reiman_bound,
    turan_bruteforce,
    turan_lower_bound,
)
from c4lab.field import spec_for_order
from c4lab.polarity import orthogonal_polarity, polarity_graph
from c4lab.primes import is_prime


class TestReimanBound:
    @pytest.mark.parametrize("n,expected", [(1, 0), (4, 4), (7, 10)])
    def test_frozen(self, n, expected):
        assert reiman_bound(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            reiman_bound(0)

    def test_exact_at_square_boundary(self):
        # 4n-3 = 25 is a perfect square: the bound is hit without rounding slack
        assert reiman_bound(7) == (7 + 7 * 5) // 4

    def test_monotone(self):
        vals = [reiman_bound(n) for n in range(1, 200)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestFurediValue:
    def test_values(self):
        assert furedi_value(2).value == 9
        assert furedi_value(8).value == 324
        assert not furedi_value(2).excluded

    def test_excluded_orders(self):
        v1 = furedi_value(1)
        assert v1.value == 2 and v1.excluded
        for q in (1, 7, 9, 11, 13):
            assert furedi_value(q).excluded
        for q in (2, 3, 4, 5, 6, 8, 10, 12, 14):
            assert not furedi_value(q).excluded
        assert FUREDI_EXCLUDED == {1, 7, 9, 11, 13}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            furedi_value(0)


def dfs_ex(n: int) -> int:
    """ex(n, C4) by lexicographic DFS over edge sets: the search that the
    vertex extension replaced, kept as its independent oracle.

    An edge is added only when it closes no 4-cycle, that is when no 3-path
    joins its ends; branches that cannot beat the incumbent with all
    remaining pairs are pruned.
    """
    pairs = list(itertools.combinations(range(n), 2))
    adj = [0] * n
    best = 0

    def creates_c4(u: int, v: int) -> bool:
        rem = adj[v] & ~(1 << u)
        while rem:
            low = rem & -rem
            rem ^= low
            if adj[low.bit_length() - 1] & adj[u]:
                return True
        return False

    def dfs(i: int, count: int) -> None:
        nonlocal best
        best = max(best, count)
        if i == len(pairs) or count + len(pairs) - i <= best:
            return
        u, v = pairs[i]
        if not creates_c4(u, v):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            dfs(i + 1, count + 1)
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        dfs(i + 1, count)

    dfs(0, 0)
    return best


def labelled_class_count(n: int, e: int) -> int:
    """Isomorphism classes of C4-free graphs with n vertices and e edges:
    every labelled graph, as a bitmask over the pairs, reduced to the
    minimum over its n! relabellings."""
    pairs = list(itertools.combinations(range(n), 2))
    bit = {p: i for i, p in enumerate(pairs)}
    masks = np.array(
        [sum(1 << j for j in c) for c in itertools.combinations(range(len(pairs)), e)],
        dtype=np.int64,
    )
    for a, b, c, d in itertools.combinations(range(n), 4):
        for cycle in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
            ring = zip(cycle, cycle[1:] + cycle[:1])
            four = sum(1 << bit[min(u, v), max(u, v)] for u, v in ring)
            masks = masks[(masks & four) != four]
    least = masks.copy()
    for perm in itertools.permutations(range(n)):
        relabelled = np.zeros_like(masks)
        for j, (u, v) in enumerate(pairs):
            image = bit[min(perm[u], perm[v]), max(perm[u], perm[v])]
            relabelled |= ((masks >> j) & 1) << image
        np.minimum(least, relabelled, out=least)
    return len(np.unique(least))


def bitsets(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def petersen_edges() -> list[tuple[int, int]]:
    edges = []
    for i in range(5):
        edges += [(i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, 5 + i)]
    return edges


def polarity_q2_edges() -> list[tuple[int, int]]:
    pg = polarity_graph(orthogonal_polarity(spec_for_order(2)))
    return [tuple(e) for e in pg.graph.edges().tolist()]


# values up to n=8 were produced by the DFS oracle and then frozen
EX_KNOWN = {1: 0, 2: 1, 3: 3, 4: 4, 5: 6, 6: 7, 7: 9, 8: 11}
CLASSES_KNOWN = {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 4, 7: 5}


class TestTuranBruteforce:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_dfs_oracle(self, n):
        assert turan_bruteforce(n).ex_value == dfs_ex(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_extremal_count_matches_labelled_classes(self, n):
        rec = turan_bruteforce(n)
        assert rec.extremal_count == labelled_class_count(n, rec.ex_value) == CLASSES_KNOWN[n]

    @pytest.mark.parametrize("n,expected", sorted(EX_KNOWN.items()))
    def test_frozen_values(self, n, expected):
        rec = turan_bruteforce(n)
        assert rec.ex_value == expected
        assert rec.method == "bruteforce"
        assert rec.n == n
        assert type(rec.extremal_count) is int and rec.extremal_count >= 1
        assert rec.ex_value <= reiman_bound(n)

    def test_matches_plane_bound_at_q2(self):
        assert turan_bruteforce(7).ex_value == furedi_value(2).value

    def test_monotone_with_bounded_steps(self):
        vals = [turan_bruteforce(n).ex_value for n in range(1, 9)]
        for i in range(1, len(vals)):
            assert vals[i - 1] <= vals[i] <= vals[i - 1] + i  # step n adds < n

    def test_cap(self):
        turan_bruteforce(1)
        with pytest.raises(ValueError, match=f"capped at n = {MAX_TURAN_N}"):
            turan_bruteforce(MAX_TURAN_N + 1)
        with pytest.raises(ValueError, match="at least 1"):
            turan_bruteforce(0)

    # n = 9..12 agree with the published values, which the search does not use
    def test_n9(self):
        assert turan_bruteforce(9).ex_value == 13

    def test_n10(self):
        assert turan_bruteforce(10).ex_value == 16

    def test_n11(self):
        assert turan_bruteforce(11).ex_value == 18

    def test_n12(self):
        assert turan_bruteforce(12).ex_value == 21


class TestCanonicalKey:
    @pytest.mark.parametrize("graph", [petersen_edges, polarity_q2_edges])
    def test_invariant_under_relabelling(self, graph):
        edges = graph()
        n = 1 + max(max(e) for e in edges)
        key = _canonical_key(bitsets(n, edges))
        assert key.bit_count() == 2 * len(edges)
        rng = np.random.default_rng(8)
        for _ in range(10):
            perm = rng.permutation(n).tolist()
            relabelled = [(perm[u], perm[v]) for u, v in edges]
            assert _canonical_key(bitsets(n, relabelled)) == key

    def test_key_is_a_labelling(self):
        edges = petersen_edges()
        adj = _decode_key(_canonical_key(bitsets(10, edges)), 10)
        assert all(not a >> v & 1 for v, a in enumerate(adj))
        assert all((adj[u] >> v & 1) == (adj[v] >> u & 1) for u in range(10) for v in range(10))
        assert [a.bit_count() for a in adj] == [3] * 10
        assert _canonical_key(adj) == _canonical_key(bitsets(10, edges))

    def test_separates_c6_from_two_triangles(self):
        # both 2-regular on 6 vertices: only individualization tells them apart
        c6 = bitsets(6, [(i, (i + 1) % 6) for i in range(6)])
        triangles = bitsets(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert _canonical_key(c6) != _canonical_key(triangles)

    def test_refinement_is_equitable(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            upper = np.triu(rng.random((n, n)) < 0.3, 1)
            adj = bitsets(n, np.argwhere(upper).tolist())
            everything = (1 << n) - 1
            cells = _equitable(adj, [everything], {everything})
            assert sum(cells) == everything and all(cells)
            for cell in cells:
                for splitter in cells:
                    counts = {
                        (adj[v] & splitter).bit_count() for v in range(n) if cell >> v & 1
                    }
                    assert len(counts) == 1


class TestHBruteforce:
    def test_trivial_t0(self):
        for n in (4, 5, 6):
            assert h_bruteforce(n, 0) == 0

    def test_k4_minus_edge(self):
        # the unique 5-edge graph on 4 vertices has exactly one 4-cycle
        assert h_bruteforce(4, 1) == 1

    def test_frozen_oracle_values(self):
        # derived by this oracle, then frozen
        assert h_bruteforce(7, 1) == 1
        assert h_bruteforce(6, 2) == 3

    def test_limits(self):
        with pytest.raises(ValueError, match="capped"):
            h_bruteforce(10, 1)
        with pytest.raises(ValueError, match="do not fit"):
            h_bruteforce(4, 3)  # ex(4)+3 = 7 > 6 pairs
        with pytest.raises(ValueError):
            h_bruteforce(5, -1)


class TestPrimeInInterval:
    @pytest.mark.parametrize("x,expected", [(100, 97), (10, 7), (4, 3), (2, 2)])
    def test_values(self, x, expected):
        assert prime_in_interval(x) == expected

    def test_window_violation(self):
        # the gap from 113 to 127 exceeds 126^(21/40)
        assert 13**40 > 126**21
        with pytest.raises(ValueError, match="no prime in window"):
            prime_in_interval(126)

    def test_tiny_and_huge_inputs_rejected(self):
        with pytest.raises(ValueError, match="no prime in window"):
            prime_in_interval(1)
        with pytest.raises(ValueError, match="2\\*\\*64"):
            prime_in_interval(1 << 64)

    def test_random_sample_property(self):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            x = int(rng.integers(10, 1 << 63))
            p = prime_in_interval(x)
            assert p <= x and is_prime(p)
            assert (x - p) ** 40 <= x**21


class TestIntegerRoots:
    def test_exact_powers(self):
        for base in (2, 3, 10, 997):
            for k in (2, 3, 7, 80):
                assert _iroot(base**k, k) == base
                assert _iroot(base**k - 1, k) == base - 1
                assert _iroot(base**k + 1, k) == base

    def test_random(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            x = int(rng.integers(0, 1 << 63))
            k = int(rng.integers(1, 12))
            r = _iroot(x, k)
            assert r**k <= x < (r + 1) ** k

    def test_zero(self):
        assert _iroot(0, 5) == 0


class TestSurdSign:
    def test_exact_zero(self):
        assert _surd_sign(-2, 1, 4) == 0
        assert _surd_sign(6, -2, 9) == 0
        assert _surd_sign(0, 0, 7) == 0

    def test_against_float(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            a = int(rng.integers(-50, 51))
            b = int(rng.integers(-50, 51))
            d = int(rng.integers(1, 80))
            val = a + b * math.sqrt(d)
            if abs(val) < 1e-9:
                continue
            assert _surd_sign(a, b, d) == (1 if val > 0 else -1)


class TestTuranLowerBound:
    def test_frozen_million(self):
        r = turan_lower_bound(10**6)
        assert r["p"] == 997
        assert r["bound"] == 496_507_994
        assert r["floor_formula"] == 444_124_389
        assert r["chain_holds"] and r["p_lower_ok"]

    def test_small_n(self):
        r = turan_lower_bound(7)
        assert r["p"] == 2 and r["bound"] == 9
        assert r["chain_holds"]

    def test_window_emptiness_reported(self):
        # n below 7 leaves no prime at or under (sqrt(4n-3)-1)/2
        with pytest.raises(ValueError, match="no prime in window"):
            turan_lower_bound(3)

    def test_floor_formula_tracks_float(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(7, 10**7))
            try:
                r = turan_lower_bound(n)
            except ValueError:
                continue  # empty window at this n: reported, not asserted
            approx = (n**1.5 - 3 * n**1.2625 + n) / 2
            assert abs(r["floor_formula"] - approx) <= 1.0
            assert r["bound"] <= reiman_bound(n)

    def test_p_window_predicate_boundary(self):
        # sqrt(10^4) - 10^4.2625/10^4 ... threshold sits between 87 and 88
        assert not _p_window_ok(10**4, 80)
        assert not _p_window_ok(10**4, 87)
        assert _p_window_ok(10**4, 88)


class TestCorollaryDecision:
    def test_branch_one(self):
        r = corollary_turan_decision(8, lambda_lower=324, slack=0)
        assert r["branch"] == 1 and r["bound"] == 324
        assert r["threshold"] == 320
        assert r["ex_equals_lambda"]

    def test_branch_one_q2(self):
        r = corollary_turan_decision(2, lambda_lower=9, slack=0)
        assert r["branch"] == 1 and r["bound"] == 9

    def test_branch_two_no_plane(self):
        r = corollary_turan_decision(6, lambda_lower=0, slack=0)
        assert r["branch"] == 2
        assert r["threshold"] == 144 and r["bound"] == 144
        assert not r["ex_equals_lambda"]

    def test_slack_shifts_threshold(self):
        base = corollary_turan_decision(8, lambda_lower=324, slack=0)["threshold"]
        assert corollary_turan_decision(8, 324, slack=5)["threshold"] == base + 5
        assert corollary_turan_decision(8, 324, slack=5)["branch"] == 2

    def test_odd_rejected(self):
        with pytest.raises(ValueError, match="odd order"):
            corollary_turan_decision(7, 100, 0)
