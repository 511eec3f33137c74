"""Simple graphs in CSR form, exact four-cycle counting, and pair statistics.

Only this module knows the edge encoding: an edge's int64 code min(u, v)*n +
max(u, v) is also the CSR key row*n + column of its upper entry.  Graphs gain
and lose edges by splicing ``indices`` at the positions one ``searchsorted`` of
the new keys finds in the graph's own sorted keys, not by a rebuild; the result
is a new graph and the original's arrays are never written.  ``Graph(...)``
validates a CSR once; the builders here adopt theirs unchecked through
``Graph._from_csr``, and every scan trusts a graph to be canonical.

The fast counting path computes codegrees blockwise by enumerating wedges
u -> w -> x over the CSR arrays (the kernel in ``c4lab.plane``) and counting
their endpoints in exact integers; the independent brute-force oracle
enumerates vertex quadruples on a dense boolean matrix.  Both count the
number of distinct 4-cycle subgraphs.  ``count_c4`` takes only the middles
w > u, so each 4-cycle is counted once, from its least vertex u and the vertex
x opposite it (vertex-priority counting with the vertex id as the priority);
the pair counts scan the full codegrees of a neighbourhood family and read
only how many pairs are covered.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from c4lab.plane import IncidenceStructure, _as_vertices, _codegree_blocks, _ranges
from c4lab.plane import _Lines, _read_rows, _row_blocks, _write_rows, is_one_intersecting

# Overflow certificate for the int64 pair codes, wedge counts and block sums
# behind the exact counts: a vertex u starts at most d^2 wedges, so
# sum_x codeg(u, x) <= d^2 and sum_x codeg(u, x)^2 <= d^3.  With n <= 2^17 and
# d <= 2^10 every block code, which is below n^2, stays below 2^34, every
# wedge total below 2^37, every sum of squared codegrees below 2^47 and every
# choose-2 sum below 2^46, far from 2^63.  A block is reduced by np.dot(c, c)
# less its wedge count, which is c.sum(): np.dot on int64 vectors is an exact
# integer loop (BLAS serves only floats), and a block's c.c is at most the
# whole graph's sum of squares, below 2^47.  count_c4's codegrees count only
# the common neighbours above the least vertex, so they are at most the full
# ones and every bound above holds for them too.
MAX_COUNT_N = 1 << 17
MAX_COUNT_DEGREE = 1 << 10
MAX_BRUTEFORCE_N = 64
CYCLE_LIST_CAP = 10**6

class Graph:
    """Undirected simple graph as a CSR with sorted rows; ``Graph(...)`` raises
    ValueError unless its input is the canonical CSR that ``from_edges`` builds."""

    def __init__(self, n: int, indptr, indices):
        n, indptr, indices = int(n), np.asarray(indptr), np.asarray(indices)
        if not (n >= 0 and indptr.shape == (n + 1,) and indptr.dtype.kind in "iu"
                and indptr[0] == 0 and indptr[-1] == indices.size
                and np.all(indptr[:-1] <= indptr[1:])):
            raise ValueError(f"indptr must be {n + 1} nondecreasing integers from 0 to {indices.size}")
        rows = np.repeat(np.arange(n, dtype=np.int64), indptr[1:] - indptr[:-1])
        # _edge_codes refuses non-integers, out-of-range values and loops
        keys = _edge_keys(n, _edge_codes(n, np.stack([rows, indices], axis=1)))
        own = rows * n + indices.astype(np.int64)
        if not np.array_equal(own, keys):
            k = int(np.argmin(np.append(own[: len(keys)] == keys[: len(own)], False)))
            r, c = divmod(min(own[k : k + 1].tolist() + keys[k : k + 1].tolist()), n)
            raise ValueError(f"CSR entry ({r}, {c}) is missing, repeated or out of order")
        self.n, self.indptr, self.indices = n, indptr.astype(np.int64), indices.astype(np.int32)
        self.m = len(indices) // 2

    @classmethod
    def _from_csr(cls, n: int, indptr: np.ndarray, indices: np.ndarray) -> "Graph":
        """A graph on a canonical CSR with int64 indptr and int32 indices, unchecked."""
        g = cls.__new__(cls)
        g.n, g.indptr, g.indices, g.m = int(n), indptr, indices, len(indices) // 2
        return g

    def _vertex(self, v, what: str = "vertex") -> int:
        """v as an int in [0, n), refusing a value that is not an integer as _as_vertices does."""
        v = int(v if isinstance(v, (int, np.integer)) else _as_vertices(v))
        if not 0 <= v < self.n:
            raise ValueError(f"{what} out of range")
        return v

    def degrees(self) -> np.ndarray:
        return self.indptr[1:] - self.indptr[:-1]

    def neighbors(self, v: int) -> np.ndarray:
        v = self._vertex(v)
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        u, v = self._vertex(u, "edge endpoint"), self._vertex(v, "edge endpoint")
        row = self.indices[self.indptr[u] : self.indptr[u + 1]]
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    def edges(self) -> np.ndarray:
        """(m, 2) array of edges with u < v, sorted lexicographically."""
        rows = np.repeat(np.arange(self.n, dtype=np.int32), self.degrees())
        mask = rows < self.indices
        return np.column_stack([rows[mask], self.indices[mask]])

    def _locate(self, edges, present: bool):
        """Sorted CSR keys of the distinct edges and where they sit in this graph's keys.

        Raises for the first edge, in input order, that is not ``present``.
        """
        codes = _edge_codes(self.n, edges)
        keys = _edge_keys(self.n, codes)
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        # the sentinel n^2 lies above every key, so each lookup stays in range
        own = np.append(rows * self.n + self.indices, self.n * self.n)
        at = np.searchsorted(own, keys)
        bad = np.isin(codes, keys[(own[at] == keys) != present])
        if bad.any():
            u, v = divmod(int(codes[bad.argmax()]), self.n)
            raise ValueError(f"edge ({u}, {v}) {'not' if present else 'already'} present")
        return keys, at

    def add_edges(self, new_edges) -> "Graph":
        """A new graph with the given edges added (edges already present rejected)."""
        keys, at = self._locate(new_edges, present=False)
        indptr = self.indptr + np.searchsorted(keys, np.arange(self.n + 1) * self.n)
        return Graph._from_csr(self.n, indptr, np.insert(self.indices, at, keys % self.n))

    def remove_edges(self, gone_edges) -> "Graph":
        """A new graph with the given edges removed (absent edges rejected)."""
        keys, at = self._locate(gone_edges, present=True)
        indptr = self.indptr - np.searchsorted(keys, np.arange(self.n + 1) * self.n)
        return Graph._from_csr(self.n, indptr, np.delete(self.indices, at))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _edge_codes(n: int, edges) -> np.ndarray:
    """The int64 code min(u, v)*n + max(u, v) of each edge, in input order.

    Loops and endpoints that are not integers in [0, n) are rejected.
    """
    arr = _as_vertices(edges if isinstance(edges, np.ndarray) else list(edges))
    arr = arr.reshape(-1, 2)
    if np.any(arr < 0) or np.any(arr >= n):
        raise ValueError("edge endpoint out of range")
    loops = arr[:, 0] == arr[:, 1]
    if loops.any():
        raise ValueError(f"loop at vertex {int(arr[loops.argmax(), 0])} rejected")
    return _pair_codes(n, arr[:, 0], arr[:, 1])


def _pair_codes(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The int64 edge code of each pair (a[i], b[i]) of two integer arrays, unchecked."""
    return np.minimum(a, b).astype(np.int64, copy=False) * n + np.maximum(a, b)


def _edge_keys(n: int, codes: np.ndarray) -> np.ndarray:
    """The sorted, distinct CSR keys row*n + column of both entries of each edge code."""
    keys = np.concatenate([codes, codes % n * n + codes // n])
    keys.sort()
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    return keys[fresh]


def from_edges(n: int, edges) -> Graph:
    """Build a Graph from an edge iterable, deduplicating and validating.

    Loops, endpoints that are not integers in [0, n) and a negative n are rejected.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    keys = _edge_keys(n, _edge_codes(n, edges))
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return Graph._from_csr(n, indptr, (keys % n).astype(np.int32))


def _neighborhoods(g: Graph, vertices: np.ndarray) -> IncidenceStructure:
    """The family {N(v) : v in vertices} on the points of g, one line per vertex.

    Its point degrees are |N(w) ∩ X| for every w, and two of its lines meet
    exactly when their vertices share a neighbour.
    """
    sizes = g.indptr[vertices + 1] - g.indptr[vertices]
    ptr = np.concatenate([[0], np.cumsum(sizes)])
    return IncidenceStructure._from_csr(g.n, ptr, g.indices[_ranges(g.indptr[vertices], sizes)])


def _pair_counts(g: Graph, a: np.ndarray) -> tuple[int, int]:
    """(|P2 ∩ A|, |UP ∩ A|) for the sorted distinct vertices a of g.

    P2 ∩ A counts the 2-paths with both ends in A (middles unrestricted) and
    UP ∩ A the pairs of A with no common neighbour; for A = V(g) they are
    p2 = sum C(d(v), 2) and up.
    """
    fam = _neighborhoods(g, a)
    ends = fam.point_degrees().astype(np.int64)
    p2_a = int(np.sum(ends * (ends - 1) // 2))
    # two members of A share a neighbour exactly when their lines meet
    blocks = _codegree_blocks(fam.line_ptr, fam.line_idx)
    covered = sum(int(np.count_nonzero(c)) for *_, c, _ in blocks)
    return p2_a, len(a) * (len(a) - 1) // 2 - covered


def codegree(g: Graph, u: int, v: int) -> int:
    """Number of common neighbours of two distinct vertices (sorted merge)."""
    if u == v:
        raise ValueError("codegree requires two distinct vertices")
    return len(np.intersect1d(g.neighbors(u), g.neighbors(v), assume_unique=True))


def _check_counting_limits(g: Graph) -> None:
    if g.n > MAX_COUNT_N:
        raise ValueError(
            f"graph has {g.n} vertices; exact counting is certified only up to {MAX_COUNT_N}"
        )
    degs = g.degrees()
    if len(degs) and int(degs.max()) > MAX_COUNT_DEGREE:
        raise ValueError(
            f"maximum degree {int(degs.max())} exceeds the certified bound {MAX_COUNT_DEGREE}"
        )


def count_c4(g: Graph) -> int:
    """Exact 4-cycle count: sum C(c, 2) over pairs s < x, c their common neighbours above s."""
    _check_counting_limits(g)
    # each block adds sum C(c, 2) = (c.c - sum c) / 2, and sum c is its wedge count
    blocks = _codegree_blocks(g.indptr, g.indices, least=True)
    return sum(int(np.dot(c, c) - wedges) // 2 for *_, c, wedges in blocks)


@lru_cache(maxsize=None)
def _quadruples(n: int) -> np.ndarray:
    """The vertex quadruples a < b < c < d of range(n), one read-only uint8 row each.

    Cached per n <= MAX_BRUTEFORCE_N; all 61 arrays for n = 4..64 together
    take 4*C(65, 5) bytes, at most 33 MB.
    """
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), 4))
    quads = np.fromiter(flat, dtype=np.uint8, count=4 * math.comb(n, 4)).reshape(-1, 4)
    quads.flags.writeable = False
    return quads


def count_c4_bruteforce(g: Graph) -> int:
    """Oracle count: enumerate all vertex quadruples on a dense boolean matrix."""
    if g.n > MAX_BRUTEFORCE_N:
        raise ValueError(f"brute force capped at {MAX_BRUTEFORCE_N} vertices")
    if g.n < 4:
        return 0
    adj = np.zeros((g.n, g.n), dtype=bool)
    e = g.edges()
    adj[e[:, 0], e[:, 1]] = True
    adj[e[:, 1], e[:, 0]] = True
    quads = _quadruples(g.n)
    a, b, c, d = quads[:, 0], quads[:, 1], quads[:, 2], quads[:, 3]
    ab, ac, ad = adj[a, b], adj[a, c], adj[a, d]
    bc, bd, cd = adj[b, c], adj[b, d], adj[c, d]
    # the three cyclic orderings of each quadruple
    total = int(np.sum(ab & bc & cd & ad))
    total += int(np.sum(ab & bd & cd & ac))
    total += int(np.sum(ac & bc & bd & ad))
    return total


def _c4_through_edge(g: Graph, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (x, y): the paths v-x-y-u of g, one per entry.

    They are the 4-cycles u-v-x-y-u that uv closes, in g + uv if uv is not an edge,
    listed with x ascending over N(v) - u and y ascending within N(x).  The rows
    N(x) are gathered by one position array; y is tested for membership in
    N(u) - v by reading a boolean mark over the vertices, set from N(u) with v
    cleared.  So a query costs O(d(v) + sum of d(x)) = O(d^2) vector work and
    O(n) to zero the mark, in a fixed number of numpy calls.
    """
    xs = g.neighbors(v)
    xs = xs[xs != u]
    starts = g.indptr.take(xs)
    n_end = g.indptr.take(xs + 1) - starts
    ys = g.indices.take(_ranges(starts, n_end))
    mark = np.zeros(g.n, dtype=bool)
    mark[g.neighbors(u)] = True
    mark[v] = False
    keep = mark.take(ys)
    return np.repeat(xs, n_end)[keep], ys[keep]


def c4_through_edge(g: Graph, u: int, v: int):
    """All 4-cycles through the edge (u, v).

    Returns (count, cycles) where each cycle is the ordered quadruple
    (u, v, x, y) with edges uv, vx, xy, yu; ``cycles`` is None when the count
    exceeds the materialization cap.
    """
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    u, v = int(u), int(v)
    xs, ys = _c4_through_edge(g, u, v)
    if len(xs) > CYCLE_LIST_CAP:
        return len(xs), None
    return len(xs), [(u, v, x, y) for x, y in zip(xs.tolist(), ys.tolist())]


@dataclass
class GraphStats:
    """Degree and pair statistics of a graph relative to a target order q."""

    n: int
    m: int
    q: int
    degrees: np.ndarray
    degree_histogram: dict[int, int]
    s_below: np.ndarray  # vertices of degree <= q
    f_values: np.ndarray  # per-vertex deficiency max(q + 1 - d(v), 0)
    f_total: int
    p2: int
    up: int


def graph_stats(g: Graph, q: int) -> GraphStats:
    _check_counting_limits(g)
    degs = g.degrees().astype(np.int64)
    histogram = {int(d): int(c) for d, c in enumerate(np.bincount(degs)) if c}
    f_values = np.maximum(q + 1 - degs, 0)
    p2, up = _pair_counts(g, np.arange(g.n))
    return GraphStats(
        n=g.n,
        m=g.m,
        q=q,
        degrees=degs,
        degree_histogram=histogram,
        s_below=np.flatnonzero(degs <= q),
        f_values=f_values,
        f_total=int(f_values.sum()),
        p2=p2,
        up=up,
    )


def claim_c4_inequality(g: Graph, a_set) -> dict:
    """Both sides of the four-cycle lower bound from restricted pair counts.

    lhs = 2 * count_c4(g); rhs = |P2 ∩ A| + |UP ∩ A| - C(|A|, 2), where
    P2 ∩ A counts 2-paths whose two endpoints both lie in A (middles are
    unrestricted) and UP ∩ A counts uncovered pairs inside A.
    """
    a = np.unique(_as_vertices(list(a_set)))
    if len(a) and (a[0] < 0 or a[-1] >= g.n):
        raise ValueError("A contains a vertex outside the graph")
    p2_a, up_a = _pair_counts(g, a)
    pairs_a = len(a) * (len(a) - 1) // 2
    lhs = 2 * count_c4(g)
    rhs = p2_a + up_a - pairs_a
    return {
        "lhs": lhs,
        "rhs": rhs,
        "holds": lhs >= rhs,
        "p2_a": p2_a,
        "up_a": up_a,
        "a_pairs": pairs_a,
    }


@dataclass
class NeighborhoodFamily:
    s: np.ndarray  # vertices of degree <= q
    b: np.ndarray  # vertices with many neighbours in S
    a: np.ndarray  # degree-(q+1) vertices outside B
    family: IncidenceStructure
    one_intersecting: bool
    witness: tuple | None
    size: int


def neighborhood_family(g: Graph, q: int, delta: float = 0.25) -> NeighborhoodFamily:
    """The family of neighbourhoods used to rebuild plane structure.

    S is the set of vertices of degree at most q, B the vertices with at
    least delta*q neighbours in S, A the degree-(q+1) vertices outside B.
    Returns {N(x) : x in A} as an incidence structure together with its
    1-intersecting verdict.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and positive, not {delta}")
    degs = g.degrees().astype(np.int64)
    s_idx = np.flatnonzero(degs <= q)
    many = _neighborhoods(g, s_idx).point_degrees() >= delta * q
    b_idx = np.flatnonzero(many)
    a_idx = np.flatnonzero((degs == q + 1) & ~many)
    fam = _neighborhoods(g, a_idx)
    ok, witness = is_one_intersecting(fam)
    return NeighborhoodFamily(
        s=s_idx,
        b=b_idx,
        a=a_idx,
        family=fam,
        one_intersecting=ok,
        witness=witness,
        size=fam.n_lines,
    )


def convexity_bound(a_values, k: int, r: int) -> dict:
    """Both sides of the convexity bound sum C(a_i, 2) >= m*C(k, 2) + r*k.

    Preconditions: the a_i are nonnegative integers, m = len(a) and k are
    positive, r >= -m, and sum(a) >= k*m + r.
    """
    a = [int(x) for x in a_values]
    m = len(a)
    if m <= 0 or k <= 0:
        raise ValueError("m and k must be positive")
    if any(x < 0 for x in a):
        raise ValueError("sequence entries must be nonnegative")
    if r < -m:
        raise ValueError("r must be at least -m")
    total = sum(a)
    if total < k * m + r:
        raise ValueError(f"sum {total} is below k*m + r = {k * m + r}")
    lhs = sum(x * (x - 1) // 2 for x in a)
    rhs = m * (k * (k - 1) // 2) + r * k
    return {"lhs": lhs, "rhs": rhs, "holds": lhs >= rhs, "m": m}


# ---------------------------------------------------------------------------
# edge-list serialization


def write_edge_list(g: Graph, path: str) -> None:
    """Canonical export: one `u v` line per edge, numerically sorted, u < v.

    The upper entries (u, v > u) are written straight from the CSR, whole rows
    of about _WRITE_BLOCK entries at a time.
    """
    with open(path, "wb") as fh:
        for lo, hi in _row_blocks(g.indptr):
            v = g.indices[g.indptr[lo] : g.indptr[hi]]
            u = np.repeat(np.arange(lo, hi), g.indptr[lo + 1 : hi + 1] - g.indptr[lo:hi])
            upper = u < v
            pairs = np.column_stack([u[upper], v[upper]])
            _write_rows(fh, np.arange(0, pairs.size + 1, 2), pairs.ravel())


def read_edge_list(path: str, n: int | None = None) -> Graph:
    """Parse an edge list; `#` comments and blank lines allowed.

    Vertex count defaults to max endpoint + 1; pass n for graphs with
    trailing isolated vertices.
    """
    with open(path, "rb") as fh:
        edges = _read_rows(_Lines(fh), width=2, name="edge")[1].reshape(-1, 2)
    size = int(edges.max(initial=-1)) + 1 if n is None else n
    return from_edges(size, edges)
