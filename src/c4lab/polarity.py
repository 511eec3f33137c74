"""Polarities of projective planes and their graphs.

A polarity pairs point i with line sigma(i) so that incidence is preserved in
both directions; equivalently, the row-permuted incidence matrix is symmetric.
The polarity graph joins distinct points x, y whenever x lies on sigma(y); with
the standard bilinear form this is the classical C4-free construction meeting
the Turán bound for 4-cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

from c4lab.field import FieldSpec, spec_for_order
from c4lab.graph import Graph, _neighborhoods, count_c4
from c4lab.plane import ProjectivePlane, _Lines, _as_vertices, _first_row, _ranges, _read_rows
from c4lab.plane import _transpose, _write_rows
from c4lab.plane import build_pg2


class Polarity:
    """A point-line pairing of a plane, stored as the permutation sigma."""

    def __init__(self, plane: ProjectivePlane, sigma):
        sigma = _as_vertices(sigma)
        n = plane.n_points
        if plane.n_lines != n:
            raise ValueError("polarity needs equally many points and lines")
        if sigma.shape != (n,):
            raise ValueError(f"sigma must have length {n}")
        if np.any(sigma < 0) or np.any(sigma >= n):
            raise ValueError("sigma value out of range")
        if not np.bincount(sigma, minlength=n).all():
            raise ValueError("sigma is not a permutation")
        self.plane = plane
        self.sigma = sigma
        self.q = plane.q

    def __repr__(self):
        return f"Polarity(q={self.q})"


@dataclass
class PolarityVerdict:
    ok: bool
    witness: tuple[int, int] | None

    def __bool__(self):
        return self.ok


def orthogonal_polarity(spec: FieldSpec) -> Polarity:
    """The standard-form polarity: point [a:b:c] pairs with line ax+by+cz=0.

    Under the canonical triple indexing, points and lines with equal index
    carry the same triple, so sigma is the identity permutation.
    """
    plane = build_pg2(spec)
    return Polarity(plane, np.arange(plane.n_points, dtype=np.int64))


def _paired_incidences(pi: Polarity):
    """Rows and columns of the paired incidence matrix, and its first asymmetry.

    Entry (i, p) means p lies on line sigma(i); rows ascend, each with its
    points ascending, and so do those of its transpose.  The matrix is
    symmetric exactly when their row-major entry lists are equal; up to their
    first mismatch they agree, and there the smaller entry is the first (i, p)
    in row-major order whose mirror is missing (None when symmetric).
    """
    ptr = pi.plane.line_ptr
    sizes = np.diff(ptr)[pi.sigma]
    n = len(sizes)
    cols = pi.plane.line_idx[_ranges(ptr[pi.sigma], sizes)]
    back_ptr, back_idx = _transpose(np.concatenate([[0], np.cumsum(sizes)]), cols, n)[:2]
    rows = np.repeat(np.arange(n, dtype=np.int32), sizes)
    back_rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(back_ptr))
    differ = np.flatnonzero((rows != back_rows) | (cols != back_idx))
    if len(differ) == 0:
        return rows, cols, None
    k = differ[0]
    return rows, cols, min((int(rows[k]), int(cols[k])), (int(back_rows[k]), int(back_idx[k])))


def verify_polarity(pi: Polarity) -> PolarityVerdict:
    """Pass iff the paired incidence matrix is symmetric.

    On failure the witness is the first entry (i, j) in row-major order that
    is present in exactly one of the matrix and its transpose.
    """
    witness = _paired_incidences(pi)[2]
    return PolarityVerdict(witness is None, witness)


@dataclass(frozen=True)
class PolarityGraph:
    """A polarity graph and its absolute points; C4-free by the theorem in polarity_graph.

    Frozen, so that a cached ``c4_count`` always belongs to ``graph``.
    """

    q: int
    graph: Graph
    absolute_points: np.ndarray
    a: int  # number of absolute points
    m_pi: int  # a = q + 1 + m_pi * sqrt(q)
    polarity: Polarity

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def edge_count(self) -> int:
        return self.graph.m

    @cached_property
    def c4_count(self) -> int:
        """count_c4 of the graph: one real scan on first read, kept for this object."""
        return count_c4(self.graph)

    def __repr__(self):
        return f"PolarityGraph(q={self.q}, n={self.n}, m={self.edge_count})"


def _m_pi_of(q: int, a: int) -> int:
    """Solve a = q + 1 + m*sqrt(q) for a nonnegative integer m."""
    excess = a - (q + 1)
    if excess == 0:
        return 0
    root = isqrt(q)
    if root * root != q or excess < 0 or excess % root:
        raise ValueError(
            f"Baer violation: {a} absolute points cannot equal q+1+m*sqrt(q) for q={q}"
        )
    return excess // root


def polarity_graph(pi: Polarity) -> PolarityGraph:
    """Build the simple graph x~y iff x in sigma(y), x != y.

    It is C4-free by a theorem: the common neighbours of x != y lie on the
    lines sigma(x) != sigma(y), which meet in one point of a projective plane.
    The release gate audits the premise and counts the 4-cycles (criteria 1,
    2 and 7); no pair scan runs here.  Asserted, in O(nnz): the pairing's
    symmetry, the Baer count, degrees in {q, q+1} with q exactly at absolute
    points, and the edge-count formula.  The graph's arrays and the absolute
    points are read-only, so a cached ``c4_count`` cannot go stale.
    """
    rows, cols, witness = _paired_incidences(pi)
    if witness is not None:
        raise ValueError(f"not a polarity: asymmetric at {witness}")
    q = pi.q
    absolute = rows[rows == cols].astype(np.int64)
    a = len(absolute)
    m_pi = _m_pi_of(q, a)

    # the verified matrix is symmetric, its rows and their points ascending,
    # so its off-diagonal entries are the graph's CSR
    n = pi.plane.n_points
    off = rows != cols
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[off], minlength=n))])
    g = Graph._from_csr(n, indptr, cols[off].astype(np.int32))

    degs = g.degrees()
    expected = np.full(g.n, q + 1, dtype=np.int64)
    expected[absolute] = q
    if not np.array_equal(degs, expected):
        bad = int(np.flatnonzero(degs != expected)[0])
        raise AssertionError(
            f"degree invariant broken at vertex {bad}: {degs[bad]} != {expected[bad]}"
        )
    if 2 * g.m != q * (q + 1) ** 2 - m_pi * isqrt(q):
        raise AssertionError(
            f"edge count {g.m} violates the polarity-graph formula for q={q}"
        )
    for arr in (g.indptr, g.indices, absolute):
        arr.flags.writeable = False
    return PolarityGraph(
        q=q, graph=g, absolute_points=absolute, a=a, m_pi=m_pi, polarity=pi
    )


def special_vertex_w(pg: PolarityGraph) -> int:
    """The unique non-absolute vertex adjacent to every degree-q vertex.

    Exists for even orthogonal orders; found by one pass over the
    neighbourhoods of the degree-q vertices, with a uniqueness check.
    """
    if pg.q % 2 == 1:
        raise ValueError("odd order")
    if pg.m_pi != 0:
        raise ValueError("not orthogonal")
    g = pg.graph
    degs = g.degrees()
    s_q = np.flatnonzero(degs == pg.q)
    # N(v) == S_q: degree q + 1 = |S_q| and every neighbour in S_q
    in_s_q = _neighborhoods(g, s_q).point_degrees()
    matches = np.flatnonzero((degs == pg.q + 1) & (degs == len(s_q)) & (in_s_q == degs))
    if len(matches) != 1:
        raise ValueError(f"not found / not unique: {len(matches)} candidates")
    return int(matches[0])


def degree_q_independence(g, q: int | None = None) -> tuple[bool, tuple | None]:
    """Pass iff the vertices of degree exactly q form an independent set.

    Accepts a PolarityGraph (q implied) or any Graph with q given.  The
    witness is the first offending edge in lexicographic order.
    """
    if isinstance(g, PolarityGraph):
        q = g.q
        g = g.graph
    if q is None:
        raise ValueError("q is required for a plain graph")
    mask = g.degrees() == q
    e = g.edges()
    bad = mask[e[:, 0]] & mask[e[:, 1]]
    hits = np.flatnonzero(bad)
    if len(hits):
        u, v = e[hits[0]]
        return False, (int(u), int(v))
    return True, None


# ---------------------------------------------------------------------------
# serialization


def write_polarity(pi: Polarity, path: str) -> None:
    """Header `q <val>`, then one sigma index per line."""
    with open(path, "wb") as fh:
        fh.write(f"q {pi.q}\n".encode())
        _write_rows(fh, np.arange(len(pi.sigma) + 1), pi.sigma)


def read_polarity(path: str) -> Polarity:
    """Parse the `q` header and sigma; the plane is rebuilt from its order."""
    with open(path, "rb") as fh:
        lines = _Lines(fh)
        header = _first_row(lines)[1]
        if len(header) != 2 or header[0] != "q":
            raise ValueError("missing `q <val>` header")
        q = int(header[1])
        sigma = _read_rows(lines, width=1, name="sigma")[1]
    if len(sigma) != q * q + q + 1:  # before a bad file costs a whole plane
        raise ValueError(f"sigma must have length {q * q + q + 1}")
    plane = build_pg2(spec_for_order(q))
    return Polarity(plane, sigma)
