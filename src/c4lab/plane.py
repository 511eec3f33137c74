"""Incidence structures, projective planes PG(2, q), and their verifiers.

Points of PG(2, q) are normalized homogeneous triples over GF(q) (first
nonzero coordinate equal to 1), indexed by lexicographic enumeration:
index 0 is [0:0:1], indices 1..q are [0:1:c], and index 1+q+b*q+c is [1:b:c],
where b, c are canonical field element indices.  Lines use the same triple
indexing; the line [a:b:c] is the set of points with a*x + b*y + c*z = 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from c4lab.field import FieldSpec


def _as_vertices(values) -> np.ndarray:
    """The values as int64 vertices or points, rejecting any that is not an integer."""
    raw = np.asarray(values)
    with np.errstate(invalid="ignore"):  # NaN and infinities fail the check below
        arr = raw.astype(np.int64, copy=False)
    fractional = (arr != raw) & (raw.dtype.kind not in "biu")
    if fractional.any():
        raise ValueError(f"vertex {raw[fractional][0].item()!r} is not an integer")
    return arr


def _line_csr(n_points: int, sizes, points) -> tuple[np.ndarray, np.ndarray]:
    """The CSR (line_ptr, line_idx) of lines given by their sizes and their points in turn.

    Each line comes out sorted.  The first line with a point that is not an
    integer, lies outside [0, n_points) or repeats is rejected, in that order.
    A point of 2**31 or more, which the int32 ``line_idx`` cannot hold, is out
    of range whatever n_points is.
    """
    if n_points < 0:
        raise ValueError("n_points must be nonnegative")
    line_ptr = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    raw = np.asarray(points)
    with np.errstate(invalid="ignore"):  # _as_vertices below rejects what this truncates
        pts = raw.astype(np.int64, copy=False)
    # only lines before the first with a point out of range are sorted
    out = np.flatnonzero((pts < 0) | (pts >= min(n_points, 2**31)))
    i = int(np.searchsorted(line_ptr, out[0], side="right")) - 1 if len(out) else len(sizes)
    base = int(pts[: line_ptr[i]].max(initial=-1)) + 1
    # keys row*base + point, sorted in place: rows stay in place, each one sorted
    keys = np.repeat(np.arange(i, dtype=np.int64) * base, np.diff(line_ptr[: i + 1]))
    keys += pts[: line_ptr[i]]
    keys.sort()
    dup = np.flatnonzero(keys[1:] == keys[:-1])
    if len(dup):
        i = int(keys[dup[0]]) // base
    # only a line with a non-integer point can be bad by truncation alone
    _as_vertices(raw[: line_ptr[min(i + 1, len(sizes))]])
    if len(dup):
        raise ValueError(f"line {i} contains a duplicate point")
    if len(out):
        raise ValueError(f"line {i} has a point index out of range")
    keys -= np.repeat(np.arange(i, dtype=np.int64) * base, np.diff(line_ptr))
    return line_ptr, keys.astype(np.int32)


class IncidenceStructure:
    """A finite hypergraph: lines are sorted, duplicate-free point index sets."""

    def __init__(self, n_points: int, lines: Iterable[Iterable[int]]):
        rows = [list(line) for line in lines]
        points = list(itertools.chain.from_iterable(rows))
        self._adopt(n_points, *_line_csr(n_points, [len(r) for r in rows], points))

    def _adopt(self, n_points: int, line_ptr: np.ndarray, line_idx: np.ndarray) -> None:
        self.n_points = int(n_points)
        self.line_ptr = line_ptr
        self.line_idx = line_idx
        self._p2l: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def _from_csr(cls, n_points: int, line_ptr: np.ndarray, line_idx: np.ndarray):
        obj = cls.__new__(cls)
        obj._adopt(n_points, line_ptr, line_idx)
        return obj

    @property
    def n_lines(self) -> int:
        return len(self.line_ptr) - 1

    def line(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n_lines:
            raise ValueError("line index out of range")
        return self.line_idx[self.line_ptr[i] : self.line_ptr[i + 1]]

    def lines(self) -> list[np.ndarray]:
        return [self.line(i) for i in range(self.n_lines)]

    def line_sizes(self) -> np.ndarray:
        return np.diff(self.line_ptr)

    def _transpose(self) -> tuple[np.ndarray, np.ndarray]:
        if self._p2l is None:
            self._p2l = _transpose(self.line_ptr, self.line_idx, self.n_points)[:2]
        return self._p2l

    def point_lines(self, p: int) -> np.ndarray:
        """Indices of the lines through point p, ascending."""
        if not 0 <= p < self.n_points:
            raise ValueError("point index out of range")
        ptr, idx = self._transpose()
        return idx[ptr[p] : ptr[p + 1]]

    def point_degrees(self) -> np.ndarray:
        return np.bincount(self.line_idx, minlength=self.n_points)

    def line_set(self) -> set[frozenset]:
        return {frozenset(int(p) for p in self.line(i)) for i in range(self.n_lines)}

    def __eq__(self, other):
        return (
            isinstance(other, IncidenceStructure)
            and self.n_points == other.n_points
            and np.array_equal(self.line_ptr, other.line_ptr)
            and np.array_equal(self.line_idx, other.line_idx)
        )

    def __repr__(self):
        return f"IncidenceStructure(points={self.n_points}, lines={self.n_lines})"


class ProjectivePlane(IncidenceStructure):
    """PG(2, q) with its field kept around for coordinate work."""

    def __init__(self, spec: FieldSpec, line_ptr: np.ndarray, line_idx: np.ndarray):
        self.spec = spec
        self.q = spec.q
        self._adopt(spec.q**2 + spec.q + 1, line_ptr, line_idx)

    def __repr__(self):
        return f"ProjectivePlane(q={self.q})"


# ---------------------------------------------------------------------------
# construction


def triple_of_index(q: int, i: int) -> tuple[int, int, int]:
    """Normalized homogeneous triple (field element indices) for point/line i."""
    if i == 0:
        return (0, 0, 1)
    if i <= q:
        return (0, 1, i - 1)
    r = i - q - 1
    return (1, r // q, r % q)


def _decode_triples(q: int, n: int):
    i = np.arange(n, dtype=np.int64)
    a = np.where(i > q, 1, 0)
    b = np.where(i > q, (i - q - 1) // q, np.where(i >= 1, 1, 0))
    c = np.where(i > q, (i - q - 1) % q, np.where(i >= 1, i - 1, 1))
    return a, b, c


def _normalize_to_index(spec: FieldSpec, w0, w1, w2) -> np.ndarray:
    """Vectorized: scale triples so the first nonzero coordinate is 1, then index."""
    q = spec.q
    m0 = w0 != 0
    m1 = (~m0) & (w1 != 0)
    m2 = (~m0) & (~m1)
    scale = np.where(m0, w0, np.where(m1, w1, 1))
    inv = spec.vinv(scale)
    y = spec.vmul(w1, inv)
    z = spec.vmul(w2, inv)
    out = np.where(
        m0,
        1 + q + y * q + z,
        np.where(m1, 1 + z, 0),
    )
    if np.any(m2 & (w2 == 0)):
        raise ValueError("zero triple cannot be normalized")
    return out


def build_pg2(spec: FieldSpec) -> ProjectivePlane:
    """The Desarguesian projective plane of order q = spec.q.

    Each line's point set is solved directly from a kernel basis (u, v) of
    its defining linear form: the points are u and v + t*u for the q field
    elements t, one vectorized pass over all lines per t.  Every field
    operation is a gather from the field's q*q tables.
    """
    q = spec.q
    n = q * q + q + 1
    a, b, c = _decode_triples(q, n)
    zero = np.zeros(n, dtype=np.int64)
    one = np.ones(n, dtype=np.int64)

    # kernel basis (u, v) of a*x + b*y + c*z = 0, by leading coordinate; u's
    # third coordinate is always zero, so v + t*u keeps v's
    ma = a != 0
    mb = (~ma) & (b != 0)
    safe_a = np.where(ma, a, 1)
    safe_b = np.where(mb, b, 1)
    inv_a = spec.vinv(safe_a)
    inv_b = spec.vinv(safe_b)

    u0 = np.where(ma, spec.vmul(spec.vneg(b), inv_a), one)
    u1 = np.where(ma, one, zero)
    v0 = np.where(ma, spec.vmul(spec.vneg(c), inv_a), zero)
    v1 = np.where(ma, zero, np.where(mb, spec.vmul(spec.vneg(c), inv_b), one))
    v2 = np.where(ma | mb, one, zero)

    pts = np.empty((n, q + 1), dtype=np.int32)
    pts[:, 0] = _normalize_to_index(spec, u0, u1, zero)
    for t in range(q):
        w0 = spec.vadd(v0, spec.vmul(t, u0))
        w1 = spec.vadd(v1, spec.vmul(t, u1))
        pts[:, t + 1] = _normalize_to_index(spec, w0, w1, v2)
    pts.sort(axis=1)

    line_ptr = np.arange(0, (n + 1) * (q + 1), q + 1, dtype=np.int64)
    return ProjectivePlane(spec, line_ptr, pts.ravel())


# ---------------------------------------------------------------------------
# wedge enumeration: the one primitive behind every exact pair scan

# bound on the wedges of one block and on the entries of a dense block; at 2^17
# a block's temporaries peak at 2 MB traced at q = 64 and 128 (8 MB at 2^19)
_BLOCK_SIZE = 1 << 17
# a block is reduced by sorting its wedge codes, not by a dense bincount, when
# it has fewer than 1/_SPARSE_RATIO as many wedges as dense entries
_SPARSE_RATIO = 16


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + k) over the pairs (s, k)."""
    # position j of pair i reads s_i + j - (ends_i - k_i), with ends the running sums of k
    ends = np.cumsum(lengths)
    out = np.arange(ends[-1] if len(ends) else 0)
    ends -= lengths + starts
    out -= np.repeat(ends, lengths)
    return out


def _twin(idx) -> np.ndarray:
    """Where each entry k = (r, c) of a CSR with sorted rows sits in row c of its transpose.

    Sorting the keys c*nnz + k gives the stable order by column, so transposed rows stay
    sorted; sorting order*nnz + position inverts it.  Keys stay below max(max(idx) + 1, nnz)*nnz.
    """
    nnz = len(idx)
    pos = np.arange(nnz)
    twin = idx.astype(np.int64)
    # sorting in place keeps at most two int64 arrays of nnz entries alive
    for _ in range(2):
        twin *= nnz
        twin += pos
        twin.sort()
        twin %= nnz
    return twin


def _transpose(ptr, idx, n_cols):
    """The transpose (back_ptr, back_idx), max(n_cols, max(idx) + 1) rows, and _twin(idx)."""
    twin = _twin(idx)
    back_ptr = np.concatenate([[0], np.cumsum(np.bincount(idx, minlength=n_cols))])
    back_idx = np.empty(len(idx), dtype=np.int32)
    back_idx[twin] = np.repeat(np.arange(len(ptr) - 1, dtype=np.int32), ptr[1:] - ptr[:-1])
    return back_ptr, back_idx, twin


def _codegree_blocks(ptr, idx, least=False):
    """Yield (lo, hi, codes, c, wedges) covering the rows lo:hi of one CSR in turn.

    The CSR has sorted rows: a simple graph or the lines of an incidence
    structure.  Rows s and x share as many columns as there are wedges
    s -> w -> x, w in row s and x in row w of the transpose.  Only the upper
    triangle x > s of this symmetric codegree matrix is counted; those ends
    start one past the twin of the entry (s, w).

    With ``least`` the CSR is a graph, which is its own transpose: the kernel
    reads ptr/idx as the transpose, derives only ``twin`` and takes only the
    middles w > s.  Then c(s, x) counts the common neighbours above s, so the
    sum of C(c, 2) counts each 4-cycle once, from its least vertex s and its
    vertex x opposite s.  The CSR must be symmetric, with sorted distinct rows
    and no loops; ``Graph(...)`` guarantees this, so it is not checked here.

    A block covers the columns lo:n, n = len(ptr) - 1, since x > s >= lo;
    the pair (s, x) has the block code (s - lo)*(n - lo) + x - lo.
    A block holds at most _BLOCK_SIZE wedges (a single row may exceed this)
    and comes in the form it was counted in: ``codes`` is None and ``c`` is
    the dense bincount of all (hi - lo)*(n - lo) codes, zeros included, at
    most _BLOCK_SIZE entries; or, when its wedges are much fewer than its
    dense entries, ``codes`` are the ascending codes of the covered pairs and
    ``c`` their counts, all >= 1.  Sums and maxima over ``c`` read either form
    alike, and ``wedges`` is the sum of ``c``; ``_listing`` gives the pairs.
    """
    n = len(ptr) - 1
    back_ptr, back_idx, twin = (ptr, idx, _twin(idx)) if least else _transpose(ptr, idx, 0)
    # the wedges before each row, in one int64 array of nnz + 1 entries: take
    # reads each column as an index before it writes that column's degree over
    # it; every index is in range, and mode "raise" would copy ``out``
    reach = np.zeros(len(idx) + 1, dtype=np.int64)
    reach[1:] = idx
    np.take(back_ptr[1:] - back_ptr[:-1], reach[1:], out=reach[1:], mode="clip")
    reach = np.cumsum(reach, out=reach)[ptr]
    lo = 0
    while lo < n:
        # bound the block by all its wedges, upper or not
        hi = int(np.searchsorted(reach, reach[lo] + _BLOCK_SIZE, side="right")) - 1
        hi = max(hi, lo + 1)
        width = n - lo
        sparse = int(reach[hi] - reach[lo]) * _SPARSE_RATIO < (hi - lo) * width
        if not sparse:
            hi = min(hi, lo + max(1, _BLOCK_SIZE // width))
        n_mid = ptr[lo + 1 : hi + 1] - ptr[lo:hi]
        mids = idx[ptr[lo] : ptr[hi]]
        first = twin[ptr[lo] : ptr[hi]] + 1
        n_end = back_ptr[mids + 1] - first
        rows = np.repeat(np.arange(hi - lo), n_mid)
        if least:
            n_end[mids <= rows + lo] = 0  # no middle w <= s (a graph has no loops)
        ends = back_idx[_ranges(first, n_end)]
        codes = np.repeat(rows * width - lo, n_end)
        codes += ends
        if sparse:
            yield lo, hi, *np.unique(codes, return_counts=True), len(codes)
        else:
            yield lo, hi, None, np.bincount(codes, minlength=(hi - lo) * width), len(codes)
        lo = hi


def _listing(lo: int, n_cols: int, codes, c: np.ndarray):
    """The covered pairs of a block from ``_codegree_blocks`` as (i, x, c).

    n_cols is the CSR's row count, so the block covers the columns lo:n_cols.
    Row-major order; i indexes the kernel's source rows and every c is >= 1.
    """
    if codes is None:
        codes = np.flatnonzero(c)
        c = c[codes]
    i, x = np.divmod(codes, n_cols - lo)
    return i + lo, x + lo, c


# ---------------------------------------------------------------------------
# verification


@dataclass
class PlaneVerdict:
    ok: bool
    order: int | None = None
    axiom: str | None = None
    witness: tuple | None = None
    detail: str = ""


def _infer_order(n: int) -> int | None:
    # n == q^2 + q + 1  <=>  4n - 3 == (2q + 1)^2
    s = math.isqrt(4 * n - 3) if n >= 1 else 0
    if s * s != 4 * n - 3 or s < 3:
        return None
    return (s - 1) // 2


def _one_meet_audit(ptr, idx):
    """Check that every two rows of a CSR share exactly one column.

    Returns ``(True, None)`` or ``(False, (i, j, count))`` for the first
    violating pair in row-major order (count 0 marks a missing pair).  By
    symmetry that pair has i < j.
    """
    n = len(ptr) - 1
    for lo, hi, codes, c, _ in _codegree_blocks(ptr, idx):
        left = n - 1 - np.arange(lo, hi)  # the pairs (r, j > r) of each row
        if np.count_nonzero(c) == left.sum() and c.max(initial=1) == 1:
            continue
        i, x, c = _listing(lo, n, codes, c)
        found = []
        heavy = np.flatnonzero(c != 1)
        if len(heavy):
            k = heavy[0]
            found.append((int(i[k]), int(x[k]), int(c[k])))
        met = np.bincount(i - lo, minlength=hi - lo)
        short = np.flatnonzero(met < left)
        if len(short):
            r = lo + int(short[0])
            seen = np.zeros(n - r, dtype=bool)
            seen[0] = True
            seen[x[i == r] - r] = True
            found.append((r, r + int(np.argmin(seen)), 0))
        if found:
            return False, min(found)
    return True, None


def verify_projective_plane(s: IncidenceStructure) -> PlaneVerdict:
    """Run the plane axioms in a fixed order, stopping at the first failure.

    Order: point/line counts of the form q^2+q+1; line uniformity q+1; point
    regularity q+1; every pair of lines meets in exactly one point.  These
    force the dual axiom, that every pair of points lies on exactly one line:
    the q+1 lines through a point p meet pairwise only in p, so they cover
    1 + (q+1)q = q^2+q+1 points, each point other than p exactly once.
    """
    n, L = s.n_points, s.n_lines
    q = _infer_order(n)
    if q is None or L != n:
        return PlaneVerdict(
            False,
            axiom="counts",
            witness=(n, L),
            detail=f"need lines == points == q^2+q+1, got {n} points, {L} lines",
        )
    sizes = s.line_sizes()
    bad = np.flatnonzero(sizes != q + 1)
    if len(bad):
        i = int(bad[0])
        return PlaneVerdict(
            False,
            order=q,
            axiom="uniformity",
            witness=(i, int(sizes[i])),
            detail=f"line {i} has {int(sizes[i])} points, expected {q + 1}",
        )
    degs = s.point_degrees()
    bad = np.flatnonzero(degs != q + 1)
    if len(bad):
        p = int(bad[0])
        return PlaneVerdict(
            False,
            order=q,
            axiom="regularity",
            witness=(p, int(degs[p])),
            detail=f"point {p} lies on {int(degs[p])} lines, expected {q + 1}",
        )
    ok, witness = _one_meet_audit(s.line_ptr, s.line_idx)
    if not ok:
        i, j, count = witness
        return PlaneVerdict(
            False,
            order=q,
            axiom="line-intersections",
            witness=(i, j, count),
            detail=f"lines {i} and {j} share {count} points, expected 1",
        )
    return PlaneVerdict(True, order=q, detail=f"projective plane of order {q}")


def is_one_intersecting(s: IncidenceStructure) -> tuple[bool, tuple | None]:
    """Whether every pair of lines shares exactly one point.

    Returns (True, None) or (False, (i, j, count)) for the first violating
    line pair (count 0 for disjoint lines, >= 2 for doubly meeting ones).
    """
    return _one_meet_audit(s.line_ptr, s.line_idx)


# ---------------------------------------------------------------------------
# growing a 1-intersecting family


def extend_one_intersecting(
    h: IncidenceStructure, new_lines: Sequence[Iterable[int]]
) -> tuple[IncidenceStructure, dict[int, dict]]:
    """Add lines to a uniform 1-intersecting family, certifying each addition.

    ``h`` must be a (q+1)-uniform 1-intersecting family on q^2+q+1 points.
    A new line f is admitted when some point u of f carries exactly q family
    lines whose intersection with f is only u; those q lines together with f
    then cover every point, which forces the extended family to stay
    1-intersecting.  Raises ValueError("no witness sunflower ...") when no
    point of f works, and AssertionError mentioning "hypothesis violated" if
    the certified addition ever fails re-verification (a bug guard).

    Returns the extended structure and, per new-line position, a dict with
    the witnessing point ``u`` and the ``through`` line indices (indices into
    the family as it stood when that line was added).
    """
    sizes = h.line_sizes()
    if h.n_lines == 0 or len(set(int(x) for x in sizes)) != 1:
        raise ValueError("family must be nonempty and uniform")
    q = int(sizes[0]) - 1
    if q < 1 or h.n_points != q * q + q + 1:
        raise ValueError(
            f"family must live on q^2+q+1 points for q = line size - 1 = {q}"
        )
    ok, witness = is_one_intersecting(h)
    if not ok:
        raise ValueError(f"family is not 1-intersecting: line pair {witness[:2]}")

    n = h.n_points
    fam_lines: list[np.ndarray] = h.lines()
    fam_sets = {frozenset(int(p) for p in ln) for ln in fam_lines}
    through = [h.point_lines(p).tolist() for p in range(n)]

    witnesses: dict[int, dict] = {}
    for pos, raw in enumerate(new_lines):
        f = np.asarray(sorted(int(p) for p in raw), dtype=np.int32)
        if len(f) != q + 1 or (len(f) > 1 and np.any(f[1:] == f[:-1])):
            raise ValueError(f"new line {pos} must be {q + 1} distinct points")
        if f[0] < 0 or f[-1] >= n:
            raise ValueError(f"new line {pos} has a point index out of range")
        if frozenset(int(p) for p in f) in fam_sets:
            raise ValueError(f"new line {pos} already belongs to the family")

        # meet[j] = |family line j  ∩  f|
        meet = np.zeros(len(fam_lines), dtype=np.int64)
        for p in f:
            meet[through[int(p)]] += 1

        chosen = None
        for u in f:
            cands = [j for j in through[int(u)] if meet[j] == 1]
            if len(cands) >= q:
                chosen = (int(u), cands[:q])
                break
        if chosen is None:
            raise ValueError(
                f"no witness sunflower for new line {pos}: "
                f"no point of {f.tolist()} carries {q} family lines meeting it only there"
            )
        u, picked = chosen
        cover = np.bincount(
            np.concatenate([f] + [fam_lines[j] for j in picked]), minlength=n
        )
        if not np.all(cover >= 1):
            raise AssertionError(
                f"hypothesis violated: sunflower through {u} fails to cover the points"
            )
        if not np.all(meet == 1):
            raise AssertionError(
                "hypothesis violated: certified line does not meet every family "
                "line exactly once"
            )
        j_new = len(fam_lines)
        fam_lines.append(f)
        fam_sets.add(frozenset(int(p) for p in f))
        for p in f:
            through[int(p)].append(j_new)
        witnesses[pos] = {"point": u, "through": tuple(picked)}

    return IncidenceStructure(n, fam_lines), witnesses


# ---------------------------------------------------------------------------
# order exclusion


def bruck_ryser_excluded(q: int) -> bool:
    """True when no projective plane of order q can exist by the classical
    congruence test: q = 1 or 2 (mod 4) and q is not a sum of two squares."""
    if q < 1:
        raise ValueError("order must be a positive integer")
    if q % 4 not in (1, 2):
        return False
    for a in range(math.isqrt(q) + 1):
        b2 = q - a * a
        r = math.isqrt(b2)
        if r * r == b2:
            return False
    return True


# ---------------------------------------------------------------------------
# serialization: plain text, one hyperedge per line

# bytes read and values written at a time; a read block holds whole lines
_READ_BLOCK = 1 << 16
_WRITE_BLOCK = 1 << 12
# the bytes that text mode's decoder checks at a time (io.TextIOWrapper's
# chunk): a non-ASCII byte is reported as soon as the reader touches its chunk
_ASCII_CHUNK = 1 << 13


def _row_blocks(ptr):
    """(lo, hi) covering the rows of a CSR in turn, whole rows of about _WRITE_BLOCK entries."""
    lo = 0
    while lo < len(ptr) - 1:
        hi = max(lo + 1, int(np.searchsorted(ptr, ptr[lo] + _WRITE_BLOCK, side="right")) - 1)
        yield lo, hi
        lo = hi


@lru_cache(maxsize=None)
def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """For k = 0..9999, k's four ASCII digits as one uint32 word, and the same
    word with k's leading zeros as 0 bytes (k = 0 keeps its last `0`)."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    chars = np.empty((10**4, 4), dtype=np.uint8)
    for col in range(4):
        chars[:, col] = np.tile(np.repeat(digits, 10 ** (3 - col)), 10**col)
    full = chars.view(np.uint32).ravel().copy()
    for col in range(3):
        chars[: 10 ** (3 - col), col] = 0  # the leading zeros of k < 10**(3 - col)
    lead = chars.view(np.uint32).ravel()
    full.flags.writeable = lead.flags.writeable = False  # shared by every caller
    return full, lead


def _write_rows(fh, ptr, values) -> None:
    """Write each row values[ptr[i]:ptr[i + 1]], none empty, as a line of space-separated integers.

    A block of rows is formatted as a byte matrix with one row per value: its
    digits, four at a time from a table of 0..9999, right-aligned after 0 bytes
    and followed by its separator.  The 0 bytes are then dropped.  fh is a
    binary file.
    """
    full, lead = _digit_words()
    for lo, hi in _row_blocks(ptr):
        vals = np.asarray(values[ptr[lo] : ptr[hi]])
        neg = vals < 0
        mag = vals.astype(np.uint64)  # -2**63 too: negation is modulo 2**64
        np.negative(mag, out=mag, where=neg)
        groups = -(-len(str(int(mag.max()))) // 4)
        # a word for the sign, one per group of four digits, one for the separator
        words = np.zeros((len(vals), groups + 2), dtype=np.uint32)
        for col in range(groups, 0, -1):
            group = mag % 10**4
            mag //= 10**4
            words[:, col] = np.where(mag > 0, full[group], lead[group])
            if col < groups:  # a group above the value's digits stays 0
                words[(mag == 0) & (group == 0), col] = 0
        cells = words.view(np.uint8)
        rows = np.flatnonzero(neg)
        cells[rows, (cells[rows] != 0).argmax(axis=1) - 1] = ord("-")
        cells[:, -4] = ord(" ")
        cells[ptr[lo + 1 : hi + 1] - ptr[lo] - 1, -4] = ord("\n")
        cells = cells.ravel()
        fh.write(cells[cells != 0])


def write_incidence(s: IncidenceStructure, path: str) -> None:
    """Write the `points N lines L` header plus one sorted index row per line."""
    empty = np.flatnonzero(s.line_sizes() == 0)
    if len(empty):  # it would be written as a blank line, which reads as no line
        raise ValueError(f"line {empty[0]} is empty; an incidence file cannot hold it")
    with open(path, "wb") as fh:
        fh.write(f"points {s.n_points} lines {s.n_lines}\n".encode())
        _write_rows(fh, s.line_ptr, s.line_idx)


class _Lines:
    """A binary text file read in whole lines, which `\\n`, `\\r\\n` or a lone `\\r` end.

    Each chunk of _ASCII_CHUNK bytes is checked as it is read, so a non-ASCII
    byte raises the same UnicodeDecodeError as text mode's ascii decoder, at
    the same point of the read.
    """

    def __init__(self, fh):
        self.fh, self.buf = fh, bytearray()

    def take(self, size: int) -> bytearray:
        """The lines up to the first line end at byte size - 1 or later; empty at the end of file."""
        start = size - 1
        while (cut := self._cut(start)) is None:
            start = max(start, len(self.buf) - 1)  # all but a last `\r` is searched
            chunk = self.fh.read(_ASCII_CHUNK - self.fh.tell() % _ASCII_CHUNK)
            if not chunk:
                cut = len(self.buf)
                break
            if not chunk.isascii():
                chunk.decode("ascii")  # raises, with the byte's place in the chunk
            self.buf += chunk
        block = self.buf[:cut]
        del self.buf[:cut]
        return block

    def _cut(self, start: int) -> int | None:
        buf = self.buf
        nl = buf.find(b"\n", start)
        cr = buf.find(b"\r", start, len(buf) if nl < 0 else nl)
        if 0 <= cr < len(buf) - 1:  # the next byte tells a lone `\r` from `\r\n`
            return cr + 1 + (buf[cr + 1] == ord("\n"))
        return nl + 1 if cr < 0 <= nl else None


def _first_row(lines: _Lines) -> tuple[str, list[str]]:
    """The next line that holds tokens before any `#`, and its tokens."""
    while raw := lines.take(1):
        text = raw.decode("ascii")
        if tokens := text.split("#", 1)[0].split():
            return text, tokens
    return "", []


@lru_cache(maxsize=None)
def _byte_kinds() -> bytes:
    """A bytes.translate table: 0 blank (str.split's ASCII whitespace but line
    ends), 1 line end, 2 `#`, 3 digit, 4 `-`, 5 any other byte."""
    kinds = bytearray([5]) * 256
    kinds[ord("0") : ord("9") + 1] = b"\3" * 10
    for b, kind in ((b"\t\x0b\x0c\x1c\x1d\x1e\x1f ", 0), (b"\n\r", 1), (b"#", 2), (b"-", 4)):
        for c in b:
            kinds[c] = kind
    return bytes(kinds)


def _parse_ints(block, kind, starts, stops) -> np.ndarray:
    """The tokens block[starts[k]:stops[k]] as int64, as int() reads them; kind is _byte_kinds of block.

    `-?[0-9]{1,18}` is converted exactly by gathering one digit column at a
    time; any other token goes through int(), in order, so the first bad one
    raises int()'s error, or OverflowError outside int64.
    """
    digit = np.frombuffer(block, dtype=np.uint8) - np.uint8(ord("0"))
    neg = kind[starts] == 4
    first = starts + neg
    digits = stops - first
    simple = (digits >= 1) & (digits <= 18)
    odd = np.flatnonzero(kind >= 4)  # a `-` or another byte that is not a digit
    if len(odd):
        simple &= np.searchsorted(odd, stops) == np.searchsorted(odd, first)
    digits *= simple
    values = np.zeros(len(starts), dtype=np.int64)
    at = stops - 1
    for j in range(int(digits.max(initial=0))):
        column = digit[at]
        column *= digits > j
        values += column * np.int64(10**j)
        at -= at > 0
    np.negative(values, out=values, where=neg)
    for k in np.flatnonzero(~simple).tolist():
        values[k] = int(block[starts[k] : stops[k]].decode("ascii"))
    return values


def _read_rows(lines: _Lines, width: int | None = None, name: str = "row"):
    """The rest of a text file of integer rows as (sizes, values), for every file format.

    `#` starts a comment and lines without tokens are skipped.  A token is a run
    of bytes other than str.split's whitespace.  Blocks of whole lines are
    tokenised on their bytes: ``sizes`` holds each other line's token count and
    ``values`` their tokens as int64, read as int() reads them, so a bad token
    raises its "invalid literal" error.  With ``width``, a line of another token
    count raises "bad <name> line".  The earlier of two errors is reported.
    """
    sizes, values = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    while block := lines.take(_READ_BLOCK):
        kind = np.frombuffer(block.translate(_byte_kinds()), dtype=np.uint8)
        ends = np.flatnonzero(kind == 1)
        token = kind >= 3
        if b"#" in block:  # blank from each `#` to its line's end
            at = np.arange(len(kind))
            hashes = np.maximum.accumulate(np.where(kind == 2, at, -1))
            token &= hashes <= np.maximum.accumulate(np.where(kind == 1, at, -1))
        bounds = np.flatnonzero(np.diff(token, prepend=False, append=False))
        starts, stops = bounds[::2], bounds[1::2]
        line = np.cumsum(kind == 1)[starts]
        counts = np.bincount(line, minlength=len(ends) + 1)
        bad = np.flatnonzero((counts != 0) & (counts != width)) if width else ()
        if len(bad):
            b = int(bad[0])
            k = int(np.searchsorted(line, b))
            _parse_ints(block, kind, starts[:k], stops[:k])  # earlier bad tokens
            raw = block[ends[b - 1] + 1 if b else 0 : ends[b] if b < len(ends) else len(block)]
            raise ValueError(f"bad {name} line: {raw.decode('ascii').rstrip()}")
        sizes.append(counts[counts != 0])
        values.append(_parse_ints(block, kind, starts, stops))
    return np.concatenate(sizes), np.concatenate(values)


def read_incidence(path: str) -> IncidenceStructure:
    """Parse the incidence format; `#` starts a comment, blank lines ignored."""
    with open(path, "rb") as fh:
        lines = _Lines(fh)
        raw, header = _first_row(lines)
        if not header:
            raise ValueError("missing incidence header")
        if len(header) != 4 or header[0] != "points" or header[2] != "lines":
            raise ValueError(f"bad incidence header: {raw.rstrip()}")
        n, expected = int(header[1]), int(header[3])
        sizes, points = _read_rows(lines)
    if len(sizes) != expected:
        raise ValueError(f"expected {expected} lines, found {len(sizes)}")
    return IncidenceStructure._from_csr(n, *_line_csr(n, sizes, points))
