"""Incidence structures, projective planes PG(2, q), and their verifiers.

Points of PG(2, q) are normalized homogeneous triples over GF(q) (first
nonzero coordinate equal to 1), indexed by lexicographic enumeration:
index 0 is [0:0:1], indices 1..q are [0:1:c], and index 1+q+b*q+c is [1:b:c],
where b, c are canonical field element indices.  Lines use the same triple
indexing; the line [a:b:c] is the set of points with a*x + b*y + c*z = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from c4lab.field import FieldSpec


class IncidenceStructure:
    """A finite hypergraph: lines are sorted, duplicate-free point index sets."""

    def __init__(self, n_points: int, lines: Iterable[Iterable[int]]):
        if n_points < 0:
            raise ValueError("n_points must be nonnegative")
        self.n_points = int(n_points)
        parts = []
        ptr = [0]
        total = 0
        for line in lines:
            arr = np.asarray(sorted(int(p) for p in line), dtype=np.int32)
            if len(arr) and (arr[0] < 0 or arr[-1] >= n_points):
                raise ValueError(f"line {len(ptr) - 1} has a point index out of range")
            if len(arr) > 1 and np.any(arr[1:] == arr[:-1]):
                raise ValueError(f"line {len(ptr) - 1} contains a duplicate point")
            parts.append(arr)
            total += len(arr)
            ptr.append(total)
        self.line_ptr = np.asarray(ptr, dtype=np.int64)
        self.line_idx = (
            np.concatenate(parts) if parts else np.zeros(0, dtype=np.int32)
        )
        self._p2l: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def _from_csr(cls, n_points: int, line_ptr: np.ndarray, line_idx: np.ndarray):
        obj = cls.__new__(cls)
        obj.n_points = int(n_points)
        obj.line_ptr = line_ptr
        obj.line_idx = line_idx
        obj._p2l = None
        return obj

    @property
    def n_lines(self) -> int:
        return len(self.line_ptr) - 1

    def line(self, i: int) -> np.ndarray:
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
        ptr, idx = self._transpose()
        return idx[ptr[p] : ptr[p + 1]]

    def point_degrees(self) -> np.ndarray:
        return np.bincount(self.line_idx, minlength=self.n_points)

    def dual(self) -> "IncidenceStructure":
        ptr, idx = self._transpose()
        return IncidenceStructure._from_csr(self.n_lines, ptr.copy(), idx.copy())

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
        self.n_points = spec.q**2 + spec.q + 1
        self.line_ptr = line_ptr
        self.line_idx = line_idx
        self._p2l = None

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


def index_of_triple(q: int, a: int, b: int, c: int) -> int:
    """Inverse of triple_of_index; the triple must already be normalized."""
    if a == 1:
        return 1 + q + b * q + c
    if a == 0 and b == 1:
        return 1 + c
    if (a, b, c) == (0, 0, 1):
        return 0
    raise ValueError(f"triple ({a},{b},{c}) is not normalized")


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

    Each line's point set is solved directly from a kernel basis of its
    defining linear form, so construction is O(q) vectorized passes.
    """
    q = spec.q
    n = q * q + q + 1
    a, b, c = _decode_triples(q, n)
    zero = np.zeros(n, dtype=np.int64)
    one = np.ones(n, dtype=np.int64)

    # kernel basis (u, v) of a*x + b*y + c*z = 0, by leading coordinate
    ma = a != 0
    mb = (~ma) & (b != 0)
    safe_a = np.where(ma, a, 1)
    safe_b = np.where(mb, b, 1)
    inv_a = spec.vinv(safe_a)
    inv_b = spec.vinv(safe_b)

    u0 = np.where(ma, spec.vmul(spec.vneg(b), inv_a), one)
    u1 = np.where(ma, one, zero)
    u2 = zero
    v0 = np.where(ma, spec.vmul(spec.vneg(c), inv_a), zero)
    v1 = np.where(ma, zero, np.where(mb, spec.vmul(spec.vneg(c), inv_b), one))
    v2 = np.where(ma | mb, one, zero)

    pts = np.empty((n, q + 1), dtype=np.int32)
    pts[:, 0] = _normalize_to_index(spec, u0, u1, u2)
    for t in range(q):
        tv = np.full(n, t, dtype=np.int64)
        w0 = spec.vadd(v0, spec.vmul(tv, u0))
        w1 = spec.vadd(v1, spec.vmul(tv, u1))
        w2 = spec.vadd(v2, spec.vmul(tv, u2))
        pts[:, t + 1] = _normalize_to_index(spec, w0, w1, w2)
    pts.sort(axis=1)

    line_ptr = np.arange(0, (n + 1) * (q + 1), q + 1, dtype=np.int64)
    return ProjectivePlane(spec, line_ptr, pts.ravel())


# ---------------------------------------------------------------------------
# wedge enumeration: the one primitive behind every exact pair scan

# bound on the wedges of one block and on the entries of a dense block
_BLOCK_SIZE = 1 << 19
# a block is reduced by sorting its wedge codes, not by a dense bincount, when
# it has fewer than 1/_SPARSE_RATIO as many wedges as dense entries
_SPARSE_RATIO = 16


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + k) over the pairs (s, k)."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))


def _transpose(ptr, idx, n_cols):
    """The transpose (back_ptr, back_idx) of a CSR with sorted rows, and ``twin``.

    The transpose has max(n_cols, max(idx) + 1) rows.  Entry k = (r, c)
    sits at position twin[k] of row c of the transpose, so
    back_idx[twin[k]] == r; the stable sort keeps the transposed rows sorted.
    """
    order = np.argsort(idx, kind="stable")
    back_ptr = np.concatenate([[0], np.cumsum(np.bincount(idx, minlength=n_cols))])
    back_idx = np.repeat(np.arange(len(ptr) - 1, dtype=np.int32), np.diff(ptr))[order]
    twin = np.empty_like(order)
    twin[order] = np.arange(len(order))
    return back_ptr, back_idx, twin


def _codegree_blocks(ptr, idx):
    """Yield (lo, hi, codes, c) covering the rows lo:hi of one CSR in turn.

    The CSR has sorted rows: a simple graph or the lines of an incidence
    structure.  Rows s and x share as many columns as there are wedges
    s -> w -> x, w in row s and x in row w of the transpose the kernel
    derives.  Only the upper triangle x > s of this symmetric codegree matrix
    is counted; those ends start one past the twin of the entry (s, w).  The
    pair (s, x) has the block code (s - lo)*n + x with n = len(ptr) - 1.
    A block holds at most _BLOCK_SIZE wedges (a single row may exceed this)
    and comes in the form it was counted in: ``codes`` is None and ``c`` is
    the dense bincount of all (hi - lo)*n codes, zeros included, at most
    _BLOCK_SIZE entries; or, when its wedges are much fewer than its dense
    entries, ``codes`` are the ascending codes of the covered pairs and ``c``
    their counts, all >= 1.  Sums and maxima over ``c`` read either form
    alike; ``_listing`` gives the pairs.
    """
    n = len(ptr) - 1
    back_ptr, back_idx, twin = _transpose(ptr, idx, 0)
    # the wedges before each row
    reach = np.concatenate([[0], np.cumsum(np.diff(back_ptr)[idx])])[ptr]
    max_rows = max(1, _BLOCK_SIZE // max(1, n))
    lo = 0
    while lo < n:
        # bound the block by all its wedges, upper or not
        hi = int(np.searchsorted(reach, reach[lo] + _BLOCK_SIZE, side="right")) - 1
        hi = max(hi, lo + 1)
        sparse = int(reach[hi] - reach[lo]) * _SPARSE_RATIO < (hi - lo) * n
        if not sparse:
            hi = min(hi, lo + max_rows)
        n_mid = np.diff(ptr[lo : hi + 1])
        first = twin[ptr[lo] : ptr[hi]] + 1
        n_end = back_ptr[idx[ptr[lo] : ptr[hi]] + 1] - first
        ends = back_idx[_ranges(first, n_end)]
        src = np.repeat(np.repeat(np.arange(hi - lo), n_mid), n_end)
        codes = src * n + ends
        if sparse:
            yield lo, hi, *np.unique(codes, return_counts=True)
        else:
            yield lo, hi, None, np.bincount(codes, minlength=(hi - lo) * n)
        lo = hi


def _listing(lo: int, n_cols: int, codes, c: np.ndarray):
    """The covered pairs of a block from ``_codegree_blocks`` as (i, x, c).

    Row-major order; i indexes the kernel's source rows and every c is >= 1.
    """
    if codes is None:
        codes = np.flatnonzero(c)
        c = c[codes]
    i, x = np.divmod(codes, n_cols)
    return i + lo, x, c


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
    for lo, hi, codes, c in _codegree_blocks(ptr, idx):
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
# order exclusion and symmetry


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


@dataclass
class PartialSymmetryResult:
    is_plane: bool
    premise_holds: bool
    fully_symmetric: bool
    witness: tuple | None
    detail: str = ""


def partial_symmetry_verify(m: np.ndarray, q: int) -> PartialSymmetryResult:
    """Check the symmetry-propagation property of a plane incidence matrix.

    Premise: m[i][j] == m[j][i] whenever i or j is among the first q^2-q+3
    rows/columns (1-based).  For a genuine plane incidence matrix the premise
    forces full symmetry; the result records both flags plus a witness entry
    when full symmetry fails.
    """
    m = np.asarray(m)
    n = q * q + q + 1
    if m.ndim != 2 or m.shape != (n, n):
        raise ValueError(f"matrix must be {n} x {n} for order {q}")
    if not np.all((m == 0) | (m == 1)):
        raise ValueError("matrix entries must be 0 or 1")
    # a 0/1 square matrix's rows are sorted, distinct, in-range point sets
    sizes = np.count_nonzero(m, axis=1)
    rows_as_lines = IncidenceStructure._from_csr(
        n, np.concatenate([[0], np.cumsum(sizes)]), np.nonzero(m)[1].astype(np.int32)
    )
    verdict = verify_projective_plane(rows_as_lines)
    if not verdict.ok:
        raise ValueError(
            f"not a plane incidence matrix: {verdict.axiom} fails ({verdict.detail})"
        )
    t = q * q - q + 3  # 1-based threshold; rows/cols 0..t-1 in 0-based terms
    premise = bool(np.array_equal(m[:t, :], m[:, :t].T))
    fully = bool(np.array_equal(m, m.T))
    witness = None
    if not fully:
        diff = np.argwhere(m != m.T)
        witness = (int(diff[0][0]), int(diff[0][1]))
    detail = (
        "premise row/column band symmetric and matrix fully symmetric"
        if premise and fully
        else "premise band asymmetric"
        if not premise
        else f"premise holds yet full symmetry fails at {witness}"
    )
    return PartialSymmetryResult(True, premise, fully, witness, detail)


# ---------------------------------------------------------------------------
# serialization: plain text, one hyperedge per line


def write_incidence(s: IncidenceStructure, path: str) -> None:
    """Write the `points N lines L` header plus one sorted index row per line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"points {s.n_points} lines {s.n_lines}\n")
        for i in range(s.n_lines):
            fh.write(" ".join(str(int(p)) for p in s.line(i)) + "\n")


def read_incidence(path: str) -> IncidenceStructure:
    """Parse the incidence format; `#` starts a comment, blank lines ignored."""
    header = None
    lines = []
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if header is None:
                parts = text.split()
                if len(parts) != 4 or parts[0] != "points" or parts[2] != "lines":
                    raise ValueError(f"bad incidence header: {raw.rstrip()}")
                header = (int(parts[1]), int(parts[3]))
                continue
            lines.append([int(tok) for tok in text.split()])
    if header is None:
        raise ValueError("missing incidence header")
    n, expected = header
    if len(lines) != expected:
        raise ValueError(f"expected {expected} lines, found {len(lines)}")
    return IncidenceStructure(n, lines)
