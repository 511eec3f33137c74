"""Plane construction, axiom verification, family extension, and serialization."""

import re

import numpy as np
import pytest

import c4lab.plane
from c4lab.field import FieldSpec, spec_for_order
from c4lab.plane import (
    IncidenceStructure,
    _as_vertices,
    _codegree_blocks,
    _listing,
    _one_meet_audit,
    _transpose,
    build_pg2,
    verify_projective_plane,
    is_one_intersecting,
    extend_one_intersecting,
    bruck_ryser_excluded,
    read_incidence,
    write_incidence,
    triple_of_index,
    index_of_triple,
)

FIELDS = {q: FieldSpec(p, k) for q, (p, k) in
          {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
           8: (2, 3), 9: (3, 2), 11: (11, 1), 13: (13, 1), 16: (2, 4)}.items()}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_pg2_satisfies_all_axioms(q):
    plane = build_pg2(FIELDS[q])
    verdict = verify_projective_plane(plane)
    assert verdict.ok and verdict.order == q
    assert plane.n_points == plane.n_lines == q * q + q + 1
    # the dual axiom verify_projective_plane derives instead of auditing:
    # every two points lie on exactly one line, also after relabelling
    rng = np.random.default_rng(q)
    points = rng.permutation(plane.n_points)
    lines = [sorted(points[ln].tolist()) for ln in plane.lines()]
    order = rng.permutation(len(lines))
    shuffled = IncidenceStructure(plane.n_points, [lines[i] for i in order])
    for s in (plane, shuffled):
        assert verify_projective_plane(s).ok
        assert _one_meet_audit(*s._transpose()) == (True, None)


def test_triple_indexing_roundtrip():
    q = 4
    for i in range(q * q + q + 1):
        assert index_of_triple(q, *triple_of_index(q, i)) == i


def test_dual_of_plane_is_plane():
    plane = build_pg2(FIELDS[3])
    verdict = verify_projective_plane(plane.dual())
    assert verdict.ok and verdict.order == 3


def test_incidence_constructor_validation():
    with pytest.raises(ValueError):
        IncidenceStructure(4, [[0, 1, 5]])  # out of range
    with pytest.raises(ValueError):
        IncidenceStructure(4, [[0, 1, 1]])  # duplicate point
    with pytest.raises(ValueError, match=r"^vertex 0\.5 is not an integer$"):
        IncidenceStructure(3, [[0.5, 1.7], [2.2]])  # not truncated to {0, 1}, {2}
    s = IncidenceStructure(4, [[2, 0], [1, 3]])
    assert s.line(0).tolist() == [0, 2]  # stored sorted
    assert s.point_lines(0).tolist() == [0]


def per_line_csr(n_points, lines):
    """Reference for IncidenceStructure's vectorised check: (line_ptr, line_idx)
    from the lines checked and sorted one at a time, or its ValueError."""
    if n_points < 0:
        raise ValueError("n_points must be nonnegative")
    parts = [np.zeros(0, dtype=np.int64)]
    for i, line in enumerate(lines):
        arr = np.sort(_as_vertices(list(line)))
        if len(arr) and (arr[0] < 0 or arr[-1] >= min(n_points, 2**31)):
            raise ValueError(f"line {i} has a point index out of range")
        if np.any(arr[1:] == arr[:-1]):
            raise ValueError(f"line {i} contains a duplicate point")
        parts.append(arr)
    return (
        np.cumsum([len(arr) for arr in parts], dtype=np.int64),
        np.concatenate(parts).astype(np.int32),
    )


def test_points_that_do_not_fit_int32_are_out_of_range():
    # line_idx is int32: 2**35 used to be stored as 0, and the line came out unsorted
    for n in (2**31 + 1, 2**40):
        assert IncidenceStructure(n, [[2**31 - 1, 1]]).line(0).tolist() == [1, 2**31 - 1]
        for big in (2**31, 2**35):
            with pytest.raises(ValueError, match="^line 1 has a point index out of range$"):
                IncidenceStructure(n, [[0], [big, 1], [2, 2]])
    # the earlier bad line is still the one reported
    with pytest.raises(ValueError, match="^line 0 contains a duplicate point$"):
        IncidenceStructure(2**40, [[2, 2], [2**35]])
    with pytest.raises(ValueError, match="is not an integer"):
        IncidenceStructure(2**40, [[0.5], [2**35]])


def test_vectorised_check_matches_per_line_oracle():
    rng = np.random.default_rng(2024)
    kinds = {"ok": 0, "range": 0, "duplicate": 0, "integer": 0}
    for _ in range(3000):
        n = int(rng.integers(0, 12))
        lines = []
        for _ in range(int(rng.integers(0, 7))):
            line = rng.permutation(max(n, 1))[: rng.integers(0, 6)].astype(np.int64)
            roll = rng.random()
            if roll < 0.04 and len(line):
                line[rng.integers(len(line))] = rng.choice([-1, n, n + 5])
            elif roll < 0.08 and len(line):
                line = np.append(line, line[rng.integers(len(line))])
            elif roll < 0.11 and len(line):
                line = line.astype(float)
                line[rng.integers(len(line))] += rng.choice([0.5, np.nan])
            # lists of Python numbers as well as int32 and float arrays
            form = rng.integers(3)
            lines.append(line.tolist() if form == 0 else line.astype(np.int32)
                         if form == 1 and line.dtype.kind == "i" else line)
        try:
            expected = per_line_csr(n, lines)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                IncidenceStructure(n, lines)
            text = str(err)
            kinds["range" if "range" in text else "duplicate" if "duplicate" in text
                  else "integer"] += 1
            continue
        s = IncidenceStructure(n, lines)
        assert s.line_ptr.dtype == expected[0].dtype and s.line_idx.dtype == expected[1].dtype
        assert np.array_equal(s.line_ptr, expected[0])
        assert np.array_equal(s.line_idx, expected[1])
        kinds["ok"] += 1
    assert min(kinds.values()) >= 100, kinds


def test_write_incidence_rejects_empty_line(tmp_path):
    # the format has no text for an empty line, so it would not read back
    path = tmp_path / "empty.inc"
    with pytest.raises(ValueError, match="^line 1 is empty"):
        write_incidence(IncidenceStructure(3, [[0, 1], [], []]), str(path))
    assert not path.exists()


def test_verify_rejects_dropped_line():
    plane = build_pg2(FIELDS[3])
    trimmed = IncidenceStructure(plane.n_points, plane.lines()[:-1])
    verdict = verify_projective_plane(trimmed)
    assert not verdict.ok and verdict.axiom == "counts"


def test_verify_rejects_all_triples_structure():
    from itertools import combinations
    s = IncidenceStructure(7, list(combinations(range(7), 3)))
    verdict = verify_projective_plane(s)
    assert not verdict.ok
    assert verdict.axiom is not None and verdict.witness is not None


def test_verify_reports_uniformity_with_witness():
    plane = build_pg2(FIELDS[2])
    lines = [ln.tolist() for ln in plane.lines()]
    lines[4] = lines[4][:2]  # shrink one line
    verdict = verify_projective_plane(IncidenceStructure(7, lines))
    assert not verdict.ok and verdict.axiom == "uniformity" and verdict.witness[0] == 4


def test_verify_reports_regularity_with_witness():
    plane = build_pg2(FIELDS[2])
    lines = [ln.tolist() for ln in plane.lines()]
    assert lines[0] == [1, 3, 5]
    lines[0] = [1, 3, 6]  # point 5 now on 2 lines, point 6 on 4
    verdict = verify_projective_plane(IncidenceStructure(7, lines))
    assert not verdict.ok and verdict.axiom == "regularity"
    assert verdict.witness[0] == 5 and verdict.witness[1] == 2


def test_verify_catches_point_swap_between_lines():
    plane = build_pg2(FIELDS[4])
    lines = [ln.tolist() for ln in plane.lines()]
    a, b = set(lines[0]), set(lines[1])
    p = min(a - b)
    r = min(b - a)
    lines[0] = sorted((a - {p}) | {r})
    lines[1] = sorted((b - {r}) | {p})
    verdict = verify_projective_plane(IncidenceStructure(plane.n_points, lines))
    assert not verdict.ok
    assert verdict.axiom == "line-intersections"
    assert verdict.witness is not None


def test_is_one_intersecting_verdicts():
    plane = build_pg2(FIELDS[4])
    ok, witness = is_one_intersecting(plane)
    assert ok and witness is None
    disjoint = IncidenceStructure(8, [[0, 1, 2], [3, 4, 5]])
    ok, witness = is_one_intersecting(disjoint)
    assert not ok and witness == (0, 1, 0)
    double = IncidenceStructure(6, [[0, 1, 2], [0, 1, 3], [2, 3, 4]])
    ok, witness = is_one_intersecting(double)
    assert not ok and witness == (0, 1, 2)


def _first_bad_pair(inc: np.ndarray):
    """First off-diagonal entry of inc @ inc.T that is not 1, from the dense product."""
    meet = inc @ inc.T
    np.fill_diagonal(meet, 1)
    bad = np.argwhere(meet != 1)
    if not len(bad):
        return None
    i, j = map(int, bad[0])
    return (i, j, int(meet[i, j]))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_audit_witnesses_match_dense_products(q):
    rng = np.random.default_rng(q)
    plane = build_pg2(FIELDS[q])
    n = plane.n_points
    for swaps in range(1, 5):
        lines = [set(map(int, ln)) for ln in plane.lines()]
        # trade points between two lines: sizes and point degrees stay q + 1
        for _ in range(swaps):
            a, b = rng.choice(n, 2, replace=False)
            pa = int(rng.choice(sorted(lines[a] - lines[b])))
            pb = int(rng.choice(sorted(lines[b] - lines[a])))
            lines[a] = (lines[a] - {pa}) | {pb}
            lines[b] = (lines[b] - {pb}) | {pa}
        s = IncidenceStructure(n, [sorted(ln) for ln in lines])
        inc = np.zeros((n, n), dtype=np.int64)
        for i, ln in enumerate(s.lines()):
            inc[i, ln] = 1
        line_ref = _first_bad_pair(inc)
        verdict = verify_projective_plane(s)
        assert verdict.axiom == "line-intersections"
        assert verdict.witness == line_ref
        assert is_one_intersecting(s) == (False, line_ref)
        # the pair-coverage audit, which verify_projective_plane no longer
        # runs: lines meeting once already force it
        assert _one_meet_audit(*s._transpose()) == (
            False,
            _first_bad_pair(inc.T),
        )
        keep = np.sort(rng.choice(n, size=max(2, n // 3), replace=False))
        sub = IncidenceStructure(n, [s.line(int(i)) for i in keep])
        sub_ref = _first_bad_pair(inc[keep])
        assert is_one_intersecting(sub) == (sub_ref is None, sub_ref)


def test_extend_reconstructs_fano_from_any_dropped_line():
    plane = build_pg2(FIELDS[2])
    full = plane.line_set()
    for drop in range(7):
        kept = [ln for i, ln in enumerate(plane.lines()) if i != drop]
        family = IncidenceStructure(7, kept)
        extended, witnesses = extend_one_intersecting(
            family, [plane.line(drop).tolist()]
        )
        assert extended.line_set() == full
        assert extended.n_lines == 7
        u = witnesses[0]["point"]
        assert u in plane.line(drop)
        assert len(witnesses[0]["through"]) == 2


def test_extend_certifies_larger_orders():
    plane = build_pg2(FIELDS[8])
    kept = [ln for i, ln in enumerate(plane.lines()) if i not in (5, 40)]
    family = IncidenceStructure(plane.n_points, kept)
    extended, witnesses = extend_one_intersecting(
        family, [plane.line(5).tolist(), plane.line(40).tolist()]
    )
    assert extended.line_set() == plane.line_set()
    assert set(witnesses) == {0, 1}
    # the first point of each new line, ascending, that carries q family
    # lines meeting the new line only there, and the first q of those lines
    lines = [set(ln.tolist()) for ln in kept]
    for pos, drop in enumerate((5, 40)):
        f = set(plane.line(drop).tolist())
        for u in sorted(f):
            only_u = [j for j, ln in enumerate(lines) if ln & f == {u}]
            if len(only_u) >= 8:
                break
        assert witnesses[pos] == {"point": u, "through": tuple(only_u[:8])}
        lines.append(f)


def test_extend_raises_without_witness_sunflower():
    # a single 3-line family on 7 points: no point of the new line carries 2 lines
    family = IncidenceStructure(7, [[0, 1, 2]])
    with pytest.raises(ValueError, match="no witness sunflower"):
        extend_one_intersecting(family, [[0, 3, 4]])


def test_extend_precondition_errors():
    family = IncidenceStructure(7, [[0, 1, 2], [0, 3, 4]])
    with pytest.raises(ValueError):
        extend_one_intersecting(family, [[0, 1]])  # wrong size
    with pytest.raises(ValueError):
        extend_one_intersecting(family, [[0, 1, 2]])  # already present
    ragged = IncidenceStructure(7, [[0, 1, 2], [3, 4]])
    with pytest.raises(ValueError):
        extend_one_intersecting(ragged, [[0, 3, 5]])
    not_1i = IncidenceStructure(13, [[0, 1, 2, 3], [0, 1, 4, 5]])
    with pytest.raises(ValueError):
        extend_one_intersecting(not_1i, [[0, 6, 7, 8]])


def test_bruck_ryser_exclusions():
    assert [q for q in range(2, 23) if bruck_ryser_excluded(q)] == [6, 14, 21, 22]
    assert not bruck_ryser_excluded(10)  # 10 = 1 + 9 survives the test
    with pytest.raises(ValueError):
        bruck_ryser_excluded(0)


def transpose_structures():
    """PG(2, q <= 5) and 40 seeded structures whose lines differ in number from
    the points, with empty lines and unused points among them."""
    rng = np.random.default_rng(11)
    structures = [build_pg2(FIELDS[q]) for q in (2, 3, 4, 5)]
    for _ in range(40):
        n = int(rng.integers(1, 15))
        structures.append(IncidenceStructure(n, [
            rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            for _ in range(int(rng.integers(0, 12)))
        ]))
    return structures


def test_transpose_matches_lexsort_oracle():
    structures = transpose_structures()
    assert any(s.n_lines != s.n_points for s in structures)
    assert any(0 in s.line_sizes() for s in structures)
    assert any(0 in s.point_degrees() for s in structures)
    for s in structures:
        rows = np.repeat(np.arange(s.n_lines, dtype=np.int32), s.line_sizes())
        order = np.lexsort((rows, s.line_idx))
        ref_ptr = np.searchsorted(s.line_idx[order], np.arange(s.n_points + 1))
        back_ptr, back_idx, twin = _transpose(s.line_ptr, s.line_idx, s.n_points)
        for ptr, idx in ((back_ptr, back_idx), s._transpose()):
            assert idx.dtype == rows.dtype
            assert np.array_equal(idx, rows[order])
            assert np.array_equal(ptr, ref_ptr)
        # entry k = (row, point) sits at position twin[k] of the point's row
        assert np.array_equal(back_idx[twin], rows)
        assert np.all((back_ptr[s.line_idx] <= twin) & (twin < back_ptr[s.line_idx + 1]))


# 1 << 19 holds every input here in one block, and 40 splits it into many
@pytest.mark.parametrize("block,ratio", [(1 << 19, 0), (1 << 19, 10**9), (40, 0), (40, 10**9)])
def test_codegree_blocks_of_non_square_structures(monkeypatch, block, ratio):
    monkeypatch.setattr(c4lab.plane, "_BLOCK_SIZE", block)
    monkeypatch.setattr(c4lab.plane, "_SPARSE_RATIO", ratio)
    for s in transpose_structures():
        inc = np.zeros((s.n_lines, s.n_points), dtype=np.int64)
        for i, ln in enumerate(s.lines()):
            inc[i, ln] = 1
        codeg = np.triu(inc @ inc.T, 1)
        i_ref, x_ref = np.nonzero(codeg)
        listed = [
            _listing(lo, s.n_lines, codes, c)
            for lo, _, codes, c, _ in _codegree_blocks(s.line_ptr, s.line_idx)
        ]
        i, x, c = (np.concatenate(part) for part in zip(*listed)) if listed else ([], [], [])
        assert list(i) == i_ref.tolist()
        assert list(x) == x_ref.tolist()
        assert list(c) == codeg[i_ref, x_ref].tolist()


@pytest.mark.parametrize("ratio", [0, 10**9])
def test_codegree_blocks_of_a_csr_with_no_entries(monkeypatch, ratio):
    monkeypatch.setattr(c4lab.plane, "_SPARSE_RATIO", ratio)
    idx = np.zeros(0, dtype=np.int32)
    for n in (0, 1, 4):
        ptr = np.zeros(n + 1, dtype=np.int64)
        for least in (False, True):
            blocks = list(_codegree_blocks(ptr, idx, least=least))
            # the blocks cover every row and count nothing
            assert [lo for lo, *_ in blocks] + [n] == [0] + [hi for _, hi, *_ in blocks]
            assert all(w == 0 and not np.count_nonzero(c) for *_, c, w in blocks)
        # rows without points meet no other row
        assert _one_meet_audit(ptr, idx) == ((True, None) if n < 2 else (False, (0, 1, 0)))


def test_incidence_roundtrip_is_byte_exact(tmp_path):
    plane = build_pg2(FIELDS[3])
    p1 = tmp_path / "pg3.inc"
    p2 = tmp_path / "pg3_again.inc"
    write_incidence(plane, str(p1))
    loaded = read_incidence(str(p1))
    assert loaded == IncidenceStructure(plane.n_points, plane.lines())
    write_incidence(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("block", [c4lab.plane._WRITE_BLOCK, 1, 7], ids=["default", "1", "7"])
def test_incidence_roundtrip_at_q64(monkeypatch, tmp_path, block):
    # the writer formats about ``block`` points at a time, whole lines only, so
    # block ends fall mid-file; the oracle writes one line at a time
    monkeypatch.setattr(c4lab.plane, "_WRITE_BLOCK", block)
    plane = build_pg2(spec_for_order(64))
    oracle, p1, p2 = (tmp_path / f"{name}.inc" for name in ("oracle", "pg64", "again"))
    with open(oracle, "w", encoding="ascii") as fh:
        fh.write(f"points {plane.n_points} lines {plane.n_lines}\n")
        for line in plane.lines():
            fh.write(" ".join(str(p) for p in line.tolist()) + "\n")
    write_incidence(plane, str(p1))
    assert p1.read_bytes() == oracle.read_bytes()
    loaded = read_incidence(str(p1))
    assert loaded == plane
    write_incidence(loaded, str(p2))
    assert p2.read_bytes() == oracle.read_bytes()


def test_incidence_parser_handles_comments(tmp_path):
    p = tmp_path / "fam.inc"
    p.write_text(
        "# a family\npoints 5 lines 2\n\n0 1 2  # first\n2 3 4\n"
    )
    s = read_incidence(str(p))
    assert s.n_points == 5 and s.n_lines == 2
    assert s.line(1).tolist() == [2, 3, 4]

