"""Malformed input files: each reader raises ValueError, and the command that
reads the file exits 3 (an I/O error) without printing a report."""

import pytest

import c4lab.plane
from c4lab.cli import cli_dispatch
from c4lab.graph import read_edge_list
from c4lab.plane import read_incidence
from c4lab.polarity import read_polarity

# reader and command of each file format
FORMATS = {
    "edges": (read_edge_list, ["graph", "count-c4", "--in"]),
    "incidence": (read_incidence, ["plane", "verify", "--in"]),
    "polarity": (read_polarity, ["polarity", "verify", "--in"]),
}


def sigma(*values):
    return "q 2\n" + "".join(f"{v}\n" for v in values)


CASES = {
    "edges-non-integer-token": ("edges", "0 1\n1 x\n", "invalid literal"),
    "edges-fractional-token": ("edges", "0 1.5\n", "invalid literal"),
    "edges-wrong-token-count": ("edges", "0 1 2\n", "bad edge line"),
    "edges-out-of-range": ("edges", "-1 2\n", "out of range"),
    "edges-repeated-vertex": ("edges", "0 1\n2 2\n", "loop at vertex 2"),
    # the first offending line decides which error is reported
    "edges-wrong-width-before-bad-token": ("edges", "0 1 2\n1 x\n", "bad edge line: 0 1 2$"),
    "edges-bad-token-before-wrong-width": ("edges", "1 x\n0 1 2\n", "invalid literal"),
    "edges-wrong-width-with-bad-token": ("edges", "0 x 2\n", "bad edge line: 0 x 2$"),
    "edges-comment-quoted": ("edges", "0 1\n0 1 2  # three\n", "bad edge line: 0 1 2  # three$"),
    # 80 kB of good lines put the bad one past the first block read
    "edges-bad-token-in-later-block": ("edges", "0 1\n" * 20000 + "1 x\n", "invalid literal"),
    "edges-wrong-width-in-later-block": ("edges", "0 1\n" * 20000 + "2\n", "bad edge line: 2$"),
    "incidence-non-integer-token": ("incidence", "points 3 lines 1\n0 x\n", "invalid literal"),
    "incidence-fractional-token": ("incidence", "points 3 lines 1\n0 1.5\n", "invalid literal"),
    "incidence-header-token-count": (
        "incidence", "points 3 lines 1 2\n0 1\n", "bad incidence header"
    ),
    "incidence-bad-header": ("incidence", "lines 2 points 5\n0 1\n", "bad incidence header"),
    "incidence-missing-header": ("incidence", "# only comments\n", "missing incidence header"),
    "incidence-line-count": ("incidence", "points 5 lines 3\n0 1\n", "expected 3 lines, found 1"),
    "incidence-out-of-range": ("incidence", "points 3 lines 1\n0 3\n", "out of range"),
    "incidence-repeated-point": ("incidence", "points 3 lines 1\n1 1\n", "duplicate point"),
    "incidence-bad-token-before-line-count": (
        "incidence", "points 3 lines 5\n0 1\n0 x\n", "invalid literal"
    ),
    "incidence-repeated-point-before-out-of-range": (
        "incidence", "points 3 lines 3\n0 2\n1 1\n0 3\n", "line 1 contains a duplicate point"
    ),
    "incidence-out-of-range-before-repeated-point": (
        "incidence", "points 3 lines 2\n0 3\n1 1\n", "line 0 has a point index out of range"
    ),
    "incidence-out-of-range-before-repeated-point-in-line": (
        "incidence", "points 3 lines 1\n1 1 3\n", "line 0 has a point index out of range"
    ),
    "polarity-non-integer-token": ("polarity", sigma(0, 1, 2, "x", 4, 5, 6), "invalid literal"),
    "polarity-fractional-token": ("polarity", sigma(0, 1, 2, 3.5, 4, 5, 6), "invalid literal"),
    "polarity-sigma-token-count": (
        "polarity", sigma(0, 1, 2, "3 4", 5, 6), "bad sigma line: 3 4"
    ),
    "polarity-header-token-count": (
        "polarity", sigma(*range(7)).replace("q 2", "q 2 junk"), "header"
    ),
    "polarity-bad-header": ("polarity", sigma(*range(7)).replace("q 2", "order 2"), "header"),
    "polarity-missing-header": ("polarity", "0\n1\n2\n", "header"),
    "polarity-sigma-length": ("polarity", sigma(0, 1, 2), "sigma must have length 7"),
    "polarity-out-of-range": ("polarity", sigma(0, 1, 2, 3, 4, 5, 7), "out of range"),
    "polarity-not-a-permutation": ("polarity", sigma(0, 1, 2, 3, 4, 5, 5), "not a permutation"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_malformed_file_is_rejected(case, tmp_path, capsys):
    fmt, text, message = CASES[case]
    reader, command = FORMATS[fmt]
    path = tmp_path / f"bad.{fmt}"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        reader(str(path))
    assert cli_dispatch([*command, str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("i/o error: ")


@pytest.mark.parametrize("case", list(CASES))
def test_malformed_file_read_one_line_per_block(case, tmp_path, monkeypatch):
    # a block of one character reads one line at a time, so every bad line
    # lies in a later block than the lines before it
    monkeypatch.setattr(c4lab.plane, "_READ_BLOCK", 1)
    fmt, text, message = CASES[case]
    reader, _ = FORMATS[fmt]
    path = tmp_path / f"bad.{fmt}"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        reader(str(path))
