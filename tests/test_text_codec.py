"""The byte codec behind the three file formats, against one-line-at-a-time oracles.

The reader oracle is the str pipeline the codec replaced: text-mode lines,
str.split and numpy's int64 conversion of the str tokens.  The writer oracle
formats one line at a time with str().
"""

import io

import numpy as np
import pytest

import c4lab.plane
from c4lab.graph import Graph, from_edges, write_edge_list
from c4lab.plane import IncidenceStructure, _first_row, _Lines, _read_rows, _write_rows
from c4lab.plane import write_incidence
from c4lab.polarity import orthogonal_polarity, write_polarity
from c4lab.field import spec_for_order

BLOCKS = pytest.mark.parametrize("block", [1 << 16, 1, 7], ids=["default", "1", "7"])


def oracle_first_row(fh):
    while raw := fh.readline():
        if tokens := raw.split("#", 1)[0].split():
            return raw, tokens
    return "", []


def oracle_read_rows(fh, width=None, name="row", block=1 << 16):
    sizes, values = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    while raws := fh.readlines(block):
        lines, text = raws, "".join(raws)
        if "#" in text:
            lines = [raw.split("#", 1)[0] for raw in raws]
            text = " ".join(lines)
        counts = np.fromiter(map(len, map(str.split, lines)), dtype=np.int64, count=len(lines))
        bad = np.flatnonzero((counts != 0) & (counts != width)) if width else ()
        if len(bad):
            np.array(" ".join(lines[: bad[0]]).split(), dtype=np.int64)
            raise ValueError(f"bad {name} line: {raws[bad[0]].rstrip()}")
        sizes.append(counts[counts != 0])
        values.append(np.array(text.split(), dtype=np.int64))
    return np.concatenate(sizes), np.concatenate(values)


def outcome(read):
    """("ok", header, sizes, values) or the type and message of what read() raised."""
    try:
        header, (sizes, values) = read()
    except Exception as err:  # every exception must match, whatever its type
        return type(err), str(err)
    assert sizes.dtype == values.dtype == np.int64
    return "ok", header, sizes.tolist(), values.tolist()


def read_both(path, width, header, block):
    """The outcome of the oracle and of the codec on one file."""

    def oracle():
        with open(path, encoding="ascii") as fh:
            raw, tokens = oracle_first_row(fh) if header else ("", [])
            return (raw.rstrip(), tokens), oracle_read_rows(fh, width, "edge", block)

    def codec():
        with open(path, "rb") as fh:
            lines = _Lines(fh)
            raw, tokens = _first_row(lines) if header else ("", [])
            return (raw.rstrip(), tokens), _read_rows(lines, width, "edge")

    return outcome(oracle), outcome(codec)


TOKENS = {
    "plain": lambda rng: str(int(rng.integers(0, 10 ** int(rng.integers(1, 7))))),
    "signed": lambda rng: rng.choice(["-", "+"]) + str(int(rng.integers(0, 1000))),
    "leading zeros": lambda rng: "0" * int(rng.integers(1, 4)) + str(int(rng.integers(0, 100))),
    "underscore": lambda rng: rng.choice(["1_0", "1_000_000", "0_0", "_1", "1__0", "1_"]),
    "long": lambda rng: rng.choice([
        "999999999999999999", "-999999999999999999", "000000000000000000042",
        "9223372036854775807", "-9223372036854775808", "9223372036854775808",
        "-9223372036854775809", "12345678901234567890", "-12345678901234567890",
    ]),
    "bad": lambda rng: rng.choice(["x", "1.5", "-", "+", "--1", "0x1f", "1e3", "\x01", "1\x00"]),
}
KINDS = list(TOKENS)
SPACES = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f"]
ENDINGS = ["\n", "\r\n", "\r"]


def random_file(rng, width):
    """A small file of random rows, mostly ``width`` tokens wide, with every kind of noise."""
    bad_rate = rng.choice([0.0, 0.0, 0.02])
    lines = []
    for _ in range(int(rng.integers(0, 14))):
        roll = rng.random()
        if roll < 0.1:
            line = rng.choice(["", " ", "\t \x0b"])
        elif roll < 0.16:
            line = "#" + rng.choice(["", " note", " 1 2 3", "#"])  # a comment in the first column
        else:
            count = width or int(rng.integers(1, 6))
            if rng.random() < 0.08:
                count += rng.choice([-1, 1])
            tokens = []
            for _ in range(count):
                kind = "bad" if rng.random() < bad_rate else rng.choice(
                    KINDS[:5], p=[0.7, 0.08, 0.08, 0.07, 0.07])
                tokens.append(TOKENS[kind](rng))
            line = "".join(rng.choice(SPACES) + t for t in tokens) if rng.random() < 0.3 else " ".join(tokens)
            if rng.random() < 0.15:
                line += rng.choice(["  # trailing", "#", " # x 1.5", "\t#1 2"])
        lines.append(line + rng.choice(ENDINGS, p=[0.7, 0.15, 0.15]))
    data = "".join(lines).encode("ascii")
    if data and rng.random() < 0.2:
        data = data.rstrip(b"\r\n")  # no final newline
    if rng.random() < 0.05:
        at = int(rng.integers(0, len(data) + 1))
        data = data[:at] + rng.choice([b"\xe9", b"\xc3\xa9", b"\x80"]) + data[at:]
    return data


@BLOCKS
def test_reader_matches_the_str_oracle_on_random_files(tmp_path, monkeypatch, block):
    monkeypatch.setattr(c4lab.plane, "_READ_BLOCK", block)
    rng = np.random.default_rng(2026)
    path = tmp_path / "rows.txt"
    seen = {}
    for _ in range(2000):
        width = rng.choice([None, 1, 2, 3])
        header = rng.random() < 0.25
        path.write_bytes(random_file(rng, width))
        expected, got = read_both(str(path), width, header, block)
        assert got == expected, path.read_bytes()
        kind = expected[0] if expected[0] == "ok" else expected[0].__name__
        if "bad edge line" in str(expected[1]):
            kind = "bad line"
        seen[kind] = seen.get(kind, 0) + 1
    # every outcome shows up often enough to count
    assert min(seen.get(kind, 0) for kind in (
        "ok", "ValueError", "OverflowError", "UnicodeDecodeError", "bad line")) >= 20, seen


@BLOCKS
def test_non_ascii_bytes_past_the_first_decoder_chunk(tmp_path, monkeypatch, block):
    # text mode decodes 8 KiB at a time: a non-ASCII byte is named by its place
    # in that chunk, and it is reported before a bad line read after its chunk
    monkeypatch.setattr(c4lab.plane, "_READ_BLOCK", block)
    body = b"0 1\n" * 12000
    path = tmp_path / "big.txt"
    for bad_at, late_line in ((30000, None), (8191, None), (8192, None), (30000, 7000),
                              (30000, 8000), (47999, 3), (None, 11999)):
        data = bytearray(body)
        if late_line is not None:
            data[4 * late_line : 4 * late_line + 3] = b"1 x"
        if bad_at is not None:
            data[bad_at] = 0xE9
        path.write_bytes(bytes(data))
        for width, header in ((2, False), (None, True)):
            expected, got = read_both(str(path), width, header, block)
            assert got == expected, (bad_at, late_line)


@BLOCKS
def test_long_lines_and_line_ends_at_chunk_boundaries(tmp_path, monkeypatch, block):
    # a line across several 8 KiB chunks, then a `\r\n` or a lone `\r` that
    # ends a chunk, after the body's first line or after the header
    monkeypatch.setattr(c4lab.plane, "_READ_BLOCK", block)
    path = tmp_path / "long.txt"
    long_line = " ".join(["12345"] * 6000).encode() + b"\n"
    head = (b"1 2\n" * 2048)[: 8191 - len(long_line) % 8192]
    files = [(long_line + head + tail, header) for tail in (b"\r\n", b"\r", b"\r7 8\n", b"\r\n7 8")
             for header in (False, True)]
    files.append((b"#" * 8187 + b"\nq 2\r0\n1\n", True))  # the header's `\r` is byte 8191
    for data, header in files:
        path.write_bytes(data)
        expected, got = read_both(str(path), None, header, block)
        assert got == expected and expected[0] == "ok", data[-8:]


def test_lines_end_as_in_text_mode(tmp_path):
    path = tmp_path / "rows.txt"
    path.write_bytes(b"points 3 lines 2\r0 1\r\n\r1 2 # c\r\r")
    with open(path, "rb") as fh:
        lines = _Lines(fh)
        assert _first_row(lines) == ("points 3 lines 2\r", ["points", "3", "lines", "2"])
        sizes, values = _read_rows(lines)
    assert sizes.tolist() == [2, 2] and values.tolist() == [0, 1, 1, 2]


# ---------------------------------------------------------------------------
# writer


def oracle_rows(ptr, values):
    return "".join(
        " ".join(map(str, values[i:j].tolist())) + "\n" for i, j in zip(ptr[:-1], ptr[1:])
    ).encode("ascii")


def boundaries(n):
    """0, 9, 10, 99, 100, ... below n, and n - 1."""
    out = {0, n - 1}
    for k in range(1, 20):
        out |= {v for v in (10**k - 1, 10**k) if v < n}
    return np.array(sorted(out), dtype=np.int64)


@BLOCKS
def test_writer_matches_the_line_oracle(monkeypatch, block):
    monkeypatch.setattr(c4lab.plane, "_WRITE_BLOCK", block)
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.choice([1, 2, 11, 101, 10**4, 10**4 + 1, 10**8 + 3, 2**63 - 1]))
        pool = boundaries(n)
        if rng.random() < 0.3:
            pool = np.concatenate([pool, -pool, [-(2**63)]])
        sizes = rng.integers(1, 6, size=int(rng.integers(0, 30)))
        ptr = np.concatenate([[0], np.cumsum(sizes)])
        values = rng.choice(pool, size=int(ptr[-1]))
        fh = io.BytesIO()
        _write_rows(fh, ptr, values)
        assert fh.getvalue() == oracle_rows(ptr, values)


@BLOCKS
def test_file_writers_match_the_line_oracle(tmp_path, monkeypatch, block):
    monkeypatch.setattr(c4lab.plane, "_WRITE_BLOCK", block)
    path = tmp_path / "out.txt"
    rng = np.random.default_rng(11)
    # incidence lines drawn from the digit boundaries below n
    n = 10**4 + 1
    lines = [rng.choice(boundaries(n), size=int(rng.integers(1, 8)), replace=False).tolist()
             for _ in range(40)]
    s = IncidenceStructure(n, lines)
    write_incidence(s, str(path))
    expected = f"points {n} lines 40\n".encode() + oracle_rows(s.line_ptr, s.line_idx)
    assert path.read_bytes() == expected
    # edge lists: isolated vertices at both ends and between, then no edge at all
    for g in (from_edges(120, [(3, 100), (3, 9), (10, 99), (50, 51)]),
              from_edges(12, []), Graph(0, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int32))):
        write_edge_list(g, str(path))
        assert path.read_bytes() == "".join(f"{u} {v}\n" for u, v in g.edges().tolist()).encode()
    assert path.read_bytes() == b""
    # a pairing: one sigma value per line
    pi = orthogonal_polarity(spec_for_order(9))
    write_polarity(pi, str(path))
    assert path.read_bytes() == ("q 9\n" + "".join(f"{s}\n" for s in pi.sigma.tolist())).encode()
