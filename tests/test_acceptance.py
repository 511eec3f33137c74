"""Release gate: one test per criterion, each printing a live pass/fail line.

The criteria carry their own runtime budgets and seeded randomness; the
functions in c4lab.acceptance hold the substance, this file is the pytest
harness plus the visible one-line verdicts.
"""

import inspect
import re
from dataclasses import replace

import numpy as np
import pytest

import c4lab.acceptance
from c4lab.acceptance import CRITERIA, er_graph_exactness, run_criterion, single_edge_census
from c4lab.graph import count_c4
from c4lab.polarity import special_vertex_w
from c4lab.supersat import er_graph

NUMBERS = [num for num, _, _ in CRITERIA]
TITLES = {num: title for num, title, _ in CRITERIA}


@pytest.mark.parametrize("number", NUMBERS, ids=[TITLES[n] for n in NUMBERS])
def test_criterion(number, capsys):
    result = run_criterion(number)
    with capsys.disabled():
        print(f"\n{result.line()} ({result.wall_time:.1f}s)")
    assert result.ok, f"criterion {number} ({result.title}): {result.detail}"


def test_registry_is_complete():
    assert NUMBERS == list(range(1, 13))
    with pytest.raises(ValueError, match="no criterion"):
        run_criterion(99)


def test_package_exports_match_all():
    # a name deleted from a module must leave both lists of __init__.py
    assert len(set(c4lab.__all__)) == len(c4lab.__all__)
    assert [name for name in c4lab.__all__ if not hasattr(c4lab, name)] == []
    imported = {
        name for name, obj in vars(c4lab).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
        and getattr(obj, "__module__", "").startswith("c4lab.")
    }
    assert sorted(imported - set(c4lab.__all__)) == []


def swapped_er_graph(q: int):
    """er_graph(q) after a degree-preserving edge swap ab, cd -> ac, bd that
    avoids w and S_q and closes a 4-cycle."""
    pg = er_graph(q)
    g = pg.graph
    w = special_vertex_w(pg)
    e = g.edges()
    far = e[(g.degrees()[e] == q + 1).all(axis=1) & (e != w).all(axis=1)]
    a, b = far[0].tolist()
    for c, d in far[1:].tolist():
        if len({a, b, c, d}) == 4 and not (g.has_edge(a, c) or g.has_edge(b, d)):
            swapped = g.remove_edges([(a, b), (c, d)]).add_edges([(a, c), (b, d)])
            if count_c4(swapped) > 0:
                return replace(pg, graph=swapped)
    raise AssertionError("no swap closes a 4-cycle")


def test_gate_counts_the_cycles_of_a_corrupted_polarity_graph(monkeypatch):
    # polarity_graph proves no C4-freeness by a scan; criterion 2's count does
    bad = swapped_er_graph(8)
    assert np.array_equal(bad.graph.degrees(), er_graph(8).graph.degrees())
    monkeypatch.setattr(
        c4lab.acceptance, "er_graph", lambda q: bad if q == 8 else er_graph(q)
    )
    ok, detail = er_graph_exactness()
    assert not ok
    assert detail == "q=8 failed ['c4_count']"


def test_census_fails_when_a_recount_disagrees(monkeypatch):
    # the reports' total_c4 rests on the cached base count; the sampled recount checks it
    monkeypatch.setattr(c4lab.acceptance, "count_c4", lambda g: count_c4(g) + 1)
    ok, detail = single_edge_census()
    assert not ok
    found = re.fullmatch(r"q=4 uv=\(\d+,\d+\) recount (\d+) != total_c4 (\d+)", detail)
    assert found and int(found[1]) == int(found[2]) + 1
