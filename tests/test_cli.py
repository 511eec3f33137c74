"""End-to-end command-line checks: file round trips, report emission,
config embedding, and the exit-code contract."""

import json

import pytest

import c4lab.cli
import c4lab.supersat
from c4lab.acceptance import _nonedge_pairs
from c4lab.cli import cli_dispatch
from c4lab.graph import MAX_COUNT_N, count_c4, write_edge_list
from c4lab.plane import IncidenceStructure, build_pg2, write_incidence
from c4lab.field import spec_for_order
from c4lab.supersat import er_graph


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestPlaneCommands:
    def test_build_verify_roundtrip(self, capsys, tmp_path):
        path = str(tmp_path / "pg8.inc")
        code, payload, _ = run_json(capsys, "plane", "build", "--q", "8", "--out", path)
        assert code == 0
        assert payload["points"] == 73
        assert payload["config"]["command"] == "plane"
        code, payload, err = run_json(capsys, "plane", "verify", "--in", path)
        assert code == 0
        assert payload["ok"] and payload["order"] == 8
        assert "order 8" in err

    def test_verify_rejects_non_plane(self, capsys, tmp_path):
        fano = build_pg2(spec_for_order(2))
        lines = fano.lines()
        lines[0] = lines[1]  # duplicated line: two lines share 3 points
        path = str(tmp_path / "broken.inc")
        write_incidence(IncidenceStructure(7, lines), path)
        code, payload, _ = run_json(capsys, "plane", "verify", "--in", path)
        assert code == 1
        assert not payload["ok"]
        # duplicated line skews point degrees, caught before intersections
        assert payload["axiom"] == "regularity"

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "plane", "verify", "--in", str(tmp_path / "no.inc"))
        assert code == 3
        assert "i/o error" in err

    def test_corrupt_file_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "bad.inc"
        path.write_text("garbage\n")
        code, _, err = run(capsys, "plane", "verify", "--in", str(path))
        assert code == 3

    @pytest.mark.parametrize(
        "command,text",
        [
            ("graph count-c4", "0 99999999999999999999\n"),
            ("plane verify", "points 7 lines 1\n0 99999999999999999999 1\n"),
            ("polarity verify", "q 2\n99999999999999999999\n"),
        ],
    )
    def test_token_outside_int64_is_io_error(self, capsys, tmp_path, command, text):
        path = tmp_path / "big.txt"
        path.write_text(text)
        code, out, err = run(capsys, *command.split(), "--in", str(path))
        assert code == 3 and out == ""
        assert err.startswith("i/o error: ")


class TestPolarityCommands:
    def test_build_verify_graph(self, capsys, tmp_path):
        pol = str(tmp_path / "p4.pol")
        code, _, _ = run_json(capsys, "polarity", "build", "--q", "4", "--out", pol)
        assert code == 0
        code, payload, _ = run_json(capsys, "polarity", "verify", "--in", pol)
        assert code == 0 and payload["ok"]
        edges = str(tmp_path / "er4.edges")
        code, payload, _ = run_json(
            capsys, "polarity", "graph", "--q", "4", "--out", edges
        )
        assert code == 0
        assert payload["edges"] == 50 and payload["absolute_points"] == 5
        code, payload, _ = run_json(capsys, "graph", "count-c4", "--in", edges)
        assert code == 0
        assert payload == {
            "n": 21, "m": 50, "count_c4": 0,
            "config": payload["config"],
        }


class TestGraphCommands:
    @pytest.fixture()
    def er8_edges(self, capsys, tmp_path):
        path = str(tmp_path / "er8.edges")
        assert run(capsys, "polarity", "graph", "--q", "8", "--out", path)[0] == 0
        return path

    def test_stats(self, capsys, er8_edges):
        code, payload, _ = run_json(
            capsys, "graph", "stats", "--in", er8_edges, "--q", "8"
        )
        assert code == 0
        assert payload["n"] == 73 and payload["m"] == 324
        assert payload["degree_histogram"] == {"8": 9, "9": 64}
        assert payload["p2"] + payload["up"] == 73 * 72 // 2

    def test_family_exit_codes(self, capsys, er8_edges, tmp_path):
        code, payload, _ = run_json(
            capsys, "graph", "family", "--in", er8_edges, "--q", "8"
        )
        assert code == 0
        assert payload["size"] == 63 and payload["one_intersecting"]
        # K4 neighborhoods pairwise share two vertices
        k4 = tmp_path / "k4.edges"
        k4.write_text("".join(f"{u} {v}\n" for u in range(4) for v in range(u + 1, 4)))
        code, payload, _ = run_json(
            capsys, "graph", "family", "--in", str(k4), "--q", "2"
        )
        assert code == 1
        assert not payload["one_intersecting"]

    @pytest.mark.parametrize("delta", ["nan", "inf", "-1"])
    def test_family_refuses_a_non_finite_or_negative_delta(self, capsys, er8_edges, delta):
        code, out, err = run(
            capsys, "graph", "family", "--in", er8_edges, "--q", "8", "--delta", delta
        )
        assert code == 2 and out == ""
        assert "delta must be finite and positive" in err


    def test_negative_vertex_count_is_a_usage_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.edges"
        empty.write_text("")
        for bad in ("-2", "1.5", "x"):
            with pytest.raises(SystemExit) as exc:
                cli_dispatch(["graph", "count-c4", "--in", str(empty), "--n", bad])
            assert exc.value.code == 2
            assert f"expected a nonnegative integer, got '{bad}'" in capsys.readouterr().err
        code, payload, _ = run_json(capsys, "graph", "count-c4", "--in", str(empty), "--n", "0")
        assert code == 0 and payload["n"] == 0 and payload["count_c4"] == 0

    @pytest.mark.parametrize("bad", [10**20, 2**31, MAX_COUNT_N + 1])
    @pytest.mark.parametrize(
        "command",
        [["graph", "count-c4"], ["graph", "stats", "--q", "8"], ["graph", "family", "--q", "8"],
         ["supersat", "halfway", "--q", "8"]],
    )
    def test_vertex_count_above_the_counting_limit_is_a_usage_error(
        self, capsys, monkeypatch, tmp_path, command, bad
    ):
        # refused while the arguments are parsed, before any file is read
        monkeypatch.setattr(c4lab.cli, "read_edge_list", None)
        missing = str(tmp_path / "missing.edges")
        with pytest.raises(SystemExit) as exc:
            cli_dispatch(command + ["--in", missing, "--n", str(bad)])
        assert exc.value.code == 2
        assert f"expected at most {MAX_COUNT_N} vertices, got {bad}" in capsys.readouterr().err

    def test_vertex_count_at_the_counting_limit_is_accepted(self, capsys, tmp_path):
        empty = tmp_path / "empty.edges"
        empty.write_text("")
        code, payload, _ = run_json(
            capsys, "graph", "count-c4", "--in", str(empty), "--n", str(MAX_COUNT_N)
        )
        assert code == 0 and payload["n"] == MAX_COUNT_N and payload["count_c4"] == 0


class TestTuranCommands:
    def test_brute(self, capsys):
        code, payload, _ = run_json(capsys, "turan", "brute", "--n", "7")
        assert code == 0
        assert payload["n"] == 7 and payload["value"] == 9
        assert payload["extremal_count"] == 5

    def test_bounds_infers_order(self, capsys):
        code, payload, _ = run_json(capsys, "turan", "bounds", "--n", "21")
        assert code == 0
        assert payload["reiman"] == 52
        assert payload["furedi"] == {"q": 4, "value": 50}
        code, payload, _ = run_json(capsys, "turan", "bounds", "--n", "20")
        assert payload["furedi"] is None

    def test_lower(self, capsys):
        code, payload, _ = run_json(capsys, "turan", "lower", "--n", "10000")
        assert code == 0
        assert payload["p"] == 97 and payload["bound"] == 465794


class TestSupersatCommands:
    def test_matching_report(self, capsys):
        code, payload, err = run_json(
            capsys, "supersat", "matching", "--q", "16", "--t", "4"
        )
        assert code == 0
        assert payload["measured"]["count"] == 60
        assert all(payload["verdicts"].values())
        assert payload["config"]["t"] == 4
        assert "all verdicts hold" in err

    def test_matching_csv(self, capsys):
        code, out, _ = run(
            capsys, "supersat", "matching", "--q", "8", "--t", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1].split(",")[0] == "experiment"
        assert lines[2].startswith("matching,8,")

    def test_add_edge(self, capsys):
        from c4lab.supersat import er_graph

        a = er_graph(8).absolute_points
        code, payload, _ = run_json(
            capsys, "supersat", "add-edge", "--q", "8",
            "--u", str(int(a[0])), "--v", str(int(a[1])),
        )
        assert code == 0
        assert payload["measured"]["count"] == 7

    @pytest.mark.parametrize("u", ["22", "-1"])
    def test_add_edge_endpoint_out_of_range(self, capsys, u):
        code, _, err = run(capsys, "supersat", "add-edge", "--q", "4", "--u", u, "--v", "1")
        assert code == 2
        assert "endpoint out of range" in err

    @pytest.mark.parametrize(
        "u,v,message", [("3", "3", "loop at vertex 3 rejected"), ("0", "1", "(0, 1) is already an edge")]
    )
    def test_add_edge_refused_input(self, capsys, u, v, message):
        code, out, err = run(capsys, "supersat", "add-edge", "--q", "16", "--u", u, "--v", v)
        assert code == 2 and out == ""
        assert message in err

    def test_random_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_dispatch(["supersat", "random", "--q", "8", "--t", "2", "--trials", "3"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("floor", ["nan", "inf", "-0.5", "1.5"])
    def test_random_refuses_a_floor_outside_the_unit_interval(self, capsys, floor):
        code, out, err = run(
            capsys, "supersat", "random", "--q", "8", "--t", "2", "--trials", "3",
            "--seed", "1", "--floor", floor,
        )
        assert code == 2 and out == ""
        assert "fraction_floor must be a finite number in [0, 1]" in err

    def test_random_reproducible(self, capsys):
        argv = ["supersat", "random", "--q", "8", "--t", "3",
                "--trials", "4", "--seed", "9"]
        code1, p1, _ = run_json(capsys, *argv)
        code2, p2, _ = run_json(capsys, *argv)
        assert code1 == code2 == 0
        p1.pop("wall_time"), p2.pop("wall_time")
        assert p1 == p2

    def test_classify_and_audit(self, capsys):
        code, payload, _ = run_json(
            capsys, "supersat", "classify", "--q", "8", "--add", "1,2"
        )
        assert code == 0
        assert payload["measured"]["verdict_kind"] == "required"
        code, payload, _ = run_json(
            capsys, "supersat", "audit", "--q", "8", "--add", "1,2", "--add", "3,4"
        )
        assert code == 0
        assert payload["s"] == 2 and payload["bound_ok"]

    def test_audit_refuses_a_repeated_edge(self, capsys):
        code, out, err = run(
            capsys, "supersat", "audit", "--q", "16", "--add", "2,18", "--add", "2,18"
        )
        assert code == 2 and out == ""
        assert "an edge is listed twice in add" in err

    def test_halfway(self, capsys, tmp_path):
        g = er_graph(4).graph
        g5 = g.add_edges(_nonedge_pairs(g)[:5])
        path = str(tmp_path / "er4_plus_5.edges")
        write_edge_list(g5, path)
        code, payload, err = run_json(capsys, "supersat", "halfway", "--in", path, "--q", "4")
        assert code == 0 and "all verdicts hold" in err
        assert payload["measured"] == {"t": 5, "count": count_c4(g5)}
        assert payload["config"]["in"] == path
        # an odd order, and ER(4) itself with no edge above the threshold
        write_edge_list(g, str(tmp_path / "er4.edges"))
        for name, q, message in (
            ("er4_plus_5", "3", "odd order"),
            ("er4", "4", "edge count 50 is below the threshold 51"),
        ):
            code, out, err = run(
                capsys, "supersat", "halfway", "--in", str(tmp_path / f"{name}.edges"), "--q", q
            )
            assert code == 2 and out == "" and message in err

    def test_domain_error_is_usage_exit(self, capsys):
        code, _, err = run(capsys, "supersat", "matching", "--q", "9", "--t", "1")
        assert code == 2
        assert "odd order" in err


class TestDispatch:
    def test_unknown_action_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_dispatch(["plane", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_verify_single_criterion(self, capsys):
        code, out, err = run(capsys, "verify", "all", "--criterion", "10")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["criteria"][0]["number"] == 10
        assert "criterion 10 [PASS]" in err

    def test_broken_invariant_is_internal_error(self, capsys, monkeypatch):
        # a wrong global count breaks the audit's cross-check of its partition
        monkeypatch.setattr(c4lab.supersat, "count_c4", lambda g: -1)
        code, out, err = run(capsys, "supersat", "audit", "--q", "8", "--add", "1,2")
        assert code == 4 and out == ""
        assert "internal error: cycle partition" in err
        code, _, err = run(capsys, "supersat", "audit", "--q", "8", "--add", "1,1")
        assert code == 2
        assert "loop at vertex 1" in err

    def test_bad_edge_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_dispatch(["supersat", "classify", "--q", "8", "--add", "1-2"])
        assert exc.value.code == 2
        capsys.readouterr()
