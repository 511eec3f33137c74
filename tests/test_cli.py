"""End-to-end command-line checks: file round trips, report emission,
config embedding, and the exit-code contract."""

import json

import pytest

import c4lab.supersat
from c4lab.cli import cli_dispatch
from c4lab.plane import IncidenceStructure, build_pg2, write_incidence
from c4lab.field import spec_for_order


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

    def test_random_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_dispatch(["supersat", "random", "--q", "8", "--t", "2", "--trials", "3"])
        assert exc.value.code == 2
        capsys.readouterr()

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
