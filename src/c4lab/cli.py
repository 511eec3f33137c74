"""Command-line front end: every build and experiment as a reproducible
subcommand.

Machine output is JSON on stdout (CSV rows on request for experiment
reports); the human summary goes to stderr. Every emitted report embeds
the run configuration. Exit codes: 0 success, 1 verdict failure, 2 usage
or domain error, 3 I/O error, 4 internal error (a broken invariant, raised
as AssertionError).
"""

import argparse
import json
import sys

import numpy as np

from .acceptance import run_all, run_criterion
from .extremal import (
    FUREDI_EXCLUDED,
    furedi_value,
    reiman_bound,
    turan_bruteforce,
    turan_lower_bound,
)
from .field import spec_for_order
from .graph import MAX_COUNT_N, count_c4, graph_stats, neighborhood_family
from .graph import read_edge_list, write_edge_list
from .plane import (
    _infer_order,
    build_pg2,
    read_incidence,
    verify_projective_plane,
    write_incidence,
)
from .polarity import (
    orthogonal_polarity,
    polarity_graph,
    read_polarity,
    verify_polarity,
    write_polarity,
)
from .supersat import (
    ExperimentReport,
    add_edge_experiment,
    classify_perturbation,
    er_graph,
    halfway_bound_check,
    matching_experiment,
    random_supersat,
    upper_count_audit,
)


class _ContentError(Exception):
    """Malformed input file; maps to exit 3 like any other I/O failure."""


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2, default=_json_default))


def _read(reader, path, **kwargs):
    """Parse an input file; malformed content is an I/O error (exit 3)."""
    try:
        return reader(path, **kwargs)
    except (ValueError, OverflowError) as exc:
        raise _ContentError(str(exc)) from exc


def _vertex_count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    if int(text) > MAX_COUNT_N:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_COUNT_N} vertices, got {text}")
    return int(text)


def _edge(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected u,v got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from exc


# ---------------------------------------------------------------------------
# handlers: each returns (exit code, payload, stderr summary)


def _cmd_plane_build(args):
    plane = build_pg2(spec_for_order(args.q))
    write_incidence(plane, args.out)
    payload = {"ok": True, "q": args.q, "points": plane.n_points, "lines": plane.n_lines}
    return 0, payload, f"wrote order-{args.q} plane ({plane.n_points} points) to {args.out}"


def _cmd_plane_verify(args):
    v = verify_projective_plane(_read(read_incidence, args.in_path))
    payload = {
        "ok": v.ok, "order": v.order, "axiom": v.axiom,
        "witness": v.witness, "detail": v.detail,
    }
    return (0 if v.ok else 1), payload, v.detail


def _cmd_polarity_build(args):
    pi = orthogonal_polarity(spec_for_order(args.q))
    write_polarity(pi, args.out)
    payload = {"ok": True, "q": args.q, "points": pi.plane.n_points}
    return 0, payload, f"wrote the symmetric pairing for order {args.q} to {args.out}"


def _cmd_polarity_verify(args):
    v = verify_polarity(_read(read_polarity, args.in_path))
    payload = {"ok": v.ok, "witness": v.witness}
    summary = "pairing is symmetric" if v.ok else f"asymmetric at {v.witness}"
    return (0 if v.ok else 1), payload, summary


def _cmd_polarity_graph(args):
    pg = polarity_graph(orthogonal_polarity(spec_for_order(args.q)))
    if args.out:
        write_edge_list(pg.graph, args.out)
    payload = {
        "q": pg.q, "vertices": pg.n, "edges": pg.edge_count,
        "absolute_points": len(pg.absolute_points), "a": pg.a, "m_pi": pg.m_pi,
        "out": args.out,
    }
    where = f", edge list in {args.out}" if args.out else ""
    return 0, payload, f"order-{args.q} graph: {pg.n} vertices, {pg.edge_count} edges{where}"


def _cmd_graph_count(args):
    g = _read(read_edge_list, args.in_path, n=args.n)
    payload = {"n": g.n, "m": g.m, "count_c4": count_c4(g)}
    return 0, payload, f"{payload['count_c4']} four-cycles in {g.n} vertices / {g.m} edges"


def _cmd_graph_stats(args):
    g = _read(read_edge_list, args.in_path, n=args.n)
    st = graph_stats(g, args.q)
    payload = {
        "n": st.n, "m": st.m, "q": st.q,
        "degree_histogram": st.degree_histogram,
        "s_below_size": len(st.s_below), "f_total": st.f_total,
        "p2": st.p2, "up": st.up,
    }
    return 0, payload, f"n={st.n} m={st.m}: {st.p2} two-paths, {st.up} uncovered pairs"


def _cmd_graph_family(args):
    g = _read(read_edge_list, args.in_path, n=args.n)
    nf = neighborhood_family(g, args.q, delta=args.delta)
    payload = {
        "q": args.q, "delta": args.delta, "size": nf.size,
        "one_intersecting": nf.one_intersecting, "witness": nf.witness,
        "s_size": len(nf.s), "b_size": len(nf.b), "a_size": len(nf.a),
    }
    verdict = "1-intersecting" if nf.one_intersecting else f"violation at {nf.witness}"
    return (0 if nf.one_intersecting else 1), payload, f"family of {nf.size} lines: {verdict}"


def _cmd_turan_brute(args):
    rec = turan_bruteforce(args.n)
    payload = {
        "n": rec.n, "value": rec.ex_value,
        "extremal_count": rec.extremal_count, "method": rec.method,
    }
    return 0, payload, f"max C4-free edge count at n={args.n}: {rec.ex_value}"


def _cmd_turan_bounds(args):
    payload = {"n": args.n, "reiman": reiman_bound(args.n)}
    q = args.q
    if q is None:
        # n of the form q^2 + q + 1 pins q
        q = _infer_order(args.n)
    if q is not None and q not in FUREDI_EXCLUDED:
        try:
            payload["furedi"] = {"q": q, "value": furedi_value(q).value}
        except ValueError:
            payload["furedi"] = None
    else:
        payload["furedi"] = None
    return 0, payload, f"degree-bound ceiling at n={args.n}: {payload['reiman']}"


def _cmd_turan_lower(args):
    payload = turan_lower_bound(args.n)
    code = 0 if payload["chain_holds"] and payload["p_lower_ok"] else 1
    return code, payload, (
        f"n={args.n}: prime {payload['p']}, construction bound {payload['bound']}"
    )


def _cmd_ss_add_edge(args):
    r = add_edge_experiment(er_graph(args.q), args.u, args.v)
    return _report_result(r)


def _cmd_ss_matching(args):
    r = matching_experiment(args.q, args.t, seed=args.seed)
    return _report_result(r)


def _cmd_ss_random(args):
    r = random_supersat(
        args.q, args.t, args.trials, seed=args.seed,
        count_cycles=not args.no_cycles, fraction_floor=args.floor,
    )
    return _report_result(r)


def _cmd_ss_halfway(args):
    g = _read(read_edge_list, args.in_path, n=args.n)
    r = halfway_bound_check(g, args.q)
    return _report_result(r)


def _cmd_ss_classify(args):
    r = classify_perturbation(er_graph(args.q), add=args.add, remove=args.remove)
    return _report_result(r)


def _cmd_ss_audit(args):
    payload = upper_count_audit(er_graph(args.q), args.add)
    code = 0 if payload["bound_ok"] else 1
    return code, payload, (
        f"{payload['total']} new cycles from {payload['s']} added edges "
        f"(budget {payload['bound_c0']}+{payload['bound_c1']})"
    )


def _report_result(r: ExperimentReport):
    failed = sorted(k for k, v in r.verdicts.items() if not v)
    summary = (
        f"{r.experiment}: all verdicts hold" if r.passed()
        else f"{r.experiment}: violated {failed}"
    )
    return (0 if r.passed() else 1), r, summary


def _cmd_verify_all(args):
    if args.criterion is not None:
        results = [run_criterion(args.criterion, full=args.full)]
    else:
        results = run_all(full=args.full)
    for r in results:
        print(r.line(), file=sys.stderr)
    payload = {
        "ok": all(r.ok for r in results),
        "criteria": [
            {"number": r.number, "title": r.title, "ok": r.ok,
             "detail": r.detail, "wall_time": r.wall_time}
            for r in results
        ],
    }
    n_bad = sum(not r.ok for r in results)
    summary = "all criteria hold" if not n_bad else f"{n_bad} criteria failed"
    return (0 if not n_bad else 1), payload, summary


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c4lab",
        description="Projective planes, polarity graphs, and exact 4-cycle counts.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name, fn, **kwargs):
        sp = group.add_parser(name, **kwargs)
        sp.set_defaults(func=fn)
        return sp

    plane = top.add_parser("plane", help="build or check plane incidence files")
    plane_sub = plane.add_subparsers(dest="action", required=True)
    sp = leaf(plane_sub, "build", _cmd_plane_build, help="construct a plane of order q")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--out", required=True, help="incidence file to write")
    sp = leaf(plane_sub, "verify", _cmd_plane_verify, help="run the plane axioms")
    sp.add_argument("--in", dest="in_path", required=True, help="incidence file")

    pol = top.add_parser("polarity", help="symmetric pairings and their graphs")
    pol_sub = pol.add_subparsers(dest="action", required=True)
    sp = leaf(pol_sub, "build", _cmd_polarity_build, help="standard pairing of order q")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--out", required=True, help="pairing file to write")
    sp = leaf(pol_sub, "verify", _cmd_polarity_verify, help="check a pairing file")
    sp.add_argument("--in", dest="in_path", required=True, help="pairing file")
    sp = leaf(pol_sub, "graph", _cmd_polarity_graph, help="build the pairing graph")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--out", help="optional edge list file")

    gr = top.add_parser("graph", help="statistics of an edge-list graph")
    gr_sub = gr.add_subparsers(dest="action", required=True)
    sp = leaf(gr_sub, "count-c4", _cmd_graph_count, help="exact 4-cycle count")
    sp.add_argument("--in", dest="in_path", required=True, help="edge list file")
    sp.add_argument("--n", type=_vertex_count, help="vertex count override for isolated tails")
    sp = leaf(gr_sub, "stats", _cmd_graph_stats, help="degree and pair statistics")
    sp.add_argument("--in", dest="in_path", required=True, help="edge list file")
    sp.add_argument("--n", type=_vertex_count, help="vertex count override")
    sp.add_argument("--q", type=int, required=True, help="target order")
    sp = leaf(gr_sub, "family", _cmd_graph_family, help="neighborhood family extraction")
    sp.add_argument("--in", dest="in_path", required=True, help="edge list file")
    sp.add_argument("--n", type=_vertex_count, help="vertex count override")
    sp.add_argument("--q", type=int, required=True, help="target order")
    sp.add_argument("--delta", type=float, default=0.25)

    tu = top.add_parser("turan", help="extremal edge counts and bounds")
    tu_sub = tu.add_subparsers(dest="action", required=True)
    sp = leaf(tu_sub, "brute", _cmd_turan_brute, help="exhaustive small-n maximum")
    sp.add_argument("--n", type=int, required=True)
    sp = leaf(tu_sub, "bounds", _cmd_turan_bounds, help="closed-form upper bounds")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=int, help="order for the exact prime-power value")
    sp = leaf(tu_sub, "lower", _cmd_turan_lower, help="prime-window construction bound")
    sp.add_argument("--n", type=int, required=True)

    ss = top.add_parser("supersat", help="cycle-count experiments above the threshold")
    ss_sub = ss.add_subparsers(dest="action", required=True)
    sp = leaf(ss_sub, "add-edge", _cmd_ss_add_edge, help="single-edge cycle census")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--u", type=int, required=True)
    sp.add_argument("--v", type=int, required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp = leaf(ss_sub, "matching", _cmd_ss_matching, help="matched-pair additions")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0,
                    help="0 picks the first pairs deterministically")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp = leaf(ss_sub, "random", _cmd_ss_random, help="random sprinkling trials")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True,
                    help="mandatory: stochastic runs never draw silent entropy")
    sp.add_argument("--no-cycles", action="store_true",
                    help="skip per-trial cycle counts (edge statistics only)")
    sp.add_argument("--floor", type=float, default=0.15,
                    help="tested lower bound for the qualifying-trial fraction")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp = leaf(ss_sub, "halfway", _cmd_ss_halfway, help="unconditional count bound")
    sp.add_argument("--in", dest="in_path", required=True, help="edge list file")
    sp.add_argument("--n", type=_vertex_count, help="vertex count override")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp = leaf(ss_sub, "classify", _cmd_ss_classify, help="graded perturbation check")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--add", type=_edge, action="append", default=[],
                    metavar="U,V", help="edge to add (repeatable)")
    sp.add_argument("--remove", type=_edge, action="append", default=[],
                    metavar="U,V", help="edge to remove (repeatable)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp = leaf(ss_sub, "audit", _cmd_ss_audit, help="per-edge cycle budget audit")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--add", type=_edge, action="append", default=[],
                    metavar="U,V", help="added edge (repeatable)")

    ver = top.add_parser("verify", help="run the release gate")
    ver_sub = ver.add_subparsers(dest="action", required=True)
    sp = leaf(ver_sub, "all", _cmd_verify_all, help="all twelve criteria")
    sp.add_argument("--full", action="store_true", help="extended q scans")
    sp.add_argument("--criterion", type=int, help="run a single criterion by number")

    return parser


def _config_of(args) -> dict:
    cfg = {}
    for key, value in vars(args).items():
        if key in ("func",):
            continue
        cfg["in" if key == "in_path" else key] = value
    return cfg


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _config_of(args)
    try:
        code, payload, summary = args.func(args)
    except (OSError, _ContentError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    if isinstance(payload, ExperimentReport):
        if getattr(args, "format", "json") == "csv":
            print(f"# config {json.dumps(cfg, sort_keys=True)}")
            print(payload.csv_header())
            print(payload.csv_row())
        else:
            body = json.loads(payload.to_json())
            body["config"] = cfg
            _emit_json(body)
    else:
        payload = dict(payload)
        payload["config"] = cfg
        _emit_json(payload)
    print(summary, file=sys.stderr)
    return code


def main() -> None:
    raise SystemExit(cli_dispatch())


if __name__ == "__main__":
    main()
