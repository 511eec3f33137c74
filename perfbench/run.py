"""Outside-in benchmark of c4lab: one workload per process, one JSON result.

    python3 perfbench/run.py --workload construct-certify --seed 1 --seconds 30 --trace 0

The runner imports c4lab from the ``src`` directory next to ``perfbench``, sets
up the workload from ``--seed``, times whole passes over it and checks every
output against exact expected values.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it wraps c4lab's public entry points,
sets up and times one pass, and reports per-layer metrics.  The last line of
standard output is the result object.
``--smoke`` runs every segment at tiny sizes; ``--wrong-expected`` (smoke
only) corrupts one expected value to show that the checks can fail a run.
See README.md beside this file.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402


def _since_process_start() -> float:
    """Seconds from this process's start to now, from /proc (Linux, 10-ms ticks)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rpartition(")")[2].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, AttributeError):
        return 0.0  # elsewhere set-up is timed from the runner's first statement


STARTUP_S = _since_process_start()  # interpreter start-up, before T0

# one process, one thread: no BLAS or OpenMP pools in the measured process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["construct-certify", "perturb-recount", "small-exact"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="time box: whole passes repeat while another fits (at least one)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--wrong-expected", action="store_true")
    args = ap.parse_args(argv)
    if args.wrong_expected and not args.smoke:
        ap.error("--wrong-expected is only for --smoke runs")
    return args


def import_c4lab():
    """Import the checkout's c4lab, never an installed copy."""
    if not (SRC / "c4lab" / "__init__.py").is_file():
        sys.exit(f"error: no c4lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import c4lab

    if Path(c4lab.__file__).resolve().parent != SRC / "c4lab":
        sys.exit(f"error: imported c4lab from {c4lab.__file__}, not from {SRC}")
    return c4lab


def commit_of(root: Path) -> str:
    """HEAD's commit read from the .git directory, without running git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(c4lab):
    import numpy
    import scipy

    return {
        "commit": commit_of(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "c4lab": c4lab.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None):
    args = parse_args(argv)
    c4lab = import_c4lab()
    import tracing
    import workloads

    import_s = time.perf_counter() - T0
    if args.wrong_expected:
        workloads.EXPECTED_EX[4] += 1
    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    wl = workloads.Workload(args.workload, args.seed, args.smoke, str(workdir))
    env = environment(c4lab)
    env["loadavg_before"] = os.getloadavg()

    attempted, failures = 0, []

    def timed_pass(latencies):
        t = time.perf_counter()
        out = wl.run(latencies)
        wall = time.perf_counter() - t
        return wall, out

    def check(out):
        nonlocal attempted, failures
        a, f = wl.check(out)
        attempted += a
        failures += f

    if args.trace:
        tracer = tracing.Tracer()
        wrapped = tracer.install()  # before set-up, so the er_graph builds are spans
    repeats = 1 if (args.smoke or args.trace) else SETUP_REPEATS
    setups = []
    for _ in range(repeats):
        t = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t)

    if args.trace == 0:
        walls, p50s, p90s, ops = [], [], [], 0
        while True:
            latencies: list[float] = []
            wall, out = timed_pass(latencies)
            walls.append(wall)
            # quantiles per pass, so a pass in another host state does not split the pool
            p50s.append(statistics.median(latencies))
            p90s.append(statistics.quantiles(latencies, n=10, method="inclusive")[8])
            ops += len(latencies)
            check(out)
            if args.smoke or sum(walls) + statistics.median(walls) > args.seconds:
                break
        metrics = {
            "setup_s": (STARTUP_S + import_s + statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "op_p50_ms": (1e3 * statistics.median(p50s), "ms"),
            "op_p90_ms": (1e3 * statistics.median(p90s), "ms"),
        }
        detail = {"passes": len(walls), "pass_walls_s": walls, "setup_runs_s": setups,
                  "startup_s": STARTUP_S, "import_s": import_s, "ops": ops,
                  "pass_op_p50_ms": [1e3 * v for v in p50s]}
    else:
        tracer.run, tracer.counting_s = "pass", 0.0
        cpu = time.process_time()
        traced_wall, out = timed_pass([])
        cpu = time.process_time() - cpu
        tracer.run = "check"
        pass_spans = sum(1 for s in tracer.spans if s[4] == "pass")
        counting_s = tracer.counting_s
        check(out)
        # what the wrappers add to the pass: each span's cost plus the work counts
        per_span = tracing.span_cost()
        overhead = pass_spans * per_span + counting_s
        metrics = tracing.layer_metrics(tracer, traced_wall, cpu, overhead)
        spans_path = workdir / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        detail = {"wrapped_entry_points": wrapped, "spans": len(tracer.spans),
                  "pass_spans": pass_spans, "span_cost_s": per_span,
                  "counting_s": counting_s,
                  "spans_file": str(spans_path.relative_to(ROOT))}

    env["loadavg_after"] = os.getloadavg()
    detail["failures"] = failures[:20]
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                      "smoke": args.smoke, "trace": args.trace, "detail": detail}))
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6f} {unit}")
    if args.trace:
        print("\n".join(tracing.size_table(tracer.spans)))
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
