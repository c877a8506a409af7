"""stablecut benchmark: the real CLI, driven in-process, on seeded instance files.

    python3 perfbench/run.py --workload NAME [--seed N | --held-out]
                             [--seconds S] [--trace 0|1] [--out FILE]

Run from the repository root.  Set-up first draws the workload's instances
(untimed), then imports the package from src/ afresh and writes the instance
files; that repeats (SETUP_REPS, SETUP_SECONDS) and setup_s is the median.
One client then calls stablecut.cli.main in a closed loop, in whole passes
over the instance list, for at most --seconds (default: run_seconds in
BENCHMARK.json) and checks every report (checks.py).  With --trace 1 the
first TRACE_OPS instances run untraced and twice traced (tracing.py), and
the per-layer metrics are printed instead.
Metric names, units and directions come from BENCHMARK.json; the last line
of stdout is the result as JSON.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are small and the machine may be shared.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from checks import Checker, Tally
from instances import WORKLOADS, fingerprint, plan, write
from tracing import SWEEPS, Tracer, assert_untraced

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
# Never used while a change is being written; a claim must also hold on it.
HELD_OUT_SEED = 20090617
# Set-up repeats at least SETUP_REPS times and for at least SETUP_SECONDS.
SETUP_REPS = 5
SETUP_SECONDS = 1.0
TRACE_OPS = 6  # the traced run goes through the first TRACE_OPS instances
TAIL_BEYOND = 10  # latency_tail_ms leaves at least this many samples above it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    seed = p.add_mutually_exclusive_group()
    seed.add_argument("--seed", type=int, default=DEFAULT_SEED,
                      help=f"workload seed (default {DEFAULT_SEED})")
    seed.add_argument("--held-out", action="store_true",
                      help=f"use the held-out seed {HELD_OUT_SEED}")
    p.add_argument("--seconds", type=float,
                   help="length of the timed loop (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full result record to this JSON file")
    args = p.parse_args(argv)
    if args.held_out:
        args.seed = HELD_OUT_SEED
    return args


def environment(workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload": workload,
        "seed": seed,
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_cli():
    for name in [m for m in sys.modules if m == "stablecut" or m.startswith("stablecut.")]:
        del sys.modules[name]
    return importlib.import_module("stablecut.cli")


def set_up_once(planned, workdir: Path):
    """Import the package afresh and write the planned files; return the time."""
    t0 = time.perf_counter()
    cli = import_cli()
    insts = write(planned, cli, str(workdir))
    return time.perf_counter() - t0, cli, insts


def run_ops(cli, workload, insts, checker, out: str, seconds=None, tracer=None):
    """Closed loop, one client: each op starts when the previous one is checked.

    Goes through insts once or, given `seconds`, in whole passes: another
    pass starts only if a pass as long as the last one would still end within
    `seconds`.  Whole passes run every instance equally often, so where the
    run stops does not change the mix of instances.
    """
    latencies, tally = [], Tally()
    end = None if seconds is None else time.perf_counter() + seconds
    while True:
        pass_start = time.perf_counter()
        for inst in insts:
            argv = inst.argv(workload.command, out)
            if os.path.exists(out):
                os.remove(out)
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # an op that raises is a failed op; keep measuring
                traceback.print_exc()
                rc = -1
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_op()
            tally.add(checker.check(workload.command, inst, rc, out))
        now = time.perf_counter()
        if end is None or 2 * now - pass_start > end:
            return latencies, tally


def traced_run(cli, workload, insts, checker, out: str):
    """One untraced and two traced passes over insts, interleaved op by op,
    with the order rotated at each instance: drift in machine speed and the
    cost of running an instance first hit all three passes alike.

    Returns (time, tracer, tally) per pass; the untraced pass comes first,
    with no tracer.
    """
    passes = [[0.0, None, Tally()], [0.0, Tracer(), Tally()], [0.0, Tracer(), Tally()]]
    for i, inst in enumerate(insts):
        for p in passes[i % 3 :] + passes[: i % 3]:
            tracer = p[1]
            if tracer is not None:
                tracer.install()
            try:
                lat, t = run_ops(cli, workload, [inst], checker, out, tracer=tracer)
            finally:
                if tracer is not None:
                    tracer.restore()
            assert_untraced()
            p[0] += lat[0]
            p[2].add(t)
    return [tuple(p) for p in passes]


def end_to_end(latencies, tally: Tally, setup_times, n_insts: int) -> tuple[dict, dict]:
    lat = sorted(1000.0 * x for x in latencies)
    k = max(len(lat) - TAIL_BEYOND, 1)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(lat) / (sum(lat) / 1000.0),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": lat[k - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cut_ratio": tally.value_ratio / tally.answers if tally.answers else 0.0,
    }
    details = {
        "latency_samples": len(lat),
        "latency_tail_percentile": 100.0 * k / len(lat),
        "failed_ops_ratio": tally.failed / tally.attempted,
        "exact_ratio": tally.exact / tally.answers if tally.answers else None,
        "certified_ratio": tally.certified / tally.dual_solves if tally.dual_solves else None,
        "setup_runs": len(setup_times),
        "passes": len(lat) // n_insts,
    }
    return metrics, details


def per_layer(untraced_s: float, passes) -> dict:
    """Counts from the first traced pass, times averaged over both."""
    (wall_a, ta, tally), (wall_b, tb, _) = passes
    c = ta.counts
    ops = ta.op

    def self_ms(fn: str) -> float:
        return 500.0 * (ta.self_s[fn] + tb.self_s[fn])

    def total_ms(fn: str) -> float:
        return 500.0 * (ta.total_s[fn] + tb.total_s[fn])

    def layer_ms(layer: str) -> float:
        return 500.0 * (ta.layer_self_s(layer) + tb.layer_self_s(layer))

    sweep_s = sum(total_ms(f) for f in SWEEPS) / 1000.0
    solve_ms = total_ms("dualsdp.solve_min_trace")
    dual_calls = c["dualsdp.solve_min_trace.calls"]
    iterations = c["dualsdp.iterations"]
    return {
        "oracle.sweeps_per_op": c["oracle.sweeps"] / ops,
        "oracle.partitions": c["oracle.partitions"],
        "oracle.self_ms": layer_ms("oracle"),
        "oracle.partitions_per_s": c["oracle.partitions"] / sweep_s if sweep_s else 0.0,
        "dualsdp.solve_min_trace.calls": dual_calls,
        "dualsdp.iterations": iterations,
        "dualsdp.converged_ratio": c["dualsdp.converged"] / dual_calls if dual_calls else 0.0,
        "dualsdp.ms_per_iteration": solve_ms / iterations if iterations else 0.0,
        "dualsdp.polish_cut.calls": c["dualsdp.polish_cut.calls"],
        "dualsdp.polish_cut.self_ms": self_ms("dualsdp.polish_cut"),
        "dualsdp.self_ms": layer_ms("dualsdp"),
        "dualsdp.certified_ratio": tally.certified / max(tally.dual_solves, 1),
        "solvers.exact_ratio": tally.exact / max(tally.answers, 1),
        "spectral.eigen_smallest_two.calls": c["spectral.eigen_smallest_two.calls"],
        "spectral.eigen_smallest_two.self_ms": self_ms("spectral.eigen_smallest_two"),
        "spectral.self_ms": layer_ms("spectral"),
        "combinatorial.greedy_runs": c["combinatorial.find_max_cut_greedy.calls"]
        + c["combinatorial.greedy_applicability.calls"],
        "combinatorial.merges": c["combinatorial.merges"],
        "combinatorial.self_ms": layer_ms("combinatorial"),
        "graph.load_graph.ms": total_ms("graph.load_graph"),
        "graph.self_ms": layer_ms("graph"),
        "report.self_ms": layer_ms("report"),
        "report.conditions_section.ms": total_ms("report.conditions_section"),
        "cli.self_ms": layer_ms("cli"),
        "trace.wall_ms": 500.0 * (wall_a + wall_b),
        "trace_overhead_ratio": (wall_a + wall_b) / 2.0 / untraced_s,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "stablecut" / "__init__.py").is_file():
        print(f"error: no stablecut package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    problems: list[str] = []
    try:
        cli = import_cli()
        planned = plan(workload, args.seed, cli, str(work / "plan"), cli.oracle.TIE_REL_TOL)
        setup_times, prints = [], []
        while not setup_times or not args.trace and (
            len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_SECONDS
        ):
            rep_dir = work / f"setup{len(setup_times)}"
            seconds, cli, insts = set_up_once(planned, rep_dir)
            setup_times.append(seconds)
            prints.append(fingerprint(insts))
        if any(p != prints[0] for p in prints):
            problems.append("set-up wrote different instance files for the same seed")
        schema = ROOT / "src" / "stablecut" / "schemas" / "report.schema.json"
        checker = Checker(str(schema), cli.oracle.TIE_REL_TOL)
        out = str(work / "report.json")
        assert_untraced()
        _, tally = run_ops(cli, workload, insts[:1], checker, out)  # warm-up, untimed
        if not args.trace:
            seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
            latencies, timed = run_ops(cli, workload, insts, checker, out, seconds=seconds)
            tally.add(timed)
            metrics, details = end_to_end(latencies, timed, setup_times, len(insts))
        else:
            insts = insts[:TRACE_OPS]
            passes = traced_run(cli, workload, insts, checker, out)
            for _, _, pass_tally in passes:
                tally.add(pass_tally)
            a, b = passes[1][1].counts, passes[2][1].counts
            differ = sorted(k for k in a.keys() | b.keys() if a[k] != b[k])
            if differ:
                problems.append(f"traced passes disagree on counts: {differ}")
            metrics = per_layer(passes[0][0], passes[1:])
            details = {"trace_ops_per_pass": len(insts), "counts": dict(sorted(a.items()))}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} != BENCHMARK.json {sorted(declared)}")
    problems += tally.errors
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    env = environment(workload.name, args.seed)
    print(f"{workload.name}, seed {args.seed}: {tally.attempted} ops, {tally.failed} failed")
    for name, value in metrics.items():
        unit, better = declared[name]["unit"], declared[name]["better"]
        print(f"  {name:38s} {value:14.6f} {unit:6s} ({better} is better)")
    for name, value in details.items():
        if name != "counts":
            print(f"  {name:38s} {value}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": declared[k]["unit"]} for k, v in metrics.items()},
    }
    if args.out:
        record = dict(result, env=env, trace=args.trace, details=details, problems=problems[:50])
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
