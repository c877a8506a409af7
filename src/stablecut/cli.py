"""Command-line front end.

Subcommands: gen {planted|gnp|scale|amplify}, solve, verify, spectrum,
bench.  Exit codes: 0 success, 2 usage/validation, 3 guarantee-not-met,
4 size-limit.  Only gen planted, gen gnp, gen scale and bench draw random
numbers, each from its --seed; solve, verify and spectrum are deterministic.
Pass --no-timing to zero wall-clock fields so reruns are byte-identical.

The env var STABLECUT_ORACLE_LIMIT overrides the exhaustive-enumeration cap
(an integer in 1..32, default 22); any other value exits 2.  A graph file
may declare at most 4096 vertices (graph.MAX_FILE_VERTICES); a larger
header exits 4 before anything is allocated, and so do gen planted, gen
gnp and bench with an --n above that, gen amplify of a file with more
than half that many vertices, and bench --solver oracle with an --n above
the enumeration cap.  Exit 2 also covers a graph file that cannot be read
or is not ASCII, weights summing above graph.MAX_WEIGHT_SUM, --max-iter
below 1 (solve, bench), a --tol (solve, bench) that is not a finite
number >= 0, a --gamma or --tau that is not finite, a negative --seed
(gen planted, gen gnp, gen scale, bench), a bench --n or --gamma list token
that is not a number, a bench --n that is not an even number >= 2, and
bench --trials below 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import combinatorial, dualsdp, generators, oracle, report, spectral
from .errors import SizeLimitError, ValidationError
from .graph import MAX_FILE_VERTICES, WeightedGraph, _check_file_vertices, load_graph, save_graph

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARANTEE = 3
EXIT_SIZE = 4


def _oracle_limit() -> int:
    raw = os.environ.get("STABLECUT_ORACLE_LIMIT")
    if raw is None:
        return oracle.DEFAULT_ENUM_LIMIT
    try:
        limit = int(raw)
    except ValueError as exc:
        raise ValidationError(f"bad STABLECUT_ORACLE_LIMIT value {raw!r}") from exc
    if not 1 <= limit <= oracle.MAX_ENUM_LIMIT:
        raise ValidationError(
            f"STABLECUT_ORACLE_LIMIT must be in 1..{oracle.MAX_ENUM_LIMIT}, got {raw!r}"
        )
    return limit


def _check_finite(option: str, value: float | None, minimum: float = -math.inf) -> None:
    if value is not None and not (math.isfinite(value) and value >= minimum):
        bound = "" if minimum == -math.inf else f" >= {minimum:g}"
        raise ValidationError(f"{option} must be a finite number{bound}, got {value!r}")


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def _dump_json(obj: dict, out: str | None) -> None:
    _write(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _load(path: str) -> WeightedGraph:
    try:
        return load_graph(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read graph file {path}: {exc}") from exc


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


def _sidecar_for(path: str) -> dict | None:
    """The generator metadata beside `path`: its .json sidecar if that is an
    ASCII file holding a JSON object (NaN and Infinity are not JSON), else
    None."""
    try:
        with open(os.path.splitext(path)[0] + ".json", "r", encoding="ascii") as fh:
            meta = json.load(fh, parse_constant=_not_json)
    except (OSError, ValueError):  # missing, unreadable, not ASCII or not JSON
        return None
    return meta if isinstance(meta, dict) else None


def _write_instance(outdir: str, stem: str, g: WeightedGraph, sidecar: dict) -> str:
    os.makedirs(outdir, exist_ok=True)
    gpath = os.path.join(outdir, stem + ".graph")
    save_graph(g, gpath)
    _dump_json(sidecar, os.path.join(outdir, stem + ".json"))
    return gpath


# --- gen -----------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    if args.model == "planted":
        _check_finite("--gamma", args.gamma)
        dist = generators.WeightDistribution.parse(args.dist)
        g, planted = generators.gen_planted(args.n, dist, args.gamma, args.seed)
        stem = f"planted_n{args.n}_g{args.gamma!r}_s{args.seed}"
        sidecar = {
            "model": "planted",
            "seed": args.seed,
            "params": {
                "n": args.n,
                "gamma": args.gamma,
                "dist": {"kind": dist.kind, "params": dist.params},
            },
            "planted_cut": planted.signs.tolist(),
        }
        path = _write_instance(args.out, stem, g, sidecar)
    elif args.model == "gnp":
        g = generators.gen_gnp_simple(args.n, args.p, args.seed)
        stem = f"gnp_n{args.n}_p{args.p!r}_s{args.seed}"
        sidecar = {"model": "gnp", "seed": args.seed, "params": {"n": args.n, "p": args.p}}
        path = _write_instance(args.out, stem, g, sidecar)
    elif args.model == "scale":
        _check_finite("--gamma", args.gamma)
        base = _load(args.input)
        limit = _oracle_limit()
        scaled, verified = generators.stabilize_by_scaling(base, args.gamma, args.seed, limit)
        src = os.path.splitext(os.path.basename(args.input))[0]
        stem = f"{src}_scaled_g{args.gamma!r}"
        sidecar = {
            "model": "scale",
            "seed": args.seed,
            "params": {"input": os.path.basename(args.input), "gamma_target": args.gamma},
            "verified_gamma_star": report._num(verified.gamma_star),
        }
        path = _write_instance(args.out, stem, scaled, sidecar)
    else:  # amplify; argparse restricts the models
        _check_finite("--tau", args.tau)
        base = _load(args.input)
        amplified = generators.cross_product_amplify(base, args.tau)
        src = os.path.splitext(os.path.basename(args.input))[0]
        stem = f"{src}_amplified_t{args.tau!r}"
        sidecar = {
            "model": "amplify",
            "params": {"input": os.path.basename(args.input), "tau": args.tau},
        }
        path = _write_instance(args.out, stem, amplified, sidecar)
    print(path)
    return EXIT_OK


# --- solve ---------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    if args.max_iter < 1:
        raise ValidationError(f"--max-iter must be at least 1, got {args.max_iter}")
    _check_finite("--tol", args.tol, 0.0)
    _check_finite("--gamma", args.gamma)
    g = _load(args.graph)
    limit = _oracle_limit()
    solvers = list(report.SOLVERS) if args.solver == "all" else [args.solver]
    if "oracle" in solvers and args.solver == "all" and g.n > limit:
        solvers.remove("oracle")

    iter_log = on_iteration = None
    if args.iter_log:
        iter_log = open(args.iter_log, "w", encoding="ascii")
        iter_log.write("iter,trace,lambda_min,gap\n")

        def on_iteration(i: int, tr: float, lam: float, gap: float) -> None:
            iter_log.write(f"{i},{tr!r},{lam!r},{gap!r}\n")

    try:
        rep = report.build_run_report(
            g,
            solvers=solvers,
            path=args.graph,
            generator_meta=_sidecar_for(args.graph),
            tol=args.tol,
            max_iter=args.max_iter,
            oracle_limit=limit,
            timing=not args.no_timing,
            gamma_hint=args.gamma,
            on_iteration=on_iteration,
        )
    finally:
        if iter_log is not None:
            iter_log.close()

    _dump_json(rep, args.output)
    if args.require_certified:
        dual_entry = rep["solvers"].get("dual")
        if not dual_entry or not dual_entry.get("certified"):
            print("guarantee not met: dual certificate absent", file=sys.stderr)
            return EXIT_GUARANTEE
    return EXIT_OK


# --- verify --------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    _dump_json(report.verify_report(g, args.graph, _oracle_limit()), args.output)
    return EXIT_OK


# --- spectrum ------------------------------------------------------------


def cmd_spectrum(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    _dump_json(report.spectrum_report(g, args.graph, _oracle_limit()), args.output)
    return EXIT_OK


# --- bench ---------------------------------------------------------------


def _instance_seed(base: int, n: int, gamma: float, trial: int) -> int:
    gbits = int(np.float64(gamma).view(np.uint64))
    ss = np.random.SeedSequence([int(base), int(n), gbits, int(trial)])
    return int(ss.generate_state(1, np.uint64)[0])


def _bench_cell(
    n: int,
    gamma: float,
    dist: generators.WeightDistribution,
    trials: int,
    solver: str,
    base_seed: int,
    tol: float,
    max_iter: int,
    limit: int,
) -> tuple[float, float, float]:
    recovered = 0
    certified = 0
    total_ms = 0.0
    for trial in range(trials):
        seed_i = _instance_seed(base_seed, n, gamma, trial)
        g, planted = generators.gen_planted(n, dist, gamma, seed_i)
        t0 = time.perf_counter()
        if solver == "dual":
            sol = dualsdp.solve_min_trace(g, tol=tol, max_iter=max_iter)
            cut, cert = sol.best_cut, sol.converged
        elif solver == "greedy":
            cut, steps = combinatorial.find_max_cut_greedy(g)
        elif solver == "spectral":
            cut = spectral.spectral_partition(g)
            cert = False
        else:  # oracle: cmd_bench has rejected every other name
            cut, _, cert = oracle.brute_force_max_cut(g, limit)
        total_ms += (time.perf_counter() - t0) * 1000.0
        if solver == "greedy":  # proven only against the exact gamma*, found untimed
            profile = report._attached_profile(g, limit)
            cert = profile is not None and all(s.bundles < profile.gamma_star for s in steps)
        recovered += cut == planted
        certified += bool(cert)
    return recovered / trials, certified / trials, total_ms / trials


def _parse_list(option: str, text: str, kind: type) -> list:
    try:
        return sorted({kind(token) for token in text.split(",")})
    except ValueError as exc:  # its message names the token
        raise ValidationError(f"{option}: {exc}") from None


def cmd_bench(args: argparse.Namespace) -> int:
    for option, value in (("--trials", args.trials), ("--max-iter", args.max_iter)):
        if value < 1:
            raise ValidationError(f"{option} must be at least 1, got {value}")
    _check_finite("--tol", args.tol, 0.0)
    dist = generators.WeightDistribution.parse(args.dist)
    limit = _oracle_limit()
    ns = _parse_list("--n", args.n, int)
    gammas = _parse_list("--gamma", args.gamma, float)
    for gamma in gammas:
        _check_finite("--gamma", gamma)
    _check_file_vertices(ns[-1])
    solvers = sorted({s for s in args.solver.split(",")})
    for s in solvers:
        if s not in ("dual", "greedy", "spectral", "oracle"):
            raise ValidationError(f"unknown bench solver {s!r}")
    if "oracle" in solvers and ns[-1] > limit:
        raise SizeLimitError(f"--n {ns[-1]} exceeds the oracle's enumeration limit {limit}")
    for n in ns:
        if n < 2 or n % 2:
            raise ValidationError(f"--n must be an even number >= 2, got {n}")

    # the loops run in (n, gamma, solver) order, the CSV's row order
    lines = ["n,gamma,dist,trials,solver,recovery_rate,certified_rate,mean_ms"]
    for n in ns:
        for gamma in gammas:
            for solver in solvers:
                rec, cert, ms = _bench_cell(
                    n,
                    gamma,
                    dist,
                    args.trials,
                    solver,
                    args.seed,
                    args.tol,
                    args.max_iter,
                    limit,
                )
                lines.append(
                    f"{n},{gamma!r},{dist.spec()},{args.trials},{solver},"
                    f"{rec:.6f},{cert:.6f},{0.0 if args.no_timing else ms:.3f}"
                )
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# --- parser --------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing does not change it.
    It holds no functions: main looks cmd_<command> up in this module on each call."""
    parser = argparse.ArgumentParser(
        prog="stablecut",
        description="Generate, certify, and solve gamma-stable Max-Cut instances.",
        epilog=f"STABLECUT_ORACLE_LIMIT caps exhaustive enumeration: an integer in "
        f"1..{oracle.MAX_ENUM_LIMIT}, default {oracle.DEFAULT_ENUM_LIMIT}. Graph files may "
        f"declare at most {MAX_FILE_VERTICES} vertices (exit 4 above that).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate instance files")
    gsub = gen.add_subparsers(dest="model", required=True)

    gp = gsub.add_parser("planted", help="planted-cut complete weighted graph")
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--gamma", type=float, required=True)
    gp.add_argument("--dist", default="uniform:0.5:1.5")
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("-o", "--out", default=".")

    gg = gsub.add_parser("gnp", help="unit-weight binomial random graph")
    gg.add_argument("--n", type=int, required=True)
    gg.add_argument("--p", type=float, required=True)
    gg.add_argument("--seed", type=int, default=0)
    gg.add_argument("-o", "--out", default=".")

    gs = gsub.add_parser("scale", help="rescale max-cut edges to a target stability")
    gs.add_argument("--input", required=True)
    gs.add_argument("--gamma", type=float, required=True)
    gs.add_argument("--seed", type=int, default=0)
    gs.add_argument("-o", "--out", default=".")

    ga = gsub.add_parser("amplify", help="double the graph to raise local stability")
    ga.add_argument("--input", required=True)
    ga.add_argument("--tau", type=float, default=1.0)
    ga.add_argument("-o", "--out", default=".")

    sv = sub.add_parser("solve", help="run solvers and emit a JSON run report")
    sv.add_argument("graph")
    sv.add_argument("--solver", default="all", choices=list(report.SOLVERS) + ["all"])
    sv.add_argument("--tol", type=float, default=dualsdp.DEFAULT_TOL)
    sv.add_argument("--max-iter", type=int, default=dualsdp.DEFAULT_MAX_ITER)
    sv.add_argument("--gamma", type=float, default=None, help="stability hint for greedy applicability")
    sv.add_argument("--require-certified", action="store_true")
    sv.add_argument("--no-timing", action="store_true")
    sv.add_argument(
        "--iter-log", default=None,
        help="stream dual iterations to CSV; a run that W's spectral cut certifies writes one row, "
        "whose lambda_min is that cut's certificate's; otherwise an iterate after a feasible one "
        "keeps its eigenvector, and its lambda_min is the previous one shifted down by the step",
    )
    sv.add_argument("-o", "--output", default=None)

    vf = sub.add_parser("verify", help="exact stability report (oracle only)")
    vf.add_argument("graph")
    vf.add_argument("-o", "--output", default=None)

    sp = sub.add_parser("spectrum", help="eigenvalues plus condition checks")
    sp.add_argument("graph")
    sp.add_argument("-o", "--output", default=None)

    bn = sub.add_parser("bench", help="seeded sweep over planted instances")
    bn.add_argument("--n", required=True, help="comma-separated vertex counts")
    bn.add_argument("--gamma", required=True, help="comma-separated gamma values")
    bn.add_argument("--trials", type=int, default=50)
    bn.add_argument("--dist", default="uniform:0.5:1.5")
    bn.add_argument("--seed", type=int, default=0)
    bn.add_argument(
        "--solver", default="dual",
        help="comma-separated solvers; greedy is certified when every merge's bundle count is "
        "below the exact gamma* (found untimed), so only for n <= 16 and the enumeration cap",
    )
    bn.add_argument("--tol", type=float, default=dualsdp.DEFAULT_TOL)
    bn.add_argument("--max-iter", type=int, default=dualsdp.DEFAULT_MAX_ITER)
    bn.add_argument("--no-timing", action="store_true")
    bn.add_argument("-o", "--out", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"--seed must be >= 0, got {args.seed}")
        return globals()[f"cmd_{args.command}"](args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
