"""Compare benchmark records of two commits.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is a record written by `run.py --out`.  All records must share the
workload, the trace mode, the seeds on each side and the environment
(python, numpy, BLAS, BLAS threads, nproc, CPU); only the commit may differ.
Otherwise they are flagged and not compared, and the exit code is 3.  For
each metric it prints both medians, the base's quartile spread and the
change.  End-to-end metrics also get a verdict against their bound in
BENCHMARK.json: "worse" beyond the bound, "unresolved" when the base's own
spread exceeds the bound, else "ok".  The exit code is 1 if any is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SAME_ENV = ("python", "numpy", "blas", "blas_threads", "nproc", "cpu_model", "workload")


def _mismatches(base: list[dict], new: list[dict]) -> list[str]:
    records = base + new
    first = records[0]
    out = [k for k in SAME_ENV if any(r["env"][k] != first["env"][k] for r in records)]
    if any(r["trace"] != first["trace"] for r in records):
        out.append("trace")
    if sorted(r["env"]["seed"] for r in base) != sorted(r["env"]["seed"] for r in new):
        out.append("seed")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    base = [json.loads(Path(f).read_text()) for f in args.base]
    new = [json.loads(Path(f).read_text()) for f in args.new]
    mismatched = _mismatches(base, new)
    if mismatched:
        for key in mismatched:
            values = sorted({str(r.get(key, r["env"].get(key))) for r in base + new})
            print(f"FLAGGED: records differ in {key}: {', '.join(values)}")
        print("not compared")
        return 3

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse_any = False
    print(f"{'metric':38s} {'base':>14s} {'new':>14s} {'spread':>8s} {'change':>8s}  verdict")
    for name in base[0]["metrics"]:
        b = [r["metrics"][name]["value"] for r in base]
        n = [r["metrics"][name]["value"] for r in new]
        mb, mn = statistics.median(b), statistics.median(n)
        spread = 0.0
        if len(b) >= 2 and mb:
            q = statistics.quantiles(b, n=4)
            spread = (q[2] - q[0]) / abs(mb)
        change = (mn - mb) / abs(mb) if mb else 0.0
        meta = declared[name]
        verdict = ""
        if "bound" in meta:
            worse = change if meta["better"] == "lower" else -change
            verdict = "ok"
            if worse > meta["bound"]:
                verdict = "worse"
            elif spread > meta["bound"]:
                verdict = "unresolved"
            worse_any |= verdict == "worse"
        print(f"{name:38s} {mb:14.6g} {mn:14.6g} {spread:8.2%} {change:+8.2%}  {verdict}")
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main())
