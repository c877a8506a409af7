"""Check that two versions of stablecut behave the same, byte for byte.

    python tools/samebytes.py --against REV

exports REV's `src` with `git archive`, runs one deterministic corpus of
`stablecut` commands on it and on the working tree's `src`, and compares
the two: each command's exit code, stdout and stderr, and every file the
corpus wrote.  It prints each difference and exits 1 if there is any, 0
otherwise, and 2 if REV cannot be exported.  Both trees run on this machine, so the last bits of an
eigensolve are the same on both sides unless the code changed them.

Each tree runs the whole corpus in one fresh interpreter, with only that
tree's `src` on the path and one BLAS thread, through `stablecut.cli.main`
in a working directory of its own.  Every command's output is deterministic:
solve and bench run with --no-timing.

The corpus: planted n = 4-40 (even), 50, 100 and 200 at gamma 1, 1.25, 2
and 4 with four weight distributions; gnp graphs, K_n, C_n, K_{4,4} and the
Petersen graph; n = 1, an edgeless graph and one with isolated vertices;
gen scale and gen amplify; a four-solver bench; and the documented error
exits (2 usage, 3 guarantee not met, 4 size limit).
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DISTS = {
    "uniform": "uniform:0.5:1.5",
    "constant1": "constant:1",
    "constant0.7": "constant:0.7",
    "twopoint": "two_point:0.3:0.5:1.5",
}
GAMMAS = (1.0, 1.25, 2.0, 4.0)
PLANTED_NS = tuple(range(4, 41, 2)) + (50, 100, 200)


def _graph_text(n: int, edges) -> str:
    edges = sorted(edges)
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v} {w!r}\n" for u, v, w in edges)


def graphs() -> dict[str, str]:
    """The named graph files, each run through every command that reads one."""
    files = {}
    for n in range(3, 10):
        files[f"k{n}.graph"] = _graph_text(
            n, [(u, v, 1.0) for u, v in itertools.combinations(range(n), 2)])
        files[f"c{n}.graph"] = _graph_text(
            n, [(min(u, (u + 1) % n), max(u, (u + 1) % n), 1.0) for u in range(n)])
    files["k44.graph"] = _graph_text(8, [(u, v, 1.0) for u in range(4) for v in range(4, 8)])
    outer = [(u, (u + 1) % 5) for u in range(5)]
    spokes = [(u, u + 5) for u in range(5)]
    inner = [(5 + u, 5 + (u + 2) % 5) for u in range(5)]
    files["petersen.graph"] = _graph_text(
        10, [(min(u, v), max(u, v), 1.0) for u, v in outer + spokes + inner])
    files["single.graph"] = "1 0\n"
    files["edgeless.graph"] = "5 0\n"
    files["isolated.graph"] = "6 3\n0 1 1.0\n0 2 1.5\n1 2 2.0\n"
    files["tri.graph"] = "3 3\n0 1 2.0\n0 2 1.0\n1 2 3.0\n"
    return files


def fixtures() -> dict[str, str]:
    """Every file the corpus reads and none writes: graphs() and the inputs
    of the documented error exits."""
    return {
        **graphs(),
        "too_many_vertices.graph": "4097 0\n",
        "too_heavy.graph": "2 1\n0 1 1e300\n",
        "not_ascii.graph": "3 1\n0 1 ١.0\n",
        "bad_header.graph": "three 0\n",
        "amplify_too_large.graph": "2049 0\n",
    }


def _solve_all(path: str) -> list:
    stem = os.path.splitext(path)[0]
    return [
        ["solve", "--solver", "all", "--gamma", "2", "--no-timing", "--max-iter", "300",
         path, "-o", stem + ".all.json"],
        ["solve", "--solver", "greedy", "--no-timing", path],
        ["solve", "--solver", "oracle", "--no-timing", path],
    ]


def corpus() -> dict[str, list]:
    """The commands, by group; each group needs only the fixtures and itself.
    A command is an argv list, or [argv, {env var: value}]."""
    groups = {}
    for path in graphs():
        stem = os.path.splitext(path)[0]
        groups[stem] = _solve_all(path) + [["verify", path], ["spectrum", path]]

    for dname, dist in DISTS.items():
        cmds = []
        for n, (k, gamma) in itertools.product(PLANTED_NS, enumerate(GAMMAS)):
            out = f"planted/{dname}"
            cmds.append(["gen", "planted", "--n", str(n), "--gamma", repr(gamma), "--dist", dist,
                         "--seed", str(k), "-o", out])
            path = f"{out}/planted_n{n}_g{gamma!r}_s{k}.graph"
            cmds += _solve_all(path)
            if n <= 16:
                cmds += [["verify", path], ["spectrum", path]]
        groups[f"planted-{dname}"] = cmds

    gnp = []
    for n, p, seed in ((10, 0.5, 0), (16, 0.3, 1), (30, 0.2, 2)):
        gnp.append(["gen", "gnp", "--n", str(n), "--p", repr(p), "--seed", str(seed), "-o", "gnp"])
        gnp += _solve_all(f"gnp/gnp_n{n}_p{p!r}_s{seed}.graph")
    groups["gnp"] = gnp

    planted8 = "derived/planted_n8_g1.5_s3.graph"
    groups["derived"] = [
        ["gen", "planted", "--n", "8", "--gamma", "1.5", "--seed", "3", "-o", "derived"],
        ["gen", "scale", "--input", "tri.graph", "--gamma", "3", "--seed", "0", "-o", "derived"],
        ["gen", "scale", "--input", planted8, "--gamma", "2.5", "--seed", "1", "-o", "derived"],
        ["gen", "amplify", "--input", "tri.graph", "--tau", "1", "-o", "derived"],
        ["gen", "amplify", "--input", planted8, "--tau", "2", "-o", "derived"],
        *_solve_all("derived/tri_scaled_g3.0.graph"),
        *_solve_all("derived/planted_n8_g1.5_s3_scaled_g2.5.graph"),
        *_solve_all("derived/tri_amplified_t1.0.graph"),
        *_solve_all("derived/planted_n8_g1.5_s3_amplified_t2.0.graph"),
        ["solve", "--no-timing", "--max-iter", "50", "--iter-log", "derived/iter.csv", planted8],
        ["solve", "--solver", "dual", "--require-certified", "--no-timing",
         "derived/tri_scaled_g3.0.graph"],
    ]

    groups["bench"] = [
        ["bench", "--n", "4,6", "--gamma", "1.5,4", "--trials", "2", "--max-iter", "200",
         "--solver", "dual,greedy,spectral,oracle", "--no-timing"],
        ["bench", "--n", "8", "--gamma", "2", "--trials", "3", "--dist", "constant:1",
         "--solver", "greedy,spectral", "--seed", "5", "--no-timing", "-o", "bench.csv"],
    ]

    groups["errors"] = [
        ["solve", "--no-timing", "missing.graph"],
        ["solve", "--no-timing", "not_ascii.graph"],
        ["solve", "--no-timing", "bad_header.graph"],
        ["solve", "--no-timing", "too_many_vertices.graph"],
        ["solve", "--no-timing", "too_heavy.graph"],
        ["solve", "--no-timing", "--max-iter", "0", "tri.graph"],
        ["solve", "--no-timing", "--tol", "-1", "tri.graph"],
        ["solve", "--no-timing", "--tol", "nan", "tri.graph"],
        ["solve", "--no-timing", "--gamma", "inf", "tri.graph"],
        ["solve", "--solver", "nope", "tri.graph"],
        ["solve", "--solver", "dual", "--require-certified", "--no-timing", "--max-iter", "60",
         "k3.graph"],
        [["solve", "--no-timing", "tri.graph"], {"STABLECUT_ORACLE_LIMIT": "0"}],
        [["verify", "tri.graph"], {"STABLECUT_ORACLE_LIMIT": "x"}],
        [["verify", "tri.graph"], {"STABLECUT_ORACLE_LIMIT": "33"}],
        [["verify", "petersen.graph"], {"STABLECUT_ORACLE_LIMIT": "8"}],
        ["gen", "planted", "--n", "5000", "--gamma", "2", "-o", "errors"],
        ["gen", "planted", "--n", "7", "--gamma", "2", "-o", "errors"],
        ["gen", "planted", "--n", "8", "--gamma", "nan", "-o", "errors"],
        ["gen", "planted", "--n", "8", "--gamma", "2", "--seed", "-1", "-o", "errors"],
        ["gen", "planted", "--n", "8", "--gamma", "2", "--dist", "bogus:1", "-o", "errors"],
        ["gen", "gnp", "--n", "5000", "--p", "0.1", "-o", "errors"],
        ["gen", "amplify", "--input", "amplify_too_large.graph", "-o", "errors"],
        ["gen", "amplify", "--input", "tri.graph", "--tau", "nan", "-o", "errors"],
        ["gen", "scale", "--input", "tri.graph", "--gamma", "0.5", "-o", "errors"],
        ["bench", "--n", "4,x", "--gamma", "2"],
        ["bench", "--n", "5", "--gamma", "2", "--solver", "greedy"],
        ["bench", "--n", "4", "--gamma", "2", "--trials", "0"],
        ["bench", "--n", "4", "--gamma", "2", "--max-iter", "0"],
        ["bench", "--n", "4", "--gamma", "2", "--solver", "contract"],
        ["bench", "--n", "30", "--gamma", "2", "--solver", "oracle"],
        ["verify", "k44.graph", "--bogus"],
        ["solve"],
    ]
    return groups


def _split(cmd: list) -> tuple[list, dict]:
    """A command's argv and its environment variables."""
    return (cmd, {}) if isinstance(cmd[0], str) else cmd


def _run_commands(commands: list) -> list[dict]:
    """Run each command through stablecut.cli.main in this interpreter, in the
    current directory; its exit code, stdout and stderr."""
    import stablecut
    from stablecut import cli

    results = [{"stablecut": os.path.abspath(stablecut.__file__)}]
    for cmd in commands:
        argv, env = _split(cmd)
        saved = {k: os.environ.get(k) for k in env}
        os.environ.update(env)
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
                except Exception as exc:  # a crash is a result too
                    code = f"{type(exc).__name__}: {exc}"
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        results.append({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return results


def run_tree(src: str, workdir: str, commands: list) -> dict:
    """Run `commands` on the package in `src`, in a fresh interpreter with
    `workdir` (made here, with the fixtures in it) as its directory.  Returns
    each command's result and the bytes of every file under `workdir`."""
    os.makedirs(workdir)
    for name, text in fixtures().items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    before = set(os.listdir(workdir))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "STABLECUT_"))}
    env.update(PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import samebytes; "
            "json.dump(samebytes._run_commands(json.load(sys.stdin)), sys.stdout)")
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.dirname(os.path.abspath(__file__))],
        input=json.dumps(commands), capture_output=True, text=True, cwd=workdir, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"the corpus run on {src} failed:\n{proc.stderr}")
    results = json.loads(proc.stdout)
    where = results.pop(0)["stablecut"]
    if not where.startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"the corpus run on {src} imported {where}")
    files = {}
    for dirpath, _, names in os.walk(workdir):
        for name in names:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, workdir)
            if rel not in before:
                with open(path, "rb") as fh:
                    files[rel.replace(os.sep, "/")] = fh.read()
    return {"results": results, "files": files}


def _first_difference(a: str, b: str) -> str:
    la, lb = a.splitlines(), b.splitlines()
    for k, (x, y) in enumerate(zip(la, lb), start=1):
        if x != y:
            return f"line {k}: {x!r} != {y!r}"
    return f"{len(la)} lines != {len(lb)} lines"


def differences(commands: list, a: dict, b: dict) -> list[str]:
    """Every way run b differs from run a, one line each."""
    diffs = []
    for cmd, ra, rb in zip(commands, a["results"], b["results"]):
        argv, env = _split(cmd)
        label = " ".join([f"{k}={v}" for k, v in env.items()] + ["stablecut"] + argv)
        for key in ("exit", "stdout", "stderr"):
            if ra[key] != rb[key]:
                detail = (f"{ra[key]!r} != {rb[key]!r}" if key == "exit"
                          else _first_difference(ra[key], rb[key]))
                diffs.append(f"{label}: {key}: {detail}")
    for name in sorted(a["files"].keys() | b["files"].keys()):
        fa, fb = a["files"].get(name), b["files"].get(name)
        if fa is None or fb is None:
            diffs.append(f"{name}: written by only one run")
        elif fa != fb:
            diffs.append(f"{name}: {_first_difference(fa.decode('latin-1'), fb.decode('latin-1'))}")
    return diffs


def export_src(rev: str, dest: str) -> str:
    """REV's `src` directory, exported into `dest` with `git archive`."""
    proc = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
                          capture_output=True)
    if proc.returncode != 0:
        raise ValueError(f"git archive {rev} src: {proc.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):  # refuses links and paths out of dest
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return os.path.join(dest, "src")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="the git revision whose src the working tree is compared with")
    args = parser.parse_args(argv)
    commands = [cmd for group in corpus().values() for cmd in group]
    t0 = time.perf_counter()
    workroot = tempfile.mkdtemp(prefix="samebytes-")
    try:
        rev_src = export_src(args.against, os.path.join(workroot, "rev"))
        a = run_tree(rev_src, os.path.join(workroot, "a"), commands)
        b = run_tree(os.path.join(ROOT, "src"), os.path.join(workroot, "b"), commands)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workroot)
    diffs = differences(commands, a, b)
    for line in diffs:
        print(line)
    print(f"samebytes: {len(commands)} commands and {len(b['files'])} written files against "
          f"{args.against}: {len(diffs)} differences ({time.perf_counter() - t0:.0f} s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
