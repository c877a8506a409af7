import copy
import itertools
import json
import math
import os
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from stablecut import (
    WeightDistribution, WeightedGraph, combinatorial, dualsdp, dumps_graph, gen_planted,
    generators, graph, load_graph, oracle, report, stability_report,
)
from stablecut import cli
from stablecut.cli import main

from conftest import complete_bipartite

SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "src", "stablecut", "schemas", "report.schema.json"
)
with open(SCHEMA_PATH) as fh:
    SCHEMA = json.load(fh)


def _validate(doc: dict) -> None:
    jsonschema.validate(doc, SCHEMA)


def _write_triangle(tmp_path) -> str:
    g = WeightedGraph.from_edges(3, [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 1.0)])
    path = tmp_path / "tri.graph"
    path.write_text(dumps_graph(g))
    return str(path)


def test_gen_planted_writes_files(tmp_path, capsys):
    out = tmp_path / "inst"
    rc = main(
        [
            "gen", "planted", "--n", "12", "--gamma", "4", "--dist",
            "uniform:0.5:1.5", "--seed", "7", "-o", str(out),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith(".graph")
    assert os.path.exists(printed)
    sidecar = json.loads(Path(printed.replace(".graph", ".json")).read_text())
    assert sidecar["model"] == "planted"
    assert sidecar["seed"] == 7
    assert len(sidecar["planted_cut"]) == 12
    g = load_graph(printed)
    assert g.n == 12


def test_gen_planted_odd_n_exits_2(tmp_path):
    rc = main(["gen", "planted", "--n", "11", "--gamma", "4", "-o", str(tmp_path)])
    assert rc == 2


def test_gen_scale_verifies_target(tmp_path, capsys):
    tri = _write_triangle(tmp_path)
    rc = main(["gen", "scale", "--input", tri, "--gamma", "4", "-o", str(tmp_path)])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    sidecar = json.loads(Path(printed.replace(".graph", ".json")).read_text())
    assert sidecar["verified_gamma_star"] >= 4.0 - 1e-9
    scaled = load_graph(printed)
    assert stability_report(scaled).gamma_star >= 4.0 - 1e-9


def test_gen_scale_sweeps_twice(tmp_path, capsys, monkeypatch):
    """One sweep profiles the input; the one that checks the scaled graph
    also gives the sidecar its verified_gamma_star."""
    sweeps = []
    sweep = oracle.stability_report
    monkeypatch.setattr(oracle, "stability_report", lambda g, *a: sweeps.append(g) or sweep(g, *a))
    tri = _write_triangle(tmp_path)
    assert main(["gen", "scale", "--input", tri, "--gamma", "4", "-o", str(tmp_path)]) == 0
    sidecar = json.loads(Path(capsys.readouterr().out.strip().replace(".graph", ".json")).read_text())
    assert len(sweeps) == 2
    assert sidecar["verified_gamma_star"] == sweep(sweeps[1]).gamma_star


def test_gen_amplify(tmp_path, capsys):
    tri = _write_triangle(tmp_path)
    rc = main(["gen", "amplify", "--input", tri, "--tau", "2", "-o", str(tmp_path)])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert load_graph(printed).n == 6


def test_solve_all_agree_on_c4(tmp_path, capsys):
    g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    path = tmp_path / "c4.graph"
    path.write_text(dumps_graph(g))
    rc = main(["solve", "--solver", "all", "--no-timing", str(path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    _validate(doc)
    values = {
        name: entry["value"]
        for name, entry in doc["solvers"].items()
        if "value" in entry
    }
    assert set(values) == {"greedy", "contract", "spectral", "dual", "oracle"}
    assert all(v == 4.0 for v in values.values())
    assert doc["solvers"]["dual"]["certified"] is True
    assert doc["oracle"]["gamma_star"] == "inf"


def test_solve_require_certified_ok(tmp_path, capsys):
    tri = _write_triangle(tmp_path)
    scaled = tmp_path / "scaled.graph"
    rc = main(["gen", "scale", "--input", tri, "--gamma", "4", "-o", str(tmp_path)])
    printed = capsys.readouterr().out.strip()
    rc = main(
        ["solve", "--solver", "dual", "--require-certified", "--no-timing", printed]
    )
    assert rc == 0


def test_solve_require_certified_fails_on_tie(tmp_path, capsys):
    g = WeightedGraph(np.ones((3, 3)) - np.eye(3))
    path = tmp_path / "tie.graph"
    path.write_text(dumps_graph(g))
    rc = main(
        [
            "solve", "--solver", "dual", "--require-certified", "--no-timing",
            "--max-iter", "60", str(path),
        ]
    )
    assert rc == 3


def test_solve_oracle_over_limit_exits_4(tmp_path, capsys):
    rc = main(["gen", "gnp", "--n", "30", "--p", "0.4", "--seed", "1", "-o", str(tmp_path)])
    printed = capsys.readouterr().out.strip()
    rc = main(["solve", "--solver", "oracle", str(printed)])
    assert rc == 4


class _NoAlloc:
    """numpy as a module sees it, except that allocating a graph fails."""

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, *args, **kwargs):
        raise AssertionError("allocated for an oversized graph")

    triu_indices = diag = zeros


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_oversized_header_exits_4_before_allocating(tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "huge.graph"
    path.write_text("100000 0\n")
    monkeypatch.setattr(graph, "np", _NoAlloc())
    assert main([command, str(path)]) == 4
    assert str(graph.MAX_FILE_VERTICES) in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "planted", "--n", str(graph.MAX_FILE_VERTICES + 2), "--gamma", "2"],
        ["gen", "gnp", "--n", str(graph.MAX_FILE_VERTICES + 1), "--p", "0.5"],
        ["bench", "--n", f"4,{graph.MAX_FILE_VERTICES + 2}", "--gamma", "2", "--trials", "1"],
        ["gen", "amplify", "--input"],
    ],
)
def test_generators_exit_4_before_allocating(tmp_path, capsys, monkeypatch, argv):
    if argv[:2] == ["gen", "amplify"]:  # the doubled graph is one vertex too large
        path = tmp_path / "half.graph"
        path.write_text(f"{graph.MAX_FILE_VERTICES // 2 + 1} 0\n")
        argv = argv + [str(path)]
    monkeypatch.setattr(generators, "np", _NoAlloc())
    out = tmp_path / "out"
    assert main(argv + ["-o", str(out)]) == 4
    assert str(graph.MAX_FILE_VERTICES) in capsys.readouterr().err
    assert not out.exists()


def test_solve_unreadable_file_exits_2(tmp_path):
    rc = main(["solve", "--solver", "dual", str(tmp_path / "nope.graph")])
    assert rc == 2


@pytest.mark.parametrize(
    "command", ["verify", "solve", "spectrum", "gen scale --gamma 2 --input", "gen amplify --input"]
)
def test_non_ascii_graph_file_exits_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cafe.graph"
    path.write_bytes("# caf\u00e9\n2 1\n0 1 1.0\n".encode("utf-8"))
    assert main(command.split() + [str(path)]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "sidecar", ['{"model": "caf\u00e9"}'.encode("utf-8"), b"[1]", b'{"model": NaN}']
)
def test_solve_ignores_sidecar_unless_ascii_object(tmp_path, capsys, sidecar):
    tri = _write_triangle(tmp_path)
    (tmp_path / "tri.json").write_bytes(sidecar)
    assert main(["solve", "--solver", "spectral", "--no-timing", tri]) == 0
    doc = json.loads(capsys.readouterr().out)
    _validate(doc)
    assert doc["instance"]["generator"] is None


_BENCH = ["bench", "--n", "4", "--gamma", "2", "--trials", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        (["solve", "--max-iter", "0"], "at least 1"),
        (["bench", "--n", "4", "--gamma", "2", "--trials", "0"], "at least 1"),
        (_BENCH + ["--max-iter", "0"], "at least 1"),
        (["solve", "--tol", "inf"], "--tol must be a finite number >= 0, got inf"),
        (["solve", "--tol", "nan"], "--tol must be a finite number >= 0, got nan"),
        (["solve", "--tol=-1e-9"], "--tol must be a finite number >= 0, got -1e-09"),
        (["solve", "--gamma", "inf"], "--gamma must be a finite number, got inf"),
        (["solve", "--gamma", "nan"], "--gamma must be a finite number, got nan"),
        (["solve", "--solver", "dual", "--tol", "inf", "--require-certified"], "got inf"),
        (_BENCH + ["--tol", "inf"], "--tol must be a finite number >= 0, got inf"),
        (_BENCH + ["--tol", "-1"], "--tol must be a finite number >= 0, got -1.0"),
        (
            ["bench", "--n", "4,abc", "--gamma", "2"],
            "--n: invalid literal for int() with base 10: 'abc'",
        ),
        (
            ["bench", "--n", "4", "--gamma", "2,x"],
            "--gamma: could not convert string to float: 'x'",
        ),
        (["bench", "--n", "4,", "--gamma", "2"], "--n: invalid literal for int() with base 10: ''"),
        (["gen", "planted", "--n", "4", "--gamma", "nan"], "--gamma must be a finite number, got nan"),
        (["gen", "planted", "--n", "4", "--gamma", "inf"], "--gamma must be a finite number, got inf"),
        (["gen", "scale", "--gamma", "nan", "--input"], "--gamma must be a finite number, got nan"),
        (["gen", "scale", "--gamma", "inf", "--input"], "--gamma must be a finite number, got inf"),
        (["gen", "amplify", "--tau", "nan", "--input"], "--tau must be a finite number, got nan"),
        (["gen", "amplify", "--tau", "inf", "--input"], "--tau must be a finite number, got inf"),
        (["gen", "planted", "--n", "4", "--gamma", "2", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["gen", "gnp", "--n", "4", "--p", "0.5", "--seed", "-3"], "--seed must be >= 0, got -3"),
        (["gen", "scale", "--gamma", "2", "--seed", "-1", "--input"], "--seed must be >= 0, got -1"),
        (_BENCH + ["--seed", "-1"], "--seed must be >= 0, got -1"),
        (["solve", "--solver", "greedy", "--max-iter", "-3"], "--max-iter must be at least 1, got -3"),
        (["solve", "--solver", "spectral", "--max-iter", "0"], "--max-iter must be at least 1, got 0"),
    ],
)
def test_degenerate_options_exit_2(tmp_path, capsys, argv):
    argv, message = argv
    if argv[0] == "solve" or argv[-1] == "--input":
        argv = argv + [_write_triangle(tmp_path)]
    if argv[0] == "gen":
        argv = argv + ["-o", str(tmp_path / "out")]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (
            ["--n", "12,24", "--gamma", "1.0", "--trials", "8", "--solver", "dual,oracle"],
            4,
            f"--n 24 exceeds the oracle's enumeration limit {oracle.DEFAULT_ENUM_LIMIT}",
        ),
        (["--n", "4", "--gamma", "2,inf"], 2, "--gamma must be a finite number, got inf"),
        (["--n", "4", "--gamma", "nan,2"], 2, "--gamma must be a finite number, got nan"),
        (["--n", "4", "--gamma", "2,-inf"], 2, "--gamma must be a finite number, got -inf"),
        (["--n", "4,7", "--gamma", "2"], 2, "--n must be an even number >= 2, got 7"),
        (["--n", "-2", "--gamma", "2"], 2, "--n must be an even number >= 2, got -2"),
        (["--n", "0,4", "--gamma", "2"], 2, "--n must be an even number >= 2, got 0"),
        (["--n", "4", "--gamma", "2", "--seed", "-1"], 2, "--seed must be >= 0, got -1"),
        (["--n", "4", "--gamma", "2", "--max-iter", "0"], 2, "--max-iter must be at least 1, got 0"),
        (
            ["--n", "4", "--gamma", "2", "--solver", "greedy", "--max-iter", "-3"],
            2,
            "--max-iter must be at least 1, got -3",
        ),
    ],
)
def test_bench_fails_before_its_first_cell(tmp_path, capsys, monkeypatch, argv, code, message):
    def no_cell(*args):
        raise AssertionError("ran a bench cell")

    monkeypatch.setattr(cli, "_bench_cell", no_cell)
    out = tmp_path / "bench.csv"
    assert main(["bench", *argv, "-o", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


_OVERFLOWING = {
    "triangle_1e308": "3 3\n0 1 1e308\n0 2 1e308\n1 2 1e308\n",
    "k4_1.4e307": "4 6\n"
    + "".join(f"{u} {v} 1.4e307\n" for u, v in itertools.combinations(range(4), 2)),
}


@pytest.mark.parametrize("command", ["verify", "solve", "spectrum"])
@pytest.mark.parametrize("name", sorted(_OVERFLOWING))
def test_weight_sum_above_cap_exits_2(tmp_path, capsys, command, name):
    path = tmp_path / f"{name}.graph"
    path.write_text(_OVERFLOWING[name])
    assert main([command, str(path)]) == 2
    assert "sum to at most" in capsys.readouterr().err


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def _strict_json_input(tmp_path, capsys, case: str) -> str:
    """Graph file for `case`; planted cases go through `gen planted`."""
    if case.startswith("planted_"):
        n, gamma = case.split("_")[1:]
        gen = ["gen", "planted", "--n", n, "--gamma", gamma, "--seed", "2", "-o", str(tmp_path)]
        assert main(gen) == 0
        return capsys.readouterr().out.strip()
    if case == "unit_triangle":
        g = WeightedGraph(np.ones((3, 3)) - np.eye(3))
    elif case == "k44":
        g = complete_bipartite(4)
    elif case == "cap_k44":  # W.sum() is exactly the cap
        g = WeightedGraph(complete_bipartite(4).weights * (graph.MAX_WEIGHT_SUM / 32))
    else:  # a weighted instance within a factor 2 of the cap
        w = gen_planted(14, WeightDistribution.uniform(0.5, 1.5), 4.0, seed=2).graph.weights
        g = WeightedGraph(w * 2.0 ** math.floor(math.log2(graph.MAX_WEIGHT_SUM / w.sum())))
    path = tmp_path / f"{case}.graph"
    path.write_text(dumps_graph(g))
    return str(path)


@pytest.mark.parametrize(
    "case", ["unit_triangle", "k44", "planted_14_1.0", "planted_40_4", "cap_k44", "cap_planted_14"]
)
def test_reports_are_strict_json(tmp_path, capsys, case):
    path = _strict_json_input(tmp_path, capsys, case)
    for command in (["solve", "--solver", "all", "--no-timing"], ["verify"], ["spectrum"]):
        rc = main(command + [path])
        out = capsys.readouterr().out
        if command == ["verify"] and load_graph(path).n > oracle.DEFAULT_ENUM_LIMIT:
            assert rc == 4 and out == ""
            continue
        assert rc == 0
        _validate(json.loads(out, parse_constant=_reject_constant))


def test_oracle_limit_env_override(tmp_path, capsys, monkeypatch):
    rc = main(["gen", "gnp", "--n", "18", "--p", "0.4", "--seed", "1", "-o", str(tmp_path)])
    printed = capsys.readouterr().out.strip()
    monkeypatch.setenv("STABLECUT_ORACLE_LIMIT", "10")
    rc = main(["solve", "--solver", "oracle", printed])
    assert rc == 4
    monkeypatch.delenv("STABLECUT_ORACLE_LIMIT")
    rc = main(["solve", "--solver", "oracle", "--no-timing", printed])
    assert rc == 0


@pytest.mark.parametrize("raw", ["0", "-1", "33", "abc"])
def test_oracle_limit_env_rejects_bad_values(tmp_path, capsys, monkeypatch, raw):
    def no_sweep(*args):
        raise AssertionError("enumerated despite an invalid limit")

    monkeypatch.setattr(oracle, "_Kernel", no_sweep)
    monkeypatch.setenv("STABLECUT_ORACLE_LIMIT", raw)
    assert main(["verify", _write_triangle(tmp_path)]) == 2
    assert "STABLECUT_ORACLE_LIMIT" in capsys.readouterr().err


def _count_sweeps(monkeypatch) -> list:
    sweeps = []
    kernel = oracle._Kernel
    monkeypatch.setattr(oracle, "_Kernel", lambda n, forms: sweeps.append(n) or kernel(n, forms))
    return sweeps


def test_verify_enumerates_once(tmp_path, capsys, monkeypatch):
    sweeps = _count_sweeps(monkeypatch)
    assert main(["verify", _write_triangle(tmp_path)]) == 0
    # one stability profile: the maximum with its ties and Cheeger, then gamma*/alpha*/k*
    assert sweeps == [3, 3]


def test_solve_profiles_regular_graph_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "k44.graph"
    path.write_text(dumps_graph(complete_bipartite(4)))
    sweeps = _count_sweeps(monkeypatch)
    assert main(["solve", "--solver", "all", "--no-timing", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["conditions"]["families"][2]["detail"]["cheeger"] == 2.0
    # contract's quotient takes one sweep; the oracle solver entry, the oracle
    # section and the family checks share one two-sweep profile
    assert sweeps == [2, 8, 8]


def test_spectrum_profiles_regular_graph_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "k44.graph"
    path.write_text(dumps_graph(complete_bipartite(4)))
    sweeps = _count_sweeps(monkeypatch)
    assert main(["spectrum", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["conditions"]["families"][2]["detail"]["cheeger"] == 2.0
    # the candidate cut and the family checks share one two-sweep profile
    assert sweeps == [8, 8]


def test_profile_attaches_up_to_16_vertices(tmp_path, capsys, monkeypatch):
    sweeps = _count_sweeps(monkeypatch)
    for n in (16, 18):
        assert main(["gen", "planted", "--n", str(n), "--gamma", "4", "-o", str(tmp_path)]) == 0
        path = capsys.readouterr().out.strip()
        assert main(["solve", "--solver", "greedy", "--no-timing", path]) == 0
        assert ("skipped" in json.loads(capsys.readouterr().out)["oracle"]) == (n > 16)
        assert main(["spectrum", path]) == 0
        capsys.readouterr()
    # solve and spectrum share one rule: a two-sweep profile for n <= 16 only
    assert sweeps == [16, 16, 16, 16]


def test_solve_runs_greedy_once_per_component(tmp_path, capsys, monkeypatch):
    g = WeightedGraph.from_edges(
        7, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 1.5), (3, 4, 1.0), (4, 5, 0.5), (5, 6, 2.0)]
    )
    path = tmp_path / "two.graph"
    path.write_text(dumps_graph(g))
    runs = []
    engine = combinatorial._greedy_engine
    monkeypatch.setattr(
        combinatorial, "_greedy_engine", lambda w: runs.append(len(w)) or engine(w)
    )
    assert main(
        ["solve", "--solver", "all", "--gamma", "2", "--max-iter", "50", "--no-timing", str(path)]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    # the applicability flags are read off the same run's steps
    assert runs == [3, 4]
    assert len(doc["solvers"]["greedy"]["applicability"]["per_iteration"]) == 5


def _leaves(doc) -> tuple[int, int]:
    """The number of scalar leaves in a JSON document and its longest list."""
    if isinstance(doc, dict):
        parts = [_leaves(v) for v in doc.values()]
    elif isinstance(doc, list):
        parts = [_leaves(v) for v in doc] + [(0, len(doc))]
    else:
        return 1, 0
    return sum(p[0] for p in parts), max((p[1] for p in parts), default=0)


@pytest.mark.parametrize("n", [40, 200])
def test_report_is_linear_in_n(tmp_path, capsys, n):
    gen = ["gen", "planted", "--n", str(n), "--gamma", "2", "--seed", "1", "-o", str(tmp_path)]
    assert main(gen + ["--dist", "uniform:0.5:1.5"]) == 0
    path = capsys.readouterr().out.strip()
    assert main(["solve", "--solver", "all", "--gamma", "2", "--no-timing", path]) == 0
    leaves, longest = _leaves(json.loads(capsys.readouterr().out))
    assert leaves <= 12 * n + 100 and longest <= n


def test_schema_is_strict(tmp_path, capsys):
    jsonschema.Draft202012Validator.check_schema(SCHEMA)
    path = tmp_path / "k44.graph"
    path.write_text(dumps_graph(complete_bipartite(4)))
    assert main(["solve", "--solver", "all", "--gamma", "2", "--no-timing", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    _validate(doc)
    assert sorted(doc["solvers"]) == sorted(report.SOLVERS)
    assert "skipped" not in doc["solvers"]["contract"]

    def rejected(mutate) -> bool:
        bad = copy.deepcopy(doc)
        mutate(bad["solvers"])
        return not jsonschema.Draft202012Validator(SCHEMA).is_valid(bad)

    assert rejected(lambda s: s["greedy"]["trace"][0].update(component_sizes=[1] * 8))
    assert rejected(lambda s: s["dual"].update(trace=[s["dual"]["trace"]]))
    for name in report.SOLVERS:
        assert rejected(lambda s: s[name].update(unknown=0))


def test_verify_report_schema(tmp_path, capsys):
    tri = _write_triangle(tmp_path)
    rc = main(["verify", tri])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    _validate(doc)
    assert doc["oracle"]["gamma_star"] == 2.0


def test_spectrum_report_schema(tmp_path, capsys):
    tri = _write_triangle(tmp_path)
    rc = main(["spectrum", tri])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    _validate(doc)
    assert len(doc["eigenvalues"]) == 3
    assert doc["eigenvalues"][0] >= doc["eigenvalues"][-1]


def test_solve_iter_log(tmp_path, capsys):
    tri = _write_triangle(tmp_path)
    log = tmp_path / "iters.csv"
    rc = main(
        ["solve", "--solver", "dual", "--no-timing", "--iter-log", str(log), tri]
    )
    assert rc == 0
    lines = log.read_text().splitlines()
    assert lines[0] == "iter,trace,lambda_min,gap"
    assert len(lines) >= 2


def test_iter_log_records_the_reported_dual_run(tmp_path, capsys, monkeypatch):
    tri = _write_triangle(tmp_path)
    calls = []
    solve = dualsdp.solve_min_trace
    monkeypatch.setattr(
        dualsdp, "solve_min_trace", lambda *a, **k: calls.append(a[0].n) or solve(*a, **k)
    )
    argv = ["solve", "--solver", "dual", "--no-timing", "--max-iter", "300", tri]
    assert main(argv) == 0
    plain = len(calls)
    log = tmp_path / "iters.csv"
    assert main(argv[:-1] + ["--iter-log", str(log), tri]) == 0
    assert len(calls) == 2 * plain
    # the rows are the trajectory of the run the report describes
    rows = []
    solve(
        load_graph(tri), max_iter=300,
        on_iteration=lambda i, tr, lam, gap: rows.append(f"{i},{tr!r},{lam!r},{gap!r}"),
    )
    assert log.read_text().splitlines() == ["iter,trace,lambda_min,gap"] + rows


def test_solve_runs_the_dual_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "tie.graph"
    path.write_text(dumps_graph(WeightedGraph(np.ones((3, 3)) - np.eye(3))))
    calls = []
    solve = dualsdp.solve_min_trace
    monkeypatch.setattr(
        dualsdp, "solve_min_trace", lambda *a, **k: calls.append(a[0].n) or solve(*a, **k)
    )
    assert main(["solve", str(path), "--solver", "dual", "--no-timing"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # the unit triangle's three maximum cuts tie, so no cut is certified
    assert not doc["solvers"]["dual"]["certified"]
    assert calls == [3]


def _count_eigh(monkeypatch) -> list:
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(len(m)) or eigh(m))
    return calls


def test_solve_eigensolves_each_matrix_once(tmp_path, capsys, monkeypatch):
    calls = _count_eigh(monkeypatch)
    for n, seed in [("40", "3"), ("200", "6")]:
        gen = ["gen", "planted", "--n", n, "--gamma", "4", "--seed", seed, "-o", str(tmp_path)]
        assert main(gen) == 0
        path = capsys.readouterr().out.strip()
        calls.clear()
        argv = ["solve", "--solver", "all", "--gamma", "4", "--no-timing", path]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["solvers"]["dual"]["certified"] and doc["solvers"]["dual"]["iterations"] == 1
        # W, the first dual iterate and the certified cut's kernel matrix,
        # whose certificate the dual hands to the conditions block
        assert calls == [int(n)] * 3
        # each op re-solves: nothing is remembered across graphs
        assert main(argv) == 0
        assert len(calls) == 6
        capsys.readouterr()


def test_uncertified_solve_eigensolves_nothing_after_the_dual(tmp_path, capsys, monkeypatch):
    gen = ["gen", "planted", "--n", "12", "--gamma", "1", "--seed", "1", "-o", str(tmp_path)]
    assert main(gen) == 0
    path = capsys.readouterr().out.strip()
    calls = _count_eigh(monkeypatch)
    at_return, certificates = [], []
    solve, certify = dualsdp.solve_min_trace, dualsdp.build_certificate

    def solve_and_count(*args, **kwargs):
        sol = solve(*args, **kwargs)
        at_return.append(len(calls))
        return sol

    monkeypatch.setattr(dualsdp, "solve_min_trace", solve_and_count)
    monkeypatch.setattr(
        dualsdp, "build_certificate", lambda g, c: certificates.append(c) or certify(g, c)
    )
    argv = ["solve", "--solver", "all", "--max-iter", "50", "--no-timing", path]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    dual = doc["solvers"]["dual"]
    assert not dual["certified"] and dual["iterations"] == 50
    assert doc["oracle"]["max_cut"] == dual["cut"]
    # W once, then one per dual iterate and one per cut that raised the
    # dual's lower bound; the conditions block reuses the best cut's certificate
    assert calls == [12] * (1 + 50 + len(certificates))
    assert at_return == [len(calls)]


def test_bench_deterministic_and_correct(tmp_path):
    args = [
        "bench", "--n", "12", "--gamma", "1.0,4.0", "--trials", "8",
        "--seed", "0", "--solver", "dual", "--no-timing",
    ]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "n,gamma,dist,trials,solver,recovery_rate,certified_rate,mean_ms"
    rows = {tuple(ln.split(",")[:2]): ln.split(",") for ln in lines[1:]}
    assert float(rows[("12", "4.0")][5]) == 1.0


def test_solve_rerun_byte_identical(tmp_path, capsys):
    tri = _write_triangle(tmp_path)
    rc = main(["solve", "--solver", "all", "--no-timing", tri])
    first = capsys.readouterr().out
    rc = main(["solve", "--solver", "all", "--no-timing", tri])
    second = capsys.readouterr().out
    assert first == second


def test_gen_rerun_byte_identical(tmp_path, capsys):
    for _ in range(2):
        rc = main(
            [
                "gen", "planted", "--n", "10", "--gamma", "2.5", "--seed", "3",
                "-o", str(tmp_path),
            ]
        )
        assert rc == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed[0] == printed[1]
    data1 = Path(printed[0]).read_bytes()
    rc = main(
        ["gen", "planted", "--n", "10", "--gamma", "2.5", "--seed", "3", "-o", str(tmp_path)]
    )
    assert Path(printed[0]).read_bytes() == data1
