import copy
import hashlib
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
    generators, graph, load_graph, oracle, report, spectral, stability_report,
)
from stablecut import cli
from stablecut.cli import main

from conftest import complete_bipartite, random_weighted

SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "src", "stablecut", "schemas", "report.schema.json"
)
with open(SCHEMA_PATH) as fh:
    SCHEMA = json.load(fh)


def _validate(doc: dict) -> None:
    jsonschema.validate(doc, SCHEMA)


def _write_triangle(tmp_path) -> str:
    path = tmp_path / "tri.graph"
    path.write_text("3 3\n0 1 2.0\n1 2 3.0\n0 2 1.0\n")
    return str(path)


# sha256 of the planted sidecar for pinned `gen planted` arguments
PLANTED_SIDECARS = {
    ("12", "4", "uniform:0.5:1.5", "7"):
        "df4f18be130f773e962dff7b7bc6eec61e0c141979d7351b9227508f4d8de95a",
    ("6", "3", "two_point:0.25:1:2", "9"):
        "3b027488ee5008f75c5fb0581b8634ae88461bab453ebae8598af8334ddb811b",
}


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
    for (n, gamma, dist, seed), digest in PLANTED_SIDECARS.items():
        argv = ["gen", "planted", "--n", n, "--gamma", gamma, "--dist", dist, "--seed", seed]
        assert main(argv + ["-o", str(out)]) == 0
        printed = capsys.readouterr().out.strip()
        data = Path(printed.replace(".graph", ".json")).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


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
    path = tmp_path / "c4.graph"
    path.write_text("4 4\n0 1 1.0\n1 2 1.0\n2 3 1.0\n0 3 1.0\n")
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


def test_solve_conditions_candidate_is_the_first_entry_with_the_largest_value(
    tmp_path, capsys, monkeypatch
):
    # n = 20 > 16, so no profile names the candidate: it is the first entry
    # with the strictly largest value.  Every balanced cut of this complete
    # graph is a maximum cut, and the two value rules round them apart:
    # cut_value reads greedy's, spectral's and the dual's as 69.99999999999999,
    # the oracle's sweep reads its own as 70.0.
    gen = ["gen", "planted", "--n", "20", "--gamma", "1", "--dist", "constant:0.7",
           "--seed", "0", "-o", str(tmp_path)]
    assert main(gen) == 0
    path = capsys.readouterr().out.strip()
    candidates = []
    conditions = report.conditions_section
    monkeypatch.setattr(
        report, "conditions_section", lambda g, c, *a: candidates.append(c) or conditions(g, c, *a)
    )
    assert main(["solve", "--solver", "all", "--no-timing", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    entries = doc["solvers"]
    assert "skipped" in doc["oracle"]
    values = [entries[name]["value"] for name in ("greedy", "spectral", "dual", "oracle")]
    assert values == [69.99999999999999] * 3 + [70.0]
    oracle_cut = entries["oracle"]["cut"]
    assert oracle_cut not in [entries[name]["cut"] for name in ("greedy", "spectral", "dual")]
    assert [c.signs.tolist() for c in candidates] == [oracle_cut]
    g = load_graph(path)
    kernel = spectral.build_diagonal_from_cut(g, candidates[0])
    assert doc["conditions"]["certificate"]["diag_shift"] == kernel.tolist()
    # among equal values the first entry wins
    for order in (["greedy", "spectral", "dual"], ["dual", "greedy", "spectral"]):
        candidates.clear()
        rep = report.build_run_report(g, order, None, None, 1e-6, 300, 22, timing=False)
        assert [c.signs.tolist() for c in candidates] == [rep["solvers"][order[0]]["cut"]]
    assert rep["solvers"]["dual"]["cut"] != rep["solvers"]["greedy"]["cut"]


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
        g, _ = gen_planted(14, WeightDistribution.parse("uniform:0.5:1.5"), 4.0, seed=2)
        w = g.weights
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
    monkeypatch.setattr(
        oracle, "_Kernel", lambda n, forms: sweeps.append((n, len(forms))) or kernel(n, forms)
    )
    return sweeps


def test_verify_enumerates_once(tmp_path, capsys, monkeypatch):
    sweeps = _count_sweeps(monkeypatch)
    assert main(["verify", _write_triangle(tmp_path)]) == 0
    # one stability profile: the maximum with its ties, then gamma*/alpha*/k*;
    # no Cheeger sweep, since verify runs no family check
    assert sweeps == [(3, 1), (3, 4)]


def test_solve_profiles_regular_graph_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "k44.graph"
    path.write_text(dumps_graph(complete_bipartite(4)))
    sweeps = _count_sweeps(monkeypatch)
    assert main(["solve", "--solver", "all", "--no-timing", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["conditions"]["families"][2]["detail"]["cheeger"] == 2.0
    # contract's quotient takes one sweep; the oracle solver entry, the oracle
    # section and the family checks share one two-sweep profile, and the
    # family checks on this regular graph add one Cheeger sweep
    assert sweeps == [(2, 1), (8, 1), (8, 4), (8, 2)]


def test_spectrum_profiles_regular_graph_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "k44.graph"
    path.write_text(dumps_graph(complete_bipartite(4)))
    sweeps = _count_sweeps(monkeypatch)
    assert main(["spectrum", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["conditions"]["families"][2]["detail"]["cheeger"] == 2.0
    # the candidate cut and the family checks share one two-sweep profile;
    # the Cheeger sweep runs because K_{4,4} is regular
    assert sweeps == [(8, 1), (8, 4), (8, 2)]


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
    assert sweeps == [(16, 1), (16, 4)] * 2


def test_planted_verify_and_solve_never_sweep_for_cheeger(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cheeger_constant called")

    monkeypatch.setattr(oracle, "cheeger_constant", refuse)
    cases = [(8, "2", "uniform:0.5:1.5"), (12, "1.25", "two_point:0.3:0.5:1.5"),
             (16, "4", "constant:1")]
    for n, gamma, dist in cases:
        gen = ["gen", "planted", "--n", str(n), "--gamma", gamma, "--dist", dist]
        assert main(gen + ["-o", str(tmp_path)]) == 0
        path = capsys.readouterr().out.strip()
        assert main(["verify", path]) == 0
        assert "cheeger" not in json.loads(capsys.readouterr().out)["oracle"]
        assert main(["solve", "--solver", "all", "--no-timing", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        # planted weights are not all 1, so the Cheeger checks do not apply
        assert "cheeger" not in doc["oracle"]
        assert not doc["conditions"]["families"][2]["applicable"]


def test_solve_runs_greedy_once_per_component(tmp_path, capsys, monkeypatch):
    path = tmp_path / "two.graph"
    path.write_text("7 6\n0 1 1.0\n1 2 2.0\n0 2 1.5\n3 4 1.0\n4 5 0.5\n5 6 2.0\n")
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
        mutate(bad)
        return not jsonschema.Draft202012Validator(SCHEMA).is_valid(bad)

    assert rejected(lambda d: d["solvers"]["greedy"]["trace"][0].update(component_sizes=[1] * 8))
    assert rejected(lambda d: d["solvers"]["dual"].update(trace=[d["solvers"]["dual"]["trace"]]))
    for name in report.SOLVERS:
        assert rejected(lambda d: d["solvers"][name].update(unknown=0))
    # the fields run report /6 dropped
    assert rejected(lambda d: d["conditions"].update(spectral_ratio={"basic": 1.0, "refined": 0.0}))
    assert rejected(lambda d: d["conditions"]["certificate"].update(residual=0.0))
    # the field run report /7 dropped
    assert rejected(lambda d: d["oracle"].update(cheeger=2.0))


def test_verify_and_spectrum_schemas_are_strict(tmp_path, capsys):
    path = tmp_path / "k44.graph"
    path.write_text(dumps_graph(complete_bipartite(4)))
    docs = {}
    for command in ("verify", "spectrum"):
        assert main([command, str(path)]) == 0
        docs[command] = json.loads(capsys.readouterr().out)
        _validate(docs[command])

    def rejected(command: str, mutate) -> bool:
        bad = copy.deepcopy(docs[command])
        mutate(bad)
        return not jsonschema.Draft202012Validator(SCHEMA).is_valid(bad)

    # the field verify report /2 dropped, and unknown keys anywhere
    assert rejected("verify", lambda d: d["oracle"].update(cheeger=2.0))
    assert rejected("verify", lambda d: d.update(unknown=0))
    assert rejected("verify", lambda d: d["tolerances"].update(psd_rel_tol=1e-9))
    assert rejected("verify", lambda d: d["oracle"].pop("worst_cut"))
    assert rejected("spectrum", lambda d: d.update(unknown=0))
    assert rejected("spectrum", lambda d: d["tolerances"].update(unknown=0))


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
    """Every matrix numpy's eigh or eigvalsh solves, in call order."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda m, solve=solve: calls.append(np.array(m)) or solve(m))
    return calls


def _cycle(n: int) -> WeightedGraph:
    w = np.roll(np.eye(n), 1, axis=1)
    return WeightedGraph(w + w.T)


@pytest.mark.parametrize("g", [_cycle(8), complete_bipartite(4)], ids=["C8", "K44"])
def test_solve_and_spectrum_eigensolve_w_once(tmp_path, capsys, monkeypatch, g):
    path = tmp_path / "regular.graph"
    path.write_text(dumps_graph(g))
    calls = _count_eigh(monkeypatch)
    for argv in (["solve", "--solver", "all", "--no-timing", str(path)], ["spectrum", str(path)]):
        calls.clear()
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        # the graph is regular, so the expander check reads lambda_2 of W too
        assert doc["conditions"]["families"][1]["applicable"]
        assert sum(np.array_equal(m, g.weights) for m in calls) == 1


def test_spectrum_eigenvalues_are_the_memoized_ones(tmp_path, capsys):
    for g in (complete_bipartite(4), _cycle(7), random_weighted(9, 3)):
        path = tmp_path / "g.graph"
        path.write_text(dumps_graph(g))
        assert main(["spectrum", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        _validate(doc)
        memo = spectral.eigenvalues_of_w(load_graph(str(path)))
        assert np.array(doc["eigenvalues"]).tobytes() == memo[::-1].tobytes()
        expander = doc["conditions"]["families"][1]
        if expander["applicable"]:  # regular: lambda_2 is the second largest
            assert expander["detail"]["lambda2"] == doc["eigenvalues"][1]


def test_conditions_block_computes_local_stability_once(tmp_path, capsys, monkeypatch):
    calls = []
    gamma = oracle.local_stability_gamma
    monkeypatch.setattr(oracle, "local_stability_gamma", lambda g, c: calls.append(g.n) or gamma(g, c))
    for n in (12, 18):  # with the attached profile, then without one
        assert main(["gen", "planted", "--n", str(n), "--gamma", "4", "-o", str(tmp_path)]) == 0
        path = capsys.readouterr().out.strip()
        for argv in (["solve", "--no-timing", path], ["spectrum", path]):
            calls.clear()
            assert main(argv) == 0
            doc = json.loads(capsys.readouterr().out)
            assert calls == [n]
            if argv[0] == "solve" and n <= 16:  # the profile's own value
                assert doc["conditions"]["gamma_local"] == doc["oracle"]["gamma_local"]


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
        # W and the certified spectral cut's kernel matrix, whose certificate
        # the dual hands to the conditions block; W + diag(degrees) is never
        # solved, since the fast path certifies before the first iterate
        assert [len(m) for m in calls] == [int(n)] * 2
        w = load_graph(path).weights
        kernel = np.diag(doc["conditions"]["certificate"]["diag_shift"])
        assert np.array_equal(calls[0], w) and np.array_equal(calls[1], w + kernel)
        # each op re-solves: nothing is remembered across graphs
        assert main(argv) == 0
        assert len(calls) == 4
        capsys.readouterr()


def _paths(doc, path=()):
    """(path, value) for every leaf of a JSON document, in document order."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, path + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _paths(value, path + (k,))
    else:
        yield path, doc


# run report floats that do not scale with W: stability ratios, the
# thresholds they are compared with, tolerances, and the zeroed durations
SCALE_FREE = {"gamma_local", "ratio_bound", "gamma", "lhs", "rhs", "tol", "tie_rel_tol",
              "psd_rel_tol", "wall_ms", "gamma_star", "alpha_star"}


@pytest.mark.parametrize(
    "n, dist, gamma, seed",
    [
        (100, "uniform:0.5:1.5", 2.0, 1),
        (200, "uniform:0.5:1.5", 4.0, 2),
        (200, "two_point:0.3:0.5:1.5", 2.0, 3),
        (150, "constant:0.7", 2.0, 5),
        # n <= 16: the oracle attaches, and its profile scales too
        (12, "uniform:0.5:1.5", 4.0, 1),
        (16, "uniform:0.5:1.5", 2.0, 2),
        (14, "two_point:0.3:0.5:1.5", 4.0, 3),
        (16, "constant:1.5", 2.0, 4),
    ],
)
def test_solve_report_scales_with_the_weights(tmp_path, capsys, n, dist, gamma, seed):
    # metamorphic, so no oracle is needed at solve-stable-large sizes: scaling
    # W by 2 doubles every weight-valued float exactly, and by 2 or 2^10 it
    # changes no cut, verdict, iteration count or greedy choice
    g, _ = gen_planted(n, WeightDistribution.parse(dist), gamma, seed=seed)
    # the max(1, .) floors (polish's flip threshold, the dual's first step,
    # the gap and PSD tolerances) do not bind, so only W's scale moves
    assert g.weights.max() > 1.0 and g.weights.sum(axis=1).mean() > 1.0
    docs = {}
    for k in (1.0, 2.0, 1024.0):
        path = tmp_path / f"scaled-{k}.graph"
        path.write_text(dumps_graph(WeightedGraph(k * g.weights)))
        assert main(["solve", "--solver", "all", "--gamma", repr(gamma), "--no-timing", str(path)]) == 0
        docs[k] = json.loads(capsys.readouterr().out)
        docs[k]["instance"].pop("path")
    dual = docs[1.0]["solvers"]["dual"]
    assert dual["certified"] and dual["iterations"] == 1
    base = list(_paths(docs[1.0]))
    for k in (2.0, 1024.0):
        scaled = list(_paths(docs[k]))
        assert [p for p, _ in scaled] == [p for p, _ in base]
        for (p, a), (_, b) in zip(base, scaled):
            if not isinstance(a, float):
                assert a == b, p
            elif k == 2.0:
                name = [key for key in p if isinstance(key, str)][-1]
                assert b == (a if name in SCALE_FREE else k * a), p


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
        dualsdp, "build_certificate",
        lambda g, c, *d: certificates.append(c) or certify(g, c, *d),
    )
    log = tmp_path / "iter.csv"
    argv = ["solve", "--solver", "all", "--max-iter", "50", "--iter-log", str(log), "--no-timing", path]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    dual = doc["solvers"]["dual"]
    assert not dual["certified"] and dual["iterations"] == 50
    assert doc["oracle"]["max_cut"] == dual["cut"]
    lams = [float(row.split(",")[2]) for row in log.read_text().splitlines()[1:]]
    assert len(lams) == 50
    # W once, the first dual iterate, each iterate after one with
    # lambda_min < 0 (a feasible iterate's step keeps its eigenpair), and one
    # per cut that raised the dual's lower bound; the conditions block reuses
    # the best cut's certificate
    solves = 1 + 1 + sum(lam < 0 for lam in lams[:-1]) + len(certificates)
    assert [len(m) for m in calls] == [12] * solves
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


def test_timed_solve_differs_from_no_timing_only_in_durations(tmp_path, capsys):
    gen = ["gen", "planted", "--n", "12", "--gamma", "2", "--seed", "3", "-o", str(tmp_path)]
    assert main(gen) == 0
    path = capsys.readouterr().out.strip()
    reports = []
    for flags in ([], ["--no-timing"]):
        assert main(["solve", "--solver", "all", *flags, path]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    timed, untimed = reports
    _validate(timed)
    assert timed["parameters"]["timing"] is True
    assert timed["solvers"]["contract"] == {"skipped": "weighted input (simple graphs only)"}
    for name in ("greedy", "spectral", "dual", "oracle"):
        entry = timed["solvers"][name]
        assert isinstance(entry["wall_ms"], float) and entry["wall_ms"] >= 0.0
        entry["wall_ms"] = 0.0
    timed["parameters"]["timing"] = False
    assert timed == untimed


def test_timed_bench_differs_from_no_timing_only_in_mean_ms(tmp_path):
    args = ["bench", "--n", "8", "--gamma", "4.0", "--trials", "2",
            "--solver", "dual,greedy,oracle,spectral"]
    timed, untimed = tmp_path / "timed.csv", tmp_path / "untimed.csv"
    assert main(args + ["-o", str(timed)]) == 0
    assert main(args + ["--no-timing", "-o", str(untimed)]) == 0
    rows = [[ln.split(",") for ln in f.read_text().splitlines()] for f in (timed, untimed)]
    assert len(rows[0]) == len(rows[1]) == 5
    for a, b in zip(*rows):
        assert a[:-1] == b[:-1]
    for a, b in zip(rows[0][1:], rows[1][1:]):
        assert float(a[-1]) >= 0.0 and b[-1] == "0.000"


def test_bench_greedy_spectral_and_oracle_cells(tmp_path):
    args = ["bench", "--n", "8", "--gamma", "4.0", "--trials", "3",
            "--solver", "greedy,spectral,oracle", "--no-timing"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = [ln.split(",") for ln in out1.read_text().splitlines()[1:]]
    assert {r[4]: (float(r[5]), float(r[6])) for r in rows} == {
        "greedy": (1.0, 0.0),
        "oracle": (1.0, 1.0),
        "spectral": (1.0, 0.0),
    }


def test_bench_greedy_is_certified_only_below_the_exact_gamma_star(tmp_path):
    # at nominal gamma 16 the largest bundle count is 15, but the drawn
    # instances' exact gamma* is lower (11.4-12.7 in the first three trials),
    # so no greedy answer is proven even though every one is recovered
    args = ["bench", "--n", "16", "--gamma", "16", "--trials", "10",
            "--solver", "greedy,oracle", "--seed", "0", "--no-timing"]
    out = tmp_path / "bench.csv"
    assert main(args + ["-o", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert {r[4]: (float(r[5]), float(r[6])) for r in rows}["greedy"] == (1.0, 0.0)
    # above the oracle's auto-attach size nothing is proven, so greedy reports 0
    assert main(["bench", "--n", "18", "--gamma", "16", "--trials", "2", "--solver", "greedy",
                 "--no-timing", "-o", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[5:7] == ["1.000000", "0.000000"]
    # far more stable instances do prove every greedy answer
    assert main(["bench", "--n", "6", "--gamma", "100", "--trials", "5", "--solver", "greedy",
                 "--no-timing", "-o", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[5:7] == ["1.000000", "1.000000"]


def test_solve_output_to_a_directory_exits_2(tmp_path, capsys):
    tri = _write_triangle(tmp_path)
    assert main(["solve", "--no-timing", "-o", str(tmp_path), tri]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:")


def test_parser_is_built_once_and_survives_an_error_exit(tmp_path, capsys, monkeypatch):
    path = _write_triangle(tmp_path)
    argv = ["solve", "--no-timing", "--iter-log", str(tmp_path / "iter.csv"), path]
    cli.build_parser.cache_clear()
    assert main(argv) == 0
    fresh = capsys.readouterr(), (tmp_path / "iter.csv").read_bytes()
    parser = cli.build_parser()
    for bad in (["solve", "--solver", "nope", path], ["gen", "planted", "--gamma", "2"], []):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: stablecut")
        assert main(argv) == 0
        assert (capsys.readouterr(), (tmp_path / "iter.csv").read_bytes()) == fresh
    assert cli.build_parser() is parser
    # the cached parser names its commands; main calls the module's current ones
    monkeypatch.setattr(cli, "cmd_solve", lambda args: 7)
    assert main(argv) == 7


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
