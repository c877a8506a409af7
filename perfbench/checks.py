"""Output checks: every report is held against facts the benchmark computes
itself from the instance file (see instances.py), never against stablecut code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import jsonschema

from instances import Instance

# Solvers that run in polynomial time; their answers make up cut_ratio.
POLYNOMIAL_SOLVERS = ("greedy", "contract", "spectral", "dual")


def isclose(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


@dataclass
class Tally:
    """What a sequence of ops produced, beyond their timings."""

    attempted: int = 0
    failed: int = 0
    answers: int = 0  # answers checked against a known maximum
    exact: int = 0  # answers equal to it
    value_ratio: float = 0.0  # sum over answers of value / maximum
    dual_solves: int = 0
    certified: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class Checker:
    def __init__(self, schema_path: str, tie_rel_tol: float):
        with open(schema_path, encoding="ascii") as fh:
            schema = json.load(fh)
        self._validator = jsonschema.Draft202012Validator(schema)
        self.tol = tie_rel_tol

    def check(self, command: str, inst: Instance, rc: int, out_path: str) -> Tally:
        """Tally one op; any broken fact makes it a failed op."""
        tally = Tally(attempted=1)
        problems: list[str] = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        else:
            try:
                with open(out_path, encoding="ascii") as fh:
                    report = json.load(fh)
            except (OSError, ValueError) as exc:
                problems.append(f"unreadable report: {exc}")
            else:
                errors = self._validator.iter_errors(report)
                problems += [f"schema: {e.message}" for e in errors][:3]
                if not problems:
                    check = self._verify if command == "verify" else self._solve
                    problems += check(inst, report, tally)
        if problems:
            tally.failed = 1
            tally.errors = [f"{inst.path}: {p}" for p in problems]
        return tally

    def _verify(self, inst: Instance, report: dict, tally: Tally) -> list[str]:
        o = report["oracle"]
        best, ties, _ = inst.maximum(self.tol)
        problems = []
        if not isclose(inst.cut_value(o["max_cut"]), o["max_value"], self.tol):
            problems.append("max_cut does not have value max_value")
        if o["max_value"] < inst.cut_value(inst.planted) - self.tol * max(1.0, best):
            problems.append("max_value is below the planted cut's value")
        if o["gamma_star"] != "inf" and o["gamma_star"] < 1.0:
            problems.append(f"gamma_star {o['gamma_star']} < 1")
        if o["unique"] != (ties == 1):
            problems.append(f"unique={o['unique']} but {ties} partitions tie at the maximum")
        tally.answers = 1
        tally.exact = int(isclose(o["max_value"], best, self.tol))
        tally.value_ratio = o["max_value"] / best
        if not tally.exact:
            problems.append(f"max_value {o['max_value']} != exact maximum {best}")
        return problems

    def _solve(self, inst: Instance, report: dict, tally: Tally) -> list[str]:
        problems = []
        entries = {k: e for k, e in report["solvers"].items() if "cut" in e}
        for name, e in entries.items():
            if not isclose(inst.cut_value(e["cut"]), e["value"], self.tol):
                problems.append(f"{name}: cut does not have the reported value")

        known = inst.certified_max
        if "skipped" not in report["oracle"]:
            known, _, _ = inst.maximum(self.tol)
            if not isclose(report["oracle"]["max_value"], known, self.tol):
                problems.append(f"oracle max_value != exact maximum {known}")

        dual = report["solvers"].get("dual", {})
        if "certified" in dual:
            tally.dual_solves = 1
            tally.certified = int(dual["certified"])
        if inst.certified_max is not None and not tally.certified:
            problems.append("no certified dual on an instance whose relaxation is strictly tight")
        if tally.certified:
            # Weak duality with d = kernel diagonal + (-lambda_min)+ bounds
            # every cut by value + n * (-lambda_min)+ / 4.
            slack = len(dual["cut"]) * max(0.0, -inst.kernel_lambda_min(dual["cut"])) / 4.0
            if slack > report["parameters"]["tol"] * max(1.0, abs(dual["value"])):
                problems.append(f"dual certified, but its cut's certificate leaves slack {slack}")
            if known is None:
                known = dual["value"]
            elif not isclose(dual["value"], known, self.tol):
                problems.append("dual certified a cut below the exact maximum")

        if known is not None:
            for name, e in entries.items():
                if e["value"] > known + self.tol * max(1.0, abs(known)):
                    problems.append(f"{name}: value {e['value']} exceeds the known maximum {known}")
            for name in POLYNOMIAL_SOLVERS:
                if name in entries:
                    tally.answers += 1
                    tally.exact += isclose(entries[name]["value"], known, self.tol)
                    tally.value_ratio += entries[name]["value"] / known
        return problems
