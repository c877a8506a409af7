"""Assembly of machine-readable run reports.

A run report records the instance, per-solver outcomes, the exact oracle
section when the instance is small enough, and the sufficient-condition
verdicts.  All numeric fields carry their tolerance context in the
`tolerances` block; a skipped oracle section is explicit.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

from . import combinatorial, dualsdp, oracle, spectral
from .errors import ValidationError
from .graph import Cut, WeightedGraph, cut_value

SCHEMA_ID = "stablecut-run-report/2"

# Solve/bench attach the exact oracle automatically up to this size.
AUTO_ORACLE_ATTACH = 16


def _num(x):
    if x is None:
        return None
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


class _Timer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self._t0 = time.perf_counter()

    def ms(self) -> float:
        if not self.enabled:
            return 0.0
        return (time.perf_counter() - self._t0) * 1000.0


def solver_entry_greedy(g: WeightedGraph, gamma_hint: float | None, timing: bool) -> dict:
    t = _Timer(timing)
    cut, trace = combinatorial.find_max_cut_greedy(g)
    entry = {
        "cut": cut.signs.tolist(),
        "value": cut_value(g, cut),
        "wall_ms": t.ms(),
        "trace": [s.to_json() for s in trace],
    }
    if gamma_hint is not None:
        flags = [s.bundles < gamma_hint for s in trace]
        entry["applicability"] = {"gamma": gamma_hint, "per_iteration": flags, "overall": all(flags)}
    return entry


def solver_entry_contract(g: WeightedGraph, timing: bool) -> dict:
    t = _Timer(timing)
    result = combinatorial.high_degree_solve(g)
    return {
        "cut": result.cut.signs.tolist(),
        "value": cut_value(g, result.cut),
        "wall_ms": t.ms(),
        "gamma": result.gamma,
        "component_count": result.component_count,
        "used_exhaustive": result.used_exhaustive,
        "heuristic": result.heuristic,
    }


def solver_entry_spectral(g: WeightedGraph, timing: bool) -> dict:
    t = _Timer(timing)
    cut = spectral.spectral_partition(g)
    return {
        "cut": cut.signs.tolist(),
        "value": cut_value(g, cut),
        "wall_ms": t.ms(),
    }


def solver_entry_dual(
    g: WeightedGraph,
    tol: float,
    max_iter: int,
    timing: bool,
    on_iteration: Callable[[int, float, float, float], None] | None = None,
) -> dict:
    t = _Timer(timing)
    cut, sol, certified = dualsdp.extended_spectral_solve(
        g, tol=tol, max_iter=max_iter, on_iteration=on_iteration
    )
    return {
        "cut": cut.signs.tolist(),
        "value": cut_value(g, cut),
        "wall_ms": t.ms(),
        "certified": certified,
        "trace": sol.trace,
        "lower_bound": sol.lower_bound,
        "gap": sol.gap,
        "lambda_min": sol.lambda_min,
        "iterations": sol.iterations,
        "converged": sol.converged,
    }


def solver_entry_oracle(
    g: WeightedGraph, limit: int, timing: bool, attach: bool = False
) -> tuple[dict, oracle.StabilityReport | None]:
    """The exact maximum cut, plus the stability profile when `attach` is set.

    With `attach` the entry is read off the profile's first sweep and
    `wall_ms` times the whole profile; otherwise it is one max-cut sweep.
    """
    t = _Timer(timing)
    profile = oracle.stability_report(g, limit) if attach else None
    if profile is None:
        cut, value, unique = oracle.brute_force_max_cut(g, limit)
    else:
        cut, value, unique = profile.max_cut, profile.max_value, profile.unique
    entry = {
        "cut": cut.signs.tolist(),
        "value": value,
        "wall_ms": t.ms(),
        "unique": unique,
    }
    return entry, profile


def oracle_section(g: WeightedGraph, limit: int) -> dict:
    return oracle.stability_report(g, limit).to_json()


def conditions_section(
    g: WeightedGraph,
    candidate: Cut,
    oracle_limit: int,
    profile: oracle.StabilityReport | None = None,
) -> dict:
    cert = spectral.build_certificate(g, candidate)
    basic, refined = spectral.spectral_gamma_requirement(g, cert.eigvec)
    holds, margin = spectral.psd_sufficient_margin(g, candidate)
    verdicts = spectral.family_condition_checks(g, candidate, oracle_limit, profile)
    gamma_local = oracle.local_stability_gamma(g, candidate)
    capped = min(gamma_local, spectral.LOCAL_GAMMA_CAP)
    stable_bound = spectral.stable_gw_bound(max(1.0, capped))
    total = g.total_weight
    gw: dict = {
        "gamma_local": _num(gamma_local),
        "ratio_bound": capped / (capped + 1.0),
        "stable_bound": stable_bound,
        "floor": spectral.GW_FLOOR,
        "best": max(stable_bound, spectral.GW_FLOOR),
        "tolerance_note": "ratio-dependent bound vs unconditional floor; max labeled 'best'",
    }
    if total > 0:
        r = cut_value(g, candidate) / total
        if 0.5 <= r <= 1.0:
            gw["achieved_ratio"] = r
            gw["achieved_bound"] = spectral.gw_bound(r)
    return {
        "certificate": {
            "lambda_n": cert.lambda_n,
            "lambda_n_minus_1": cert.lambda_n_minus_1,
            "psd": cert.psd,
            "residual": cert.residual,
            "diag_shift": cert.diag_shift.tolist(),
        },
        "spectral_ratio": {"basic": _num(basic), "refined": _num(refined)},
        "psd_margin": {"holds": holds, "margin": margin},
        "families": [v.to_json() for v in verdicts],
        "gw": gw,
    }


def build_run_report(
    g: WeightedGraph,
    solvers: list[str],
    path: str | None,
    generator_meta: dict | None,
    tol: float,
    max_iter: int,
    oracle_limit: int,
    timing: bool,
    gamma_hint: float | None = None,
    on_iteration: Callable[[int, float, float, float], None] | None = None,
) -> dict:
    """The run report; `on_iteration` receives the dual solver's iterations
    (see dualsdp.solve_min_trace) as they happen."""
    attach = g.n <= min(AUTO_ORACLE_ATTACH, oracle_limit)
    profile = None
    entries: dict[str, dict] = {}
    for name in solvers:
        if name == "greedy":
            entries[name] = solver_entry_greedy(g, gamma_hint, timing)
        elif name == "contract":
            if g.is_simple():
                entries[name] = solver_entry_contract(g, timing)
            else:
                entries[name] = {"skipped": "weighted input (simple graphs only)"}
        elif name == "spectral":
            entries[name] = solver_entry_spectral(g, timing)
        elif name == "dual":
            entries[name] = solver_entry_dual(g, tol, max_iter, timing, on_iteration)
        elif name == "oracle":
            entries[name], profile = solver_entry_oracle(g, oracle_limit, timing, attach)
        else:
            raise ValidationError(f"unknown solver {name!r}")

    if attach:
        if profile is None:
            profile = oracle.stability_report(g, oracle_limit)
        osec = profile.to_json()
        candidate = profile.max_cut
    else:
        osec = {"skipped": f"n > limit ({g.n} > {min(AUTO_ORACLE_ATTACH, oracle_limit)})"}
        candidate = None
        best = -math.inf
        for entry in entries.values():
            if "cut" in entry and entry["value"] > best:
                best = entry["value"]
                candidate = Cut(np.asarray(entry["cut"], dtype=np.int8))

    report = {
        "schema": SCHEMA_ID,
        "instance": {
            "path": path,
            "n": g.n,
            "m": g.edge_count,
            "total_weight": g.total_weight,
            "generator": generator_meta,
        },
        "parameters": {
            "tol": tol,
            "max_iter": max_iter,
            "oracle_limit": oracle_limit,
            "timing": timing,
        },
        "tolerances": {
            "tie_rel_tol": oracle.TIE_REL_TOL,
            "psd_rel_tol": spectral.PSD_REL_TOL,
            "kernel_residual_tol": 1e-10,
            "duality_gap_tol": tol,
            "note": "wall_ms is 0.0 when timing is disabled for reproducibility",
        },
        "solvers": entries,
        "oracle": osec,
    }
    if candidate is not None:
        report["conditions"] = conditions_section(
            g, candidate, min(AUTO_ORACLE_ATTACH, oracle_limit), profile
        )
    return report
