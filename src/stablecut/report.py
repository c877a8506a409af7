"""Every machine-readable report: the run report of `solve`, and the
`verify` and `spectrum` reports.

This is the one module that turns results into report JSON.  The three
reports share one instance block, and `_num` is the only place where an
infinity is encoded, as "inf" or "-inf".  `solve` and `spectrum` attach the
exact stability profile by one rule, n <= min(AUTO_ORACLE_ATTACH, limit).
Every eigenvalue of W comes from its one eigendecomposition, memoized on the
graph (spectral.eigenvalues_of_w), and a conditions block computes the
candidate's local stability once.  Numeric fields carry their tolerance
context in the `tolerances` block, and a skipped oracle section is explicit.
Each solver entry times itself; build_run_report alone reads `timing` and
zeroes every `wall_ms` under --no-timing.

The run report is O(n) in size, and no field repeats another: a greedy
step's index is its place in the trace and its component sizes are rebuilt
from the trace (see combinatorial.find_max_cut_greedy), the dual's
convergence is `certified`, and its gap tolerance is `parameters.tol`.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

from . import combinatorial, dualsdp, oracle, spectral
from .errors import ValidationError
from .graph import Cut, WeightedGraph, cut_value

SCHEMA_ID = "stablecut-run-report/7"
SOLVERS = ("greedy", "contract", "spectral", "dual", "oracle")

# Solve and spectrum attach the exact oracle automatically up to this size.
AUTO_ORACLE_ATTACH = 16


def _num(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _attached_profile(g: WeightedGraph, limit: int) -> oracle.StabilityReport | None:
    """The exact stability profile when the oracle attaches automatically."""
    if g.n <= min(AUTO_ORACLE_ATTACH, limit):
        return oracle.stability_report(g, limit)
    return None


def _instance(g: WeightedGraph, path: str | None) -> dict:
    return {"path": path, "n": g.n, "m": g.edge_count, "total_weight": g.total_weight}


def _profile_json(p: oracle.StabilityReport) -> dict:
    return {
        "max_cut": p.max_cut.signs.tolist(),
        "max_value": p.max_value,
        "unique": p.unique,
        "gamma_star": _num(p.gamma_star),
        "gamma_local": _num(p.gamma_local),
        "alpha_star": p.alpha_star,
        "k_star": _num(p.k_star),
        "worst_cut": None if p.worst_cut is None else p.worst_cut.signs.tolist(),
    }


def _verdict_json(v: spectral.ConditionVerdict) -> dict:
    return {
        "name": v.name,
        "applicable": v.applicable,
        "holds": v.holds,
        "lhs": _num(v.lhs),
        "rhs": _num(v.rhs),
        "detail": {k: _num(x) for k, x in v.detail.items()},
    }


def _entry(g: WeightedGraph, cut: Cut, t0: float, **fields) -> dict:
    """A solver entry: the cut, its value, the time since t0, and `fields`."""
    return {"cut": cut.signs.tolist(), "value": cut_value(g, cut),
            "wall_ms": (time.perf_counter() - t0) * 1000.0, **fields}


def solver_entry_greedy(g: WeightedGraph, gamma_hint: float | None) -> dict:
    t0 = time.perf_counter()
    cut, trace = combinatorial.find_max_cut_greedy(g)
    fields = ("chosen_i", "chosen_j", "chosen_c", "edge_weight_added")
    entry = _entry(g, cut, t0, trace=[{f: getattr(s, f) for f in fields} for s in trace])
    if gamma_hint is not None:
        flags = [s.bundles < gamma_hint for s in trace]
        entry["applicability"] = {"gamma": gamma_hint, "per_iteration": flags, "overall": all(flags)}
    return entry


def solver_entry_contract(g: WeightedGraph) -> dict:
    t0 = time.perf_counter()
    result = combinatorial.high_degree_solve(g)
    return _entry(
        g, result.cut, t0,
        gamma=result.gamma,
        component_count=result.component_count,
        used_exhaustive=result.used_exhaustive,
        heuristic=result.heuristic,
    )


def solver_entry_spectral(g: WeightedGraph) -> dict:
    t0 = time.perf_counter()
    return _entry(g, spectral.spectral_partition(g), t0)


def solver_entry_dual(
    g: WeightedGraph,
    tol: float,
    max_iter: int,
    on_iteration: Callable[[int, float, float, float], None] | None = None,
) -> tuple[dict, dualsdp.DualSolution]:
    """The dual's entry, plus the solution, which holds best_cut's certificate."""
    t0 = time.perf_counter()
    sol = dualsdp.solve_min_trace(g, tol=tol, max_iter=max_iter, on_iteration=on_iteration)
    return _entry(
        g, sol.best_cut, t0,
        certified=sol.converged,
        trace=sol.trace,
        lower_bound=sol.lower_bound,
        gap=sol.gap,
        lambda_min=sol.lambda_min,
        iterations=sol.iterations,
    ), sol


def solver_entry_oracle(
    g: WeightedGraph, limit: int
) -> tuple[dict, oracle.StabilityReport | None]:
    """The exact maximum cut, plus the attached stability profile if any.

    With a profile the entry is read off its first sweep and `wall_ms`
    times the whole profile; otherwise it is one max-cut sweep.
    """
    t0 = time.perf_counter()
    profile = _attached_profile(g, limit)
    if profile is None:
        cut, value, unique = oracle.brute_force_max_cut(g, limit)
    else:
        cut, value, unique = profile.max_cut, profile.max_value, profile.unique
    entry = {
        "cut": cut.signs.tolist(),
        "value": value,
        "wall_ms": (time.perf_counter() - t0) * 1000.0,
        "unique": unique,
    }
    return entry, profile


def conditions_section(
    g: WeightedGraph,
    candidate: Cut,
    profile: oracle.StabilityReport | None = None,
    cert: spectral.SpectralCertificate | None = None,
) -> dict:
    """The conditions block for `candidate`, reusing its certificate `cert`
    if given, and the profile's local stability if `candidate` is its maximum cut."""
    if cert is None:
        cert = spectral.build_certificate(g, candidate)
    profiled = profile is not None and candidate == profile.max_cut
    gamma_local = profile.gamma_local if profiled else oracle.local_stability_gamma(g, candidate)
    degrees = g.weights.sum(axis=1)
    holds, margin = spectral.psd_sufficient_margin(g, gamma_local, degrees)
    verdicts = spectral.family_condition_checks(g, gamma_local, degrees, profile)
    capped = min(gamma_local, spectral.LOCAL_GAMMA_CAP)
    return {
        "gamma_local": _num(gamma_local),
        "ratio_bound": capped / (capped + 1.0),
        "certificate": {
            "lambda_n": cert.lambda_n,
            "lambda_n_minus_1": cert.lambda_n_minus_1,
            "psd": cert.psd,
            "diag_shift": cert.diag_shift.tolist(),
        },
        "psd_margin": {"holds": holds, "margin": margin},
        "families": [_verdict_json(v) for v in verdicts],
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
    profile = sol = None
    entries: dict[str, dict] = {}
    for name in solvers:
        if name == "greedy":
            entries[name] = solver_entry_greedy(g, gamma_hint)
        elif name == "contract":
            if g.is_simple():
                entries[name] = solver_entry_contract(g)
            else:
                entries[name] = {"skipped": "weighted input (simple graphs only)"}
        elif name == "spectral":
            entries[name] = solver_entry_spectral(g)
        elif name == "dual":
            entries[name], sol = solver_entry_dual(g, tol, max_iter, on_iteration)
        elif name == "oracle":
            entries[name], profile = solver_entry_oracle(g, oracle_limit)
        else:
            raise ValidationError(f"unknown solver {name!r}")
    if not timing:
        for entry in entries.values():
            if "wall_ms" in entry:
                entry["wall_ms"] = 0.0

    if profile is None:
        profile = _attached_profile(g, oracle_limit)
    if profile is not None:
        osec = _profile_json(profile)
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
        "instance": {**_instance(g, path), "generator": generator_meta},
        "parameters": {
            "tol": tol,
            "max_iter": max_iter,
            "oracle_limit": oracle_limit,
            "timing": timing,
        },
        "tolerances": {"tie_rel_tol": oracle.TIE_REL_TOL, "psd_rel_tol": spectral.PSD_REL_TOL},
        "solvers": entries,
        "oracle": osec,
    }
    if candidate is not None:
        cert = sol.certificate if sol is not None and candidate == sol.best_cut else None
        report["conditions"] = conditions_section(g, candidate, profile, cert)
    return report


def verify_report(g: WeightedGraph, path: str, limit: int) -> dict:
    """The exact stability profile of g, from at most two sweeps."""
    return {
        "schema": "stablecut-verify-report/2",
        "instance": _instance(g, path),
        "tolerances": {"tie_rel_tol": oracle.TIE_REL_TOL},
        "oracle": _profile_json(oracle.stability_report(g, limit)),
    }


def spectrum_report(g: WeightedGraph, path: str, limit: int) -> dict:
    """The eigenvalues of W, largest first, and the conditions block for
    the attached profile's maximum cut, or for the spectral cut without one."""
    profile = _attached_profile(g, limit)
    candidate = spectral.spectral_partition(g) if profile is None else profile.max_cut
    return {
        "schema": "stablecut-spectrum-report/5",
        "instance": _instance(g, path),
        "eigenvalues": spectral.eigenvalues_of_w(g)[::-1].tolist(),
        "tolerances": {
            "psd_rel_tol": spectral.PSD_REL_TOL,
            "tie_rel_tol": oracle.TIE_REL_TOL,
        },
        "conditions": conditions_section(g, candidate, profile),
    }
