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
build_run_report builds every solver entry by one rule, with one timer per
call: its `wall_ms` is the call's duration, or 0.0 under --no-timing.

The run report is O(n) in size, and no field repeats another: a greedy
step's index is its place in the trace and its component sizes are rebuilt
from the trace (see combinatorial.find_max_cut_greedy), the dual's
convergence is `certified`, and its gap tolerance is `parameters.tol`.
"""

from __future__ import annotations

import math
import time
from typing import Callable

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
    capped = spectral._capped(gamma_local)
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
    (see dualsdp.solve_min_trace) as they happen.

    Every solver entry is built by one rule: its solver's cut, the cut's
    value, the call's `wall_ms` (0.0 unless `timing`), and its own fields."""
    profile = sol = None
    entries: dict[str, dict] = {}
    cuts: list[tuple[float, Cut]] = []  # (value, cut) per entry, in solver order
    for name in solvers:
        if name == "contract" and not g.is_simple():
            entries[name] = {"skipped": "weighted input (simple graphs only)"}
            continue
        t0 = time.perf_counter()
        if name == "greedy":
            cut, steps = combinatorial.find_max_cut_greedy(g)
            keys = ("chosen_i", "chosen_j", "chosen_c", "edge_weight_added")
            fields = {"trace": [{k: getattr(s, k) for k in keys} for s in steps]}
            if gamma_hint is not None:
                flags = [s.bundles < gamma_hint for s in steps]
                fields["applicability"] = {
                    "gamma": gamma_hint, "per_iteration": flags, "overall": all(flags)
                }
        elif name == "contract":
            result = combinatorial.high_degree_solve(g)
            cut = result.cut
            fields = {
                "gamma": result.gamma,
                "component_count": result.component_count,
                "used_exhaustive": result.used_exhaustive,
                "heuristic": result.heuristic,
            }
        elif name == "spectral":
            cut, fields = spectral.spectral_partition(g), {}
        elif name == "dual":
            sol = dualsdp.solve_min_trace(g, tol=tol, max_iter=max_iter, on_iteration=on_iteration)
            cut = sol.best_cut
            fields = {
                "certified": sol.converged,
                "trace": sol.trace,
                "lower_bound": sol.lower_bound,
                "gap": sol.gap,
                "lambda_min": sol.lambda_min,
                "iterations": sol.iterations,
            }
        elif name == "oracle":
            # one max-cut sweep, or the attached profile, read off its first sweep
            profile = _attached_profile(g, oracle_limit)
            if profile is None:
                cut, value, unique = oracle.brute_force_max_cut(g, oracle_limit)
            else:
                cut, value, unique = profile.max_cut, profile.max_value, profile.unique
            fields = {"unique": unique}
        else:
            raise ValidationError(f"unknown solver {name!r}")
        if name != "oracle":  # the oracle's value is its sweep's exactly rounded weight
            value = cut_value(g, cut)
        wall_ms = (time.perf_counter() - t0) * 1000.0 if timing else 0.0
        entries[name] = {"cut": cut.signs.tolist(), "value": value, "wall_ms": wall_ms, **fields}
        cuts.append((value, cut))

    if profile is None:
        profile = _attached_profile(g, oracle_limit)
    if profile is not None:
        osec = _profile_json(profile)
        candidate = profile.max_cut
    else:
        osec = {"skipped": f"n > limit ({g.n} > {min(AUTO_ORACLE_ATTACH, oracle_limit)})"}
        # the first entry with the strictly largest value
        candidate = max(cuts, key=lambda vc: vc[0])[1] if cuts else None

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
