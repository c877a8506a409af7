"""First-order solver for the min-trace dual SDP, which is also the
certified extended-spectral Max-Cut solver.

The dual problem: minimize sum(d) over diagonals d with W + diag(d)
positive semidefinite.  Weak duality gives sum(d) >= -c'Wc for every cut
sign vector c, so a feasible diagonal whose trace matches the value of a
concrete cut certifies that cut as maximal.  The solver's answer is the
best cut it scored, and that cut is certified exactly when the solver
converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .graph import Cut, WeightedGraph, _cut_quadratic, _side_weights
from .spectral import (
    SpectralCertificate, _rounding_key, _shifted, _sign_cut, build_certificate,
    eigen_smallest_two,
)

__all__ = [
    "DualSolution",
    "solve_min_trace",
    "polish_cut",
]

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 5000


@dataclass(frozen=True)
class DualSolution:
    """Best feasible diagonal found, with its duality gap and the best cut.

    gap = trace - lower_bound, where lower_bound is the value of best_cut;
    it is nonnegative up to roundoff, and converged = True (a gap within
    tolerance) proves best_cut maximal.  certificate is best_cut's, as
    spectral.build_certificate computes it.
    """

    d: np.ndarray
    trace: float
    lambda_min: float
    lower_bound: float
    gap: float
    iterations: int
    converged: bool
    best_cut: Cut
    certificate: SpectralCertificate


def polish_cut(g: WeightedGraph, c: Cut) -> Cut:
    """Greedy single-vertex flips until no flip increases the cut value."""
    w = g.weights
    s = c.as_float()
    scale = max(1.0, float(w.max()) if w.size else 0.0)
    for _ in range(4 * g.n + 8):
        own, opposite = _side_weights(g, s)
        gains = own - opposite
        v = int(np.argmax(gains))
        if gains[v] <= 1e-12 * scale:
            break
        s[v] = -s[v]
    return _sign_cut(s)


def solve_min_trace(
    g: WeightedGraph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    on_iteration: Callable[[int, float, float, float], None] | None = None,
) -> DualSolution:
    """Projected subgradient descent on the exact penalty
    F(d) = sum(d) + rho * max(0, -lambda_min(W + diag(d))) with rho = 2n.

    Starts from the diagonally dominant d = w(i).  Every iterate costs one
    eigensolve of W + diag(d), is restored to feasibility by adding
    (-lambda_min)+ to all entries, and its sign-rounded bottom eigenvector is
    polished and scored as a cut to tighten the lower bound, unless the same
    sign pattern (_rounding_key) was scored before and so cannot raise it.
    A scored cut whose kernel diagonal is feasible closes the gap exactly.
    The answer is best_cut, the best cut scored, with its certificate;
    converged = True certifies it maximal, and exhausting max_iter leaves it False.
    """
    if g.n < 1:
        raise ValidationError("graph must be nonempty")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    n, w = g.n, g.weights
    rho = 2.0 * n
    degrees = w.sum(axis=1)
    step0 = max(1.0, float(degrees.mean())) / math.sqrt(n)

    d = degrees.copy()
    best_d = d.copy()
    best_trace = float(d.sum())
    best_lambda = 0.0
    lower = -math.inf
    best_cut = certificate = None  # iteration 1 scores a cut, and any value beats -inf
    converged = False
    ones = np.ones(n)
    scored: set[bytes] = set()

    def consider_cut(rounded: Cut) -> None:
        nonlocal lower, best_cut, certificate, best_d, best_trace, best_lambda
        cut = polish_cut(g, rounded)
        val = _cut_quadratic(g, cut)
        if val <= lower:
            return
        lower = val
        best_cut = cut
        # The kernel diagonal of this cut is the tightest certificate it can
        # get; adopt it whenever it is (restorably) feasible and better.
        certificate = build_certificate(g, cut)
        dc, lam = certificate.diag_shift, certificate.lambda_n
        shift = max(0.0, -lam)
        trace_c = float(dc.sum()) + n * shift
        if trace_c < best_trace:
            best_d = dc + shift
            best_trace = trace_c
            best_lambda = max(lam, 0.0)

    for t in range(1, max_iter + 1):
        lam, u, _ = eigen_smallest_two(_shifted(g, d))
        shift = max(0.0, -lam)
        trace_f = float(d.sum()) + n * shift
        if trace_f < best_trace:
            best_d = d + shift
            best_trace = trace_f
            best_lambda = max(lam, 0.0)

        key = _rounding_key(u)
        if key not in scored:
            scored.add(key)
            consider_cut(_sign_cut(u))

        gap = best_trace - lower
        if on_iteration is not None:
            on_iteration(t, best_trace, lam, gap)
        if gap <= tol * max(1.0, abs(best_trace)):
            converged = True
            break

        d = d - (step0 / math.sqrt(t)) * (ones - rho * (u * u) if lam < 0 else ones)

    return DualSolution(
        d=best_d,
        trace=best_trace,
        lambda_min=best_lambda,
        lower_bound=lower,
        gap=gap,
        iterations=t,
        converged=converged,
        best_cut=best_cut,
        certificate=certificate,
    )
