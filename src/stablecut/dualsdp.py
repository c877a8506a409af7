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
from .graph import Cut, WeightedGraph, _side_weights
from .spectral import (
    SpectralCertificate, _rounding_key, _shifted, _sign_cut, build_certificate,
    build_diagonal_from_cut, eigen_smallest_two, spectral_partition,
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

    gap = trace - lower_bound, where lower_bound = -c'Wc for best_cut's sign
    vector c, summed off the kernel diagonal its certificate holds
    (certificate.diag_shift); it is nonnegative up to roundoff, and
    converged = True (a gap within tolerance) proves best_cut maximal.
    certificate is best_cut's, as spectral.build_certificate computes it.
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

    A fast path first polishes W's spectral cut (its eigensolve is memoized
    on the graph) and certifies it.  If that certificate's restored trace is
    below sum(w(i)) and within tol of the cut, the run ends converged at
    iteration 1 with no eigensolve of W + diag(d), and its one on_iteration
    row carries the certificate's lambda_n; otherwise the cut is dropped
    unscored.  The loop starts from the diagonally dominant d = w(i).  Each
    iterate, like each scored cut's kernel diagonal, is restored to
    feasibility by adding (-lambda_min)+ to all entries and kept if its trace
    is the lowest yet.  An iterate's sign-rounded bottom eigenvector is
    polished and scored as a cut to tighten the lower bound, unless the same
    sign pattern (_rounding_key) was scored before and so cannot raise it.
    An iterate costs one eigensolve of W + diag(d), except after a feasible
    one (lambda_min >= 0): its step is d - s*1, which leaves the eigenvectors
    alone and lowers every eigenvalue by s, so the next iterate keeps u,
    takes lambda_min - s, and scores nothing.
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

    ones = np.ones(n)
    scored: set[bytes] = set()

    def offer(diag: np.ndarray, total: float, lam: float) -> None:
        """Restore diag (sum total, lambda_min lam) by (-lam)+; keep the lowest trace."""
        nonlocal best_d, best_trace, best_lambda
        shift = max(0.0, -lam)
        trace = total + n * shift
        if trace < best_trace:
            best_d = diag + shift
            best_trace = trace
            best_lambda = max(lam, 0.0)

    def consider_cut(rounded: Cut) -> None:
        nonlocal lower, best_cut, certificate
        cut = polish_cut(g, rounded)
        dc = build_diagonal_from_cut(g, cut)
        val = float(dc.sum())
        if val <= lower:
            return
        lower = val
        best_cut = cut
        # The kernel diagonal of this cut is the tightest certificate it can
        # get; adopt it whenever it is (restorably) feasible and better.
        certificate = build_certificate(g, cut, dc)
        offer(dc, val, certificate.lambda_n)

    def solution(t: int, gap: float, converged: bool) -> DualSolution:
        return DualSolution(
            d=best_d, trace=best_trace, lambda_min=best_lambda, lower_bound=lower, gap=gap,
            iterations=t, converged=converged, best_cut=best_cut, certificate=certificate,
        )

    # The fast path scores W's spectral cut as iteration 1 scores a cut.  If
    # its certificate closes the gap, that is the run; if not, it is dropped.
    best_trace, lower = float(degrees.sum()), -math.inf
    consider_cut(spectral_partition(g))
    gap = best_trace - lower
    if best_trace < degrees.sum() and gap <= tol * max(1.0, abs(best_trace)):
        if on_iteration is not None:
            on_iteration(1, best_trace, certificate.lambda_n, gap)
        return solution(1, gap, True)

    d = degrees.copy()
    best_d = d.copy()
    best_trace = float(d.sum())
    best_lambda = 0.0
    lower = -math.inf
    best_cut = certificate = None  # iteration 1 scores a cut, and any value beats -inf
    converged = False
    fresh = True  # iteration 1 solves; after that, only a step with lam < 0 does
    for t in range(1, max_iter + 1):
        if fresh:
            lam, u, _ = eigen_smallest_two(_shifted(g, d))
        offer(d, float(d.sum()), lam)

        if fresh:
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

        step = step0 / math.sqrt(t)
        fresh = lam < 0
        if fresh:
            d = d - step * (ones - rho * (u * u))
        else:
            d = d - step * ones
            lam -= step

    return solution(t, gap, converged)
