"""First-order solver for the min-trace dual SDP and the certified
extended-spectral Max-Cut solver built on it.

The dual problem: minimize sum(d) over diagonals d with W + diag(d)
positive semidefinite.  Weak duality gives sum(d) >= -c'Wc for every cut
sign vector c, so a feasible diagonal whose trace matches the value of a
concrete cut certifies that cut as maximal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .graph import Cut, WeightedGraph
from .spectral import bottom_spectrum, build_certificate, build_diagonal_from_cut

__all__ = [
    "DualSolution",
    "CutCertificate",
    "solve_min_trace",
    "extended_spectral_solve",
    "certify_cut",
    "polish_cut",
]

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 5000


@dataclass(frozen=True)
class DualSolution:
    """Best feasible diagonal found, with its duality gap.

    gap = trace - lower_bound; it is nonnegative up to roundoff, and a gap
    within tolerance proves the best cut encountered is maximal.
    """

    d: np.ndarray
    trace: float
    lambda_min: float
    lower_bound: float
    gap: float
    iterations: int
    converged: bool
    best_cut: Cut | None

    def to_json(self) -> dict:
        return {
            "d": self.d.tolist(),
            "trace": self.trace,
            "lambda_min": self.lambda_min,
            "lower_bound": self.lower_bound,
            "gap": self.gap,
            "iterations": self.iterations,
            "converged": self.converged,
            "best_cut": None if self.best_cut is None else self.best_cut.signs.tolist(),
        }


def _cut_quadratic(w: np.ndarray, signs: np.ndarray) -> float:
    """-c'Wc, i.e. 2 * (cut weight - uncut weight)."""
    s = signs.astype(np.float64)
    return float(-(s @ w @ s))


def polish_cut(g: WeightedGraph, c: Cut) -> Cut:
    """Greedy single-vertex flips until no flip increases the cut value."""
    w = g.weights
    s = c.as_float()
    scale = max(1.0, float(w.max()) if w.size else 0.0)
    for _ in range(4 * g.n + 8):
        opposite = (w * (s[:, None] * s[None, :] < 0)).sum(axis=1)
        own = w.sum(axis=1) - opposite
        gains = own - opposite
        v = int(np.argmax(gains))
        if gains[v] <= 1e-12 * scale:
            break
        s[v] = -s[v]
    return Cut(np.where(s > 0, 1, -1).astype(np.int8))


def _round_eigvec(u: np.ndarray) -> np.ndarray:
    return np.where(u > 0, 1, -1).astype(np.int8)


def solve_min_trace(
    g: WeightedGraph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
    on_iteration: Callable[[int, float, float, float], None] | None = None,
) -> DualSolution:
    """Projected subgradient descent on the exact penalty
    F(d) = sum(d) + rho * max(0, -lambda_min(W + diag(d))) with rho = 2n.

    Starts from the diagonally dominant d = w(i).  Every iterate is restored
    to feasibility by adding (-lambda_min)+ to all entries, and its
    sign-rounded bottom eigenvector is polished and scored as a cut to
    tighten the lower bound; when the kernel diagonal of a scored cut is
    itself feasible the gap closes exactly.  Exhausting max_iter returns the
    best iterate with converged = False.
    """
    if g.n < 1:
        raise ValidationError("graph must be nonempty")
    n, w = g.n, g.weights
    rho = 2.0 * n
    degrees = w.sum(axis=1)
    step0 = max(1.0, float(degrees.mean())) / math.sqrt(n)

    d = degrees.copy()
    best_d = d.copy()
    best_trace = float(d.sum())
    best_lambda = 0.0
    lower = -math.inf
    best_cut: Cut | None = None
    converged = False
    iterations = 0

    def consider_cut(signs: np.ndarray) -> None:
        nonlocal lower, best_cut, best_d, best_trace, best_lambda
        cut = polish_cut(g, Cut(signs))
        val = _cut_quadratic(w, cut.signs)
        if val <= lower:
            return
        lower = val
        best_cut = cut
        # The kernel diagonal of this cut is the tightest certificate it can
        # get; adopt it whenever it is (restorably) feasible and better.
        dc = build_diagonal_from_cut(g, cut)
        lam, _, _ = bottom_spectrum(g, dc)
        shift = max(0.0, -lam)
        trace_c = float(dc.sum()) + n * shift
        if trace_c < best_trace:
            best_d = dc + shift
            best_trace = trace_c
            best_lambda = max(lam, 0.0)

    for t in range(1, max_iter + 1):
        iterations = t
        lam, u, _ = bottom_spectrum(g, d)
        shift = max(0.0, -lam)
        trace_f = float(d.sum()) + n * shift
        if trace_f < best_trace:
            best_d = d + shift
            best_trace = trace_f
            best_lambda = max(lam, 0.0)

        consider_cut(_round_eigvec(u))

        gap = best_trace - lower
        if on_iteration is not None:
            on_iteration(t, best_trace, lam, gap)
        if gap <= tol * max(1.0, abs(best_trace)):
            converged = True
            break

        grad = np.ones(n)
        if lam < 0:
            grad -= rho * (u * u)
        d = d - (step0 / math.sqrt(t)) * grad

    gap = best_trace - lower
    return DualSolution(
        d=best_d,
        trace=best_trace,
        lambda_min=best_lambda,
        lower_bound=lower,
        gap=gap,
        iterations=iterations,
        converged=converged,
        best_cut=best_cut,
    )


@dataclass(frozen=True)
class CutCertificate:
    """Kernel-diagonal certificate for a candidate cut."""

    psd: bool
    residual: float
    m_check: bool
    trace: float
    quadratic: float

    def to_json(self) -> dict:
        return {
            "psd": self.psd,
            "residual": self.residual,
            "m_check": self.m_check,
            "trace": self.trace,
            "quadratic": self.quadratic,
        }


def certify_cut(g: WeightedGraph, c: Cut, tol: float = DEFAULT_TOL) -> CutCertificate:
    """Build the kernel diagonal for c and check it certifies maximality.

    psd = True proves c is a maximum cut; residual is the max-norm of
    (W + diag(d)) c and m_check confirms trace(d) = -c'Wc numerically.
    Both are read off spectral.build_certificate.
    """
    cert = build_certificate(g, c)
    trace = float(cert.diag_shift.sum())
    quad = _cut_quadratic(g.weights, c.signs)
    m_check = abs(trace - quad) <= tol * max(1.0, abs(trace))
    return CutCertificate(
        psd=cert.psd,
        residual=cert.residual,
        m_check=m_check,
        trace=trace,
        quadratic=quad,
    )


def extended_spectral_solve(
    g: WeightedGraph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
    jitter_retry: bool = False,
    on_iteration: Callable[[int, float, float, float], None] | None = None,
) -> tuple[Cut, DualSolution, bool]:
    """Solve the dual SDP, sign-round the bottom eigenvector of the shifted
    matrix, polish with single-vertex flips, and certify by weak duality.

    certified = True means the duality gap closed and the returned cut's
    value matches the dual trace, so the cut is provably maximal.  With
    jitter_retry, a failed certificate triggers one rerun on a multiplica-
    tively jittered copy (factor 1 + 1e-6*uniform, seeded) to break
    degenerate optima; the returned cut is always scored and certified
    against the original graph.
    """
    sol = solve_min_trace(g, tol=tol, max_iter=max_iter, seed=seed, on_iteration=on_iteration)
    _, u, _ = bottom_spectrum(g, sol.d)
    cut = polish_cut(g, Cut(_round_eigvec(u)))
    if sol.best_cut is not None:
        if _cut_quadratic(g.weights, sol.best_cut.signs) >= _cut_quadratic(
            g.weights, cut.signs
        ):
            cut = sol.best_cut

    def certified_against(c: Cut, s: DualSolution) -> bool:
        scale = max(1.0, abs(s.trace))
        ok_gap = s.gap <= tol * scale
        ok_val = abs(_cut_quadratic(g.weights, c.signs) - s.trace) <= tol * scale
        return bool(ok_gap and ok_val)

    certified = certified_against(cut, sol)

    if not certified and jitter_retry:
        rng = np.random.Generator(np.random.Philox(seed))
        factors = 1.0 + 1e-6 * rng.random((g.n, g.n))
        factors = np.triu(factors, 1)
        factors = factors + factors.T
        jittered = WeightedGraph(g.weights * factors)
        sol2 = solve_min_trace(jittered, tol=tol, max_iter=max_iter, seed=seed)
        _, u2, _ = bottom_spectrum(jittered, sol2.d)
        cut2 = polish_cut(g, Cut(_round_eigvec(u2)))
        if sol2.best_cut is not None:
            cut2b = polish_cut(g, sol2.best_cut)
            if _cut_quadratic(g.weights, cut2b.signs) > _cut_quadratic(
                g.weights, cut2.signs
            ):
                cut2 = cut2b
        cert = certify_cut(g, cut2, tol=tol)
        if cert.psd:
            shiftd = build_diagonal_from_cut(g, cut2)
            lam, _, _ = bottom_spectrum(g, shiftd)
            shift = max(0.0, -lam)
            trace = float(shiftd.sum()) + g.n * shift
            quad = _cut_quadratic(g.weights, cut2.signs)
            sol = DualSolution(
                d=shiftd + shift,
                trace=trace,
                lambda_min=max(lam, 0.0),
                lower_bound=quad,
                gap=trace - quad,
                iterations=sol.iterations + sol2.iterations,
                converged=True,
                best_cut=cut2,
            )
            cut = cut2
            certified = certified_against(cut, sol)

    return cut, sol, certified
