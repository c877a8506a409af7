"""Seeded instance generators.

All randomness flows through numpy's Philox4x64-10 bit generator seeded via
SeedSequence(seed), and draws happen in a pinned order (upper-triangle
weights row-major, then the planted side), so every generator is a pure
function of (parameters, seed).  Generators return plain values, the graph
and for gen_planted its planted cut; cli writes the instance sidecars.  A
generator whose graph would exceed graph.MAX_FILE_VERTICES raises
SizeLimitError before allocating it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .errors import ValidationError
from .graph import Cut, WeightedGraph, _check_file_vertices

__all__ = [
    "WeightDistribution",
    "gen_planted",
    "gen_gnp_simple",
    "stabilize_by_scaling",
    "cross_product_amplify",
]


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class WeightDistribution:
    """Bounded positive weight law: constant(c), uniform(a, b), or
    two_point(p, w_low, w_high) where p is the probability of w_high."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        k, p = self.kind, self.params
        if k == "constant":
            if len(p) != 1 or p[0] <= 0:
                raise ValidationError("constant distribution needs one positive value")
        elif k == "uniform":
            if len(p) != 2 or not (0 < p[0] <= p[1]):
                raise ValidationError("uniform distribution needs 0 < a <= b")
        elif k == "two_point":
            if len(p) != 3 or not (0 <= p[0] <= 1) or p[1] <= 0 or p[2] <= 0:
                raise ValidationError(
                    "two_point distribution needs p in [0,1] and positive weights"
                )
        else:
            raise ValidationError(f"unknown distribution kind {k!r}")

    @classmethod
    def parse(cls, text: str) -> "WeightDistribution":
        """Parse CLI syntax like 'uniform:0.5:1.5' or 'constant:1'."""
        parts = text.split(":")
        try:
            return cls(parts[0], tuple(float(x) for x in parts[1:]))
        except ValueError as exc:
            raise ValidationError(f"bad distribution spec {text!r}") from exc

    def spec(self) -> str:
        return ":".join([self.kind] + [repr(x) for x in self.params])

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "constant":
            return np.full(size, self.params[0])
        if self.kind == "uniform":
            a, b = self.params
            return a + (b - a) * rng.random(size)
        p, lo, hi = self.params
        return np.where(rng.random(size) < p, hi, lo)


def gen_planted(
    n: int, dist: WeightDistribution, gamma: float, seed: int
) -> tuple[WeightedGraph, Cut]:
    """Draw a complete symmetric weight matrix entrywise i.i.d. from dist,
    pick a uniformly random side of size n/2, and multiply the weights
    crossing it by gamma; return the graph and that planted cut."""
    if n < 2 or n % 2:
        raise ValidationError(f"planted model needs an even n >= 2, got {n}")
    if gamma < 1:
        raise ValidationError(f"gamma must be >= 1, got {gamma}")
    _check_file_vertices(n)
    rng = _rng(seed)
    iu, ju = np.triu_indices(n, 1)
    w = np.zeros((n, n))
    w[iu, ju] = dist.sample(rng, iu.size)
    side = rng.permutation(n)[: n // 2]
    signs = np.full(n, -1, dtype=np.int8)
    signs[side] = 1
    crossing = signs[iu] != signs[ju]
    w[iu, ju] = np.where(crossing, gamma * w[iu, ju], w[iu, ju])
    return WeightedGraph(w + w.T), Cut(signs)


def gen_gnp_simple(n: int, p: float, seed: int) -> WeightedGraph:
    """Unit-weight graph with each edge present independently with probability p."""
    if not 0 < p < 1:
        raise ValidationError(f"edge probability must lie in (0, 1), got {p}")
    if n < 1:
        raise ValidationError("n must be positive")
    _check_file_vertices(n)
    rng = _rng(seed)
    iu, ju = np.triu_indices(n, 1)
    w = np.zeros((n, n))
    w[iu, ju] = (rng.random(iu.size) < p).astype(np.float64)
    w = w + w.T
    return WeightedGraph(w)


def stabilize_by_scaling(
    g: WeightedGraph,
    gamma_target: float,
    seed: int = 0,
    limit: int = oracle.DEFAULT_ENUM_LIMIT,
) -> tuple[WeightedGraph, oracle.StabilityReport]:
    """Rescale the maximal-cut edges so the stability factor lands on
    gamma_target; return the rescaled graph and its exact stability profile.

    Computes gamma' exactly, multiplies the cut edges by gamma_target/gamma'
    (a no-op when gamma' is infinite), and verifies the result.  A non-unique
    maximum is first broken by a seeded multiplicative jitter of 1e-6.
    """
    if gamma_target < 1:
        raise ValidationError(f"gamma_target must be >= 1, got {gamma_target}")
    work = g
    rep = oracle.stability_report(work, limit)
    attempts = 0
    rng = _rng(seed)
    while not rep.unique:
        if attempts >= 3:
            raise ValidationError("could not break max-cut ties by jittering")
        factors = 1.0 + 1e-6 * rng.random((g.n, g.n))
        factors = np.triu(factors, 1)
        factors = factors + factors.T
        work = WeightedGraph(work.weights * factors)
        rep = oracle.stability_report(work, limit)
        attempts += 1
    if math.isinf(rep.gamma_star):
        return work, rep
    factor = gamma_target / rep.gamma_star
    s = rep.max_cut.signs
    crossing = (s[:, None] != s[None, :]) & work.support
    scaled = WeightedGraph(np.where(crossing, factor * work.weights, work.weights))
    check = oracle.stability_report(scaled, limit)
    if check.gamma_star < gamma_target * (1 - 1e-6):
        raise AssertionError(
            f"scaling failed to reach gamma_target: {check.gamma_star} < {gamma_target}"
        )
    return scaled, check


def cross_product_amplify(g: WeightedGraph, tau: float = 1.0) -> WeightedGraph:
    """Two copies of the graph joined by a matching of weight tau * w(i).

    The doubled graph keeps the original stability factor while its local
    stability rises to at least 2*tau.
    """
    if tau < 1:
        raise ValidationError(f"tau must be >= 1, got {tau}")
    n = g.n
    _check_file_vertices(2 * n)
    w = g.weights
    matching = tau * np.diag(w.sum(axis=1))
    top = np.hstack([w, matching])
    bottom = np.hstack([matching, w])
    return WeightedGraph(np.vstack([top, bottom]))
