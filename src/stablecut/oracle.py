"""Exponential-time ground truth on small instances.

Exact Max-Cut by enumeration, the stability factor gamma*, local stability,
edge distinctness alpha*, k-distinctness k* and, in its own sweep, the
Cheeger constant.  Everything here is the oracle the polynomial-time solvers
are tested against.

Partitions are sign vectors t with vertex 0 pinned to +1, numbered by the
bitmask over vertices 1..n-1 (bit v-1 set means t_v = -1).  One kernel
evaluates forms c + t'Mt over all of them: with L, H the low and high
halves of the free vertices and P = {0} + L, t'Mt = A[t_P] + B[t_H] +
2 t_H' M_HP t_P, one BLAS GEMM per block of high halves, in mask order.

Ties: cut values within TIE_REL_TOL * max(1, |best|) of the maximum tie,
counted on the kernel's own values, and the lowest mask wins.  Exact
zeros: den > 0 comes from an integer support-count form, and the gamma*/k*
minima are re-evaluated with math.fsum over every mask whose rounding
interval reaches the minimum, so the lowest exact minimizer wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SizeLimitError, ValidationError
from .graph import Cut, WeightedGraph, _side_weights

__all__ = [
    "DEFAULT_ENUM_LIMIT", "MAX_ENUM_LIMIT", "TIE_REL_TOL", "StabilityReport", "cheeger_constant",
    "brute_force_max_cut", "stability_report", "local_stability_gamma",
]

DEFAULT_ENUM_LIMIT = 22
MAX_ENUM_LIMIT = 32
TIE_REL_TOL = 1e-9

_BLOCK_BITS = 13  # 2^13 partitions per block keep the block arrays in cache


@dataclass(frozen=True)
class StabilityReport:
    """Exact stability profile of an instance.

    ``gamma_star`` is the infimum over alternative cuts T of the ratio
    w(cut edges only S has) / w(cut edges only T has); the instance is
    gamma-stable exactly for gamma < gamma_star.  ``worst_cut`` is the
    minimizing T (None when gamma_star is infinite).  A non-unique maximum
    reports gamma_star = 1 and alpha_star = k_star = 0, with the tying
    partition as witness.  ``ties`` counts the partitions tying at the maximum.
    """

    max_cut: Cut
    max_value: float
    unique: bool
    gamma_star: float
    gamma_local: float
    alpha_star: float
    k_star: float
    worst_cut: Cut | None
    ties: int


def _check_size(g: WeightedGraph, limit: int) -> None:
    if not 1 <= limit <= MAX_ENUM_LIMIT:
        raise ValidationError(f"enumeration limit must be in 1..{MAX_ENUM_LIMIT}, got {limit}")
    if g.n < 1:
        raise ValidationError("graph must have at least one vertex")
    if g.n > limit:
        raise SizeLimitError(
            f"n={g.n} exceeds the enumeration limit {limit}; "
            "raise the limit explicitly to force it"
        )


def _cut_for_mask(n: int, mask: int) -> Cut:
    return Cut(np.concatenate([[1], 1 - 2 * ((mask >> np.arange(n - 1)) & 1)]))


def _sign_table(bits: int) -> np.ndarray:
    """Row k holds the signs of `bits` vertices read off the bits of k."""
    return 1.0 - 2.0 * ((np.arange(1 << bits)[:, None] >> np.arange(bits)) & 1)


def _linear(c: float, l: np.ndarray) -> tuple[float, np.ndarray]:
    """The form c + l.t as c' + t'Mt, using t_0 = +1."""
    m = np.zeros((len(l), len(l)))
    m[0, 1:] = m[1:, 0] = l[1:] / 2.0
    return c + l[0], m


class _Kernel:
    """Values of the forms c + t'Mt (M symmetric, zero diagonal) over all
    partitions: block i covers the masks (h << lo_bits) + lo for a run of high
    halves h and every low half lo, in ascending mask order."""

    def __init__(self, n: int, forms: list[tuple[float, np.ndarray]]):
        lo_bits = n // 2  # half of the n - 1 free vertices, rounded up
        p, h = slice(0, lo_bits + 1), slice(lo_bits + 1, n)
        tp = np.hstack([np.ones((1 << lo_bits, 1)), _sign_table(lo_bits)])
        th = _sign_table(n - 1 - lo_bits)
        # value[t_H, t_P] = [t_H, B, 1] @ [2 M_HP t_P; 1; c + A], one GEMM.
        self.x, self.y = [], []
        for c, m in forms:
            high = ((th @ m[h, h]) * th).sum(axis=1, keepdims=True)
            low = c + ((tp @ m[p, p]) * tp).sum(axis=1)
            self.x.append(np.hstack([th, high, np.ones_like(high)]))
            self.y.append(np.vstack([2.0 * m[h, p] @ tp.T, np.ones_like(low), low]))
        self.lo_bits, self.rows = lo_bits, max(1, (1 << _BLOCK_BITS) >> lo_bits)
        self.blocks = -(-len(th) // self.rows)

    def block(self, i: int) -> tuple[int, list[np.ndarray]]:
        """(first mask, one value vector per form) for block i."""
        rows = slice(i * self.rows, (i + 1) * self.rows)
        return rows.start << self.lo_bits, [(x[rows] @ y).ravel() for x, y in zip(self.x, self.y)]

    def __iter__(self):
        return (self.block(i) for i in range(self.blocks))


def _scan_max(g: WeightedGraph) -> tuple:
    """First sweep: (lowest tying mask, tie count, second tying mask or None).
    Each block keeps its maximum and the size and first two masks of its own
    tie window; a block inside the global window but below the global
    maximum is evaluated again, so memory stays bounded."""
    def tie_floor(best: float) -> float:
        return best - TIE_REL_TOL * max(1.0, abs(best))

    kernel = _Kernel(g.n, [(g.weights.sum() / 4, -g.weights / 4)])
    blocks = []
    for start, (vals,) in kernel:
        top = float(vals.max())
        hits = np.flatnonzero(vals >= tie_floor(top))
        blocks.append((top, hits.size, start + hits[:2]))

    best = max(top for top, _, _ in blocks)
    floor = tie_floor(best)
    ties, lowest = 0, []
    for i, (top, count, masks) in enumerate(blocks):
        if floor <= top < best:
            start, (vals,) = kernel.block(i)
            hits = np.flatnonzero(vals >= floor)
            count, masks = hits.size, start + hits[:2]
        if top >= floor:
            ties += count
            lowest += masks.tolist()
    return lowest[0], ties, lowest[1] if ties > 1 else None


def cheeger_constant(g: WeightedGraph, limit: int = DEFAULT_ENUM_LIMIT) -> float:
    """Min over nonempty U with |U| <= n/2 of |support edges leaving U| / |U|."""
    _check_size(g, limit)
    n, a = g.n, g.support.astype(np.float64)
    if n < 2:
        raise ValidationError("the Cheeger constant needs at least two vertices")
    forms = [(a.sum() / 4, -a / 4), _linear(n / 2, np.full(n, -0.5))]  # boundary, |U|
    h = math.inf
    for _, vals in _Kernel(n, forms):
        # U is the -1 side; the smaller of U and its complement counts.
        with np.errstate(divide="ignore", invalid="ignore"):  # fmin skips U = {}: 0/0
            h = min(h, float(np.fmin.reduce(vals[0] / np.minimum(vals[1], n - vals[1]))))
    return h


def _cut_weight(g: WeightedGraph, c: Cut) -> float:
    iu, ju = np.nonzero(np.triu(g.support))
    return math.fsum(g.weights[iu, ju][c.signs[iu] != c.signs[ju]])


def _exact_terms(g: WeightedGraph, s: np.ndarray) -> Callable[[int], list[float]]:
    """terms(mask) = [num, den, num - den, num + den] of the partition T with
    that mask against S = s, each summed exactly by math.fsum (correctly
    rounded, so the order of the terms does not matter)."""
    iu, ju = np.nonzero(np.triu(g.support))
    wv, s_e = g.weights[iu, ju], s[iu] != s[ju]

    def terms(mask: int) -> list[float]:
        sides = mask << 1  # bit v is T's side of vertex v, 0 for vertex 0
        t_e = (((sides >> iu) ^ (sides >> ju)) & 1).astype(bool)
        pos, neg = wv[s_e & ~t_e].tolist(), wv[t_e & ~s_e].tolist()
        return [math.fsum(x) for x in (pos, neg, pos + [-x for x in neg], pos + neg)]

    return terms


def _distinctness(g: WeightedGraph, s: np.ndarray) -> tuple:
    """Second sweep against the unique maximum s: (gamma*, lowest argmin mask
    or None, alpha*, k*).  Uniqueness keeps every T far more than the rounding
    error err below S, so num > den; alpha = (gamma - 1) / (gamma + 1) rises
    with gamma, so gamma*'s minimizer gives alpha* (1 if no T has den > 0)."""
    n, w = g.n, g.weights
    s_cuts = s[:, None] != s[None, :]
    w_in, w_out = w * s_cuts, w * ~s_cuts
    a_out = (w_out > 0).astype(np.float64)
    forms = [(w_in.sum() / 4, w_in / 4), (w_out.sum() / 4, -w_out / 4)]  # num, den
    forms += [(a_out.sum() / 4, -a_out / 4), _linear(n / 2, -s / 2.0)]  # den's edges, distance
    # A form sums at most 2n^2 terms w_ij / 4, so any summation order errs
    # by less than err; integer weights sum exactly.
    integral = np.array_equal(w, np.round(w)) and w.sum() < 2.0**50
    err = 0.0 if integral else n * n * np.finfo(np.float64).eps * w.sum()
    terms = _exact_terms(g, s)
    best = {"gamma": (math.inf, None), "k": (math.inf, None)}

    def fold(key: str, start: int, valid, p, q, ep: float, eq: float, exact) -> None:
        """Fold a block into best[key]: p / q brackets each ratio to within ep
        and eq, and exact(terms, q) gives a candidate's exact ratio."""
        with np.errstate(divide="ignore", invalid="ignore"):
            lb = np.where(valid, (p - ep) / (q + eq), np.inf)
        i = int(np.argmin(lb))
        if lb[i] < best[key][0]:
            ub = (p[i] + ep) / (q[i] - eq) if q[i] > eq else math.inf
            cand = np.flatnonzero((lb <= min(ub, best[key][0])) & (lb < np.inf))
            if err:
                lb[cand] = [exact(terms(start + c), q[c]) for c in cand]
            k = cand[int(np.argmin(lb[cand]))]
            if lb[k] < best[key][0]:
                best[key] = (float(lb[k]), start + int(k))

    for start, (num, den, den_edges, dist) in _Kernel(n, forms):
        dist = np.minimum(dist, n - dist)
        fold("gamma", start, den_edges > 0, num, den, err, err, lambda t, q: t[0] / t[1])
        fold("k", start, dist > 0, num - den, dist, 2 * err, 0.0, lambda t, q: t[2] / q)
    (gamma_star, mask), (k_star, _) = best.values()
    t = [1.0] * 4 if mask is None else terms(mask)
    return gamma_star, mask, t[2] / t[3], k_star


def brute_force_max_cut(
    g: WeightedGraph, limit: int = DEFAULT_ENUM_LIMIT
) -> tuple[Cut, float, bool]:
    """Enumerate every partition; return (max cut, value, uniqueness flag).

    Two values tie when they agree within TIE_REL_TOL relative tolerance;
    the lowest enumeration mask wins ties, so the result is deterministic.
    """
    _check_size(g, limit)
    mask, ties, _ = _scan_max(g)
    cut = _cut_for_mask(g.n, mask)
    return cut, _cut_weight(g, cut), ties == 1


def local_stability_gamma(g: WeightedGraph, c: Cut) -> float:
    """Min over vertices of (weight to the opposite side) / (weight to own side).

    The graph is gamma-locally stable w.r.t. c exactly for gamma below the
    returned value.  A vertex with no same-side weight contributes +inf.
    """
    own, opposite = _side_weights(g, c.as_float())
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(own > 0, opposite / np.where(own > 0, own, 1.0), np.inf)
    return float(ratios.min()) if g.n else math.inf


def stability_report(g: WeightedGraph, limit: int = DEFAULT_ENUM_LIMIT) -> StabilityReport:
    """Full exact stability profile in at most two enumeration sweeps.

    For every alternative partition T the second sweep evaluates
      num = w(cut edges of S that T does not cut),
      den = w(cut edges of T that S does not cut),
    from which gamma* = min num/den (den > 0), alpha* = min (num-den)/(num+den),
    and k* = min (num-den)/hamming(S, T).  A T with num = den = 0 cuts the
    same edges as S and ties with it; a non-unique maximum skips the sweep.
    """
    _check_size(g, limit)
    n = g.n
    best_mask, ties, second = _scan_max(g)
    max_cut = _cut_for_mask(n, best_mask)
    if ties == 1:
        gamma_star, worst, alpha_star, k_star = _distinctness(g, max_cut.signs)
    else:  # the second tying partition is the witness
        gamma_star, worst, alpha_star, k_star = 1.0, second, 0.0, 0.0
    return StabilityReport(
        max_cut=max_cut, max_value=_cut_weight(g, max_cut), unique=ties == 1,
        gamma_star=gamma_star, gamma_local=local_stability_gamma(g, max_cut),
        alpha_star=alpha_star, k_star=k_star, ties=ties,
        worst_cut=None if worst is None else _cut_for_mask(n, worst),
    )
