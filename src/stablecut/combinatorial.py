"""Polynomial-time Max-Cut solvers for sufficiently stable instances.

Two routes:

* greedy bipartite-component growing: repeatedly join the smallest
  component to a neighbor by the heaviest cross/parallel edge bundle,
  maintaining a bipartite working subgraph whose sides become the cut;
* neighborhood-overlap contraction for simple graphs of high minimum
  degree: vertices whose neighborhoods overlap strongly must share a side,
  so they are contracted before solving the (much smaller) quotient.

Both always return a cut; the accompanying flags say whether the run
satisfied the stability conditions under which the output is provably
maximal.

The greedy engine keeps, for every pair of components, their parallel and
crossing bundle weights in one symmetric slot-indexed array, and each
component's sides as sorted index arrays, so a merge costs one O(n) add
written to a row and a column, and one pass is O(n^2) vector work.
Candidate bundles whose aggregated weight lies within the rounding bound
(4 n^2 eps relative) of the best are re-scored from their blocks of W, so
the chosen merges and the reported weights are exactly those of per-bundle
block sums.  Each step also records its nonempty-bundle count, from which
the refined greedy condition is read for any gamma without a second run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .errors import ValidationError
from .graph import Cut, WeightedGraph

__all__ = [
    "MergeStep",
    "HighDegreeResult",
    "find_max_cut_greedy",
    "build_conflict_graph",
    "high_degree_solve",
]

# Quotient graphs with at most this many vertices are solved exhaustively.
EXHAUSTIVE_BITS = 20


@dataclass(frozen=True)
class MergeStep:
    """One greedy iteration: which components were joined and how.

    ``chosen_i`` and ``chosen_j`` are positions among the live components of
    the step's support component, in lowest-vertex order; the merged one
    keeps position min(i, j), so the trace determines every size.
    ``bundles`` is the larger of the chosen component's nonempty parallel and
    crossing bundle counts; the refined greedy condition at gamma holds for
    the iteration exactly when it is below gamma.  The run report does not
    write it.
    """

    chosen_i: int
    chosen_j: int
    chosen_c: int
    edge_weight_added: float
    bundles: int


def _support_components(g: WeightedGraph) -> list[list[int]]:
    """The support's connected components as sorted lists, in lowest-vertex
    order; each grows from its lowest vertex one frontier at a time."""
    adj = g.support
    seen = np.zeros(g.n, dtype=bool)
    comps = []
    for root in range(g.n):
        if seen[root]:
            continue
        comp = np.zeros(g.n, dtype=bool)
        comp[root] = True
        frontier = comp.copy()
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~comp
            comp |= frontier
        seen |= comp
        comps.append(np.flatnonzero(comp).tolist())
    return comps


def _block_weight(w: np.ndarray, a: list[int] | np.ndarray, b: list[int] | np.ndarray) -> float:
    """w summed over the block of rows a and columns b, index lists or arrays."""
    return float(w.take(a, axis=0).take(b, axis=1).sum())


def _greedy_engine(w: np.ndarray) -> tuple[np.ndarray, list[MergeStep]]:
    """Run the component-growing loop on a connected weight matrix.

    Each round joins the smallest component i (ties to the lowest vertex)
    to the component j and orientation c with the heaviest bundle: parallel
    (c = 0) weight w(L_i, L_j) + w(R_i, R_j), crossing (c = 1) weight
    w(L_i, R_j) + w(R_i, L_j).  Ties break to the lower j, then to parallel
    before crossing; i and j are positions in lowest-vertex order.

    Component a lives in slot min(a) of one symmetric bundle array holding
    bund[a, b] = (w(L_a, L_b) + w(R_a, R_b), w(L_a, R_b) + w(R_a, L_b)), so
    i's candidates are the row bund[i], and a merge writes one row and one
    column.  A merged-away slot gets size n + 1 and a zero column, and
    bund[a, a] is zero, so one argmin picks i and bund[i] holds only live
    candidates; a position is the count of live slots below.  Sides are
    sorted index arrays.  j joins as it is or flipped; flipping swaps its
    sides and its (parallel, crossing) pair, and it is flipped when c = 0.
    These aggregated sums round differently from a bundle's block sum, so
    every candidate within 4 n^2 eps (relative) of the best is re-scored with
    `_block_weight` in tie-break order: two summation orders of at most n^2
    nonnegative terms agree that closely, so the block-sum maximum is always
    in that window, and the choice and `edge_weight_added` are exactly those
    of block sums.  Nonempty-bundle counts are exact too: a sum of
    nonnegative weights is positive exactly when one of its terms is.
    """
    n = w.shape[0]
    bund = np.stack([w, np.zeros((n, n))], axis=2)
    empty = np.empty(0, dtype=np.intp)
    sides = [(v, empty) for v in np.arange(n, dtype=np.intp)[:, None]]
    size = np.ones(n, dtype=np.int64)
    live = np.ones(n, dtype=bool)
    window = 1.0 - 4.0 * n * n * np.finfo(np.float64).eps

    def orient(j: int, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sides of j that join L_i and R_i, and j's bundles so oriented."""
        lj, rj = sides[j]
        if c == 0:
            return rj, lj, bund[j, :, ::-1]
        return lj, rj, bund[j]

    def bundle(i: int, j: int, c: int) -> float:
        (li, ri), (x, y, _) = sides[i], orient(j, c)
        return _block_weight(w, li, y) + _block_weight(w, ri, x)

    steps: list[MergeStep] = []
    for _ in range(n - 1):
        i = int(np.argmin(size))
        e = bund[i]  # e[j, c], zero at i and at merged-away slots
        candidates = [divmod(k, 2) for k in np.flatnonzero(e >= e.max() * window).tolist()]
        weight, j, c = max(((bundle(i, j, c), j, c) for j, c in candidates), key=lambda t: t[0])
        steps.append(
            MergeStep(
                chosen_i=int(np.count_nonzero(live[:i])),
                chosen_j=int(np.count_nonzero(live[:j])),
                chosen_c=c,
                edge_weight_added=weight,
                bundles=int(max(np.count_nonzero(e[:, 0]), np.count_nonzero(e[:, 1]))),
            )
        )

        (li, ri), (x, y, bj) = sides[i], orient(j, c)
        merged = bund[i] + bj
        d, gone = min(i, j), max(i, j)
        merged[d] = 0.0
        bund[d], bund[:, d] = merged, merged
        bund[:, gone] = 0.0
        sides[d] = (np.sort(np.concatenate((li, x))), np.sort(np.concatenate((ri, y))))
        size[d], size[gone] = size[i] + size[j], n + 1
        live[gone] = False

    signs = -np.ones(n, dtype=np.int8)
    signs[sides[0][0]] = 1
    return signs, steps


def find_max_cut_greedy(g: WeightedGraph) -> tuple[Cut, list[MergeStep]]:
    """Greedy bipartite-component growing; returns the cut and its merge trace.

    Exact whenever the instance is gamma-stable for some gamma > sqrt(max
    degree * n); otherwise still returns its best cut.  Disconnected inputs
    are solved per support component and recombined.  The trace holds
    len(comp) - 1 steps per support component, in lowest-vertex order; a
    replay from sizes = [1] * len(comp) by `sizes[min(i, j)] +=
    sizes.pop(max(i, j))` rebuilds the live component sizes at every step.
    """
    signs = np.ones(g.n, dtype=np.int8)
    steps: list[MergeStep] = []
    for comp in _support_components(g):
        s, st = _greedy_engine(g.weights[np.ix_(comp, comp)])
        signs[comp] = s
        steps.extend(st)
    return Cut(signs), steps


def build_conflict_graph(g: WeightedGraph, gamma: float) -> WeightedGraph:
    """Same-side witness graph for simple inputs.

    Vertices are adjacent when their neighborhoods overlap in strictly more
    than min(d_i, d_j)/(gamma+1) vertices; under gamma-local stability each
    connected component must then lie on one side of the maximal cut.
    """
    if not g.is_simple():
        raise ValidationError("conflict graph requires a simple (unit-weight) graph")
    adj = g.support
    common = adj.astype(np.int64) @ adj.astype(np.int64)
    deg = adj.sum(axis=1).astype(np.float64)
    thresh = np.minimum(deg[:, None], deg[None, :]) / (gamma + 1.0)
    h = (common > thresh).astype(np.float64)
    np.fill_diagonal(h, 0.0)
    return WeightedGraph(h)


@dataclass(frozen=True)
class HighDegreeResult:
    """Outcome of the contraction solver."""

    cut: Cut
    gamma: float
    component_count: int
    components: tuple[tuple[int, ...], ...]
    used_exhaustive: bool
    heuristic: bool


def high_degree_solve(g: WeightedGraph) -> HighDegreeResult:
    """Contract overlap components, solve the quotient, lift the cut back.

    gamma is 2n/delta.  Exact on simple graphs whose stability reaches
    2n/delta; quotients small enough are solved exhaustively, larger ones by
    the greedy solver.  A component count >= gamma cannot happen under that
    hypothesis, so it only flags the run as heuristic.
    """
    if not g.is_simple():
        raise ValidationError("high-degree solver requires a simple (unit-weight) graph")
    n = g.n
    delta = int(g.support.sum(axis=1).min()) if n else 0
    gamma = 2.0 * n / delta if delta > 0 else 2.0 * n
    h = build_conflict_graph(g, gamma)
    comps = _support_components(h)
    c = len(comps)

    membership = np.empty(n, dtype=np.int64)
    for a, comp in enumerate(comps):
        membership[comp] = a
    p = np.zeros((n, c))
    p[np.arange(n), membership] = 1.0
    q = p.T @ g.weights @ p
    np.fill_diagonal(q, 0.0)
    quotient = WeightedGraph(q)

    used_exhaustive = c <= EXHAUSTIVE_BITS
    if used_exhaustive:
        qcut, _, _ = oracle.brute_force_max_cut(quotient, limit=EXHAUSTIVE_BITS)
    else:
        qcut, _ = find_max_cut_greedy(quotient)
    signs = qcut.signs[membership]
    return HighDegreeResult(
        cut=Cut(signs),
        gamma=float(gamma),
        component_count=c,
        components=tuple(tuple(comp) for comp in comps),
        used_exhaustive=used_exhaustive,
        heuristic=c >= gamma,
    )
