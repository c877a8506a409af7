import hashlib
import itertools
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablecut import (
    Cut,
    ValidationError,
    WeightedGraph,
    WeightDistribution,
    brute_force_max_cut,
    build_conflict_graph,
    cut_value,
    find_max_cut_greedy,
    gen_planted,
    high_degree_solve,
    loads_graph,
    stabilize_by_scaling,
)
from stablecut.combinatorial import _block_weight, _support_components

from conftest import complete_bipartite, random_weighted

# --- reference engine: one block sum per component pair and bundle ------
#
# The original engine, kept verbatim as the ground truth for the
# bundle-array engine; only the step record is a plain tuple.

MergeStep = namedtuple(
    "MergeStep", "iteration component_sizes chosen_i chosen_j chosen_c edge_weight_added"
)


def _greedy_engine(
    w: np.ndarray, gamma: float | None, iteration0: int
) -> tuple[np.ndarray, list[MergeStep], list[bool]]:
    n = w.shape[0]
    comps: list[tuple[list[int], list[int]]] = [([v], []) for v in range(n)]
    steps: list[MergeStep] = []
    flags: list[bool] = []
    it = iteration0
    while len(comps) > 1:
        comps.sort(key=lambda lr: min(lr[0] + lr[1]))
        sizes = [len(l) + len(r) for l, r in comps]
        i_star = min(range(len(comps)), key=lambda i: (sizes[i], min(comps[i][0] + comps[i][1])))
        li, ri = comps[i_star]

        best = (-1.0, -1, -1)
        nonempty = [0, 0]
        for j, (lj, rj) in enumerate(comps):
            if j == i_star:
                continue
            e0 = _block_weight(w, li, lj) + _block_weight(w, ri, rj)
            e1 = _block_weight(w, li, rj) + _block_weight(w, ri, lj)
            nonempty[0] += e0 > 0
            nonempty[1] += e1 > 0
            for c, e in ((0, e0), (1, e1)):
                if e > best[0]:
                    best = (e, j, c)
        weight, j_star, c_star = best
        if j_star < 0:
            raise ValidationError("greedy engine requires a connected graph")
        if gamma is not None:
            flags.append(max(nonempty) < gamma)

        lj, rj = comps[j_star]
        if c_star == 0:
            merged = (sorted(li + rj), sorted(ri + lj))
        else:
            merged = (sorted(li + lj), sorted(ri + rj))
        steps.append(
            MergeStep(
                iteration=it,
                component_sizes=tuple(sizes),
                chosen_i=i_star,
                chosen_j=j_star,
                chosen_c=c_star,
                edge_weight_added=weight,
            )
        )
        it += 1
        comps = [c for k, c in enumerate(comps) if k not in (i_star, j_star)]
        comps.append(merged)

    left, _ = comps[0]
    signs = -np.ones(n, dtype=np.int8)
    signs[left] = 1
    return signs, steps, flags


def _run_greedy(
    g: WeightedGraph, gamma: float | None
) -> tuple[Cut, list[MergeStep], list[bool]]:
    signs = np.ones(g.n, dtype=np.int8)
    steps: list[MergeStep] = []
    flags: list[bool] = []
    it = 0
    for comp in _support_components(g):
        sub = g.weights[np.ix_(comp, comp)]
        s, st, fl = _greedy_engine(sub, gamma, it)
        it += len(st)
        signs[comp] = s
        steps.extend(st)
        flags.extend(fl)
    return Cut(signs), steps, flags


def replayed_sizes(g: WeightedGraph, steps) -> list[tuple[int, ...]]:
    """The live component sizes before each step, rebuilt from the positions:
    each support component starts as singletons, and a step folds position
    max(i, j) into min(i, j)."""
    out = []
    replay = iter(steps)
    for comp in _support_components(g):
        sizes = [1] * len(comp)
        for s in itertools.islice(replay, len(comp) - 1):
            out.append(tuple(sizes))
            sizes[min(s.chosen_i, s.chosen_j)] += sizes.pop(max(s.chosen_i, s.chosen_j))
    return out


def assert_matches_reference(g: WeightedGraph, gammas) -> None:
    cut, steps = find_max_cut_greedy(g)
    ref_cut, ref_steps, _ = _run_greedy(g, None)
    assert cut == ref_cut
    # every field, edge_weight_added bit for bit; the iteration is the
    # step's index and the sizes are replayed from the positions
    sizes = replayed_sizes(g, steps)
    assert [
        MergeStep(k, sizes[k], s.chosen_i, s.chosen_j, s.chosen_c, s.edge_weight_added)
        for k, s in enumerate(steps)
    ] == ref_steps
    for gamma in gammas:
        _, _, ref_flags = _run_greedy(g, gamma)
        assert [s.bundles < gamma for s in steps] == ref_flags


@st.composite
def greedy_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    weight = draw(
        st.sampled_from(
            [
                st.floats(min_value=0.5, max_value=1.5),  # uniform
                st.integers(min_value=1, max_value=3).map(float),  # small integers
                st.just(1.0),  # unit: every bundle of one size ties
                st.integers(min_value=1, max_value=3).map(lambda k: k / 10),  # float ties
                st.floats(min_value=-8, max_value=8).map(lambda e: 10.0**e),  # wide range
            ]
        )
    )
    density = draw(st.sampled_from([0.3, 0.6, 1.0]))  # sparse draws are often disconnected
    w = np.zeros((n, n))
    for u, v in itertools.combinations(range(n), 2):
        if draw(st.floats(min_value=0.0, max_value=1.0)) < density:
            w[u, v] = w[v, u] = draw(weight)
    return WeightedGraph(w)


@settings(max_examples=120, deadline=None)
@given(g=greedy_graphs())
@example(g=WeightedGraph(np.zeros((1, 1))))
@example(g=WeightedGraph(np.array([[0.0, 0.7], [0.7, 0.0]])))
@example(g=WeightedGraph(np.zeros((2, 2))))
def test_engine_matches_reference(g):
    # integer gammas pin every step's bundle count exactly
    assert_matches_reference(g, [0.5, *range(1, g.n + 1)])


@pytest.mark.parametrize(
    "n, dist, gamma",
    [
        (40, "uniform:0.5:1.5", 2.0),
        (60, "constant:0.7", 1.5),
        (60, "two_point:0.3:0.1:0.3", 4.0),
        (100, "uniform:0.5:1.5", 4.0),
        (40, "constant:1", 3.0),
        # integer weights near 2^38: the rounding window admits non-ties
        (40, "two_point:0.5:274877906944:274877906945", 2.0),
    ],
)
def test_engine_matches_reference_on_planted(n, dist, gamma):
    g, _ = gen_planted(n, WeightDistribution.parse(dist), gamma, seed=n)
    assert_matches_reference(g, [gamma, 2.0 * gamma])


@pytest.mark.parametrize(
    "dist, gamma, digest",
    [
        ("uniform:0.5:1.5", 2.0, "a29716b9e5415b01f09fea9bcac05d50bd21b549b431ad087eea578951be3246"),
        ("constant:0.7", 1.5, "cbeb677f947d4e5577a307b77ad2eae4a2647c01611ad640499509ac6916795c"),
    ],
)
def test_engine_pinned_at_n200(dist, gamma, digest):
    # the reference engine is too slow past n = 100, so digests of the trace
    # and the cut pin the engine at the size solve-stable-large benchmarks
    g, _ = gen_planted(200, WeightDistribution.parse(dist), gamma, seed=200)
    cut, steps = find_max_cut_greedy(g)
    trace = [(s.chosen_i, s.chosen_j, s.chosen_c, s.edge_weight_added.hex(), s.bundles) for s in steps]
    assert hashlib.sha256(repr(trace).encode() + cut.signs.tobytes()).hexdigest() == digest


# --- reference components: a per-vertex depth-first search ---
#
# The original _support_components, kept verbatim as the ground truth for
# the frontier-at-a-time search.


def _reference_support_components(g: WeightedGraph) -> list[list[int]]:
    n = g.n
    adj = g.support
    seen = np.zeros(n, dtype=bool)
    comps = []
    for root in range(n):
        if seen[root]:
            continue
        stack = [root]
        seen[root] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            fresh = np.flatnonzero(adj[v] & ~seen)
            seen[fresh] = True
            stack.extend(fresh.tolist())
        comps.append(sorted(comp))
    return comps


@st.composite
def clustered_graphs(draw):
    """Several random components on shuffled vertices, some of them isolated."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5))
    order = draw(st.permutations(range(sum(sizes))))
    w = np.zeros((len(order), len(order)))
    start = 0
    for size in sizes:
        block = order[start:start + size]
        start += size
        for u, v in itertools.combinations(block, 2):
            if draw(st.booleans()):
                w[u, v] = w[v, u] = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return WeightedGraph(w)


@settings(max_examples=150, deadline=None)
@given(g=st.one_of(clustered_graphs(), greedy_graphs()))
@example(g=WeightedGraph(np.zeros((1, 1))))
@example(g=WeightedGraph(np.zeros((2, 2))))
@example(g=WeightedGraph(np.array([[0.0, 1.0], [1.0, 0.0]])))
@example(g=WeightedGraph(np.zeros((7, 7))))
@example(g=loads_graph("6 3\n0 5 1\n1 4 1\n2 4 1\n"))
def test_support_components_match_reference(g):
    comps = _support_components(g)
    assert comps == _reference_support_components(g)
    assert all(type(v) is int for comp in comps for v in comp)


def test_greedy_c4(c4):
    cut, _ = find_max_cut_greedy(c4)
    assert cut == Cut(np.array([1, -1, 1, -1]))


def test_greedy_k2(k2):
    cut, trace = find_max_cut_greedy(k2)
    assert cut == Cut(np.array([1, -1]))
    assert len(trace) == 1
    assert trace[0].edge_weight_added == 1.0


def test_greedy_triangle_matches_brute_force(triangle):
    cut, trace = find_max_cut_greedy(triangle)
    bf, _, _ = brute_force_max_cut(triangle)
    assert cut == bf
    # deterministic run: two merges, heaviest bundle each time
    assert [s.edge_weight_added for s in trace] == [2.0, 3.0]
    assert replayed_sizes(triangle, trace) == [(1, 1, 1), (2, 1)]


def test_greedy_disconnected_recombines():
    g = loads_graph("4 2\n0 1 1\n2 3 2\n")
    cut, trace = find_max_cut_greedy(g)
    assert cut_value(g, cut) == 3.0
    assert len(trace) == 2


def test_applicability_examples(c4, k2):
    def flags(g, gamma):
        return [s.bundles < gamma for s in find_max_cut_greedy(g)[1]]

    assert all(flags(c4, 5.0))
    assert all(flags(k2, 1.5))
    star = loads_graph("5 4\n0 1 1\n0 2 1\n0 3 1\n0 4 1\n")
    assert flags(star, 3.0)[0] is False


def test_conflict_graph_k44(k44):
    h = build_conflict_graph(k44, 4.0)
    comps = _support_components(h)
    assert comps == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_conflict_graph_c4(c4):
    h = build_conflict_graph(c4, 4.0)
    assert _support_components(h) == [[0, 2], [1, 3]]


def test_conflict_graph_k2(k2):
    h = build_conflict_graph(k2, 2.0)
    assert h.edge_count == 0


def test_conflict_graph_rejects_weighted(triangle):
    with pytest.raises(ValidationError):
        build_conflict_graph(triangle, 2.0)
    with pytest.raises(ValidationError):
        high_degree_solve(triangle)


def test_high_degree_k44(k44):
    res = high_degree_solve(k44)
    assert cut_value(k44, res.cut) == 16.0
    assert res.component_count == 2
    assert res.used_exhaustive


def test_high_degree_c4(c4):
    res = high_degree_solve(c4)
    assert res.cut == Cut(np.array([1, -1, 1, -1]))


def test_high_degree_k55_minus_matching():
    w = np.zeros((10, 10))
    w[:5, 5:] = 1.0
    w[5:, :5] = 1.0
    for i in range(5):
        w[i, 5 + i] = 0.0
        w[5 + i, i] = 0.0
    g = WeightedGraph(w)
    res = high_degree_solve(g)
    assert cut_value(g, res.cut) == 20.0
    bf, value, _ = brute_force_max_cut(g)
    assert value == 20.0
    assert res.cut == bf


def test_high_degree_on_bipartite_family():
    for m in (2, 3, 4):
        g = complete_bipartite(m)
        res = high_degree_solve(g)
        expected = Cut(np.array([1] * m + [-1] * m, dtype=np.int8))
        assert res.cut == expected


def test_high_degree_greedy_quotient_on_a_perfect_matching():
    # no two vertices share a neighbour: 42 singleton components, more than
    # EXHAUSTIVE_BITS, so the quotient (the matching itself) goes to greedy
    w = np.zeros((42, 42))
    for i in range(0, 42, 2):
        w[i, i + 1] = w[i + 1, i] = 1.0
    g = WeightedGraph(w)
    res = high_degree_solve(g)
    assert res.component_count == 42
    assert not res.used_exhaustive and not res.heuristic
    assert cut_value(g, res.cut) == 21.0


def test_contraction_soundness_on_random_simple():
    # the lifted cut's value matches the quotient cut's value by construction
    rng = np.random.Generator(np.random.Philox(42))
    for seed in range(6):
        n = 8 + int(rng.integers(0, 5))
        iu, ju = np.triu_indices(n, 1)
        w = np.zeros((n, n))
        w[iu, ju] = (np.random.Generator(np.random.Philox(seed)).random(iu.size) < 0.6)
        g = WeightedGraph(w + w.T)
        res = high_degree_solve(g)
        quotient_total = 0.0
        for a, ca in enumerate(res.components):
            for b, cb in enumerate(res.components):
                if a < b and res.cut.signs[ca[0]] != res.cut.signs[cb[0]]:
                    quotient_total += g.weights[np.ix_(list(ca), list(cb))].sum()
        assert cut_value(g, res.cut) == pytest.approx(quotient_total, rel=1e-12)


def test_greedy_guarantee_on_scaled_instances():
    # scaled to gamma_target above sqrt(max_degree * n): greedy must be exact
    hits = 0
    for seed in range(25):
        g = random_weighted(8, seed, p=0.6)
        rep_target = np.sqrt(g.support.sum(axis=1).max() * g.n)
        try:
            scaled, _ = stabilize_by_scaling(g, float(np.ceil(rep_target)) + 1.0, seed=seed)
        except ValidationError:
            continue
        cut, _ = find_max_cut_greedy(scaled)
        bf, _, _ = brute_force_max_cut(scaled)
        assert cut == bf
        hits += 1
    assert hits >= 20


def test_greedy_local_optimality_under_guarantee():
    for seed in range(5):
        g = random_weighted(7, seed, p=0.7)
        target = float(np.ceil(np.sqrt(g.support.sum(axis=1).max() * g.n))) + 1.0
        scaled, _ = stabilize_by_scaling(g, target, seed=seed)
        cut, _ = find_max_cut_greedy(scaled)
        base = cut_value(scaled, cut)
        for v in range(g.n):
            flipped = Cut(np.where(np.arange(g.n) == v, -cut.signs, cut.signs))
            assert cut_value(scaled, flipped) <= base + 1e-9
