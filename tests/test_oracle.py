import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablecut import (
    Cut,
    SizeLimitError,
    ValidationError,
    WeightDistribution,
    WeightedGraph,
    brute_force_max_cut,
    cut_value,
    gen_planted,
    local_stability_gamma,
    oracle,
    stability_report,
)

from conftest import complete_bipartite, random_weighted


def test_brute_force_k2(k2):
    cut, value, unique = brute_force_max_cut(k2)
    assert cut == Cut(np.array([1, -1]))
    assert value == 1.0
    assert unique


def test_brute_force_triangle(triangle):
    cut, value, unique = brute_force_max_cut(triangle)
    assert cut == Cut(np.array([-1, 1, -1]))
    assert value == 5.0
    assert unique


def test_brute_force_unit_triangle_tie(unit_triangle):
    _, value, unique = brute_force_max_cut(unit_triangle)
    assert value == 2.0
    assert not unique


def test_size_limit():
    g = WeightedGraph(np.zeros((25, 25)))
    with pytest.raises(SizeLimitError):
        brute_force_max_cut(g)
    # explicit limit override admits it
    cut, value, _ = brute_force_max_cut(g, limit=25)
    assert value == 0.0


@pytest.mark.parametrize("limit", [0, -1, 33])
def test_explicit_limit_outside_mask_width_rejected(k2, limit):
    with pytest.raises(ValidationError):
        brute_force_max_cut(k2, limit=limit)
    with pytest.raises(ValidationError):
        stability_report(k2, limit=limit)


def test_stability_triangle(triangle):
    rep = stability_report(triangle)
    assert rep.unique
    assert rep.gamma_star == pytest.approx(2.0, rel=1e-12)
    assert rep.worst_cut == Cut(np.array([1, 1, -1]))
    assert rep.alpha_star == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert rep.k_star == pytest.approx(1.0, rel=1e-12)
    # section 2.2 conversion: both sides computed from the same tight T
    assert (1 + rep.alpha_star) / (1 - rep.alpha_star) == pytest.approx(
        rep.gamma_star, rel=1e-9
    )


def test_stability_bipartite_is_infinite(c4):
    rep = stability_report(c4)
    assert math.isinf(rep.gamma_star)
    assert rep.worst_cut is None
    # every alternative loses exactly its missing cut edges, so the
    # distinctness ratio is 1 for all T
    assert rep.alpha_star == pytest.approx(1.0)
    assert rep.k_star == pytest.approx(1.0)


def test_stability_unit_triangle(unit_triangle):
    rep = stability_report(unit_triangle)
    assert not rep.unique
    assert rep.gamma_star == 1.0
    assert rep.alpha_star == 0.0
    assert rep.worst_cut is not None


def test_local_stability(c4, triangle, k2):
    assert math.isinf(local_stability_gamma(c4, Cut(np.array([1, -1, 1, -1]))))
    assert local_stability_gamma(triangle, Cut(np.array([-1, 1, -1]))) == 2.0
    assert local_stability_gamma(k2, Cut(np.array([1, 1]))) == 0.0


def test_k_distinctness_examples(c4, k2, triangle):
    assert stability_report(c4).k_star == pytest.approx(1.0)
    assert stability_report(k2).k_star == pytest.approx(1.0)
    assert stability_report(triangle).k_star == pytest.approx(1.0)


def test_alpha_examples(triangle):
    assert stability_report(triangle).alpha_star == pytest.approx(1.0 / 3.0)


def test_cheeger_examples(c4, k2):
    assert oracle.cheeger_constant(c4) == 1.0
    assert oracle.cheeger_constant(k2) == 1.0
    k4 = WeightedGraph(np.ones((4, 4)) - np.eye(4))
    assert oracle.cheeger_constant(k4) == 2.0
    assert oracle.cheeger_constant(complete_bipartite(4)) == 2.0
    with pytest.raises(ValidationError):
        oracle.cheeger_constant(WeightedGraph(np.zeros((1, 1))))


def dethroned(g: WeightedGraph, gamma: float) -> bool:
    """True when some gamma-perturbation of g leaves its maximum cut S not
    the unique maximum.

    For factors in [1, gamma], cut_f(S) - cut_f(T) >= w(S minus T) -
    gamma * w(T minus S), where S minus T are the edges S cuts and T does
    not.  Equality holds at W_gamma, which multiplies every edge S leaves
    uncut by gamma, so W_gamma is the worst case for every T at once.
    """
    cut, _, unique = brute_force_max_cut(g)
    if not unique:
        return True
    s = cut.signs
    w_gamma = np.where(s[:, None] == s[None, :], gamma * g.weights, g.weights)
    top, _, unique = brute_force_max_cut(WeightedGraph(w_gamma))
    return top != cut or not unique


def test_attack_brackets_gamma_star(triangle, c4, unit_triangle):
    assert not dethroned(triangle, 1.9)
    assert dethroned(triangle, 2.1)
    assert not dethroned(c4, 100.0)
    assert dethroned(unit_triangle, 1.0)


def test_attack_identity_never_succeeds(triangle):
    assert not dethroned(triangle, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=4, max_value=9), st.integers(min_value=0, max_value=5_000))
def test_dethroned_exactly_above_gamma_star(n, seed):
    g = random_weighted(n, seed)
    rep = stability_report(g)
    if not (rep.unique and math.isfinite(rep.gamma_star)):
        return
    assert not dethroned(g, rep.gamma_star * (1 - 1e-3))
    assert dethroned(g, rep.gamma_star * (1 + 1e-3))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=4, max_value=9), st.integers(min_value=0, max_value=5_000))
def test_local_at_least_global(n, seed):
    g = random_weighted(n, seed)
    rep = stability_report(g)
    if math.isfinite(rep.gamma_star):
        assert rep.gamma_local >= rep.gamma_star - 1e-9 * max(1.0, rep.gamma_star)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=4, max_value=9), st.integers(min_value=0, max_value=5_000))
def test_conversion_identity(n, seed):
    g = random_weighted(n, seed)
    rep = stability_report(g)
    if rep.unique and math.isfinite(rep.gamma_star):
        lhs = (1 + rep.alpha_star) / (1 - rep.alpha_star)
        assert lhs == pytest.approx(rep.gamma_star, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=4, max_value=8),
    st.integers(min_value=0, max_value=5_000),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_scale_obliviousness(n, seed, scale):
    g = random_weighted(n, seed)
    scaled = WeightedGraph(g.weights * scale)
    a = stability_report(g)
    b = stability_report(scaled)
    assert a.max_cut == b.max_cut
    if math.isfinite(a.gamma_star):
        assert b.gamma_star == pytest.approx(a.gamma_star, rel=1e-9)
    else:
        assert math.isinf(b.gamma_star)
    assert b.alpha_star == pytest.approx(a.alpha_star, rel=1e-9, abs=1e-12)
    if math.isfinite(a.k_star):
        assert b.k_star == pytest.approx(a.k_star * scale, rel=1e-9)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=4, max_value=8), st.integers(min_value=0, max_value=2_000))
def test_two_way_stability_restated(n, seed):
    """Factors inside [1/sqrt(g), sqrt(g)] for g < gamma* never dethrone the
    cut once rescaled into a one-way perturbation."""
    g = random_weighted(n, seed)
    rep = stability_report(g)
    if not (rep.unique and math.isfinite(rep.gamma_star) and rep.gamma_star > 1.05):
        return
    gamma = rep.gamma_star * 0.9
    root = math.sqrt(gamma)
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(5):
        up = np.triu(1 / root + (root - 1 / root) * rng.random((n, n)), 1)
        f = up + up.T
        np.fill_diagonal(f, 1.0)
        two_way = WeightedGraph(g.weights * f)
        # rescaling by sqrt(gamma) turns the two-way factors into [1, gamma]
        cut, _, unique = brute_force_max_cut(two_way)
        assert cut == rep.max_cut and unique


def test_enumeration_is_deterministic(unit_triangle):
    a = brute_force_max_cut(unit_triangle)[0]
    b = brute_force_max_cut(unit_triangle)[0]
    assert a == b
    # lowest canonical mask among the three tying cuts puts vertex 1 alone
    assert a == Cut(np.array([1, -1, 1]))


def reference_profile(g: WeightedGraph) -> dict:
    """Pure-Python enumeration of every partition in ascending mask order,
    with math.fsum sums: the oracle's definitions, read literally."""
    n, edges = g.n, g.edges()
    parts = [
        (1,) + tuple(1 - 2 * b for b in reversed(bits))
        for bits in itertools.product((0, 1), repeat=n - 1)
    ]
    values = [math.fsum(w for u, v, w in edges if t[u] != t[v]) for t in parts]
    best = max(values)
    tied = [t for t, v in zip(parts, values) if v >= best - oracle.TIE_REL_TOL * max(1.0, best)]
    s = tied[0]
    out = {"max_cut": s, "max_value": values[parts.index(s)], "ties": len(tied)}
    if n > 1:
        out["cheeger"] = min(
            sum(t[u] != t[v] for u, v, _ in edges) / min(t.count(-1), t.count(1))
            for t in parts[1:]
        )
    if len(tied) > 1:
        return {**out, "gamma_star": 1.0, "alpha_star": 0.0, "k_star": 0.0, "worst_cut": tied[1]}
    gamma, worst, alpha, k = math.inf, None, 1.0, math.inf
    for t in parts:
        if t == s:
            continue
        pos = [w for u, v, w in edges if s[u] != s[v] and t[u] == t[v]]
        neg = [w for u, v, w in edges if t[u] != t[v] and s[u] == s[v]]
        x = math.fsum(pos + [-w for w in neg])
        if neg and math.fsum(pos) / math.fsum(neg) < gamma:
            gamma, worst = math.fsum(pos) / math.fsum(neg), t
        alpha = min(alpha, x / math.fsum(pos + neg))
        d = sum(a != b for a, b in zip(s, t))
        k = min(k, x / min(d, n - d))
    return {**out, "gamma_star": gamma, "alpha_star": alpha, "k_star": k, "worst_cut": worst}


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    weight = draw(
        st.sampled_from(
            [
                st.floats(min_value=0.5, max_value=1.5),  # uniform
                st.integers(min_value=1, max_value=3).map(float),  # small integers: ties
                st.integers(min_value=1, max_value=3).map(lambda k: k / 10),  # float ties
                st.floats(min_value=-8, max_value=8).map(lambda e: 10.0**e),  # wide range
                st.just(1.0),  # unit
            ]
        )
    )
    isolated = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=2))
    w = np.zeros((n, n))
    for u, v in itertools.combinations(range(n), 2):
        if u not in isolated and v not in isolated and draw(st.booleans()):
            w[u, v] = w[v, u] = draw(weight)
    return WeightedGraph(w)


# Two-block sweep at _BLOCK_BITS = 2 whose second block tops out inside the
# global tie window but just below the global maximum.
_TIE_WINDOW_W = [[0, 1, 2, 1], [1, 0, 1 + 3e-10, 2], [2, 1 + 3e-10, 0, 1], [1, 2, 1, 0]]


@pytest.mark.parametrize("block_bits", [2, oracle._BLOCK_BITS])
@settings(max_examples=100, deadline=None)
@given(g=small_graphs())
@example(g=WeightedGraph(np.zeros((1, 1))))
@example(g=WeightedGraph(np.zeros((2, 2))))
@example(g=WeightedGraph(np.array([[0.0, 0.7], [0.7, 0.0]])))
@example(g=WeightedGraph(np.array(_TIE_WINDOW_W)))
def test_matches_reference_enumerator(block_bits, g):
    ref = reference_profile(g)
    # tiny blocks spread n <= 9 over many blocks, as large n does
    with mock.patch.object(oracle, "_BLOCK_BITS", block_bits):
        rep = stability_report(g)
        cheeger = oracle.cheeger_constant(g) if g.n > 1 else None
    assert tuple(rep.max_cut.signs) == ref["max_cut"]
    assert rep.ties == ref["ties"]
    assert rep.unique == (ref["ties"] == 1)
    worst = None if rep.worst_cut is None else tuple(rep.worst_cut.signs)
    assert worst == ref["worst_cut"]
    assert cheeger == ref.get("cheeger")
    assert rep.max_value == pytest.approx(ref["max_value"], rel=1e-12)
    for key in ("gamma_star", "alpha_star", "k_star"):
        if math.isinf(ref[key]):
            assert getattr(rep, key) == ref[key]
        else:
            assert getattr(rep, key) == pytest.approx(ref[key], rel=1e-12, abs=1e-300)


def test_scan_max_evaluates_a_block_inside_the_tie_window_again():
    g = WeightedGraph(np.array(_TIE_WINDOW_W, dtype=float))
    calls = []
    block = oracle._Kernel.block

    def counted(self, i):
        calls.append(i)
        return block(self, i)

    with mock.patch.object(oracle, "_BLOCK_BITS", 2), \
            mock.patch.object(oracle._Kernel, "block", counted):
        lowest, ties, second = oracle._scan_max(g)
    # one pass over both blocks, then the block below the maximum once more
    assert len(calls) == 3 and sorted(set(calls)) == [0, 1]
    assert ties == 2 and second is not None


def _cut_terms(g: WeightedGraph, s: np.ndarray, mask: int) -> list[float]:
    """The exact terms as a Cut and Python lists give them: T's sides from
    its validated Cut, each sum over a list of the edge weights."""
    iu, ju = np.nonzero(np.triu(g.support))
    wv, s_e = g.weights[iu, ju], s[iu] != s[ju]
    t = oracle._cut_for_mask(g.n, mask).signs
    t_e = t[iu] != t[ju]
    pos, neg = wv[s_e & ~t_e], wv[t_e & ~s_e]
    return [math.fsum(x) for x in (pos, neg, [*pos, *-neg], [*pos, *neg])]


@pytest.mark.parametrize(
    "dist", ["constant:0.7", "constant:0.1", "constant:1", "two_point:0.3:0.5:1.5"]
)
@pytest.mark.parametrize("n, gamma, seed", [(6, 1.3, 0), (10, 3.0, 28), (12, 2.0, 5)])
def test_exact_terms_match_the_cut_formula(dist, n, gamma, seed):
    g, _ = gen_planted(n, WeightDistribution.parse(dist), gamma, seed)
    s = stability_report(g).max_cut.signs
    terms = oracle._exact_terms(g, s)
    for mask in range(1 << (g.n - 1)):
        assert terms(mask) == _cut_terms(g, s, mask)
