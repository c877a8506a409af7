import hashlib
import math

import numpy as np
import pytest

from stablecut import (
    ValidationError,
    WeightDistribution,
    WeightedGraph,
    brute_force_max_cut,
    cross_product_amplify,
    cut_value,
    dumps_graph,
    gen_gnp_simple,
    gen_planted,
    local_stability_gamma,
    stability_report,
    stabilize_by_scaling,
)

from conftest import random_weighted

# sha256 of the canonical graph file for pinned (params, seed) combinations
GOLDEN = {
    ("planted", 1): "65f037ca561cc1a65883ef29028147e3ce4157750bae0b6fe1c3e35387aaec32",
    ("planted", 2): "5c76927b07126b9df34370fcc0574aad61c98497a80515d6f2fcbeb6a1109f19",
    ("planted", 3): "e62e40ba91110ea90011f1442d84f86e6c017224018fc9bd45cf848a998c8e20",
    ("gnp", 1): "56c5939d807b6f1ea2e3d1933507bf639da54e50e3996922a187f0af3c9d348f",
    ("gnp", 2): "fc0e41d260449f005afd4de055c9ffac7c880ba4e121c10f5b4abe444b0d1c74",
    ("gnp", 3): "33e7763187a0584aae54369df28230e3a298867dfcd14cfa811fb64d45f836e2",
    ("two_point", 9): "7f2c6588337831978a902d6e56f17e68dc8443d55f72f322325fe472f11e036d",
}


def _sha(g) -> str:
    return hashlib.sha256(dumps_graph(g).encode()).hexdigest()


def test_distribution_parsing():
    assert WeightDistribution.parse("uniform:0.5:1.5") == WeightDistribution("uniform", (0.5, 1.5))
    assert WeightDistribution.parse("constant:2") == WeightDistribution("constant", (2.0,))
    d = WeightDistribution.parse("two_point:0.25:1:3")
    assert d == WeightDistribution("two_point", (0.25, 1.0, 3.0))
    assert d.spec() == "two_point:0.25:1.0:3.0"
    with pytest.raises(ValidationError):
        WeightDistribution.parse("gauss:0:1")
    with pytest.raises(ValidationError):
        WeightDistribution.parse("uniform:2:1")
    with pytest.raises(ValidationError):
        WeightDistribution.parse("uniform:x:1")


def test_planted_k2_trivial():
    g, planted = gen_planted(2, WeightDistribution.parse("constant:1"), 3.0, seed=0)
    assert g.weights[0, 1] == 3.0
    assert planted.n == 2


def test_planted_constant_n4():
    g, planted = gen_planted(4, WeightDistribution.parse("constant:1"), 2.0, seed=5)
    w = g.weights
    s = planted.signs
    crossing = s[:, None] != s[None, :]
    assert np.all(w[crossing & (w > 0)] == 2.0)
    offs = ~crossing & ~np.eye(4, dtype=bool)
    assert np.all(w[offs] == 1.0)
    assert cut_value(g, planted) == 8.0
    bf, _, _ = brute_force_max_cut(g)
    assert bf == planted


def test_planted_oracle_check_n12():
    g, planted = gen_planted(12, WeightDistribution.parse("uniform:0.5:1.5"), 4.0, seed=7)
    bf, _, unique = brute_force_max_cut(g)
    assert bf == planted
    assert unique


def test_planted_balanced_sides():
    for seed in range(6):
        _, planted = gen_planted(10, WeightDistribution.parse("uniform:0.5:1.5"), 2.0, seed=seed)
        assert int((planted.signs == 1).sum()) == 5


def test_planted_constant_unique_max_for_gamma_above_one():
    for n in (6, 10, 14):
        g, planted = gen_planted(n, WeightDistribution.parse("constant:1"), 1.5, seed=n)
        bf, _, unique = brute_force_max_cut(g)
        assert unique and bf == planted


def test_planted_rejects_odd_n():
    with pytest.raises(ValidationError):
        gen_planted(11, WeightDistribution.parse("constant:1"), 2.0, seed=0)


def test_golden_outputs_pinned():
    dist = WeightDistribution.parse("uniform:0.5:1.5")
    for seed in (1, 2, 3):
        g, _ = gen_planted(8, dist, 2.0, seed=seed)
        assert _sha(g) == GOLDEN[("planted", seed)]
        g = gen_gnp_simple(10, 0.3, seed=seed)
        assert _sha(g) == GOLDEN[("gnp", seed)]
    g, _ = gen_planted(6, WeightDistribution.parse("two_point:0.25:1:2"), 3.0, seed=9)
    assert _sha(g) == GOLDEN[("two_point", 9)]


def test_gnp_determinism_and_density():
    a = gen_gnp_simple(10, 0.5, seed=3)
    b = gen_gnp_simple(10, 0.5, seed=3)
    assert np.array_equal(a.weights, b.weights)
    # near-complete at p -> 1
    for seed in range(5):
        g = gen_gnp_simple(6, 0.999, seed=seed)
        assert g.edge_count == 15
    with pytest.raises(ValidationError):
        gen_gnp_simple(5, 0.0, seed=0)


def test_gnp_edge_count_matches_binomial_mean():
    counts = [gen_gnp_simple(10, 0.3, seed=s).edge_count for s in range(200)]
    mean = float(np.mean(counts))
    sigma_mean = math.sqrt(45 * 0.3 * 0.7 / 200)
    assert abs(mean - 13.5) <= 3 * sigma_mean


def test_scaling_triangle(triangle):
    scaled, profile = stabilize_by_scaling(triangle, 4.0)
    assert scaled.weights[0, 1] == pytest.approx(4.0)
    assert scaled.weights[1, 2] == pytest.approx(6.0)
    assert scaled.weights[0, 2] == pytest.approx(1.0)
    assert profile == stability_report(scaled)
    assert profile.gamma_star >= 4.0 - 1e-9


def test_scaling_infinite_is_noop(c4):
    scaled, profile = stabilize_by_scaling(c4, 10.0)
    assert np.array_equal(scaled.weights, c4.weights)
    assert profile == stability_report(c4)


def test_scaling_breaks_ties_by_jitter(unit_triangle):
    scaled, rep = stabilize_by_scaling(unit_triangle, 3.0)
    assert rep == stability_report(scaled)
    assert rep.unique
    assert rep.gamma_star == pytest.approx(3.0, rel=1e-6)


def test_scaling_idempotent():
    g = random_weighted(8, 21)
    once, _ = stabilize_by_scaling(g, 5.0)
    twice, _ = stabilize_by_scaling(once, 5.0)
    assert np.allclose(once.weights, twice.weights, rtol=1e-9)


def test_amplify_k2(k2):
    amp = cross_product_amplify(k2, 1.0)
    assert amp.n == 4
    # edges: the two copies plus the matching
    assert amp.weights[0, 1] == 1.0
    assert amp.weights[2, 3] == 1.0
    assert amp.weights[0, 2] == 1.0
    assert amp.weights[1, 3] == 1.0
    _, value, _ = brute_force_max_cut(amp)
    assert value == 4.0


def test_amplify_lifts_local_stability():
    for seed in (3, 4):
        g = random_weighted(6, seed, p=0.8)
        rep = stability_report(g)
        if not rep.unique:
            continue
        for tau in (1.0, 2.0):
            amp = cross_product_amplify(g, tau)
            cut, _, _ = brute_force_max_cut(amp)
            if local_stability_gamma(g, rep.max_cut) >= 1.0:
                assert local_stability_gamma(amp, cut) >= 2 * tau - 1e-9


def test_amplify_preserves_stability_factor():
    for seed in (11, 12, 13):
        g = random_weighted(7, seed, p=0.7)
        rep = stability_report(g)
        amp = cross_product_amplify(g, 1.0)
        rep2 = stability_report(amp)
        if math.isinf(rep.gamma_star):
            assert math.isinf(rep2.gamma_star)
        else:
            assert rep2.gamma_star == pytest.approx(rep.gamma_star, rel=1e-9)


def test_amplify_lifted_cut_is_maximal():
    g = random_weighted(6, 2, p=0.8)
    rep = stability_report(g)
    amp = cross_product_amplify(g, 1.5)
    s = rep.max_cut.signs
    lifted = np.concatenate([s, -s]).astype(np.int8)
    amp_cut, amp_value, _ = brute_force_max_cut(amp)
    from stablecut import Cut

    assert cut_value(amp, Cut(lifted)) == pytest.approx(amp_value, rel=1e-12)
