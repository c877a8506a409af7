import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablecut import (
    Cut,
    ValidationError,
    WeightedGraph,
    bottom_spectrum,
    brute_force_max_cut,
    build_certificate,
    build_diagonal_from_cut,
    cut_value,
    eigen_smallest_two,
    family_condition_checks,
    local_stability_gamma,
    psd_sufficient_margin,
    spectral_partition,
    stability_report,
)
from stablecut import spectral

from conftest import random_weighted


def test_eigen_k2(k2):
    lam, u, lam1 = eigen_smallest_two(k2.weights)
    assert lam == pytest.approx(-1.0)
    assert lam1 == pytest.approx(1.0)
    assert abs(u[0]) == pytest.approx(abs(u[1]))
    assert np.sign(u[0]) != np.sign(u[1])


def test_eigen_c4(c4):
    lam, u, lam1 = eigen_smallest_two(c4.weights)
    assert lam == pytest.approx(-2.0)
    assert lam1 == pytest.approx(0.0, abs=1e-12)
    expected = np.array([1, -1, 1, -1]) / 2.0
    assert np.allclose(np.abs(u), 0.5)
    assert np.allclose(u / u[0], expected / expected[0])


def test_eigen_p3(p3):
    lam, u, _ = eigen_smallest_two(p3.weights)
    assert lam == pytest.approx(-math.sqrt(2))
    scaled = u / u[0]
    assert scaled == pytest.approx([1.0, -math.sqrt(2), 1.0])


def test_eigen_rejects_asymmetric():
    with pytest.raises(ValidationError):
        eigen_smallest_two(np.array([[0.0, 1.0], [0.5, 0.0]]))
    # asymmetry within 1e-12 of the largest entry is accepted
    lam, _, lam1 = eigen_smallest_two(np.array([[0.0, 1.0], [1.0 + 1e-15, 0.0]]))
    assert (lam, lam1) == pytest.approx((-1.0, 1.0))


def test_eigen_residual_on_random_matrices():
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(50):
        n = int(rng.integers(2, 30))
        a = rng.standard_normal((n, n))
        m = (a + a.T) / 2
        lam, u, _ = eigen_smallest_two(m)
        residual = np.abs(m @ u - lam * u).max()
        assert residual <= 1e-9 * max(1.0, np.linalg.norm(m, np.inf))
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-10


def test_partition_examples(k2, p3, c4):
    assert spectral_partition(k2) == Cut(np.array([1, -1]))
    assert spectral_partition(p3) == Cut(np.array([1, -1, 1]))
    assert spectral_partition(c4) == Cut(np.array([1, -1, 1, -1]))


def test_partition_scale_invariant(c4):
    for scale in (0.25, 3.0, 117.0):
        scaled = WeightedGraph(c4.weights * scale)
        assert spectral_partition(scaled) == spectral_partition(c4)


def test_diagonal_examples(k2, c4):
    d = build_diagonal_from_cut(k2, Cut(np.array([1, -1])))
    assert d.tolist() == [1.0, 1.0]
    m = k2.weights + np.diag(d)
    assert build_certificate(k2, Cut(np.array([1, -1]))).psd
    assert np.abs(m @ np.array([1.0, -1.0])).max() == 0.0

    d = build_diagonal_from_cut(c4, Cut(np.array([1, -1, 1, -1])))
    assert d.tolist() == [2.0, 2.0, 2.0, 2.0]


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=2**20),
)
def test_kernel_and_trace_identities(n, seed, cut_bits):
    g = random_weighted(n, seed)
    signs = np.ones(n, dtype=np.int8)
    for v in range(1, n):
        if (cut_bits >> (v - 1)) & 1:
            signs[v] = -1
    c = Cut(signs)
    d = build_diagonal_from_cut(g, c)
    m = g.weights + np.diag(d)
    assert np.abs(m @ c.as_float()).max() <= 1e-10 * max(1.0, np.abs(m).max())
    w_cut = cut_value(g, c)
    w_not = g.total_weight - w_cut
    assert d.sum() == pytest.approx(2 * (w_cut - w_not), rel=1e-9, abs=1e-9)


def test_margin_examples(k2, c4, unit_triangle):
    for g, cut in ((c4, Cut(np.array([1, -1, 1, -1]))), (k2, Cut(np.array([1, -1])))):
        gamma = local_stability_gamma(g, cut)
        ok, margin = psd_sufficient_margin(g, gamma, g.weights.sum(axis=1))
        assert ok and margin == pytest.approx(2.0, rel=1e-9)
    cut, _, _ = brute_force_max_cut(unit_triangle)
    gamma = local_stability_gamma(unit_triangle, cut)
    assert gamma == 1.0
    ok, margin = psd_sufficient_margin(unit_triangle, gamma, unit_triangle.weights.sum(axis=1))
    # local stability of a tie instance is 1, so the degree term vanishes
    # and the two bottom eigenvalues -1, -1 push the margin to -2
    assert not ok and margin == pytest.approx(-2.0, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=9), st.integers(min_value=0, max_value=5_000))
def test_margin_soundness(n, seed):
    """Positive margin at the true max cut implies the shifted matrix is PSD."""
    g = random_weighted(n, seed)
    cut, _, _ = brute_force_max_cut(g)
    ok, _ = psd_sufficient_margin(g, local_stability_gamma(g, cut), g.weights.sum(axis=1))
    if ok:
        assert build_certificate(g, cut).psd


def product_ratio(g: WeightedGraph, u: np.ndarray) -> float:
    """max |u_i u_j| / min |u_i u_j| over the edges ij of g: the paper's
    threshold for the spectral route, where u is the bottom eigenvector of
    the maximum cut's kernel shift (see test_spectral_recovery_soundness).
    It is 1 on an edgeless graph and +inf (meaningless) when a product vanishes.
    """
    iu, ju = np.nonzero(np.triu(g.support))
    if iu.size == 0:
        return 1.0
    prods = np.abs(u[iu] * u[ju])
    lo = float(prods.min())
    return math.inf if lo == 0.0 else float(prods.max()) / lo


def test_gamma_requirement_examples(k2, p3, c4):
    assert product_ratio(c4, np.array([1, -1, 1, -1]) / 2.0) == pytest.approx(1.0)
    assert product_ratio(k2, np.array([1, -1]) / math.sqrt(2)) == pytest.approx(1.0)
    assert product_ratio(p3, np.array([1, -math.sqrt(2), 1]) / 2.0) == pytest.approx(1.0)


def test_gamma_requirement_zero_entry_is_meaningless(p3):
    assert math.isinf(product_ratio(p3, np.array([1.0, 0.0, -1.0])))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=5_000))
def test_spectral_recovery_soundness(n, seed):
    """If gamma* clears the product ratio of the kernel shift's bottom
    eigenvector, the shifted spectral partition is the max cut."""
    g = random_weighted(n, seed)
    rep = stability_report(g)
    if not rep.unique:
        return
    d = build_diagonal_from_cut(g, rep.max_cut)
    _, u, _ = eigen_smallest_two(g.weights + np.diag(d))
    basic = product_ratio(g, u)
    if math.isfinite(basic) and rep.gamma_star > basic:
        assert spectral._sign_cut(u) == rep.max_cut


_entries = st.sampled_from([-1.0, -1e-300, -0.0, 0.0, 1e-300, 0.5])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(*[st.lists(_entries, min_size=n, max_size=n)] * 2)
    )
)
def test_rounding_key_equal_exactly_when_sign_cuts_are(pair):
    a, b = (np.array(u) for u in pair)
    same_key = spectral._rounding_key(a) == spectral._rounding_key(b)
    assert same_key == (spectral._sign_cut(a) == spectral._sign_cut(b))


def test_family_checks_on_c4(c4):
    cut, _, _ = brute_force_max_cut(c4)
    gamma, degrees = local_stability_gamma(c4, cut), c4.weights.sum(axis=1)
    verdicts = {v.name: v for v in family_condition_checks(c4, gamma, degrees, stability_report(c4))}
    v = verdicts["equal_degree_spectral_ratio"]
    assert v.applicable and v.holds
    assert v.lhs == pytest.approx(0.0, abs=1e-12)
    v = verdicts["regular_expander"]
    assert v.applicable and v.holds
    assert v.rhs == pytest.approx(5.0)  # (5*2+0)/(2-0)
    v = verdicts["cheeger_expansion"]
    assert v.applicable and v.holds
    v = verdicts["distinctness"]
    assert v.applicable
    assert v.detail["h_ge_k"] is True
    # the exact quantities come only from a profile
    verdicts = {v.name: v for v in family_condition_checks(c4, gamma, degrees)}
    assert verdicts["regular_expander"].applicable
    assert not verdicts["cheeger_expansion"].applicable
    assert not verdicts["distinctness"].applicable


def test_family_checks_not_applicable_on_weighted(triangle):
    cut, _, _ = brute_force_max_cut(triangle)
    gamma = local_stability_gamma(triangle, cut)
    degrees = triangle.weights.sum(axis=1)
    verdicts = {v.name: v for v in family_condition_checks(triangle, gamma, degrees)}
    assert not verdicts["regular_expander"].applicable
    assert not verdicts["cheeger_expansion"].applicable


def test_certificate_fields(c4):
    cut = Cut(np.array([1, -1, 1, -1]))
    cert = build_certificate(c4, cut)
    assert cert.psd
    assert not ((c4.weights + np.diag(cert.diag_shift)) @ cut.as_float()).any()
    assert cert.lambda_n == pytest.approx(0.0, abs=1e-12)
    assert cert.lambda_n <= cert.lambda_n_minus_1


def test_local_stability_feeds_gw(c4):
    gamma = local_stability_gamma(c4, Cut(np.array([1, -1, 1, -1])))
    assert math.isinf(gamma)


def _count_solves(monkeypatch) -> list:
    solved = []
    solve = spectral.eigendecompose
    monkeypatch.setattr(spectral, "eigendecompose", lambda m: solved.append(m) or solve(m))
    return solved


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=5_000))
def test_bottom_spectrum_is_eigen_smallest_two_of_w(n, seed):
    g = random_weighted(n, seed)
    ref_lam, ref_u, ref_lam1 = eigen_smallest_two(g.weights.copy())
    for _ in range(2):
        lam, u, lam1 = bottom_spectrum(g)
        assert (lam, lam1) == (ref_lam, ref_lam1)
        vals = spectral.eigenvalues_of_w(g)
        assert (vals[0], vals[min(1, n - 1)]) == (lam, lam1)
        assert vals.tolist() == sorted(vals.tolist())
        assert np.array_equal(u, ref_u)


def test_bottom_spectrum_solves_w_once_per_graph(monkeypatch, c4):
    solved = _count_solves(monkeypatch)
    cut = Cut(np.array([1, -1, 1, -1]))
    first = bottom_spectrum(c4)
    assert bottom_spectrum(c4) is first
    assert spectral_partition(c4) == cut
    psd_sufficient_margin(c4, math.inf, c4.weights.sum(axis=1))
    # C_4 is regular, so the expander check reads lambda_2 as well
    verdicts = family_condition_checks(c4, math.inf, c4.weights.sum(axis=1))
    assert verdicts[1].detail["lambda2"] == spectral.eigenvalues_of_w(c4)[-2]
    assert len(solved) == 1
    with pytest.raises(ValueError):
        first[1][0] = 0.0  # shared between callers, so read-only
    with pytest.raises(ValueError):
        spectral.eigenvalues_of_w(c4)[0] = 0.0
    # another graph with equal weights solves its own
    bottom_spectrum(WeightedGraph(c4.weights.copy()))
    assert len(solved) == 2


class _SwitchingDict(dict):
    """A store that lets other threads run while it is read or written."""

    def get(self, key, default=None):
        time.sleep(0)
        return super().get(key, default)

    def __setitem__(self, key, value):
        time.sleep(0)
        super().__setitem__(key, value)


def test_bottom_spectrum_shared_between_threads():
    weights = random_weighted(8, 11).weights
    cut = Cut(np.array([1, -1] * 4))

    def results(g: WeightedGraph) -> tuple:
        lam, u, lam1 = bottom_spectrum(g)
        margin = psd_sufficient_margin(g, local_stability_gamma(g, cut), g.weights.sum(axis=1))
        vals = spectral.eigenvalues_of_w(g).tobytes()
        return lam, u.tobytes(), lam1, vals, spectral_partition(g), margin

    expected = results(WeightedGraph(weights))
    graphs = [WeightedGraph(weights) for _ in range(50)]
    for g in graphs:
        object.__setattr__(g, "_spectra", _SwitchingDict())
    errors = []

    def worker(offset: int) -> None:
        try:
            for i in range(len(graphs)):
                if results(graphs[(i + offset) % len(graphs)]) != expected:
                    errors.append(i)
        except Exception as exc:  # reported below, in the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k % 2,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
