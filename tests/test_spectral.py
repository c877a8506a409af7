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
    DomainError,
    ValidationError,
    WeightedGraph,
    bottom_spectrum,
    brute_force_max_cut,
    build_certificate,
    build_diagonal_from_cut,
    cut_value,
    eigen_smallest_two,
    family_condition_checks,
    gw_bound,
    local_stability_gamma,
    psd_sufficient_margin,
    spectral_gamma_requirement,
    spectral_partition,
    stability_report,
    stable_gw_bound,
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


def test_gamma_requirement_examples(k2, p3, c4):
    basic, _ = spectral_gamma_requirement(c4, np.array([1, -1, 1, -1]) / 2.0)
    assert basic == pytest.approx(1.0)
    basic, _ = spectral_gamma_requirement(k2, np.array([1, -1]) / math.sqrt(2))
    assert basic == pytest.approx(1.0)
    basic, _ = spectral_gamma_requirement(p3, np.array([1, -math.sqrt(2), 1]) / 2.0)
    assert basic == pytest.approx(1.0)


def test_gamma_requirement_zero_entry_is_meaningless(p3):
    basic, _ = spectral_gamma_requirement(p3, np.array([1.0, 0.0, -1.0]))
    assert math.isinf(basic)


def test_margin_examples(k2, c4, unit_triangle):
    ok, margin = psd_sufficient_margin(c4, Cut(np.array([1, -1, 1, -1])))
    assert ok and margin == pytest.approx(2.0, rel=1e-9)
    ok, margin = psd_sufficient_margin(k2, Cut(np.array([1, -1])))
    assert ok and margin == pytest.approx(2.0, rel=1e-9)
    cut, _, _ = brute_force_max_cut(unit_triangle)
    ok, margin = psd_sufficient_margin(unit_triangle, cut)
    # local stability of a tie instance is 1, so the degree term vanishes
    # and the two bottom eigenvalues -1, -1 push the margin to -2
    assert not ok and margin == pytest.approx(-2.0, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=9), st.integers(min_value=0, max_value=5_000))
def test_margin_soundness(n, seed):
    """Positive margin at the true max cut implies the shifted matrix is PSD."""
    g = random_weighted(n, seed)
    cut, _, _ = brute_force_max_cut(g)
    ok, _ = psd_sufficient_margin(g, cut)
    if ok:
        assert build_certificate(g, cut).psd


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=5_000))
def test_spectral_recovery_soundness(n, seed):
    """If gamma* clears the basic product ratio for the kernel shift, the
    shifted spectral partition is the max cut."""
    g = random_weighted(n, seed)
    rep = stability_report(g)
    if not rep.unique:
        return
    d = build_diagonal_from_cut(g, rep.max_cut)
    _, u, _ = eigen_smallest_two(g.weights + np.diag(d))
    basic, _ = spectral_gamma_requirement(g, u)
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
    verdicts = {v.name: v for v in family_condition_checks(c4, cut, stability_report(c4))}
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
    verdicts = {v.name: v for v in family_condition_checks(c4, cut)}
    assert verdicts["regular_expander"].applicable
    assert not verdicts["cheeger_expansion"].applicable
    assert not verdicts["distinctness"].applicable


def test_family_checks_not_applicable_on_weighted(triangle):
    cut, _, _ = brute_force_max_cut(triangle)
    verdicts = {v.name: v for v in family_condition_checks(triangle, cut)}
    assert not verdicts["regular_expander"].applicable
    assert not verdicts["cheeger_expansion"].applicable


def test_certificate_fields(c4):
    cert = build_certificate(c4, Cut(np.array([1, -1, 1, -1])))
    assert cert.psd
    assert cert.residual == 0.0
    assert cert.lambda_n == pytest.approx(0.0, abs=1e-12)
    assert cert.lambda_n <= cert.lambda_n_minus_1
    assert np.linalg.norm(cert.eigvec) == pytest.approx(1.0, abs=1e-10)


def test_gw_bound_exact_points():
    assert gw_bound(1.0) == 1.0
    assert gw_bound(0.75) == pytest.approx(8.0 / 9.0, abs=1e-12)
    with pytest.raises(DomainError):
        gw_bound(0.4)
    with pytest.raises(DomainError):
        gw_bound(1.1)


def test_gw_bound_monotone_on_tail():
    grid = np.linspace(0.85, 1.0, 1000)
    vals = [gw_bound(float(r)) for r in grid]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_stable_gw_decay():
    consts = [(1 - stable_gw_bound(float(g))) * math.sqrt(g) for g in (10, 100, 1000, 10000)]
    assert max(consts) <= 0.7


def test_local_stability_feeds_gw(c4):
    gamma = local_stability_gamma(c4, Cut(np.array([1, -1, 1, -1])))
    assert math.isinf(gamma)
    assert stable_gw_bound(1e12) == pytest.approx(1.0, abs=1e-5)


def _count_solves(monkeypatch) -> list:
    solved = []
    solve = spectral.eigen_smallest_two
    monkeypatch.setattr(spectral, "eigen_smallest_two", lambda m: solved.append(m) or solve(m))
    return solved


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=5_000))
def test_bottom_spectrum_is_eigen_smallest_two_of_w(n, seed):
    g = random_weighted(n, seed)
    ref_lam, ref_u, ref_lam1 = eigen_smallest_two(g.weights.copy())
    for _ in range(2):
        lam, u, lam1 = bottom_spectrum(g)
        assert (lam, lam1) == (ref_lam, ref_lam1)
        assert np.array_equal(u, ref_u)


def test_bottom_spectrum_solves_w_once_per_graph(monkeypatch, c4):
    solved = _count_solves(monkeypatch)
    cut = Cut(np.array([1, -1, 1, -1]))
    first = bottom_spectrum(c4)
    assert bottom_spectrum(c4) is first
    assert spectral_partition(c4) == cut
    psd_sufficient_margin(c4, cut)
    family_condition_checks(c4, cut)
    assert len(solved) == 1
    with pytest.raises(ValueError):
        first[1][0] = 0.0  # shared between callers, so read-only
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
        return lam, u.tobytes(), lam1, spectral_partition(g), psd_sufficient_margin(g, cut)

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
