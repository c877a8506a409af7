import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablecut import (
    Cut,
    WeightDistribution,
    WeightedGraph,
    brute_force_max_cut,
    build_certificate,
    cut_value,
    gen_planted,
    polish_cut,
    solve_min_trace,
)
from stablecut import dualsdp, spectral

from conftest import random_weighted


def test_k2_analytic_optimum(k2):
    sol = solve_min_trace(k2)
    assert sol.converged
    assert sol.trace == pytest.approx(2.0, abs=1e-9)
    assert sol.gap == pytest.approx(0.0, abs=1e-9)
    assert sol.d == pytest.approx([1.0, 1.0], abs=1e-6)


def test_c4_kernel_diagonal_is_optimal(c4):
    sol = solve_min_trace(c4)
    assert sol.converged
    assert sol.trace == pytest.approx(8.0, abs=1e-9)
    assert sol.d == pytest.approx([2.0, 2.0, 2.0, 2.0], abs=1e-6)


def test_edgeless_graph_trivial():
    g = WeightedGraph(np.zeros((3, 3)))
    sol = solve_min_trace(g)
    assert sol.converged
    assert sol.trace == 0.0
    assert sol.d == pytest.approx([0.0, 0.0, 0.0])


def test_unit_triangle_has_positive_gap(unit_triangle):
    # SDP optimum is 3 while the best cut reaches 2: gap 1, never certified
    sol = solve_min_trace(unit_triangle, max_iter=400)
    assert not sol.converged
    assert sol.trace == pytest.approx(3.0, abs=1e-6)
    assert sol.lower_bound == pytest.approx(2.0, abs=1e-12)
    assert cut_value(unit_triangle, sol.best_cut) == pytest.approx(2.0)


def test_extended_solve_c4_certified(c4):
    sol = solve_min_trace(c4)
    assert sol.converged
    assert sol.best_cut == Cut(np.array([1, -1, 1, -1]))
    assert sol.gap <= 1e-6


def test_planted_instance_certified_and_exact():
    inst = gen_planted(14, WeightDistribution.uniform(0.5, 1.5), 4.0, seed=1)
    sol = solve_min_trace(inst.graph)
    bf, _, _ = brute_force_max_cut(inst.graph)
    assert sol.converged
    assert sol.best_cut == bf == inst.planted
    assert sol.gap <= 1e-6


def test_certify_cut_examples(k2, c4):
    cert = build_certificate(c4, Cut(np.array([1, -1, 1, -1])))
    assert cert.psd
    assert cert.residual == 0.0
    # trace of the kernel diagonal = -c'Wc = 2 * (cut - uncut) = 8
    assert cert.diag_shift.sum() == 8.0
    cert = build_certificate(c4, Cut(np.array([1, -1, -1, -1])))
    assert not cert.psd
    cert = build_certificate(k2, Cut(np.array([1, -1])))
    assert cert.psd


def test_weak_duality_every_iteration(triangle):
    traces = []

    def log(i, trace, lam, gap):
        traces.append((trace, gap))

    sol = solve_min_trace(triangle, max_iter=200, on_iteration=log)
    # the running best trace never dips below the best cut value seen
    for trace, gap in traces:
        assert gap >= -1e-9
    assert sol.gap >= -1e-9


def test_determinism(triangle):
    a = solve_min_trace(triangle, max_iter=120)
    b = solve_min_trace(triangle, max_iter=120)
    assert a.trace == b.trace
    assert a.gap == b.gap
    assert a.iterations == b.iterations
    assert np.array_equal(a.d, b.d)


@st.composite
def graphs_and_cuts(draw):
    """Random graphs with uniform, small-integer or constant 0.7 weights, some
    isolated vertices among them, and a random starting cut."""
    n = draw(st.integers(min_value=1, max_value=12))
    isolated = draw(st.integers(min_value=0, max_value=3))
    weight = draw(
        st.sampled_from(
            [
                st.floats(min_value=0.5, max_value=1.5),
                st.integers(min_value=1, max_value=5).map(float),
                st.just(0.7),
            ]
        )
    )
    density = draw(st.sampled_from([0.3, 0.6, 1.0]))
    order = draw(st.permutations(range(n + isolated)))
    w = np.zeros((n + isolated, n + isolated))
    for a, b in itertools.combinations(order[:n], 2):
        if draw(st.floats(min_value=0.0, max_value=1.0)) < density:
            w[a, b] = w[b, a] = draw(weight)
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n + isolated, max_size=n + isolated))
    return WeightedGraph(w), Cut(np.array(signs))


@settings(max_examples=150, deadline=None)
@given(graphs_and_cuts())
@example((WeightedGraph.from_edges(3, [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 1.0)]), Cut(np.ones(3))))
@example((WeightedGraph(np.zeros((1, 1))), Cut(np.ones(1))))
def test_polish_reaches_local_optimum(gc):
    g, start = gc
    polished = polish_cut(g, start)
    base = cut_value(g, polished)
    assert base >= cut_value(g, start)
    for v in range(g.n):
        assert cut_value(g, polished.flipped(v)) <= base + 1e-12 * max(1.0, g.total_weight)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=3, max_value=10), st.integers(min_value=0, max_value=3_000))
def test_strong_duality_when_certificate_exists(n, seed):
    """Wherever the kernel diagonal of the true max cut is PSD, the solver
    closes the gap and returns that cut."""
    g = random_weighted(n, seed)
    bf, _, unique = brute_force_max_cut(g)
    if not unique:
        return
    if not build_certificate(g, bf).psd:
        return
    sol = solve_min_trace(g)
    assert sol.converged
    assert sol.gap <= 1e-6 * max(1.0, abs(sol.trace))
    assert sol.best_cut == bf


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=3, max_value=9), st.integers(min_value=0, max_value=3_000))
def test_certified_implies_exact(n, seed):
    g = random_weighted(n, seed)
    sol = solve_min_trace(g, max_iter=300)
    if sol.converged:
        _, best_value, _ = brute_force_max_cut(g)
        assert cut_value(g, sol.best_cut) == pytest.approx(best_value, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(graphs_and_cuts())
@example((WeightedGraph(np.zeros((1, 1))), Cut(np.ones(1))))
def test_certificate_is_that_of_the_best_cut(gc):
    g, _ = gc
    sol = solve_min_trace(g, max_iter=40)
    ref = build_certificate(g, sol.best_cut)
    for field in dataclasses.fields(ref):
        got, want = getattr(sol.certificate, field.name), getattr(ref, field.name)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name


class _Unseen(Cut):
    """A cut equal only to itself, so the dual polishes every rounding."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__


def test_polish_runs_once_per_distinct_rounding(monkeypatch):
    g = gen_planted(12, WeightDistribution.uniform(0.5, 1.5), 1.0, seed=1).graph
    polish = dualsdp.polish_cut

    def run() -> tuple[list, list]:
        polished, rows = [], []
        monkeypatch.setattr(
            dualsdp, "polish_cut", lambda g, c: polished.append(Cut(c.signs)) or polish(g, c)
        )
        sol = solve_min_trace(g, max_iter=300, on_iteration=lambda *row: rows.append(row))
        assert not sol.converged
        return polished, rows

    polished, rows = run()
    monkeypatch.setattr(dualsdp, "_sign_cut", lambda u: _Unseen(spectral._sign_cut(u).signs))
    every, every_rows = run()
    assert len(every) == 300  # one rounding per iteration
    # each distinct rounding is polished once, in the order it first appears
    assert polished == list(dict.fromkeys(every))
    assert len(polished) < len(every)
    assert rows == every_rows
