import collections
import dataclasses
import itertools
import math

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
    loads_graph,
    polish_cut,
    solve_min_trace,
)
from stablecut import dualsdp
from stablecut.errors import ValidationError
from stablecut.spectral import (
    _shifted, _sign_cut, build_diagonal_from_cut, eigen_smallest_two, spectral_partition,
)

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
    g, planted = gen_planted(14, WeightDistribution.parse("uniform:0.5:1.5"), 4.0, seed=1)
    sol = solve_min_trace(g)
    bf, _, _ = brute_force_max_cut(g)
    assert sol.converged
    assert sol.best_cut == bf == planted
    assert sol.gap <= 1e-6


def test_certify_cut_examples(k2, c4):
    cut = Cut(np.array([1, -1, 1, -1]))
    cert = build_certificate(c4, cut)
    assert cert.psd
    assert not ((c4.weights + np.diag(cert.diag_shift)) @ cut.as_float()).any()
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
@example((loads_graph("3 3\n0 1 2\n1 2 3\n0 2 1\n"), Cut(np.ones(3))))
@example((WeightedGraph(np.zeros((1, 1))), Cut(np.ones(1))))
def test_polish_reaches_local_optimum(gc):
    g, start = gc
    polished = polish_cut(g, start)
    base = cut_value(g, polished)
    assert base >= cut_value(g, start)
    for v in range(g.n):
        flipped = Cut(np.where(np.arange(g.n) == v, -polished.signs, polished.signs))
        assert cut_value(g, flipped) <= base + 1e-12 * max(1.0, g.total_weight)


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
    assert _bits(sol.certificate) == _bits(build_certificate(g, sol.best_cut))


@pytest.mark.parametrize(
    "n, dist, gamma, seed",
    [
        (8, "constant:0.7", 1.1, 1),
        (6, "uniform:0.5:1.5", 1.25, 2),
        (10, "constant:0.7", 2.0, 3),
        (14, "uniform:0.5:1.5", 2.0, 3),
        (16, "two_point:0.3:0.5:1.5", 1.1, 1),
    ],
)
def test_lower_bound_is_the_certificate_trace(n, dist, gamma, seed):
    """The best cut's value is summed off the diagonal its certificate holds,
    so the certificate's restored trace never falls below the lower bound."""
    g, _ = gen_planted(n, WeightDistribution.parse(dist), gamma, seed=seed)
    sol = solve_min_trace(g, max_iter=300)
    assert sol.lower_bound == float(sol.certificate.diag_shift.sum())


def _solved(rows) -> list[int]:
    """The iterations that eigensolve, read off the on_iteration rows: the
    first, and each one after an iterate with lambda_min < 0."""
    return [1] + [t + 1 for t, _, lam, _ in rows[:-1] if lam < 0]


def test_polish_runs_once_per_distinct_rounding(monkeypatch):
    g, _ = gen_planted(12, WeightDistribution.parse("uniform:0.5:1.5"), 1.0, seed=1)
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
    # a key equal only to itself, so the dual polishes every rounding
    monkeypatch.setattr(dualsdp, "_rounding_key", lambda u: object())
    every, every_rows = run()
    # the fast path polishes W's spectral cut first, whatever the keys
    assert polished[0] == every[0] == spectral_partition(g)
    assert len(every) == 1 + len(_solved(every_rows))  # one rounding per eigensolve
    # each distinct rounding is polished once, in the order it first appears
    assert polished[1:] == list(dict.fromkeys(every[1:]))
    assert len(polished) < len(every)
    assert rows == every_rows


# --- reference loop: one Cut per iteration ---
#
# solve_min_trace as it was before it keyed roundings by their sign bytes,
# kept as the ground truth for the loop; only DualSolution, polish_cut and
# build_certificate are qualified, so counting them counts both solvers, and
# a cut's value is the sum of its kernel diagonal, from the same
# build_diagonal_from_cut as the certificate's.  It keeps the eigenpair
# across the step after a feasible iterate as solve_min_trace does;
# reuse=False solves every iterate afresh instead.  In front of the loop it
# tries the fast path, W's own spectral cut, and returns at iteration 1 if
# that cut's certificate alone proves it maximal; fast=False runs the loop
# alone.


def _reference_solve_min_trace(
    g, tol=dualsdp.DEFAULT_TOL, max_iter=dualsdp.DEFAULT_MAX_ITER, on_iteration=None,
    reuse=True, fast=True,
):
    if g.n < 1:
        raise ValidationError("graph must be nonempty")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    n, w = g.n, g.weights
    rho = 2.0 * n
    degrees = w.sum(axis=1)
    step0 = max(1.0, float(degrees.mean())) / math.sqrt(n)

    if fast:
        cut = dualsdp.polish_cut(g, _sign_cut(eigen_smallest_two(w)[1]))
        certificate = dualsdp.build_certificate(g, cut)
        val = float(certificate.diag_shift.sum())
        lam = certificate.lambda_n
        trace_c = val + n * max(0.0, -lam)
        gap = trace_c - val
        if trace_c < float(degrees.sum()) and gap <= tol * max(1.0, abs(trace_c)):
            if on_iteration is not None:
                on_iteration(1, trace_c, lam, gap)
            return dualsdp.DualSolution(
                d=certificate.diag_shift + max(0.0, -lam),
                trace=trace_c,
                lambda_min=max(lam, 0.0),
                lower_bound=val,
                gap=gap,
                iterations=1,
                converged=True,
                best_cut=cut,
                certificate=certificate,
            )

    d = degrees.copy()
    best_d = d.copy()
    best_trace = float(d.sum())
    best_lambda = 0.0
    lower = -math.inf
    best_cut = certificate = None  # iteration 1 scores a cut, and any value beats -inf
    converged = False
    iterations = 0
    scored: set[Cut] = set()

    def consider_cut(rounded: Cut) -> None:
        nonlocal lower, best_cut, certificate, best_d, best_trace, best_lambda
        if rounded in scored:
            return
        scored.add(rounded)
        cut = dualsdp.polish_cut(g, rounded)
        val = float(build_diagonal_from_cut(g, cut).sum())
        if val <= lower:
            return
        lower = val
        best_cut = cut
        # The kernel diagonal of this cut is the tightest certificate it can
        # get; adopt it whenever it is (restorably) feasible and better.
        certificate = dualsdp.build_certificate(g, cut)
        dc, lam = certificate.diag_shift, certificate.lambda_n
        shift = max(0.0, -lam)
        trace_c = val + n * shift
        if trace_c < best_trace:
            best_d = dc + shift
            best_trace = trace_c
            best_lambda = max(lam, 0.0)

    solve = True
    for t in range(1, max_iter + 1):
        iterations = t
        if solve or not reuse:
            lam, u, _ = eigen_smallest_two(_shifted(g, d))
        shift = max(0.0, -lam)
        trace_f = float(d.sum()) + n * shift
        if trace_f < best_trace:
            best_d = d + shift
            best_trace = trace_f
            best_lambda = max(lam, 0.0)

        consider_cut(_sign_cut(u))

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
        solve = lam < 0
        if not solve:
            lam -= step0 / math.sqrt(t)

    gap = best_trace - lower
    return dualsdp.DualSolution(
        d=best_d,
        trace=best_trace,
        lambda_min=best_lambda,
        lower_bound=lower,
        gap=gap,
        iterations=iterations,
        converged=converged,
        best_cut=best_cut,
        certificate=certificate,
    )


def _bits(x):
    """x as comparable bytes: floats and arrays by their bits, so -0.0 and
    NaN compare exactly, and dataclasses field by field."""
    if dataclasses.is_dataclass(x):
        return tuple((f.name, _bits(getattr(x, f.name))) for f in dataclasses.fields(x))
    a = np.asarray(x)
    return a.dtype.str, a.shape, a.tobytes()


def assert_matches_reference_loop(g: WeightedGraph, **kwargs) -> list:
    """Run both loops on g; the iteration rows and every DualSolution field
    agree bit for bit.  Returns the rows."""
    rows, ref_rows = [], []
    sol = solve_min_trace(g, on_iteration=lambda *row: rows.append(row), **kwargs)
    ref = _reference_solve_min_trace(g, on_iteration=lambda *row: ref_rows.append(row), **kwargs)
    assert [_bits(row) for row in rows] == [_bits(row) for row in ref_rows]
    for field in dataclasses.fields(ref):
        got, want = getattr(sol, field.name), getattr(ref, field.name)
        assert _bits(got) == _bits(want), field.name
    return rows


@settings(max_examples=40, deadline=None)
@given(graphs_and_cuts(), st.sampled_from([dualsdp.DEFAULT_TOL, 0.0]))
@example((WeightedGraph(np.zeros((1, 1))), Cut(np.ones(1))), dualsdp.DEFAULT_TOL)
@example((WeightedGraph(np.zeros((4, 4))), Cut(np.ones(4))), 0.0)
def test_loop_matches_reference(gc, tol):
    assert_matches_reference_loop(gc[0], tol=tol, max_iter=150)


@pytest.mark.parametrize(
    "n, dist, gamma, seed",
    [
        (12, "uniform:0.5:1.5", 1.0, 1),
        (14, "uniform:0.5:1.5", 1.1, 2),
        (16, "uniform:0.5:1.5", 1.25, 3),
        (12, "two_point:0.3:0.5:1.5", 1.2, 4),
        (16, "constant:0.7", 1.0, 5),
        # solve-stable-large sizes, each certified at iteration 1
        (100, "uniform:0.5:1.5", 2.0, 6),
        (200, "uniform:0.5:1.5", 4.0, 7),
        (200, "constant:0.7", 2.0, 8),
    ],
)
def test_loop_matches_reference_on_planted(n, dist, gamma, seed):
    g, _ = gen_planted(n, WeightDistribution.parse(dist), gamma, seed=seed)
    assert_matches_reference_loop(g, max_iter=300)


@pytest.mark.parametrize("max_iter", [1, 2, 40])
def test_loop_matches_reference_on_small_graphs(max_iter, unit_triangle, triangle):
    one = WeightedGraph(np.zeros((1, 1)))
    edgeless = WeightedGraph(np.zeros((5, 5)))
    for g in (one, edgeless, triangle):
        assert_matches_reference_loop(g, max_iter=max_iter)
    rows = assert_matches_reference_loop(unit_triangle, max_iter=max_iter)
    # the gap never closes; the first iterate is feasible, so its step is all
    # ones, and longer runs also step by ones - rho * u^2 where lam < 0
    lams = [row[2] for row in rows]
    assert len(lams) == max_iter and lams[0] >= 0
    assert min(lams) < 0 or max_iter < 3


@pytest.mark.parametrize("max_iter", [1, 40, 400])
def test_failed_fast_path_costs_one_polish_and_one_certificate(max_iter, unit_triangle, monkeypatch):
    # the unit triangle is never certified, so the fast path's spectral cut
    # is dropped: the run is the loop alone's, bit for bit, plus that cut's
    # one polish and one certificate
    calls = []
    for name in ("polish_cut", "build_certificate"):
        counted = getattr(dualsdp, name)
        monkeypatch.setattr(dualsdp, name, lambda *a, name=name, f=counted: calls.append(name) or f(*a))
    rows, loop_rows = [], []
    sol = solve_min_trace(unit_triangle, max_iter=max_iter, on_iteration=lambda *row: rows.append(row))
    made = collections.Counter(calls)
    calls.clear()
    loop = _reference_solve_min_trace(
        unit_triangle, max_iter=max_iter, on_iteration=lambda *row: loop_rows.append(row), fast=False
    )
    assert not sol.converged and sol.iterations == max_iter
    assert made == {name: k + 1 for name, k in collections.Counter(calls).items()}
    assert [_bits(row) for row in rows] == [_bits(row) for row in loop_rows]
    assert _bits(sol) == _bits(loop)


# --- the eigenpair kept across a feasible iterate's step ---


@pytest.mark.parametrize(
    "graph",
    [
        "unit_triangle",
        (12, "uniform:0.5:1.5", 1.0, 1),
        (14, "uniform:0.5:1.5", 1.1, 2),
        (16, "two_point:0.3:0.5:1.5", 1.0, 3),
        (16, "uniform:0.5:1.5", 1.0, 4),
    ],
)
def test_reused_iterate_is_an_eigenpair_of_its_matrix(graph, monkeypatch, request):
    if graph == "unit_triangle":
        g = request.getfixturevalue(graph)
    else:
        n, dist, gamma, seed = graph
        g, _ = gen_planted(n, WeightDistribution.parse(dist), gamma, seed=seed)
    solves, rows = [], []
    solve = dualsdp.eigen_smallest_two

    def recording(m):
        solves.append((m.diagonal().copy(), solve(m)))
        return solves[-1][1]

    monkeypatch.setattr(dualsdp, "eigen_smallest_two", recording)
    solve_min_trace(g, max_iter=1000, on_iteration=lambda *row: rows.append(row + (len(solves),)))
    before = [0] + [row[-1] for row in rows]
    solved_at = [row[0] for row, k in zip(rows, before) if row[-1] > k]
    assert solved_at == _solved([row[:4] for row in rows]) and len(solved_at) == len(solves)

    # replay the iterates d from the solver's step, checked against the
    # diagonal of every matrix it solves
    n = g.n
    ones = np.ones(n)
    step0 = max(1.0, float(g.weights.sum(axis=1).mean())) / math.sqrt(n)
    d = g.weights.sum(axis=1)
    for (t, _, lam, _, k), k_before in zip(rows, before):
        if k > k_before:
            diag, (lam_solved, u, _) = solves[k - 1]
            assert _bits(diag) == _bits(d) and lam == lam_solved
        else:
            m = _shifted(g, d)
            norm = float(np.abs(m).sum(axis=1).max())
            assert abs(lam - eigen_smallest_two(m)[0]) <= 1e-12 * norm
            assert float(np.abs(m @ u - lam * u).max()) <= 1e-9 * norm
        step = step0 / math.sqrt(t)
        d = d - step * (ones - 2.0 * n * (u * u)) if lam < 0 else d - step * ones
    assert len(rows) == 1000 and len(solves) < 900


@pytest.mark.parametrize("n", [6, 10, 16])
@pytest.mark.parametrize(
    "dist", ["uniform:0.5:1.5", "constant:1", "constant:0.7", "two_point:0.3:0.5:1.5"]
)
def test_reuse_matches_fresh_eigensolves_on_planted(n, dist):
    for gamma, seed in [(1.0, 0), (1.25, 1), (2.0, 2)]:
        g, _ = gen_planted(n, WeightDistribution.parse(dist), gamma, seed=seed)
        assert_matches_fresh_eigensolves(g, max_iter=300)


def test_reuse_matches_fresh_eigensolves_when_certified_late():
    # the dual certifies these at iteration 9 and 3, after reused iterates
    for g, iterations in [(random_weighted(7, 26, 1.0), 9), (random_weighted(7, 50, 0.3), 3)]:
        sol = assert_matches_fresh_eigensolves(g, max_iter=2000)
        assert sol.converged and sol.iterations == iterations


def test_fast_path_ends_at_iteration_1_where_the_loop_certifies_later():
    # a stated change: the loop alone certifies this graph at iteration 2,
    # and the fast path at iteration 1, with a cut of the same value
    g = random_weighted(9, 31, 0.3)
    loop = _reference_solve_min_trace(g, fast=False)
    sol = solve_min_trace(g)
    assert (loop.converged, loop.iterations, sol.converged, sol.iterations) == (True, 2, True, 1)
    assert sol.lower_bound == loop.lower_bound
    assert sol.best_cut == brute_force_max_cut(g)[0]


def assert_matches_fresh_eigensolves(g: WeightedGraph, **kwargs) -> dualsdp.DualSolution:
    """solve_min_trace and the reference loop solving every iterate afresh
    agree on converged and iterations, and on the best cut's value when
    certified.  Returns solve_min_trace's answer."""
    sol = solve_min_trace(g, **kwargs)
    fresh = _reference_solve_min_trace(g, reuse=False, **kwargs)
    assert (sol.converged, sol.iterations) == (fresh.converged, fresh.iterations)
    if sol.converged:
        assert sol.lower_bound == fresh.lower_bound
    return sol
