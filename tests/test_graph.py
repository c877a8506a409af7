import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablecut import (
    Cut,
    DimensionError,
    Perturbation,
    ValidationError,
    WeightedGraph,
    apply_perturbation,
    cut_value,
    dumps_graph,
    loads_graph,
    merge_vertices,
    weighted_degrees,
)

from conftest import random_weighted


def test_validation_rejects_bad_matrices():
    with pytest.raises(ValidationError):
        WeightedGraph(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValidationError):
        WeightedGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative
    with pytest.raises(ValidationError):
        WeightedGraph(np.array([[1.0, 1.0], [1.0, 0.0]]))  # nonzero diagonal
    with pytest.raises(ValidationError):
        WeightedGraph(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_validation_rejects_non_finite_weights(bad):
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        WeightedGraph(w)


def test_graph_is_immutable(k2):
    with pytest.raises(ValueError):
        k2.weights[0, 1] = 5.0


def test_cut_canonical_form():
    c = Cut(np.array([-1, 1, -1]))
    assert c.signs.tolist() == [1, -1, 1]
    assert Cut(np.array([1, -1, 1])) == c
    with pytest.raises(ValidationError):
        Cut(np.array([1, 0, -1]))


def test_cut_value_examples(k2, triangle):
    assert cut_value(k2, Cut(np.array([1, -1]))) == 1.0
    assert cut_value(k2, Cut(np.array([1, 1]))) == 0.0
    assert cut_value(triangle, Cut(np.array([-1, 1, -1]))) == 5.0


def test_cut_value_dimension_error(k2):
    with pytest.raises(DimensionError):
        cut_value(k2, Cut(np.array([1, -1, 1])))


def test_weighted_degrees(k2, triangle, c4):
    s = weighted_degrees(k2)
    assert s.weighted.tolist() == [1.0, 1.0]
    assert s.min_weighted == 1.0 and s.max_simple == 1 and s.min_simple == 1
    s = weighted_degrees(triangle)
    assert s.weighted.tolist() == [3.0, 5.0, 4.0]
    assert s.min_weighted == 3.0
    s = weighted_degrees(c4)
    assert s.max_simple == 2 and s.min_simple == 2


def test_apply_perturbation(k2, triangle):
    same = apply_perturbation(k2, Perturbation.uniform(2, 1.0))
    assert np.array_equal(same.weights, k2.weights)
    doubled = apply_perturbation(k2, Perturbation.uniform(2, 2.0))
    assert doubled.weights[0, 1] == 2.0
    f = np.ones((3, 3))
    f[0, 2] = f[2, 0] = 2.0
    perturbed = apply_perturbation(triangle, Perturbation(f, 2.0))
    assert perturbed.weights[0, 2] == 2.0
    # both {1} and {2} now reach value 5
    assert cut_value(perturbed, Cut(np.array([-1, 1, -1]))) == 5.0
    assert cut_value(perturbed, Cut(np.array([-1, -1, 1]))) == 5.0


def test_perturbation_factor_out_of_range(k2):
    with pytest.raises(ValidationError):
        apply_perturbation(k2, Perturbation(np.full((2, 2), 3.0), 2.0))
    with pytest.raises(ValidationError):
        apply_perturbation(k2, Perturbation(np.full((2, 2), 0.5), 2.0))


def test_merge_vertices_path_and_cycle(p3, c4):
    merged, idx = merge_vertices(p3, 0, 2)
    assert merged.n == 2
    assert merged.weights[0, 1] == 2.0
    assert idx.tolist() == [0, 1, 0]

    merged, idx = merge_vertices(c4, 0, 2)
    assert merged.n == 3
    assert merged.weights[idx[0], idx[1]] == 2.0
    assert merged.weights[idx[0], idx[3]] == 2.0
    assert merged.weights[idx[1], idx[3]] == 0.0


def test_merge_same_vertex_fails(c4):
    with pytest.raises(ValidationError):
        merge_vertices(c4, 0, 0)


def test_merge_drops_merged_edge(k2):
    merged, idx = merge_vertices(k2, 0, 1)
    assert merged.n == 1
    assert merged.weights.sum() == 0.0


@st.composite
def graph_and_cut(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    g = random_weighted(n, seed)
    signs = np.array([draw(st.sampled_from([-1, 1])) for _ in range(n)], dtype=np.int8)
    return g, Cut(signs)


@settings(max_examples=60, deadline=None)
@given(graph_and_cut())
def test_cut_negation_symmetry(gc):
    g, c = gc
    assert cut_value(g, c) == cut_value(g, Cut(-c.signs))


@settings(max_examples=60, deadline=None)
@given(graph_and_cut(), st.integers(min_value=0, max_value=2**31))
def test_perturbation_monotone(gc, seed):
    g, c = gc
    rng = np.random.Generator(np.random.Philox(seed))
    up = np.triu(1.0 + rng.random((g.n, g.n)), 1)
    f = up + up.T
    np.fill_diagonal(f, 1.0)
    perturbed = apply_perturbation(g, Perturbation(f, 2.0))
    assert cut_value(perturbed, c) >= cut_value(g, c) - 1e-12


@settings(max_examples=60, deadline=None)
@given(graph_and_cut())
def test_merge_preserves_cut_values(gc):
    g, _ = gc
    merged, idx = merge_vertices(g, 0, g.n - 1)
    for mask in range(1 << (merged.n - 1)) if merged.n <= 6 else []:
        signs = np.ones(merged.n, dtype=np.int8)
        for v in range(1, merged.n):
            if (mask >> (v - 1)) & 1:
                signs[v] = -1
        small = Cut(signs)
        lifted = Cut(signs[idx])
        merged_value = cut_value(merged, small)
        lifted_value = cut_value(g, lifted)
        assert merged_value == pytest.approx(lifted_value, rel=1e-12, abs=1e-12)


def test_file_roundtrip_is_byte_exact(triangle):
    text = dumps_graph(triangle)
    assert text == "3 3\n0 1 2.0\n0 2 1.0\n1 2 3.0\n"
    assert dumps_graph(loads_graph(text)) == text


def test_file_roundtrip_random():
    for seed in range(5):
        g = random_weighted(7, seed)
        text = dumps_graph(g)
        assert dumps_graph(loads_graph(text)) == text


def test_load_accepts_comments_and_rejects_junk():
    g = loads_graph("# a comment\n2 1\n0 1 1.5\n")
    assert g.weights[0, 1] == 1.5
    with pytest.raises(ValidationError):
        loads_graph("2 1\n1 0 1.0\n")  # u >= v
    with pytest.raises(ValidationError):
        loads_graph("3 2\n0 1 1.0\n0 1 2.0\n")  # duplicate
    with pytest.raises(ValidationError, match="vertex pairs"):
        loads_graph("2 2\n0 1 1.0\n0 1 2.0\n")  # more edges than vertex pairs
    with pytest.raises(ValidationError):
        loads_graph("2 1\n0 1 0.0\n")  # nonpositive weight
    with pytest.raises(ValidationError):
        loads_graph("2 1\n0 1 1.0\n0 1 1.0\n")  # count mismatch
    with pytest.raises(ValidationError):
        loads_graph("")
