import numpy as np
import pytest

from stablecut import WeightedGraph, loads_graph


@pytest.fixture
def k2():
    return loads_graph("2 1\n0 1 1\n")


@pytest.fixture
def p3():
    return loads_graph("3 2\n0 1 1\n1 2 1\n")


@pytest.fixture
def c4():
    return loads_graph("4 4\n0 1 1\n1 2 1\n2 3 1\n0 3 1\n")


@pytest.fixture
def triangle():
    # w01=2, w12=3, w02=1: max cut {1} vs {0,2} with value 5, gamma*=2
    return loads_graph("3 3\n0 1 2\n1 2 3\n0 2 1\n")


@pytest.fixture
def unit_triangle():
    return WeightedGraph(np.ones((3, 3)) - np.eye(3))


def complete_bipartite(m: int) -> WeightedGraph:
    w = np.zeros((2 * m, 2 * m))
    w[:m, m:] = 1.0
    w[m:, :m] = 1.0
    return WeightedGraph(w)


@pytest.fixture
def k44():
    return complete_bipartite(4)


def random_weighted(n: int, seed: int, p: float = 0.5) -> WeightedGraph:
    """Random graph with uniform(0.5, 1.5) weights on a binomial edge set."""
    rng = np.random.Generator(np.random.Philox(seed))
    iu, ju = np.triu_indices(n, 1)
    present = rng.random(iu.size) < p
    weights = 0.5 + rng.random(iu.size)
    w = np.zeros((n, n))
    w[iu, ju] = present * weights
    w = w + w.T
    return WeightedGraph(w)
