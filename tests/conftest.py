import numpy as np
import pytest

from friendbias import build_graph


@pytest.fixture
def path3():
    return build_graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def star3():
    return build_graph(4, [(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def triangle():
    return build_graph(3, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def cycle4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def complete4():
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture
def fig_a():
    # non-regular connected graph whose nb average bias vanishes at k=3
    return build_graph(5, [(0, 1), (1, 2), (2, 0), (1, 3), (1, 4), (4, 3)])


@pytest.fixture
def fig_b():
    # two 4-cycles sharing a vertex: nb average bias vanishes at k=4
    return build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 0),
                           (2, 4), (4, 5), (5, 6), (6, 2)])


def dense_transition(g):
    """Dense simple-walk transition matrix, for matrix-power oracles."""
    A = np.zeros((g.n, g.n))
    np.add.at(A, (g.tails, g.heads), 1.0)
    return A / A.sum(axis=1, keepdims=True)
