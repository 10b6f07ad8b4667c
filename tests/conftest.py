"""Shared fixtures: small deterministic graphs covering distinct regimes."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.compiledsim import runtime

from repro.graph.builder import (
    complete_graph,
    cycle_graph,
    empty_graph,
    from_edges,
    path_graph,
    star_graph,
)
from repro.graph.generators import (
    erdos_renyi,
    grid2d,
    random_bipartite,
    rmat_graph,
    triangular_mesh,
)
from repro.graph.generators.rmat import G_PARAMS


def pytest_sessionstart(session):
    # Resolve the kernel tier before any test runs, so the one-time
    # fallback warning (C tier masked or unbuildable) never lands inside
    # a test that turns warnings into errors.
    runtime.get_kernels()


@contextmanager
def numpy_tier_masked():
    """Run the block on the NumPy reference tier, the C tier masked."""
    saved = runtime._resolved
    runtime._resolved = ("numpy", None)
    try:
        yield
    finally:
        runtime._resolved = saved


@pytest.fixture
def numpy_tier():
    """Mask the memoized simulator tier to pure NumPy for one test."""
    with numpy_tier_masked():
        yield


@pytest.fixture
def k5():
    return complete_graph(5)


@pytest.fixture
def c6():
    return cycle_graph(6)


@pytest.fixture
def c7():
    return cycle_graph(7)


@pytest.fixture
def p10():
    return path_graph(10)


@pytest.fixture
def star():
    return star_graph(8)


@pytest.fixture
def isolated():
    return empty_graph(12)


@pytest.fixture
def small_er():
    """~500 vertices, avg degree 8 — random regime."""
    return erdos_renyi(500, 8.0, seed=11)


@pytest.fixture
def small_rmat():
    """Skewed degree distribution — hub regime."""
    return rmat_graph(9, 8.0, G_PARAMS, seed=3, name="rmat-test")


@pytest.fixture
def small_mesh():
    """2D grid — the natural-order mesh regime (worst for speculation)."""
    return grid2d(24, 24)


@pytest.fixture
def small_trimesh():
    return triangular_mesh(16, 16)


@pytest.fixture
def small_bipartite():
    """2-colorable oracle graph."""
    return random_bipartite(200, 200, 6.0, seed=5)


@pytest.fixture
def tiny_known():
    """The Fig. 2 example graph: chromatic number exactly 3."""
    # 0-1, 0-2, 1-2 triangle plus pendant structure.
    return from_edges(
        np.array([0, 0, 1, 1, 2, 3]),
        np.array([1, 2, 2, 3, 4, 4]),
        num_vertices=5,
        name="fig2",
    )


#: All graph fixtures the cross-scheme properness matrix runs on.
GRAPH_FIXTURES = [
    "k5",
    "c6",
    "c7",
    "star",
    "isolated",
    "small_er",
    "small_rmat",
    "small_mesh",
    "small_bipartite",
]


@pytest.fixture
def any_graph(request):
    """Indirect fixture: parametrize over GRAPH_FIXTURES by name."""
    return request.getfixturevalue(request.param)
