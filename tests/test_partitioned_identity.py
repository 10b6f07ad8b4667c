"""Byte-identity across the partitioned entry points, as one matrix.

``color_sharded``, ``color_streamed`` and ``color_distributed`` run one
protocol (:mod:`repro.parallel.partitioned`) over the same contiguous
vertex blocks, so at equal piece counts every mode — and every
transport and exchange mode of the distributed one — must return the
same color bytes, piece count, iteration count and repair rounds.  Piece
counts above the vertex count exercise the capping; empty and edgeless
graphs exercise the degenerate pieces.
"""

import functools
import multiprocessing

import numpy as np
import pytest

from repro import color_distributed, color_sharded, rmat_er
from repro.graph.builder import (
    complete_graph,
    empty_graph,
    path_graph,
    star_graph,
)
from repro.parallel import color_streamed

GRAPHS = {
    "empty0": lambda: empty_graph(0),
    "empty1": lambda: empty_graph(1),
    "empty5": lambda: empty_graph(5),
    "star9": lambda: star_graph(9),
    "k6": lambda: complete_graph(6),
    "path3": lambda: path_graph(3),
    "rmat12": lambda: rmat_er(scale=12, seed=5),
}

PIECES = (1, 4, 16)

_fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork",
    reason="pool transport runs rely on cheap fork workers",
)

MODES = {
    "streamed": lambda g, k: color_streamed(g, "data-ldg", num_windows=k),
    "distributed-local-speculate": lambda g, k: color_distributed(
        g, "data-ldg", devices=k, transport="local"),
    "distributed-local-lockstep": lambda g, k: color_distributed(
        g, "data-ldg", devices=k, transport="local", speculate=False),
    "distributed-pool-speculate": lambda g, k: color_distributed(
        g, "data-ldg", devices=k, transport="pool", workers=2),
    "distributed-pool-lockstep": lambda g, k: color_distributed(
        g, "data-ldg", devices=k, transport="pool", workers=2,
        speculate=False),
}


@functools.lru_cache(maxsize=None)
def _graph(name):
    return GRAPHS[name]()


@functools.lru_cache(maxsize=None)
def _sharded(name, pieces):
    return color_sharded(_graph(name), "data-ldg", num_shards=pieces)


@pytest.mark.parametrize("pieces", PIECES)
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("mode", [
    pytest.param(m, marks=_fork_only) if "pool" in m else m for m in MODES
])
def test_mode_matches_sharded(mode, graph_name, pieces):
    graph = _graph(graph_name)
    ref = _sharded(graph_name, pieces)
    res = MODES[mode](graph, pieces)
    assert res.colors.tobytes() == ref.colors.tobytes()
    assert res.shard_stats["num_shards"] == ref.shard_stats["num_shards"]
    assert res.iterations == ref.iterations
    assert (res.shard_stats["resolution_rounds"]
            == ref.shard_stats["resolution_rounds"])
    if graph.num_vertices:
        assert np.all(res.colors >= 1)
