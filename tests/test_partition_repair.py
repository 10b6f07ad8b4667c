"""The vectorized boundary repair of :mod:`repro.parallel.partitioned`.

Each Jacobi round recolors every loser with one segmented mex over the
pre-round colors, and later rounds rescan only the recolored rows; the
round cap's sequential sweep runs as one-vertex waves.  The oracle is
the per-vertex loop the repair replaced (one ``np.unique`` mex per loser
and a full edge scan every round), kept here verbatim: colors, rounds,
recolored counts and the fallback flag must match it exactly, on both
kernel tiers.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import color_distributed, color_sharded, rmat_er
from repro.graph.builder import from_edges
from repro.graph.io import read_csr_bin, write_csr_bin
from repro.parallel import color_streamed, partitioned
from repro.parallel.partitioned import (
    PartitionedRun,
    jacobi_recolor,
    rescan_losers,
    sweep_recolor,
)
from repro.resilience import DeadlineExceeded

_fixture_ok = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _oracle_mex(neighbor_colors):
    """Smallest positive color absent from ``neighbor_colors``."""
    used = np.unique(neighbor_colors[neighbor_colors > 0])
    color = 1
    for c in used:
        if c == color:
            color += 1
        elif c > color:
            break
    return color


def _oracle_resolve(self):
    """The per-vertex repair loop: full scan and one mex per loser."""
    src, ex, graph = self.source, self.exchange, self.graph
    base = src.num_pieces if src.sequential else 0
    while True:
        if self.control is not None:
            self.control.check(ex.where)
        self.storm(self.rounds, ex.phase, ex.where)
        losers, conflicted = src.find_losers(self.colors)
        if not conflicted:
            return
        ex.check(self)
        if self.rounds >= self.max_rounds:
            self.fallback = True
            if self.robustness is not None:
                self.robustness.degrade(
                    *src.cap_chain, "sequential-sweep", "round-cap",
                    f"rounds={self.rounds} conflicted_edges={conflicted}",
                )
        reads = self.colors if self.fallback else self.colors.copy()
        for w in losers:
            self.colors[w] = _oracle_mex(reads[graph.neighbors(w)])
        self.recolored += int(losers.size)
        if self.fallback:
            return
        self.rounds += 1
        ex.after_round(self, losers)
        self.save(base + self.rounds, "repair")


def _full_scan(graph, colors):
    u, v = graph.edge_endpoints()
    bad = colors[u] == colors[v]
    return np.unique(np.maximum(u[bad], v[bad])), int(np.count_nonzero(bad))


def _same_losers(got, want):
    (gl, gc), (wl, wc) = got, want
    empty = np.empty(0, dtype=np.int64)
    return gc == wc and np.array_equal(
        empty if gl is None else gl, empty if wl is None else wl
    )


@st.composite
def graphs(draw, max_n=48, max_m=200):
    """Simple symmetric graphs, dense enough that cuts conflict."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    u = np.asarray(draw(ends), dtype=np.int64)
    v = np.asarray(draw(ends), dtype=np.int64)
    return from_edges(u, v, num_vertices=n, name="hyp")


@st.composite
def colored_graphs(draw):
    """A graph with an arbitrary (conflicting) complete coloring."""
    graph = draw(graphs())
    palette = draw(st.integers(1, 6))
    colors = np.asarray(
        draw(st.lists(st.integers(1, palette), min_size=graph.num_vertices,
                      max_size=graph.num_vertices)),
        dtype=np.int32,
    )
    return graph, colors


@pytest.fixture(params=["default", "numpy"])
def tier(request):
    """The process's kernel tier (C when it builds), then pure NumPy."""
    if request.param == "numpy":
        request.getfixturevalue("numpy_tier")
    return request.param


@pytest.fixture(params=[None, 1, 7])
def chunk(request, monkeypatch):
    """The repair's gather chunk: its default, then tiny ones."""
    if request.param is not None:
        monkeypatch.setattr(partitioned, "_ROW_CHUNK", request.param)
    return request.param


# ----------------------------------------------------------------------
# The three repair steps against their per-vertex oracles
# ----------------------------------------------------------------------
@_fixture_ok
@given(case=colored_graphs(), data=st.data())
def test_jacobi_recolor_is_the_snapshot_mex(tier, chunk, case, data):
    graph, colors = case
    losers = np.asarray(sorted(data.draw(st.sets(
        st.integers(0, graph.num_vertices - 1)))), dtype=np.int64)
    want = colors.copy()
    for w in losers:
        want[w] = _oracle_mex(colors[graph.neighbors(w)])
    jacobi_recolor(graph, colors, losers)
    assert colors.tobytes() == want.tobytes()


@_fixture_ok
@given(case=colored_graphs(), data=st.data())
def test_sweep_recolor_reads_live_colors(tier, chunk, case, data):
    graph, colors = case
    losers = np.asarray(sorted(data.draw(st.sets(
        st.integers(0, graph.num_vertices - 1)))), dtype=np.int64)
    want = colors.copy()
    for w in losers:
        want[w] = _oracle_mex(want[graph.neighbors(w)])
    sweep_recolor(graph, colors, losers)
    assert colors.tobytes() == want.tobytes()


@_fixture_ok
@given(case=colored_graphs())
def test_rescan_of_recolored_rows_equals_a_full_scan(tier, chunk, case):
    graph, colors = case
    for _ in range(4):  # a few Jacobi rounds, each rescanned
        losers, conflicted = _full_scan(graph, colors)
        if not conflicted:
            break
        jacobi_recolor(graph, colors, losers)
        assert _same_losers(rescan_losers(graph, colors, losers),
                            _full_scan(graph, colors))


# ----------------------------------------------------------------------
# Whole runs against the oracle loop
# ----------------------------------------------------------------------
def _stats(result):
    s = result.shard_stats
    return (result.colors.tobytes(), s["resolution_rounds"], s["recolored"],
            s["fallback"])


@_fixture_ok
@given(graph=graphs(), pieces=st.integers(1, 8),
       max_rounds=st.sampled_from([0, 1, 2, 16]))
def test_repair_matches_the_per_vertex_loop(tier, graph, pieces, max_rounds):
    def run():
        return color_sharded(graph, "data-ldg", num_shards=pieces,
                             max_resolution_rounds=max_rounds)

    got = _stats(run())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PartitionedRun, "_resolve", _oracle_resolve)
        want = _stats(run())
    assert got == want


# ----------------------------------------------------------------------
# Incremental rescans against each source's full find_losers
# ----------------------------------------------------------------------
@pytest.fixture
def scans(monkeypatch):
    """Record every ``_scan`` and check incremental ones against the
    source's full scan of the same colors."""
    calls = []
    scan = PartitionedRun._scan

    def checked(self, recolored):
        got = scan(self, recolored)
        calls.append(recolored is None)
        if recolored is not None:
            assert _same_losers(got, self.source.find_losers(self.colors))
        return got

    monkeypatch.setattr(PartitionedRun, "_scan", checked)
    return calls


@pytest.fixture(scope="module")
def g():
    return rmat_er(scale=10, seed=5)


PATHS = {
    "sharded": lambda g, **kw: color_sharded(g, "data-ldg", num_shards=8, **kw),
    "streamed": lambda g, **kw: color_streamed(
        g, "data-ldg", num_windows=8, **kw),
    "distributed-speculative": lambda g, **kw: color_distributed(
        g, "data-ldg", devices=8, transport="local", **kw),
}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_every_incremental_rescan_equals_the_full_scan(path, g, scans):
    result = PATHS[path](g)
    rounds = result.shard_stats["resolution_rounds"]
    assert rounds >= 2
    # One full scan, then one rescan per Jacobi round (the last finds none).
    assert scans == [True] + [False] * rounds


@pytest.mark.parametrize("path", ["sharded", "streamed"])
def test_resume_mid_repair_starts_with_a_full_scan(path, g, tmp_path):
    healthy = PATHS[path](g)
    ckpt = str(tmp_path / f"{path}.ckpt")
    with pytest.raises(DeadlineExceeded):
        PATHS[path](g, checkpoint=ckpt,
                    faults="seed=1; deadline-storm: round=2, phase=repair")
    calls = []
    scan = PartitionedRun._scan

    def recorded(self, recolored):
        calls.append(recolored is None)
        return scan(self, recolored)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PartitionedRun, "_scan", recorded)
        resumed = PATHS[path](g, resume=ckpt)
    assert resumed.robustness["resumed"]["phase"] == "repair"
    assert calls[0] and not any(calls[1:])
    assert _stats(resumed) == _stats(healthy)


# ----------------------------------------------------------------------
# The streamed path's bounded memory
# ----------------------------------------------------------------------
def test_streamed_repair_builds_no_whole_graph_expansion(g, tmp_path):
    path = write_csr_bin(g, tmp_path / "g.csrbin")
    disk = read_csr_bin(path, mmap=True, validate=False, name=g.name)
    result = color_streamed(disk, "data-ldg", num_windows=8)
    assert result.shard_stats["resolution_rounds"] >= 1
    assert "_expansion_plan" not in disk.__dict__


@pytest.mark.parametrize("max_rounds", [0, 16])
def test_tiny_chunks_give_identical_colors(g, monkeypatch, max_rounds):
    want = _stats(color_streamed(g, "data-ldg", num_windows=8,
                                 max_resolution_rounds=max_rounds))
    monkeypatch.setattr(partitioned, "_ROW_CHUNK", 3)
    got = _stats(color_streamed(g, "data-ldg", num_windows=8,
                                max_resolution_rounds=max_rounds))
    assert got == want
