"""The simulator's two kernel tiers: byte-identity, fallback, the alias.

``gpusim`` runs its hot loop bodies on the C tier when it builds and on
the pure-NumPy reference paths otherwise.  The tier is a wall-clock
choice only: colors, iteration counts, and every simulated timing figure
must be byte-identical on both.  These tests hold it to that (the NumPy
side via the ``numpy_tier`` mask), cover the one-time fallback warning,
the deprecated ``backend='compiled'`` alias, and the unified ``config=``
surface.
"""

import dataclasses
import multiprocessing
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from repro import (
    ExecutionContext,
    ResultCache,
    RunConfig,
    color_graph,
    color_many,
    color_sharded,
    compiledsim,
    deprecation,
    from_edges,
    rmat_er,
)
from repro.coloring import kernels
from repro.compiledsim import cc, dispatch, runtime
from repro.engine.backend import BACKENDS, GpuSimBackend, resolve_backend
from repro.engine.config import normalize_config
from repro.graph.generators.suite import load_graph
from repro.parallel import ProcessPoolScheduler, color_streamed
from repro.parallel.cache import backend_fingerprint, job_cache_key

from .conftest import numpy_tier_masked

TIMING_FIELDS = (
    "iterations", "num_colors", "gpu_time_us", "cpu_time_us",
    "transfer_time_us", "num_kernel_launches",
)

ENGINE_METHODS = ["data-ldg", "data-base", "topo-ldg", "topo-base",
                  "csrcolor", "3step-gm", "data-lb", "data-ldg-lb"]


@pytest.fixture(scope="module")
def medium():
    return rmat_er(scale=11, seed=7)


@pytest.fixture(scope="module")
def small():
    return rmat_er(scale=8, seed=3)


@pytest.fixture
def fresh_alias_warning():
    """Re-arm the once-per-process ``backend='compiled'`` warning."""
    deprecation._reset_for_tests("backend-compiled")
    yield
    deprecation._reset_for_tests("backend-compiled")


def _assert_identical(ref, res):
    assert np.array_equal(ref.colors, res.colors)
    assert ref.colors.dtype == res.colors.dtype
    for field in TIMING_FIELDS:
        assert getattr(ref, field) == getattr(res, field), field
    assert ref.total_time_us == res.total_time_us


def _on_numpy(fn, *args, **kwargs):
    with numpy_tier_masked():
        return fn(*args, **kwargs)


# ----------------------------------------------------------------------
# byte-identity: the process tier vs the NumPy reference tier
# ----------------------------------------------------------------------

@pytest.mark.parametrize("method", ENGINE_METHODS)
def test_compiled_matches_gpusim_exactly(medium, method):
    ref = _on_numpy(color_graph, medium, method)
    _assert_identical(ref, color_graph(medium, method))


@pytest.mark.parametrize("method", ENGINE_METHODS)
@pytest.mark.parametrize("gname", ["rmat-er", "thermal2"])
def test_cpusim_identical_on_both_tiers(gname, method):
    graph = load_graph(gname, scale_div=256)
    ref = _on_numpy(color_graph, graph, method, backend="cpusim")
    _assert_identical(ref, color_graph(graph, method, backend="cpusim"))


def test_compiled_pricing_threads_do_not_share_scratch():
    """``Device.commit_pair`` prices on two threads and the C tier drops
    the GIL; shared scratch buffers made repeat runs crash or drift."""
    graph = load_graph("rmat-er", scale_div=16)
    ref = _on_numpy(color_graph, graph, "data-ldg", validate=False)
    assert round(ref.total_time_us, 3) == 429.527
    for _ in range(3):
        res = color_graph(graph, "data-ldg", validate=False)
        assert res.total_time_us == ref.total_time_us
        assert np.array_equal(res.colors, ref.colors)


def test_mex_stamp_scratch_starts_clean():
    """The C mex marks a color taken by stamping it with the call's
    generation; a stamp array taken from the heap unzeroed could hold
    words equal to a live generation.  In a fresh process this exact
    case colored vertex 1120 with 32 instead of 11 (32 colors, not 17)
    with the simulated time unchanged, so ``validate`` missed it.  What
    the heap holds depends on layout details, so the padding shifts it
    across several fresh processes."""
    code = (
        "from repro import color_graph, rmat_g\n"
        "g = rmat_g(scale=11, edge_factor=8.0, seed=99)\n"
        "r = color_graph(g, 'data-ldg', backend='compiled')\n"
        "print(r.num_colors, int(r.colors[1120]))\n"
    )
    for pad in (0, 32, 96, 160):
        out = subprocess.run(
            [sys.executable, "-c", f"pad = '{'x' * pad}'\n" + code],
            capture_output=True, text=True, timeout=300, check=True,
        ).stdout.split()
        assert out == ["17", "11"], pad


def test_mex_stamp_scratch_is_zeroed_when_allocated_and_grown():
    # A fresh thread gets fresh scratch; recycled heap words must not
    # survive into the first stamp array or into a grown one.
    def stamps():
        for _ in range(20):
            waste = [np.full(n, 7, dtype=np.uint64) for n in (64, 512, 4096)]
            del waste
        first = dispatch._stamp_for(5).copy()
        grown = dispatch._stamp_for(5000).copy()
        return first, grown

    out = {}
    thread = threading.Thread(target=lambda: out.update(v=stamps()))
    thread.start()
    thread.join(60)
    first, grown = out["v"]
    assert not first.any() and not grown.any()


@pytest.mark.parametrize("method", ["data-ldg", "topo-ldg"])
def test_compiled_on_degenerate_graphs(method):
    cases = [
        from_edges([], [], num_vertices=0, name="empty"),
        from_edges([], [], num_vertices=1, name="isolated"),
        from_edges([0] * 6, list(range(1, 7)), name="star"),
        from_edges(*np.triu_indices(9, k=1), name="k9"),
        from_edges([0, 1, 2], [1, 2, 0], num_vertices=64, name="sparse"),
    ]
    for graph in cases:
        ref = _on_numpy(color_graph, graph, method)
        _assert_identical(ref, color_graph(graph, method))


def test_compiled_backend_instance_and_registry(medium, fresh_alias_warning):
    """``"compiled"`` is a one-cycle alias: it warns once and builds the
    plain ``gpusim`` backend."""
    assert sorted(BACKENDS) == ["cpusim", "gpusim"]
    with pytest.warns(FutureWarning, match="backend='compiled' is deprecated"):
        backend = resolve_backend("compiled")
    assert type(backend) is GpuSimBackend and backend.name == "gpusim"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        resolve_backend("compiled")  # once per process
        res = color_graph(medium, "data-ldg", backend="compiled")
    _assert_identical(color_graph(medium, "data-ldg"), res)


def test_compiled_sharded_and_streamed_match(medium):
    ref = _on_numpy(color_sharded, medium, "data-ldg", num_shards=3)
    res = color_sharded(medium, "data-ldg", num_shards=3)
    assert np.array_equal(ref.colors, res.colors)
    assert ref.iterations == res.iterations
    assert ref.total_time_us == res.total_time_us

    ref_s = _on_numpy(color_streamed, medium, "data-ldg", num_windows=3)
    res_s = color_streamed(medium, "data-ldg", num_windows=3)
    assert np.array_equal(ref_s.colors, res_s.colors)
    assert ref_s.total_time_us == res_s.total_time_us


def test_compiled_color_many_parallel_matches(small):
    # Forked workers inherit the parent's memoized tier, so the masked
    # reference runs NumPy in its workers too.  The fork context is
    # explicit: a spawned or forkserver worker would resolve the C tier
    # itself and the test would compare that tier with itself.
    graphs = [small, rmat_er(scale=8, seed=5)]
    fork = multiprocessing.get_context("fork")
    with ProcessPoolScheduler(2, mp_context=fork) as pool:
        reference = _on_numpy(color_many, graphs, "data-ldg", scheduler=pool)
    results = color_many(graphs, "data-ldg", workers=2)
    for ref, res in zip(reference, results):
        assert np.array_equal(ref.colors, res.colors)
        assert ref.total_time_us == res.total_time_us


# ----------------------------------------------------------------------
# tier resolution and the NumPy fallback
# ----------------------------------------------------------------------

@pytest.fixture
def reset_tiers(monkeypatch):
    """Run a test against a clean tier memo, restoring it afterwards."""
    saved = runtime._resolved
    runtime._reset_for_tests()
    yield monkeypatch
    runtime._reset_for_tests()
    runtime._resolved = saved


def test_fallback_warns_once_with_identical_results(medium, reset_tiers):
    ref = _on_numpy(color_graph, medium, "data-ldg")
    reset_tiers.setenv("REPRO_COMPILED_DISABLE", "cc")
    with pytest.warns(RuntimeWarning, match="falling back to the pure-NumPy"):
        res = color_graph(medium, "data-ldg")
    assert runtime.current_tier() == "numpy"
    _assert_identical(ref, res)
    # One-time: a second run under the same fallback stays silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res2 = color_graph(medium, "data-ldg")
    _assert_identical(ref, res2)


def test_disabled_tiers_resolve_to_numpy(reset_tiers):
    reset_tiers.setenv("REPRO_COMPILED_DISABLE", "cc")
    with pytest.warns(RuntimeWarning):
        tier = compiledsim.warmup()
    assert tier == "numpy"
    assert runtime.current_tier() == "numpy"


def test_explicit_numpy_tier_is_silent(medium):
    """Masking the tier (the test fixture's way) warns nothing, changes
    nothing but wall-clock, and restores the process tier after."""
    tier = runtime.current_tier()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _on_numpy(color_graph, medium, "data-ldg")
    assert runtime.current_tier() == tier
    _assert_identical(color_graph(medium, "data-ldg"), res)


@pytest.fixture
def fresh_mex_warning(monkeypatch):
    """Re-arm the once-per-process "mex strategy ignored" warning."""
    monkeypatch.setattr(kernels, "_warned_mex_ignored", False)


def test_mex_option_on_c_tier_warns_once(small, fresh_mex_warning):
    if runtime.get_kernels()[0] != "cc":
        pytest.skip("C tier masked or unavailable")
    with pytest.warns(RuntimeWarning, match="steers only the NumPy"):
        res = color_graph(small, "data-ldg", mex="sort")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = color_graph(small, "data-ldg", mex="bitmask:1")
    _assert_identical(res, again)
    _assert_identical(res, color_graph(small, "data-ldg"))


def test_mex_option_on_numpy_tier_is_silent(small, numpy_tier, fresh_mex_warning):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = color_graph(small, "data-ldg", mex="sort")
    _assert_identical(res, color_graph(small, "data-ldg"))


def test_tier_resolves_lazily_not_at_import():
    code = (
        "import repro\n"
        "from repro.compiledsim import runtime\n"
        "print(runtime.current_tier())\n"
        "repro.color_graph(repro.rmat_er(scale=6, seed=1), 'data-ldg')\n"
        "print(runtime.current_tier())\n"
    )
    out = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", code], capture_output=True,
        text=True, timeout=300, check=True,
    ).stdout.split()
    assert out[0] == "None" and out[1] in ("cc", "numpy")


def test_removed_jit_option_is_rejected():
    with pytest.raises(TypeError, match="jit"):
        resolve_backend("gpusim", jit="cc")


def test_source_tag_covers_compiler_flags(monkeypatch):
    """A flag change (e.g. a sanitizer build) must never load a
    library cached under the old flags."""
    plain = cc._source_tag("cc")
    monkeypatch.setattr(cc, "_CFLAGS", [*cc._CFLAGS, "-fsanitize=address"])
    assert cc._source_tag("cc") != plain


def test_warmup_resolves_and_reports_a_real_tier():
    tier = compiledsim.warmup()
    assert tier in ("cc", "numpy")
    assert runtime.current_tier() == tier


def test_dispatch_declines_outside_scope(numpy_tier):
    # On the NumPy tier every dispatch hook returns None, so callers run
    # their vectorized reference paths.
    seg = np.zeros(4, dtype=np.int64)
    cols = np.ones(4, dtype=np.int32)
    assert runtime.kernels() is None
    assert dispatch.mex_sorted(seg, cols, 1) is None
    assert dispatch.pack_mask(np.ones(4, dtype=bool)) is None


# ----------------------------------------------------------------------
# RunConfig: the unified typed execution-option surface
# ----------------------------------------------------------------------

def test_runconfig_is_frozen_and_replace_derives():
    cfg = RunConfig(backend="cpusim", workers=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.backend = "gpusim"
    derived = cfg.replace(workers=None, observe="rounds")
    assert derived.backend == "cpusim"
    assert derived.workers is None and derived.observe == "rounds"
    assert cfg.workers == 2  # original untouched


def test_runconfig_replace_rejects_unknown_fields():
    with pytest.raises(TypeError, match="backend_opt"):
        RunConfig().replace(backend_opt={})


def test_runconfig_as_kwargs_drops_defaults():
    assert RunConfig().as_kwargs() == {}
    assert RunConfig(backend="cpusim").as_kwargs() == {
        "backend": "cpusim"
    }


def test_runconfig_from_mapping_did_you_mean():
    cfg = RunConfig.from_mapping({"backend": "gpusim", "workers": 4})
    assert cfg.backend == "gpusim" and cfg.workers == 4
    with pytest.raises(TypeError, match="did you mean 'backend'"):
        RunConfig.from_mapping({"backned": "gpusim"})


def test_config_equals_legacy_kwargs(medium):
    legacy = color_graph(medium, "data-ldg", backend="cpusim")
    via_config = color_graph(
        medium, "data-ldg", config=RunConfig(backend="cpusim")
    )
    via_mapping = color_graph(
        medium, "data-ldg", config={"backend": "cpusim"}
    )
    _assert_identical(legacy, via_config)
    _assert_identical(legacy, via_mapping)


def test_config_conflict_with_kwarg_raises(medium):
    with pytest.raises(TypeError, match=r"got 'backend' both ways"):
        color_graph(
            medium, "data-ldg",
            backend="gpusim", config=RunConfig(backend="cpusim"),
        )


def test_config_unsupported_field_names_entry_point(medium):
    # color_streamed has no cache= — the error names the entry point,
    # the field, and the escape hatch.
    cfg = RunConfig(backend="cpusim", cache=ResultCache())
    with pytest.raises(TypeError, match=r"color_streamed\(\) does not take"):
        color_streamed(medium, "data-ldg", num_windows=2, config=cfg)
    with pytest.raises(TypeError, match=r"config\.replace\(cache=None\)"):
        color_streamed(medium, "data-ldg", num_windows=2, config=cfg)


def test_config_accepted_by_context_and_batch_apis(medium):
    ref = color_graph(medium, "data-ldg")
    ctx = ExecutionContext(config=RunConfig(backend="gpusim"))
    _assert_identical(ref, ctx.run(medium, "data-ldg"))

    [batch] = color_many([medium], "data-ldg", config=RunConfig())
    _assert_identical(ref, batch)

    sharded = color_sharded(
        medium, "data-ldg", num_shards=2,
        config=RunConfig(backend="gpusim"),
    )
    sharded_ref = color_sharded(medium, "data-ldg", num_shards=2)
    assert np.array_equal(sharded.colors, sharded_ref.colors)


def test_normalize_config_passthrough_without_config():
    explicit = {"backend": "gpusim", "workers": None}
    assert normalize_config("f", None, explicit) == explicit


# ----------------------------------------------------------------------
# cache keys: config spelling and backend must not fork entries
# ----------------------------------------------------------------------

def test_compiled_shares_cache_fingerprint_with_gpusim(fresh_alias_warning):
    with pytest.warns(FutureWarning, match="backend='compiled'"):
        assert backend_fingerprint("compiled") == backend_fingerprint("gpusim")
    assert backend_fingerprint("compiled", {"seed": 1}) == \
        backend_fingerprint("gpusim", {"seed": 1})
    assert backend_fingerprint(None) == backend_fingerprint("gpusim")
    assert backend_fingerprint("cpusim") != backend_fingerprint("gpusim")


def test_job_cache_key_invariant_across_spellings(small):
    base = job_cache_key(small, "data-ldg", {}, None)
    assert job_cache_key(small, "data-ldg", {}, "gpusim") == base
    assert job_cache_key(small, "data-ldg", {}, "compiled") == base
    assert job_cache_key(small, "data-ldg", {}, "cpusim") != base


def test_compiled_run_hits_gpusim_cache_entry(small):
    cache = ResultCache()
    first = color_graph(small, "data-ldg", cache=cache)
    assert cache.misses == 1
    hit = color_graph(small, "data-ldg", cache=cache, backend="compiled")
    assert cache.hits == 1
    assert np.array_equal(first.colors, hit.colors)
    via_config = color_graph(
        small, "data-ldg", config=RunConfig(backend="compiled", cache=cache)
    )
    assert cache.hits == 2
    assert np.array_equal(first.colors, via_config.colors)


# ----------------------------------------------------------------------
# registry aliases and entry-point-tagged errors
# ----------------------------------------------------------------------

def test_method_aliases_resolve_everywhere(small):
    ref = color_graph(small, "data-ldg")
    assert np.array_equal(
        ref.colors, color_graph(small, "data_ldg").colors
    )
    assert np.array_equal(
        ref.colors, color_many([small], "data_ldg")[0].colors
    )


@pytest.mark.parametrize(
    ("call", "prefix"),
    [
        (lambda g: color_graph(g, "data-lgd"), "color_graph"),
        (lambda g: color_many([g], "data-lgd"), "color_many"),
        (lambda g: color_streamed(g, "data-lgd", num_windows=2),
         "color_streamed"),
    ],
)
def test_unknown_method_errors_name_their_entry_point(small, call, prefix):
    with pytest.raises(ValueError, match=rf"{prefix}\(\): unknown method"):
        call(small)
    with pytest.raises(ValueError, match=r"did you mean 'data-ldg'"):
        call(small)


def test_backend_opts_thread_through_color_graph(medium):
    res = color_graph(
        medium, "data-ldg", backend="gpusim", backend_opts={"seed": 0},
    )
    _assert_identical(color_graph(medium, "data-ldg"), res)
    with pytest.raises(TypeError, match="backend_opts"):
        color_graph(
            medium, "data-ldg",
            backend=resolve_backend("gpusim"), backend_opts={"seed": 1},
        )
