"""Property tests: bitmask mex ≡ sort mex ≡ naive reference, all regimes.

The bitmask kernel is the default hot path; the sort kernel is the
historical formulation kept as its wide-palette fallback.  Both must be
byte-identical to each other and to a per-segment Python reference across
empty segments, zero (uncolored) entries, palettes past one and two words
(>64 and >128 colors), every fallback crossover, and the unsorted-segment
stream distance-2 feeds them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.base import COLOR_DTYPE
from repro.coloring.kernels import (
    DEFAULT_MEX_WORDS,
    _mex_bitmask,
    _mex_sort,
    _parse_mex_strategy,
    mex_strategy,
    min_excluded_colors,
    set_mex_strategy,
)

from .conftest import numpy_tier_masked


def _mex_reference(seg_ids, colors, n):
    """Naive per-segment Python mex (ground truth)."""
    out = np.ones(n, dtype=np.int64)
    for s in range(n):
        used = set(colors[seg_ids == s].tolist()) - {0}
        c = 1
        while c in used:
            c += 1
        out[s] = c
    return out


STRATEGIES = ("sort", "bitmask", "bitmask:1", "bitmask:2", "bitmask:64")


def _assert_all_strategies_match(seg, cols, n):
    # The process tier (the C mex unless masked) first, then every
    # strategy on the NumPy tier, the only one they steer.
    want = _mex_reference(seg, cols, n)
    got = min_excluded_colors(seg, cols, n)
    assert got.dtype == COLOR_DTYPE
    assert np.array_equal(got, want), f"process tier: {got} != {want}"
    with numpy_tier_masked():
        for spec in STRATEGIES:
            with mex_strategy(spec):
                got = min_excluded_colors(seg, cols, n)
            assert got.dtype == COLOR_DTYPE, spec
            assert np.array_equal(got, want), f"{spec}: {got} != {want}"


# ------------------------------------------------------------- properties
@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        # Colors up to 200 exercise >64 and >128 palettes (3+ words) and,
        # against bitmask:1 / bitmask:2, both sides of the fallback
        # crossover in one run.
        st.tuples(st.integers(0, 9), st.integers(0, 200)),
        min_size=0,
        max_size=120,
    )
)
def test_strategies_agree_sorted_segments(pairs):
    pairs = sorted(pairs, key=lambda p: p[0])
    seg = np.array([p[0] for p in pairs], dtype=np.int64)
    cols = np.array([p[1] for p in pairs], dtype=np.int64)
    _assert_all_strategies_match(seg, cols, 10)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 150)),
        min_size=1,
        max_size=80,
    ),
    st.randoms(use_true_random=False),
)
def test_strategies_agree_unsorted_segments(pairs, rng):
    # Unsorted seg ids (distance-2's concatenated two-hop stream): the
    # bitmask kernel must detect this and take its exact fallback.
    rng.shuffle(pairs)
    seg = np.array([p[0] for p in pairs], dtype=np.int64)
    cols = np.array([p[1] for p in pairs], dtype=np.int64)
    _assert_all_strategies_match(seg, cols, 8)


@settings(max_examples=40, deadline=None)
@given(st.integers(60, 140), st.integers(1, 4))
def test_dense_prefix_crosses_word_boundaries(prefix_len, words):
    # A segment holding exactly colors 1..k answers k+1 — the all-bits-set
    # early words and the lowest-zero-bit extraction around 64/128.
    seg = np.zeros(prefix_len, dtype=np.int64)
    cols = np.arange(1, prefix_len + 1, dtype=np.int64)
    want = _mex_reference(seg, cols, 1)
    got = _mex_bitmask(seg, cols, 1, max_words=words)
    assert np.array_equal(got, want)
    assert np.array_equal(_mex_sort(seg, cols, 1), want)


# ---------------------------------------------------------------- edges
def test_empty_stream_all_strategies(numpy_tier):
    empty = np.empty(0, dtype=np.int64)
    for spec in STRATEGIES:
        with mex_strategy(spec):
            assert list(min_excluded_colors(empty, empty, 3)) == [1, 1, 1]
            assert min_excluded_colors(empty, empty, 0).size == 0


def test_all_zero_colors():
    seg = np.array([0, 0, 2], dtype=np.int64)
    cols = np.zeros(3, dtype=np.int64)
    _assert_all_strategies_match(seg, cols, 3)


def test_absent_segments_get_color_one():
    seg = np.array([1, 1], dtype=np.int64)
    cols = np.array([1, 2], dtype=np.int64)
    _assert_all_strategies_match(seg, cols, 4)


def test_fallback_crossover_exact_boundary():
    # 64 colors fit one word; 65 colors need two.  bitmask:1 must fall
    # back on the second case and still agree.
    for cmax in (63, 64, 65, 128, 129):
        seg = np.zeros(cmax, dtype=np.int64)
        cols = np.arange(1, cmax + 1, dtype=np.int64)
        want = _mex_reference(seg, cols, 1)
        for words in (1, 2, 3):
            assert np.array_equal(_mex_bitmask(seg, cols, 1, words), want)


# ------------------------------------------------------------- strategy API
def test_parse_strategy_spellings():
    assert _parse_mex_strategy("sort") == ("sort", 0)
    assert _parse_mex_strategy("bitmask") == ("bitmask", DEFAULT_MEX_WORDS)
    assert _parse_mex_strategy("bitmask:3") == ("bitmask", 3)
    assert _parse_mex_strategy(("bitmask", 5)) == ("bitmask", 5)


def test_parse_strategy_rejects_unknown():
    with pytest.raises(ValueError, match="unknown mex strategy"):
        _parse_mex_strategy("radix")
    with pytest.raises(ValueError, match=">= 1"):
        _parse_mex_strategy("bitmask:0")


def test_context_manager_restores_previous(numpy_tier):
    before = set_mex_strategy("bitmask")  # normalize, remember default
    try:
        with mex_strategy("sort"):
            with mex_strategy("bitmask:2"):
                pass
            # Inner exit restored the outer override, not the default.
            seg = np.array([0], dtype=np.int64)
            assert min_excluded_colors(seg, np.array([1]), 1)[0] == 2
        assert set_mex_strategy("bitmask") == ("bitmask", DEFAULT_MEX_WORDS)
    finally:
        set_mex_strategy(before)


def test_color_graph_mex_option_byte_identical(numpy_tier):
    # mex= steers the NumPy tier only; the C tier has one exact mex.
    from repro.coloring.api import color_graph
    from repro.graph.generators import erdos_renyi

    g = erdos_renyi(300, 0.05, seed=7)
    base = color_graph(g, "data-ldg")
    for spec in ("sort", "bitmask:1"):
        alt = color_graph(g, "data-ldg", mex=spec)
        assert np.array_equal(alt.colors, base.colors)
        assert alt.iterations == base.iterations
        assert alt.gpu_time_us == base.gpu_time_us
