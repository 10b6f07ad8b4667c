"""Tier resolution for the simulator's compiled kernels.

The simulator runs its hot loop bodies on one of two tiers, resolved
lazily, once per process, the first time a kernel asks (never at
import):

1. **cc** — the compiled kernels as C built with the system compiler
   and bound via ctypes (:mod:`.cc`), with an on-disk ``.so`` cache.
   This is how the simulator runs whenever the build (or the cached
   library) loads.
2. **numpy** — no compiled kernels at all: dispatch hooks return
   ``None`` and every call site runs its vectorized reference path.
   Reaching it emits a one-time :class:`RuntimeWarning`.

``REPRO_COMPILED_DISABLE`` is a comma list of tiers to treat as
unavailable; ``cc`` masks the C tier and exercises the NumPy reference
path.  Both tiers produce byte-identical colors and simulated timings.
"""

from __future__ import annotations

import ctypes
import os
import threading
import warnings

import numpy as np

__all__ = ["get_kernels", "kernels", "current_tier", "warmup"]

_resolved: tuple[str, dict | None] | None = None
_resolve_lock = threading.Lock()
_warned_fallback = False


def _disabled() -> frozenset:
    raw = os.environ.get("REPRO_COMPILED_DISABLE", "")
    return frozenset(p.strip() for p in raw.split(",") if p.strip())


def _try_cc() -> dict | None:
    if "cc" in _disabled():
        return None
    from . import cc

    try:
        return _adapt_cc(cc.load_kernels())
    except cc.CCBuildError:
        return None


def _warn_fallback() -> None:
    global _warned_fallback
    if _warned_fallback:
        return
    _warned_fallback = True
    warnings.warn(
        "repro simulator: the C kernel tier is unavailable (no working C "
        "compiler, or masked by REPRO_COMPILED_DISABLE); falling back "
        "to the pure-NumPy kernels. Results are identical, only "
        "wall-clock speed differs.",
        RuntimeWarning,
        stacklevel=2,
    )


def get_kernels() -> tuple[str, dict | None]:
    """``(tier_name, kernel_table_or_None)``, resolved on first call."""
    global _resolved
    if _resolved is None:
        with _resolve_lock:  # commit_pair's pricing thread may race us
            if _resolved is None:
                table = _try_cc()
                if table is None:
                    _warn_fallback()
                _resolved = ("cc" if table is not None else "numpy", table)
    return _resolved


def kernels() -> dict | None:
    """The process's kernel table; ``None`` on the NumPy tier."""
    resolved = _resolved
    return (resolved if resolved is not None else get_kernels())[1]


def current_tier() -> str | None:
    """The resolved tier, or ``None`` if nothing has asked yet."""
    return _resolved[0] if _resolved is not None else None


def warmup() -> str:
    """Resolve the tier and run every kernel once on tiny inputs.

    Pays the one-off C build (or its disk-cache load) up front —
    the parallel scheduler calls this from its worker initializer so
    pool workers start hot.  Returns the resolved tier name.
    """
    tier, fns = get_kernels()
    if fns is None:
        return tier
    i64 = np.zeros(4, dtype=np.int64)
    i32 = np.zeros(4, dtype=np.int32)
    u64 = np.zeros(4, dtype=np.uint64)
    u8 = np.zeros(4, dtype=np.uint8)
    gen = np.ones(1, dtype=np.uint64)
    seg = np.array([0, 0, 1, 1], dtype=np.int64)
    cols = np.array([1, 2, 1, 3], dtype=np.int32)
    fns["mex_sorted"](seg, cols, 2, i32.copy(), u64.copy(), gen)
    fns["waved_color"](
        np.array([0, 1], dtype=np.int64), seg,
        np.array([1, 1, 0, 0], dtype=np.int32),
        np.array([0, 2], dtype=np.int64), np.array([0, 4], dtype=np.int64),
        np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.int32),
        u64.copy(), gen,
    )
    fns["detect_conflicts_full"](seg, i32, cols, u8.copy())
    fns["detect_conflicts_subset"](seg, i64, i32, cols, u8.copy())
    tk = np.empty(8, dtype=np.int64)
    tv = np.empty(8, dtype=np.int64)
    tg = np.zeros(8, dtype=np.int64)
    fns["reuse_prev_i32"](cols, i64.copy(), i64.copy(), tk, tv, tg, 1)
    fns["reuse_prev_i64"](seg, i64.copy(), i64.copy(), tk, tv, tg, 2)
    fns["issue_order"](seg, i64.copy(), i64.copy(), i64.copy(), i64.copy())
    fns["first_occurrences"](
        seg, i64.copy(), i64.copy(), i64.copy(), tk, tg, 3,
        i64.copy(), i64.copy(), i64.copy(), i64.copy(),
    )
    fns["pack_mask"](u8, i64.copy())
    kind = np.array([1, 2, 1, 3], dtype=np.uint8)
    smv = np.array([0, 0, 1, 0], dtype=np.int32)
    ordr = np.arange(4, dtype=np.int64)
    out3 = np.zeros(3, dtype=np.int64)
    fns["walk_stats"](kind, smv, cols, 2, 1, 3, np.zeros(2, np.int64),
                          out3)
    tv2 = np.empty(8, dtype=np.int64)
    tg2 = np.zeros(8, dtype=np.int64)
    fns["walk_ro"](ordr, kind, cols, smv, 1, 0, i64.copy(), tv2, tg2, 1)
    fns["walk_l2"](
        ordr, kind, cols, smv, 1, 2, 0, u8, np.zeros(4), 0.5,
        i64.copy(), u8.copy(), tv2, tg2, 2, np.zeros(2, np.int64),
    )
    # count buffers sized 1 << (total key bits): the radix may fuse all
    # components into a single digit.
    fns["order3"](np.zeros(4, np.int32), smv, cols, 1, 1, 2,
                      i64.copy(), i64.copy(), i64.copy(), i64.copy(),
                      np.zeros(16, np.int64))
    for stepv in (seg, None):
        fns["first_occ3"](
            smv, stepv, seg, 1, 1, 1, i64.copy(), i64.copy(), i64.copy(),
            i64.copy(), i64.copy(), np.zeros(8, np.int64),
        )
        fns["emit_coalesced"](
            smv, stepv, 0, seg, smv, np.zeros(4, np.int32), 1, 1, 1,
            1, 3, i64.copy(), i64.copy(), i64.copy(), i64.copy(),
            np.zeros(8, np.int64), np.zeros(4, np.uint8),
            np.zeros(4, np.int32), np.zeros(4, np.int32),
            np.zeros(4, np.int32), np.zeros(4, np.int32),
            np.zeros(4, np.int32),
        )
    fns["merge_order"](
        np.zeros(4, np.int32), np.sort(smv), np.zeros(4, np.int32),
        np.array([0, 2, 4], dtype=np.int64), 1, 2,
        i64.copy(), i64.copy(), i64.copy(), i64.copy(),
    )
    return tier


def _reset_for_tests() -> None:
    """Forget the memoized tier and the one-time warning flag."""
    global _resolved, _warned_fallback
    _resolved = None
    _warned_fallback = False


# ----------------------------------------------------------------------
# ctypes -> array-level adapter for the C tier
# ----------------------------------------------------------------------
_I64P = ctypes.POINTER(ctypes.c_int64)
_I32P = ctypes.POINTER(ctypes.c_int32)
_U64P = ctypes.POINTER(ctypes.c_uint64)
_U8P = ctypes.POINTER(ctypes.c_uint8)
_DBLP = ctypes.POINTER(ctypes.c_double)


def _p64(a):
    return a.ctypes.data_as(_I64P)


def _p32(a):
    return a.ctypes.data_as(_I32P)


def _pu64(a):
    return a.ctypes.data_as(_U64P)


def _pu8(a):
    return a.ctypes.data_as(_U8P)


def _adapt_cc(fns: dict) -> dict:
    """Wrap the raw ctypes bindings into the array-level convention."""

    def mex_sorted(seg, nbr_colors, num_segments, out, stamp, gen):
        fns["mex_sorted"](
            _p64(seg), _p32(nbr_colors), seg.shape[0], num_segments,
            _p32(out), _pu64(stamp), stamp.shape[0], _pu64(gen),
        )

    def waved_color(active_ids, seg, nbr, bounds, epos, colors, out,
                    stamp, gen):
        fns["waved_color"](
            _p64(active_ids), active_ids.shape[0], _p64(seg), _p32(nbr),
            _p64(bounds), _p64(epos), bounds.shape[0] - 1,
            _p32(colors), _p32(out), _pu64(stamp), stamp.shape[0],
            _pu64(gen),
        )

    def detect_conflicts_full(seg, nbr, colors, loser):
        fns["detect_conflicts_full"](
            _p64(seg), _p32(nbr), _p32(colors), seg.shape[0], _pu8(loser)
        )

    def detect_conflicts_subset(seg, scope_ids, nbr, colors, loser):
        fns["detect_conflicts_subset"](
            _p64(seg), _p64(scope_ids), _p32(nbr), _p32(colors),
            seg.shape[0], _pu8(loser),
        )

    def reuse_prev_i32(line, idx_out, prev_out, table_key, table_val,
                       table_gen, epoch):
        return fns["reuse_prev_i32"](
            _p32(line), line.shape[0], _p64(idx_out), _p64(prev_out),
            _p64(table_key), _p64(table_val), _p64(table_gen),
            table_key.shape[0], epoch,
        )

    def reuse_prev_i64(line, idx_out, prev_out, table_key, table_val,
                       table_gen, epoch):
        return fns["reuse_prev_i64"](
            _p64(line), line.shape[0], _p64(idx_out), _p64(prev_out),
            _p64(table_key), _p64(table_val), _p64(table_gen),
            table_key.shape[0], epoch,
        )

    def issue_order(key, perm, tmp_perm, key_buf, tmp_key):
        fns["issue_order"](
            _p64(key), key.shape[0], _p64(perm), _p64(tmp_perm),
            _p64(key_buf), _p64(tmp_key),
        )

    def first_occurrences(key, out_pos, ukey, upos, table_key, table_gen,
                          epoch, perm, tmp_perm, key_buf, tmp_key):
        return fns["first_occurrences"](
            _p64(key), key.shape[0], _p64(out_pos), _p64(ukey), _p64(upos),
            _p64(table_key), _p64(table_gen), table_key.shape[0], epoch,
            _p64(perm), _p64(tmp_perm), _p64(key_buf), _p64(tmp_key),
        )

    def pack_mask(mask_arr, out):
        return fns["pack_mask"](_pu8(mask_arr), mask_arr.shape[0], _p64(out))

    def first_occ3(warp, step, line, wb, sb, lb, sel_out, perm, tmp_perm,
                   key_buf, tmp_key, count):
        return fns["first_occ3"](
            _p32(warp), None if step is None else _p64(step), _p64(line),
            line.shape[0], wb, sb, lb, _p64(sel_out), _p64(perm),
            _p64(tmp_perm), _p64(key_buf), _p64(tmp_key), _p64(count),
        )

    def _pline(line):
        return _p32(line) if line.dtype == np.int32 else _p64(line)

    def _lsuf(line):
        return "i32" if line.dtype == np.int32 else "i64"

    def walk_stats(kind, sm, line, num_sms, ldg_code, atomic_code,
                   ldg_per_sm, out3):
        fns[f"walk_stats_{_lsuf(line)}"](
            _pu8(kind), _p32(sm), _pline(line), kind.shape[0], num_sms,
            ldg_code, atomic_code, _p64(ldg_per_sm), _p64(out3),
        )

    def walk_ro(order, kind, line, sm, ldg_code, rep_sm, gap_out,
                tval, tgen, epoch):
        return fns[f"walk_ro_{_lsuf(line)}"](
            _p64(order), _pu8(kind), _pline(line), _p32(sm),
            order.shape[0], ldg_code, rep_sm, _p64(gap_out),
            _p64(tval), _p64(tgen), epoch,
        )

    def walk_l2(order, kind, line, sm, ldg_code, store_code, rep_sm,
                rep_hits, draws, rate, l2_gap, l2_stall, tval, tgen,
                epoch, out2):
        fns[f"walk_l2_{_lsuf(line)}"](
            _p64(order), _pu8(kind), _pline(line), _p32(sm),
            order.shape[0], ldg_code, store_code, rep_sm,
            _pu8(rep_hits), draws.ctypes.data_as(_DBLP), rate,
            _p64(l2_gap), _pu8(l2_stall), _p64(tval), _p64(tgen),
            epoch, _p64(out2),
        )

    def order3(wave, warp, step, vb, wb, sb, perm, tmp_perm, key_buf,
               tmp_key, count):
        wsuf = "w32" if warp.dtype == np.int32 else "w64"
        ssuf = "s32" if step.dtype == np.int32 else "s64"
        wp = _p32(warp) if warp.dtype == np.int32 else _p64(warp)
        sp = _p32(step) if step.dtype == np.int32 else _p64(step)
        fns[f"order3_{wsuf}{ssuf}"](
            _p32(wave), wp, sp, wave.shape[0], vb, wb, sb, _p64(perm),
            _p64(tmp_perm), _p64(key_buf), _p64(tmp_key), _p64(count),
        )

    def emit_coalesced(warp, step, cstep, line, sm, wave, wb, sb, lb,
                       kind, seq_off, perm, tmp_perm, key_buf, tmp_key,
                       count, out_kind, out_line, out_sm, out_warp,
                       out_wave, out_step):
        return fns["emit_coalesced"](
            _p32(warp), None if step is None else _p64(step), cstep,
            _p64(line), _p32(sm), _p32(wave), line.shape[0], wb, sb, lb,
            kind, seq_off, _p64(perm), _p64(tmp_perm), _p64(key_buf),
            _p64(tmp_key), _p64(count), _pu8(out_kind), _p32(out_line),
            _p32(out_sm), _p32(out_warp), _p32(out_wave), _p32(out_step),
        )

    def merge_order(wave, warp, step, seg_off, wb, sb, heap_key,
                    heap_seg, pos, perm):
        return fns["merge_order_i32"](
            _p32(wave), _p32(warp), _p32(step), _p64(seg_off),
            seg_off.shape[0] - 1, wb, sb, _p64(heap_key), _p64(heap_seg),
            _p64(pos), _p64(perm),
        )

    return {
        "mex_sorted": mex_sorted,
        "waved_color": waved_color,
        "detect_conflicts_full": detect_conflicts_full,
        "detect_conflicts_subset": detect_conflicts_subset,
        "reuse_prev_i32": reuse_prev_i32,
        "reuse_prev_i64": reuse_prev_i64,
        "issue_order": issue_order,
        "first_occurrences": first_occurrences,
        "first_occ3": first_occ3,
        "pack_mask": pack_mask,
        "walk_stats": walk_stats,
        "walk_ro": walk_ro,
        "walk_l2": walk_l2,
        "order3": order3,
        "emit_coalesced": emit_coalesced,
        "merge_order": merge_order,
    }
