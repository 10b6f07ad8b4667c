"""Compile-and-load for the C kernel tier.

Builds :data:`repro.compiledsim.csrc.KERNELS_C` into a shared library
with the system C compiler and binds it through :mod:`ctypes`.  The
build is disk-cached: the library lands in a per-user cache directory
keyed by a hash of the source (plus compiler identity and flags), so a
machine pays the ~1 s compile exactly once.

Everything here degrades by returning ``None``/raising into the tier
probe in :mod:`repro.compiledsim.runtime`; no hard dependency on a
compiler being present.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from .csrc import KERNELS_C, SOURCE_VERSION

__all__ = ["load_kernels", "cache_dir", "CCBuildError"]

_COMPILERS = ("cc", "gcc", "clang")
_CFLAGS = ["-O3", "-march=native", "-fPIC", "-shared", "-fvisibility=hidden"]


class CCBuildError(RuntimeError):
    """The C tier could not be built (no compiler, or compile failed)."""


def cache_dir() -> Path:
    """Directory holding cached kernel libraries (override via env)."""
    env = os.environ.get("REPRO_COMPILED_CACHE")
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro" / "compiledsim"


def _find_compiler() -> str | None:
    env = os.environ.get("CC")
    if env and shutil.which(env):
        return env
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def _source_tag(compiler: str) -> str:
    """Cache key of one build: source, compiler and its flags."""
    h = hashlib.sha256()
    h.update(f"v{SOURCE_VERSION}:{compiler}:{' '.join(_CFLAGS)}:".encode())
    h.update(KERNELS_C.encode())
    return h.hexdigest()[:16]


def _lib_suffix() -> str:
    return ".dylib" if sys.platform == "darwin" else ".so"


def _build(compiler: str, out_path: Path) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="repro-cc-") as tmp:
        src = Path(tmp) / "kernels.c"
        src.write_text(KERNELS_C, encoding="utf-8")
        tmp_out = Path(tmp) / out_path.name
        cmd = [compiler, *_CFLAGS, str(src), "-o", str(tmp_out)]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise CCBuildError(
                f"kernel compile failed ({' '.join(cmd)}):\n{proc.stderr}"
            )
        # Atomic publish so concurrent workers never load a half-written
        # library; the loser of the race just overwrites with identical
        # bytes.
        stage = out_path.with_name(out_path.name + f".{os.getpid()}.tmp")
        shutil.copy2(tmp_out, stage)
        os.replace(stage, out_path)


_I64P = ctypes.POINTER(ctypes.c_int64)
_I32P = ctypes.POINTER(ctypes.c_int32)
_U64P = ctypes.POINTER(ctypes.c_uint64)
_U8P = ctypes.POINTER(ctypes.c_uint8)
_I64 = ctypes.c_int64

#: name -> (restype, argtypes)
_SIGNATURES = {
    "mex_sorted": (None, [_I64P, _I32P, _I64, _I64, _I32P, _U64P, _I64, _U64P]),
    "waved_color": (
        None,
        [_I64P, _I64, _I64P, _I32P, _I64P, _I64P, _I64,
         _I32P, _I32P, _U64P, _I64, _U64P],
    ),
    "detect_conflicts_full": (None, [_I64P, _I32P, _I32P, _I64, _U8P]),
    "detect_conflicts_subset": (None, [_I64P, _I64P, _I32P, _I32P, _I64, _U8P]),
    "reuse_prev_i32": (
        _I64, [_I32P, _I64, _I64P, _I64P, _I64P, _I64P, _I64P, _I64, _I64],
    ),
    "reuse_prev_i64": (
        _I64, [_I64P, _I64, _I64P, _I64P, _I64P, _I64P, _I64P, _I64, _I64],
    ),
    "issue_order": (None, [_I64P, _I64, _I64P, _I64P, _I64P, _I64P]),
    "first_occurrences": (
        _I64,
        [_I64P, _I64, _I64P, _I64P, _I64P, _I64P, _I64P, _I64, _I64,
         _I64P, _I64P, _I64P, _I64P],
    ),
    "pack_mask": (_I64, [_U8P, _I64, _I64P]),
}

_DBL = ctypes.c_double
_DBLP = ctypes.POINTER(ctypes.c_double)

_SIGNATURES["first_occ3"] = (
    _I64,
    [_I32P, _I64P, _I64P, _I64, _I64, _I64, _I64,
     _I64P, _I64P, _I64P, _I64P, _I64P, _I64P],
)

for _suf, _lp in (("i32", _I32P), ("i64", _I64P)):
    _SIGNATURES[f"walk_stats_{_suf}"] = (
        None, [_U8P, _I32P, _lp, _I64, _I64, _I64, _I64, _I64P, _I64P],
    )
    _SIGNATURES[f"walk_ro_{_suf}"] = (
        _I64,
        [_I64P, _U8P, _lp, _I32P, _I64, _I64, _I64,
         _I64P, _I64P, _I64P, _I64],
    )
    _SIGNATURES[f"walk_l2_{_suf}"] = (
        None,
        [_I64P, _U8P, _lp, _I32P, _I64, _I64, _I64, _I64,
         _U8P, _DBLP, _DBL, _I64P, _U8P, _I64P, _I64P, _I64, _I64P],
    )

for _wp, _sp in (("w32", _I32P), ("w64", _I64P)):
    for _st, _stp in (("s32", _I32P), ("s64", _I64P)):
        _SIGNATURES[f"order3_{_wp}{_st}"] = (
            None,
            [_I32P, _sp, _stp, _I64, _I64, _I64, _I64,
             _I64P, _I64P, _I64P, _I64P, _I64P],
        )

_SIGNATURES["emit_coalesced"] = (
    _I64,
    [_I32P, _I64P, _I64, _I64P, _I32P, _I32P,
     _I64, _I64, _I64, _I64, _I64, _I64,
     _I64P, _I64P, _I64P, _I64P, _I64P,
     _U8P, _I32P, _I32P, _I32P, _I32P, _I32P],
)
_SIGNATURES["merge_order_i32"] = (
    _I64,
    [_I32P, _I32P, _I32P, _I64P, _I64, _I64, _I64,
     _I64P, _I64P, _I64P, _I64P],
)


def _bind(lib: ctypes.CDLL) -> dict:
    fns = {}
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
        fns[name] = fn
    return fns


def load_kernels() -> dict:
    """Build (if needed) and bind the C kernels; raises CCBuildError."""
    compiler = _find_compiler()
    if compiler is None:
        raise CCBuildError("no C compiler found (tried $CC, cc, gcc, clang)")
    tag = _source_tag(compiler)
    lib_path = cache_dir() / f"kernels-{tag}{_lib_suffix()}"
    if not lib_path.exists():
        _build(compiler, lib_path)
    try:
        lib = ctypes.CDLL(str(lib_path))
    except OSError:
        # Stale/corrupt cache entry (e.g. interrupted publish on an old
        # kernel): rebuild once.
        lib_path.unlink(missing_ok=True)
        _build(compiler, lib_path)
        lib = ctypes.CDLL(str(lib_path))
    return _bind(lib)
