"""Content-addressed result cache for coloring runs.

A run is fully determined by (graph topology, scheme, resolved options,
device preset) — the simulation is deterministic — so repeated
benchmark/CI runs of identical jobs can skip the round loop entirely.
:func:`job_cache_key` hashes those four components (the graph through
:meth:`~repro.graph.csr.CSRGraph.content_digest`, the options resolved
against the typed scheme registry so ``{}`` and ``{"block_size": 128}``
share a key); :class:`ResultCache` stores results behind the key with an
in-memory LRU and an optional on-disk store that survives processes.

Wired into ``color_graph`` / ``color_many`` as ``cache=``:

=====================  ==================================================
``cache=None``         no caching (the default; byte-identical to before)
``cache="memory"``     fresh in-memory LRU (useful per long-lived script)
``cache="/some/dir"``  in-memory LRU backed by an on-disk store
``cache=ResultCache()``  your instance, shared/configured explicitly
=====================  ==================================================

Cached hits never re-enter the engine: no run span appears in an
attached trace — only a ``result-cache`` event — and the returned
result has ``cache_hit=True`` (see ``ColoringResult.to_dict``).
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ..coloring.base import COLOR_DTYPE, ColoringResult
from ..coloring.registry import ENGINE_KEYWORDS, SCHEMES
from ..engine.backend import canonical_backend
from ..runscope import note_degradation

__all__ = [
    "ResultCache",
    "clone_result",
    "job_cache_key",
    "resolve_cache",
    "backend_fingerprint",
]

def backend_fingerprint(spec, backend_opts: dict | None = None) -> str:
    """A stable string identifying the device preset a run executes on.

    ``None`` and ``"gpusim"`` share a fingerprint (both mean the default
    simulated K20c, as does the deprecated ``"compiled"`` alias); backend
    *instances* contribute their device configuration so ablation
    presets don't collide.  The kernel tier never enters it: both tiers
    produce the same results.
    """
    spec = canonical_backend(spec)
    if spec is None:
        spec = "gpusim"
    if isinstance(spec, str):
        opts = json.dumps(backend_opts or {}, sort_keys=True, default=repr)
        return f"{spec}:{opts}"
    # Instances: name plus whatever configuration identifies the preset.
    name = getattr(spec, "name", type(spec).__name__)
    device = getattr(spec, "device", spec)
    config = getattr(device, "config", None)
    cores = getattr(getattr(spec, "cpu", None), "cores", None)
    return f"{name}:{config!r}:cores={cores}"


def job_cache_key(graph, method: str, options: dict | None = None,
                  backend=None, backend_opts: dict | None = None) -> str:
    """The content address of one coloring job.

    ``options`` are resolved against the typed scheme registry before
    hashing (defaults applied, engine keywords dropped), so spelling a
    default explicitly does not fork the key.
    """
    options = {
        k: v for k, v in (options or {}).items() if k not in ENGINE_KEYWORDS
    }
    info = SCHEMES.get(method)
    if info is not None:
        resolved = {name: default for name, default, _ in info.option_rows()}
        resolved.update(options)
    else:
        resolved = dict(options)
    payload = json.dumps(
        {
            "graph": graph.content_digest(),
            "method": method,
            "options": {k: resolved[k] for k in sorted(resolved)},
            "backend": backend_fingerprint(backend, backend_opts),
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: ``extra`` keys never persisted into the cache (run-local handles).
_EPHEMERAL_EXTRA = ("observation", "cache_hit", "robustness")


def _strip_extra(extra: dict) -> dict:
    return {k: v for k, v in dict(extra).items() if k not in _EPHEMERAL_EXTRA}


def clone_result(result: ColoringResult, **extra_updates) -> ColoringResult:
    """An independent copy of ``result`` (fresh colors, stripped extras).

    Run-local handles (:data:`_EPHEMERAL_EXTRA`) are dropped and
    ``extra_updates`` merged in — the defensive-copy discipline the cache
    uses for hits, exposed for other sharers of one computed result (the
    service's request coalescing hands each follower a clone).
    """
    extra = _strip_extra(result.extra)
    extra.update(extra_updates)
    return ColoringResult(
        colors=result.colors.copy(),
        scheme=result.scheme,
        iterations=result.iterations,
        gpu_time_us=result.gpu_time_us,
        cpu_time_us=result.cpu_time_us,
        transfer_time_us=result.transfer_time_us,
        num_kernel_launches=result.num_kernel_launches,
        profiles=list(result.profiles),
        extra=extra,
    )


class ResultCache:
    """LRU result cache with an optional on-disk store.

    Parameters
    ----------
    max_entries:
        In-memory LRU capacity (least-recently-used eviction).
    directory:
        Optional on-disk store: one ``<key>.npz`` per entry (colors plus
        a JSON metadata sidecar inside the archive).  Disk entries are
        never evicted by this class; hits are promoted into the LRU.
        Non-JSON ``extra`` values are stringified on disk (best-effort
        metadata — the colors and counts round-trip exactly).

    A corrupt or truncated disk entry is never an exception and never a
    wrong-color hit: the load surfaces as a cache miss, the bad file is
    *quarantined* (renamed to ``<key>.npz.bad`` so it can't be re-read
    yet stays inspectable), and the next :meth:`put` rewrites the entry
    cleanly — the cache degradation chain (see docs/ROBUSTNESS.md).

    Counters ``hits`` / ``misses`` / ``evictions`` / ``stores`` /
    ``quarantined`` report effectiveness; :meth:`stats` snapshots them.
    """

    def __init__(self, max_entries: int = 128, directory=None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._memory: OrderedDict[str, ColoringResult] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stores = 0
        self.quarantined = 0

    def __len__(self) -> int:
        return len(self._memory)

    def stats(self) -> dict:
        return {
            "entries": len(self._memory),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "directory": str(self.directory) if self.directory else None,
        }

    # ------------------------------------------------------------------
    def get(self, key: str) -> ColoringResult | None:
        """The cached result for ``key`` (a fresh copy), or ``None``.

        The copy's ``extra`` carries ``cache_hit=True``; colors are
        copied so callers can't corrupt the cached entry.
        """
        entry = self._memory.get(key)
        if entry is None and self.directory is not None:
            entry = self._disk_get(key)
            if entry is not None:
                self._memory_put(key, entry)
        if entry is None:
            self.misses += 1
            return None
        self._memory.move_to_end(key)
        self.hits += 1
        return self._copy(entry, cache_hit=True)

    def put(self, key: str, result: ColoringResult) -> None:
        """Store ``result`` under ``key`` (memory, plus disk if configured)."""
        entry = self._copy(result)
        self._memory_put(key, entry)
        if self.directory is not None:
            self._disk_put(key, entry)
        self.stores += 1

    # ------------------------------------------------------------------
    def _copy(self, result: ColoringResult, *, cache_hit: bool = False) -> ColoringResult:
        if cache_hit:
            return clone_result(result, cache_hit=True)
        return clone_result(result)

    def _memory_put(self, key: str, entry: ColoringResult) -> None:
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
            self.evictions += 1

    # -- on-disk store ---------------------------------------------------
    def _disk_path(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    def _disk_put(self, key: str, entry: ColoringResult) -> None:
        meta = {
            "scheme": entry.scheme,
            "iterations": entry.iterations,
            "gpu_time_us": entry.gpu_time_us,
            "cpu_time_us": entry.cpu_time_us,
            "transfer_time_us": entry.transfer_time_us,
            "num_kernel_launches": entry.num_kernel_launches,
            "extra": json.loads(json.dumps(_strip_extra(entry.extra), default=str)),
        }
        path = self._disk_path(key)
        tmp = path.with_suffix(".tmp.npz")
        np.savez_compressed(tmp, colors=entry.colors,
                            meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8))
        tmp.replace(path)

    def _disk_get(self, key: str) -> ColoringResult | None:
        path = self._disk_path(key)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                colors = data["colors"].astype(COLOR_DTYPE)
                meta = json.loads(bytes(data["meta"].tobytes()).decode("utf-8"))
        except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
            # Corrupt/truncated/foreign file: a miss, never an exception.
            self._quarantine(path, exc)
            return None
        return ColoringResult(
            colors=colors,
            scheme=meta["scheme"],
            iterations=int(meta["iterations"]),
            gpu_time_us=float(meta["gpu_time_us"]),
            cpu_time_us=float(meta["cpu_time_us"]),
            transfer_time_us=float(meta["transfer_time_us"]),
            num_kernel_launches=int(meta["num_kernel_launches"]),
            extra=dict(meta.get("extra", {})),
        )

    def _quarantine(self, path: Path, exc: Exception) -> None:
        """Move a bad disk entry aside so it can't be re-read.

        ``<key>.npz`` → ``<key>.npz.bad`` (overwriting any previous
        quarantine of the same key).  Failure to rename — e.g. a
        read-only store — still leaves the load a clean miss.
        """
        bad = path.with_name(path.name + ".bad")
        try:
            path.replace(bad)
        except OSError:
            return
        self.quarantined += 1
        note_degradation(
            "cache", "disk-hit", "miss", "corrupt-entry",
            f"{path.name}: {type(exc).__name__}: {exc}",
        )

    def corrupt_disk_entry(self, key: str) -> bool:
        """Overwrite ``key``'s disk entry with garbage bytes (chaos hook).

        The ``cache-corrupt`` injection site and the regression tests use
        this to prove corrupt entries degrade to quarantined misses.
        Returns whether an entry existed to corrupt; the in-memory copy
        is dropped too, so the next :meth:`get` must go to disk.
        """
        self._memory.pop(key, None)
        if self.directory is None:
            return False
        path = self._disk_path(key)
        if not path.exists():
            return False
        path.write_bytes(b"not an npz: injected corruption")
        return True


def resolve_cache(spec) -> ResultCache | None:
    """Normalize any accepted ``cache=`` value.

    ``None`` → no cache; ``"memory"`` → fresh in-memory LRU; a path
    string / ``Path`` → LRU backed by that directory; a
    :class:`ResultCache` → itself.
    """
    if spec is None:
        return None
    if isinstance(spec, ResultCache):
        return spec
    if isinstance(spec, (str, Path)):
        if spec == "memory":
            return ResultCache()
        return ResultCache(directory=spec)
    raise TypeError(
        f"cannot interpret {spec!r} as a result cache: expected None, "
        f"'memory', a directory path, or a ResultCache"
    )
