"""The scheme registry: typed options and validation for every method key.

``color_graph(g, method, **kwargs)`` used to forward ``**kwargs`` blind —
a misspelled ``blocksize=256`` was silently swallowed by a lambda default
and the run quietly measured the wrong thing.  The registry closes that
hole: every method key maps to a :class:`SchemeInfo` carrying a frozen
*options dataclass* (its fields are the scheme's legal keywords, with
defaults and one-line docs), and :func:`validate_options` rejects unknown
keywords with a "did you mean" plus the scheme's valid-option listing.

The same metadata generates the scheme table in ``docs/API.md``
(:func:`scheme_table_markdown`; ``python -m repro.coloring.registry``
prints it for manual refreshes, and a test keeps the docs in sync).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field, fields
from typing import Any

__all__ = [
    "SchemeInfo",
    "SCHEMES",
    "ExecutionOptions",
    "ENGINE_KEYWORDS",
    "METHOD_ALIASES",
    "scheme_options",
    "resolve_method",
    "validate_options",
    "unknown_method_error",
    "scheme_table_markdown",
    "execution_table_markdown",
]


# ---------------------------------------------------------------------------
# Per-scheme typed option dataclasses.  Field defaults mirror the scheme
# functions' signatures exactly; metadata["doc"] feeds the docs table.
# ---------------------------------------------------------------------------
def _opt(default, doc: str):
    return field(default=default, metadata={"doc": doc})


@dataclass(frozen=True)
class ExecutionOptions:
    """Scheme-independent options the execution layer consumes.

    These keywords are legal on every method key; ``validate_options``
    never forwards them to a scheme, and the did-you-mean machinery
    suggests them for near-miss spellings.  The docs table is generated
    from this dataclass (:func:`execution_table_markdown`).
    """

    backend: Any = _opt(None, "execution substrate for device schemes: "
                              "'gpusim' (default), 'cpusim', or an "
                              "instance ('compiled' is a deprecated alias "
                              "of 'gpusim')")
    backend_opts: Any = _opt(None, "constructor kwargs for a string "
                                   "backend= spec (e.g. seed=, "
                                   "cache_model=); rejected alongside a "
                                   "backend *instance*")
    config: Any = _opt(None, "a RunConfig bundling the options on this "
                             "table; merged with explicit keywords, "
                             "setting one both ways is an error")
    device: Any = _opt(None, "legacy spelling: a Device wrapped in a GpuSimBackend")
    context: Any = _opt(None, "shared ExecutionContext (cached uploads, pooled buffers)")
    observe: Any = _opt(None, "observation surface: 'trace'/'profile'/'rounds', "
                              "a Tracer, a Recorder, or an Observation")
    workers: Any = _opt(None, "process-pool size for color_many "
                              "(None/0/1 = serial in-process)")
    scheduler: Any = _opt(None, "'serial', 'process', or a Scheduler instance "
                                "(default: inferred from workers=)")
    cache: Any = _opt(None, "content-addressed result cache: 'memory', a "
                            "directory path, or a ResultCache")
    store: Any = _opt(None, "graph arena for worker processes: 'heap' "
                            "(pickle, default), 'shm' (shared-memory "
                            "segments), 'mmap'/'mmap:<dir>' (on-disk "
                            "containers), or a GraphStore instance "
                            "(see docs/STORAGE.md)")
    mex: Any = _opt(None, "NumPy-tier forbidden-color kernel strategy: "
                          "'bitmask', 'bitmask:N' (word limit), or 'sort' "
                          "(results are identical; speed differs; the C "
                          "tier ignores it and warns once)")
    faults: Any = _opt(None, "fault-injection plan: a FaultPlan, a plan "
                             "spec string ('seed=7; site: k=v, ...'), or a "
                             "Robustness bundle (see docs/ROBUSTNESS.md)")
    health: Any = _opt(None, "guard-rail policy: 'strict', 'off', or a "
                             "HealthPolicy (watchdog, invariants, audit, "
                             "degradation chains)")
    devices: Any = _opt(None, "simulated device count for "
                              "color_distributed (one contiguous shard "
                              "per device; colors are identical across "
                              "device counts, so this never forks cache "
                              "keys)")
    topology: Any = _opt(None, "interconnect model pricing the halo "
                               "exchange: 'pcie' (shared bus), 'nvlink' "
                               "(all-to-all), 'ring', or a Topology "
                               "instance (cost model only; never enters "
                               "cache keys)")
    deadline_ms: Any = _opt(None, "wall-clock budget in milliseconds, "
                                  "checked cooperatively at round "
                                  "boundaries; expiry raises a structured "
                                  "DeadlineExceeded (never enters cache "
                                  "keys — see docs/ROBUSTNESS.md)")

    @classmethod
    def option_rows(cls) -> list[tuple[str, object, str]]:
        """(name, default, doc) per option, for tables and errors."""
        return [
            (f.name, f.default, f.metadata.get("doc", ""))
            for f in fields(cls)
        ]


#: Keywords consumed by the execution layer, never by a scheme —
#: derived from the typed :class:`ExecutionOptions` surface.
ENGINE_KEYWORDS = frozenset(f.name for f in fields(ExecutionOptions))


@dataclass(frozen=True)
class SequentialOptions:
    ordering: str = _opt("natural", "vertex visit order (key into ORDERINGS)")
    seed: int = _opt(0, "seed for randomized orderings")
    cpu: Any = _opt(None, "reuse a simulated CPU instance")


@dataclass(frozen=True)
class GmOptions:
    cores: Any = _opt(None, "OpenMP-style core count (None = unpriced reference)")


@dataclass(frozen=True)
class JpOptions:
    seed: int = _opt(0, "priority RNG seed")
    use_mex: bool = _opt(False, "smallest-available color instead of round number")


@dataclass(frozen=True)
class JpLfOptions:
    seed: int = _opt(0, "tie-break RNG seed")


@dataclass(frozen=True)
class JpGpuOptions:
    block_size: int = _opt(128, "CUDA thread-block size")
    seed: int = _opt(0, "priority RNG seed")


@dataclass(frozen=True)
class ThreeStepGMOptions:
    partition_size: int = _opt(512, "vertices per GPU partition (step 1)")
    block_size: int = _opt(128, "CUDA thread-block size")
    cpu: Any = _opt(None, "reuse a simulated CPU for step 3")


@dataclass(frozen=True)
class TopologyOptions:
    block_size: int = _opt(128, "CUDA thread-block size (Fig. 8 sweep)")
    conflict_scope: str = _opt("all", "'all' (Alg. 4 verbatim) or 'active'")
    conflict_parallelism: str = _opt("vertex", "'vertex' or 'edge' conflict kernel")


@dataclass(frozen=True)
class DataDrivenOptions:
    block_size: int = _opt(128, "CUDA thread-block size")
    worklist_strategy: str = _opt("scan", "'scan' (Fig. 5 optimized) or 'atomic'")
    load_balance: bool = _opt(False, "warp-centric hub processing")


@dataclass(frozen=True)
class DataDrivenLbOptions:
    block_size: int = _opt(128, "CUDA thread-block size")
    worklist_strategy: str = _opt("scan", "'scan' or 'atomic' worklist push")


@dataclass(frozen=True)
class CsrColorOptions:
    num_hashes: int = _opt(3, "hash functions per round (2N colors/round)")
    block_size: int = _opt(128, "CUDA thread-block size")
    seed: int = _opt(0, "hash-family seed")
    compare_all: bool = _opt(True, "compare against all neighbors (cuSPARSE) or active only")
    fraction: float = _opt(1.0, "stop electing at this colored fraction (fractionToColor)")


@dataclass(frozen=True)
class BalancedGreedyOptions:
    seed: int = _opt(0, "visit-order shuffle seed")


@dataclass(frozen=True)
class DsaturOptions:
    pass


@dataclass(frozen=True)
class IteratedGreedyOptions:
    initial: Any = _opt(None, "starting coloring (default: first-fit greedy)")
    iterations: int = _opt(8, "number of class-blocked repasses")
    seed: int = _opt(0, "class-shuffle seed")


@dataclass(frozen=True)
class SchemeInfo:
    """Registry row: everything the API layer knows about one method key."""

    name: str
    kind: str  # 'device' (engine-backed) | 'host' (functional/CPU-priced)
    options: type
    summary: str
    paper: str = ""  # paper anchor (algorithm/figure) when applicable

    def option_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self.options))

    def option_rows(self) -> list[tuple[str, object, str]]:
        """(name, default, doc) per option, for tables and errors."""
        return [
            (f.name, f.default, f.metadata.get("doc", ""))
            for f in fields(self.options)
        ]


#: The full method-key registry, in the order docs present them.
SCHEMES: dict[str, SchemeInfo] = {
    info.name: info
    for info in (
        SchemeInfo("sequential", "host", SequentialOptions,
                   "greedy on the simulated Xeon (the baseline)", "Alg. 1"),
        SchemeInfo("3step-gm", "device", ThreeStepGMOptions,
                   "Grosset et al. partition + CPU conflict resolution", "Fig. 1"),
        SchemeInfo("topo-base", "device", TopologyOptions,
                   "topology-driven speculative greedy", "Alg. 4"),
        SchemeInfo("topo-ldg", "device", TopologyOptions,
                   "topology-driven + read-only-cache loads", "Alg. 4 / Fig. 4"),
        SchemeInfo("data-base", "device", DataDrivenOptions,
                   "data-driven worklist + prefix-sum push", "Alg. 5"),
        SchemeInfo("data-ldg", "device", DataDrivenOptions,
                   "data-driven + __ldg (the paper's best)", "Alg. 5 / Fig. 4"),
        SchemeInfo("data-lb", "device", DataDrivenLbOptions,
                   "data-driven + warp-centric load balancing", "extension"),
        SchemeInfo("data-ldg-lb", "device", DataDrivenLbOptions,
                   "data-driven + __ldg + load balancing", "extension"),
        SchemeInfo("csrcolor", "device", CsrColorOptions,
                   "cuSPARSE multi-hash MIS election", "Fig. 6"),
        SchemeInfo("gm", "host", GmOptions,
                   "Gebremedhin-Manne speculation (functional reference)", "Alg. 2"),
        SchemeInfo("jp", "host", JpOptions,
                   "Jones-Plassmann random-priority MIS", "Alg. 3"),
        SchemeInfo("jp-lf", "host", JpLfOptions,
                   "PLF: largest-degree-first priorities", "Alg. 3"),
        SchemeInfo("jp-gpu", "device", JpGpuOptions,
                   "Jones-Plassmann priced on the simulated device", "extension"),
        SchemeInfo("balanced-greedy", "host", BalancedGreedyOptions,
                   "least-used-color greedy (balance extension)", "extension"),
        SchemeInfo("dsatur", "host", DsaturOptions,
                   "Brélaz saturation-degree greedy", "extension"),
        SchemeInfo("iterated-greedy", "host", IteratedGreedyOptions,
                   "Culberson class-blocked polish (non-increasing colors)",
                   "extension"),
    )
}


def scheme_options(method: str):
    """The typed options dataclass for one method key."""
    return SCHEMES[method].options


#: Accepted spellings for method keys beyond the canonical hyphenated
#: names: underscore twins (shell-completion and keyword-argument
#: friendly) plus historic names.  Every entry point resolves through
#: :func:`resolve_method`, so ``color_graph``, ``color_sharded`` and the
#: CLI accept (and reject) identical spellings with identical errors.
METHOD_ALIASES: dict[str, str] = {
    "data_base": "data-base",
    "data_lb": "data-lb",
    "data_ldg": "data-ldg",
    "data_ldg_lb": "data-ldg-lb",
    "topo_base": "topo-base",
    "topo_ldg": "topo-ldg",
    "jp_gpu": "jp-gpu",
    "jp_lf": "jp-lf",
    "3step_gm": "3step-gm",
    "balanced_greedy": "balanced-greedy",
    "iterated_greedy": "iterated-greedy",
    "csr-color": "csrcolor",
}


def resolve_method(method: str, known, *, entry_point: str | None = None) -> str:
    """Canonicalize ``method`` through :data:`METHOD_ALIASES`.

    Returns the canonical key; raises :func:`unknown_method_error` (with
    ``entry_point`` named) when neither the spelling nor its alias is in
    ``known``.
    """
    candidate = METHOD_ALIASES.get(method, method)
    if candidate in known:
        return candidate
    raise unknown_method_error(method, known, entry_point=entry_point)


def unknown_method_error(
    method: str, known, *, entry_point: str | None = None
) -> ValueError:
    """Build the unknown-method error, with a did-you-mean when close."""
    where = f"{entry_point}(): " if entry_point else ""
    msg = f"{where}unknown method {method!r}; choose from {sorted(known)}"
    close = difflib.get_close_matches(
        method, list(known) + sorted(METHOD_ALIASES), n=2
    )
    if close:
        canon = []
        for c in close:
            c = METHOD_ALIASES.get(c, c)
            if c not in canon:
                canon.append(c)
        msg += f" (did you mean {' or '.join(repr(c) for c in canon)}?)"
    return ValueError(msg)


def validate_options(
    method: str, kwargs: dict, *, entry_point: str | None = None
) -> None:
    """Reject unknown/misspelled scheme keywords for ``method``.

    Engine-level keywords (``device``/``backend``/``context``/...) are the
    execution layer's business and are ignored here.  Raises
    :class:`TypeError` listing the offending keys, close matches, and the
    scheme's valid options with defaults — prefixed with the originating
    ``entry_point`` when given.
    """
    info = SCHEMES.get(method)
    if info is None:  # non-registry method key: nothing to validate against
        return
    valid = set(info.option_names())
    unknown = [
        k for k in kwargs if k not in valid and k not in ENGINE_KEYWORDS
    ]
    if not unknown:
        return
    suggestions = []
    for key in unknown:
        close = difflib.get_close_matches(key, sorted(valid | ENGINE_KEYWORDS), n=1)
        if close:
            suggestions.append(f"did you mean {close[0]!r} instead of {key!r}?")
    option_list = ", ".join(
        f"{name}={default!r}" for name, default, _ in info.option_rows()
    ) or "(none)"
    hint = (" " + " ".join(suggestions)) if suggestions else ""
    where = f"{entry_point}(): " if entry_point else ""
    raise TypeError(
        f"{where}{method!r} got unknown option(s) {sorted(unknown)}.{hint} "
        f"Valid options for {method!r}: {option_list}"
    )


def scheme_table_markdown() -> str:
    """The docs/API.md scheme table, generated from the registry."""
    lines = [
        "| method key | kind | options (defaults) | summary | paper |",
        "|---|---|---|---|---|",
    ]
    for info in SCHEMES.values():
        opts = "<br>".join(
            f"`{name}={default!r}` — {doc}" for name, default, doc in info.option_rows()
        ) or "—"
        lines.append(
            f"| `{info.name}` | {info.kind} | {opts} | {info.summary} "
            f"| {info.paper or '—'} |"
        )
    return "\n".join(lines)


def execution_table_markdown() -> str:
    """The docs/API.md execution-options table, generated from
    :class:`ExecutionOptions` (the scheme-independent keywords)."""
    lines = [
        "| option (default) | consumed by |",
        "|---|---|",
    ]
    for name, default, doc in ExecutionOptions.option_rows():
        lines.append(f"| `{name}={default!r}` | {doc} |")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - manual docs refresh
    print(scheme_table_markdown())
    print()
    print(execution_table_markdown())
