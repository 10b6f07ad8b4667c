#!/usr/bin/env python
"""Kernel-layer wall-clock benchmark suite (micro + end-to-end).

The simulated-time gate (``regression_gate.py``) pins what the *model*
reports; this suite tracks what the *host* pays to compute it — the
repo's perf trajectory.  Two tiers:

* **micro** — the shared kernel primitives in isolation
  (``expand_segments``, ``min_excluded_colors``, ``speculative_color_step``,
  ``detect_conflicts``) over a real suite graph.
* **end-to-end** — ``color_graph`` wall-clock for the headline schemes
  over the R-MAT/mesh suite.

Profiles::

    python benchmarks/bench_kernels.py --quick         # CI scale (fast)
    python benchmarks/bench_kernels.py --full          # adds the 1M-vertex
                                                       # rmat-er end-to-end
    python benchmarks/bench_kernels.py --quick --check # gate vs committed
                                                       # baseline (2x default)
    python benchmarks/bench_kernels.py --quick --update current
                                                       # refresh the baseline

Results are stored in ``BENCH_kernels.json`` under a *record key* per
profile: ``pre_pr`` (the kernels before the bitmask-mex/expansion-plan
overhaul — measured once, never regenerated), ``current`` (the tracked
NumPy-tier baseline; refresh with ``REPRO_COMPILED_DISABLE=cc ...
--update current`` on the machine class noted in the file's ``meta``)
and ``compiled`` (the same cells on the C tier, which is how the default
backend runs; refresh with ``--update compiled``).  ``--check`` compares
wall times against the record for the tier the run used (``current``
under ``REPRO_COMPILED_DISABLE=cc``, ``compiled`` otherwise) with a
generous threshold (CI machines vary), and compares simulated time /
iterations / colors exactly with ``current`` (those are functional,
machine-independent, and identical on both tiers).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.coloring.api import color_graph  # noqa: E402
from repro.coloring import kernels  # noqa: E402
from repro.graph.generators.suite import load_graph  # noqa: E402

BASELINE_PATH = Path(__file__).parent / "BENCH_kernels.json"

#: (profile name) -> scale divisor for the suite graphs.
QUICK_SCALE_DIV = 64
FULL_SCALE_DIV = 1

#: End-to-end cells per profile: (graph, scheme) pairs.
QUICK_CELLS = (
    ("rmat-er", "data-ldg"),
    ("rmat-er", "topo-ldg"),
    ("rmat-g", "data-ldg"),
    ("thermal2", "data-ldg"),
    ("thermal2", "topo-ldg"),
)
#: The acceptance cells: the paper-scale (1,048,576-vertex) R-MAT graph.
FULL_CELLS = (
    ("rmat-er", "data-ldg"),
    ("rmat-er", "topo-ldg"),
)


def _best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_micro(scale_div: int, repeat: int) -> dict:
    """Micro benchmarks over one real suite graph (wall seconds, best-of)."""
    graph = load_graph("rmat-er", scale_div=scale_div)
    n = graph.num_vertices
    all_ids = np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(11)
    colors_small = rng.integers(0, 24, size=n).astype(np.int32)
    colors_wide = rng.integers(0, 200, size=n).astype(np.int32)
    seg, _, edge_idx = kernels.expand_segments(graph, all_ids)
    nbr_small = colors_small[graph.col_indices[edge_idx]]
    nbr_wide = colors_wide[graph.col_indices[edge_idx]]
    zeros = np.zeros(n, dtype=np.int32)

    out = {}
    out["expand_segments/full"] = _best_of(
        lambda: kernels.expand_segments(graph, all_ids), repeat
    )
    half = all_ids[: n // 2]
    out["expand_segments/half"] = _best_of(
        lambda: kernels.expand_segments(graph, half), repeat
    )
    out["mex/24colors"] = _best_of(
        lambda: kernels.min_excluded_colors(seg, nbr_small, n), repeat
    )
    out["mex/200colors"] = _best_of(
        lambda: kernels.min_excluded_colors(seg, nbr_wide, n), repeat
    )
    out["color_step/full"] = _best_of(
        lambda: kernels.speculative_color_step(graph, zeros, all_ids), repeat
    )
    out["detect_conflicts/full"] = _best_of(
        lambda: kernels.detect_conflicts(graph, colors_small, all_ids), repeat
    )
    return {k: round(v, 6) for k, v in out.items()}


def run_end_to_end(cells, scale_div: int, repeat: int, backend=None) -> dict:
    """Wall-clock ``color_graph`` runs plus their functional fingerprints."""
    out = {}
    graphs: dict[str, object] = {}
    for graph_name, scheme in cells:
        graph = graphs.setdefault(
            graph_name, load_graph(graph_name, scale_div=scale_div)
        )
        best = float("inf")
        result = None
        for _ in range(repeat):
            t0 = time.perf_counter()
            result = color_graph(
                graph, method=scheme, validate=False, backend=backend
            )
            best = min(best, time.perf_counter() - t0)
        out[f"{graph_name}/{scheme}"] = {
            "wall_s": round(best, 4),
            "sim_us": round(result.total_time_us, 4),
            "iterations": result.iterations,
            "num_colors": result.num_colors,
        }
    return out


def run_profile(profile: str, repeat: int, backend=None) -> dict:
    # Pay the one-time kernel-tier load/compile outside the timed region —
    # it is machine state, not per-run cost (workers warm up the same way
    # via the pool initializer).
    from repro import compiledsim

    compiledsim.warmup()
    if profile == "quick":
        out = {
            "scale_div": QUICK_SCALE_DIV,
            "micro": run_micro(QUICK_SCALE_DIV, repeat),
            "end_to_end": run_end_to_end(
                QUICK_CELLS, QUICK_SCALE_DIV, repeat, backend
            ),
        }
    else:
        out = {
            "scale_div": FULL_SCALE_DIV,
            "micro": run_micro(16, repeat),
            "end_to_end": run_end_to_end(FULL_CELLS, FULL_SCALE_DIV, 1, backend),
        }
    if backend is not None:
        out["backend"] = backend
    return out


def load_baseline() -> dict:
    if BASELINE_PATH.exists():
        return json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    return {"meta": {}}


def _gate_record_key() -> str:
    """The record a wall-clock gate compares with: the tier this run used."""
    from repro import compiledsim

    return "compiled" if compiledsim.current_tier() == "cc" else "current"


def print_results(profile: str, results: dict, baseline: dict) -> None:
    stored = baseline.get(profile, {})
    own = None if results.get("backend") is not None else _gate_record_key()
    for tier in ("micro", "end_to_end"):
        print(f"[{profile}/{tier}]")
        for key, val in results[tier].items():
            wall = val if tier == "micro" else val["wall_s"]
            line = f"  {key:<28} {wall * 1e3:>10.2f} ms"
            for record_key in ("pre_pr", "current"):
                if record_key == own:
                    continue  # a plain run *is* its own record's twin
                ref = stored.get(record_key, {}).get(tier, {}).get(key)
                if ref is not None:
                    ref_wall = ref if tier == "micro" else ref["wall_s"]
                    if wall > 0:
                        line += f"   ({ref_wall / wall:5.2f}x vs {record_key})"
            print(line)


def check(profile: str, results: dict, baseline: dict, threshold: float) -> int:
    """Gate the run against the committed record for the tier it ran on.

    Wall times gate against ``current`` when the run used the NumPy tier
    and against ``compiled`` when it used the C tier.  The functional
    fields must equal ``current`` exactly on either tier — the
    byte-identity contract between the two.
    """
    record_key = _gate_record_key()
    stored = baseline.get(profile, {})
    truth = stored.get("current")
    record = stored.get(record_key)
    for key, rec in (("current", truth), (record_key, record)):
        if rec is None:
            print(f"no committed '{profile}/{key}' record; run --update {key}")
            return 1
    failures = []
    for key, val in results["end_to_end"].items():
        ref = truth["end_to_end"].get(key)
        if ref is None:
            failures.append(f"{key}: no baseline entry")
            continue
        for exact in ("sim_us", "iterations", "num_colors"):
            if val[exact] != ref[exact]:
                failures.append(
                    f"{key}: {exact} {ref[exact]} -> {val[exact]} (functional drift)"
                )
        wall_ref = record["end_to_end"].get(key)
        if wall_ref is None:
            failures.append(f"{key}: no '{record_key}' entry")
        elif val["wall_s"] > wall_ref["wall_s"] * threshold:
            failures.append(
                f"{key}: wall {wall_ref['wall_s']:.3f}s -> {val['wall_s']:.3f}s "
                f"(> {threshold:.1f}x)"
            )
    for key, wall in results["micro"].items():
        ref = record["micro"].get(key)
        # Absolute noise floor: cells in the tens-of-microseconds range
        # (memo-hit paths) swing multiples of themselves with page/cache
        # state, so the ratio gate only applies past a 0.25 ms delta.
        if (
            ref is not None
            and wall > ref * threshold
            and wall - ref > 2.5e-4
        ):
            failures.append(
                f"micro {key}: {ref * 1e3:.2f}ms -> {wall * 1e3:.2f}ms "
                f"(> {threshold:.1f}x)"
            )
    if failures:
        print(f"kernel benchmark gate FAILED ({len(failures)}):")
        for f in failures:
            print(f"  {f}")
        return 1
    cells = len(results["end_to_end"])
    print(
        f"kernel benchmark gate passed: {cells} cells "
        f"within {threshold:.1f}x of the '{record_key}' record"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI profile: small graphs, fast")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale profile (1M-vertex rmat-er)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="best-of repetitions (default 3)")
    parser.add_argument("--update", metavar="KEY",
                        help="store results under this record key "
                             "(e.g. 'current', 'pre_pr')")
    parser.add_argument("--check", action="store_true",
                        help="gate against the committed record for the "
                             "tier this run used")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="wall-clock regression threshold (default 2.0)")
    parser.add_argument("--backend", default=None,
                        choices=("gpusim", "cpusim"),
                        help="run the end-to-end cells on this backend "
                             "(default: the library default, gpusim)")
    parser.add_argument("--out", type=Path,
                        help="also write this run's results to a JSON file")
    args = parser.parse_args(argv)
    profile = "full" if args.full else "quick"

    results = run_profile(profile, args.repeat, backend=args.backend)
    baseline = load_baseline()
    print_results(profile, results, baseline)

    if args.out:
        args.out.write_text(
            json.dumps({profile: results}, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote results -> {args.out}")

    if args.update:
        baseline.setdefault("meta", {})
        baseline["meta"].setdefault(
            "machine", f"{platform.machine()}/{platform.system()}"
        )
        baseline["meta"]["note"] = (
            "wall-clock records; 'pre_pr' is the kernel layer before the "
            "bitmask-mex/expansion-plan overhaul (historical, do not "
            "regenerate), 'current' is the tracked NumPy-tier baseline "
            "(record it with REPRO_COMPILED_DISABLE=cc), 'compiled' is the "
            "default backend on the C tier over the same cells (same "
            "repeat/scale methodology; functional fields must equal "
            "'current' exactly — the byte-identity contract)"
        )
        baseline.setdefault(profile, {})[args.update] = results
        BASELINE_PATH.write_text(
            json.dumps(baseline, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"recorded '{profile}/{args.update}' -> {BASELINE_PATH}")

    if args.check:
        return check(profile, results, baseline, args.threshold)
    return 0


if __name__ == "__main__":
    sys.exit(main())
