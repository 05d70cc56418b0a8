"""Traced run of the repair pipeline, one layer span per public call.

Run as its own process, like `alignrepair repair`, so that its wall time
compares with the untraced CLI run:

    PYTHONPATH=src python3 perfbench/traced.py --onto1 A --onto2 B \\
        --align C --out OUT --spans SPANS.json --run-id ID [--memory] \\
        [--epsilon R]

It calls the public functions of `formats`, `model`, `fragments`,
`conflicts` and `repair` in the order `alignrepair repair` does
(including its second `compute_checkset` call), writes the repaired
alignment to OUT, and writes the spans and the layer counters to
SPANS.json.  Spans are kept in memory until the end.  With `--memory`,
each span also records the tracemalloc peak during it; that run is for
memory only, because tracemalloc slows every allocation.

The module also turns the spans of several runs into per-layer metrics
(`layer_metrics`), which `run.py` reports.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from statistics import median

# The public names the traced run calls, by module.  A missing one stops
# the run: the pipeline changed and this file must follow it.
ENTRY_POINTS = {
    "formats": ("parse_ontology_file", "parse_alignment_tsv", "write_alignment_tsv"),
    "model": ("merged_view",),
    "fragments": ("extract_core_fragments", "compute_checkset"),
    "conflicts": ("count_incoherent_classes", "find_conflict_sets", "conflict_statistics"),
    "repair": ("repair", "RepairConfig", "RemovalCause"),
}

ROOT_SPAN = "cli.repair"
LAYERS = ("formats", "model", "fragments", "conflicts", "repair", "verify")

# Per-layer time metric -> the spans it sums.
TIME_METRICS = {
    "formats.parse_s": ("formats.parse_ontology_file", "formats.parse_alignment_tsv"),
    "formats.write_s": ("formats.write_alignment_tsv",),
    "model.merged_view_s": ("model.merged_view",),
    "fragments.extract_s": ("fragments.extract_core_fragments",),
    "fragments.checkset_s": ("fragments.compute_checkset",),
    "conflicts.count_incoherent_s": ("conflicts.count_incoherent_classes",),
    "conflicts.find_s": ("conflicts.find_conflict_sets",),
    "repair.repair_s": ("repair.repair",),
    "verify.merged_view_s": ("verify.merged_view",),
    "verify.count_incoherent_s": ("verify.count_incoherent_classes",),
}

# Per-layer tracemalloc peak metric -> the spans it covers.
PEAK_METRICS = {
    "formats.parse_peak_mb": ("formats.parse_ontology_file", "formats.parse_alignment_tsv"),
    "model.merged_view_peak_mb": ("model.merged_view",),
    "fragments.extract_peak_mb": ("fragments.extract_core_fragments",),
    "conflicts.find_peak_mb": ("conflicts.find_conflict_sets",),
}

MB = float(1 << 20)


class MissingEntryPoint(RuntimeError):
    """A public function the traced run times no longer exists."""


def resolve_entry_points() -> argparse.Namespace:
    """Look up every timed public function; raise if any is gone."""
    api = argparse.Namespace()
    for module_name, names in ENTRY_POINTS.items():
        module = importlib.import_module(f"alignrepair.{module_name}")
        for name in names:
            if not hasattr(module, name):
                raise MissingEntryPoint(
                    f"alignrepair.{module_name}.{name} is gone; "
                    "update perfbench/traced.py to the new pipeline"
                )
            setattr(api, name, getattr(module, name))
    return api


class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory."""

    def __init__(self, run_id: str, memory: bool) -> None:
        self.run_id = run_id
        self.memory = memory
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        if self.memory:
            record["mem_start"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            if self.memory:
                record["mem_peak"] = tracemalloc.get_traced_memory()[1]
            self._open.pop()


def run_pipeline(api, tracer: Tracer, args, config) -> dict:
    """The steps of `alignrepair repair`, each in its own span; returns counters."""
    t = tracer
    with t.span(ROOT_SPAN):
        texts = {}
        with t.span("formats.parse_ontology_file"):
            texts["onto1"] = Path(args.onto1).read_text(encoding="utf-8")
            o1 = api.parse_ontology_file(texts["onto1"], side=1)
        with t.span("formats.parse_ontology_file"):
            texts["onto2"] = Path(args.onto2).read_text(encoding="utf-8")
            o2 = api.parse_ontology_file(texts["onto2"], side=2)
        with t.span("formats.parse_alignment_tsv"):
            texts["align"] = Path(args.align).read_text(encoding="utf-8")
            align = api.parse_alignment_tsv(texts["align"])
        with t.span("model.merged_view"):
            view = api.merged_view(o1, o2, align)
        with t.span("conflicts.count_incoherent_classes"):
            incoherent_before, _ = api.count_incoherent_classes(view)
        with t.span("fragments.extract_core_fragments"):
            fragments = api.extract_core_fragments(o1, o2, align, view=view)
        with t.span("fragments.compute_checkset"):
            checkset = api.compute_checkset(view)
        with t.span("conflicts.find_conflict_sets"):
            conflicts = api.find_conflict_sets(fragments, checkset, align)
        with t.span("repair.repair"):
            result = api.repair(conflicts, align, config)
        with t.span("verify.merged_view"):
            kept_view = api.merged_view(o1, o2, result.kept)
        with t.span("verify.count_incoherent_classes"):
            incoherent_after, _ = api.count_incoherent_classes(kept_view)
        with t.span("formats.write_alignment_tsv"):
            Path(args.out).write_text(
                api.write_alignment_tsv(result.kept), encoding="utf-8"
            )
        with t.span("conflicts.conflict_statistics"):
            stats = api.conflict_statistics(conflicts)

    total = len(o1) + len(o2)
    removed = len(result.removed)
    filtered = sum(1 for r in result.removed if r.cause is api.RemovalCause.FILTERED)
    return {
        "formats.input_lines": sum(len(text.splitlines()) for text in texts.values()),
        "model.components": view.component_count,
        "fragments.core_classes": len(fragments.core_classes),
        "fragments.core_ratio": len(fragments.core_classes) / total,
        "fragments.reduced_edges": len(fragments.reduced_edges),
        "fragments.start_classes": len(fragments.start_classes),
        "fragments.checkset_classes": len(checkset),
        "conflicts.incoherent_before": incoherent_before,
        "conflicts.sets": stats["sets"],
        "conflicts.clusters": stats["clusters"],
        "conflicts.max_set_size": max((len(s) for s in conflicts), default=0),
        "repair.removed_filtered": filtered,
        "repair.removed_greedy": removed - filtered,
        "repair.clusters_processed": result.stats.clusters_processed,
        "repair.lookahead_tiebreaks": result.stats.lookahead_tiebreaks,
        "repair.removed_per_set": removed / stats["sets"] if stats["sets"] else 0.0,
        "verify.incoherent_after": incoherent_after,
    }


def _durations(spans: list[dict]) -> dict[str, float]:
    """Summed duration per span name, over the children of the root span."""
    root = next(s["id"] for s in spans if s["name"] == ROOT_SPAN)
    out: dict[str, float] = {}
    for s in spans:
        if s["parent"] == root:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    return out


def spans_total(timed_runs: list[list[dict]]) -> float:
    """Median time inside the layer spans of one run."""
    return median(sum(_durations(spans).values()) for spans in timed_runs)


def layer_metrics(timed_runs: list[list[dict]], memory_run: list[dict]) -> dict[str, float]:
    """Per-layer times (median over runs), self times and tracemalloc peaks.

    A layer's self time is the time in its spans; no layer span nests
    another, so that is also the root span's time minus its children.
    A peak is the highest traced memory during the named spans, above the
    traced memory when the first of them began.
    """
    per_run = [_durations(spans) for spans in timed_runs]
    metrics: dict[str, float] = {}
    for metric, names in TIME_METRICS.items():
        metrics[metric] = median(sum(d.get(n, 0.0) for n in names) for d in per_run)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = median(
            sum(v for n, v in d.items() if n.split(".", 1)[0] == layer)
            for d in per_run
        )
    for metric, names in PEAK_METRICS.items():
        covered = [s for s in memory_run if s["name"] in names]
        metrics[metric] = (
            max(s["mem_peak"] for s in covered) - covered[0]["mem_start"]
        ) / MB
    return metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--onto1", required=True)
    parser.add_argument("--onto2", required=True)
    parser.add_argument("--align", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True, help="JSON file for spans and counters")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--memory", action="store_true", help="record tracemalloc peaks")
    # The `repair` flags the workloads use; any other one is an error here.
    parser.add_argument("--epsilon", type=float)
    args = parser.parse_args(argv)

    try:
        api = resolve_entry_points()
    except MissingEntryPoint as exc:
        print(f"traced: {exc}", file=sys.stderr)
        return 1
    config = api.RepairConfig() if args.epsilon is None else api.RepairConfig(epsilon=args.epsilon)
    tracer = Tracer(args.run_id, args.memory)
    if args.memory:
        tracemalloc.start()
    try:
        counters = run_pipeline(api, tracer, args, config)
    finally:
        if args.memory:
            tracemalloc.stop()
    Path(args.spans).write_text(
        json.dumps({"spans": tracer.spans, "counters": counters}) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
