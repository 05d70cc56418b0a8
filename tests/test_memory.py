"""Memory of loading an instance and building its merged view grows
linearly with the ontology size: no structure may hold a bit or an entry
per pair of classes.  Fragment extraction adds at most 55% of what the
loaded instance holds.  CLI runs leave no reference cycles that grow
with the input, so a CLI process may run with the cyclic GC off."""

import gc
import tracemalloc

from alignrepair import (
    GeneratorParams,
    extract_core_fragments,
    generate_instance,
    merged_view,
    parse_alignment_tsv,
    parse_ontology_file,
    write_alignment_tsv,
    write_ontology_file,
)
from alignrepair.cli import cli_dispatch


def _sparse_texts(classes_per_side: int) -> tuple[str, str, str]:
    """The two ontology files and the alignment of a deep, sparse
    generator instance."""
    o1, o2, produced, _ = generate_instance(
        GeneratorParams(classes_per_side, classes_per_side // 10, 20, 0.25, 11, 60, 1.15)
    )
    return write_ontology_file(o1), write_ontology_file(o2), write_alignment_tsv(produced)


def _load_and_merge(texts):
    """(o1, o2, alignment, merged view) parsed and built from `texts`."""
    a = parse_ontology_file(texts[0], side=1)
    b = parse_ontology_file(texts[1], side=2)
    align = parse_alignment_tsv(texts[2])
    return a, b, align, merged_view(a, b, align)


def _load_and_merge_peak(classes_per_side: int) -> int:
    """Traced peak bytes of parsing a sparse instance and building its
    merged view."""
    texts = _sparse_texts(classes_per_side)
    gc.collect()
    tracemalloc.start()
    try:
        *_, view = _load_and_merge(texts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert view.component_count > 0
    return peak


def test_load_and_merge_memory_grows_linearly():
    small = _load_and_merge_peak(2_000)
    large = _load_and_merge_peak(8_000)
    # Four times the classes: linear growth gives about 4, the dense
    # all-pairs closures this replaced gave over 7.
    assert large / small < 5, (small, large)


def test_extraction_adds_at_most_55_percent_of_the_loaded_instance():
    """The traced peak of fragment extraction, over what the parsed
    inputs and the merged view hold, is at most 55% of that: it builds
    no second per-class adjacency of the merged graph.  The ratio reads
    0.43 on CPython 3.10, 0.46 on 3.11 and 3.12 and 0.48 on 3.13; a
    parent-list copy of the merged graph raises it to 0.64-0.72."""
    texts = _sparse_texts(8_000)
    gc.collect()
    tracemalloc.start()
    try:
        o1, o2, align, view = _load_and_merge(texts)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fragments = extract_core_fragments(o1, o2, align, view=view)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fragments.checkset
    assert (peak - held) / held <= 0.55, (held, peak)


def _cyclic_garbage(argv: list[str]) -> int:
    """Objects that only the cyclic GC can free, left by one CLI run."""
    gc.collect()
    flags, saved = gc.get_debug(), gc.garbage[:]
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert cli_dispatch(argv) == 0
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = saved


def test_cli_cyclic_garbage_does_not_grow_with_the_input(tmp_path):
    counts = []
    for n in (2_000, 8_000):
        d = tmp_path / str(n)
        inputs = ["--onto1", str(d / "onto1.txt"), "--onto2", str(d / "onto2.txt"),
                  "--align", str(d / "produced.tsv")]
        counts.append((
            _cyclic_garbage(["gen", "--classes", str(n), "--mappings", str(n // 10),
                             "--disjoints", "20", "--noise", "0.25", "--seed", "11",
                             "--max-depth", "60", "--branching", "1.15",
                             "--out-dir", str(d)]),
            _cyclic_garbage(["repair", *inputs, "--out", str(d / "repaired.tsv"),
                             "--report", str(d / "report.json")]),
            _cyclic_garbage(["check", *inputs]),
        ))
    # argparse builds a fixed set of cycles per run; nothing else may.
    assert counts[0] == counts[1], counts
