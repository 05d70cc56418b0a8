"""The named generator instances, one row each: ROADMAP's S, M, L, C1, C2,
X and T, the benchmark workloads, the golden `bushy` and `deep`, and the
README's command-line instance.  Tier-1 does not collect this module.

A row holds what `repair` must do on its instance, so every test that
runs it reads the same parameters and the same expected outputs.  A new
named instance is one row here.  Which tests run a row, and whether in
process or as a child, is up to each test; `tests/scale_runs.py` runs
the rows of CI's scale runs."""

from __future__ import annotations

from typing import NamedTuple


class Instance(NamedTuple):
    # GeneratorParams fields, in order: classes per side, mappings,
    # disjoint pairs, noise rate, seed, max depth, branching.
    fields: tuple[int, int, int, float, int, int, float]
    flags: tuple[str, ...] = ()  # `repair` flags
    # `repair`'s outcome: the sha256s of the repaired TSV and the report
    # (exit 0), or the error line on stderr (exit 1).
    expect: tuple[str, str] | str | None = None
    transform: str | None = None  # conftest function applied to the produced alignment
    peak_mb: float | None = None  # bound on `repair`'s peak RSS as a child
    # sha256 of the repr of [(key, witness class, witness pair)] of every
    # conflict set `analyze` finds.
    rows_sha: str | None = None
    check: bool = False  # run `check` on the produced and the repaired alignment


GEN_FLAGS = ("--classes", "--mappings", "--disjoints", "--noise", "--seed",
             "--max-depth", "--branching")


def gen_args(row: Instance) -> list[str]:
    """`alignrepair gen` arguments for `row`'s instance (without `--out-dir`)."""
    return [arg for flag, value in zip(GEN_FLAGS, row.fields)
            for arg in (flag, repr(value))]


INSTANCES = {
    # Acceptance criterion 6.
    "S": Instance((10_000, 200, 50, 0.25, 11, 60, 1.15)),
    # Criterion 7 and the dense-align workload.
    "M": Instance(
        (10_000, 2_000, 50, 0.4, 21, 25, 2.0),
        expect=("7fde06bf48b27305ef7807d9eebad25394863d24f27d01fd96758401bdc9dad3",
                "0e9b8d048b0750edd059eb8f2db965e71279bf4b37d8dceedac0754848f917f7"),
    ),
    # 12,665 core classes, a 6,900-class checkset and 497 conflicts, with
    # cycles and multi-parent components throughout.
    "L": Instance(
        (40_000, 4_000, 100, 0.4, 5, 25, 2.0),
        expect=("d5bcef46a077ff9893552681e70690467d11c5210a75b8ac8292e7b565270856",
                "678e8f44a030db9c3837cf121713f925af45c6ca9f997ce4902b7e4c784969bd"),
        rows_sha="783589d238864277b0fdc04f963ef528892f0c35c9c20030bb26000be35f9310",
    ),
    "C1": Instance(
        (10_000, 2_000, 50, 0.4, 5, 25, 2.0),
        expect="error: witness (a8434, b0451|b2290) exhausts the budget of 1000000 "
               "steps with its path pairs",
    ),
    # The densest conflict search that finishes.
    "C2": Instance(
        (10_000, 2_000, 100, 0.4, 5, 25, 2.0),
        expect=("fb44a5e32916fdf73183c5627e8080e8c7b1ba562dc7a152d0e65dd1914a2143",
                "ce647754a3a110ad99d7b30411d6885e3a81bd8dc6f5b9389e07d4fa559eec45"),
    ),
    # Paper scale.
    "X": Instance(
        (120_000, 20_000, 300, 0.2, 5, 25, 2.0),
        expect=("2238ba5435aa82bd6e820c0a7e2f5d079fa70d3a9cab13cf2b1b9f9432e11b4f",
                "302230f8817f3e323c55d92b481e350d1d96479070e38c759bca91465a0a1ddb"),
        peak_mb=300, check=True,
    ),
    # The smallest known cap trip: 94 mappings after the transform.
    "T": Instance(
        (55, 51, 2, 0.9235030947918336, 5944, 7, 3.0),
        expect="error: witness (a0020, b0014|b0036) exhausts the budget of 1000000 "
               "steps with its path pairs",
        transform="equivalence_only",
    ),
    # The one workload that runs the confidence filter.
    "conflict-dense": Instance(
        (3_000, 600, 30, 0.4, 21, 25, 2.0),
        flags=("--epsilon", "0.05"),
        expect=("99b172b580844860b06c9e83d9a1afffc50709468d7c124a45fb09b1af9203ff",
                "b85d14b1b23c7acaa5b02ddb4c2342586e3ff26d698c03c97f3d471f41990424"),
    ),
    # The workload where the merged view and verify weigh most.
    "sparse-wide": Instance(
        (20_000, 200, 50, 0.25, 11, 60, 1.15),
        expect=("1d2abbf3faf2c4f8c044ff40b91c2f04eb5f5f6b140e87de561cc52123668679",
                "40b1cbc1351894f53db9d301ff85eb349c0765a20bd4bab89790897073a204f4"),
    ),
    # The golden instances; bushy has `gen`'s default max depth and branching.
    "bushy": Instance(
        (400, 120, 8, 0.4, 3, 10, 2.0),
        expect=("a8c994a5927c6a2b745b261723fb1b03740985fb30cee1885e45264f3cf16142",
                "882b1a53959269fda4a0b0295a39cfb0abeaf896d77aa49c8347db48e17985ef"),
        rows_sha="e17f1fb2957a91127f98bcf4cda77b60f3b807935b7e9cfb9338c9ae29a8475a",
        check=True,
    ),
    "deep": Instance(
        (300, 80, 6, 0.3, 7, 30, 1.15),
        expect=("4235f5b8cb078c3b493f9f7fb11de38a8d9b548cd08034110180da0a198b019d",
                "0add1edf0fa85ee8c4d9792c70994fb4d31971fd2ce2c48122e66910a067fe21"),
        rows_sha="134142ead2751b6495a6659875fa31754fa68151431b9c2547b8b5accdefff86",
    ),
    # README's command line: `gen`'s defaults for max depth and branching.
    "readme": Instance((60, 15, 4, 0.4, 29, 10, 2.0)),
}

# The benchmark workloads (perfbench/workloads.py), by workload name.
WORKLOADS = {name: INSTANCES[row] for name, row in (
    ("dense-align", "M"), ("conflict-dense", "conflict-dense"),
    ("sparse-wide", "sparse-wide"),
)}
