"""Workload definitions and input preparation for the alignrepair benchmark.

Each workload is one fixed generator instance plus the `repair` flags it
runs with.  The benchmark's `--seed` never changes the instance itself:
it shuffles the lines of the generated files, so every seed gives other
input bytes for the same statements, and the same expected output (see
README.md for why).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

INPUT_FILES = ("onto1.txt", "onto2.txt", "produced.tsv", "reference.tsv")


@dataclass(frozen=True)
class Workload:
    name: str
    # GeneratorParams fields, in order.
    classes_per_side: int
    mapping_count: int
    disjoint_pairs: int
    noise_rate: float
    seed: int
    max_depth: int
    branching: float
    repair_flags: tuple[str, ...]

    def gen_args(self, seed: int) -> list[str]:
        """`alignrepair gen` arguments for this instance with generator `seed`."""
        return [
            "--classes", str(self.classes_per_side),
            "--mappings", str(self.mapping_count),
            "--disjoints", str(self.disjoint_pairs),
            "--noise", repr(self.noise_rate),
            "--seed", str(seed),
            "--max-depth", str(self.max_depth),
            "--branching", repr(self.branching),
        ]


# README.md says why each workload was chosen.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-align", 10_000, 2_000, 50, 0.4, 21, 25, 2.0, ()),
        Workload("conflict-dense", 3_000, 600, 30, 0.4, 21, 25, 2.0, ("--epsilon", "0.05")),
        Workload("sparse-wide", 20_000, 200, 50, 0.25, 11, 60, 1.15, ()),
    )
}


def shuffle_lines(texts: dict[str, str], seed: int) -> dict[str, str]:
    """Put the lines of every input file in a seed-determined order.

    The statements, and so the instance, stay the same: only the order in
    which the parser meets them changes.  The program's outputs must not
    depend on it.
    """
    rng = random.Random(seed)
    out = {}
    for name in sorted(texts):
        lines = texts[name].splitlines()
        rng.shuffle(lines)
        out[name] = "".join(line + "\n" for line in lines)
    return out
