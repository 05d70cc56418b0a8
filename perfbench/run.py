"""alignrepair benchmark: `repair` and `check` through the CLI, or a traced run.

    python3 perfbench/run.py --workload dense-align --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository; it needs nothing built.  It
generates the workload's instance with `alignrepair gen` (see
workloads.py), puts the lines of each file in an order drawn from
`--seed`, and then, for `--seconds`:

* `--trace 0`: runs `alignrepair repair` and `alignrepair check`, one
  process at a time, and reports the end-to-end metrics;
* `--trace 1`: alternates the untraced `alignrepair repair` with
  traced.py, which times each layer, then makes one tracemalloc run, and
  reports the per-layer metrics.

Every repaired output is checked with the independent oracle
(`oracle.exhaustive_incoherence`), must keep only input mappings, and
must be byte-identical across repetitions.  Scratch files go to
`.bench_work/` in the checkout.  The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; progress and output hashes go to standard error.  README.md
gives the design.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import traced
from workloads import INPUT_FILES, WORKLOADS, shuffle_lines

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set-up runs at least this many times and for at least this long.
SETUP_REPEATS = 3
SETUP_SECONDS = 4.0
# A process running longer than this counts as failed and is killed.
RUN_LIMIT_S = 60.0
MEMORY_RUN_LIMIT_S = 100.0  # tracemalloc slows the traced run several times
MB = 1024.0  # ru_maxrss is in KiB


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    error: str | None  # None when the process exited 0 within its limit


def run_child(argv: list[str], stdout: Path, limit: float) -> Child:
    """Run one process, wait for it, and time it; kill it after `limit` s."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    stderr = stdout.with_suffix(".stderr")
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited, _, _ = select.select([pidfd], [], [], limit)
            finally:
                os.close(pidfd)
            if not exited:
                proc.kill()
            # wait4 gives this child's own rusage, so its ru_maxrss is not
            # the maximum over every child the benchmark has started.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not exited:
        error = f"killed after the {limit:.0f} s limit"
    elif proc.returncode != 0:
        last = stderr.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        error = f"exit status {proc.returncode}: {' '.join(last)}"
    else:
        error = None
    return Child(wall, usage.ru_maxrss / MB, error)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "alignrepair", *args]


class Oracle:
    """Judges outputs against the inputs with the independent oracle.

    Verdicts are cached by output hash: identical bytes get the same verdict.
    """

    def __init__(self, inputs: Path) -> None:
        from alignrepair.formats import parse_alignment_tsv, parse_ontology_file
        from alignrepair.oracle import exhaustive_incoherence, precision_recall_fmeasure

        self._parse_tsv = parse_alignment_tsv
        self._incoherent = exhaustive_incoherence
        self._fmeasure = precision_recall_fmeasure

        def read(name: str) -> str:
            return (inputs / name).read_text(encoding="utf-8")

        self.o1 = parse_ontology_file(read("onto1.txt"), side=1)
        self.o2 = parse_ontology_file(read("onto2.txt"), side=2)
        self.produced = parse_alignment_tsv(read("produced.tsv"))
        self.reference = parse_alignment_tsv(read("reference.tsv"))
        self.input_mappings = {(m.key, m.confidence) for m in self.produced}
        self.incoherent_ids = {
            c.id for c in exhaustive_incoherence(self.o1, self.o2, self.produced)
        }
        self.check_s: list[float] = []
        self._repairs: dict[str, tuple[str | None, int, float]] = {}

    def repaired(self, tsv: Path, report: Path | None) -> tuple[str | None, int, float]:
        """(error or None, mappings removed, F-measure) for one repaired output."""
        key = sha256(tsv) + (sha256(report) if report else "")
        if key not in self._repairs:
            start = time.perf_counter()
            self._repairs[key] = self._judge(tsv, report)
            self.check_s.append(time.perf_counter() - start)
        return self._repairs[key]

    def _judge(self, tsv: Path, report: Path | None) -> tuple[str | None, int, float]:
        kept = self._parse_tsv(tsv.read_text(encoding="utf-8"))
        removed = len(self.produced) - len(kept)
        f_measure = self._fmeasure(kept, self.reference).f_measure
        foreign = {(m.key, m.confidence) for m in kept} - self.input_mappings
        if foreign:
            return f"{len(foreign)} kept mappings are not in the input", removed, f_measure
        still = self._incoherent(self.o1, self.o2, kept)
        if still:
            return f"oracle finds {len(still)} incoherent classes", removed, f_measure
        if report is not None:
            data = json.loads(report.read_text(encoding="utf-8"))
            claimed = (data["repair"]["removed"], data["incoherent"]["before"])
            if claimed != (removed, len(self.incoherent_ids)):
                return f"report claims removed/incoherent {claimed}", removed, f_measure
        return None, removed, f_measure

    def check_output(self, stdout: Path) -> str | None:
        """Error or None for the output of `alignrepair check` on the input."""
        lines = stdout.read_text(encoding="utf-8").split()
        if not lines or lines[0] != str(len(self.incoherent_ids)):
            return f"check printed count {lines[:1]}, oracle says {len(self.incoherent_ids)}"
        if len(lines) - 1 != len(self.incoherent_ids) or set(lines[1:]) != self.incoherent_ids:
            return "check listed other classes than the oracle"
        return None


@dataclass
class Tally:
    """Attempts, and the reason for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)  # outputs that are incorrect

    def record(self, what: str, error: str | None, wrong: bool = False) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{what}: {error}")
            if wrong:
                self.wrong.append(f"{what}: {error}")


class Bench:
    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = WORKLOADS[args.workload]
        self.seed = args.seed
        self.gen_seed = self.workload.seed if args.instance_seed is None else args.instance_seed
        self.seconds = args.seconds
        self.work = WORK / f"{args.workload}-i{self.gen_seed}-s{args.seed}-t{args.trace}"
        self.inputs = self.work / "input"
        self.out = self.work / "out"
        self.tally = Tally()
        # Every repaired TSV, and every report, must equal the first one.
        self.tsv_digest: str | None = None
        self.report_digest: str | None = None
        # Removed and F-measure of a correct output, else of the first one.
        self.outcome: tuple[int, float] | None = None
        self.samples: dict[str, list[float]] = {}  # every timed repetition

    def set_up(self, repeats: int, seconds: float = 0.0) -> list[float]:
        """Generate, shuffle and write the inputs; the time of each repeat.

        Repeats at least `repeats` times and until `seconds` have passed.
        """
        shutil.rmtree(self.work, ignore_errors=True)
        for d in (self.inputs, self.out):
            d.mkdir(parents=True)
        gen_dir = self.work / "gen"
        times, digests = [], set()
        while len(times) < repeats or sum(times) < seconds:
            i = len(times)
            start = time.perf_counter()
            child = run_child(
                cli("gen", *self.workload.gen_args(self.gen_seed), "--out-dir", str(gen_dir)),
                self.work / f"gen-{i}.stdout",
                RUN_LIMIT_S,
            )
            if child.error:
                raise BenchError(f"alignrepair gen: {child.error}")
            texts = {n: (gen_dir / n).read_text(encoding="utf-8") for n in INPUT_FILES}
            for name, text in shuffle_lines(texts, self.seed).items():
                (self.inputs / name).write_text(text, encoding="utf-8")
            times.append(time.perf_counter() - start)
            digests.add(tuple(sha256(self.inputs / n) for n in INPUT_FILES))
        if len(digests) != 1:
            raise BenchError("the same seed gave different inputs")
        return times

    def input_args(self) -> list[str]:
        return [
            "--onto1", str(self.inputs / "onto1.txt"),
            "--onto2", str(self.inputs / "onto2.txt"),
            "--align", str(self.inputs / "produced.tsv"),
        ]

    def _judge_repair(self, what: str, child: Child, tsv: Path, report: Path | None,
                      oracle: Oracle) -> None:
        if child.error:
            self.tally.record(what, child.error)
            return
        self.tsv_digest = self.tsv_digest or sha256(tsv)
        if sha256(tsv) != self.tsv_digest:
            self.tally.record(what, "repaired TSV differs from an earlier run", True)
            return
        if report is not None:
            self.report_digest = self.report_digest or sha256(report)
            if sha256(report) != self.report_digest:
                self.tally.record(what, "report differs from an earlier run", True)
                return
        error, removed, f_measure = oracle.repaired(tsv, report)
        if error is None or self.outcome is None:
            self.outcome = (removed, f_measure)
        self.tally.record(what, error, wrong=error is not None)

    def repair(self, i: int, oracle: Oracle) -> Child:
        tsv, report = self.out / f"repaired-{i}.tsv", self.out / f"report-{i}.json"
        child = run_child(
            cli("repair", *self.input_args(), *self.workload.repair_flags,
                "--out", str(tsv), "--report", str(report)),
            self.out / f"repair-{i}.stdout",
            RUN_LIMIT_S,
        )
        self._judge_repair(f"repair {i}", child, tsv, report, oracle)
        return child

    def check(self, i: int, oracle: Oracle) -> Child:
        stdout = self.out / f"check-{i}.stdout"
        child = run_child(cli("check", *self.input_args()), stdout, RUN_LIMIT_S)
        if child.error:
            self.tally.record(f"check {i}", child.error)
        else:
            error = oracle.check_output(stdout)
            self.tally.record(f"check {i}", error, wrong=error is not None)
        return child

    def traced(self, run_id: str, oracle: Oracle, memory: bool) -> tuple[Child, dict | None]:
        tsv, spans = self.out / f"{run_id}.tsv", self.out / f"{run_id}.spans.json"
        argv = [
            sys.executable, str(Path(traced.__file__).resolve()), *self.input_args(),
            *self.workload.repair_flags,
            "--out", str(tsv), "--spans", str(spans), "--run-id", run_id,
        ]
        if memory:
            argv.append("--memory")
        child = run_child(
            argv, self.out / f"{run_id}.stdout",
            MEMORY_RUN_LIMIT_S if memory else RUN_LIMIT_S,
        )
        self._judge_repair(run_id, child, tsv, None, oracle)
        if child.error:
            return child, None
        return child, json.loads(spans.read_text(encoding="utf-8"))

    def end_to_end(self) -> dict:
        setup = self.set_up(SETUP_REPEATS, SETUP_SECONDS)
        oracle = Oracle(self.inputs)
        repairs, checks = [], []
        deadline = time.perf_counter() + self.seconds
        while not repairs or time.perf_counter() < deadline:
            repairs.append(self.repair(len(repairs), oracle))
            checks.append(self.check(len(checks), oracle))
        if self.outcome is None:
            raise BenchError("no repair run gave an output: " + "; ".join(self.tally.failures))
        removed, f_measure = self.outcome
        t = self.tally
        self.samples = {
            "setup_s": setup,
            "repair_s": [c.wall_s for c in repairs],
            "check_s": [c.wall_s for c in checks],
        }
        return {
            "setup_s": (median(setup), "s"),
            "repair_s": (median(c.wall_s for c in repairs), "s"),
            "check_s": (median(c.wall_s for c in checks), "s"),
            "peak_rss_mb": (median(c.rss_mb for c in repairs), "MB"),
            "ok_ratio": (1 - len(t.failures) / t.attempted, "ratio"),
            "removed": (removed, "count"),
            "f_measure": (f_measure, "ratio"),
        }

    def per_layer(self) -> dict:
        from alignrepair.generator import GeneratorParams, generate_instance

        self.set_up(1)
        w = self.workload
        params = GeneratorParams(
            w.classes_per_side, w.mapping_count, w.disjoint_pairs, w.noise_rate,
            self.gen_seed, w.max_depth, w.branching,
        )
        start = time.perf_counter()
        generate_instance(params)
        generate_s = time.perf_counter() - start
        oracle = Oracle(self.inputs)

        # The slow tracemalloc run counts against --seconds.
        deadline = time.perf_counter() + self.seconds
        _, memory = self.traced("traced-memory", oracle, memory=True)
        repairs, traced_runs = [], []
        while memory and (not repairs or time.perf_counter() < deadline):
            i = len(repairs)
            repairs.append(self.repair(i, oracle))
            child, data = self.traced(f"traced-{i}", oracle, memory=False)
            if data is None:
                break
            traced_runs.append((child, data))
        if len(self.tally.failures) > len(self.tally.wrong):
            raise BenchError("a process failed: " + "; ".join(self.tally.failures))
        counters = memory["counters"]
        for i, (_, data) in enumerate(traced_runs):
            if data["counters"] != counters:
                self.tally.record(f"traced-{i}", "layer counters differ between runs", True)
        self._agrees_with_report(counters)
        with open(self.work / "spans.jsonl", "w", encoding="utf-8") as f:
            for data in [memory, *(data for _, data in traced_runs)]:
                f.writelines(json.dumps(s) + "\n" for s in data["spans"])

        cli_repair_s = median(c.wall_s for c in repairs)
        spans = [data["spans"] for _, data in traced_runs]
        self.samples = {
            "cli_repair_s": [c.wall_s for c in repairs],
            "traced_run_s": [c.wall_s for c, _ in traced_runs],
        }
        metrics = {k: (v, "MB" if k.endswith("_mb") else "s")
                   for k, v in traced.layer_metrics(spans, memory["spans"]).items()}
        for name, value in counters.items():
            metrics[name] = (value, "ratio" if name.endswith(("_ratio", "_per_set")) else "count")
        metrics["generator.generate_s"] = (generate_s, "s")
        metrics["oracle.check_s"] = (median(oracle.check_s), "s")
        metrics["cli.self_s"] = (cli_repair_s - traced.spans_total(spans), "s")
        metrics["trace.overhead_s"] = (
            median(c.wall_s for c, _ in traced_runs) - cli_repair_s, "s"
        )
        return metrics

    def _agrees_with_report(self, counters: dict) -> None:
        """The traced pipeline must count what the CLI's report counts."""
        report = json.loads((self.out / "report-0.json").read_text(encoding="utf-8"))
        pairs = {
            "fragments.core_classes": report["fragments"]["core_classes"],
            "fragments.checkset_classes": report["fragments"]["checkset"],
            "conflicts.sets": report["conflicts"]["sets"],
            "conflicts.clusters": report["conflicts"]["clusters"],
            "conflicts.incoherent_before": report["incoherent"]["before"],
            "repair.removed_filtered": report["repair"]["removed_filtered"],
            "repair.removed_greedy": report["repair"]["removed_greedy"],
        }
        for name, value in pairs.items():
            if counters[name] != value:
                self.tally.record(
                    "traced-vs-cli", f"{name} is {counters[name]}, the report says {value}", True
                )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="orders the lines of the input files")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to repeat the measured runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced per-layer run instead of the end-to-end one")
    parser.add_argument("--instance-seed", type=int,
                        help="generator seed instead of the workload's own")
    args = parser.parse_args(argv)

    if not (SRC / "alignrepair" / "cli.py").is_file():
        print(f"perfbench: no alignrepair sources in {SRC}; "
              "run it in a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bench = Bench(args)
    try:
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    t = bench.tally
    summary = {
        "workload": args.workload,
        "instance_seed": bench.gen_seed,
        "seed": args.seed,
        "repaired_tsv_sha256": bench.tsv_digest,
        "report_sha256": bench.report_digest,
        "failures": t.failures,
        "samples": bench.samples,
    }
    (bench.work / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    for line in [*(f"{k}: {v}" for k, v in summary.items() if k != "samples"),
                 *(f"{k}: {len(v)} samples" for k, v in bench.samples.items()),
                 *(f"{k}: {v:.6g} {u}" for k, (v, u) in metrics.items())]:
        print(line, file=sys.stderr)
    result = {
        "correct": not t.wrong,
        "attempted": t.attempted,
        "failed": len(t.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
