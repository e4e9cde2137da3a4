"""gecclean benchmark: run the CLI the way users do, on seeded corpora.

    python3 perfbench/run.py --workload short-near --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the CLI is started from that
checkout's ``src``. Each run generates its workload's corpus from the seed,
times ``gecclean --version`` starts (``setup_s``), then repeats rounds of the
seven commands below, one subprocess each, until ``--seconds`` have passed
(at least three rounds). Every output is checked against the corpus model,
against the other rounds and, for pinned seeds, against the sha256 digests
in ``digests.json``. End-to-end metrics are medians over the rounds of
speed-adjusted times (see ``Cli.run`` and README.md).

With ``--trace 1`` the run then replays the commands in process with one
span around each call into a module of ``src/gecclean`` (see ``tracing.py``)
and prints the per-layer metrics instead.

The last line of standard output is the result object; the line before it
holds the run's metadata, also written with the raw samples (and spans)
to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpora  # noqa: E402
from corpora import Corpus  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

MIN_ROUNDS = 3
SETUP_STARTS = 9
# A run must end within 180 s: no round starts after HARD_STOP_S, and no
# command outlives the Cli's budget.
HARD_STOP_S = 120.0
BUDGET_S = 160.0
THREADS = 2

COMMANDS = (
    "clean_lev_sim",
    "clean_edi_least",
    "clean_edi_least_t2",
    "stats",
    "to_m2",
    "apply_m2",
    "score",
)
# apply-m2 and score read the M2 file; the rest read the TSV corpus.
BLOCK_COMMANDS = ("apply_m2", "score")


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    drop_correct: bool
    generate: Callable[[int, Path], Corpus]


# Sizes keep one round of the seven commands at a few seconds on 2 CPUs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "short-near",
            900_001,
            False,
            lambda seed, path: corpora.short_near(seed, 3_000, path),
        ),
        Workload(
            "long-multi",
            900_002,
            False,
            lambda seed, path: corpora.long_multi(seed, 2, path),
        ),
        Workload(
            "dup-multiline",
            900_003,
            True,
            lambda seed, path: corpora.dup_multiline(seed, 1_500, path),
        ),
    )
}


def command_argvs(corpus: Corpus, drop_correct: bool, threads: int) -> dict:
    """CLI arguments per command; paths are relative to the work directory."""
    layout = ["--multi-target-lines"] if corpus.multi_target else []
    clean = ["clean", "input.tsv", *layout, *(["--drop-correct"] if drop_correct else [])]
    return {
        "clean_lev_sim": [*clean, "-o", "clean_lev_sim.out", "--strategy", "lev_sim"],
        "clean_edi_least": [*clean, "-o", "clean_edi_least.out", "--strategy", "edi_least"],
        "clean_edi_least_t2": [
            *clean, "-o", "clean_edi_least_t2.out", "--strategy", "edi_least",
            "--threads", str(threads),
        ],
        "stats": ["stats", "input.tsv", *layout, "--json", "-o", "stats.out"],
        "to_m2": ["to-m2", "input.tsv", *layout, "-o", "to_m2.out"],
        "apply_m2": ["apply-m2", "to_m2.out", "-o", "apply_m2.out"],
        "score": ["score", "--gold", "to_m2.out", "--hyp", "hyp.txt", "--json", "-o", "score.out"],
    }


# The speed probe: a Python start that imports the standard modules gecclean
# uses and nothing from the checkout, so no change to gecclean moves it.
REFERENCE_ARGV = [
    "-I",
    "-c",
    "import argparse, concurrent.futures, dataclasses, enum, hashlib, json,"
    " logging, random, unicodedata",
]
# Times are reported as if the probe had taken this long (see Cli.run).
REFERENCE_S = 0.05


@dataclass
class Outcome:
    wall_s: float
    # wall_s scaled by REFERENCE_S / the probe time around the command.
    adjusted_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str


class Cli:
    """Starts ``gecclean`` subprocesses from the checkout's sources.

    Commands are started through ``spawn.py`` so that their peak RSS is
    their own (see there). Use as a context manager: leaving it stops the
    helper and waits for it.
    """

    def __init__(self, root: Path, work: Path, budget_s: float = BUDGET_S):
        self.work = work
        self.deadline = time.perf_counter() + budget_s
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.probes: list[float] = []
        self._helper = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawn.py")],
            cwd=work,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()

    def _spawn(self, argv: list[str]) -> dict:
        request = {
            "argv": [sys.executable, *argv],
            "env": self.env,
            "stderr": "stderr.txt",
            "timeout": max(1.0, self.deadline - time.perf_counter()),
        }
        self._helper.stdin.write(json.dumps(request) + "\n")
        self._helper.stdin.flush()
        reply = self._helper.stdout.readline()
        if not reply:
            raise RuntimeError("the spawn helper exited")
        return json.loads(reply)

    def probe(self) -> float:
        """Time one run of the speed probe."""
        reply = self._spawn(REFERENCE_ARGV)
        if reply["returncode"] != 0:
            raise RuntimeError("the speed probe failed")
        self.probes.append(reply["wall_s"])
        return reply["wall_s"]

    def run(self, argv: list[str]) -> Outcome:
        """Run one command to completion.

        Reports the wall time, the peak RSS of the process tree as the
        kernel reports it when the command exits, and the wall time
        adjusted for machine speed. On a shared host the speed of the
        whole machine drifts by half and more over seconds to minutes, so
        every command is bracketed by runs of the speed probe and its wall
        time is scaled by REFERENCE_S over their mean. Each probe serves
        the commands on both sides of it.
        """
        before = self.probes[-1] if self.probes else self.probe()
        reply = self._spawn(["-m", "gecclean.cli", *argv])
        after = self.probe()
        message = (self.work / "stderr.txt").read_text("utf-8", "replace")
        return Outcome(
            reply["wall_s"],
            reply["wall_s"] * REFERENCE_S * 2 / (before + after),
            reply["maxrss_kb"] / 1024.0,
            reply["returncode"],
            message,
        )


def load_pins(workload: str, seed: int) -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as stream:
        return json.load(stream).get(workload, {}).get(str(seed), {})


class Checker:
    """Checks every command output; each distinct output is checked once."""

    def __init__(self, corpus: Corpus, drop_correct: bool, pins: dict[str, str]):
        self.corpus = corpus
        self.drop_correct = drop_correct
        self.pins = pins
        self.first: dict[str, str] = {}
        self._verdicts: dict[tuple[str, str], list[str]] = {}

    def __call__(self, command: str, data: bytes, outputs: dict[str, bytes]) -> list[str]:
        digest = hashlib.sha256(data).hexdigest()
        problems = []
        if self.first.setdefault(command, digest) != digest:
            problems.append("output differs from the first round's")
        if command in self.pins and self.pins[command] != digest:
            problems.append("sha256 differs from the pinned digest")
        key = (command, digest)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(command, data)
        problems += self._verdicts[key]
        if command == "clean_edi_least_t2" and "clean_edi_least" in outputs:
            problems += checks.check_same(
                data, outputs["clean_edi_least"], "the --threads 1 output"
            )
        return problems

    def _check(self, command: str, data: bytes) -> list[str]:
        if command.startswith("clean_"):
            return checks.check_clean(self.corpus, self.drop_correct, data)
        if command == "stats":
            return checks.check_stats(self.corpus, data)
        if command == "to_m2":
            return checks.check_to_m2(self.corpus, data)
        if command == "apply_m2":
            return checks.check_apply_m2(self.corpus, data)
        return checks.check_score(data)


@dataclass
class Measurement:
    """One run's samples: ``setup`` and ``walls`` hold speed-adjusted times
    (see ``Cli.run``), ``raw_setup`` and ``raw_walls`` the plain walls."""

    setup: list[float] = field(default_factory=list)
    walls: dict[str, list[float]] = field(default_factory=lambda: {c: [] for c in COMMANDS})
    raw_setup: list[float] = field(default_factory=list)
    raw_walls: dict[str, list[float]] = field(default_factory=lambda: {c: [] for c in COMMANDS})
    rss: dict[str, list[float]] = field(default_factory=lambda: {c: [] for c in COMMANDS})
    problems: list[str] = field(default_factory=list)
    rounds: int = 0
    attempted: int = 0
    failed: int = 0

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems:
            self.problems.append(f"{what}: {problem}")
            print(f"FAILED {what}: {problem}", file=sys.stderr)


def _start(cli: Cli, m: Measurement, record: bool = True) -> None:
    m.attempted += 1
    outcome = cli.run(["--version"])
    if outcome.returncode != 0:
        m.fail("--version", [f"exit {outcome.returncode}: {outcome.stderr.strip()}"])
    elif record:
        m.setup.append(outcome.adjusted_s)
        m.raw_setup.append(outcome.wall_s)


def measure(
    cli: Cli,
    argvs: dict,
    check: Checker,
    seconds: float,
    tamper: Callable[[str, Path], None] | None = None,
) -> Measurement:
    """Rounds of all commands until ``seconds`` pass, at least MIN_ROUNDS.

    ``tamper`` lets the self-test corrupt an output after its command ran.
    """
    m = Measurement()
    _start(cli, m, record=False)  # compiles bytecode; not a user-visible start
    started = time.perf_counter()
    for _ in range(SETUP_STARTS):
        _start(cli, m)
    round_s = 0.0
    while True:
        elapsed = time.perf_counter() - started
        if m.rounds and elapsed > HARD_STOP_S:
            break
        if m.rounds >= MIN_ROUNDS and elapsed + round_s > seconds:
            break
        round_started = time.perf_counter()
        outputs: dict[str, bytes] = {}
        for command in COMMANDS:
            m.attempted += 1
            outcome = cli.run(argvs[command])
            m.walls[command].append(outcome.adjusted_s)
            m.raw_walls[command].append(outcome.wall_s)
            m.rss[command].append(outcome.peak_rss_mb)
            if outcome.returncode != 0:
                m.fail(command, [f"exit {outcome.returncode}: {outcome.stderr.strip()}"])
                continue
            path = cli.work / f"{command}.out"
            if tamper is not None:
                tamper(command, path)
            data = path.read_bytes()
            outputs[command] = data
            problems = check(command, data, outputs)
            if problems:
                m.fail(command, problems)
        m.rounds += 1
        round_s = time.perf_counter() - round_started
    return m


def end_to_end(corpus: Corpus, m: Measurement) -> dict[str, tuple[float, str]]:
    metrics = {"setup_s": (statistics.median(m.setup), "s")}
    for command in COMMANDS:
        wall = statistics.median(m.walls[command])
        if command in BLOCK_COMMANDS:
            metrics[f"{command}.blocks_per_s"] = (len(corpus.groups) / wall, "blocks/s")
        else:
            metrics[f"{command}.lines_per_s"] = (corpus.lines / wall, "lines/s")
    for command in COMMANDS:
        metrics[f"{command}.peak_rss_mb"] = (statistics.median(m.rss[command]), "MB")
    return metrics


def _trimmed_cells(source: str, target: str) -> int:
    """|s'|*|t'| once shared prefix and suffix are trimmed, as the
    Levenshtein distance does before its DP."""
    if source == target:
        return 0
    limit = min(len(source), len(target))
    prefix = 0
    while prefix < limit and source[prefix] == target[prefix]:
        prefix += 1
    suffix = 0
    while suffix < limit - prefix and source[-1 - suffix] == target[-1 - suffix]:
        suffix += 1
    return (len(source) - prefix - suffix) * (len(target) - prefix - suffix)


def work_counts(corpus: Corpus, drop_correct: bool) -> dict[str, tuple[float, str]]:
    """Work counts from the corpus model: the bases of the layer rates."""
    pairs = list(corpus.distinct_pairs())
    align_cells = [(len(s) + 1) * (len(t) + 1) for s, t in pairs]
    return {
        "corpus.lines": (corpus.lines, "count"),
        "corpus.samples": (len(corpus.samples), "count"),
        "corpus.unique_sources": (len(corpus.groups), "count"),
        "corpus.dup_pairs": (len(corpus.samples) - len(pairs), "count"),
        "corpus.identity_pairs": (sum(s == t for s, t in pairs), "count"),
        "textmetrics.lev_pairs": (len(pairs), "count"),
        "textmetrics.dp_cells": (sum(_trimmed_cells(s, t) for s, t in pairs), "count"),
        "onetarget.ranked_groups": (
            sum(len(t) >= 2 for _, t in corpus.kept_groups(drop_correct)),
            "count",
        ),
        "edits.align_pairs": (len(pairs), "count"),
        "edits.align_cells": (sum(align_cells), "count"),
        "edits.max_pair_cells": (max(align_cells), "count"),
        "edits.m2_blocks": (len(corpus.groups), "count"),
        "scorer.entries": (len(corpus.groups), "count"),
    }


# Traced stage spans reported as the median of their durations, by metric.
STAGE_METRICS = {
    "corpus.parse_s": "corpus.parse",
    "corpus.normalize_s": "corpus.normalize",
    "corpus.group_s": "corpus.group",
    "corpus.filter_s": "corpus.filter",
    "corpus.write_s": "corpus.write",
    "textmetrics.lev_ratio_s": "textmetrics.lev_ratio",
    "onetarget.clean_lev_sim_s": "onetarget.clean_lev_sim",
    "onetarget.clean_edi_least_s": "onetarget.clean_edi_least",
    "edits.extract_s": "edits.extract",
    "edits.to_m2_s": "edits.to_m2",
    "edits.write_m2_s": "edits.write_m2",
    "edits.read_m2_s": "edits.read_m2",
    "edits.apply_s": "edits.apply",
    "stats.overall_s": "stats.overall",
    "stats.bucket_s": "stats.bucket",
    "stats.render_s": "stats.render",
    "scorer.evaluate_s": "scorer.evaluate",
}


def per_layer(tracer, corpus: Corpus, drop_correct: bool, m: Measurement, scale: float):
    """Per-layer metrics; span times are multiplied by ``scale``, the speed
    adjustment of the replay, so that they compare with adjusted walls."""
    metrics = work_counts(corpus, drop_correct)
    metrics["edits.m2_bytes"] = ((corpus.path.parent / "to_m2.out").stat().st_size, "bytes")
    for metric, name in STAGE_METRICS.items():
        metrics[metric] = (statistics.median(tracer.durations(name)) * scale, "s")
    metrics["textmetrics.dp_cells_per_s"] = (
        metrics["textmetrics.dp_cells"][0] / metrics["textmetrics.lev_ratio_s"][0],
        "cells/s",
    )
    metrics["edits.align_cells_per_s"] = (
        metrics["edits.align_cells"][0] / metrics["edits.extract_s"][0],
        "cells/s",
    )
    for layer, seconds in tracer.self_times().items():
        metrics[f"{layer}.self_s"] = (seconds * scale, "s")
    walls = {c: statistics.median(w) for c, w in m.walls.items()}
    setup_s = statistics.median(m.setup)
    metrics["cli.pool_speedup"] = (
        walls["clean_edi_least"] / walls["clean_edi_least_t2"],
        "ratio",
    )
    for command in COMMANDS:
        replayed = "clean_edi_least" if command == "clean_edi_least_t2" else command
        span = tracer.find(f"cli.{replayed}")
        stages = sum(
            tracer.duration(child)
            for child in tracer.children(span)
            if child["name"].split(".", 1)[0] != "cli"
        )
        metrics[f"cli.{command}.glue_s"] = (walls[command] - setup_s - stages * scale, "s")
    return metrics


def git_rev(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without leaving the root."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def traced(
    cli: Cli, workload: Workload, corpus: Corpus, work: Path, argvs: dict, m: Measurement
):
    """The traced in-process replay, bracketed by speed probes; returns the
    per-layer metrics and the spans."""
    from tracing import Tracer, import_gecclean, replay

    import_gecclean(ROOT)
    # Keep the collector off the benchmark's own objects, as in a fresh
    # CLI process.
    gc.collect()
    gc.freeze()
    tracer = Tracer(workload.name)
    before = cli.probe()
    with tracer.span("bench.trace"):
        replayed = replay(tracer, corpus, work, argvs)
    scale = REFERENCE_S * 2 / (before + cli.probe())
    for command, data in replayed.items():
        m.attempted += 1
        if data != (work / f"{command}.out").read_bytes():
            m.fail(f"traced {command}", ["in-process output differs"])
    return per_layer(tracer, corpus, workload.drop_correct, m, scale), tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gecclean" / "cli.py").is_file():
        print(f"no gecclean sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    threads = min(THREADS, nproc())

    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans = None
    try:
        corpus = workload.generate(seed, work / "input.tsv")
        size = corpus.size
        corpora.hypotheses(seed, corpus.groups, work / "hyp.txt")
        argvs = command_argvs(corpus, workload.drop_correct, threads)
        check = Checker(corpus, workload.drop_correct, load_pins(workload.name, seed))
        with Cli(ROOT, work) as cli:
            m = measure(cli, argvs, check, args.seconds)
            if not m.setup:
                metrics = {}
            elif args.trace:
                metrics, spans = traced(cli, workload, corpus, work, argvs, m)
            else:
                metrics = end_to_end(corpus, m)
        probes = cli.probes
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "nproc": nproc(),
        "threads": threads,
        "python": platform.python_version(),
        "git_rev": git_rev(ROOT),
        "rounds": m.rounds,
        "pinned_seed": bool(check.pins),
    }
    record = {
        "meta": meta,
        "walls": m.walls,
        "peak_rss_mb": m.rss,
        "setup": m.setup,
        "raw_walls": m.raw_walls,
        "raw_setup": m.raw_setup,
        "probes": probes,
        "digests": check.first,
        "problems": m.problems,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "spans": spans,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    name = f"{workload.name}-seed{seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    print("meta " + json.dumps(meta, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": m.failed == 0 and bool(metrics),
                "attempted": m.attempted,
                "failed": m.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
