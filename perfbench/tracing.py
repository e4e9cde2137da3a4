"""The traced in-process run: stage spans around each public library call.

The untraced benchmark runs every command as a subprocess. This module
replays the same commands in the benchmark's own process, calling the
library the way ``gecclean.cli`` does, with one span around each call into
a module of ``src/gecclean``. Spans are stage-level only (no per-item
spans) and stay in memory until the run writes its result file.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from pathlib import Path

from corpora import Corpus

LAYERS = ("corpus", "textmetrics", "onetarget", "edits", "stats", "scorer", "cli")


class Tracer:
    """In-memory spans: name, start, end, parent and workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    @staticmethod
    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def durations(self, name: str) -> list[float]:
        return [self.duration(s) for s in self.spans if s["name"] == name]

    def children(self, span: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span["id"]]

    def find(self, name: str) -> dict:
        return next(s for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their children cover.

        Children of one span run one after another, so the time they
        cover is the sum of their durations.
        """
        totals = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            layer = span["name"].split(".", 1)[0]
            if layer in totals:
                covered = sum(self.duration(c) for c in self.children(span))
                totals[layer] += self.duration(span) - covered
        return totals


def import_gecclean(root: Path):
    """Import the package from the checkout's ``src``, nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import gecclean

    if Path(gecclean.__file__).resolve().parent != (src / "gecclean").resolve():
        raise RuntimeError(f"imported gecclean from {gecclean.__file__}, not {src}")
    return gecclean


def replay(tracer: Tracer, corpus: Corpus, work: Path, argvs: dict) -> dict[str, bytes]:
    """Run each command's library calls in process, one span per call.

    ``argvs`` maps command names to the argument lists the subprocess run
    used. Returns the replayed outputs keyed by command name, for
    comparison with the subprocess outputs. The ``clean --threads 2``
    command is not replayed: its stages are those of ``clean_edi_least``.
    """
    from gecclean import cli, corpus as corpus_mod, edits, onetarget, scorer, stats
    from gecclean import textmetrics

    span = tracer.span
    outputs: dict[str, bytes] = {}

    def parse_args(command):
        with span("cli.parse_args"):
            return cli.build_parser().parse_args(argvs[command])

    def read_samples(args):
        with span("corpus.parse"), open(work / args.input, "rb") as stream:
            return list(
                corpus_mod.parse_parallel(stream, multi_target=args.multi_target_lines)
            )

    def read_groups(args):
        samples = read_samples(args)
        with span("corpus.group"):
            groups = corpus_mod.group_by_source(samples)
        if getattr(args, "drop_correct", False):
            with span("corpus.filter"):
                groups = corpus_mod.filter_groups(
                    groups, drop_correct=True, drop_identity_targets=True
                )
        return groups

    def write_samples(samples, name):
        with span("corpus.write"), open(
            work / name, "w", encoding="utf-8", newline="\n"
        ) as out:
            corpus_mod.write_parallel(samples, out)
        return (work / name).read_bytes()

    for command, strategy in (
        ("clean_lev_sim", onetarget.Strategy.LEV_SIM),
        ("clean_edi_least", onetarget.Strategy.EDI_LEAST),
    ):
        with span(f"cli.{command}"):
            args = parse_args(command)
            groups = read_groups(args)
            config = onetarget.SelectionConfig(strategy, args.seed)
            with span(f"onetarget.{command}"):
                chosen = onetarget.clean_corpus(groups, config)
            outputs[command] = write_samples(chosen, f"traced.{command}")

    with span("cli.stats"):
        args = parse_args("stats")
        samples = read_samples(args)
        with span("stats.overall"):
            overall = stats.overall_stats(samples)
        with span("corpus.group"):
            groups = corpus_mod.group_by_source(samples)
        with span("corpus.filter"):
            groups = corpus_mod.filter_groups(
                groups, drop_correct=True, drop_identity_targets=True
            )
        with span("stats.bucket"):
            buckets = stats.bucket_stats(groups)
        with span("stats.render"):
            outputs["stats"] = stats.render_report(
                overall, buckets, as_json=True
            ).encode("utf-8")

    with span("cli.to_m2"):
        args = parse_args("to_m2")
        groups = read_groups(args)
        with span("edits.extract"):
            annotations = [
                [
                    edits.extract_edits(group.source, target, annotator_id=i)
                    for i, target in enumerate(group.targets)
                ]
                for group in groups
            ]
        with span("edits.to_m2"):
            blocks = [
                edits.to_m2(group.source, found)
                for group, found in zip(groups, annotations)
            ]
        with span("edits.write_m2"), open(
            work / "traced.to_m2", "w", encoding="utf-8", newline="\n"
        ) as out:
            edits.write_m2_file(blocks, out)
        outputs["to_m2"] = (work / "traced.to_m2").read_bytes()

    with span("cli.apply_m2"):
        args = parse_args("apply_m2")
        with span("edits.read_m2"), open(
            work / args.input, "r", encoding="utf-8", newline=""
        ) as stream:
            entries = list(edits.read_m2_file(stream))
        with span("edits.apply"):
            lines = [
                edits.apply_edits(source, annotation)
                for source, found in entries
                for annotation in found
            ]
        outputs["apply_m2"] = "".join(line + "\n" for line in lines).encode("utf-8")

    with span("cli.score"):
        args = parse_args("score")
        with span("corpus.read_hypotheses"), open(
            work / args.hyp, "r", encoding="utf-8"
        ) as stream:
            hypotheses = [corpus_mod.normalize(line) for line in stream]
        with span("edits.read_m2"), open(
            work / args.gold, "r", encoding="utf-8", newline=""
        ) as stream:
            gold = list(edits.read_m2_file(stream))
        scored = [
            (source, hypothesis, found)
            for (source, found), hypothesis in zip(gold, hypotheses)
        ]
        with span("scorer.evaluate"):
            report = scorer.evaluate_corpus(scored)
        with span("scorer.render"):
            outputs["score"] = scorer.render_report(report, as_json=True).encode("utf-8")

    # Layer-only stages that no single command isolates.
    with open(corpus.path, "rb") as stream:
        fields = [
            field
            for raw in stream
            if raw.strip()
            for field in raw.decode("utf-8").rstrip("\r\n").split("\t")
        ]
    with span("corpus.normalize"):
        for field in fields:
            corpus_mod.normalize(field)
    pairs = list(corpus.distinct_pairs())
    with span("textmetrics.lev_ratio"):
        for source, target in pairs:
            textmetrics.levenshtein_ratio(source, target)
    return outputs
