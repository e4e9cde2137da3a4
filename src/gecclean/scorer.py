"""Multi-reference edit-level precision / recall / F0.5 scoring.

A hypothesis is scored per sentence against every gold annotator and the
most favorable annotator wins: most true positives, then fewest mistakes
(fp + fn), then lowest annotator id.  Counts are micro-accumulated over the
corpus before computing the final metrics.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Sequence

from .edits import Annotation, extract_edits


def f_beta(precision: float, recall: float, beta: float) -> float:
    """Weighted harmonic mean of precision and recall; 0 when degenerate."""
    b2 = beta * beta
    denominator = b2 * precision + recall
    if denominator == 0.0:
        return 0.0
    return (1.0 + b2) * precision * recall / denominator


class ScoreReport(NamedTuple):
    """Micro-averaged corpus counts with derived metrics.

    A denominator of zero yields 1.0 for the affected metric, so a no-edit
    hypothesis evaluated against a no-edit gold scores perfectly.
    """

    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 1.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 1.0

    @property
    def f_half(self) -> float:
        return f_beta(self.precision, self.recall, 0.5)


def evaluate_sentence(
    source: str, hypothesis: str, gold: Sequence[Annotation]
) -> tuple[int, int, int, int]:
    """Score one hypothesis against the gold annotators of its source.

    Hypothesis edits are extracted with the same aligner used to build the
    gold file; an edit matches when (start, end, replacement) all agree.
    Kind labels are ignored since they are derived from span shape.
    Returns (tp, fp, fn, chosen annotator id).
    """
    if not gold:
        raise ValueError(
            "at least one gold annotation is required (a noop annotation counts)"
        )
    hypothesis_edits = set(extract_edits(source, hypothesis).edits)
    best: tuple[int, int, int] | None = None
    chosen: tuple[int, int, int, int] | None = None
    for annotation in gold:
        for edit in annotation.edits:
            if edit.end > len(source):
                raise ValueError(
                    f"gold edit {edit} of annotator {annotation.annotator_id}"
                    f" is out of bounds for a {len(source)}-token source"
                )
        reference = set(annotation.edits)
        tp = len(hypothesis_edits & reference)
        fp = len(hypothesis_edits) - tp
        fn = len(reference) - tp
        key = (tp, -(fp + fn), -annotation.annotator_id)
        if best is None or key > best:
            best = key
            chosen = (tp, fp, fn, annotation.annotator_id)
    assert chosen is not None
    return chosen


def evaluate_corpus(
    entries: Iterable[tuple[str, str, Sequence[Annotation]]]
) -> ScoreReport:
    """Micro-accumulate (tp, fp, fn) over (source, hypothesis, gold) entries."""
    total_tp = total_fp = total_fn = 0
    count = 0
    for index, (source, hypothesis, gold) in enumerate(entries):
        try:
            tp, fp, fn, _ = evaluate_sentence(source, hypothesis, gold)
        except ValueError as exc:
            raise ValueError(f"entry {index}: {exc}") from exc
        total_tp += tp
        total_fp += fp
        total_fn += fn
        count += 1
    if count == 0:
        raise ValueError("cannot score an empty corpus")
    return ScoreReport(total_tp, total_fp, total_fn)


def render_report(report: ScoreReport, as_json: bool = False) -> str:
    """ScoreReport as aligned text or JSON."""
    if as_json:
        payload = {
            "tp": report.tp,
            "fp": report.fp,
            "fn": report.fn,
            "precision": report.precision,
            "recall": report.recall,
            "f0.5": report.f_half,
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [
        f"tp         {report.tp}",
        f"fp         {report.fp}",
        f"fn         {report.fn}",
        f"precision  {report.precision:.4f}",
        f"recall     {report.recall:.4f}",
        f"f0.5       {report.f_half:.4f}",
    ]
    return "\n".join(lines) + "\n"
