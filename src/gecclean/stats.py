"""Corpus statistics: the overall table and the per-target-count breakdown."""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple

from .corpus import Sample, SourceGroup
from .edits import extract_edits
from .textmetrics import levenshtein_ratio

# Groups with this many targets or more share one pooled bucket.
POOLED_BUCKET_MIN = 8
_POOLED_LABEL = ">=8"
TOTAL_LABEL = "total"


class _CompensatedSum:
    """Kahan summation; fixed input order keeps runs bit-identical."""

    __slots__ = ("value", "_residue")

    def __init__(self):
        self.value = 0.0
        self._residue = 0.0

    def add(self, x: float) -> None:
        y = x - self._residue
        t = self.value + y
        self._residue = (t - self.value) - y
        self.value = t


class CorpusStats(NamedTuple):
    """Whole-corpus statistics over samples (line-level, duplicates kept)."""

    sample_count: int
    erroneous_count: int
    unique_source_count: int
    mean_source_length: float
    mean_lev_ratio: float

    @property
    def erroneous_proportion(self) -> float:
        return self.erroneous_count / self.sample_count if self.sample_count else 0.0

    @property
    def unique_source_proportion(self) -> float:
        return (
            self.unique_source_count / self.sample_count if self.sample_count else 0.0
        )


class TargetCountBucketStats(NamedTuple):
    """Statistics for groups bucketed by their number of targets."""

    bucket: str
    source_count: int
    proportion: float
    mean_source_length: float
    mean_lev_ratio: float
    variance_lev_ratio: float
    mean_edits_per_target: float


def overall_stats(samples: Iterable[Sample]) -> CorpusStats:
    """Single-pass aggregation of the whole-corpus statistics.

    Lengths are counted in characters of the source; the Levenshtein ratio
    is averaged over every (source, target) pair.  An empty corpus yields
    an all-zero record.
    """
    count = erroneous = 0
    length_total = 0
    ratio_total = _CompensatedSum()
    sources: set[str] = set()
    for source, target in samples:
        count += 1
        if source != target:
            erroneous += 1
        length_total += len(source)
        ratio_total.add(levenshtein_ratio(source, target))
        sources.add(source)
    if count == 0:
        return CorpusStats(0, 0, 0, 0.0, 0.0)
    return CorpusStats(
        sample_count=count,
        erroneous_count=erroneous,
        unique_source_count=len(sources),
        mean_source_length=length_total / count,
        mean_lev_ratio=ratio_total.value / count,
    )


class _BucketAccumulator:
    __slots__ = ("groups", "length_total", "pairs", "ratio", "ratio_sq", "edit_total")

    def __init__(self):
        self.groups = 0
        self.length_total = 0
        self.pairs = 0
        self.ratio = _CompensatedSum()
        self.ratio_sq = _CompensatedSum()
        self.edit_total = 0

    def add(self, source_length: int, pair_values: list[tuple[float, int]]) -> None:
        self.groups += 1
        self.length_total += source_length
        for ratio, edit_count in pair_values:
            self.pairs += 1
            self.ratio.add(ratio)
            self.ratio_sq.add(ratio * ratio)
            self.edit_total += edit_count

    def row(self, label: str, total_groups: int) -> TargetCountBucketStats:
        mean_ratio = self.ratio.value / self.pairs
        # Population variance via E[x^2] - E[x]^2, clamped against rounding.
        variance = max(self.ratio_sq.value / self.pairs - mean_ratio * mean_ratio, 0.0)
        return TargetCountBucketStats(
            bucket=label,
            source_count=self.groups,
            proportion=self.groups / total_groups,
            mean_source_length=self.length_total / self.groups,
            mean_lev_ratio=mean_ratio,
            variance_lev_ratio=variance,
            mean_edits_per_target=self.edit_total / self.pairs,
        )


def _pair_values(source: str, target: str) -> tuple[float, int]:
    """The Levenshtein ratio of a pair and its edit count, from one alignment."""
    edits = extract_edits(source, target).edits
    total = len(source) + len(target)
    if total == 0:
        return 1.0, 0
    # A merged edit is a run of s substitutions, d deletions and i
    # insertions: it costs s + d + i, spans s + d source characters and
    # replaces them with s + i.  In a minimum-cost alignment d or i is 0,
    # since one substitution would replace a deletion and an insertion at
    # lower cost; so the edit costs max(end - start, len(replacement)), and
    # their sum is levenshtein_distance.  The ratio is levenshtein_ratio's:
    # the same integer over the same total.
    distance = sum(max(edit.end - edit.start, len(edit.replacement)) for edit in edits)
    return (total - distance) / total, len(edits)


def bucket_stats(groups: Iterable[SourceGroup]) -> list[TargetCountBucketStats]:
    """Per-target-count statistics plus a total row.

    Callers are expected to pre-filter groups to erroneous sources (see
    ``corpus.filter_groups``).  Buckets 1..7 are individual, 8 and above
    pooled; empty buckets are omitted.  Variance is population variance.
    """
    labels = [str(n) for n in range(1, POOLED_BUCKET_MIN)] + [_POOLED_LABEL]
    buckets = {label: _BucketAccumulator() for label in labels}
    total = _BucketAccumulator()
    group_count = 0
    for group in groups:
        group_count += 1
        pair_values = [_pair_values(group.source, target) for target in group.targets]
        size = len(group.targets)
        label = str(size) if size < POOLED_BUCKET_MIN else _POOLED_LABEL
        buckets[label].add(len(group.source), pair_values)
        total.add(len(group.source), pair_values)
    if group_count == 0:
        return []
    rows = [
        buckets[label].row(label, group_count)
        for label in labels
        if buckets[label].groups
    ]
    rows.append(total.row(TOTAL_LABEL, group_count))
    return rows


def _format_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in [header] + rows
    ]
    return "\n".join(lines) + "\n"


def format_overall(stats: CorpusStats) -> str:
    """Aligned one-row table mirroring the overall-statistics columns."""
    header = ["samples", "erroneous", "unique_sources", "length", "lev_ratio"]
    row = [
        str(stats.sample_count),
        f"{stats.erroneous_count} ({stats.erroneous_proportion:.2%})",
        f"{stats.unique_source_count} ({stats.unique_source_proportion:.2%})",
        f"{stats.mean_source_length:.1f}",
        f"{stats.mean_lev_ratio:.2f}",
    ]
    return _format_table(header, [row])


def format_buckets(rows: Iterable[TargetCountBucketStats]) -> str:
    """Aligned table of the per-target-count breakdown."""
    header = [
        "targets",
        "sources",
        "proportion",
        "length",
        "lev_mean",
        "lev_var",
        "edits_per_target",
    ]
    body = [
        [
            row.bucket,
            str(row.source_count),
            f"{row.proportion:.2%}",
            f"{row.mean_source_length:.1f}",
            f"{row.mean_lev_ratio:.2f}",
            f"{row.variance_lev_ratio:.4f}",
            f"{row.mean_edits_per_target:.1f}",
        ]
        for row in rows
    ]
    return _format_table(header, body)


def report_json(
    overall: CorpusStats, buckets: Iterable[TargetCountBucketStats]
) -> dict:
    return {
        "overall": {
            "samples": overall.sample_count,
            "erroneous": overall.erroneous_count,
            "erroneous_proportion": overall.erroneous_proportion,
            "unique_sources": overall.unique_source_count,
            "unique_source_proportion": overall.unique_source_proportion,
            "mean_source_length": overall.mean_source_length,
            "mean_levenshtein_ratio": overall.mean_lev_ratio,
        },
        "by_target_count": [
            {
                "targets": row.bucket,
                "sources": row.source_count,
                "proportion": row.proportion,
                "mean_source_length": row.mean_source_length,
                "mean_levenshtein_ratio": row.mean_lev_ratio,
                "variance_levenshtein_ratio": row.variance_lev_ratio,
                "mean_edits_per_target": row.mean_edits_per_target,
            }
            for row in buckets
        ],
    }


def render_report(
    overall: CorpusStats,
    buckets: list[TargetCountBucketStats],
    as_json: bool = False,
) -> str:
    """Full statistics report, either human-aligned text or JSON."""
    if as_json:
        return json.dumps(report_json(overall, buckets), indent=2, ensure_ascii=False) + "\n"
    return format_overall(overall) + "\n" + format_buckets(buckets)
