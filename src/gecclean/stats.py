"""Corpus statistics: the overall table and the per-target-count breakdown."""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple

from .corpus import SourceGroup
from .edits import extract_edits

# Groups with this many targets or more share one pooled bucket.
POOLED_BUCKET_MIN = 8
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
    """Whole-corpus statistics over samples (line-level, duplicates kept).

    The fields are the keys of the report's ``overall`` object.
    """

    samples: int
    erroneous: int
    erroneous_proportion: float
    unique_sources: int
    unique_source_proportion: float
    mean_source_length: float
    mean_levenshtein_ratio: float


class TargetCountBucketStats(NamedTuple):
    """Statistics for groups bucketed by their number of targets.

    The fields are the keys of a ``by_target_count`` row of the report.
    """

    targets: str
    sources: int
    proportion: float
    mean_source_length: float
    mean_levenshtein_ratio: float
    variance_levenshtein_ratio: float
    mean_edits_per_target: float


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
            targets=label,
            sources=self.groups,
            proportion=self.groups / total_groups,
            mean_source_length=self.length_total / self.groups,
            mean_levenshtein_ratio=mean_ratio,
            variance_levenshtein_ratio=variance,
            mean_edits_per_target=self.edit_total / self.pairs,
        )


def _pair_values(source: str, target: str) -> tuple[float, int]:
    """The Levenshtein ratio of a pair and its edit count, from one alignment."""
    if source == target:
        return 1.0, 0
    edits = extract_edits(source, target).edits
    total = len(source) + len(target)
    # A merged edit is a run of s substitutions, d deletions and i
    # insertions: it costs s + d + i, spans s + d source characters and
    # replaces them with s + i.  In a minimum-cost alignment d or i is 0,
    # since one substitution would replace a deletion and an insertion at
    # lower cost; so the edit costs max(end - start, len(replacement)), and
    # their sum is levenshtein_distance.  The ratio is levenshtein_ratio's:
    # the same integer over the same total.
    distance = sum(max(edit.end - edit.start, len(edit.replacement)) for edit in edits)
    return (total - distance) / total, len(edits)


def corpus_stats(
    samples: Iterable[tuple[str, str]],
) -> tuple[CorpusStats, list[TargetCountBucketStats]]:
    """The overall table and the per-target-count breakdown, in one pass.

    Each distinct pair is aligned once, on its first line; the overall table
    counts every line, and the breakdown reads back each source's erroneous
    targets in first-appearance order, in buckets 1..7 and a pooled >=8.
    """
    count = erroneous = length_total = 0
    ratio_total = _CompensatedSum()
    # A source with one distinct target holds (target, values), and one
    # with more a dict from target to values.
    pairs: dict[str, tuple[str, tuple[float, int]] | dict[str, tuple[float, int]]] = {}
    # Equal (ratio, edit count) values share the tuple first made for them.
    shared: dict[tuple[float, int], tuple[float, int]] = {}

    def values_of(source: str, target: str) -> tuple[float, int]:
        values = _pair_values(source, target)
        return shared.setdefault(values, values)

    for source, target in samples:
        count += 1
        erroneous += source != target
        length_total += len(source)
        targets = pairs.get(source)
        if targets is None:
            values = values_of(source, target)
            pairs[source] = (target, values)
        elif type(targets) is tuple:
            if targets[0] == target:
                values = targets[1]
            else:
                values = values_of(source, target)
                pairs[source] = dict([targets, (target, values)])
        else:
            values = targets.get(target)
            if values is None:
                values = targets[target] = values_of(source, target)
        ratio_total.add(values[0])
    divisor = max(count, 1)  # an empty corpus yields an all-zero record
    overall = CorpusStats(
        samples=count,
        erroneous=erroneous,
        erroneous_proportion=erroneous / divisor,
        unique_sources=len(pairs),
        unique_source_proportion=len(pairs) / divisor,
        mean_source_length=length_total / divisor,
        mean_levenshtein_ratio=ratio_total.value / divisor,
    )
    # buckets[n - 1] holds the groups of n erroneous targets; the last pools the rest.
    buckets = [_BucketAccumulator() for _ in range(POOLED_BUCKET_MIN)]
    total = _BucketAccumulator()
    for source, targets in pairs.items():
        items = (targets,) if type(targets) is tuple else targets.items()
        pair_values = [values for target, values in items if target != source]
        if pair_values:
            n = min(len(pair_values), POOLED_BUCKET_MIN)
            buckets[n - 1].add(len(source), pair_values)
            total.add(len(source), pair_values)
    rows = [
        bucket.row(str(n) if n < POOLED_BUCKET_MIN else f">={n}", total.groups)
        for n, bucket in enumerate(buckets, 1)
        if bucket.groups
    ]
    if rows:
        rows.append(total.row(TOTAL_LABEL, total.groups))
    return overall, rows


def overall_stats(samples: Iterable[tuple[str, str]]) -> CorpusStats:
    """The overall table of ``corpus_stats``, which aligns each distinct pair."""
    return corpus_stats(samples)[0]


def bucket_stats(groups: Iterable[SourceGroup]) -> list[TargetCountBucketStats]:
    """The breakdown of ``corpus_stats`` over ``group_by_source`` groups.

    Identity targets, and the sources left with none, are dropped here.
    """
    return corpus_stats(
        (group.source, target) for group in groups for target in group.targets
    )[1]


# One (header, template) per column of each text table; a template formats
# a record's fields, which are the JSON report's keys, so the text shows
# only what the JSON holds.
_OVERALL_COLUMNS = (
    ("samples", "{samples}"),
    ("erroneous", "{erroneous} ({erroneous_proportion:.2%})"),
    ("unique_sources", "{unique_sources} ({unique_source_proportion:.2%})"),
    ("length", "{mean_source_length:.1f}"),
    ("lev_ratio", "{mean_levenshtein_ratio:.2f}"),
)
_BUCKET_COLUMNS = (
    ("targets", "{targets}"),
    ("sources", "{sources}"),
    ("proportion", "{proportion:.2%}"),
    ("length", "{mean_source_length:.1f}"),
    ("lev_mean", "{mean_levenshtein_ratio:.2f}"),
    ("lev_var", "{variance_levenshtein_ratio:.4f}"),
    ("edits_per_target", "{mean_edits_per_target:.1f}"),
)


def _format_table(columns: tuple[tuple[str, str], ...], records: list[dict]) -> str:
    """Aligned table: a header row, then one row per record."""
    rows = [[header for header, _ in columns]]
    rows += [[template.format_map(record) for _, template in columns] for record in records]
    widths = [max(len(row[i]) for row in rows) for i in range(len(columns))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def render_report(
    overall: CorpusStats,
    buckets: list[TargetCountBucketStats],
    as_json: bool = False,
) -> str:
    """Full statistics report, either human-aligned text or JSON."""
    record = {
        "overall": overall._asdict(),
        "by_target_count": [row._asdict() for row in buckets],
    }
    if as_json:
        return json.dumps(record, indent=2, ensure_ascii=False) + "\n"
    return (
        _format_table(_OVERALL_COLUMNS, [record["overall"]])
        + "\n"
        + _format_table(_BUCKET_COLUMNS, record["by_target_count"])
    )
