"""Independent reference implementations used to derive expected values.

Nothing here shares code with the package under test: the distance oracle
is the plain recursive definition, the alignment oracle enumerates every
minimum-cost path and applies the documented tie-break to pick the
canonical one, ``align_full_matrix`` is the aligner the package used
before it switched to a banded fill and then to a backtrace over
bit-vector deltas, and ``levenshtein_distance_dp`` is the row DP the
package used before its bit-vector kernel; the last two are kept as the
references for long pairs.  ``align_full_matrix`` checks the package's
aligner, which keeps two bit vectors of each column of only a band of
diagonals; ``distance_matrix``, the matrix it backtraces over, checks what
each of those columns holds.
``merge_path`` is the forward walk over a per-character path that
``extract_edits`` used before its backtrace emitted merged edits.
``decode_s_line_by_tokens`` is the M2 S-line decoder the package used
before it took every other character.  These two share only the package's
``Edit`` type and exception class.  ``parse_m2_by_join`` and
``read_m2_file_by_join`` are the M2 block parser and file reader the
package used before the reader handed each block's lines straight to the
parser: the reader joins a block's lines into one string, which the parser
splits again, and a noop annotator is a ``None`` entry.  The reader reads
its lines through ``read_lines_by_line``, the line reader the package used
before it read a binary stream in blocks: it decodes and strips each line
alone, as iterating the stream yields them.  Each A line goes through
``_parse_a_line``, the package's A-line parser from before its block
parser read each line in one pass, built each record once and parsed each
distinct span and annotator id once: it builds an ``Edit`` through its
validating constructor, and each edit is checked against its annotator's
previous one through a pairwise ``Annotation``.  They share the package's
S-line decoder, record types and kind rule, so they check every field
check and its message as well as block structure: line numbers, blank
lines, noops and edit order.
``overall_stats_by_line`` and ``bucket_stats_by_group`` are the two
statistics passes the package made before ``corpus_stats`` read the
samples once: a distance per line for the overall table, then one
alignment per target of pre-filtered groups for the breakdown.  They share
the package's accumulators, and the breakdown its ``_pair_values``, so they
check the single pass: line order, duplicates, identity targets, bucket
order and every float's bit pattern.  ``evaluate_sentence_per_edit`` is the
sentence scorer the package used before an annotation's bounds were checked
on its last edit alone: it checks every gold edit against the source and
builds a set of each annotator's edits.  ``levenshtein_distance_by_trim``
is the distance the package computed before its two closed forms (s inside
t, and a core of at most one character): every unequal pair has its affixes
trimmed and, unless a core is empty, runs the package's bit-vector pass.
``apply_edits_by_splice`` is the annotation applier the package used before
it joined the text between the edits and their replacements left to right:
it splices each edit into a list of characters, right to left.
``to_m2_by_join`` is the M2 block renderer the package used before it
spaced the S line with one ``str.replace`` and read each edit's fields by
unpacking: it joins the source's characters with spaces and reads each
edit's kind through ``Edit.kind``.  It shares the package's ``_check_bounds``
and kind rule, and its error messages are its own copies.
``group_by_source_by_dicts`` is the grouping the package did before a
source with one target held that target as a string and the command line
took its groups as an iterator: every source holds a dict of its targets,
and the list of groups is built before it is returned.  It shares the
package's ``SourceGroup`` only.  ``parse_parallel_by_field`` is the TSV
parser the package used before it parsed a decoded run of lines at a time
and only stripped the fields of a run that is already NFC: it takes one
line at a time from ``read_lines`` and normalizes every field.  It shares
the package's line reader, ``normalize``, ``Sample`` and exception class,
so it checks the run parser and the rule that decides which runs need no
``normalize``.  ``TrickleStream`` is no reference but the
input that tests the block readers against ``read_lines_by_line``: a binary
stream whose reads return a few bytes each, so characters, line endings
and lines straddle its blocks.  ``edited_pairs`` is the other shared
input: a hypothesis strategy for a string over an alphabet and a copy of
it a few insertions, substitutions and deletions away, the near pairs that
the distance kernel and the aligner must get right.
"""

from __future__ import annotations

import functools
import io
import itertools
from typing import Sequence

from hypothesis import strategies as st

from gecclean.corpus import ParallelFormatError, Sample, SourceGroup, normalize, read_lines
from gecclean.edits import extract_edits
from gecclean.m2 import (
    _NONE_FIELD,
    Annotation,
    Edit,
    M2FormatError,
    _check_bounds,
    _decode_s_line,
)
from gecclean.stats import (
    POOLED_BUCKET_MIN,
    TOTAL_LABEL,
    CorpusStats,
    _BucketAccumulator,
    _CompensatedSum,
    _pair_values,
)
from gecclean.textmetrics import bit_vector_columns, common_affixes, levenshtein_ratio

STEP_PRIORITY = {"match": 0, "substitute": 1, "delete": 2, "insert": 3}


@functools.lru_cache(maxsize=None)
def levenshtein_recursive(a: str, b: str) -> int:
    """The textbook recursive definition of Levenshtein distance."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    substitution = 0 if a[0] == b[0] else 1
    return min(
        levenshtein_recursive(a[1:], b[1:]) + substitution,
        levenshtein_recursive(a[1:], b) + 1,
        levenshtein_recursive(a, b[1:]) + 1,
    )


def all_min_cost_paths(s: str, t: str) -> list[tuple[str, ...]]:
    """Every minimum-cost alignment path from s to t (exhaustive)."""
    best = levenshtein_recursive(s, t)
    m, n = len(s), len(t)
    results: list[tuple[str, ...]] = []

    def walk(i: int, j: int, cost: int, path: list[str]) -> None:
        # Remaining cost is at least the length imbalance still to absorb.
        if cost + abs((m - i) - (n - j)) > best:
            return
        if i == m and j == n:
            if cost == best:
                results.append(tuple(path))
            return
        if i < m and j < n:
            if s[i] == t[j]:
                path.append("match")
                walk(i + 1, j + 1, cost, path)
                path.pop()
            else:
                path.append("substitute")
                walk(i + 1, j + 1, cost + 1, path)
                path.pop()
        if i < m:
            path.append("delete")
            walk(i + 1, j, cost + 1, path)
            path.pop()
        if j < n:
            path.append("insert")
            walk(i, j + 1, cost + 1, path)
            path.pop()

    walk(0, 0, 0, [])
    return results


def canonical_min_path(s: str, t: str) -> tuple[str, ...]:
    """The unique min-cost path selected by the backtrace tie-break.

    The backtrace walks from the end of both strings and prefers
    match > substitute > delete > insert at every position, which is
    exactly lexicographic minimization of the reversed step sequence
    under that priority order.
    """
    paths = all_min_cost_paths(s, t)
    return min(
        paths, key=lambda p: tuple(STEP_PRIORITY[step] for step in reversed(p))
    )


def distance_matrix(s: str, t: str) -> list[list[int]]:
    """The full (m+1) x (n+1) unit-cost matrix: row i, column j is D(i, j)."""
    m, n = len(s), len(t)
    dist = [list(range(n + 1))]
    for i in range(1, m + 1):
        previous = dist[-1]
        row = [i] * (n + 1)
        sc = s[i - 1]
        for j in range(1, n + 1):
            best = previous[j - 1] + (sc != t[j - 1])
            left = row[j - 1] + 1
            if left < best:
                best = left
            up = previous[j] + 1
            if up < best:
                best = up
            row[j] = best
        dist.append(row)
    return dist


def align_full_matrix(s: str, t: str) -> list[str]:
    """Backtrace over the full (m+1) x (n+1) distance matrix.

    Ties are broken match > substitute > delete > insert, walking back from
    (m, n).  Time and memory grow with m * n.
    """
    dist = distance_matrix(s, t)
    path: list[str] = []
    i, j = len(s), len(t)
    while i or j:
        here = dist[i][j]
        if i and j and s[i - 1] == t[j - 1] and dist[i - 1][j - 1] == here:
            path.append("match")
            i -= 1
            j -= 1
        elif i and j and s[i - 1] != t[j - 1] and dist[i - 1][j - 1] + 1 == here:
            path.append("substitute")
            i -= 1
            j -= 1
        elif i and dist[i - 1][j] + 1 == here:
            path.append("delete")
            i -= 1
        else:
            path.append("insert")
            j -= 1
    path.reverse()
    return path


def merge_path(path: list[str], t: str) -> tuple[Edit, ...]:
    """Merge each maximal run of non-match steps of a path into one edit.

    The run covers the source positions it consumed, with the covered
    target characters as replacement.
    """
    edits = []
    i = j = 0
    run: tuple[int, int] | None = None
    for step in path:
        if step == "match":
            if run is not None:
                edits.append(Edit(run[0], i, t[run[1] : j]))
                run = None
            i += 1
            j += 1
            continue
        if run is None:
            run = (i, j)
        if step == "substitute":
            i += 1
            j += 1
        elif step == "delete":
            i += 1
        else:
            j += 1
    if run is not None:
        edits.append(Edit(run[0], i, t[run[1] : j]))
    return tuple(edits)


def levenshtein_distance_dp(s: str, t: str) -> int:
    """Unit-cost edit distance by a row-by-row DP over every cell.

    Shared affixes are trimmed first.  Runs in O(len(s) * len(t)) time and
    O(min) memory.
    """
    if s == t:
        return 0
    # Shared affixes never change the distance; trimming them keeps the DP
    # core tiny on the near-identical pairs that dominate GEC corpora.
    limit = min(len(s), len(t))
    prefix = 0
    while prefix < limit and s[prefix] == t[prefix]:
        prefix += 1
    suffix = 0
    while suffix < limit - prefix and s[-1 - suffix] == t[-1 - suffix]:
        suffix += 1
    s = s[prefix : len(s) - suffix]
    t = t[prefix : len(t) - suffix]
    if not s:
        return len(t)
    if not t:
        return len(s)
    if len(s) > len(t):
        s, t = t, s
    row = list(range(len(s) + 1))
    for j, tc in enumerate(t, 1):
        diagonal = row[0]
        row[0] = j
        for i, sc in enumerate(s, 1):
            above = row[i]
            best = diagonal if sc == tc else diagonal + 1
            left = row[i - 1] + 1
            if left < best:
                best = left
            up = above + 1
            if up < best:
                best = up
            row[i] = best
            diagonal = above
    return row[-1]


def levenshtein_distance_by_trim(s: str, t: str) -> int:
    """Unit-cost edit distance: the affix trim, then the bit-vector pass."""
    if s == t:
        return 0
    prefix, suffix = common_affixes(s, t)
    s = s[prefix : len(s) - suffix]
    t = t[prefix : len(t) - suffix]
    if not s:
        return len(t)
    if not t:
        return len(s)
    if len(s) > len(t):
        s, t = t, s
    return bit_vector_columns(s, t, len(s))


def decode_s_line_by_tokens(remainder: str, line_number: int) -> str:
    """Decode an S line by counting the empty fields of a split on spaces."""
    # Tokens are single characters joined by single spaces, so a literal
    # space token appears as exactly two consecutive empty split fields.
    if remainder == "":
        return ""
    tokens: list[str] = []
    empties = 0
    for field in remainder.split(" "):
        if field == "":
            empties += 1
            continue
        if empties % 2:
            raise M2FormatError("unbalanced spaces in S line", line_number)
        tokens.append(" " * (empties // 2))
        empties = 0
        if len(field) != 1:
            raise M2FormatError(
                f"multi-character token {field!r} in S line"
                " (this is a character-level format)",
                line_number,
            )
        tokens.append(field)
    if empties % 2:
        raise M2FormatError("unbalanced spaces in S line", line_number)
    tokens.append(" " * (empties // 2))
    return "".join(tokens)


def _parse_a_line(
    line: str, source_length: int, line_number: int
) -> tuple[int, Edit | None]:
    fields = line[2:].split("|||")
    if len(fields) != 6:
        raise M2FormatError(
            f"expected 6 '|||'-separated fields, found {len(fields)}", line_number
        )
    span, kind, replacement, required, comment, annotator = fields
    # Only numbers as to_m2 writes them: int() alone also reads "+0", "0_0",
    # "01" and non-ASCII digits.
    try:
        start, end = map(int, span.split(" "))
        if f"{start} {end}" != span:
            raise ValueError(span)
    except ValueError:
        raise M2FormatError(f"bad edit span {span!r}", line_number) from None
    if required != "REQUIRED" or comment != _NONE_FIELD:
        raise M2FormatError("unexpected REQUIRED/-NONE- fields", line_number)
    try:
        annotator_id = int(annotator)
        if str(annotator_id) != annotator:
            raise ValueError(annotator)
    except ValueError:
        raise M2FormatError(f"bad annotator id {annotator!r}", line_number) from None
    if annotator_id < 0:
        raise M2FormatError(f"negative annotator id {annotator_id}", line_number)

    if kind == "noop":
        if (start, end) != (-1, -1) or replacement != _NONE_FIELD:
            raise M2FormatError("malformed noop line", line_number)
        return annotator_id, None
    if kind not in ("M", "U", "R"):
        raise M2FormatError(f"unknown edit kind {kind!r}", line_number)
    if not 0 <= start <= end <= source_length:
        raise M2FormatError(
            f"edit span [{start}, {end}) out of bounds for a"
            f" {source_length}-token source",
            line_number,
        )
    text = "" if replacement == _NONE_FIELD else replacement
    try:
        edit = Edit(start, end, text)
    except ValueError as exc:
        raise M2FormatError(str(exc), line_number) from None
    if edit.kind != kind:
        raise M2FormatError(
            f"kind {kind} inconsistent with span shape ({edit.kind})", line_number
        )
    return annotator_id, edit


def parse_m2_by_join(
    block: str, first_line_number: int = 1
) -> tuple[str, list[Annotation]]:
    """Parse one M2 block from its text, tracking noops with ``None``."""
    lines = block.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    number = first_line_number
    if not lines or not lines[0].startswith("S "):
        raise M2FormatError("block must start with an 'S ' line", number)
    source = _decode_s_line(lines[0][2:], number)
    if len(lines) == 1:
        raise M2FormatError("block has no 'A' line (a noop line counts)", number)

    collected: dict[int, list[Edit] | None] = {}
    for offset, line in enumerate(lines[1:], 1):
        number = first_line_number + offset
        if not line.startswith("A "):
            raise M2FormatError(f"expected an 'A ' line, got {line!r}", number)
        annotator_id, edit = _parse_a_line(line, len(source), number)
        if edit is None:
            if annotator_id in collected:
                raise M2FormatError(
                    f"noop conflicts with other lines for annotator {annotator_id}",
                    number,
                )
            collected[annotator_id] = None
        else:
            existing = collected.get(annotator_id)
            if existing is None and annotator_id in collected:
                raise M2FormatError(
                    f"edit follows a noop for annotator {annotator_id}", number
                )
            if existing is None:
                existing = []
                collected[annotator_id] = existing
            else:
                # Annotation holds the order rule; checking each edit
                # against the annotator's previous one names its line.
                try:
                    Annotation((existing[-1], edit))
                except ValueError as exc:
                    raise M2FormatError(str(exc), number) from None
            existing.append(edit)

    annotations = [
        Annotation(edits or (), annotator_id)
        for annotator_id, edits in collected.items()
    ]
    return source, annotations


def read_lines_by_line(lines):
    """Yield ``(number, line)`` for each line, decoding and stripping it alone."""
    for number, raw in enumerate(lines, 1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParallelFormatError(f"invalid UTF-8: {exc}", number) from exc
        if number == 1 and raw.startswith("\ufeff"):
            raw = raw[1:]
        yield number, raw.rstrip("\r\n")


class TrickleStream(io.BufferedIOBase):
    """A binary stream over ``data`` whose reads return 1-7 bytes each.

    The sizes cycle through ``sizes``; a reader that reads it in blocks
    sees every multibyte character, CRLF and line split across blocks.
    """

    def __init__(self, data: bytes, sizes: Sequence[int] = (1, 7, 2, 5, 3)):
        self._data = memoryview(data)
        self._sizes = itertools.cycle(sizes)

    def readable(self) -> bool:
        return True

    def read(self, size: int | None = -1) -> bytes:
        if size is None or size < 0:
            size = len(self._data)
        size = min(size, next(self._sizes))
        chunk, self._data = self._data[:size].tobytes(), self._data[size:]
        return chunk


@st.composite
def edited_pairs(draw, alphabet, max_size):
    """A string and a copy of it a few insertions, substitutions and
    deletions away."""
    source = draw(st.text(alphabet=alphabet, max_size=max_size))
    chars = list(source)
    operations = st.tuples(
        st.integers(0, 2), st.integers(0, max_size), st.sampled_from(alphabet)
    )
    for kind, position, char in draw(st.lists(operations, max_size=12)):
        position %= len(chars) + 1
        if kind == 0:
            chars.insert(position, char)
        elif position < len(chars):
            if kind == 1:
                chars[position] = char
            else:
                del chars[position]
    return source, "".join(chars)


def read_m2_file_by_join(lines):
    """Read an M2 file block by block, joining each block's lines for the parser."""
    block: list[str] = []
    block_start = 1
    stray_blank: int | None = None
    for number, line in read_lines_by_line(lines):
        if line == "":
            if block:
                yield parse_m2_by_join("\n".join(block) + "\n", block_start)
                block = []
            else:
                stray_blank = number
            continue
        if stray_blank is not None:
            raise M2FormatError("unexpected extra blank line", stray_blank)
        if not block:
            block_start = number
        block.append(line)
    if block:
        yield parse_m2_by_join("\n".join(block) + "\n", block_start)


def overall_stats_by_line(samples) -> CorpusStats:
    """The overall table, with one ``levenshtein_ratio`` call per line."""
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
        return CorpusStats(0, 0, 0.0, 0, 0.0, 0.0, 0.0)
    return CorpusStats(
        samples=count,
        erroneous=erroneous,
        erroneous_proportion=erroneous / count,
        unique_sources=len(sources),
        unique_source_proportion=len(sources) / count,
        mean_source_length=length_total / count,
        mean_levenshtein_ratio=ratio_total.value / count,
    )


def bucket_stats_by_group(groups):
    """The breakdown over groups already filtered to erroneous targets."""
    pooled = f">={POOLED_BUCKET_MIN}"
    labels = [str(n) for n in range(1, POOLED_BUCKET_MIN)] + [pooled]
    buckets = {label: _BucketAccumulator() for label in labels}
    total = _BucketAccumulator()
    group_count = 0
    for group in groups:
        group_count += 1
        pair_values = [_pair_values(group.source, target) for target in group.targets]
        size = len(group.targets)
        label = str(size) if size < POOLED_BUCKET_MIN else pooled
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


def evaluate_sentence_per_edit(
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


def apply_edits_by_splice(s: str, annotation: Annotation) -> str:
    """Apply an annotation by splicing its edits right to left."""
    _check_bounds(annotation, len(s))
    chars = list(s)
    for edit in reversed(annotation.edits):
        chars[edit.start : edit.end] = edit.replacement
    return normalize("".join(chars))


def to_m2_by_join(source: str, annotations: Sequence[Annotation]) -> str:
    """Render one M2 block, the S line as the space-joined characters."""
    if not annotations:
        raise ValueError("an M2 block needs an annotation (a noop annotation counts)")
    lines = ["S " + " ".join(source)]
    seen: set[int] = set()
    for annotation in annotations:
        if annotation.annotator_id in seen:
            raise ValueError(f"duplicate annotator_id {annotation.annotator_id}")
        seen.add(annotation.annotator_id)
        _check_bounds(annotation, len(source))
        if not annotation.edits:
            lines.append(
                f"A -1 -1|||noop|||{_NONE_FIELD}|||REQUIRED|||{_NONE_FIELD}|||"
                f"{annotation.annotator_id}"
            )
            continue
        for edit in annotation.edits:
            text = edit.replacement
            if text == _NONE_FIELD or "|||" in text or text.endswith("|"):
                raise ValueError(f"replacement {text!r} collides with M2 markers")
            lines.append(
                f"A {edit.start} {edit.end}|||{edit.kind}|||"
                f"{text or _NONE_FIELD}|||REQUIRED|||{_NONE_FIELD}|||"
                f"{annotation.annotator_id}"
            )
    return "\n".join(lines) + "\n"


def group_by_source_by_dicts(samples) -> list[SourceGroup]:
    """Group samples by source through one target dict per source."""
    grouped: dict = {}
    for source, target in samples:
        grouped.setdefault(source, {})[target] = None
    for source, targets in grouped.items():
        grouped[source] = SourceGroup(source, tuple(targets))
    return list(grouped.values())


def parse_parallel_by_field(lines, multi_target=False):
    """Parse TSV one line at a time, normalizing every field."""
    for number, line in read_lines(lines):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise ParallelFormatError("expected at least 2 tab-separated fields", number)
        if not multi_target and len(fields) != 2:
            raise ParallelFormatError(
                f"expected 2 tab-separated fields, found {len(fields)}"
                " (did you mean the multi-target layout?)",
                number,
            )
        source, *targets = map(normalize, fields)
        if not source or not all(targets):
            raise ParallelFormatError("empty field", number)
        for target in targets:
            yield tuple.__new__(Sample, (source, target))
