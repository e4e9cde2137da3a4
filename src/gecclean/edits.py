"""Edit extraction and the character-level M2 annotation format.

Edits are derived from a minimum-cost character alignment between a source
and a target sentence.  Every maximal run of contiguous non-match alignment
steps is merged into a single edit, so "number of edits" is well defined.
Only coarse edit kinds are assigned, derived from span shape:

    M  insertion (empty source span)
    U  deletion (non-empty span, empty replacement)
    R  replacement (everything else)

The M2 serialization is one ``S`` line of space-joined character tokens,
followed by one ``A`` line per edit:

    A <start> <end>|||<kind>|||<replacement>|||REQUIRED|||-NONE-|||<annotator>

An annotator that proposes no change is recorded with the conventional noop
line ``A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||<annotator>``.  As in
every M2 dialect, ``-NONE-`` and ``|||`` are in-band markers, so a
replacement must not collide with them; serialization rejects such edits.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

from .corpus import normalize, read_lines
from .textmetrics import DeltaColumn, bit_vector_columns, common_affixes

logger = logging.getLogger(__name__)

MATCH = "match"
SUBSTITUTE = "substitute"
DELETE = "delete"
INSERT = "insert"

# Pairs longer than this are still aligned.  Only the core left after the
# common prefix and suffix is computed, and only its certified band is
# kept, so a long near pair costs little; but a long dissimilar pair still
# costs time in proportion to length x length and about length x length / 2
# bytes of delta bits, so flag long pairs for batch callers to notice.
ALIGN_LENGTH_FLAG = 512

# The band align tries first: this many diagonals either side of those
# between the core's corners.  A core whose distance exceeds its length
# difference by more than 2 * 8 + 1 pays one more pass; a wider first band
# spares few such passes and widens the integers of every column.
_FIRST_BAND = 8

_NONE_FIELD = "-NONE-"


class M2FormatError(ValueError):
    """Malformed M2 content, with the offending line number when known."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


@dataclass(frozen=True)
class Edit:
    """A half-open span over source characters plus its replacement text."""

    start: int
    end: int
    replacement: str

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid edit span [{self.start}, {self.end})")
        replacement = self.replacement
        if "\t" in replacement or "\r" in replacement or "\n" in replacement:
            raise ValueError("edit replacement may not contain tab or newline")

    @property
    def kind(self) -> str:
        if self.start == self.end:
            return "M"
        if not self.replacement:
            return "U"
        return "R"


@dataclass(frozen=True)
class Annotation:
    """One annotator's ordered, non-overlapping edits for a source sentence."""

    edits: tuple[Edit, ...]
    annotator_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "edits", tuple(self.edits))
        if self.annotator_id < 0:
            raise ValueError("annotator_id must be non-negative")
        for before, after in zip(self.edits, self.edits[1:]):
            if after.start < before.end:
                raise ValueError(f"edits out of order or overlapping: {before} then {after}")
            if before.start == before.end == after.start == after.end:
                raise ValueError(f"two insertions share position {before.start}")


def align(s: str, t: str) -> list[str]:
    """Minimum-cost unit-cost alignment path from s to t.

    Returns the list of MATCH / SUBSTITUTE / DELETE / INSERT steps whose
    non-match runs ``extract_edits`` merges.  Ties are broken match >
    substitute > delete > insert, walking back from the end.
    """
    # Inside a run the backtrace takes a substitution whenever both strings
    # have characters of the run left, because D(i-1, j-1) = D(i, j) - 1
    # there (a run costs max(span, replacement length)).  So an edit is its
    # surplus deletes or inserts, then its substitutions.
    path: list[str] = []
    i = 0
    for edit in extract_edits(s, t).edits:
        span, length = edit.end - edit.start, len(edit.replacement)
        path += [MATCH] * (edit.start - i)
        path += [DELETE] * (span - length) + [INSERT] * (length - span)
        path += [SUBSTITUTE] * min(span, length)
        i = edit.end
    path += [MATCH] * (len(s) - i)
    return path


def extract_edits(s: str, t: str, annotator_id: int = 0) -> Annotation:
    """Extract merged edits that transform s into t.

    Each maximal run of contiguous non-match steps of the minimum-cost
    alignment becomes one edit covering the source positions it consumed,
    with the covered target characters as replacement.  Identical
    sentences yield no edits.

    The alignment is the one a backtrace over the full (m+1) x (n+1)
    distance matrix would take, breaking ties match > substitute > delete
    > insert, but only the core left after the common prefix and suffix
    are trimmed is computed, and of the core of lengths m', n' only a band
    of diagonals: a bit-vector pass (``bit_vector_columns``) keeps the
    delta vectors of each column in a window of as many bits as the band
    has diagonals, and the backtrace reads them (Hyyrö 2004).  The first
    band is ``_FIRST_BAND`` diagonals either side of the corners' ones.
    If the distance does not fit it, the value that pass returns certifies
    a wider band (Ukkonen 1985), and one more pass computes that.  A near
    core keeps O(n') bytes and costs O(n') operations on integers of a few
    words, besides one shift of an m'-bit mask per column; a dissimilar
    one costs O(m' * n' / w) operations on w-bit words and about
    m' * n' / 2 bytes.  The backtrace walks neither the common suffix nor
    the matched prefix, and keeps no step list.
    """
    m, n = len(s), len(t)
    if m > ALIGN_LENGTH_FLAG or n > ALIGN_LENGTH_FLAG:
        logger.warning("aligning an unusually long pair (%d x %d tokens)", m, n)
    # D(i, j) = D(i-1, j-1) whenever s[i-1] == t[j-1], so the backtrace
    # takes a common suffix as matches.
    prefix, suffix = common_affixes(s, t)
    i, j = m - suffix, n - suffix

    # The core s[prefix:i], t[prefix:j]; column c of its pass is column
    # prefix + c of the full matrix, and row r its row prefix + r.
    first = prefix + 1
    if i > prefix and j > prefix:
        core_s, core_t = s[prefix:i], t[prefix:j]
        # The band spans diagonals k = j - i from min(0, gap) - p to
        # max(0, gap) + p, gap = j - i.  A path that leaves it costs at
        # least |gap| + 2p + 2.  The pass returns the cost of some
        # alignment, so no less than the distance d, and the full matrix's
        # value on every cell that an optimal path inside the band reaches.
        # So a value of at most |gap| + 2p + 1 is d, and every optimal path
        # lies inside the band.  A larger value v >= d makes
        # p = (v - |gap|) // 2 such a band, and the second pass the last.
        # The bit rows stay on s even when it is the longer string: the
        # tie-break is not symmetric, so the matrix may not be transposed.
        gap = j - i
        p = _FIRST_BAND
        while True:
            columns: list[DeltaColumn] = []
            khi = max(0, gap) + p
            here = bit_vector_columns(core_s, core_t, (min(0, gap) - p, khi), columns)
            if here <= abs(gap) + 2 * p + 1:
                break
            p = (here - abs(gap)) // 2

    # Backtrace from (i, j), the last cell before the suffix, to the
    # origin; end is the cell after the run being walked, None on a match.
    # In the core, with here = D(i, j):
    #   D(i-1, j)   = D(i, j) - (vertical delta at row i of column j)
    #   D(i-1, j-1) = D(i-1, j) - (horizontal delta at row i-1 of column j)
    # Both deltas sit at core bit i-1 of column j, less the column's window
    # offset.  The path's own cells hold the full matrix's values, and a
    # neighbour the full matrix would not step to holds a value no lower
    # than its own, so every decision is the full matrix's.
    # Out of the core, min(i, j) <= prefix, so one of s[:i] and t[:j] is a
    # prefix of the other and D(i, j) = |i - j|: no matrix is needed.  A
    # substitution there never ties (D(i-1, j-1) + 1 > D(i, j)), so the
    # full matrix's backtrace takes a match when the characters agree and
    # otherwise steps along the longer string, deleting if i > j and
    # inserting if i < j; once i == j, the rest is matches.
    edits: list[Edit] = []
    end: tuple[int, int] | None = None
    while True:
        if i > prefix and j > prefix:
            if s[i - 1] != t[j - 1]:
                if end is None:
                    end = i, j
                pv, mv, ph, mh = columns[j - first]
                bit = i - first
                if j - first > khi:
                    bit -= j - first - khi
                up = here - ((pv >> bit) & 1) + ((mv >> bit) & 1)
                diag = up - ((ph >> bit) & 1) + ((mh >> bit) & 1)
                if diag + 1 == here:
                    i -= 1
                    j -= 1
                    here = diag
                elif up + 1 == here:
                    i -= 1
                    here = up
                else:
                    j -= 1
                    here -= 1
                continue
        elif i == j:
            break
        elif not (i and j and s[i - 1] == t[j - 1]):
            if end is None:
                end = i, j
            if i > j:
                i -= 1
            else:
                j -= 1
            continue
        if end is not None:
            edits.append(Edit(i, end[0], t[j : end[1]]))
            end = None
        i -= 1
        j -= 1
    if end is not None:
        edits.append(Edit(i, end[0], t[j : end[1]]))
    edits.reverse()
    return Annotation(tuple(edits), annotator_id)


def apply_edits(s: str, annotation: Annotation) -> str:
    """Apply an annotation to a source sentence.

    Edits are spliced right to left so earlier spans stay valid.  The
    result is passed through sentence normalization, which is a no-op for
    any target produced by ``extract_edits``.
    """
    chars = list(s)
    for edit in reversed(annotation.edits):
        if edit.end > len(s):
            raise ValueError(
                f"edit {edit} out of bounds for a {len(s)}-token source"
            )
        chars[edit.start : edit.end] = edit.replacement
    return normalize("".join(chars))


def to_m2(source: str, annotations: Sequence[Annotation]) -> str:
    """Render one M2 block for a source sentence and its annotators.

    The block ends with a newline and contains no blank line; blocks are
    separated by exactly one blank line at the file level (write_m2_file).
    """
    if not annotations:
        raise ValueError("an M2 block needs an annotation (a noop annotation counts)")
    lines = ["S " + " ".join(source)]
    seen: set[int] = set()
    for annotation in annotations:
        if annotation.annotator_id in seen:
            raise ValueError(f"duplicate annotator_id {annotation.annotator_id}")
        seen.add(annotation.annotator_id)
        if not annotation.edits:
            lines.append(
                f"A -1 -1|||noop|||{_NONE_FIELD}|||REQUIRED|||{_NONE_FIELD}|||"
                f"{annotation.annotator_id}"
            )
            continue
        for edit in annotation.edits:
            if edit.end > len(source):
                raise ValueError(
                    f"edit {edit} out of bounds for a {len(source)}-token source"
                )
            if "|||" in edit.replacement or edit.replacement == _NONE_FIELD:
                raise ValueError(
                    f"replacement {edit.replacement!r} collides with M2 markers"
                )
            lines.append(
                f"A {edit.start} {edit.end}|||{edit.kind}|||"
                f"{edit.replacement or _NONE_FIELD}|||REQUIRED|||{_NONE_FIELD}|||"
                f"{annotation.annotator_id}"
            )
    return "\n".join(lines) + "\n"


def _decode_s_line(remainder: str, line_number: int | None) -> str:
    # A valid S line is " ".join of one-character tokens, so the tokens sit
    # at the even offsets, and joining them again gives the line back.
    source = remainder[::2]
    if " ".join(source) != remainder:
        raise M2FormatError(
            "S line is not single characters joined by single spaces"
            " (this is a character-level format)",
            line_number,
        )
    return source


def _parse_a_line(
    line: str, source_length: int, line_number: int | None
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


def parse_m2(block: str, first_line_number: int = 1) -> tuple[str, list[Annotation]]:
    """Parse one M2 block; exact inverse of ``to_m2``.

    Returns the source sentence and its annotations grouped by annotator in
    order of first appearance.  The S line is trusted as written: it is not
    re-normalized, since edit spans index its characters.
    """
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
        Annotation(tuple(edits or ()), annotator_id)
        for annotator_id, edits in collected.items()
    ]
    return source, annotations


def write_m2_file(blocks: Iterable[str], out: IO[str]) -> int:
    """Write rendered M2 blocks separated by one blank line each."""
    count = 0
    for block in blocks:
        if count:
            out.write("\n")
        out.write(block)
        count += 1
    return count


def read_m2_file(
    lines: Iterable[str | bytes],
) -> Iterator[tuple[str, list[Annotation]]]:
    """Parse a whole M2 file into (source, annotations) entries.

    ``lines`` are text or bytes lines, such as a file opened ``"rb"``; they
    are read by ``corpus.read_lines``, so a line ends at LF or CRLF and
    invalid UTF-8 raises ``ParallelFormatError`` with its line number.
    Blocks must be separated by exactly one blank line; trailing blank
    lines at end of file are tolerated.
    """
    block: list[str] = []
    block_start = 1
    stray_blank: int | None = None
    for number, line in read_lines(lines):
        if line == "":
            if block:
                yield parse_m2("\n".join(block) + "\n", block_start)
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
        yield parse_m2("\n".join(block) + "\n", block_start)
