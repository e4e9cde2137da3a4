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

from .corpus import normalize
from .textmetrics import levenshtein_distance

logger = logging.getLogger(__name__)

MATCH = "match"
SUBSTITUTE = "substitute"
DELETE = "delete"
INSERT = "insert"

# Pairs longer than this are still aligned.  The band is sized once from
# the exact distance, so near pairs stay cheap at any length, but a long
# dissimilar pair still fills close to the full length x length matrix;
# flag them so batch callers can notice.
ALIGN_LENGTH_FLAG = 512

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
        if any(c in self.replacement for c in "\t\r\n"):
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


def _band_rows(s: str, t: str, klo: int, khi: int) -> list[list[int]]:
    """Fill D(i, j) over the diagonals klo <= j - i <= khi of the DP matrix.

    Row i holds the cells j = max(0, i + klo) .. min(n, i + khi).  A row
    that stops short of column n gets one extra cell, a value larger than
    any distance, which the next row reads as its out-of-band neighbour.
    """
    m, n = len(s), len(t)
    outside = m + n + 1
    b = min(n, khi)
    row = list(range(b + 1))
    if b < n:
        row.append(outside)
    rows = [row]
    # Rows 1..top start at column 0; every later row starts one column to
    # the right of the row above it.
    top = min(m, -klo)
    for i in range(1, m + 1):
        sc = s[i - 1]
        b = i + khi
        if b > n:
            b = n
        prev = row
        if i <= top:
            row = [i]
            chars = t[:b]
            ups = prev[1 : b + 1]
            left = i + 1
        else:
            a = i + klo
            row = []
            chars = t[a - 1 : b]
            ups = prev[1 : b - a + 2]
            left = outside
        push = row.append
        diag = prev[0]
        for tc, up in zip(chars, ups):
            # left already holds the left neighbour plus one; diag becomes
            # min(diagonal + cost, up + 1, left).
            if sc != tc:
                diag += 1
            if up < diag:
                diag = up + 1
            if left < diag:
                diag = left
            push(diag)
            left = diag + 1
            diag = up
        if b < n:
            push(outside)
        rows.append(row)
    return rows


def align(s: str, t: str) -> list[str]:
    """Minimum-cost unit-cost alignment path from s to t.

    Returns a list of MATCH / SUBSTITUTE / DELETE / INSERT steps.  Ties in
    the backtrace are broken in the fixed order match > substitute >
    delete > insert, which makes the path (and everything derived from it)
    deterministic.

    The path is the one a backtrace over the full (m+1) x (n+1) distance
    matrix would take, but only a band of diagonals around it is filled
    (Ukkonen 1985).  After the common suffix is trimmed, the exact
    distance d (``levenshtein_distance``) sizes the band once: a pair
    fills O((m + n) * (d + 1)) cells in one pass, and never more cells
    than the full matrix.
    """
    m, n = len(s), len(t)
    if m > ALIGN_LENGTH_FLAG or n > ALIGN_LENGTH_FLAG:
        logger.warning("aligning an unusually long pair (%d x %d tokens)", m, n)
    # D(i, j) = D(i-1, j-1) whenever s[i-1] == t[j-1], so the backtrace
    # takes a common suffix as matches.  A common prefix cannot be trimmed
    # the same way: the tie-break may place an edit inside it, as in
    # "ab" -> "aab", whose inserted "a" comes first.
    while m and n and s[m - 1] == t[n - 1]:
        m -= 1
        n -= 1
    suffix = len(s) - m
    s, t = s[:m], t[:n]

    # The band spans diagonals k = j - i from min(0, n-m) - p to
    # max(0, n-m) + p.  A path that leaves it costs at least gap + 2p + 2,
    # so with p = (d - gap) // 2 every optimal path lies inside, and the
    # band holds its cells exactly; no narrower band certifies itself.
    d = levenshtein_distance(s, t)
    gap = abs(n - m)
    p = (d - gap) // 2
    klo = max(min(0, n - m) - p, -m)
    khi = min(max(0, n - m) + p, n)
    if 2 * (khi - klo) > n:
        # A band over more than half the columns costs about as much as
        # the whole matrix.
        klo, khi = -m, n
    rows = _band_rows(s, t, klo, khi)

    # Backtrace from (m, n).  Every cell it visits lies on an optimal path,
    # so it is inside the band; a neighbour outside the band reads as too
    # large to be chosen, exactly as it would fail the same test in the
    # full matrix.
    path: list[str] = []
    push = path.append
    i, j = m, n
    here = d
    while i and j:
        if s[i - 1] == t[j - 1]:
            push(MATCH)
            i -= 1
            j -= 1
            continue
        prev = rows[i - 1]
        start = max(0, i - 1 + klo)
        diag = prev[j - 1 - start]
        if diag + 1 == here:
            push(SUBSTITUTE)
            i -= 1
            j -= 1
            here = diag
            continue
        up = prev[j - start]
        if up + 1 == here:
            push(DELETE)
            i -= 1
            here = up
        else:
            push(INSERT)
            j -= 1
            here -= 1
    path.extend([DELETE] * i)
    path.extend([INSERT] * j)
    path.reverse()
    path.extend([MATCH] * suffix)
    return path


def extract_edits(s: str, t: str, annotator_id: int = 0) -> Annotation:
    """Extract merged edits that transform s into t.

    Each maximal run of contiguous non-match alignment steps becomes one
    edit covering the source positions it consumed, with the covered target
    characters as replacement.  Identical sentences yield no edits.
    """
    edits = []
    i = j = 0
    run: tuple[int, int] | None = None
    for step in align(s, t):
        if step == MATCH:
            if run is not None:
                edits.append(Edit(run[0], i, t[run[1] : j]))
                run = None
            i += 1
            j += 1
            continue
        if run is None:
            run = (i, j)
        if step == SUBSTITUTE:
            i += 1
            j += 1
        elif step == DELETE:
            i += 1
        else:
            j += 1
    if run is not None:
        edits.append(Edit(run[0], i, t[run[1] : j]))
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
    line: str, source_length: int, line_number: int | None
) -> tuple[int, Edit | None]:
    fields = line[2:].split("|||")
    if len(fields) != 6:
        raise M2FormatError(
            f"expected 6 '|||'-separated fields, found {len(fields)}", line_number
        )
    span, kind, replacement, required, comment, annotator = fields
    parts = span.split(" ")
    try:
        start, end = (int(p) for p in parts)
    except ValueError:
        raise M2FormatError(f"bad edit span {span!r}", line_number) from None
    if required != "REQUIRED" or comment != _NONE_FIELD:
        raise M2FormatError("unexpected REQUIRED/-NONE- fields", line_number)
    try:
        annotator_id = int(annotator)
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
            existing.append(edit)

    annotations = []
    for annotator_id, edits in collected.items():
        try:
            annotations.append(Annotation(tuple(edits or ()), annotator_id))
        except ValueError as exc:
            raise M2FormatError(str(exc), first_line_number) from None
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
    lines: Iterable[str],
) -> Iterator[tuple[str, list[Annotation]]]:
    """Parse a whole M2 file into (source, annotations) entries.

    Blocks must be separated by exactly one blank line; trailing blank
    lines at end of file are tolerated.
    """
    block: list[str] = []
    block_start = 1
    stray_blank: int | None = None
    for number, raw in enumerate(lines, 1):
        line = raw.rstrip("\n").rstrip("\r")
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
