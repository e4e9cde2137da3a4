"""The character-level M2 annotation format and its records.

An ``Edit`` is a half-open span over source characters plus its
replacement; an ``Annotation`` is one annotator's ordered edits.  Only
coarse edit kinds are assigned, derived from span shape:

    M  insertion (empty source span)
    U  deletion (non-empty span, empty replacement)
    R  replacement (everything else)

The M2 serialization is one ``S`` line of space-joined character tokens,
followed by one ``A`` line per edit:

    A <start> <end>|||<kind>|||<replacement>|||REQUIRED|||-NONE-|||<annotator>

An annotator that proposes no change is recorded with the conventional noop
line ``A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||<annotator>``.  As in
every M2 dialect, ``-NONE-`` and ``|||`` are in-band markers, so a
replacement must not collide with them: serialization rejects a replacement
that is ``-NONE-``, holds ``|||`` or ends in ``|``.
"""

from __future__ import annotations

import functools
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .corpus import ParallelFormatError, normalize, read_lines

_NONE_FIELD = "-NONE-"


class M2FormatError(ParallelFormatError):
    """A malformed M2 line: a ``ParallelFormatError`` raised by the M2 parser."""


# The rules on record contents, each stated once: the constructors and the
# M2 parser all call these, and raise ValueError as they do.


def _check_replacement(replacement: str) -> None:
    if "\t" in replacement or "\r" in replacement or "\n" in replacement:
        raise ValueError("edit replacement may not contain tab or newline")


def _check_annotator_id(annotator_id: int) -> None:
    if annotator_id < 0:
        raise ValueError("annotator_id must be non-negative")


def _span_kind(start: int, end: int, replacement: str) -> str:
    """The edit kind of a span's shape, as the module docstring lists them."""
    if start == end:
        return "M"
    return "R" if replacement else "U"


def _check_order(before: Edit, after: Edit) -> None:
    if after.start < before.end:
        raise ValueError(f"edits out of order or overlapping: {before} then {after}")
    if before.start == before.end == after.start == after.end:
        raise ValueError(f"two insertions share position {before.start}")


class _EditFields(NamedTuple):
    start: int
    end: int
    replacement: str


class Edit(_EditFields):
    """A half-open span over source characters plus its replacement text."""

    __slots__ = ()

    def __new__(cls, start: int, end: int, replacement: str):
        if start < 0 or end < start:
            raise ValueError(f"invalid edit span [{start}, {end})")
        _check_replacement(replacement)
        return tuple.__new__(cls, (start, end, replacement))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it validates too.
        return cls(*iterable)

    @property
    def kind(self) -> str:
        return _span_kind(*self)


class _AnnotationFields(NamedTuple):
    edits: tuple[Edit, ...]
    annotator_id: int


class Annotation(_AnnotationFields):
    """One annotator's ordered, non-overlapping edits for a source sentence."""

    __slots__ = ()

    def __new__(cls, edits: Iterable[Edit], annotator_id: int = 0):
        edits = tuple(edits)
        _check_annotator_id(annotator_id)
        for before, after in zip(edits, edits[1:]):
            _check_order(before, after)
        return tuple.__new__(cls, (edits, annotator_id))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _check_bounds(annotation: Annotation, length: int) -> None:
    """The bound rule of every consumer: the edits fit a ``length``-token source.

    Edits are in order and do not overlap (``Annotation`` checks it, and the
    parser and the aligner build them so), so the last one ends furthest.
    """
    if annotation.edits and annotation.edits[-1].end > length:
        raise ValueError(
            f"edit {annotation.edits[-1]} of annotator {annotation.annotator_id}"
            f" is out of bounds for a {length}-token source"
        )


def apply_edits(s: str, annotation: Annotation) -> str:
    """Apply an annotation to a source sentence.

    The edits are in order and do not overlap, so the result is the text
    between them and their replacements, left to right, joined once.  The
    result is passed through sentence normalization, which is a no-op for
    any target produced by ``extract_edits``.
    """
    _check_bounds(annotation, len(s))
    pieces = []
    i = 0
    for edit in annotation.edits:
        pieces.append(s[i : edit.start])
        pieces.append(edit.replacement)
        i = edit.end
    pieces.append(s[i:])
    return normalize("".join(pieces))


def to_m2(source: str, annotations: Sequence[Annotation]) -> str:
    """Render one M2 block for a source sentence and its annotators.

    The block ends with a newline and contains no blank line; blocks are
    separated by exactly one blank line at the file level (write_m2_file).
    A source that holds a line break is rejected: one S line cannot hold it.
    """
    if not annotations:
        raise ValueError("an M2 block needs an annotation (a noop annotation counts)")
    if "\n" in source or "\r" in source:
        raise ValueError("an M2 source may not contain a line break")
    # " ".join(source), without a string per character.
    lines = ["S " + source.replace("", " ")[1:-1]]
    length = len(source)
    seen: set[int] = set()
    for annotation in annotations:
        edits, annotator_id = annotation
        if annotator_id in seen:
            raise ValueError(f"duplicate annotator_id {annotator_id}")
        seen.add(annotator_id)
        _check_bounds(annotation, length)
        tail = f"|||REQUIRED|||{_NONE_FIELD}|||{annotator_id}"
        if not edits:
            lines.append(f"A -1 -1|||noop|||{_NONE_FIELD}{tail}")
            continue
        for start, end, text in edits:
            # The reader splits at the leftmost "|||", so a trailing "|"
            # would move the field's end as surely as a "|||" inside it.
            if text == _NONE_FIELD or "|||" in text or text.endswith("|"):
                raise ValueError(f"replacement {text!r} collides with M2 markers")
            lines.append(
                f"A {start} {end}|||{_span_kind(start, end, text)}|||"
                f"{text or _NONE_FIELD}{tail}"
            )
    lines.append("")
    return "\n".join(lines)


def _decode_s_line(remainder: str, line_number: int) -> str:
    # A valid S line is " ".join of one-character tokens: the tokens sit at
    # the even offsets, a space at every odd one, and the line ends on a
    # token.  Checking the odd offsets costs less than joining again.
    source = remainder[::2]
    if remainder[1::2].strip(" ") or (remainder and len(remainder) % 2 == 0):
        raise M2FormatError(
            "S line is not single characters joined by single spaces"
            " (this is a character-level format)",
            line_number,
        )
    return source


# Spans and annotator ids repeat across a file's A lines, so each distinct
# text is parsed once while it stays among the last _MEMO_SIZE parsed.
# int() reads at most 4,300 digits by default, so the memo holds a few MB
# at most.
_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _parse_span(span: str) -> tuple[int, int]:
    """``span``'s start and end; ValueError unless ``to_m2`` writes it so.

    int() alone also reads "+0", "0_0", "01" and non-ASCII digits.
    """
    start, end = map(int, span.split(" "))
    if f"{start} {end}" != span:
        raise ValueError(span)
    return start, end


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _parse_annotator_id(annotator: str) -> int:
    """``annotator`` as a number; ValueError unless ``to_m2`` writes it so."""
    annotator_id = int(annotator)
    if str(annotator_id) != annotator:
        raise ValueError(annotator)
    return annotator_id


def _parse_block(lines: list[str], first_line_number: int) -> tuple[str, list[Annotation]]:
    # ``lines`` are a block's lines without their line endings: at least
    # one, and no trailing blank one.
    number = first_line_number
    if not lines[0].startswith("S "):
        raise M2FormatError("block must start with an 'S ' line", number)
    source = _decode_s_line(lines[0][2:], number)
    if len(lines) == 1:
        raise M2FormatError("block has no 'A' line (a noop line counts)", number)

    # Each A line is read once: its fields in line order, then its edit
    # against the annotator's previous one.  The records are built once
    # every check has passed, so none is checked again.
    length = len(source)
    # Each annotator's edits in order; a noop leaves the list empty.
    collected: dict[int, list[Edit]] = {}
    for number, line in enumerate(lines[1:], number + 1):
        if not line.startswith("A "):
            raise M2FormatError(f"expected an 'A ' line, got {line!r}", number)
        fields = line[2:].split("|||")
        if len(fields) != 6:
            raise M2FormatError(
                f"expected 6 '|||'-separated fields, found {len(fields)}", number
            )
        span, kind, replacement, required, comment, annotator = fields
        try:
            start, end = _parse_span(span)
        except ValueError:
            raise M2FormatError(f"bad edit span {span!r}", number) from None
        if required != "REQUIRED" or comment != _NONE_FIELD:
            raise M2FormatError("unexpected REQUIRED/-NONE- fields", number)
        try:
            annotator_id = _parse_annotator_id(annotator)
        except ValueError:
            raise M2FormatError(f"bad annotator id {annotator!r}", number) from None
        if annotator_id < 0:
            raise M2FormatError(f"negative annotator id {annotator_id}", number)
        edits = collected.get(annotator_id)

        if kind == "noop":
            if start != -1 or end != -1 or replacement != _NONE_FIELD:
                raise M2FormatError("malformed noop line", number)
            if edits is not None:
                raise M2FormatError(
                    f"noop conflicts with other lines for annotator {annotator_id}",
                    number,
                )
            collected[annotator_id] = []
            continue
        if kind not in ("M", "U", "R"):
            raise M2FormatError(f"unknown edit kind {kind!r}", number)
        if not 0 <= start <= end <= length:
            raise M2FormatError(
                f"edit span [{start}, {end}) out of bounds for a"
                f" {length}-token source",
                number,
            )
        text = "" if replacement == _NONE_FIELD else replacement
        try:
            _check_replacement(text)
        except ValueError as exc:
            raise M2FormatError(str(exc), number) from None
        shape = _span_kind(start, end, text)
        if shape != kind:
            raise M2FormatError(
                f"kind {kind} inconsistent with span shape ({shape})", number
            )
        # The span is valid: it lies within the source.
        edit = tuple.__new__(Edit, (start, end, text))
        if edits is None:
            collected[annotator_id] = [edit]
        elif not edits:
            raise M2FormatError(f"edit follows a noop for annotator {annotator_id}", number)
        else:
            # Checking each edit against its annotator's previous one
            # names the line that breaks the order.
            try:
                _check_order(edits[-1], edit)
            except ValueError as exc:
                raise M2FormatError(str(exc), number) from None
            edits.append(edit)

    return source, [
        tuple.__new__(Annotation, (tuple(edits), annotator_id))
        for annotator_id, edits in collected.items()
    ]


def parse_m2(block: str) -> tuple[str, list[Annotation]]:
    """Parse one M2 block; exact inverse of ``to_m2``.

    Returns the source sentence and its annotations grouped by annotator in
    order of first appearance.  The S line is trusted as written: it is not
    re-normalized, since edit spans index its characters.  Lines are read as
    ``read_m2_file`` reads them: a line ends at LF or CRLF, and a byte-order
    mark that starts the block is dropped.
    """
    lines = read_lines(block.rstrip("\r\n").split("\n"))
    return _parse_block([line for _, line in lines], 1)


def write_m2_file(blocks: Iterable[str], out: IO[str]) -> int:
    """Write rendered M2 blocks separated by one blank line each."""
    count = 0
    for block in blocks:
        out.write("\n" + block if count else block)
        count += 1
    return count


def read_m2_file(
    lines: Iterable[str | bytes],
) -> Iterator[tuple[str, list[Annotation]]]:
    """Parse a whole M2 file into (source, annotations) entries.

    ``lines`` are text or bytes lines, or a binary stream such as a file
    opened ``"rb"``, which is read in 8 KiB blocks.  Either is read by
    ``corpus.read_lines``, so a line ends at LF or CRLF and invalid UTF-8
    raises ``ParallelFormatError`` with its line number.  Each block is
    parsed once its blank line or the end of the file is read, and entries
    come one at a time.  Blocks must be separated by exactly one blank
    line; trailing blank lines at end of file are tolerated.
    """
    block: list[str] = []
    stray_blank: int | None = None
    for number, line in read_lines(lines):
        if line:
            if stray_blank is not None:
                raise M2FormatError("unexpected extra blank line", stray_blank)
            block.append(line)
        elif block:
            # The block is the len(block) lines before this blank one.
            yield _parse_block(block, number - len(block))
            block = []
        else:
            stray_blank = number
    if block:
        yield _parse_block(block, number + 1 - len(block))
