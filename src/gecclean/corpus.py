"""Parallel corpus ingestion: normalization, TSV parsing, and source grouping.

A sentence is represented as its normalized text; its tokens are simply the
characters of that string, which is the granularity every other module works
at.
"""

from __future__ import annotations

import io
import itertools
import unicodedata
from typing import IO, Iterable, Iterator, NamedTuple

# Tab, CR and LF are structural characters of the TSV container and must
# never survive inside a sentence.
_CONTROL_CHARS = dict.fromkeys(map(ord, "\t\r\n"))


class ParallelFormatError(ValueError):
    """A malformed input line; carries its 1-based line number.

    Raised for bad TSV lines and for undecodable lines of any input file.
    Its subclass ``m2.M2FormatError`` is raised for bad M2 lines, so one
    ``except`` catches a bad line of any input.
    """

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number

    def __reduce__(self):
        # pickle and copy call the class with ``args``, which hold only the
        # formatted message: pass the message and the line number instead.
        message = self.args[0].removeprefix(f"line {self.line_number}: ")
        return type(self), (message, self.line_number)


class Sample(NamedTuple):
    source: str
    target: str


class SourceGroup(NamedTuple):
    """One unique source sentence with its distinct targets.

    Targets preserve first-appearance order from the input file.
    """

    source: str
    targets: tuple[str, ...]


def normalize(text: str) -> str:
    """Canonicalize raw text into sentence form.

    Leading and trailing whitespace is trimmed, interior tab/CR/LF removed,
    and the result composed to NFC.  Nothing else is folded: width variants
    and punctuation are kept as written so edit counts stay faithful to the
    original text.
    """
    text = text.strip()
    # The TSV reader has already split on these, so they are rare here;
    # three membership tests cost far less than a translate.
    if "\t" in text or "\r" in text or "\n" in text:
        text = text.translate(_CONTROL_CHARS)
    return unicodedata.normalize("NFC", text)


def read_lines(lines: Iterable[str | bytes]) -> Iterator[tuple[int, str]]:
    """Yield ``(number, line)`` for each input line, numbered from 1.

    ``lines`` are text or bytes lines, or a binary stream
    (``io.BufferedIOBase``, such as a file opened ``"rb"``).  A stream is
    read in blocks of ``io.DEFAULT_BUFFER_SIZE`` (8 KiB) bytes and split at
    "\n" only, so a lone "\r" inside a line is data; each block is decoded
    once, up to its last "\n", and a line that spans blocks is joined once.
    Bytes are decoded as UTF-8, and the line ending is dropped: every
    trailing "\r" and "\n", so LF and CRLF read alike.  A byte-order mark
    (U+FEFF) that starts line 1 is dropped, as the ``utf-8-sig`` codec
    drops it.  Invalid UTF-8 raises ``ParallelFormatError`` once the lines
    before it are yielded.
    """
    if isinstance(lines, io.BufferedIOBase):
        return _read_stream(lines)
    return _read_each(lines, 1)


def _read_each(lines: Iterable[str | bytes], first: int) -> Iterator[tuple[int, str]]:
    """``read_lines`` over lines one at a time, numbered from ``first``."""
    for number, raw in enumerate(lines, first):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParallelFormatError(f"invalid UTF-8: {exc}", number) from exc
        if number == 1 and raw.startswith("\ufeff"):
            raw = raw[1:]
        yield number, raw.rstrip("\r\n")


def _read_stream(stream: IO[bytes]) -> Iterator[tuple[int, str]]:
    """``read_lines`` over a binary stream."""
    for number, lines in _stream_runs(stream):
        yield from enumerate(lines, number)


def _read_runs(lines: Iterable[str | bytes]) -> Iterator[tuple[int, list[str]]]:
    """``read_lines`` a run at a time: ``(number of its first line, its lines)``.

    A stream's run is the lines one block decodes; any other input's is one
    line.
    """
    if isinstance(lines, io.BufferedIOBase):
        return _stream_runs(lines)
    return ((number, [line]) for number, line in _read_each(lines, 1))


def _stream_runs(stream: IO[bytes]) -> Iterator[tuple[int, list[str]]]:
    """``_read_runs`` over a binary stream: each run is decoded once."""
    number = 1
    for run in _line_runs(stream):
        try:
            lines = run.decode("utf-8").split("\n")
        except UnicodeDecodeError:
            # "\n" is never part of a multibyte sequence, so a line of the
            # run fails alone: read line by line, the lines before it are
            # yielded and the error names it.
            lines = []
            try:
                for _, line in _read_each(io.BytesIO(run), number):
                    lines.append(line)
            except ParallelFormatError:
                yield number, lines
                raise
            raise AssertionError("a run failed to decode, but each of its lines decoded")
        if run.endswith(b"\n"):
            lines.pop()
        if number == 1 and lines[0].startswith("\ufeff"):
            lines[0] = lines[0][1:]
        if b"\r" in run:
            lines = [line.rstrip("\r") for line in lines]
        yield number, lines
        number += len(lines)


def _line_runs(stream: IO[bytes]) -> Iterator[bytes]:
    """The stream's bytes as runs of whole lines, read a block at a time.

    A run ends at the last "\n" of a block, or at the end of the stream.
    The pieces of a line that spans blocks are kept in a list and joined
    once, so a long line costs time linear in its length.
    """
    pieces: list[bytes] = []
    while block := stream.read(io.DEFAULT_BUFFER_SIZE):
        end = block.rfind(b"\n") + 1
        if not end:
            pieces.append(block)
            continue
        pieces.append(block[:end])
        yield _joined(pieces)
        if end < len(block):
            pieces.append(block[end:])
    if pieces:
        yield _joined(pieces)


def _joined(pieces: list[bytes]) -> bytes:
    """``pieces`` joined; the list is emptied, so a long line is not held twice."""
    joined = b"".join(pieces)
    pieces.clear()
    return joined


def parse_parallel(
    lines: Iterable[str | bytes], multi_target: bool = False
) -> Iterator[Sample]:
    """Parse tab-separated parallel text into samples.

    ``lines`` are text or bytes lines, such as a file opened ``"rb"``; they
    are read by ``read_lines``.  The default layout is
    ``source<TAB>target``, one pair per line.  With ``multi_target`` each
    line may carry several targets and fans out into one sample per
    (source, target) pair.  Blank lines are skipped; fields that are empty
    after normalization are rejected.
    """
    for pair in itertools.chain.from_iterable(_pair_runs(lines, multi_target)):
        # A Sample is its tuple: NamedTuple's __new__ only passes the fields on.
        yield tuple.__new__(Sample, pair)


def _pair_runs(
    lines: Iterable[str | bytes], multi_target: bool
) -> Iterator[list[tuple[str, str]]]:
    """``parse_parallel``'s pairs as plain tuples, one list per run of lines.

    The runs are those of ``_read_runs``.  If a run's lines, joined by tabs,
    hold no CR or LF and are NFC, each field is only stripped, which is what
    ``normalize`` makes of it: tab, CR, LF and whitespace are starters that
    compose with nothing, so NFC splits at them, and such a field has no
    tab, CR or LF to remove.  Any other run's fields are normalized.  A bad
    line's error is raised once the run's pairs before it are yielded.
    """
    for number, run in _read_runs(lines):
        text = "\t".join(run)
        field = normalize
        if "\r" not in text and "\n" not in text and unicodedata.is_normalized("NFC", text):
            field = str.strip
        pairs: list[tuple[str, str]] = []
        try:
            for number, line in enumerate(run, number):
                if not line.strip():
                    continue
                fields = line.split("\t")
                if len(fields) < 2:
                    raise ParallelFormatError(
                        "expected at least 2 tab-separated fields", number
                    )
                if len(fields) == 2:
                    # Either layout's one pair: no list of targets.
                    source, target = map(field, fields)
                    if not source or not target:
                        raise ParallelFormatError("empty field", number)
                    pairs.append((source, target))
                    continue
                if not multi_target:
                    raise ParallelFormatError(
                        f"expected 2 tab-separated fields, found {len(fields)}"
                        " (did you mean the multi-target layout?)",
                        number,
                    )
                source, *targets = map(field, fields)
                if not source or not all(targets):
                    raise ParallelFormatError("empty field", number)
                for target in targets:
                    pairs.append((source, target))
        except ParallelFormatError:
            yield pairs
            raise
        yield pairs


def write_parallel(samples: Iterable[Sample], out: IO[str]) -> int:
    """Serialize samples as ``source<TAB>target`` lines; returns the count."""
    count = 0
    for source, target in samples:
        out.write(f"{source}\t{target}\n")
        count += 1
    return count


def _source_groups(samples: Iterable[Sample]) -> Iterator[SourceGroup]:
    """Read every sample, then return an iterator over ``group_by_source``'s groups.

    A source's first target is kept as the string itself; a dict of its
    targets replaces it only when a second distinct target arrives.
    """
    grouped: dict[str, str | dict[str, None]] = {}
    for source, target in samples:
        targets = grouped.setdefault(source, target)
        if type(targets) is dict:
            targets[target] = None
        elif targets != target:
            grouped[source] = {targets: None, target: None}
    return (
        tuple.__new__(
            SourceGroup, (source, (targets,) if type(targets) is str else tuple(targets))
        )
        for source, targets in grouped.items()
    )


def group_by_source(samples: Iterable[Sample]) -> list[SourceGroup]:
    """Group samples by their exact source sentence.

    Groups appear in first-appearance order of the source; within a group,
    targets keep first-appearance order and duplicate (source, target)
    pairs collapse to one.  While grouping, a source with one distinct
    target holds that target string and one with more holds a dict of them.
    """
    return list(_source_groups(samples))


def _kept_groups(groups: Iterable[SourceGroup], drop: bool) -> Iterator[SourceGroup]:
    """``filter_groups``, as an iterator: ``drop`` is its ``--drop-correct`` rule."""
    for group in groups:
        targets = group.targets
        if drop:
            targets = tuple(t for t in targets if t != group.source)
        if targets:
            unchanged = len(targets) == len(group.targets)
            yield group if unchanged else SourceGroup(group.source, targets)


def filter_groups(
    groups: Iterable[SourceGroup],
    drop_correct: bool = False,
    drop_identity_targets: bool = False,
) -> list[SourceGroup]:
    """The groups ``--drop-correct`` keeps, in order.

    Either keyword is that rule: every target equal to its source goes, and
    so does a group left with none, a fully grammatical source.  With
    neither, every group that has a target is kept.  A group that keeps all
    its targets is returned as is.
    """
    return list(_kept_groups(groups, drop_correct or drop_identity_targets))
