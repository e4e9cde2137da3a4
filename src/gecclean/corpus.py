"""Parallel corpus ingestion: normalization, TSV parsing, and source grouping.

A sentence is represented as its normalized text; its tokens are simply the
characters of that string, which is the granularity every other module works
at.
"""

from __future__ import annotations

import unicodedata
from typing import IO, Iterable, Iterator, NamedTuple

# Tab, CR and LF are structural characters of the TSV container and must
# never survive inside a sentence.
_CONTROL_CHARS = dict.fromkeys(map(ord, "\t\r\n"))


class ParallelFormatError(ValueError):
    """A malformed input line; carries its 1-based line number.

    Raised for bad TSV lines and for undecodable lines of any input file.
    """

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


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

    Bytes are decoded as UTF-8, and the line ending is dropped: every
    trailing "\r" and "\n", so LF and CRLF read alike.  A "\r" inside a
    line is data; iterate a binary stream, which splits at "\n" only, to
    keep it there.  Invalid UTF-8 raises ``ParallelFormatError``.
    """
    for number, raw in enumerate(lines, 1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParallelFormatError(number, f"invalid UTF-8: {exc}") from exc
        yield number, raw.rstrip("\r\n")


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
    for number, line in read_lines(lines):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise ParallelFormatError(
                number, "expected at least 2 tab-separated fields"
            )
        if not multi_target and len(fields) != 2:
            raise ParallelFormatError(
                number,
                f"expected 2 tab-separated fields, found {len(fields)}"
                " (did you mean the multi-target layout?)",
            )
        sentences = [normalize(field) for field in fields]
        if not all(sentences):
            raise ParallelFormatError(number, "empty field")
        source = sentences[0]
        for target in sentences[1:]:
            yield Sample(source, target)


def write_parallel(samples: Iterable[Sample], out: IO[str]) -> int:
    """Serialize samples as ``source<TAB>target`` lines; returns the count."""
    count = 0
    for sample in samples:
        out.write(f"{sample.source}\t{sample.target}\n")
        count += 1
    return count


def group_by_source(samples: Iterable[Sample]) -> list[SourceGroup]:
    """Group samples by their exact source sentence.

    Groups appear in first-appearance order of the source; within a group,
    targets keep first-appearance order and duplicate (source, target)
    pairs collapse to one.  Holds one entry per unique sentence in memory.
    """
    grouped: dict[str, dict[str, None]] = {}
    for source, target in samples:
        grouped.setdefault(source, {})[target] = None
    return [
        SourceGroup(source, tuple(targets)) for source, targets in grouped.items()
    ]


def filter_groups(
    groups: Iterable[SourceGroup],
    drop_correct: bool = False,
    drop_identity_targets: bool = False,
) -> list[SourceGroup]:
    """Apply the grammatical-source filters, preserving group order.

    ``drop_identity_targets`` removes targets equal to their source.  A
    group left with no targets at all (the source was fully grammatical)
    is dropped; ``drop_correct`` names that intent, and an empty group
    cannot be represented anyway.
    """
    kept = []
    for group in groups:
        targets = group.targets
        if drop_identity_targets:
            targets = tuple(t for t in targets if t != group.source)
        if not targets:
            continue
        kept.append(group if targets == group.targets else SourceGroup(group.source, targets))
    return kept
