"""Output checks that use only the corpus model, never the code under test.

Each check takes the bytes a command wrote and returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import json

from corpora import Corpus


def _text(data: bytes, problems: list[str]) -> str | None:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        problems.append(f"output is not UTF-8: {exc}")
        return None


def check_clean(corpus: Corpus, drop_correct: bool, data: bytes) -> list[str]:
    """One line per kept unique source, in first-appearance order, each
    pairing the source with one of its own targets from the input."""
    problems: list[str] = []
    text = _text(data, problems)
    if text is None:
        return problems
    expected = corpus.kept_groups(drop_correct)
    lines = text.split("\n")
    if lines[-1] != "":
        problems.append("output does not end with a newline")
    lines = lines[:-1]
    if len(lines) != len(expected):
        problems.append(f"{len(lines)} lines for {len(expected)} kept sources")
    for number, (line, (source, targets)) in enumerate(zip(lines, expected), 1):
        got_source, tab, target = line.partition("\t")
        if not tab or got_source != source:
            problems.append(f"line {number}: source out of order or malformed")
            break
        if target not in targets:
            problems.append(f"line {number}: pair does not occur in the input")
            break
    return problems


def check_same(data: bytes, reference: bytes, what: str) -> list[str]:
    return [] if data == reference else [f"output bytes differ from {what}"]


def check_to_m2(corpus: Corpus, data: bytes) -> list[str]:
    """One block per unique source, in order, each opening with its S line."""
    problems: list[str] = []
    text = _text(data, problems)
    if text is None:
        return problems
    blocks = text.split("\n\n")
    if len(blocks) != len(corpus.groups):
        return [f"{len(blocks)} M2 blocks for {len(corpus.groups)} sources"]
    for number, (block, source) in enumerate(zip(blocks, corpus.groups), 1):
        if block.split("\n", 1)[0] != "S " + " ".join(source):
            return [f"block {number}: S line does not match its source"]
    return problems


def check_apply_m2(corpus: Corpus, data: bytes) -> list[str]:
    """Every group's distinct targets, in group order, one per line."""
    expected = "".join(
        target + "\n" for targets in corpus.groups.values() for target in targets
    )
    if data == expected.encode("utf-8"):
        return []
    return ["applied edits do not reproduce the targets in order"]


def check_stats(corpus: Corpus, data: bytes) -> list[str]:
    """Sample, erroneous and unique-source counts equal the model's."""
    try:
        overall = json.loads(data)["overall"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"stats output is not the JSON report: {exc!r}"]
    expected = {
        "samples": len(corpus.samples),
        "erroneous": sum(source != target for source, target in corpus.samples),
        "unique_sources": len(corpus.groups),
    }
    return [
        f"stats {key} = {overall.get(key)!r}, expected {value}"
        for key, value in expected.items()
        if overall.get(key) != value
    ]


def check_score(data: bytes) -> list[str]:
    """The hypotheses are built so that tp, fp and fn are all non-zero."""
    try:
        report = json.loads(data)
        counts = [report[key] for key in ("tp", "fp", "fn")]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"score output is not the JSON report: {exc!r}"]
    if not all(isinstance(n, int) and n > 0 for n in counts):
        return [f"tp/fp/fn = {counts}, expected all positive"]
    f_half = report.get("f0.5")
    if not isinstance(f_half, float) or not 0.0 <= f_half <= 1.0:
        return [f"f0.5 = {f_half!r}, expected a number in [0, 1]"]
    return []
