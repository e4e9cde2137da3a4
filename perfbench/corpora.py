"""Seeded corpus generators for the benchmark workloads.

Each generator writes one input file from its seed and returns a
``Corpus``: the file plus the benchmark's own model of what the CLI must
see in it (the normalized samples, the source groups and the work counts).
Every sentence is generated already in normalized form (NFC-inert
characters, no tab/CR/LF, no outer whitespace), so the model follows from
the grouping rules in the README alone and never calls the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# The criterion-9 alphabet of tests/test_acceptance.py.
CJK = "我能胜任这此职务不是很好的了在有人中就时要一会对生到和说出得着过天上们来去里后自己"
ASCII = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
# No '|' or '-': an M2 replacement may not contain "|||" or equal "-NONE-".
PUNCT = "，。！？、；：,.!?;:'\"() "


@dataclass
class Corpus:
    """A generated input file and the model of its content."""

    path: Path
    lines: int
    multi_target: bool
    samples: list[tuple[str, str]] = field(repr=False)
    # source -> distinct targets, both in first-appearance order.
    groups: dict[str, list[str]] = field(repr=False)

    @property
    def size(self) -> dict:
        return {
            "lines": self.lines,
            "bytes": self.path.stat().st_size,
            "samples": len(self.samples),
            "unique_sources": len(self.groups),
        }

    def kept_groups(self, drop_correct: bool) -> list[tuple[str, list[str]]]:
        """Groups as ``clean`` sees them, with or without --drop-correct."""
        if not drop_correct:
            return list(self.groups.items())
        kept = []
        for source, targets in self.groups.items():
            erroneous = [t for t in targets if t != source]
            if erroneous:
                kept.append((source, erroneous))
        return kept

    def distinct_pairs(self):
        for source, targets in self.groups.items():
            for target in targets:
                yield source, target


def _model(path: Path, lines: int, multi_target: bool, samples) -> Corpus:
    groups: dict[str, dict[str, None]] = {}
    for source, target in samples:
        groups.setdefault(source, {})[target] = None
    return Corpus(
        path,
        lines,
        multi_target,
        samples,
        {source: list(targets) for source, targets in groups.items()},
    )


def short_near(seed: int, total: int, path: Path) -> Corpus:
    """The criterion-9 recipe of tests/test_acceptance.py, seeded and sized.

    Random calls happen in exactly the recipe's order, so with seed 900001
    the output is the acceptance corpus up to the size cap.
    """
    rng = random.Random(seed)
    alphabet = CJK
    samples = []
    lines = 0
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        while lines < total:
            source = "".join(rng.choices(alphabet, k=rng.randint(10, 25)))
            if rng.random() < 0.4 and lines + 2 <= total:
                chars = list(source)
                chars[rng.randrange(len(chars))] = rng.choice(alphabet)
                first = "".join(chars)
                second = source[: len(source) - 1]
                out.write(f"{source}\t{first}\n{source}\t{second}\n")
                samples += [(source, first), (source, second)]
                lines += 2
            else:
                target = f"{source[:-1]}{rng.choice(alphabet)}"
                out.write(f"{source}\t{target}\n")
                samples.append((source, target))
                lines += 1
    return _model(path, lines, False, samples)


_MIXED = CJK * 2 + ASCII + PUNCT


def _sentence(rng: random.Random, length: int) -> list[str]:
    chars = rng.choices(_MIXED, k=length)
    for end in (0, -1):
        if chars[end].isspace():
            chars[end] = rng.choice(CJK)
    return chars


def _perturb(rng: random.Random, chars: list[str], operations: int) -> str:
    chars = list(chars)
    for _ in range(operations):
        kind = rng.randrange(3)
        if kind == 0 or len(chars) < 2:
            chars[rng.randrange(len(chars))] = rng.choice(_MIXED)
        elif kind == 1:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(_MIXED))
        else:
            del chars[rng.randrange(len(chars))]
    for end in (0, -1):
        if chars[end].isspace():
            chars[end] = rng.choice(CJK)
    return "".join(chars)


def long_multi(seed: int, strata: int, path: Path) -> Corpus:
    """Long mixed-script sources with 3-8 near targets and some rewrites.

    Source lengths (60-200) and target counts (3-8) form a fixed design:
    every target count gets one source in each of ``strata`` equal length
    bands, at a different offset within the band per count, so the lengths
    spread evenly over the range. The aligner's work grows with length
    squared times target count, so the design keeps it the same for every
    seed; only the text and the edits are random.
    """
    rng = random.Random(seed)
    plan = [
        (count, 60 + round(140 * (band + (count - 2.5) / 6) / strata))
        for count in range(3, 9)
        for band in range(strata)
    ]
    rng.shuffle(plan)
    total_targets = sum(count for count, _ in plan)
    rewrites = set(rng.sample(range(total_targets), round(0.05 * total_targets)))
    samples = []
    index = 0
    for count, length in plan:
        source = _sentence(rng, length)
        text = "".join(source)
        for k in range(count):
            if index in rewrites:
                target = "".join(_sentence(rng, rng.randint(length * 9 // 10, length * 11 // 10)))
            else:
                # Edit rates 2-12 %, spread evenly over the group's targets.
                rate = 0.02 + 0.10 * (k + rng.random()) / count
                target = _perturb(rng, source, max(1, round(rate * length)))
            samples.append((text, target))
            index += 1
    rng.shuffle(samples)
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        for source, target in samples:
            out.write(f"{source}\t{target}\n")
    return _model(path, len(samples), False, samples)


_PADDING = ("", "", " ", "  ", "　")


def dup_multiline(seed: int, total: int, path: Path) -> Corpus:
    """Multi-target lines with CRLF, padded fields, repeats and identities.

    About 35 % of lines repeat the content of an earlier line (with fresh
    padding), lines carry 1-5 targets, and about 30 % of targets equal
    their source.
    """
    rng = random.Random(seed)
    contents: list[tuple[str, ...]] = []
    samples = []
    with open(path, "w", encoding="utf-8", newline="") as out:
        for _ in range(total):
            if contents and rng.random() < 0.35:
                fields = rng.choice(contents)
            else:
                source = "".join(rng.choices(CJK + ASCII[:10], k=rng.randint(10, 30)))
                targets = []
                for _ in range(rng.randint(1, 5)):
                    if rng.random() < 0.3:
                        targets.append(source)
                    else:
                        targets.append(_perturb(rng, list(source), rng.randint(1, 2)))
                fields = (source, *targets)
                contents.append(fields)
            out.write(
                "\t".join(
                    rng.choice(_PADDING) + text + rng.choice(_PADDING) for text in fields
                )
                + "\r\n"
            )
            samples += [(fields[0], target) for target in fields[1:]]
    return _model(path, total, True, samples)


def hypotheses(seed: int, groups: dict[str, list[str]], path: Path) -> None:
    """One hypothesis per group, in group order, for ``score``.

    A third are the first target (true positives), a third the source
    unchanged (false negatives) and a third the first target with one extra
    substitution (false positives), assigned to groups in seeded order.
    """
    rng = random.Random(f"hypotheses-{seed}")
    kinds = [i % 3 for i in range(len(groups))]
    rng.shuffle(kinds)
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        for kind, (source, targets) in zip(kinds, groups.items()):
            if kind == 0:
                line = targets[0]
            elif kind == 1:
                line = source
            else:
                chars = list(targets[0])
                at = rng.randrange(len(chars))
                chars[at] = rng.choice(CJK.replace(chars[at], ""))
                line = "".join(chars)
            out.write(line + "\n")
