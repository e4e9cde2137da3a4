"""Selection of a single target per source group.

Seven strategies are supported.  Six are deterministic rankings over the
candidate targets of a group; ``random`` draws one target from a per-group
random stream keyed by (seed, source), so the draw does not depend on the
order in which groups are processed.
"""

from __future__ import annotations

import enum
import functools
import random
from typing import Callable, Iterable, NamedTuple

from .corpus import Sample, SourceGroup
from .textmetrics import jaccard_similarity, levenshtein_ratio


class Strategy(enum.Enum):
    """How to pick one target from a multi-target group.

    The *_sim strategies keep the target most similar to the source,
    *_dis the least similar; edi_least / edi_most rank by merged edit
    count.  Values are the exact names accepted on the command line, and
    ``Strategy(name)`` raises a ``ValueError`` that lists them for any
    other name.
    """

    LEV_SIM = "lev_sim"
    LEV_DIS = "lev_dis"
    JAC_SIM = "jac_sim"
    JAC_DIS = "jac_dis"
    EDI_LEAST = "edi_least"
    EDI_MOST = "edi_most"
    RANDOM = "random"

    @classmethod
    def _missing_(cls, name):
        valid = ", ".join(s.value for s in cls)
        raise ValueError(f"unknown strategy {name!r}; valid strategies: {valid}")


class SelectionConfig(NamedTuple):
    """Strategy plus the seed feeding the random strategy's streams."""

    strategy: Strategy
    seed: int = 42


@functools.cache
def _ranking(strategy: Strategy) -> tuple[Callable, Callable] | None:
    """``(key, max or min)`` that picks a target by ``key(source, target)``.

    ``None`` for random, which ranks nothing.  Only the edi_* strategies
    import the aligner (``gecclean.edits`` and ``gecclean.m2``), once per
    process; ``clean`` calls this before it reads the corpus, so the
    aligner's compile does not add to its peak.
    """
    if strategy is Strategy.RANDOM:
        return None
    pick = min
    if strategy in (Strategy.LEV_SIM, Strategy.JAC_SIM, Strategy.EDI_MOST):
        pick = max
    if strategy in (Strategy.LEV_SIM, Strategy.LEV_DIS):
        return levenshtein_ratio, pick
    if strategy in (Strategy.JAC_SIM, Strategy.JAC_DIS):
        return jaccard_similarity, pick
    from .edits import extract_edits

    return (lambda source, target: len(extract_edits(source, target).edits)), pick


def _group_rng(seed: int, source: str) -> random.Random:
    # Keyed digest of the source text: every group gets its own stream,
    # independent of processing order, so a group's choice does not depend
    # on which other groups the corpus holds or where they appear.  Only
    # random and ablate draw, so other commands do not load hashlib.
    import hashlib

    digest = hashlib.blake2b(
        source.encode("utf-8"),
        digest_size=8,
        key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big"),
    ).digest()
    return random.Random(int.from_bytes(digest, "big"))


def select(group: SourceGroup, config: SelectionConfig) -> Sample:
    """Pick exactly one target from a group.

    Singleton groups pass through unchanged under every strategy.  Ties
    between ranking keys are broken by the lowest target index, i.e. first
    appearance in the corpus.
    """
    targets = group.targets
    if not targets:
        raise ValueError(f"group for source {group.source!r} has no targets")
    if len(targets) == 1:
        return Sample(group.source, targets[0])
    ranking = _ranking(config.strategy)
    if ranking is None:
        index = _group_rng(config.seed, group.source).randrange(len(targets))
    else:
        key, pick = ranking
        keys = [key(group.source, t) for t in targets]
        index = pick(range(len(targets)), key=keys.__getitem__)
    return Sample(group.source, targets[index])


def clean_corpus(
    groups: Iterable[SourceGroup], config: SelectionConfig
) -> list[Sample]:
    """One sample per group, in group order."""
    return [select(group, config) for group in groups]


def build_ablation(
    groups: Iterable[SourceGroup],
    k_min: int,
    n_values: Iterable[int],
    seed: int,
    max_groups: int | None = None,
) -> dict[int, list[Sample]]:
    """Build fixed-source datasets with 1..n targets per source.

    Groups with fewer than ``k_min`` targets are discarded; each surviving
    group's targets are shuffled once with the seeded per-group stream, and
    the n-target dataset takes the first n shuffled targets.  The datasets
    therefore share their sources, have exactly n * groups samples, and are
    per-group prefixes of one another.  ``max_groups`` optionally
    sub-samples the surviving groups (seeded, order-preserving).
    """
    sizes = sorted(set(n_values))
    if not sizes:
        raise ValueError("n_values must not be empty")
    if sizes[0] < 1:
        raise ValueError(f"target counts must be positive, got {sizes[0]}")
    if k_min < sizes[-1]:
        raise ValueError(
            f"k_min={k_min} is smaller than the largest requested n={sizes[-1]}"
        )
    kept = [g for g in groups if len(g.targets) >= k_min]
    if max_groups is not None and max_groups < len(kept):
        chooser = _group_rng(seed, "")
        indices = sorted(chooser.sample(range(len(kept)), max_groups))
        kept = [kept[i] for i in indices]
    shuffled: list[tuple[str, list[str]]] = []
    for group in kept:
        order = list(group.targets)
        _group_rng(seed, group.source).shuffle(order)
        shuffled.append((group.source, order))
    return {
        n: [Sample(source, t) for source, order in shuffled for t in order[:n]]
        for n in sizes
    }
