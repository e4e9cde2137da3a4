"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The throughput check (criterion 9) generates a million-line corpus
and takes the bulk of the suite's runtime.
"""

import hashlib
import itertools
import json
import random
import string
import time
from pathlib import Path

import pytest

from gecclean.cli import main
from gecclean.corpus import (
    SourceGroup,
    filter_groups,
    group_by_source,
    parse_parallel,
)
from gecclean.edits import align, apply_edits, extract_edits, parse_m2, to_m2
from gecclean.onetarget import (
    SelectionConfig,
    Strategy,
    build_ablation,
    clean_corpus,
)
from gecclean.scorer import evaluate_corpus, evaluate_sentence, f_beta
from gecclean.stats import bucket_stats, overall_stats, render_report
from gecclean.textmetrics import (
    jaccard_similarity,
    levenshtein_distance,
    levenshtein_ratio,
)
from million_corpus import generate_million_line_corpus as _generate_million_line_corpus
from oracles import levenshtein_recursive

DATA = Path(__file__).parent / "data"

TABLE_SOURCE = "我能胜任这此职务"
TABLE_REF1 = "我能胜任这职务。"
TABLE_REF2 = "我能胜任此职务。"

MIXED_ALPHABET = (
    string.ascii_letters + string.digits + ",.!?;:'"
    + "我能胜任这此职务。不是很好的了在有人中就时要一会对生到和"
)

DETERMINISTIC = [s for s in Strategy if s is not Strategy.RANDOM]


def _report(number: int, message: str) -> None:
    print(f"criterion {number}: PASS - {message}")


def test_criterion_1_levenshtein_oracle_equivalence():
    started = time.monotonic()
    strings = [
        "".join(p) for k in range(6) for p in itertools.product("abc", repeat=k)
    ]
    pairs = 0
    for s, t in itertools.product(strings, repeat=2):
        assert levenshtein_distance(s, t) == levenshtein_recursive(s, t), (s, t)
        pairs += 1
    elapsed = time.monotonic() - started
    assert pairs == len(strings) ** 2 == 132496
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"
    _report(1, f"{pairs} pairs matched the recursive oracle in {elapsed:.1f}s")


def test_criterion_2_similarity_values_and_tie_break():
    for reference in (TABLE_REF1, TABLE_REF2):
        assert levenshtein_ratio(TABLE_SOURCE, reference) == pytest.approx(
            14 / 16, abs=1e-12
        )
        assert jaccard_similarity(TABLE_SOURCE, reference) == pytest.approx(
            7 / 9, abs=1e-12
        )
    group = SourceGroup(TABLE_SOURCE, (TABLE_REF1, TABLE_REF2))
    for strategy in DETERMINISTIC:
        picked = clean_corpus([group], SelectionConfig(strategy))[0]
        assert picked.target == TABLE_REF1, strategy
    _report(2, "ratio 14/16 and Jaccard 7/9 on both references; ties keep reference 1")


def test_criterion_3_reconstruction_fuzz():
    rng = random.Random(20240811)
    failures = 0
    for round_number in range(10_000):
        length = rng.randrange(65)
        s = "".join(rng.choices(MIXED_ALPHABET, k=length))
        if rng.random() < 0.5:
            t = "".join(rng.choices(MIXED_ALPHABET, k=rng.randrange(65)))
        else:
            chars = list(s)
            for _ in range(rng.randrange(4)):
                mode = rng.randrange(3)
                position = rng.randrange(len(chars) + 1)
                if mode == 0 or not chars:
                    chars.insert(position, rng.choice(MIXED_ALPHABET))
                elif mode == 1:
                    del chars[position % len(chars)]
                else:
                    chars[position % len(chars)] = rng.choice(MIXED_ALPHABET)
            t = "".join(chars)
        annotation = extract_edits(s, t)
        if apply_edits(s, annotation) != t:
            failures += 1
        path = align(s, t)
        if sum(1 for step in path if step != "match") != levenshtein_distance(s, t):
            failures += 1
    assert failures == 0
    _report(3, "10000 random pairs reconstructed with distance-minimal paths")


def test_criterion_4_m2_round_trip():
    rng = random.Random(77)
    alphabet = MIXED_ALPHABET + " "
    for _ in range(1_000):
        source = "".join(rng.choices(alphabet, k=rng.randrange(21)))
        annotations = []
        for annotator_id in range(rng.randint(1, 4)):
            if rng.random() < 0.25:
                target = source  # noop annotation
            else:
                chars = list(source)
                for _ in range(rng.randint(1, 3)):
                    position = rng.randrange(len(chars) + 1)
                    action = rng.randrange(3)
                    if action == 0 or not chars:
                        chars.insert(position, rng.choice(alphabet))
                    elif action == 1:
                        del chars[position % len(chars)]
                    else:
                        chars[position % len(chars)] = rng.choice(alphabet)
                target = "".join(chars)
            annotations.append(extract_edits(source, target, annotator_id=annotator_id))
        parsed_source, parsed = parse_m2(to_m2(source, annotations))
        assert parsed_source == source
        assert parsed == annotations
    _report(4, "1000 randomized multi-annotator entries round-tripped byte-exactly")


def test_criterion_5_one_target_cardinality_and_seed_invariance():
    rng = random.Random(5)
    groups = []
    for i in range(200):
        count = rng.randint(1, 4)
        targets = tuple(f"t{i}.{j}" * rng.randint(1, 3) for j in range(count))
        groups.append(SourceGroup(f"source{i:03d}", targets))
    total_pairs = sum(len(g.targets) for g in groups)
    assert total_pairs > len(groups)
    for strategy in Strategy:
        samples = clean_corpus(groups, SelectionConfig(strategy, seed=42))
        assert len(samples) == len(groups), strategy
    for strategy in DETERMINISTIC:
        outputs = {
            tuple(clean_corpus(groups, SelectionConfig(strategy, seed=seed)))
            for seed in (1, 42, 999)
        }
        assert len(outputs) == 1, strategy
    _report(
        5,
        f"{total_pairs} pairs in {len(groups)} groups -> {len(groups)} samples"
        " under every strategy; deterministic strategies are seed-invariant",
    )


def test_criterion_6_ablation_sizes_and_prefix_property():
    rng = random.Random(6)
    groups = [
        SourceGroup(
            f"src{i}", tuple(f"t{i}.{j}" for j in range(rng.randint(3, 6)))
        )
        for i in range(40)
    ]
    datasets = build_ablation(groups, k_min=3, n_values={1, 2, 3}, seed=11)
    g = len(groups)
    assert {n: len(samples) for n, samples in datasets.items()} == {
        1: g, 2: 2 * g, 3: 3 * g,
    }
    per_group = {}
    for n, samples in datasets.items():
        for source, target in samples:
            per_group.setdefault(source, {}).setdefault(n, []).append(target)
    for chosen in per_group.values():
        assert chosen[1] == chosen[2][:1]
        assert chosen[2] == chosen[3][:2]
    _report(6, f"datasets of exactly {g}, {2*g}, {3*g} samples with per-group prefixes")


def test_criterion_7_scorer_exactness():
    gold = [
        extract_edits(TABLE_SOURCE, TABLE_REF1, annotator_id=0),
        extract_edits(TABLE_SOURCE, TABLE_REF2, annotator_id=1),
    ]
    perfect = evaluate_corpus(
        [
            (TABLE_SOURCE, TABLE_REF1, gold),
            ("abcd", "abcf", [extract_edits("abcd", "abcf")]),
        ]
    )
    assert perfect.precision == perfect.recall == perfect.f_half == 1.0

    mixed = evaluate_corpus(
        [
            ("abcd", "abcf", [extract_edits("abcd", "abcf")]),
            ("ab", "xb", [extract_edits("ab", "yb")]),
            ("pq", "pqr", [extract_edits("pq", "pqr")]),
        ]
    )
    assert (mixed.tp, mixed.fp, mixed.fn) == (2, 1, 1)
    assert mixed.precision == pytest.approx(2 / 3, abs=1e-9)
    assert mixed.recall == pytest.approx(2 / 3, abs=1e-9)
    assert mixed.f_half == pytest.approx(2 / 3, abs=1e-9)

    assert f_beta(0.5, 1.0, 0.5) == pytest.approx(0.5555555555555556, abs=1e-9)

    tp, fp, fn, annotator = evaluate_sentence(TABLE_SOURCE, TABLE_REF2, gold)
    assert (tp, fp, fn, annotator) == (2, 0, 0, 1)
    _report(7, "perfect corpus, mixed 2/1/1 fixture, f_beta and annotator choice exact")


def test_criterion_8_stats_golden_file():
    with open(DATA / "stats_fixture.tsv", "rb") as stream:
        samples = list(parse_parallel(stream))
    groups = filter_groups(
        group_by_source(samples), drop_correct=True, drop_identity_targets=True
    )
    overall = overall_stats(samples)
    buckets = bucket_stats(groups)

    text = render_report(overall, buckets, as_json=False)
    assert text == (DATA / "stats_golden.txt").read_text(encoding="utf-8")

    rendered = json.loads(render_report(overall, buckets, as_json=True))
    golden = json.loads((DATA / "stats_golden.json").read_text(encoding="utf-8"))
    for key, expected in golden["overall"].items():
        assert rendered["overall"][key] == pytest.approx(expected, abs=1e-9)
    for got, expected in zip(
        rendered["by_target_count"], golden["by_target_count"], strict=True
    ):
        for key, value in expected.items():
            if key == "targets":
                assert got[key] == value
            else:
                assert got[key] == pytest.approx(value, abs=1e-9)
    _report(8, "golden report byte-exact in text mode, within 1e-9 in JSON")


def test_criterion_9_determinism_and_throughput(tmp_path):
    corpus = tmp_path / "million.tsv"
    generated = _generate_million_line_corpus(corpus)
    assert generated == 1_000_000

    digests = {}
    elapsed = None
    for label, threads in (("run1", 1), ("run2", 1), ("run4", 4)):
        out = tmp_path / f"{label}.tsv"
        started = time.monotonic()
        code = main(
            [
                "clean", str(corpus), "-o", str(out),
                "--strategy", "lev_sim", "--threads", str(threads),
            ]
        )
        duration = time.monotonic() - started
        assert code == 0
        if elapsed is None:
            elapsed = duration
        digests[label] = hashlib.sha256(out.read_bytes()).hexdigest()
        out.unlink()
    assert digests["run1"] == digests["run2"] == digests["run4"]
    assert elapsed < 60.0, f"clean took {elapsed:.1f}s (soft target 60s)"
    _report(
        9,
        f"1,000,000-line clean byte-identical across runs and threads,"
        f" {elapsed:.1f}s single-threaded",
    )
