import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from gecclean import stats, textmetrics
from gecclean.corpus import (
    Sample,
    SourceGroup,
    filter_groups,
    group_by_source,
    parse_parallel,
)
from gecclean.stats import (
    bucket_stats,
    corpus_stats,
    overall_stats,
    render_report,
)
from gecclean.edits import extract_edits
from gecclean.textmetrics import levenshtein_distance, levenshtein_ratio

from oracles import bucket_stats_by_group, overall_stats_by_line

DATA = Path(__file__).parent / "data"


def fixture_samples():
    with open(DATA / "stats_fixture.tsv", "rb") as stream:
        return list(parse_parallel(stream))


class TestOverallStats:
    def test_empty_corpus_is_all_zero(self):
        stats = overall_stats([])
        assert stats.samples == 0
        assert stats.erroneous_proportion == 0.0
        assert stats.unique_source_proportion == 0.0

    def test_two_sample_hand_count(self):
        stats = overall_stats([Sample("a", "a"), Sample("a", "b")])
        assert stats.samples == 2
        assert stats.erroneous == 1
        assert stats.erroneous_proportion == 0.5
        assert stats.unique_sources == 1
        assert stats.unique_source_proportion == 0.5

    def test_fixture_values(self):
        stats = overall_stats(fixture_samples())
        assert stats.samples == 10
        assert stats.erroneous == 8
        assert stats.unique_sources == 6
        assert stats.mean_source_length == pytest.approx(4.0, abs=1e-12)
        assert stats.mean_levenshtein_ratio == pytest.approx(0.86, abs=1e-9)
        rendered = json.loads(render_report(stats, [], as_json=True))
        golden = json.loads((DATA / "stats_golden.json").read_text(encoding="utf-8"))
        assert rendered["overall"].keys() == golden["overall"].keys()

    def test_mean_ratio_is_compensated(self):
        # Each line's ratio is 0.1; ten of them summed plainly give
        # 0.9999999999999999, and the mean 0.09999999999999999.
        stats = overall_stats([Sample("a", "bcdefghij")] * 10)
        assert stats.mean_levenshtein_ratio == 0.1


class TestBucketStats:
    def test_all_singletons_fill_one_bucket(self):
        groups = [SourceGroup(f"s{i}", (f"t{i}",)) for i in range(4)]
        rows = bucket_stats(groups)
        assert [r.targets for r in rows] == ["1", "total"]
        assert rows[0].proportion == 1.0

    def test_nine_targets_pool_into_top_bucket(self):
        group = SourceGroup("s", tuple(f"t{i}" for i in range(9)))
        rows = bucket_stats([group])
        assert rows[0].targets == ">=8"

    def test_hand_counted_distribution(self):
        groups = (
            [SourceGroup(f"a{i}", ("x",)) for i in range(3)]
            + [SourceGroup(f"b{i}", ("x", "y")) for i in range(2)]
            + [SourceGroup("c", ("x", "y", "z"))]
        )
        rows = {r.targets: r for r in bucket_stats(groups)}
        assert rows["1"].sources == 3
        assert rows["2"].sources == 2
        assert rows["3"].sources == 1
        assert rows["1"].proportion == pytest.approx(0.5)
        assert rows["2"].proportion == pytest.approx(1 / 3)
        assert rows["3"].proportion == pytest.approx(1 / 6)

    def test_proportions_sum_to_one(self):
        groups = [
            SourceGroup(f"s{i}", tuple(f"t{j}" for j in range(1 + i % 5)))
            for i in range(40)
        ]
        rows = bucket_stats(groups)
        non_total = [r for r in rows if r.targets != "total"]
        assert sum(r.proportion for r in non_total) == pytest.approx(1.0, abs=1e-9)
        assert sum(r.sources for r in non_total) == len(groups)

    def test_variance_matches_two_pass_definition(self):
        groups = [
            SourceGroup("aaaa", ("aaab", "ab", "aaaa_x")),
            SourceGroup("bbbb", ("bb", "bbbbc", "xbbb")),
        ]
        rows = {r.targets: r for r in bucket_stats(groups)}
        ratios = [
            levenshtein_ratio(g.source, t) for g in groups for t in g.targets
        ]
        mean = sum(ratios) / len(ratios)
        two_pass = sum((r - mean) ** 2 for r in ratios) / len(ratios)
        assert rows["3"].variance_levenshtein_ratio == pytest.approx(two_pass, abs=1e-9)
        assert rows["3"].variance_levenshtein_ratio >= 0.0

    def test_mean_matches_independent_two_pass_sum(self):
        groups = [
            SourceGroup(f"s{i}" * 3, (f"s{i}t", f"s{i}" * 2)) for i in range(200)
        ]
        rows = {r.targets: r for r in bucket_stats(groups)}
        ratios = [
            levenshtein_ratio(g.source, t) for g in groups for t in g.targets
        ]
        assert rows["total"].mean_levenshtein_ratio == pytest.approx(
            math.fsum(ratios) / len(ratios), abs=1e-9
        )

    def test_empty_input(self):
        assert bucket_stats([]) == []


class TestRatioFromEdits:
    @given(
        st.text(alphabet="ab x我能。", max_size=14),
        st.text(alphabet="ab x我能。", max_size=14),
    )
    def test_edit_costs_sum_to_the_distance(self, s, t):
        edits = extract_edits(s, t).edits
        cost = sum(max(edit.end - edit.start, len(edit.replacement)) for edit in edits)
        assert cost == levenshtein_distance(s, t)
        assert stats._pair_values(s, t) == (levenshtein_ratio(s, t), len(edits))

    def test_each_distinct_pair_is_aligned_once(self, monkeypatch):
        calls = {"extract_edits": 0, "levenshtein_distance": 0}

        def counting(function):
            def wrapper(*args, **kwargs):
                calls[function.__name__] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(stats, "extract_edits", counting(extract_edits))
        monkeypatch.setattr(
            textmetrics, "levenshtein_distance", counting(levenshtein_distance)
        )
        assert corpus_stats(fixture_samples())[1]
        # 10 lines: 2 identity pairs and one repeat leave 7 distinct
        # erroneous pairs, and no distance is taken.
        assert calls == {"extract_edits": 7, "levenshtein_distance": 0}
        # A repeated line of a source with one target is not aligned again.
        calls["extract_edits"] = 0
        assert corpus_stats([Sample("ab", "ac")] * 2)[1]
        assert calls == {"extract_edits": 1, "levenshtein_distance": 0}


SENTENCE = st.text(alphabet="ab x我能。", min_size=1, max_size=8)


@st.composite
def corpora(draw):
    """Samples over a few sources and a pool of up to 12 targets.

    Sources are drawn from the target pool, so identity targets occur,
    lines repeat, and a source can reach the pooled bucket of 8 or more.
    """
    sentences = draw(st.lists(SENTENCE, min_size=1, max_size=12, unique=True))
    sources = sentences[: draw(st.integers(1, 3))]
    lines = st.tuples(st.sampled_from(sources), st.sampled_from(sentences))
    return [Sample(*line) for line in draw(st.lists(lines, max_size=60))]


POOLED_CORPUS = [Sample("ab", f"a{i}") for i in range(10)] * 2 + [
    Sample("ab", "ab"),
    Sample("x", "x"),
    Sample("我能", "我"),
]


class TestCorpusStats:
    """``corpus_stats`` against the two passes it replaced, in ``oracles``."""

    @given(corpora())
    @example([])
    @example(POOLED_CORPUS)
    def test_one_pass_equals_the_two_passes(self, samples):
        groups = filter_groups(
            group_by_source(samples), drop_correct=True, drop_identity_targets=True
        )
        expected = (overall_stats_by_line(samples), bucket_stats_by_group(groups))
        assert corpus_stats(samples) == expected
        assert overall_stats(samples) == expected[0]
        assert bucket_stats(groups) == expected[1]

    def test_unfiltered_groups_drop_identity_targets(self):
        groups = group_by_source(POOLED_CORPUS)
        filtered = filter_groups(groups, drop_correct=True, drop_identity_targets=True)
        rows = bucket_stats(groups)
        assert rows == bucket_stats_by_group(filtered)
        assert [row.targets for row in rows] == ["1", ">=8", "total"]

    def test_long_identity_pair_is_not_aligned(self):
        long = "a" * 600
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            overall, rows = corpus_stats([Sample(long, long)])
        assert overall.mean_levenshtein_ratio == 1.0
        assert rows == []
