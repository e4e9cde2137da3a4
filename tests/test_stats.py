import json
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from gecclean import stats
from gecclean.corpus import (
    Sample,
    SourceGroup,
    filter_groups,
    group_by_source,
    parse_parallel,
)
from gecclean.stats import (
    bucket_stats,
    overall_stats,
    render_report,
)
from gecclean.edits import extract_edits
from gecclean.textmetrics import levenshtein_distance, levenshtein_ratio

DATA = Path(__file__).parent / "data"


def fixture_samples():
    with open(DATA / "stats_fixture.tsv", "rb") as stream:
        return list(parse_parallel(stream))


class TestOverallStats:
    def test_empty_corpus_is_all_zero(self):
        stats = overall_stats([])
        assert stats.sample_count == 0
        assert stats.erroneous_proportion == 0.0
        assert stats.unique_source_proportion == 0.0

    def test_two_sample_hand_count(self):
        stats = overall_stats([Sample("a", "a"), Sample("a", "b")])
        assert stats.sample_count == 2
        assert stats.erroneous_count == 1
        assert stats.erroneous_proportion == 0.5
        assert stats.unique_source_count == 1
        assert stats.unique_source_proportion == 0.5

    def test_fixture_values(self):
        stats = overall_stats(fixture_samples())
        assert stats.sample_count == 10
        assert stats.erroneous_count == 8
        assert stats.unique_source_count == 6
        assert stats.mean_source_length == pytest.approx(4.0, abs=1e-12)
        assert stats.mean_lev_ratio == pytest.approx(0.86, abs=1e-9)


class TestBucketStats:
    def test_all_singletons_fill_one_bucket(self):
        groups = [SourceGroup(f"s{i}", (f"t{i}",)) for i in range(4)]
        rows = bucket_stats(groups)
        assert [r.bucket for r in rows] == ["1", "total"]
        assert rows[0].proportion == 1.0

    def test_nine_targets_pool_into_top_bucket(self):
        group = SourceGroup("s", tuple(f"t{i}" for i in range(9)))
        rows = bucket_stats([group])
        assert rows[0].bucket == ">=8"

    def test_hand_counted_distribution(self):
        groups = (
            [SourceGroup(f"a{i}", ("x",)) for i in range(3)]
            + [SourceGroup(f"b{i}", ("x", "y")) for i in range(2)]
            + [SourceGroup("c", ("x", "y", "z"))]
        )
        rows = {r.bucket: r for r in bucket_stats(groups)}
        assert rows["1"].source_count == 3
        assert rows["2"].source_count == 2
        assert rows["3"].source_count == 1
        assert rows["1"].proportion == pytest.approx(0.5)
        assert rows["2"].proportion == pytest.approx(1 / 3)
        assert rows["3"].proportion == pytest.approx(1 / 6)

    def test_proportions_sum_to_one(self):
        groups = [
            SourceGroup(f"s{i}", tuple(f"t{j}" for j in range(1 + i % 5)))
            for i in range(40)
        ]
        rows = bucket_stats(groups)
        non_total = [r for r in rows if r.bucket != "total"]
        assert sum(r.proportion for r in non_total) == pytest.approx(1.0, abs=1e-9)
        assert sum(r.source_count for r in non_total) == len(groups)

    def test_variance_matches_two_pass_definition(self):
        groups = [
            SourceGroup("aaaa", ("aaab", "ab", "aaaa_x")),
            SourceGroup("bbbb", ("bb", "bbbbc", "xbbb")),
        ]
        rows = {r.bucket: r for r in bucket_stats(groups)}
        ratios = [
            levenshtein_ratio(g.source, t) for g in groups for t in g.targets
        ]
        mean = sum(ratios) / len(ratios)
        two_pass = sum((r - mean) ** 2 for r in ratios) / len(ratios)
        assert rows["3"].variance_lev_ratio == pytest.approx(two_pass, abs=1e-9)
        assert rows["3"].variance_lev_ratio >= 0.0

    def test_mean_matches_independent_two_pass_sum(self):
        groups = [
            SourceGroup(f"s{i}" * 3, (f"s{i}t", f"s{i}" * 2)) for i in range(200)
        ]
        rows = {r.bucket: r for r in bucket_stats(groups)}
        ratios = [
            levenshtein_ratio(g.source, t) for g in groups for t in g.targets
        ]
        assert rows["total"].mean_lev_ratio == pytest.approx(
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

    def test_buckets_align_each_pair_once(self, monkeypatch):
        calls = []

        def counting(s, t):
            calls.append((s, t))
            return levenshtein_ratio(s, t)

        monkeypatch.setattr(stats, "levenshtein_ratio", counting)
        groups = filter_groups(
            group_by_source(fixture_samples()),
            drop_correct=True,
            drop_identity_targets=True,
        )
        assert bucket_stats(groups)
        assert calls == []


class TestGoldenReport:
    def prepared(self):
        samples = fixture_samples()
        groups = filter_groups(
            group_by_source(samples), drop_correct=True, drop_identity_targets=True
        )
        return overall_stats(samples), bucket_stats(groups)

    def test_text_report_is_byte_exact(self):
        overall, buckets = self.prepared()
        rendered = render_report(overall, buckets, as_json=False)
        golden = (DATA / "stats_golden.txt").read_text(encoding="utf-8")
        assert rendered == golden

    def test_json_report_matches_golden_within_tolerance(self):
        overall, buckets = self.prepared()
        rendered = json.loads(render_report(overall, buckets, as_json=True))
        golden = json.loads((DATA / "stats_golden.json").read_text(encoding="utf-8"))
        assert rendered["overall"].keys() == golden["overall"].keys()
        for key, expected in golden["overall"].items():
            assert rendered["overall"][key] == pytest.approx(expected, abs=1e-9)
        assert len(rendered["by_target_count"]) == len(golden["by_target_count"])
        for got, expected in zip(rendered["by_target_count"], golden["by_target_count"]):
            assert got["targets"] == expected["targets"]
            for key, value in expected.items():
                if key == "targets":
                    continue
                assert got[key] == pytest.approx(value, abs=1e-9)
