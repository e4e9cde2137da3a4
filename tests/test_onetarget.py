import pytest
from hypothesis import given, settings, strategies as st

from gecclean.corpus import Sample, SourceGroup
from gecclean.edits import extract_edits
from gecclean.onetarget import (
    SelectionConfig,
    Strategy,
    _ranking,
    build_ablation,
    clean_corpus,
    select,
)
from gecclean.textmetrics import jaccard_similarity, levenshtein_ratio

TABLE_GROUP = SourceGroup("我能胜任这此职务", ("我能胜任这职务。", "我能胜任此职务。"))

DETERMINISTIC = [s for s in Strategy if s is not Strategy.RANDOM]


def edit_count(source, target):
    return len(extract_edits(source, target).edits)


# Each deterministic strategy's ranking key, computed without onetarget.
KEYS = {
    Strategy.LEV_SIM: levenshtein_ratio,
    Strategy.LEV_DIS: levenshtein_ratio,
    Strategy.JAC_SIM: jaccard_similarity,
    Strategy.JAC_DIS: jaccard_similarity,
    Strategy.EDI_LEAST: edit_count,
    Strategy.EDI_MOST: edit_count,
}


class TestStrategyParsing:
    def test_all_names_accepted(self):
        names = tuple(s.value for s in Strategy)
        assert names == (
            "lev_sim",
            "lev_dis",
            "jac_sim",
            "jac_dis",
            "edi_least",
            "edi_most",
            "random",
        )
        for name in names:
            assert Strategy(name).value == name

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValueError) as excinfo:
            Strategy("bogus")
        assert str(excinfo.value) == (
            "unknown strategy 'bogus'; valid strategies: lev_sim, lev_dis,"
            " jac_sim, jac_dis, edi_least, edi_most, random"
        )


class TestScoreTarget:
    """The ranking key of each deterministic strategy, and none for random."""

    def test_levenshtein_key(self):
        assert levenshtein_ratio("abcd", "abcf") == pytest.approx(7 / 8)

    def test_edit_count_key_on_identity(self):
        assert edit_count("abc", "abc") == 0

    def test_jaccard_key(self):
        assert jaccard_similarity("我能胜任这此职务", "我能胜任这职务。") == pytest.approx(7 / 9)

    def test_random_has_no_key(self):
        assert _ranking(Strategy.RANDOM) is None


class TestSelect:
    def test_lev_sim_picks_most_similar(self):
        group = SourceGroup("abcd", ("abcf", "ab"))
        config = SelectionConfig(Strategy.LEV_SIM)
        assert select(group, config) == Sample("abcd", "abcf")

    def test_lev_dis_picks_least_similar(self):
        group = SourceGroup("abcd", ("abcf", "ab"))
        config = SelectionConfig(Strategy.LEV_DIS)
        assert select(group, config) == Sample("abcd", "ab")

    @pytest.mark.parametrize("strategy", DETERMINISTIC)
    def test_tie_break_keeps_first_appearance(self, strategy):
        # Both references tie on every ranking key (ratio 14/16, Jaccard
        # 7/9, 2 merged edits), so the lowest target index wins.
        picked = select(TABLE_GROUP, SelectionConfig(strategy))
        assert picked.target == "我能胜任这职务。"

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_singleton_passthrough(self, strategy):
        group = SourceGroup("s", ("only",))
        for seed in (0, 1, 99):
            assert select(group, SelectionConfig(strategy, seed)).target == "only"

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            select(SourceGroup("s", ()), SelectionConfig(Strategy.LEV_SIM))

    def test_random_is_deterministic_per_seed(self):
        group = SourceGroup("abcd", ("t1", "t2", "t3", "t4"))
        picks = {
            seed: select(group, SelectionConfig(Strategy.RANDOM, seed)).target
            for seed in range(20)
        }
        again = {
            seed: select(group, SelectionConfig(Strategy.RANDOM, seed)).target
            for seed in range(20)
        }
        assert picks == again
        assert len(set(picks.values())) > 1

    def test_random_is_independent_of_group_order(self):
        groups = [SourceGroup(f"s{i}", ("a", "b", "c")) for i in range(10)]
        config = SelectionConfig(Strategy.RANDOM, seed=7)
        forward = {g.source: select(g, config).target for g in groups}
        backward = {g.source: select(g, config).target for g in reversed(groups)}
        assert forward == backward

    @pytest.mark.parametrize("strategy", DETERMINISTIC)
    def test_seed_never_changes_deterministic_strategies(self, strategy):
        group = SourceGroup("abcde", ("abc", "abcdf", "xbcde"))
        targets = {
            select(group, SelectionConfig(strategy, seed)).target
            for seed in range(10)
        }
        assert len(targets) == 1

    @given(
        st.text("abc", min_size=1, max_size=6),
        st.lists(st.text("abc", max_size=6), min_size=2, max_size=5, unique=True),
    )
    @settings(max_examples=200)
    def test_sim_strategies_are_argmax(self, source, targets):
        group = SourceGroup(source, tuple(targets))
        for strategy in (Strategy.LEV_SIM, Strategy.JAC_SIM, Strategy.EDI_MOST):
            picked = select(group, SelectionConfig(strategy))
            keys = [KEYS[strategy](source, t) for t in targets]
            assert KEYS[strategy](source, picked.target) == max(keys)
        for strategy in (Strategy.LEV_DIS, Strategy.JAC_DIS, Strategy.EDI_LEAST):
            picked = select(group, SelectionConfig(strategy))
            keys = [KEYS[strategy](source, t) for t in targets]
            assert KEYS[strategy](source, picked.target) == min(keys)

    def test_duality_on_distinct_keys(self):
        # Ranking keys differ pairwise: ratios 11/12 vs 10/12, Jaccard 5/7
        # vs 1/2, merged edit counts 1 vs 2.
        group = SourceGroup("abcdef", ("abcdex", "axcdey"))
        for high, low in (
            (Strategy.LEV_SIM, Strategy.LEV_DIS),
            (Strategy.JAC_SIM, Strategy.JAC_DIS),
            (Strategy.EDI_MOST, Strategy.EDI_LEAST),
        ):
            first = select(group, SelectionConfig(high)).target
            second = select(group, SelectionConfig(low)).target
            assert first != second


class TestCleanCorpus:
    def test_one_sample_per_group(self):
        groups = [
            SourceGroup("a", ("x", "y")),
            SourceGroup("b", ("z",)),
            SourceGroup("c", ("u", "v", "w")),
        ]
        samples = clean_corpus(groups, SelectionConfig(Strategy.LEV_SIM))
        assert len(samples) == 3
        assert [s.source for s in samples] == ["a", "b", "c"]

    def test_same_seed_same_output(self):
        groups = [SourceGroup(f"s{i}", ("aa", "ab", "ba")) for i in range(50)]
        config = SelectionConfig(Strategy.RANDOM, seed=3)
        assert clean_corpus(groups, config) == clean_corpus(groups, config)

    def test_halves_a_two_target_corpus(self):
        groups = [SourceGroup(f"s{i}", (f"t{i}a", f"t{i}b")) for i in range(1000)]
        samples = clean_corpus(groups, SelectionConfig(Strategy.LEV_SIM))
        assert len(samples) == 1000
        assert sum(len(g.targets) for g in groups) == 2000


class TestBuildAblation:
    def groups(self, count=5, targets=4):
        return [
            SourceGroup(f"s{i}", tuple(f"t{i}.{j}" for j in range(targets)))
            for i in range(count)
        ]

    def test_dataset_sizes(self):
        datasets = build_ablation(self.groups(5, 3), k_min=3, n_values={1, 2, 3}, seed=1)
        assert {n: len(samples) for n, samples in datasets.items()} == {
            1: 5,
            2: 10,
            3: 15,
        }

    def test_prefix_property(self):
        datasets = build_ablation(self.groups(6, 4), k_min=3, n_values={1, 2, 3}, seed=9)
        by_source = {}
        for n, samples in datasets.items():
            for source, target in samples:
                by_source.setdefault(source, {}).setdefault(n, []).append(target)
        for per_n in by_source.values():
            assert per_n[1] == per_n[2][:1]
            assert per_n[2] == per_n[3][:2]

    def test_small_groups_discarded(self):
        groups = self.groups(4, 4) + [SourceGroup("small", ("a", "b"))]
        datasets = build_ablation(groups, k_min=3, n_values={1}, seed=1)
        assert len(datasets[1]) == 4

    def test_n_larger_than_k_min_rejected(self):
        with pytest.raises(ValueError, match="k_min"):
            build_ablation(self.groups(), k_min=2, n_values={3}, seed=1)

    def test_empty_n_values_rejected(self):
        with pytest.raises(ValueError, match="n_values must not be empty"):
            build_ablation(self.groups(), k_min=2, n_values=[], seed=1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_n_rejected(self, n):
        with pytest.raises(ValueError, match=f"must be positive, got {n}"):
            build_ablation(self.groups(), k_min=2, n_values={n, 1}, seed=1)

    def test_max_groups_subsamples_deterministically(self):
        groups = self.groups(10, 3)
        first = build_ablation(groups, k_min=3, n_values={1}, seed=5, max_groups=4)
        second = build_ablation(groups, k_min=3, n_values={1}, seed=5, max_groups=4)
        assert first == second
        assert len(first[1]) == 4

    def test_seed_changes_shuffle(self):
        groups = self.groups(30, 4)
        a = build_ablation(groups, k_min=4, n_values={1}, seed=1)
        b = build_ablation(groups, k_min=4, n_values={1}, seed=2)
        assert a != b
