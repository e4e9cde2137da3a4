import pytest
from hypothesis import given, settings, strategies as st

from gecclean.edits import Annotation, Edit, extract_edits
from gecclean.scorer import (
    ScoreReport,
    evaluate_corpus,
    evaluate_sentence,
    f_beta,
)
from oracles import evaluate_sentence_per_edit

SOURCE = "我能胜任这此职务"
REF1 = "我能胜任这职务。"
REF2 = "我能胜任此职务。"


def gold_annotations():
    return [
        extract_edits(SOURCE, REF1, annotator_id=0),
        extract_edits(SOURCE, REF2, annotator_id=1),
    ]


# A small alphabet, so hypotheses and annotators often share edits.
short_text = st.text(alphabet="ab我。", max_size=8)


@st.composite
def hand_built(draw, source: str, annotator_id: int) -> Annotation:
    """An in-bounds annotation: spans between distinct cut points, some insertions."""
    cuts = sorted(draw(st.lists(st.integers(0, len(source)), unique=True, max_size=6)))
    edits = []
    for start, end in zip(cuts[::2], cuts[1::2]):
        if draw(st.booleans()):
            end = start
        replacement = draw(short_text.filter(lambda text: text or start < end))
        edits.append(Edit(start, end, replacement))
    return Annotation(edits, annotator_id)


@st.composite
def scored_sentences(draw):
    source = draw(short_text)
    hypothesis = draw(short_text)
    ids = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    gold = [
        draw(
            st.one_of(
                short_text.map(lambda target: extract_edits(source, target, annotator_id)),
                hand_built(source, annotator_id),
            )
        )
        for annotator_id in ids
    ]
    return source, hypothesis, gold


class TestFBeta:
    def test_perfect(self):
        assert f_beta(1.0, 1.0, 0.5) == 1.0

    def test_zero_precision(self):
        assert f_beta(0.0, 1.0, 0.5) == 0.0

    def test_degenerate_denominator(self):
        assert f_beta(0.0, 0.0, 0.5) == 0.0

    @given(st.integers(0, 1000), st.integers(0, 1000))
    def test_f_half_weights_precision(self, pi, ri):
        p, r = pi / 1000, ri / 1000
        if p > r > 0:
            assert f_beta(p, r, 0.5) > f_beta(p, r, 1.0)


class TestScoreReport:
    def test_edge_conventions(self):
        report = ScoreReport(0, 0, 0)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f_half == 1.0

    def test_counts(self):
        # fp != fn, so swapping precision and recall changes every value.
        report = ScoreReport(2, 1, 3)
        assert report.precision == pytest.approx(2 / 3, abs=1e-12)
        assert report.recall == pytest.approx(2 / 5, abs=1e-12)
        assert report.f_half == pytest.approx(10 / 17, abs=1e-12)

    def test_monotone_in_converting_fp_to_tp(self):
        for tp, fp, fn in [(0, 3, 2), (1, 2, 4), (5, 5, 5)]:
            worse = ScoreReport(tp, fp, fn)
            better = ScoreReport(tp + 1, fp - 1, fn)
            assert better.f_half >= worse.f_half


class TestEvaluateSentence:
    def test_perfect_correction(self):
        gold = gold_annotations()
        tp, fp, fn, annotator = evaluate_sentence(SOURCE, REF1, gold)
        assert (tp, fp, fn, annotator) == (2, 0, 0, 0)

    def test_do_nothing_hypothesis(self):
        gold = [gold_annotations()[0]]
        tp, fp, fn, _ = evaluate_sentence(SOURCE, SOURCE, gold)
        assert (tp, fp, fn) == (0, 0, 2)

    def test_noop_gold_and_noop_hypothesis(self):
        tp, fp, fn, _ = evaluate_sentence("ab", "ab", [Annotation(())])
        assert (tp, fp, fn) == (0, 0, 0)

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            evaluate_sentence("ab", "ab", [])

    def test_invalid_gold_rejected(self):
        bad = [Annotation((Edit(5, 9, "x"),))]
        with pytest.raises(ValueError, match="out of bounds"):
            evaluate_sentence("ab", "ab", bad)

    @given(scored_sentences())
    @settings(max_examples=300)
    def test_matches_the_per_edit_oracle(self, sentence):
        assert evaluate_sentence(*sentence) == evaluate_sentence_per_edit(*sentence)

    def test_kind_is_ignored_for_matching(self):
        # Gold written as a replacement span, hypothesis produces the same
        # (start, end, replacement) triple; kinds agree by construction
        # since both derive from span shape.
        gold = [Annotation((Edit(0, 1, "x"),))]
        tp, fp, fn, _ = evaluate_sentence("ab", "xb", gold)
        assert (tp, fp, fn) == (1, 0, 0)


class TestEvaluateCorpus:
    def test_all_perfect(self):
        entries = [
            (SOURCE, REF1, gold_annotations()),
            ("ab", "ab", [Annotation(())]),
        ]
        report = evaluate_corpus(entries)
        assert report.precision == report.recall == report.f_half == 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate_corpus([])

    def test_error_carries_entry_index(self):
        entries = [
            ("ab", "ab", [Annotation(())]),
            ("ab", "ab", []),
        ]
        with pytest.raises(ValueError, match="entry 1"):
            evaluate_corpus(entries)

    def test_redundant_annotator_changes_nothing(self):
        gold = gold_annotations()
        duplicated = gold + [
            Annotation(gold[0].edits, annotator_id=2)
        ]
        entries_base = [(SOURCE, REF2, gold)]
        entries_dup = [(SOURCE, REF2, duplicated)]
        assert evaluate_corpus(entries_base) == evaluate_corpus(entries_dup)

    def test_score_bounds(self):
        entries = [
            ("abcdef", "xbcdef", [extract_edits("abcdef", "abcdeg")]),
            ("ab", "ab", [Annotation(())]),
        ]
        report = evaluate_corpus(entries)
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.recall <= 1.0
        assert 0.0 <= report.f_half <= 1.0
