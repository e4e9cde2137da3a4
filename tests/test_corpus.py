import io
import unicodedata

import pytest
from hypothesis import given, strategies as st

from gecclean.corpus import (
    ParallelFormatError,
    Sample,
    SourceGroup,
    filter_groups,
    group_by_source,
    normalize,
    parse_parallel,
    read_lines,
    write_parallel,
)


class TestNormalize:
    def test_trims_outer_whitespace(self):
        assert normalize(" ab ") == "ab"

    def test_characters_are_the_tokens(self):
        assert list(normalize("我能")) == ["我", "能"]

    def test_composes_to_nfc(self):
        assert normalize("é") == "é"

    def test_drops_interior_control_characters(self):
        assert normalize("a\rb\nc\td") == "abcd"

    def test_keeps_interior_spaces(self):
        assert normalize("a b") == "a b"

    def test_idempotent(self):
        text = normalize(" café́ x ")
        assert normalize(text) == text

    @given(
        st.text(
            alphabet=st.sampled_from(
                ["a", "e", "我", "。", " ", "\u3000", "\t", "\r", "\n",
                 "\u0301", "\u0308", "\U0001F600"]
            ),
            max_size=30,
        )
    )
    def test_matches_strip_translate_nfc(self, text):
        # normalize() skips the translate when no tab, CR or LF is left.
        control = dict.fromkeys(map(ord, "\t\r\n"))
        expected = unicodedata.normalize("NFC", text.strip().translate(control))
        assert normalize(text) == expected


class TestParseParallel:
    def test_single_pair_line(self):
        assert list(parse_parallel(["a\tb\n"])) == [Sample("a", "b")]

    def test_multi_target_fan_out(self):
        samples = list(parse_parallel(["a\tb\tc\n"], multi_target=True))
        assert samples == [Sample("a", "b"), Sample("a", "c")]

    def test_missing_target_is_an_error_with_line_number(self):
        with pytest.raises(ParallelFormatError) as excinfo:
            list(parse_parallel(["a\n"]))
        assert excinfo.value.line_number == 1

    def test_empty_input_is_empty_output(self):
        assert list(parse_parallel([])) == []

    def test_blank_lines_are_skipped(self):
        samples = list(parse_parallel(["a\tb\n", "\n", "c\td\n"]))
        assert [s.source for s in samples] == ["a", "c"]

    def test_empty_field_rejected(self):
        with pytest.raises(ParallelFormatError, match="line 2"):
            list(parse_parallel(["a\tb\n", "c\t \n"]))

    def test_extra_fields_rejected_in_pair_layout(self):
        with pytest.raises(ParallelFormatError, match="multi-target"):
            list(parse_parallel(["a\tb\tc\n"]))

    def test_invalid_utf8_carries_line_number(self):
        with pytest.raises(ParallelFormatError) as excinfo:
            list(parse_parallel([b"a\tb\n", b"\xff\xfe\tb\n"]))
        assert excinfo.value.line_number == 2

    def test_crlf_endings(self):
        assert list(parse_parallel([b"a\tb\r\n"])) == [Sample("a", "b")]

    @pytest.mark.parametrize("encode", [str, lambda line: line.encode("utf-8")])
    def test_byte_order_mark_dropped_from_line_one_only(self, encode):
        # As the utf-8-sig codec reads it: a U+FEFF that starts the input.
        lines = [encode("\ufeffab\n"), encode("\ufeffcd\n")]
        assert list(read_lines(lines)) == [(1, "ab"), (2, "\ufeffcd")]

    def test_fields_are_normalized(self):
        assert list(parse_parallel([" a \tb́x\n"])) == [
            Sample("a", normalize("b́x"))
        ]

    def test_round_trip_through_serialization(self):
        samples = [Sample("a b", "ab"), Sample("我能", "我不能")]
        buffer = io.StringIO()
        assert write_parallel(samples, buffer) == 2
        assert list(parse_parallel(buffer.getvalue().splitlines(True))) == samples


class TestGrouping:
    def test_duplicate_pairs_collapse(self):
        samples = [Sample("s", "t1"), Sample("s", "t2"), Sample("s", "t1")]
        assert group_by_source(samples) == [SourceGroup("s", ("t1", "t2"))]

    def test_distinct_sources_stay_separate(self):
        samples = [Sample("s1", "t"), Sample("s2", "t")]
        assert group_by_source(samples) == [
            SourceGroup("s1", ("t",)),
            SourceGroup("s2", ("t",)),
        ]

    def test_two_sources_three_targets_each(self):
        # 6-line corpus: 2 sources x 3 targets, interleaved.
        samples = [
            Sample("s1", "a"),
            Sample("s2", "x"),
            Sample("s1", "b"),
            Sample("s2", "y"),
            Sample("s1", "c"),
            Sample("s2", "z"),
        ]
        groups = group_by_source(samples)
        assert groups == [
            SourceGroup("s1", ("a", "b", "c")),
            SourceGroup("s2", ("x", "y", "z")),
        ]

    def test_idempotent(self):
        samples = [
            Sample("s", "t1"),
            Sample("u", "t1"),
            Sample("s", "t2"),
            Sample("s", "t1"),
        ]
        groups = group_by_source(samples)
        flattened = [Sample(g.source, t) for g in groups for t in g.targets]
        assert group_by_source(flattened) == groups

    @given(
        st.lists(
            st.tuples(st.text("ab", max_size=2), st.text("ab", max_size=2)).map(
                lambda p: Sample(*p)
            ),
            max_size=30,
        )
    )
    def test_target_totals_match_distinct_pairs(self, samples):
        groups = group_by_source(samples)
        assert sum(len(g.targets) for g in groups) == len(set(samples))


class TestFilterGroups:
    def test_fully_correct_group_removed(self):
        groups = [SourceGroup("s", ("s",))]
        assert filter_groups(groups, drop_correct=True, drop_identity_targets=True) == []

    def test_identity_target_dropped(self):
        groups = [SourceGroup("s", ("s", "t"))]
        assert filter_groups(groups, drop_correct=True, drop_identity_targets=True) == [
            SourceGroup("s", ("t",))
        ]

    def test_drop_correct_alone_drops_identity_targets(self):
        groups = [SourceGroup("ab", ("ab",)), SourceGroup("cd", ("cd", "ce"))]
        assert filter_groups(groups, drop_correct=True) == [SourceGroup("cd", ("ce",))]

    def test_group_that_keeps_every_target_is_returned_as_is(self):
        groups = [SourceGroup("cd", ("ce", "cf"))]
        assert filter_groups(groups, drop_correct=True)[0] is groups[0]

    def test_drop_identity_targets_alone(self):
        groups = [SourceGroup("ab", ("ab",)), SourceGroup("cd", ("cd", "ce"))]
        assert filter_groups(groups, drop_identity_targets=True) == [SourceGroup("cd", ("ce",))]

    def test_no_flags_is_identity(self):
        groups = [SourceGroup("s", ("s", "t"))]
        assert filter_groups(groups) == groups

    def test_hand_counted_corpus(self):
        # 10 groups, 3 of them fully correct.
        groups = [SourceGroup(f"s{i}", (f"s{i}" if i < 3 else f"t{i}",)) for i in range(10)]
        kept = filter_groups(groups, drop_correct=True, drop_identity_targets=True)
        assert len(kept) == 7
        assert [g.source for g in kept] == [f"s{i}" for i in range(3, 10)]
