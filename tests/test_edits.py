import io
import itertools
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gecclean import edits
from gecclean.corpus import ParallelFormatError
from gecclean.edits import (
    Annotation,
    Edit,
    M2FormatError,
    align,
    apply_edits,
    extract_edits,
    parse_m2,
    read_m2_file,
    to_m2,
    write_m2_file,
)
from gecclean.textmetrics import levenshtein_distance
from oracles import (
    align_full_matrix,
    canonical_min_path,
    decode_s_line_by_tokens,
    merge_path,
)

TABLE_SOURCE = "我能胜任这此职务"
TABLE_REF1 = "我能胜任这职务。"
TABLE_REF2 = "我能胜任此职务。"
TABLE_BLOCK = (
    "S 我 能 胜 任 这 此 职 务\n"
    "A 5 6|||U|||-NONE-|||REQUIRED|||-NONE-|||0\n"
    "A 8 8|||M|||。|||REQUIRED|||-NONE-|||0\n"
)

mixed_text = st.text(alphabet="ab我能。x", max_size=10)

# Mixed ASCII/CJK with punctuation and space, for pairs up to ~300 characters.
WIDE_ALPHABET = "abcxyz我能胜任这此职务不是很好。，! "


@st.composite
def runs(draw):
    """Long runs of few characters: many equal-cost paths to break ties in."""
    parts = draw(
        st.lists(st.tuples(st.sampled_from("ab我"), st.integers(1, 40)), max_size=8)
    )
    return "".join(char * count for char, count in parts)


@st.composite
def near_pairs(draw):
    """A source of up to 300 characters and a target a few edits away."""
    source = draw(st.text(alphabet=WIDE_ALPHABET, max_size=300))
    chars = list(source)
    operations = st.tuples(
        st.integers(0, 2), st.integers(0, 300), st.sampled_from(WIDE_ALPHABET)
    )
    for kind, position, char in draw(st.lists(operations, max_size=12)):
        position %= len(chars) + 1
        if kind == 0:
            chars.insert(position, char)
        elif position < len(chars):
            if kind == 1:
                chars[position] = char
            else:
                del chars[position]
    return source, "".join(chars)


@st.composite
def periodic_pairs(draw):
    """A periodic text and the same text with one period inserted or deleted."""
    period = draw(st.sampled_from(["ab", "aab", "我能", "ab我"]))
    k = draw(st.integers(1, 30))
    tail = draw(st.text(alphabet="abx我", max_size=4))
    other = period * (k + draw(st.sampled_from([-1, 1]))) + tail
    return period * k + tail, other


@st.composite
def run_pairs(draw):
    """A run of one character against a longer or shorter run, each with a tail."""
    k = draw(st.integers(0, 40))
    j = draw(st.integers(-k, 40))
    tails = st.text(alphabet="ab我", max_size=5)
    return "a" * k + draw(tails), "a" * (k + j) + draw(tails)


@st.composite
def cjk_tail_edits(draw):
    """A CJK sentence and a copy edited only in its last three characters."""
    source = draw(st.text(alphabet="我能胜任这此职务不是很好。", min_size=3, max_size=40))
    head, last = source[:-3], list(source[-3:])
    operations = st.tuples(
        st.integers(0, 2), st.integers(0, 3), st.sampled_from("这此职务。")
    )
    for kind, position, char in draw(st.lists(operations, min_size=1, max_size=3)):
        position = min(position, len(last))
        if kind == 0:
            last.insert(position, char)
        elif position < len(last):
            if kind == 1:
                last[position] = char
            else:
                del last[position]
    return source, head + "".join(last)


@st.composite
def prefix_of_other(draw):
    """One string and a prefix of it, in either order."""
    text = draw(st.text(alphabet="ab我", max_size=40))
    cut = draw(st.integers(0, len(text)))
    pair = (text, text[:cut])
    return pair if draw(st.booleans()) else pair[::-1]


# Pairs over 512 characters warn; tests that align them for other reasons
# ignore the warning, which filterwarnings = ["error"] would raise.
long_pairs = pytest.mark.filterwarnings(
    "ignore:aligning an unusually long pair:UserWarning"
)

shared_prefix_pairs = st.one_of(
    periodic_pairs(), run_pairs(), cjk_tail_edits(), prefix_of_other()
)


class TestEditType:
    def test_kind_classification(self):
        assert Edit(3, 3, "x").kind == "M"
        assert Edit(3, 5, "").kind == "U"
        assert Edit(3, 5, "xy").kind == "R"

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            Edit(3, 2, "x")
        with pytest.raises(ValueError):
            Edit(-1, 2, "x")

    def test_control_characters_rejected(self):
        with pytest.raises(ValueError):
            Edit(0, 1, "a\tb")

    def test_overlapping_edits_rejected(self):
        with pytest.raises(ValueError):
            Annotation((Edit(0, 2, "x"), Edit(1, 3, "y")))

    def test_insertions_sharing_a_position_rejected(self):
        with pytest.raises(ValueError):
            Annotation((Edit(1, 1, "x"), Edit(1, 1, "y")))

    def test_touching_edits_allowed(self):
        Annotation((Edit(0, 1, "x"), Edit(1, 1, "y")))

    def test_records_are_their_tuples(self):
        edit = Edit(0, 1, "x")
        assert edit == (0, 1, "x")
        assert hash(edit) == hash((0, 1, "x"))
        start, end, replacement = edit
        assert (start, end, replacement) == (0, 1, "x")
        annotation = Annotation([edit], 3)
        assert type(annotation.edits) is tuple
        assert annotation == ((edit,), 3)
        assert Annotation([]).annotator_id == 0

    def test_replace_and_make_validate(self):
        with pytest.raises(ValueError, match=r"invalid edit span \[-1, 1\)"):
            Edit(0, 1, "x")._replace(start=-1)
        with pytest.raises(ValueError, match="out of order or overlapping"):
            Annotation._make([(Edit(1, 2, "x"), Edit(0, 1, "y")), 0])
        with pytest.raises(ValueError, match="non-negative"):
            Annotation(())._replace(annotator_id=-1)


class TestAlign:
    @pytest.mark.parametrize(
        "s,t,expected",
        [
            ("ab", "ab", ["match", "match"]),
            ("abcd", "abd", ["match", "match", "delete", "match"]),
            ("abc", "abxc", ["match", "match", "insert", "match"]),
        ],
    )
    def test_known_paths(self, s, t, expected):
        assert align(s, t) == expected

    def test_matches_enumeration_oracle_exhaustively(self):
        strings = [
            "".join(p)
            for k in range(4)
            for p in itertools.product("ab", repeat=k)
        ]
        for s, t in itertools.product(strings, repeat=2):
            assert tuple(align(s, t)) == canonical_min_path(s, t)

    @given(mixed_text, mixed_text)
    def test_cost_equals_distance(self, s, t):
        path = align(s, t)
        assert sum(1 for step in path if step != "match") == levenshtein_distance(s, t)

    def test_long_pairs_are_processed_but_flagged(self):
        long_source = "a" * 600
        with pytest.warns(UserWarning, match="unusually long"):
            path = align(long_source, long_source + "b")
        assert len(path) == 601


def assert_matches_full_matrix(s, t):
    """align() equals the full matrix, and extract_edits() the runs of its
    path merged, which align() alone cannot show split; also from the
    narrowest first band, which sends most cores through a second pass over
    sliding windows."""
    expected = align_full_matrix(s, t)
    merged = merge_path(expected, t)
    assert align(s, t) == expected
    assert extract_edits(s, t).edits == merged
    with mock.patch.object(edits, "_FIRST_BAND", 0):
        assert align(s, t) == expected
        assert extract_edits(s, t).edits == merged


class TestBandedAlignMatchesFullMatrix:
    """align() computes only a band of the core, as bit-vector deltas; its
    path must not change."""

    @pytest.mark.parametrize(
        "s,t",
        [
            ("", ""),
            ("", "我能"),
            ("我能", ""),
            ("ab", "aab"),
            ("aab", "ab"),
            ("a" * 50, "a" * 47),
            ("abab", "ababab"),
            ("aab", "aaab"),
            ("ab" * 30 + "x", "ab" * 31 + "y"),
        ],
    )
    def test_edge_cases(self, s, t):
        assert_matches_full_matrix(s, t)

    def test_common_prefix_keeps_its_edit_first(self):
        # Trimming the shared "a" would move the insertion after it.
        assert extract_edits("ab", "aab").edits == (Edit(0, 0, "a"),)

    @given(shared_prefix_pairs)
    @settings(max_examples=400, deadline=None)
    def test_edits_at_the_prefix_boundary(self, pair):
        # The edit sits at, or can slide into, the end of the common prefix,
        # where the backtrace leaves the core.
        assert_matches_full_matrix(*pair)

    @given(st.text(alphabet="ab", max_size=40), st.text(alphabet="ab", max_size=40))
    @settings(max_examples=300)
    def test_binary_alphabet_ties(self, s, t):
        assert_matches_full_matrix(s, t)

    @given(runs(), runs())
    @settings(max_examples=100, deadline=None)
    def test_repeated_character_runs(self, s, t):
        assert_matches_full_matrix(s, t)

    @given(near_pairs())
    @settings(max_examples=200, deadline=None)
    def test_near_pairs(self, pair):
        assert_matches_full_matrix(*pair)

    @given(
        st.text(alphabet=WIDE_ALPHABET, max_size=300),
        st.text(alphabet=WIDE_ALPHABET, max_size=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_dissimilar_pairs(self, s, t):
        assert_matches_full_matrix(s, t)

    @long_pairs
    def test_long_near_pair_needs_little_memory(self):
        # The full matrix of this pair has 16 million cells: hundreds of MB.
        rng = random.Random(4000)
        source = "".join(rng.choices(WIDE_ALPHABET, k=4000))
        target = source[:700] + "X" + source[700:1900] + source[1901:3100] + "Y" + source[3101:]
        tracemalloc.start()
        try:
            path = align(source, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        assert sum(step != "match" for step in path) == 3
        assert extract_edits(source, target).edits == (
            Edit(700, 700, "X"),
            Edit(1900, 1901, ""),
            Edit(3100, 3101, "Y"),
        )

    @long_pairs
    def test_long_dissimilar_pair_needs_little_memory(self):
        # A full matrix of boxed ints for this pair takes ~345 MB; the delta
        # bits of its band take about 3000 * (2p + 1) / 2 bytes.
        rng = random.Random(3000)
        source = "".join(rng.choices(WIDE_ALPHABET, k=3000))
        target = "".join(rng.choices(WIDE_ALPHABET, k=3000))
        path, peak = traced_align(source, target)
        assert peak < 16_000_000
        assert sum(step != "match" for step in path) == levenshtein_distance(source, target)
        # A first band as wide as the core computes it in one pass of
        # whole columns, with no window sliding; the path is the same.
        with mock.patch.object(edits, "_FIRST_BAND", 3000):
            assert align(source, target) == path

    @long_pairs
    def test_long_near_core_keeps_only_its_band(self, monkeypatch):
        # Edits at both ends leave a 6000 x 6000 core, whose whole columns
        # would take ~20 MB; its distance fits its first band, so one pass
        # over windows of 2p + 1 bits computes it.
        rng = random.Random(6000)
        source = "".join(rng.choices(WIDE_ALPHABET, k=6000))
        target = "X" + source[1:-1] + "Y"
        calls = record_passes(monkeypatch)
        path, peak = traced_align(source, target)
        p = edits._FIRST_BAND
        assert calls == [(6000, 6000, (-p, p))]
        assert peak < 4_000_000
        assert extract_edits(source, target).edits == (
            Edit(0, 1, "X"),
            Edit(5999, 6000, "Y"),
        )
        assert path == ["substitute"] + ["match"] * 5998 + ["substitute"]

    def test_long_near_pair_walks_only_its_core(self):
        # A per-character step list of this pair would take ~1.6 MB; the
        # backtrace walks the 1 x 1 core and stops inside the prefix.
        rng = random.Random(200_000)
        source = "".join(rng.choices(WIDE_ALPHABET, k=200_000))
        target = source[:100_000] + "X" + source[100_001:]
        with pytest.warns(UserWarning, match="unusually long"):
            tracemalloc.start()
            try:
                annotation = extract_edits(source, target)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert annotation.edits == (Edit(100_000, 100_001, "X"),)
        assert peak < 64_000


def traced_align(s, t):
    """align(s, t) and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        path = align(s, t)
        return path, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _band_pairs():
    rng = random.Random(200)
    source = "".join(rng.choices(WIDE_ALPHABET, k=200))
    unrelated = "".join(rng.choices(WIDE_ALPHABET, k=200))
    long_source = "".join(rng.choices(WIDE_ALPHABET, k=2000))
    long_near = long_source[:500] + "X" + long_source[501:1500] + long_source[1502:]
    return {
        "table": (TABLE_SOURCE, TABLE_REF1),
        "near": (source, source[:80] + "我" + source[81:]),
        "long-near": (long_source, long_near),
        "unrelated": (source, unrelated),
        "unrelated-shorter": (unrelated, source[:120]),
    }


BAND_PAIRS = _band_pairs()


def record_passes(monkeypatch):
    """Record (len(s), len(t), band) of each bit-vector pass."""
    calls = []
    run = edits.bit_vector_columns

    def recording(s, t, band, columns):
        calls.append((len(s), len(t), band))
        return run(s, t, band, columns)

    monkeypatch.setattr(edits, "bit_vector_columns", recording)
    return calls


class TestBandFilledOnce:
    """align() keeps the columns of one pass per core: over its first band,
    or, when the core's distance does not fit that band, over the band the
    first pass certifies."""

    @long_pairs
    @pytest.mark.parametrize("name", BAND_PAIRS)
    def test_one_fill_per_pair(self, name, monkeypatch):
        s, t = BAND_PAIRS[name]
        calls = record_passes(monkeypatch)
        path = align(s, t)
        assert path == align_full_matrix(s, t)
        d = sum(step != "match" for step in path)
        gap = len(t) - len(s)
        p = edits._FIRST_BAND
        assert calls[0][2] == (min(0, gap) - p, max(0, gap) + p)
        assert len(calls) == (1 if d <= abs(gap) + 2 * p + 1 else 2)


class TestOnlyCoreFilled:
    """align() computes no row or column of the common prefix or suffix."""

    @long_pairs
    def test_band_receives_the_core_only(self, monkeypatch):
        rng = random.Random(1900)
        source = "".join(rng.choices(WIDE_ALPHABET, k=2000))
        target = source[:1900] + "X" + source[1901:]
        calls = record_passes(monkeypatch)
        path = align(source, target)
        assert [(m, n) for m, n, _ in calls] == [(1, 1)]
        assert [k for k, step in enumerate(path) if step != "match"] == [1900]
        assert path[1900] == "substitute"


class TestExtractEdits:
    def test_identity_has_no_edits(self):
        assert extract_edits("abc", "abc").edits == ()

    def test_single_substitution(self):
        assert extract_edits("abcd", "abcf").edits == (Edit(3, 4, "f"),)

    def test_adjacent_substitutions_merge(self):
        assert extract_edits("abcd", "axyd").edits == (Edit(1, 3, "xy"),)

    def test_corpus_example(self):
        edits = extract_edits(TABLE_SOURCE, TABLE_REF1).edits
        assert edits == (Edit(5, 6, ""), Edit(8, 8, "。"))
        assert [e.kind for e in edits] == ["U", "M"]

    def test_deterministic(self):
        first = extract_edits("abcab", "bacba")
        second = extract_edits("abcab", "bacba")
        assert first == second

    @given(mixed_text, mixed_text)
    @settings(max_examples=300)
    def test_reconstruction(self, s, t):
        assert apply_edits(s, extract_edits(s, t)) == t


class TestApplyEdits:
    def test_empty_annotation_is_identity(self):
        assert apply_edits("abc", Annotation(())) == "abc"

    def test_single_replacement(self):
        assert apply_edits("abcd", Annotation((Edit(3, 4, "f"),))) == "abcf"

    def test_corpus_reference_reconstruction(self):
        annotation = Annotation((Edit(5, 6, ""), Edit(8, 8, "。")))
        assert apply_edits(TABLE_SOURCE, annotation) == TABLE_REF1

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="out of bounds"):
            apply_edits("ab", Annotation((Edit(1, 3, "x"),)))


class TestM2Format:
    def test_noop_block(self):
        block = to_m2("ab", [Annotation((), 0)])
        assert block == "S a b\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n"

    def test_corpus_example_block(self):
        annotation = extract_edits(TABLE_SOURCE, TABLE_REF1)
        assert to_m2(TABLE_SOURCE, [annotation]) == TABLE_BLOCK

    def test_parse_noop_block(self):
        source, annotations = parse_m2(
            "S a b\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n"
        )
        assert source == "ab"
        assert annotations == [Annotation((), 0)]

    def test_parse_corpus_example(self):
        source, annotations = parse_m2(TABLE_BLOCK)
        assert source == TABLE_SOURCE
        assert annotations == [Annotation((Edit(5, 6, ""), Edit(8, 8, "。")), 0)]

    def test_span_out_of_bounds(self):
        block = "S 我 能 胜 任 这 此 职 务\nA 9 9|||M|||x|||REQUIRED|||-NONE-|||0\n"
        with pytest.raises(M2FormatError, match="out of bounds"):
            parse_m2(block)

    def test_unknown_kind(self):
        with pytest.raises(M2FormatError, match="unknown edit kind"):
            parse_m2("S a b\nA 0 1|||X|||z|||REQUIRED|||-NONE-|||0\n")

    def test_kind_must_match_span_shape(self):
        with pytest.raises(M2FormatError, match="inconsistent"):
            parse_m2("S a b\nA 0 1|||M|||z|||REQUIRED|||-NONE-|||0\n")

    def test_error_carries_line_number(self):
        with pytest.raises(M2FormatError, match="line 2"):
            parse_m2("S a b\nA 0 1|||bogus\n")

    def test_overlapping_edit_names_its_own_line(self):
        block = (
            "S a b c d\n"
            "A 0 1|||R|||x|||REQUIRED|||-NONE-|||0\n"
            "A 2 3|||R|||y|||REQUIRED|||-NONE-|||0\n"
            "A 1 3|||R|||z|||REQUIRED|||-NONE-|||0\n"
        )
        with pytest.raises(M2FormatError, match="line 4: edits out of order") as excinfo:
            parse_m2(block)
        assert excinfo.value.line_number == 4

    def test_second_insertion_at_a_position_names_its_own_line(self):
        # The other annotator's line in between does not count: the rule
        # holds within one annotator's edits.
        block = (
            "S a b\n"
            "A 1 1|||M|||x|||REQUIRED|||-NONE-|||0\n"
            "A 1 1|||M|||y|||REQUIRED|||-NONE-|||1\n"
            "A 1 1|||M|||z|||REQUIRED|||-NONE-|||0\n"
        )
        with pytest.raises(M2FormatError, match="line 4: two insertions") as excinfo:
            list(read_m2_file(block.splitlines(True)))
        assert excinfo.value.line_number == 4

    def test_annotators_grouped_by_first_appearance(self):
        block = to_m2(
            TABLE_SOURCE,
            [
                extract_edits(TABLE_SOURCE, TABLE_REF1, annotator_id=0),
                extract_edits(TABLE_SOURCE, TABLE_REF2, annotator_id=1),
            ],
        )
        _, annotations = parse_m2(block)
        assert [a.annotator_id for a in annotations] == [0, 1]
        assert len(annotations[1].edits) == 2

    def test_block_without_a_line_rejected(self):
        with pytest.raises(M2FormatError, match="line 7: block has no 'A' line"):
            parse_m2("S a b\n", first_line_number=7)

    def test_block_without_annotation_rejected_on_write(self):
        with pytest.raises(ValueError, match="needs an annotation"):
            to_m2("ab", [])

    @pytest.mark.parametrize("text", ["+0", "0_0", "١", "01"])
    @pytest.mark.parametrize(
        "line,message",
        [
            ("A {} 1|||R|||x|||REQUIRED|||-NONE-|||0", "bad edit span"),
            ("A 0 {}|||R|||x|||REQUIRED|||-NONE-|||0", "bad edit span"),
            ("A 0 1|||R|||x|||REQUIRED|||-NONE-|||{}", "bad annotator id"),
        ],
        ids=["start", "end", "annotator"],
    )
    def test_numbers_to_m2_never_writes_rejected(self, text, line, message):
        # int() alone reads "+0" and "0_0" as 0, "01" and "١" as 1.
        block = "S a b\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||1\n"
        block += line.format(text) + "\n"
        with pytest.raises(M2FormatError, match=f"line 3: {message}"):
            parse_m2(block)

    def test_duplicate_annotator_rejected_on_write(self):
        with pytest.raises(ValueError, match="duplicate annotator"):
            to_m2("ab", [Annotation((), 0), Annotation((), 0)])

    def test_space_token_round_trip(self):
        source = "a b"
        block = to_m2(source, [extract_edits(source, "ab")])
        assert parse_m2(block)[0] == source

    def test_empty_source_round_trip(self):
        block = to_m2("", [Annotation((Edit(0, 0, "x"),), 0)])
        source, annotations = parse_m2(block)
        assert source == ""
        assert annotations[0].edits == (Edit(0, 0, "x"),)

    def test_s_line_decoder_matches_token_loop(self):
        noop = "\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n"
        for length in range(10):
            for chars in itertools.product(" a\r", repeat=length):
                remainder = "".join(chars)
                try:
                    expected = decode_s_line_by_tokens(remainder, 1)
                except M2FormatError:
                    with pytest.raises(M2FormatError, match="line 1: S line"):
                        parse_m2("S " + remainder + noop)
                else:
                    assert parse_m2("S " + remainder + noop)[0] == expected

    def test_marker_collision_rejected_on_write(self):
        with pytest.raises(ValueError, match="collides"):
            to_m2("abcdef", [Annotation((Edit(0, 6, "-NONE-"),), 0)])

    @given(mixed_text, st.lists(st.text(alphabet="ab我 x。", max_size=8), min_size=1, max_size=4))
    @settings(max_examples=200)
    def test_round_trip(self, source, targets):
        annotations = [
            extract_edits(source, target, annotator_id=i)
            for i, target in enumerate(targets)
        ]
        parsed_source, parsed = parse_m2(to_m2(source, annotations))
        assert parsed_source == source
        assert parsed == annotations


class TestM2File:
    def test_blocks_separated_by_one_blank_line(self, tmp_path):
        blocks = [
            to_m2("ab", [extract_edits("ab", "axb")]),
            to_m2("cd", [Annotation(())]),
        ]
        path = tmp_path / "gold.m2"
        with open(path, "w", encoding="utf-8", newline="\n") as out:
            assert write_m2_file(blocks, out) == 2
        text = path.read_text(encoding="utf-8")
        assert "\n\nS c d\n" in text
        with open(path, encoding="utf-8", newline="") as stream:
            entries = list(read_m2_file(stream))
        assert [e[0] for e in entries] == ["ab", "cd"]

    def test_trailing_blank_lines_tolerated(self):
        text = "S a b\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n\n\n"
        entries = list(read_m2_file(text.splitlines(True)))
        assert len(entries) == 1

    def test_double_blank_between_blocks_rejected(self):
        text = (
            "S a b\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n\n\n"
            "S c d\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n"
        )
        with pytest.raises(M2FormatError, match="blank"):
            list(read_m2_file(text.splitlines(True)))

    def test_file_error_carries_absolute_line_number(self):
        text = (
            "S a b\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n\n"
            "S c d\nA 9 9|||M|||x|||REQUIRED|||-NONE-|||0\n"
        )
        with pytest.raises(M2FormatError, match="line 5"):
            list(read_m2_file(text.splitlines(True)))

    def test_crlf_bytes_read_like_lf_text(self):
        text = TABLE_BLOCK + "\n" + to_m2("a b", [extract_edits("a b", "ab")])
        crlf = io.BytesIO(text.replace("\n", "\r\n").encode("utf-8"))
        assert list(read_m2_file(crlf)) == list(read_m2_file(text.splitlines(True)))

    def test_invalid_utf8_in_bytes_carries_line_number(self):
        data = (
            b"S a b\nA 0 1|||R|||x|||REQUIRED|||-NONE-|||0\n"
            b"A 2 3|||R|||\xff|||REQUIRED|||-NONE-|||0\n"
        )
        with pytest.raises(ParallelFormatError) as excinfo:
            list(read_m2_file(io.BytesIO(data)))
        assert excinfo.value.line_number == 3
