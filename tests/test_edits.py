import io
import itertools
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gecclean import edits
from gecclean.corpus import ParallelFormatError
from gecclean.edits import (
    Annotation,
    Edit,
    align,
    apply_edits,
    extract_edits,
    parse_m2,
    read_m2_file,
    to_m2,
    write_m2_file,
)
from gecclean.m2 import M2FormatError
from gecclean.scorer import evaluate_sentence
from gecclean.textmetrics import levenshtein_distance
from oracles import (
    align_full_matrix,
    canonical_min_path,
    decode_s_line_by_tokens,
    merge_path,
    parse_m2_by_join,
    read_m2_file_by_join,
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

# Text built from the pieces of M2's in-band markers.
marker_text = st.lists(
    st.sampled_from(["a", "b", " ", "|", "||", "-", "NONE", "-NONE-"]), max_size=6
).map("".join)

# Mixed ASCII/CJK with punctuation and space, for pairs up to ~300 characters.
WIDE_ALPHABET = "abcxyz我能胜任这此职务不是很好。，! "
# The alphabet of tests/test_acceptance.py's criterion 9 corpus.
CRITERION_9_ALPHABET = "我能胜任这此职务不是很好的了在有人中就时要一会对生到和说出得着过天上们来去里后自己"


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


# ASCII, space, CJK and astral characters for M2 sources and targets.
M2_ALPHABET = "ab x我能。𠀀😀"

# Values a mutated A-line field may take: valid ones in the wrong place
# and near misses.
M2_FIELDS = [
    "", "A 0 1", "A -1 -1", "0 1", "-1 -1", "9 9", "noop", "M", "U", "R", "X",
    "x", "-NONE-", "REQUIRED", "0", "1", "01", "-1", "x|||y",
    "1 0", "+0 1", "0_0 1", "0 1 2", "١ ٢", "-0", "a\tb", "a\rb", "x|",
]


@st.composite
def m2_files(draw):
    """The lines of an M2 file of random multi-annotator blocks, mutated.

    Each annotator is a noop or the edits of a random target.  Mutations
    drop, duplicate or swap lines, insert blank, noop or edit lines, replace
    one '|||' field (an A line's span keeps its "A "), or append a trailing
    blank line.
    """
    lines: list[str] = []
    for _ in range(draw(st.integers(1, 3))):
        source = draw(st.text(alphabet=M2_ALPHABET, max_size=6))
        ids = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
        annotations = []
        for annotator_id in ids:
            target = draw(st.none() | st.text(alphabet=M2_ALPHABET, max_size=6))
            target = source if target is None else target
            annotations.append(extract_edits(source, target, annotator_id))
        if lines:
            lines.append("")
        lines += to_m2(source, annotations).splitlines()

    mutations = st.tuples(
        st.sampled_from(
            ["drop", "duplicate", "swap", "blank", "field", "noop", "edit", "trailing"]
        ),
        st.integers(0, 40),
        st.integers(0, 40),
        st.sampled_from(M2_FIELDS),
    )
    for kind, i, j, field in draw(st.lists(mutations, min_size=1, max_size=3)):
        where = i % (len(lines) + 1)
        if kind == "blank":
            lines.insert(where, "")
        elif kind == "noop":
            lines.insert(where, f"A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||{j % 4}")
        elif kind == "edit":
            lines.insert(where, f"A 0 0|||M|||x|||REQUIRED|||-NONE-|||{j % 4}")
        elif kind == "trailing":
            lines.append("")
        elif lines:
            i %= len(lines)
            if kind == "drop":
                del lines[i]
            elif kind == "duplicate":
                lines.insert(i, lines[i])
            elif kind == "swap":
                j %= len(lines)
                lines[i], lines[j] = lines[j], lines[i]
            else:
                # An A line's first field is its span, after the "A ".
                head = "A " if lines[i].startswith("A ") else ""
                fields = lines[i][len(head) :].split("|||")
                fields[j % len(fields)] = field
                lines[i] = head + "|||".join(fields)
    return lines


def m2_outcome(entries) -> tuple[list, tuple | None]:
    """The entries an M2 iterator yields, and the error that stops it."""
    got = []
    try:
        for entry in entries:
            got.append(entry)
    except ValueError as exc:
        return got, (type(exc), str(exc), getattr(exc, "line_number", None))
    return got, None


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
        # A full matrix of boxed ints for this pair takes ~345 MB; the two
        # bit vectors of each column of its band take about
        # 3000 * (2p + 1) / 4 bytes.
        rng = random.Random(3000)
        source = "".join(rng.choices(WIDE_ALPHABET, k=3000))
        target = "".join(rng.choices(WIDE_ALPHABET, k=3000))
        path, peak = traced_align(source, target)
        assert peak < 3_500_000
        assert sum(step != "match" for step in path) == levenshtein_distance(source, target)
        # A first band as wide as the core computes it in one pass of
        # whole columns, with no window sliding; the path is the same.
        with mock.patch.object(edits, "_FIRST_BAND", 3000):
            assert align(source, target) == path

    @long_pairs
    def test_long_near_core_keeps_only_its_band(self, monkeypatch):
        # Edits at both ends leave a 6000 x 6000 core, whose whole columns
        # would take ~10 MB; its distance fits its first band, so one pass
        # over windows of 2p + 1 bits computes it, keeping two small ints a
        # column.
        rng = random.Random(6000)
        source = "".join(rng.choices(WIDE_ALPHABET, k=6000))
        target = "X" + source[1:-1] + "Y"
        calls = record_passes(monkeypatch)
        path, peak = traced_align(source, target)
        p = edits._FIRST_BAND
        assert calls == [(6000, 6000, p)]
        assert peak < 600_000
        assert extract_edits(source, target).edits == (
            Edit(0, 1, "X"),
            Edit(5999, 6000, "Y"),
        )
        assert path == ["substitute"] + ["match"] * 5998 + ["substitute"]

    @long_pairs
    def test_long_near_pair_keeps_a_flat_list_of_columns(self):
        # Criterion 9's alphabet, the first and last characters replaced:
        # the 10,000-column core keeps two ints a column in one flat list
        # (~0.87 MB); a tuple per column peaked at ~1.23 MB.
        rng = random.Random(10_000)
        source = "".join(rng.choices(CRITERION_9_ALPHABET, k=10_000))
        target = "X" + source[1:-1] + "Y"
        tracemalloc.start()
        try:
            annotation = extract_edits(source, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_050_000
        assert annotation.edits == (Edit(0, 1, "X"), Edit(9999, 10_000, "Y"))

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
    """Record (len(s), len(t), p) of each bit-vector pass."""
    calls = []
    run = edits.bit_vector_columns

    def recording(s, t, p, columns):
        calls.append((len(s), len(t), p))
        return run(s, t, p, columns)

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
        assert calls[0][2] == p
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

    @given(mixed_text, st.integers(0, 2**70))
    def test_identity_is_an_empty_annotation(self, s, annotator_id):
        annotation = extract_edits(s, s, annotator_id)
        assert annotation == Annotation((), annotator_id)
        assert type(annotation) is Annotation and type(annotation.edits) is tuple

    @pytest.mark.parametrize("t", ["ab", "ax"])
    def test_negative_annotator_id_rejected(self, t):
        with pytest.raises(ValueError, match="annotator_id must be non-negative"):
            extract_edits("ab", t, -1)

    def test_long_identity_pair_is_flagged(self):
        with pytest.warns(UserWarning, match="unusually long"):
            assert extract_edits("a" * 513, "a" * 513) == Annotation(())

    def test_single_substitution(self):
        assert extract_edits("abcd", "abcf").edits == (Edit(3, 4, "f"),)

    def test_adjacent_substitutions_merge(self):
        assert extract_edits("abcd", "axyd").edits == (Edit(1, 3, "xy"),)

    def test_corpus_example(self):
        edits = extract_edits(TABLE_SOURCE, TABLE_REF1).edits
        assert edits == (Edit(5, 6, ""), Edit(8, 8, "。"))
        assert [e.kind for e in edits] == ["U", "M"]

    def test_edits_are_built_through_their_constructor(self):
        # Edit's replacement check is all that keeps a tab or newline out
        # of an extracted edit, and so out of an M2 line; a tab that both
        # sides share is matched, not emitted.
        for s, t in [("a", "a\tb"), ("ab", "a\nb")]:
            with pytest.raises(ValueError, match="may not contain tab or newline"):
                extract_edits(s, t)
        assert extract_edits("a\tb", "a\tc").edits == (Edit(2, 3, "c"),)

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


# Each consumer of an annotation checks its edits against the sentence.
BOUND_CONSUMERS = {
    "to_m2": lambda source, annotation: to_m2(source, [annotation]),
    "apply_edits": apply_edits,
    "evaluate_sentence": lambda source, annotation: evaluate_sentence(
        source, source, [annotation]
    ),
}


@pytest.mark.parametrize("consume", BOUND_CONSUMERS.values(), ids=BOUND_CONSUMERS)
class TestBoundOnTheLastEdit:
    @pytest.mark.parametrize(
        "last", [Edit(2, 4, "y"), Edit(4, 4, "y"), Edit(3, 5, "")],
        ids=["replacement", "insertion", "deletion"],
    )
    def test_last_edit_past_the_source_is_named(self, consume, last):
        # The first edit fits a 3-token source; only the last one ends past it.
        annotation = Annotation((Edit(0, 1, "x"), last), 2)
        with pytest.raises(ValueError) as excinfo:
            consume("abc", annotation)
        assert str(excinfo.value) == (
            f"edit {last} of annotator 2 is out of bounds for a 3-token source"
        )

    @pytest.mark.parametrize(
        "last", [Edit(2, 3, "y"), Edit(3, 3, "y"), Edit(1, 3, "")],
        ids=["replacement", "insertion", "deletion"],
    )
    def test_last_edit_ending_at_the_source_end_is_accepted(self, consume, last):
        consume("abc", Annotation((Edit(0, 1, "x"), last), 2))


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

    def test_crlf_block_parses_like_its_lf_form(self):
        block = "S a b\nA 0 1|||R|||c|||REQUIRED|||-NONE-|||0\n"
        expected = ("ab", [Annotation((Edit(0, 1, "c"),), 0)])
        assert parse_m2(block) == expected
        assert parse_m2(block.replace("\n", "\r\n")) == expected
        assert parse_m2("\ufeff" + block.replace("\n", "\r\n")) == expected

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

    NOOP_LINE = "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n"
    EDIT_LINE = "A 0 1|||R|||x|||REQUIRED|||-NONE-|||0\n"

    @pytest.mark.parametrize(
        "lines, message",
        [
            (NOOP_LINE + EDIT_LINE, "edit follows a noop for annotator 0"),
            (EDIT_LINE + NOOP_LINE, "noop conflicts with other lines for annotator 0"),
        ],
        ids=["edit-after-noop", "noop-after-edit"],
    )
    def test_noop_and_edit_of_one_annotator_name_the_later_line(self, lines, message):
        with pytest.raises(M2FormatError) as excinfo:
            parse_m2("S a b\n" + lines)
        assert str(excinfo.value) == f"line 3: {message}"
        assert excinfo.value.line_number == 3

    def test_block_without_a_line_rejected(self):
        with pytest.raises(M2FormatError, match="line 1: block has no 'A' line"):
            parse_m2("S a b\n")

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
                    # A trailing CR is part of the line ending, as in a file.
                    expected = decode_s_line_by_tokens(remainder.rstrip("\r"), 1)
                except M2FormatError:
                    with pytest.raises(M2FormatError, match="line 1: S line"):
                        parse_m2("S " + remainder + noop)
                else:
                    assert parse_m2("S " + remainder + noop)[0] == expected

    def test_marker_collision_rejected_on_write(self):
        with pytest.raises(ValueError, match="collides"):
            to_m2("abcdef", [Annotation((Edit(0, 6, "-NONE-"),), 0)])

    def test_edit_out_of_bounds_rejected_on_write(self):
        with pytest.raises(ValueError, match="out of bounds for a 2-token source"):
            to_m2("ab", [Annotation((Edit(1, 3, "x"),), 0)])

    @given(marker_text, st.lists(marker_text, min_size=1, max_size=3))
    @example("ab", ["ax|"])
    @settings(max_examples=300)
    def test_every_written_block_reads_back(self, source, targets):
        annotations = [
            extract_edits(source, target, annotator_id=i)
            for i, target in enumerate(targets)
        ]
        try:
            block = to_m2(source, annotations)
        except ValueError as exc:
            assert "collides with M2 markers" in str(exc)
            return
        assert parse_m2(block) == (source, annotations)

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

    @pytest.mark.parametrize("error_type", [ParallelFormatError, M2FormatError])
    def test_both_errors_are_built_message_then_line_number(self, error_type):
        error = error_type("x", 3)
        assert str(error) == "line 3: x"
        assert error.line_number == 3

    def test_one_except_catches_a_bad_line_of_either_kind(self):
        noop = b"A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n"
        files = [
            b"S a b\n" + noop + b"\nS c\xff\n" + noop,  # invalid UTF-8 on line 4
            b"S a b\n" + noop + b"\nS c d\nA 0 1|||X|||x|||REQUIRED|||-NONE-|||0\n",
        ]
        caught = []
        for data in files:
            try:
                list(read_m2_file(io.BytesIO(data)))
            except ParallelFormatError as exc:
                caught.append((exc.line_number, str(exc)))
        (utf8_number, utf8_message), (a_line_number, a_line_message) = caught
        assert (utf8_number, a_line_number) == (4, 5)
        assert utf8_message.startswith("line 4: invalid UTF-8: ")
        assert a_line_message == "line 5: unknown edit kind 'X'"

    @given(mixed_text, st.lists(mixed_text, min_size=1, max_size=3))
    def test_extracted_and_read_records_are_the_public_types(self, source, targets):
        # Both build their records without the validating constructors;
        # the records must behave as constructed ones do.
        annotations = [
            extract_edits(source, target, annotator_id=i)
            for i, target in enumerate(targets)
        ]
        ((_, read),) = read_m2_file(to_m2(source, annotations).splitlines(True))
        assert read == annotations
        for annotation in annotations + read:
            assert type(annotation) is Annotation
            assert type(annotation.edits) is tuple
            assert annotation == (annotation.edits, annotation.annotator_id)
            assert hash(annotation) == hash(Annotation(*annotation))
            assert annotation._replace() == annotation
            with pytest.raises(ValueError, match="non-negative"):
                annotation._replace(annotator_id=-1)
            for edit in annotation.edits:
                assert type(edit) is Edit
                assert edit == Edit(*edit) == tuple(edit)
                assert hash(edit) == hash(tuple(edit))
                with pytest.raises(ValueError, match="invalid edit span"):
                    edit._replace(start=edit.end + 1)

    @pytest.mark.parametrize(
        "fields",
        [
            "1 1|||M|||y|||REQUIRED|||-NONE-|||0",
            "-1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||1",
        ],
        ids=["edit", "noop"],
    )
    def test_each_pair_of_fields_matches_join_oracle(self, fields):
        # Every value of M2_FIELDS in every pair of a line's fields, after
        # an edit of annotator 0: each check, and which of two comes first.
        head = "S a b\nA 0 1|||R|||x|||REQUIRED|||-NONE-|||0\nA "
        fields = fields.split("|||")
        for i, j in itertools.combinations(range(len(fields)), 2):
            for u, v in itertools.product(M2_FIELDS, repeat=2):
                mutated = fields.copy()
                mutated[i], mutated[j] = u, v
                block = head + "|||".join(mutated) + "\n"
                assert m2_outcome(map(parse_m2, [block])) == m2_outcome(
                    map(parse_m2_by_join, [block])
                )

    @given(m2_files(), st.booleans())
    @settings(max_examples=400)
    def test_reader_and_parser_match_join_oracle(self, lines, crlf):
        # Entries, or the same error type, message and line number, as the
        # reader and parser that joined each block's lines and split them.
        file_lines = [line + "\n" for line in lines]
        if crlf:
            file_lines = [line.replace("\n", "\r\n").encode("utf-8") for line in file_lines]
        assert m2_outcome(read_m2_file(file_lines)) == m2_outcome(
            read_m2_file_by_join(file_lines)
        )
        # parse_m2 on each run of non-blank lines, and on the whole file;
        # it numbers a block's lines from 1.
        blocks = ["".join(line + "\n" for line in lines)]
        for blank, run in itertools.groupby(lines, lambda line: not line):
            if not blank:
                blocks.append("".join(line + "\n" for line in run))
        for block in blocks:
            assert m2_outcome(map(parse_m2, [block])) == m2_outcome(
                map(parse_m2_by_join, [block])
            )
