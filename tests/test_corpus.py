import io
import time
import tracemalloc
import unicodedata

import pytest
from hypothesis import example, given, settings, strategies as st

from gecclean import cli
from gecclean.corpus import (
    ParallelFormatError,
    Sample,
    SourceGroup,
    _kept_groups,
    filter_groups,
    group_by_source,
    normalize,
    parse_parallel,
    read_lines,
    write_parallel,
)
from oracles import (
    TrickleStream,
    group_by_source_by_dicts,
    parse_parallel_by_field,
    read_lines_by_line,
)

# Byte pieces of the reader's input files: line endings, byte-order marks,
# multibyte characters and invalid or truncated UTF-8.
LINE_BYTES = [
    b"a", b" ", b"\t", b"\n", b"\r\n", b"\r", "\ufeff".encode(), "我".encode(),
    "\U0001F600".encode(), b"\xff", b"\xe6\x88", b"\x80",
]


def read_outcome(items) -> tuple[list, tuple | None]:
    """What a line reader or a parser yields, and the error that stops it."""
    got = []
    try:
        for item in items:
            got.append(item)
    except ParallelFormatError as exc:
        return got, (type(exc), str(exc), exc.line_number)
    return got, None


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
        samples = list(parse_parallel(["a\tb\n"]))
        assert samples == [Sample("a", "b")]
        assert samples[0]._asdict() == {"source": "a", "target": "b"}

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


# Pieces of TSV text: CJK, spaces, tabs and a lone CR; a BOM; composing
# and reordering marks ("e" + U+0301, U+0323, U+0898); U+2000, which is
# whitespace but not NFC; and a lone surrogate, which a stream form writes
# as invalid UTF-8.
TSV_PIECES = [
    "我", "能", "a", " ", "\u3000", "\t", "\t", "\r", "\ufeff", "e\u0301", "\u0323",
    "\u0898", "\u2000", "\udcff",
]


class TestParseParallelMatchesOracle:
    """The run parser against ``oracles.parse_parallel_by_field``."""

    @given(
        lines=st.lists(
            st.tuples(
                st.lists(st.sampled_from(TSV_PIECES), max_size=12).map("".join),
                st.sampled_from(["\n", "\r\n"]),
            ).map("".join),
            max_size=12,
        ),
        bom=st.booleans(),
        multi_target=st.booleans(),
        sizes=st.lists(st.integers(1, 64), min_size=1, max_size=6),
    )
    # An NFC run, then a run whose "e" + U+0301 must be composed; a lone CR
    # that normalize removes, and with it what keeps U+0301 from its "e";
    # a bad line after good ones in one run; an LF inside a text line,
    # which only a caller's lines can hold and normalize removes.
    @example(lines=["我\t能\n", "e\u0301\ta\n"], bom=False, multi_target=False, sizes=[8])
    @example(lines=["a\rb\tc\n", "e\r\u0301\ta\n"], bom=False, multi_target=False, sizes=[64])
    @example(lines=["a\tb\n", "c\td\te\n", "f\n"], bom=True, multi_target=True, sizes=[64])
    @example(lines=["a\nb\tc\n"], bom=False, multi_target=False, sizes=[64])
    @settings(max_examples=300)
    def test_same_samples_and_errors(self, lines, bom, multi_target, sizes):
        # As text lines, as bytes lines, and as a stream in 8 KiB blocks and
        # in small ones.
        lines = ["\ufeff" * bom + line for line in lines[:1]] + lines[1:]
        data = "".join(lines).encode("utf-8", "surrogateescape")
        for make in (
            lambda: lines,
            lambda: [line.encode("utf-8", "surrogateescape") for line in lines],
            lambda: io.BytesIO(data),
            lambda: TrickleStream(data, sizes),
        ):
            assert read_outcome(parse_parallel(make(), multi_target)) == read_outcome(
                parse_parallel_by_field(make(), multi_target)
            )


class TestReadLines:
    """A binary stream is read in blocks; it reads as its lines read one by one."""

    @given(
        st.booleans(),
        st.lists(st.sampled_from(LINE_BYTES), max_size=60),
        st.lists(st.integers(1, 7), min_size=1, max_size=8),
    )
    @example(False, [], [1])
    @example(True, [b"a"], [1])
    def test_blocks_match_line_by_line(self, bom, pieces, sizes):
        data = "\ufeff".encode() * bom + b"".join(pieces)
        assert read_outcome(read_lines(TrickleStream(data, sizes))) == read_outcome(
            read_lines_by_line(io.BytesIO(data))
        )

    def test_8_kib_blocks_match_line_by_line(self):
        # Characters and CRLF endings straddle the block edges, and the
        # invalid byte is in the third block.
        line = "我".encode() * 700 + b"\r\n"
        data = line * 9 + b"\xff" + line
        assert read_outcome(read_lines(io.BytesIO(data))) == read_outcome(
            read_lines_by_line(io.BytesIO(data))
        )

    def test_a_long_line_takes_linear_time_and_memory(self):
        def seconds(data: bytes) -> float:
            start = time.perf_counter()
            ((_, line),) = read_lines(io.BytesIO(data))
            return time.perf_counter() - start

        short, long = b"a" * 2**20, b"a" * 2**23
        # 8x the bytes: joining the line once takes 8x the time, and up to
        # 20x where fresh memory is slow to map; adding each block to the
        # line read so far takes 64-90x.
        ratio = min(map(seconds, [long] * 5)) / min(map(seconds, [short] * 5))
        assert ratio < 32
        for data in (short, long):
            stream = io.BytesIO(data)
            tracemalloc.start()
            try:
                ((_, line),) = read_lines(stream)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert line == data.decode()
            assert peak <= 3 * len(data)


class TestGrouping:
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


SENTENCES = st.text("ab", min_size=1, max_size=3)


@st.composite
def multi_target_lines(draw) -> list[list[str]]:
    """Lines of a few sources that come back, with repeated and identity targets."""
    sources = draw(st.lists(SENTENCES, min_size=1, max_size=4))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        source = draw(st.sampled_from(sources))
        target = st.one_of(st.just(source), SENTENCES)
        lines.append([source, *draw(st.lists(target, min_size=1, max_size=3))])
    return lines


class TestGroupingMatchesOracle:
    """Every grouping path against ``oracles.group_by_source_by_dicts``."""

    @given(lines=multi_target_lines())
    # Duplicate pairs collapse; distinct sources stay apart; two sources of
    # three targets each, interleaved, keep each source's order.
    @example(lines=[["s", "t1"], ["s", "t2"], ["s", "t1"]])
    @example(lines=[["s1", "t"], ["s2", "t"]])
    @example(lines=[["s1", "a"], ["s2", "x"], ["s1", "b"], ["s2", "y"], ["s1", "c"], ["s2", "z"]])
    def test_list_lazy_path_and_drop_rule(self, tmp_path_factory, lines):
        text = "".join("\t".join(fields) + "\n" for fields in lines)
        corpus = tmp_path_factory.getbasetemp() / "grouping.tsv"
        corpus.write_text(text, encoding="utf-8", newline="\n")
        samples = list(parse_parallel(text.splitlines(), multi_target=True))
        expected = group_by_source_by_dicts(samples)
        kept = filter_groups(expected, drop_correct=True)
        assert group_by_source(samples) == expected
        assert list(_kept_groups(iter(expected), drop=True)) == kept
        for flags, groups in (([], expected), (["--drop-correct"], kept)):
            argv = ["to-m2", str(corpus), "-o", "unused", "--multi-target-lines", *flags]
            lazy = cli._read_groups(cli.build_parser().parse_args(argv))
            assert iter(lazy) is lazy
            assert list(lazy) == groups


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
