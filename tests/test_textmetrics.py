import random

import pytest
from hypothesis import given, settings, strategies as st

from gecclean.textmetrics import (
    bit_vector_columns,
    jaccard_similarity,
    levenshtein_distance,
    levenshtein_ratio,
)
from oracles import (
    distance_matrix,
    edited_pairs,
    levenshtein_distance_by_trim,
    levenshtein_distance_dp,
)

short_text = st.text(alphabet="ab我。", max_size=8)

# Mixed CJK/ASCII with punctuation and space: long enough that the bit
# masks run well past one 64-bit machine word.
WIDE_ALPHABET = "abcxyz我能胜任这此职务不是很好。，! ?"
# Astral-plane characters, combining marks and characters whose NFC form
# differs: the kernel compares code points and must not care which.
ODD_ALPHABET = ["a", "e", "\u0301", "\u0308", "é", "\U0001F600", "\U00020000", "𝔸", "我"]


class TestLevenshteinDistance:
    @pytest.mark.parametrize(
        "s,t,expected",
        [
            ("", "", 0),
            ("abc", "abd", 1),
            ("", "abc", 3),
            ("abc", "", 3),
            # One deletion plus one appended period, derived with the
            # recursive oracle before the build.
            ("我能胜任这此职务", "我能胜任这职务。", 2),
        ],
    )
    def test_known_values(self, s, t, expected):
        assert levenshtein_distance(s, t) == expected

    @given(short_text, short_text)
    def test_symmetry(self, s, t):
        assert levenshtein_distance(s, t) == levenshtein_distance(t, s)

    @given(short_text, short_text, short_text)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= levenshtein_distance(
            a, b
        ) + levenshtein_distance(b, c)

    @given(short_text, short_text)
    def test_zero_iff_equal(self, s, t):
        assert (levenshtein_distance(s, t) == 0) == (s == t)


class TestBitVectorMatchesRowDP:
    """levenshtein_distance runs a bit-vector kernel; it must equal the DP."""

    @given(st.text(alphabet="ab", max_size=80), st.text(alphabet="ab", max_size=80))
    @settings(max_examples=300)
    def test_binary_alphabet_ties(self, s, t):
        assert levenshtein_distance(s, t) == levenshtein_distance_dp(s, t)

    @given(
        st.text(alphabet=WIDE_ALPHABET, max_size=300),
        st.text(alphabet=WIDE_ALPHABET, max_size=300),
    )
    @settings(max_examples=80, deadline=None)
    def test_dissimilar_mixed_pairs(self, s, t):
        assert levenshtein_distance(s, t) == levenshtein_distance_dp(s, t)

    @given(edited_pairs(WIDE_ALPHABET, 300))
    @settings(max_examples=150, deadline=None)
    def test_near_mixed_pairs(self, pair):
        assert levenshtein_distance(*pair) == levenshtein_distance_dp(*pair)

    @given(
        st.text(alphabet=ODD_ALPHABET, max_size=120),
        st.text(alphabet=ODD_ALPHABET, max_size=120),
    )
    @settings(max_examples=150, deadline=None)
    def test_astral_and_combining_characters(self, s, t):
        assert levenshtein_distance(s, t) == levenshtein_distance_dp(s, t)

    @given(edited_pairs(ODD_ALPHABET, 120))
    @settings(max_examples=100, deadline=None)
    def test_astral_and_combining_near_pairs(self, pair):
        assert levenshtein_distance(*pair) == levenshtein_distance_dp(*pair)

    def test_long_near_pair(self):
        rng = random.Random(3000)
        source = "".join(rng.choices(WIDE_ALPHABET, k=3000))
        target = (
            source[:400] + "X" + source[400:1500] + source[1502:2600]
            + "YZ" + source[2601:]
        )
        expected = levenshtein_distance_dp(source, target)
        assert expected == 5
        assert levenshtein_distance(source, target) == expected
        assert levenshtein_distance(target, source) == expected


# Each alphabet's text and single characters, for the shapes that
# levenshtein_distance answers in closed form.  Random pairs rarely take
# these shapes, so each test builds them.
SHAPES = pytest.mark.parametrize(
    "text, char",
    [
        (short_text, st.sampled_from("ab我。")),
        (st.text(alphabet=WIDE_ALPHABET, max_size=40), st.sampled_from(WIDE_ALPHABET)),
        (st.text(alphabet=ODD_ALPHABET, max_size=20), st.sampled_from(ODD_ALPHABET)),
    ],
    ids=["short", "wide", "odd"],
)


def assert_distance(s, t, expected):
    for a, b in ((s, t), (t, s)):
        assert levenshtein_distance(a, b) == expected
        assert levenshtein_distance_dp(a, b) == expected
        assert levenshtein_distance_by_trim(a, b) == expected


class TestClosedForms:
    """The containment and short-core shortcuts against the row DP and the
    trim-then-bit-vector distance they replaced."""

    @SHAPES
    @given(data=st.data())
    def test_contained(self, text, char, data):
        s, u, v = data.draw(text), data.draw(text), data.draw(text)
        assert_distance(s, u + s + v, len(u) + len(v))

    @SHAPES
    @given(data=st.data())
    def test_one_character_core(self, text, char, data):
        a, b, c = data.draw(text), data.draw(text), data.draw(char)
        w = data.draw(text)
        position = data.draw(st.integers(0, len(w)))
        with_c = w[:position] + c + w[position:]
        without_c = w.replace(c, "")
        # len(w) - 1 insertions plus a match, or a substitution for each
        # character when c is not there (one deletion when w is empty).
        assert_distance(a + c + b, a + with_c + b, len(with_c) - 1)
        assert_distance(a + c + b, a + without_c + b, max(len(without_c), 1))

    @SHAPES
    @given(data=st.data())
    def test_empty_core(self, text, char, data):
        a, b, w = data.draw(text), data.draw(text), data.draw(text)
        assert_distance(a + b, a + w + b, len(w))


class TestBandedPass:
    """bit_vector_columns over a band of diagonals counts only alignments:
    never below the distance, and exact once the band holds every optimal
    path."""

    @given(
        st.text(alphabet="ab我", min_size=1, max_size=40),
        st.text(alphabet="ab我", min_size=1, max_size=40),
        st.integers(0, 45),
    )
    @settings(max_examples=400)
    def test_band_value(self, s, t, p):
        d = levenshtein_distance_dp(s, t)
        gap = len(t) - len(s)
        value = bit_vector_columns(s, t, p, [])
        assert value >= d
        # A path that leaves the band costs at least |gap| + 2p + 2.
        if p >= (d - abs(gap)) // 2 or value <= abs(gap) + 2 * p + 1:
            assert value == d
        else:
            # value counts a path inside band p + 1, so it certifies a band.
            wider = (value - abs(gap)) // 2
            assert bit_vector_columns(s, t, wider) == d

    @given(edited_pairs(WIDE_ALPHABET, 300))
    @settings(max_examples=100, deadline=None)
    def test_certified_band_of_near_pairs(self, pair):
        s, t = pair
        if not s or not t:
            return
        d = levenshtein_distance_dp(s, t)
        gap = len(t) - len(s)
        p = (d - abs(gap)) // 2
        columns = []
        assert bit_vector_columns(s, t, p, columns) == d
        assert len(columns) == 2 * len(t)

    @given(
        st.text(alphabet="ab我", min_size=1, max_size=40),
        st.text(alphabet="ab我", min_size=1, max_size=40),
    )
    @settings(max_examples=200)
    def test_columns_hold_pv_and_d0(self, s, t):
        # p = len(s) keeps whole columns that never slide, so bit i-1 of
        # column j is row i.
        dist = distance_matrix(s, t)
        columns = []
        bit_vector_columns(s, t, len(s), columns)
        assert len(columns) == 2 * len(t)
        for j, (pv, d0) in enumerate(zip(columns[::2], columns[1::2]), 1):
            for i in range(1, len(s) + 1):
                here = dist[i][j]
                assert bool(pv >> (i - 1) & 1) == (here - dist[i - 1][j] == 1)
                assert bool(d0 >> (i - 1) & 1) == (here == dist[i - 1][j - 1])


class TestLevenshteinRatio:
    def test_identity_is_one(self):
        assert levenshtein_ratio("abc", "abc") == 1.0

    def test_empty_pair_is_one(self):
        assert levenshtein_ratio("", "") == 1.0

    def test_single_substitution(self):
        assert levenshtein_ratio("abc", "abd") == pytest.approx(5 / 6)

    @given(short_text, short_text)
    def test_bounds_and_symmetry(self, s, t):
        value = levenshtein_ratio(s, t)
        assert 0.0 <= value <= 1.0
        assert value == levenshtein_ratio(t, s)

    @given(short_text, short_text)
    def test_one_iff_equal(self, s, t):
        assert (levenshtein_ratio(s, t) == 1.0) == (s == t)


class TestJaccard:
    def test_identity_is_one(self):
        assert jaccard_similarity("abc", "abc") == 1.0

    def test_disjoint_is_zero(self):
        assert jaccard_similarity("ab", "cd") == 0.0

    def test_empty_pair_is_one(self):
        assert jaccard_similarity("", "") == 1.0

    @given(short_text, short_text)
    def test_symmetry_and_bounds(self, s, t):
        value = jaccard_similarity(s, t)
        assert 0.0 <= value <= 1.0
        assert value == jaccard_similarity(t, s)

    @given(short_text, short_text)
    def test_invariant_under_repetition(self, s, t):
        assert jaccard_similarity(s * 3, t) == jaccard_similarity(s, t)
