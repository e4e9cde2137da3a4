"""Character-level similarity measures used to rank candidate corrections."""

from __future__ import annotations


def common_affixes(s: str, t: str) -> tuple[int, int]:
    """Lengths of the common prefix and common suffix of s and t.

    The prefix is the longest one; the suffix is the longest common suffix
    of what follows it, so the two never overlap and their sum is at most
    the length of the shorter string.
    """
    limit = min(len(s), len(t))
    prefix = 0
    while prefix < limit and s[prefix] == t[prefix]:
        prefix += 1
    suffix = 0
    while suffix < limit - prefix and s[-1 - suffix] == t[-1 - suffix]:
        suffix += 1
    return prefix, suffix


# For each length difference i - j of a core, the end steps (ys, yt) of
# the backtrace's order, substitute (1, 1), delete (1, 0) and insert
# (0, 1), that leave a rest of length difference -1, 0 or 1, each with the
# start step (xs, xt) that difference fixes: a rest one longer in s starts
# with a deletion, one longer in t with an insertion, and one of equal
# lengths with a substitution.  A core's lengths differ by at most 2 when
# its distance is 2.
_TWO_STEPS = {
    gap: tuple(
        (ys, yt, int(rest >= 0), int(rest <= 0))
        for ys, yt in ((1, 1), (1, 0), (0, 1))
        for rest in [gap - ys + yt]
        if -1 <= rest <= 1
    )
    for gap in range(-2, 3)
}


def _two_steps(
    s: str, t: str, prefix: int, i: int, j: int
) -> tuple[int, int, int, int] | None:
    """The two steps of a core s[prefix:i], t[prefix:j] at distance 2, or None.

    The core is what ``common_affixes`` leaves, with both sides non-empty
    and not 1 x 1: its first characters differ and its last characters
    differ, so its distance is at least 2.  It is exactly 2 when an end
    step (ys, yt) leaves a rest at distance 1.  The rest also starts with
    two different characters, so its one step is its start step (xs, xt),
    and the middle after that step matches: one slice comparison for each
    end step, at most three in all.  They are tried in the backtrace's
    order, so the first that fits is the full matrix's decision at (i, j).
    Returns (ys, yt, xs, xt).
    """
    for steps in _TWO_STEPS.get(i - j, ()):
        ys, yt, xs, xt = steps
        if s[prefix + xs : i - ys] == t[prefix + xt : j - yt]:
            return steps
    return None


def levenshtein_distance(s: str, t: str) -> int:
    """Unit-cost edit distance between the character sequences of s and t.

    Insertions, deletions and substitutions all cost 1; transpositions are
    not a primitive.  With s the shorter string, three shapes need no
    matrix:

    - s inside t costs len(t) - len(s): no alignment costs less than the
      length difference, and deleting what surrounds s costs exactly that.
    - A core of s of at most one character c, once the shared prefix and
      suffix are trimmed, costs len(t') - (c in t') for the core t' of t:
      len(t') - 1 insertions plus one match or one substitution, or len(t')
      insertions for an empty core.
    - A core at distance 2, an end step, a matching middle and a start
      step, costs 2; ``_two_steps`` settles it with at most three slice
      comparisons (Ukkonen 1985 bounds the distance first in the same way).

    Any other core goes to ``bit_vector_columns`` with the bits on s: a
    fixed number of integer operations per character of t', on Python ints
    of O(len(s')) bits, and no column kept.
    """
    if len(s) > len(t):
        s, t = t, s
    if s in t:
        return len(t) - len(s)
    # Shared affixes never change the distance; trimming them keeps the
    # core tiny on the near-identical pairs that dominate GEC corpora.
    prefix, suffix = common_affixes(s, t)
    s = s[prefix : len(s) - suffix]
    t = t[prefix : len(t) - suffix]
    if not s:
        return len(t)
    if len(s) == 1:
        return len(t) - (s in t)
    if _two_steps(s, t, 0, len(s), len(t)):
        return 2
    return bit_vector_columns(s, t, len(s))


def bit_vector_columns(
    s: str,
    t: str,
    p: int,
    columns: list[int] | None = None,
) -> int:
    """D(len(s), len(t)) of the unit-cost DP matrix D(i, j) of s against t.

    Myers' bit-vector recurrence in Hyyrö's global edit-distance form
    (Myers 1999; Hyyrö 2001): a fixed number of integer operations per
    character of t, on integers of one bit per row of s.

    Given p >= 0 and gap = len(t) - len(s), the pass covers only the
    diagonals min(0, gap) - p <= j - i <= khi = max(0, gap) + p, a band
    that always holds the diagonals 0 and gap (Hyyrö 2004): column j is a
    window of min(|gap| + 2p + 1, len(s)) rows starting at row lo + 1,
    lo = max(0, j - khi - 1), that slides down one row a column once
    lo > 0.  The cell above a window is given one more than its left
    neighbour, so every value is the cost of some alignment: never below
    the full matrix's, and equal to it on every cell that an optimal path
    from (0, 0) reaches inside the band.  A row entering the bottom of a
    window starts level with the cell above it; that only offers its cell
    in the new column a step from the left, which never beats the
    diagonal step from the cell above.  With len(s) <= len(t), p = len(s)
    holds every diagonal: its window is all of s and never slides.

    Given ``columns``, a flat list, it appends for each column j = 1..len(t)
    the two windows a backtrace reads, pv and then d0: bit i-1-lo of pv is
    set where D(i, j) - D(i-1, j) = 1, and the same bit of d0 where
    D(i, j) = D(i-1, j-1) (Hyyrö's diagonal zero vector).
    """
    m = len(s)
    # Bit i of peq[c] is set when s[i] == c.
    peq: dict[str, int] = {}
    bit = 1
    for char in s:
        peq[char] = peq.get(char, 0) | bit
        bit <<= 1
    gap = len(t) - m
    khi = max(0, gap) + p
    width = min(abs(gap) + 2 * p + 1, m)
    mask = (1 << width) - 1
    pv = mask
    mv = 0
    get = peq.get
    push = columns.append if columns is not None else None
    low = -khi - 1
    # D(lo, n) - n: the vertical deltas of the rows that left the window.
    left = 0
    for char in t:
        low += 1
        if low > 0:
            # The window slides down a row: its top row becomes the row
            # above it, and a row enters at its bottom.
            left += (pv & 1) - (mv & 1)
            pv >>= 1
            mv >>= 1
            eq = (get(char, 0) >> low) & mask
        else:
            eq = get(char, 0) & mask
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        # Horizontal deltas D(i, j) - D(i, j-1), +1 in ph and -1 in mh;
        # the shift carries in the row above the window, which rises by 1.
        ph = ((mv | (mask ^ (xh | pv))) << 1) | 1
        mh = (pv & xh) << 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
        if push:
            push(pv)
            push(xv | mh)
    # D(m, n) is D(lo, n) plus the vertical deltas of rows lo+1..m.
    if low > 0:
        rows = (1 << (m - low)) - 1
        pv &= rows
        mv &= rows
    return len(t) + left + pv.bit_count() - mv.bit_count()


def levenshtein_ratio(s: str, t: str) -> float:
    """Length-normalized similarity in [0, 1].

    Defined as (total - distance) / total with total = len(s) + len(t).
    Two empty sentences are identical, so the degenerate 0/0 case is 1.0.
    """
    total = len(s) + len(t)
    if total == 0:
        return 1.0
    return (total - levenshtein_distance(s, t)) / total


def jaccard_similarity(s: str, t: str) -> float:
    """Intersection-over-union of the character sets of s and t.

    Set semantics: repeated characters within a sentence do not change the
    score.  Two empty sentences score 1.0.
    """
    a, b = set(s), set(t)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)
