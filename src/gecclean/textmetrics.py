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


def levenshtein_distance(s: str, t: str) -> int:
    """Unit-cost edit distance between the character sequences of s and t.

    Insertions, deletions and substitutions all cost 1; transpositions are
    not a primitive.  Computed by ``bit_vector_columns`` with the bits on
    the shorter string: a fixed number of integer operations per character
    of the longer string, on Python ints of O(len(shorter)) bits, and no
    column kept.
    """
    if s == t:
        return 0
    # Shared affixes never change the distance; trimming them keeps the
    # core tiny on the near-identical pairs that dominate GEC corpora.
    prefix, suffix = common_affixes(s, t)
    s = s[prefix : len(s) - suffix]
    t = t[prefix : len(t) - suffix]
    if not s:
        return len(t)
    if not t:
        return len(s)
    if len(s) > len(t):
        s, t = t, s
    return bit_vector_columns(s, t, (-len(s), len(t)))


DeltaColumn = tuple[int, int, int, int]


def bit_vector_columns(
    s: str,
    t: str,
    band: tuple[int, int],
    columns: list[DeltaColumn] | None = None,
) -> int:
    """D(len(s), len(t)) of the unit-cost DP matrix D(i, j) of s against t.

    Myers' bit-vector recurrence in Hyyrö's global edit-distance form
    (Myers 1999; Hyyrö 2001): a fixed number of integer operations per
    character of t, on integers of one bit per row of s.

    The pass covers only the diagonals klo <= j - i <= khi of ``band =
    (klo, khi)``, which must hold the diagonals 0 and len(t) - len(s)
    (Hyyrö 2004): column j is a window of min(khi - klo + 1, len(s)) rows
    starting at row lo + 1, lo = max(0, j - khi - 1), that slides down one
    row a column once lo > 0.  The cell above a window is given one more
    than its left neighbour, so every value is the cost of some alignment:
    never below the full matrix's, and equal to it on every cell that an
    optimal path from (0, 0) reaches inside the band.  A row entering the
    bottom of a window starts level with the cell above it; that only
    offers its cell in the new column a step from the left, which never
    beats the diagonal step from the cell above.  The band
    (-len(s), len(t)) holds every diagonal: its window is all of s and
    never slides.

    Given ``columns``, it appends for each column j = 1..len(t) the delta
    vectors ``(pv, mv, ph, mh)`` that a backtrace needs: bit i-1-lo of pv
    (mv) is set where D(i, j) - D(i-1, j) is +1 (-1), and bit r-lo of ph
    (mh) where D(r, j) - D(r, j-1) is +1 (-1).
    """
    m = len(s)
    # Bit i of peq[c] is set when s[i] == c.
    peq: dict[str, int] = {}
    bit = 1
    for char in s:
        peq[char] = peq.get(char, 0) | bit
        bit <<= 1
    klo, khi = band
    width = min(khi - klo + 1, m)
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
            push((pv, mv, ph, mh))
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
