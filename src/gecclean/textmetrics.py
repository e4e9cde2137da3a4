"""Character-level similarity measures used to rank candidate corrections."""

from __future__ import annotations


def levenshtein_distance(s: str, t: str) -> int:
    """Unit-cost edit distance between the character sequences of s and t.

    Insertions, deletions and substitutions all cost 1; transpositions are
    not a primitive.  Computed with Myers' bit-vector recurrence in
    Hyyrö's global edit-distance form (Myers 1999; Hyyrö 2001): a fixed
    number of integer operations per character of the longer string, on
    Python ints of O(len(shorter)) bits.
    """
    if s == t:
        return 0
    # Shared affixes never change the distance; trimming them keeps the
    # core tiny on the near-identical pairs that dominate GEC corpora.
    limit = min(len(s), len(t))
    prefix = 0
    while prefix < limit and s[prefix] == t[prefix]:
        prefix += 1
    suffix = 0
    while suffix < limit - prefix and s[-1 - suffix] == t[-1 - suffix]:
        suffix += 1
    s = s[prefix : len(s) - suffix]
    t = t[prefix : len(t) - suffix]
    if not s:
        return len(t)
    if not t:
        return len(s)
    if len(s) > len(t):
        s, t = t, s
    # Bit i of peq[c] is set when s[i] == c.  Column j of the DP matrix
    # D(i, j) is held as its vertical deltas D(i, j) - D(i-1, j): bit i-1
    # of pv is set where the delta is +1, of mv where it is -1.
    peq: dict[str, int] = {}
    bit = 1
    for char in s:
        peq[char] = peq.get(char, 0) | bit
        bit <<= 1
    full = bit - 1
    pv = full
    mv = 0
    get = peq.get
    for char in t:
        eq = get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        # Horizontal deltas D(i, j) - D(i, j-1), +1 in ph and -1 in mh;
        # the shift carries in row 0, where D(0, j) = j always rises by 1.
        ph = ((mv | (full ^ (xh | pv))) << 1) | 1
        mh = (pv & xh) << 1
        pv = (mh | ~(xv | ph)) & full
        mv = ph & xv
    # D(m, n) is D(0, n) = n plus the vertical deltas of the last column.
    return len(t) + pv.bit_count() - mv.bit_count()


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
