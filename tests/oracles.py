"""Independent reference implementations used to derive expected values.

Nothing here shares code with the package under test: the distance oracle
is the plain recursive definition, the alignment oracle enumerates every
minimum-cost path and applies the documented tie-break to pick the
canonical one, ``align_full_matrix`` is the aligner the package used
before it switched to a banded fill and then to a backtrace over
bit-vector deltas, and ``levenshtein_distance_dp`` is the row DP the
package used before its bit-vector kernel; the last two are kept as the
references for long pairs.  ``align_full_matrix`` checks the package's
aligner, which keeps the bit-vector deltas of only a band of diagonals.
``merge_path`` is the forward walk over a per-character path that
``extract_edits`` used before its backtrace emitted merged edits.
``decode_s_line_by_tokens`` is the M2 S-line decoder the package used
before it took every other character.  These two share only the package's
``Edit`` type and exception class.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from gecclean.edits import Edit, M2FormatError

STEP_PRIORITY = {"match": 0, "substitute": 1, "delete": 2, "insert": 3}


@functools.lru_cache(maxsize=None)
def levenshtein_recursive(a: str, b: str) -> int:
    """The textbook recursive definition of Levenshtein distance."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    substitution = 0 if a[0] == b[0] else 1
    return min(
        levenshtein_recursive(a[1:], b[1:]) + substitution,
        levenshtein_recursive(a[1:], b) + 1,
        levenshtein_recursive(a, b[1:]) + 1,
    )


def levenshtein_ratio_fraction(a: str, b: str) -> Fraction:
    total = len(a) + len(b)
    if total == 0:
        return Fraction(1)
    return Fraction(total - levenshtein_recursive(a, b), total)


def jaccard_fraction(a: str, b: str) -> Fraction:
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return Fraction(1)
    return Fraction(len(sa & sb), len(sa | sb))


def all_min_cost_paths(s: str, t: str) -> list[tuple[str, ...]]:
    """Every minimum-cost alignment path from s to t (exhaustive)."""
    best = levenshtein_recursive(s, t)
    m, n = len(s), len(t)
    results: list[tuple[str, ...]] = []

    def walk(i: int, j: int, cost: int, path: list[str]) -> None:
        # Remaining cost is at least the length imbalance still to absorb.
        if cost + abs((m - i) - (n - j)) > best:
            return
        if i == m and j == n:
            if cost == best:
                results.append(tuple(path))
            return
        if i < m and j < n:
            if s[i] == t[j]:
                path.append("match")
                walk(i + 1, j + 1, cost, path)
                path.pop()
            else:
                path.append("substitute")
                walk(i + 1, j + 1, cost + 1, path)
                path.pop()
        if i < m:
            path.append("delete")
            walk(i + 1, j, cost + 1, path)
            path.pop()
        if j < n:
            path.append("insert")
            walk(i, j + 1, cost + 1, path)
            path.pop()

    walk(0, 0, 0, [])
    return results


def canonical_min_path(s: str, t: str) -> tuple[str, ...]:
    """The unique min-cost path selected by the backtrace tie-break.

    The backtrace walks from the end of both strings and prefers
    match > substitute > delete > insert at every position, which is
    exactly lexicographic minimization of the reversed step sequence
    under that priority order.
    """
    paths = all_min_cost_paths(s, t)
    return min(
        paths, key=lambda p: tuple(STEP_PRIORITY[step] for step in reversed(p))
    )


def align_full_matrix(s: str, t: str) -> list[str]:
    """Backtrace over the full (m+1) x (n+1) distance matrix.

    Ties are broken match > substitute > delete > insert, walking back from
    (m, n).  Time and memory grow with m * n.
    """
    m, n = len(s), len(t)
    dist = [list(range(n + 1))]
    for i in range(1, m + 1):
        previous = dist[-1]
        row = [i] * (n + 1)
        sc = s[i - 1]
        for j in range(1, n + 1):
            best = previous[j - 1] + (sc != t[j - 1])
            left = row[j - 1] + 1
            if left < best:
                best = left
            up = previous[j] + 1
            if up < best:
                best = up
            row[j] = best
        dist.append(row)

    path: list[str] = []
    i, j = m, n
    while i or j:
        here = dist[i][j]
        if i and j and s[i - 1] == t[j - 1] and dist[i - 1][j - 1] == here:
            path.append("match")
            i -= 1
            j -= 1
        elif i and j and s[i - 1] != t[j - 1] and dist[i - 1][j - 1] + 1 == here:
            path.append("substitute")
            i -= 1
            j -= 1
        elif i and dist[i - 1][j] + 1 == here:
            path.append("delete")
            i -= 1
        else:
            path.append("insert")
            j -= 1
    path.reverse()
    return path


def merge_path(path: list[str], t: str) -> tuple[Edit, ...]:
    """Merge each maximal run of non-match steps of a path into one edit.

    The run covers the source positions it consumed, with the covered
    target characters as replacement.
    """
    edits = []
    i = j = 0
    run: tuple[int, int] | None = None
    for step in path:
        if step == "match":
            if run is not None:
                edits.append(Edit(run[0], i, t[run[1] : j]))
                run = None
            i += 1
            j += 1
            continue
        if run is None:
            run = (i, j)
        if step == "substitute":
            i += 1
            j += 1
        elif step == "delete":
            i += 1
        else:
            j += 1
    if run is not None:
        edits.append(Edit(run[0], i, t[run[1] : j]))
    return tuple(edits)


def levenshtein_distance_dp(s: str, t: str) -> int:
    """Unit-cost edit distance by a row-by-row DP over every cell.

    Shared affixes are trimmed first.  Runs in O(len(s) * len(t)) time and
    O(min) memory.
    """
    if s == t:
        return 0
    # Shared affixes never change the distance; trimming them keeps the DP
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
    row = list(range(len(s) + 1))
    for j, tc in enumerate(t, 1):
        diagonal = row[0]
        row[0] = j
        for i, sc in enumerate(s, 1):
            above = row[i]
            best = diagonal if sc == tc else diagonal + 1
            left = row[i - 1] + 1
            if left < best:
                best = left
            up = above + 1
            if up < best:
                best = up
            row[i] = best
            diagonal = above
    return row[-1]


def decode_s_line_by_tokens(remainder: str, line_number: int | None) -> str:
    """Decode an S line by counting the empty fields of a split on spaces."""
    # Tokens are single characters joined by single spaces, so a literal
    # space token appears as exactly two consecutive empty split fields.
    if remainder == "":
        return ""
    tokens: list[str] = []
    empties = 0
    for field in remainder.split(" "):
        if field == "":
            empties += 1
            continue
        if empties % 2:
            raise M2FormatError("unbalanced spaces in S line", line_number)
        tokens.append(" " * (empties // 2))
        empties = 0
        if len(field) != 1:
            raise M2FormatError(
                f"multi-character token {field!r} in S line"
                " (this is a character-level format)",
                line_number,
            )
        tokens.append(field)
    if empties % 2:
        raise M2FormatError("unbalanced spaces in S line", line_number)
    tokens.append(" " * (empties // 2))
    return "".join(tokens)
