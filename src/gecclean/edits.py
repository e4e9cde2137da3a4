"""Edit extraction: merged edits from a character alignment.

Edits are derived from a minimum-cost character alignment between a source
and a target sentence.  Every maximal run of contiguous non-match alignment
steps is merged into a single edit, so "number of edits" is well defined.
The records, their kinds and the M2 format are in ``gecclean.m2``; the
records and the M2 functions stay importable from here.
"""

from __future__ import annotations

import warnings

from .m2 import Annotation, Edit, _check_annotator_id, _check_replacement

# Defined in gecclean.m2.  They stay importable from here because the
# acceptance suite and the bench harness import them from this module.
from .m2 import apply_edits, parse_m2, read_m2_file, to_m2, write_m2_file  # noqa: F401
from .textmetrics import _two_steps, bit_vector_columns, common_affixes

# Pairs longer than this are still aligned.  Only the core left after the
# common prefix and suffix is computed, and only its certified band is
# kept, so a long near pair costs little; but a long dissimilar pair still
# costs time in proportion to length x length and about length x length / 4
# bytes of column bits, so flag long pairs for batch callers to notice.
ALIGN_LENGTH_FLAG = 512

# The band extract_edits tries first: this many diagonals either side of
# those between the core's corners.  A core whose distance exceeds its
# length difference by more than 2 * 8 + 1 pays one more pass; a wider
# first band spares few such passes and widens the integers of every column.
_FIRST_BAND = 8


def align(s: str, t: str) -> list[str]:
    """Minimum-cost unit-cost alignment path from s to t.

    Returns the list of "match" / "substitute" / "delete" / "insert"
    steps whose non-match runs ``extract_edits`` merges.  Ties are broken
    match > substitute > delete > insert, walking back from the end.
    """
    # Inside a run the backtrace takes a substitution whenever both strings
    # have characters of the run left, because D(i-1, j-1) = D(i, j) - 1
    # there (a run costs max(span, replacement length)).  So an edit is its
    # surplus deletes or inserts, then its substitutions.
    path: list[str] = []
    i = 0
    for edit in extract_edits(s, t).edits:
        span, length = edit.end - edit.start, len(edit.replacement)
        path += ["match"] * (edit.start - i)
        path += ["delete"] * (span - length) + ["insert"] * (length - span)
        path += ["substitute"] * min(span, length)
        i = edit.end
    path += ["match"] * (len(s) - i)
    return path


def extract_edits(s: str, t: str, annotator_id: int = 0) -> Annotation:
    """Extract merged edits that transform s into t.

    Each maximal run of contiguous non-match steps of the minimum-cost
    alignment becomes one edit covering the source positions it consumed,
    with the covered target characters as replacement.  Identical
    sentences yield no edits, without an alignment, and are never flagged
    as long.

    The alignment is the one a backtrace over the full (m+1) x (n+1)
    distance matrix would take, breaking ties match > substitute > delete
    > insert, but only the core left after the common prefix and suffix
    are trimmed is computed, and of the core of lengths m', n' only a band
    of diagonals: a bit-vector pass (``bit_vector_columns``) keeps two bit
    vectors of each column in a window of as many bits as the band has
    diagonals (Hyyrö 2004).  A step off a match reads one bit of each: the
    diagonal if D(i-1, j-1) is not D(i, j), else up if D(i-1, j) is
    D(i, j) - 1, else left.  The first band is ``_FIRST_BAND`` diagonals
    either side of the corners' ones.  If the distance does not fit it,
    the value that pass returns certifies a wider band (Ukkonen 1985), and
    one more pass computes that.  A near
    core keeps O(n') bytes and costs O(n') operations on integers of a few
    words, besides one shift of an m'-bit mask per column; a dissimilar
    one costs O(m' * n' / w) operations on w-bit words and about
    m' * n' / 4 bytes.  The backtrace walks neither the common suffix nor
    the matched prefix, and keeps no step list.

    A core at distance 2 takes no pass (``_two_steps``): it is an end step
    at (i, j), a matching middle and a start step, and the end step is the
    first of substitute, delete and insert that leaves a rest at distance
    1, which one slice comparison decides.  Its edits are written directly:
    one per step, or one for both when no middle separates them.  A 1 x 1
    core is one substitution, written first.
    """
    _check_annotator_id(annotator_id)
    if s == t:
        return tuple.__new__(Annotation, ((), annotator_id))
    m, n = len(s), len(t)
    if m > ALIGN_LENGTH_FLAG or n > ALIGN_LENGTH_FLAG:
        warnings.warn(
            f"aligning an unusually long pair (over {ALIGN_LENGTH_FLAG} characters)",
            stacklevel=2,
        )
    # D(i, j) = D(i-1, j-1) whenever s[i-1] == t[j-1], so the backtrace
    # takes a common suffix as matches.
    prefix, suffix = common_affixes(s, t)
    i, j = m - suffix, n - suffix
    if i - prefix == 1 == j - prefix:
        # The commonest core, one substituted character; its span is valid.
        _check_replacement(t[prefix])
        edit = tuple.__new__(Edit, (prefix, i, t[prefix]))
        return tuple.__new__(Annotation, ((edit,), annotator_id))
    # The core s[prefix:i], t[prefix:j]; column c of its pass is column
    # prefix + c of the full matrix, and row r its row prefix + r.
    first = prefix + 1
    edits: list[Edit] = []
    end: tuple[int, int] | None = None
    if i > prefix and j > prefix:
        steps = _two_steps(s, t, prefix, i, j)
        if steps is not None:
            # A core at distance 2: the end step (ys, yt) at (i, j), a
            # matching middle, and the start step (xs, xt) that leaves from
            # (prefix + xs, prefix + xt), as the full matrix decides them.
            # The middle's matches emit nothing, so the walk resumes at that
            # cell; with no middle, the two steps are one run.
            ys, yt, xs, xt = steps
            if i - ys > prefix + xs:
                edits.append(Edit(i - ys, i, t[j - yt : j]))
            else:
                end = i, j
            i, j = prefix + xs, prefix + xt
            if xs and xt:
                # A start substitution leaves from (prefix + 1, prefix + 1),
                # in the core; a start deletion or insertion leaves from a
                # cell out of it, where the walk below takes it.
                if end is None:
                    end = i, j
                i = j = prefix
        else:
            core_s, core_t = s[prefix:i], t[prefix:j]
            # The band spans diagonals k = j - i from min(0, gap) - p to
            # max(0, gap) + p, gap = j - i.  A path that leaves it costs at
            # least |gap| + 2p + 2.  The pass returns the cost of some
            # alignment, so no less than the distance d, and the full
            # matrix's value on every cell that an optimal path inside the
            # band reaches.  So a value of at most |gap| + 2p + 1 is d, and
            # every optimal path lies inside the band.  A larger value
            # v >= d makes p = (v - |gap|) // 2 such a band, and the second
            # pass the last.  The bit rows stay on s even when it is the
            # longer string: the tie-break is not symmetric, so the matrix
            # may not be transposed.
            gap = j - i
            p = _FIRST_BAND
            while True:
                columns: list[int] = []
                khi = max(0, gap) + p
                here = bit_vector_columns(core_s, core_t, p, columns)
                if here <= abs(gap) + 2 * p + 1:
                    break
                p = (here - abs(gap)) // 2

    # Backtrace from (i, j), the last cell before the suffix, toward the
    # origin; end is the cell after the run being walked, None on a match.
    # A match never costs: D(i-1, j-1) = D(i, j) when s[i-1] == t[j-1].
    # Otherwise every step lowers D by exactly 1, so no running distance
    # is needed.  In the core, column j's bits at row i (core bit i-1, less
    # the column's window offset; core column c keeps pv at columns[2c] and
    # d0 at columns[2c + 1]) decide the step: the diagonal when the
    # d0 bit is clear (D(i-1, j-1) = D(i, j) - 1), else up when the pv bit
    # is set (D(i-1, j) = D(i, j) - 1), else left.  That is the tie-break
    # match > substitute > delete > insert.  The path's own cells hold the
    # full matrix's values, and a neighbour the full matrix would not step
    # to holds a value no lower than its own, so every decision is the
    # full matrix's.
    # Out of the core, min(i, j) <= prefix, so one of s[:i] and t[:j] is a
    # prefix of the other and D(i, j) = |i - j|: no matrix is needed.  A
    # substitution there never ties (D(i-1, j-1) + 1 > D(i, j)), so the
    # full matrix's backtrace steps along the longer string, deleting if
    # i > j and inserting if i < j; once i == j, the rest is matches.
    while i > prefix and j > prefix or i != j:
        if i and j and s[i - 1] == t[j - 1]:
            if end is not None:
                edits.append(Edit(i, end[0], t[j : end[1]]))
                end = None
            i -= 1
            j -= 1
            continue
        if end is None:
            end = i, j
        if i > prefix and j > prefix:
            c = j - first
            bit = i - first
            if c > khi:
                bit -= c - khi
            if not (columns[2 * c + 1] >> bit) & 1:
                i -= 1
                j -= 1
            elif (columns[2 * c] >> bit) & 1:
                i -= 1
            else:
                j -= 1
        elif i > j:
            i -= 1
        else:
            j -= 1
    if end is not None:
        edits.append(Edit(i, end[0], t[j : end[1]]))
    edits.reverse()
    # The backtrace emits the edits in order, each one separated from the
    # next by a match, so Annotation's order check would find nothing.
    return tuple.__new__(Annotation, (tuple(edits), annotator_id))
