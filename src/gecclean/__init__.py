"""Corpus curation toolkit for grammatical error correction data.

Cleans multi-reference parallel corpora down to one target per source,
extracts character-level edits, converts to and from the M2 annotation
format, reports corpus statistics, and scores hypotheses against
multi-annotator gold with edit-level P/R/F0.5.
"""

__version__ = "0.1.0"

from .corpus import (
    ParallelFormatError,
    Sample,
    SourceGroup,
    filter_groups,
    group_by_source,
    normalize,
    parse_parallel,
    write_parallel,
)
from .edits import (
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
from .onetarget import (
    STRATEGY_NAMES,
    SelectionConfig,
    Strategy,
    build_ablation,
    clean_corpus,
    score_target,
    select,
)
from .scorer import ScoreReport, evaluate_corpus, evaluate_sentence, f_beta
from .stats import (
    CorpusStats,
    TargetCountBucketStats,
    bucket_stats,
    corpus_stats,
    overall_stats,
)
from .textmetrics import jaccard_similarity, levenshtein_distance, levenshtein_ratio

__all__ = [
    "Annotation",
    "CorpusStats",
    "Edit",
    "M2FormatError",
    "ParallelFormatError",
    "STRATEGY_NAMES",
    "Sample",
    "ScoreReport",
    "SelectionConfig",
    "SourceGroup",
    "Strategy",
    "TargetCountBucketStats",
    "align",
    "apply_edits",
    "bucket_stats",
    "build_ablation",
    "clean_corpus",
    "corpus_stats",
    "evaluate_corpus",
    "evaluate_sentence",
    "extract_edits",
    "f_beta",
    "filter_groups",
    "group_by_source",
    "jaccard_similarity",
    "levenshtein_distance",
    "levenshtein_ratio",
    "normalize",
    "overall_stats",
    "parse_m2",
    "parse_parallel",
    "read_m2_file",
    "score_target",
    "select",
    "to_m2",
    "write_m2_file",
    "write_parallel",
]
