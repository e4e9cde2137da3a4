"""Corpus curation toolkit for grammatical error correction data.

Cleans multi-reference parallel corpora down to one target per source,
extracts character-level edits, converts to and from the M2 annotation
format, reports corpus statistics, and scores hypotheses against
multi-annotator gold with edit-level P/R/F0.5.

``import gecclean`` loads no submodule: each exported name imports its
submodule on first use (PEP 562), so a CLI command compiles and runs only
the modules it calls.
"""

__version__ = "0.1.0"

# Each exported name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "corpus": (
            "ParallelFormatError",
            "Sample",
            "SourceGroup",
            "filter_groups",
            "group_by_source",
            "normalize",
            "parse_parallel",
            "write_parallel",
        ),
        "edits": ("align", "extract_edits"),
        "m2": (
            "Annotation",
            "Edit",
            "M2FormatError",
            "apply_edits",
            "parse_m2",
            "read_m2_file",
            "to_m2",
            "write_m2_file",
        ),
        "onetarget": (
            "STRATEGY_NAMES",
            "SelectionConfig",
            "Strategy",
            "build_ablation",
            "clean_corpus",
            "score_target",
            "select",
        ),
        "scorer": ("ScoreReport", "evaluate_corpus", "evaluate_sentence", "f_beta"),
        "stats": (
            "CorpusStats",
            "TargetCountBucketStats",
            "bucket_stats",
            "corpus_stats",
            "overall_stats",
        ),
        "textmetrics": ("jaccard_similarity", "levenshtein_distance", "levenshtein_ratio"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and bind ``name`` here.

    Any other name raises ``AttributeError``, so ``from gecclean import
    edits`` still imports the submodule.
    """
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
