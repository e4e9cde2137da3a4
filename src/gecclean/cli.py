"""Command-line front end wiring the pipeline together.

Every command is deterministic: the same configuration and inputs produce
byte-identical outputs.  File-writing commands replace each output
atomically and then record their configuration in a ``<output>.meta.json``
sidecar.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import IO, Iterator

from . import __version__
from .corpus import (
    ParallelFormatError,
    filter_groups,
    group_by_source,
    normalize,
    parse_parallel,
    read_lines,
    write_parallel,
)
from .edits import (
    M2FormatError,
    apply_edits,
    extract_edits,
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
)
from .scorer import evaluate_corpus
from .scorer import render_report as render_score_report
from .stats import bucket_stats, overall_stats, render_report as render_stats_report


@contextlib.contextmanager
def _name_errors(path: str) -> Iterator[None]:
    """Prefix a format error raised in the block with the file it came from.

    ``ParallelFormatError`` and ``M2FormatError`` give the line only; the
    message becomes ``<path>: line N: ...``.  Every input file is read
    inside this block, so each input error names its file the same way.
    """
    try:
        yield
    except (ParallelFormatError, M2FormatError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_samples(args) -> list:
    with open(args.input, "rb") as stream, _name_errors(args.input):
        return list(parse_parallel(stream, multi_target=args.multi_target_lines))


def _read_groups(args) -> list:
    with open(args.input, "rb") as stream, _name_errors(args.input):
        groups = group_by_source(
            parse_parallel(stream, multi_target=args.multi_target_lines)
        )
    if getattr(args, "drop_correct", False):
        groups = filter_groups(groups, drop_correct=True, drop_identity_targets=True)
    return groups


@contextlib.contextmanager
def _atomic_write(path: str) -> Iterator[IO[str]]:
    """Open a text stream whose content replaces ``path`` once complete.

    The text goes to a temporary file in the same directory, which
    ``os.replace`` renames over ``path`` when the block ends without an
    error. On an error the temporary file is removed and any previous
    ``path`` is left as it was.
    """
    temp = f"{path}.{os.getpid()}.tmp"
    out = open(temp, "w", encoding="utf-8", newline="\n")
    try:
        with out:
            yield out
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise


# Parsed arguments that are not configuration: dispatch, the output's own
# path, and --threads, which changes nothing.
_NOT_CONFIG = frozenset({"command", "handler", "output", "threads"})


def _write_meta(args, **counts) -> None:
    """Write the ``<output>.meta.json`` sidecar; call it after the output.

    It records every parsed argument outside ``_NOT_CONFIG``, plus
    ``counts``, so a new option is recorded without further code.
    """
    config = {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG}
    meta = {
        "tool": "gecclean",
        "version": __version__,
        "command": args.command,
        "config": config | counts,
    }
    with _atomic_write(f"{args.output}.meta.json") as out:
        out.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _emit(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        with _atomic_write(args.output) as out:
            out.write(text)
        _write_meta(args)


def _cmd_clean(args) -> int:
    groups = _read_groups(args)
    config = SelectionConfig(Strategy.parse(args.strategy), args.seed)
    samples = clean_corpus(groups, config)
    with _atomic_write(args.output) as out:
        count = write_parallel(samples, out)
    _write_meta(args, samples=count)
    return 0


def _cmd_stats(args) -> int:
    samples = _read_samples(args)
    overall = overall_stats(samples)
    # The per-target-count table is defined over erroneous sources only.
    groups = filter_groups(
        group_by_source(samples), drop_correct=True, drop_identity_targets=True
    )
    text = render_stats_report(overall, bucket_stats(groups), as_json=args.json)
    _emit(args, text)
    return 0


def _cmd_to_m2(args) -> int:
    groups = _read_groups(args)
    blocks = (
        to_m2(
            group.source,
            [
                extract_edits(group.source, target, annotator_id=i)
                for i, target in enumerate(group.targets)
            ],
        )
        for group in groups
    )
    with _atomic_write(args.output) as out:
        count = write_m2_file(blocks, out)
    _write_meta(args, entries=count)
    return 0


def _cmd_apply_m2(args) -> int:
    count = 0
    with open(args.input, "rb") as stream, _name_errors(args.input):
        with _atomic_write(args.output) as out:
            for source, annotations in read_m2_file(stream):
                for annotation in annotations:
                    out.write(apply_edits(source, annotation) + "\n")
                    count += 1
    _write_meta(args, sentences=count)
    return 0


def _cmd_ablate(args) -> int:
    groups = _read_groups(args)
    datasets = build_ablation(
        groups, args.k_min, args.n_values, args.seed, max_groups=args.max_groups
    )
    written = {}
    for n, samples in datasets.items():
        path = f"{args.output}.n{n}.tsv"
        with _atomic_write(path) as out:
            written[path] = write_parallel(samples, out)
    _write_meta(args, outputs=written)
    return 0


def _cmd_score(args) -> int:
    with open(args.hyp, "rb") as stream, _name_errors(args.hyp):
        hypotheses = [normalize(line) for _, line in read_lines(stream)]
    with open(args.gold, "rb") as stream, _name_errors(args.gold):
        gold = list(read_m2_file(stream))
    if len(gold) != len(hypotheses):
        raise ValueError(
            f"{len(gold)} gold entries but {len(hypotheses)} hypothesis lines"
            f" (gold {args.gold}, hypotheses {args.hyp})"
        )
    entries = [
        (source, hypothesis, annotations)
        for (source, annotations), hypothesis in zip(gold, hypotheses)
    ]
    report = evaluate_corpus(entries)
    text = render_score_report(report, as_json=args.json)
    _emit(args, text)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    """The distinct integers of a comma-separated list, sorted."""
    try:
        return sorted({int(part) for part in text.split(",") if part})
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gecclean",
        description="Corpus curation toolkit for grammatical error correction data.",
    )
    parser.add_argument("--version", action="version", version=f"gecclean {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_corpus_input(sub):
        sub.add_argument("input", help="parallel corpus (TSV, UTF-8)")
        sub.add_argument(
            "--multi-target-lines",
            action="store_true",
            help="lines carry source<TAB>t1<TAB>t2... instead of one pair",
        )

    clean = commands.add_parser(
        "clean", help="keep exactly one target per unique source"
    )
    add_corpus_input(clean)
    clean.add_argument("-o", "--output", required=True, help="output TSV path")
    clean.add_argument(
        "--strategy", required=True, choices=STRATEGY_NAMES, help="selection strategy"
    )
    clean.add_argument("--seed", type=int, default=42, help="seed for the random strategy")
    clean.add_argument(
        "--drop-correct",
        action="store_true",
        help="drop identity targets and fully grammatical sources first",
    )
    clean.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="accepted for compatibility; must be at least 1, changes nothing",
    )
    clean.set_defaults(handler=_cmd_clean)

    stats = commands.add_parser("stats", help="corpus statistics report")
    add_corpus_input(stats)
    stats.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    stats.add_argument("--json", action="store_true", help="machine-readable output")
    stats.set_defaults(handler=_cmd_stats)

    to_m2_cmd = commands.add_parser(
        "to-m2", help="convert a parallel corpus to multi-annotator M2"
    )
    add_corpus_input(to_m2_cmd)
    to_m2_cmd.add_argument("-o", "--output", required=True, help="output M2 path")
    to_m2_cmd.add_argument(
        "--drop-correct",
        action="store_true",
        help="drop identity targets and fully grammatical sources first",
    )
    to_m2_cmd.set_defaults(handler=_cmd_to_m2)

    apply_m2 = commands.add_parser(
        "apply-m2", help="apply M2 edits, one corrected line per annotation"
    )
    apply_m2.add_argument("input", help="M2 file")
    apply_m2.add_argument("-o", "--output", required=True, help="output text path")
    apply_m2.set_defaults(handler=_cmd_apply_m2)

    ablate = commands.add_parser(
        "ablate", help="build fixed-source datasets with 1..n targets each"
    )
    add_corpus_input(ablate)
    ablate.add_argument(
        "-o", "--output", required=True, help="output prefix; writes <prefix>.n<N>.tsv"
    )
    ablate.add_argument(
        "--k-min", type=int, required=True, help="minimum targets per kept group"
    )
    ablate.add_argument(
        "--n-values",
        type=_int_list,
        required=True,
        help="comma-separated target counts, e.g. 1,2,3",
    )
    ablate.add_argument("--seed", type=int, default=42, help="shuffle seed")
    ablate.add_argument(
        "--max-groups",
        type=_positive_int,
        default=None,
        help="sub-sample to this many groups",
    )
    ablate.set_defaults(handler=_cmd_ablate)

    score = commands.add_parser(
        "score", help="edit-level P/R/F0.5 against multi-annotator M2 gold"
    )
    score.add_argument("--gold", required=True, help="gold M2 file")
    score.add_argument("--hyp", required=True, help="hypothesis file, one sentence per line")
    score.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    score.add_argument("--json", action="store_true", help="machine-readable output")
    score.set_defaults(handler=_cmd_score)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"gecclean {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
