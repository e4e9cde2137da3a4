"""Command-line front end wiring the pipeline together.

Every command is deterministic: the same configuration and inputs produce
byte-identical outputs.  File-writing commands record their configuration
in a ``<output>.meta.json`` sidecar, and close it and every output before
any replaces its path: the outputs in order, then the sidecar.

Each handler imports the library modules its command calls, so a run
compiles and executes only those: ``--version`` and ``--help`` load none.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
from typing import IO, Iterator

from . import __version__


def _read(path: str, parse, **options) -> Iterator:
    """Yield what ``parse(stream, **options)`` reads from ``path``, opened ``"rb"``.

    A bad line of any input raises ``ParallelFormatError`` with the line
    only; the message becomes ``<path>: line N: ...``, and a read error,
    which names no file, names ``path``.  Every input file is read through
    here, so each input error names its file the same way.
    """
    from .corpus import ParallelFormatError

    with open(path, "rb") as stream:
        try:
            yield from parse(stream, **options)
        except ParallelFormatError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None


def _read_samples(args) -> Iterator[tuple[str, str]]:
    """The input's ``(source, target)`` pairs, as ``parse_parallel`` reads them.

    They are plain tuples, parsed a run of lines at a time.
    """
    from .corpus import _pair_runs

    return itertools.chain.from_iterable(
        _read(args.input, _pair_runs, multi_target=args.multi_target_lines)
    )


def _read_groups(args) -> Iterator:
    """The input's source groups, less what ``--drop-correct`` drops if given.

    The whole input is read, and any input error raised, before this
    returns; the groups are then made as they are iterated.
    """
    from .corpus import _kept_groups, _source_groups

    groups = _source_groups(_read_samples(args))
    if getattr(args, "drop_correct", False):
        groups = _kept_groups(groups, drop=True)
    return groups


# How much of a sentence an error message quotes.
_SHOWN_CHARS = 40

# Parsed arguments that are not configuration: dispatch, the output's own
# path, and --threads, which changes nothing.
_NOT_CONFIG = frozenset({"command", "handler", "output", "threads"})


@contextlib.contextmanager
def _outputs(args, *paths: str) -> Iterator[tuple[Iterator[IO[str]], dict]]:
    """Yield an iterator over the streams of ``paths`` and a dict for the sidecar's counts.

    The ``<output>.meta.json`` sidecar records every parsed argument outside
    ``_NOT_CONFIG``, plus the counts, so a new option is recorded without
    further code.  Each file is written to ``<path>.<pid>.tmp``: the outputs'
    are opened in order, then the sidecar's, so an unwritable output is
    named first.  After the body, the outputs are closed, then the sidecar
    is written and closed, and only then is each renamed over its path, the
    sidecar last.  On an error every temporary file is removed, and an
    ``OSError`` that names no file or a temporary one is re-raised with the
    path of the file being opened, written, closed or renamed; the body
    writes the output whose stream it took last.
    """
    import json

    config = {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG}
    meta = dict(tool="gecclean", version=__version__, command=args.command, config=config)
    paths = (*paths, f"{args.output}.meta.json")
    temps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    streams: list[IO[str]] = []
    path = None  # the file an OSError names

    def hand_out() -> Iterator[IO[str]]:
        # ``path`` follows the outputs as the body takes them.
        nonlocal path
        for path, out in zip(paths, outputs):
            yield out

    try:
        for path, temp in zip(paths, temps):
            streams.append(open(temp, "w", encoding="utf-8", newline="\n"))
        path = None
        *outputs, sidecar = streams
        yield hand_out(), config
        for path, out in zip(paths, outputs):
            out.close()
        path = paths[-1]
        sidecar.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        sidecar.close()
        for path, temp in zip(paths, temps):
            os.replace(temp, path)
    except BaseException as exc:
        for stream in streams:
            with contextlib.suppress(OSError):
                stream.close()
        for temp in temps[: len(streams)]:
            with contextlib.suppress(OSError):
                os.remove(temp)
        if isinstance(exc, OSError) and path is not None and exc.filename in (None, *temps):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _emit(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        with _outputs(args, args.output) as ((out,), _):
            out.write(text)


def _cmd_clean(args) -> None:
    from .corpus import write_parallel
    from .onetarget import SelectionConfig, Strategy, _ranking, select

    config = SelectionConfig(Strategy(args.strategy), args.seed)
    # Before the corpus is in memory, so an aligner's compile does not
    # stack on it.
    _ranking(config.strategy)
    groups = _read_groups(args)
    with _outputs(args, args.output) as ((out,), counts):
        counts["samples"] = write_parallel((select(group, config) for group in groups), out)


def _cmd_stats(args) -> None:
    from .stats import corpus_stats, render_report

    _emit(args, render_report(*corpus_stats(_read_samples(args)), as_json=args.json))


def _cmd_to_m2(args) -> None:
    from .edits import extract_edits
    from .m2 import to_m2, write_m2_file

    groups = _read_groups(args)

    def block(group) -> str:
        annotations = [
            extract_edits(group.source, target, annotator_id=i)
            for i, target in enumerate(group.targets)
        ]
        try:
            return to_m2(group.source, annotations)
        except ValueError as exc:
            # Groups carry no line number: name the sentence instead.
            raise ValueError(
                f"{args.input}: source starting {group.source[:_SHOWN_CHARS]!r}: {exc}"
            ) from exc

    with _outputs(args, args.output) as ((out,), counts):
        counts["entries"] = write_m2_file(map(block, groups), out)


def _cmd_apply_m2(args) -> None:
    from .m2 import apply_edits, read_m2_file

    count = 0
    with _outputs(args, args.output) as ((out,), counts):
        for source, annotations in _read(args.input, read_m2_file):
            for annotation in annotations:
                out.write(apply_edits(source, annotation) + "\n")
                count += 1
        counts["sentences"] = count


def _cmd_ablate(args) -> None:
    from .corpus import write_parallel
    from .onetarget import build_ablation

    groups = _read_groups(args)
    datasets = build_ablation(
        groups, args.k_min, args.n_values, args.seed, max_groups=args.max_groups
    )
    paths = [f"{args.output}.n{n}.tsv" for n in datasets]
    with _outputs(args, *paths) as (streams, counts):
        counts["outputs"] = {
            path: write_parallel(samples, out)
            for path, samples, out in zip(paths, datasets.values(), streams)
        }


def _score_entries(args) -> Iterator[tuple[str, str, list]]:
    """Yield (source, hypothesis, annotations), reading entry k before line k.

    A count mismatch is raised once both files are read, after any format error.
    """
    from .corpus import normalize, read_lines
    from .m2 import read_m2_file

    gold = _read(args.gold, read_m2_file)
    hypotheses = _read(args.hyp, read_lines)
    entries = lines = 0
    for entry, numbered in itertools.zip_longest(gold, hypotheses):
        entries += entry is not None
        lines += numbered is not None
        if entries == lines:
            (source, annotations), (_, line) = entry, numbered
            yield source, normalize(line), annotations
    if entries != lines:
        raise ValueError(
            f"{entries} gold entries but {lines} hypothesis lines"
            f" (gold {args.gold}, hypotheses {args.hyp})"
        )
    if not entries:
        raise ValueError(f"{args.gold}: cannot score an empty corpus")


def _cmd_score(args) -> None:
    from .scorer import evaluate_corpus, render_report

    report = evaluate_corpus(_score_entries(args))
    _emit(args, render_report(report, as_json=args.json))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _strategy(name: str) -> str:
    """``name`` once ``Strategy(name)`` accepts it; its error lists the valid names."""
    from .onetarget import Strategy

    try:
        Strategy(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return name


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

    def add_drop_correct(sub):
        sub.add_argument(
            "--drop-correct",
            action="store_true",
            help="drop identity targets and fully grammatical sources first",
        )

    clean = commands.add_parser(
        "clean", help="keep exactly one target per unique source"
    )
    add_corpus_input(clean)
    clean.add_argument("-o", "--output", required=True, help="output TSV path")
    clean.add_argument(
        "--strategy",
        required=True,
        type=_strategy,
        help="selection strategy; an unknown name lists the valid ones",
    )
    clean.add_argument("--seed", type=int, default=42, help="seed for the random strategy")
    add_drop_correct(clean)
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
    add_drop_correct(to_m2_cmd)
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
        args.handler(args)
    # Under -W error the long-pair flag is raised as a Warning.
    except (ValueError, OSError, Warning) as exc:
        print(f"gecclean {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
