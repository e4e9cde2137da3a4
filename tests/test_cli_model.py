"""The CLI's whole data flow against a model that never calls gecclean.

Hypothesis writes small corpora with LF and CRLF endings, space-padded
fields, blank and repeated lines, identity targets, multi-target lines, an
astral character and "e" + U+0301, which NFC composes to "é".  Every
command runs through ``cli.main``; the model parses, normalizes and groups
the corpus with the stdlib alone and ranks targets with ``tests/oracles.py``.
"""

import errno
import json
import math
import os
import tempfile
import unicodedata
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gecclean.cli import main
from oracles import align_full_matrix, levenshtein_distance_dp, merge_path

# Base sentences are NFC; U+00E9 may be written decomposed, U+20000 is astral.
ALPHABET = "ab我 \U00020000\u00e9"

sentences = st.text(alphabet=ALPHABET, min_size=1, max_size=8).map(str.strip).filter(bool)


@st.composite
def edited(draw, source: str) -> str:
    """``source`` with one character replaced: edits of one source often tie."""
    i = draw(st.integers(0, len(source) - 1))
    replaced = source[:i] + draw(st.sampled_from(ALPHABET)) + source[i + 1 :]
    return replaced.strip() or source


@st.composite
def written(draw, sentence: str) -> str:
    """``sentence`` as a corpus field: maybe decomposed, maybe padded."""
    if draw(st.booleans()):
        sentence = sentence.replace("\u00e9", "e\u0301")
    return " " * draw(st.integers(0, 2)) + sentence + " " * draw(st.integers(0, 2))


@st.composite
def corpora(draw) -> tuple[bytes, bool]:
    multi = draw(st.booleans())
    pool = draw(st.lists(sentences, min_size=1, max_size=4))
    lines = []
    for _ in range(draw(st.integers(1, 10))):
        if lines and draw(st.integers(0, 2)) == 0:
            lines.append(draw(st.sampled_from(lines)))  # a repeated line
            continue
        if lines and draw(st.integers(0, 9)) == 0:
            lines.append(" " * draw(st.integers(0, 2)))  # a blank line
            continue
        source = draw(st.sampled_from(pool))
        target = st.one_of(st.just(source), st.sampled_from(pool), edited(source))
        targets = draw(st.lists(target, min_size=1, max_size=4 if multi else 1))
        fields = [draw(written(sentence)) for sentence in [source, *targets]]
        lines.append("\t".join(fields))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines)))
    text = "".join(line + ending for line, ending in zip(lines, endings))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line ending after the last line
    return text.encode("utf-8"), multi


def model_samples(data: bytes) -> list[tuple[str, str]]:
    samples = []
    for line in data.decode("utf-8").split("\n"):
        line = line.rstrip("\r")
        if not line.strip():
            continue
        source, *targets = [unicodedata.normalize("NFC", f.strip()) for f in line.split("\t")]
        samples += [(source, target) for target in targets]
    return samples


def model_groups(samples, drop_correct: bool) -> list[tuple[str, list[str]]]:
    grouped: dict[str, dict[str, None]] = {}
    for source, target in samples:
        grouped.setdefault(source, {})[target] = None
    groups = []
    for source, targets in grouped.items():
        kept = [t for t in targets if not (drop_correct and t == source)]
        if kept:
            groups.append((source, kept))
    return groups


def lines_by_source(data: bytes) -> dict[str, list[str]]:
    """Each source's non-blank lines, as written, in first-appearance order."""
    lines: dict[str, list[str]] = {}
    for line in data.decode("utf-8").split("\n"):
        if line.strip():
            source = unicodedata.normalize("NFC", line.split("\t")[0].strip())
            lines.setdefault(source, []).append(line)
    return lines


def ratio(source: str, target: str) -> Fraction:
    total = len(source) + len(target)
    return Fraction(total - levenshtein_distance_dp(source, target), total)


def jaccard(source: str, target: str) -> Fraction:
    a, b = set(source), set(target)
    return Fraction(len(a & b), len(a | b))


def edit_count(source: str, target: str) -> int:
    return len(merge_path(align_full_matrix(source, target), target))


# Each strategy's key, with its best target ranking highest; max() keeps
# the first of equal keys, so ties go to first appearance.
KEYS = {
    "lev_sim": ratio,
    "lev_dis": lambda source, target: -ratio(source, target),
    "jac_sim": jaccard,
    "jac_dis": lambda source, target: -jaccard(source, target),
    "edi_least": lambda source, target: -edit_count(source, target),
    "edi_most": edit_count,
}


def model_clean(groups, key) -> str:
    """The ``clean`` output that keeps each group's highest-``key`` target."""
    return "".join(
        f"{source}\t{max(targets, key=lambda t: key(source, t))}\n"
        for source, targets in groups
    )


def bucket_label(size: int) -> str:
    return str(size) if size < 8 else ">=8"


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12


def check_stats(report: dict, samples) -> None:
    overall = report["overall"]
    count = len(samples)
    assert overall["samples"] == count
    assert overall["erroneous"] == sum(s != t for s, t in samples)
    assert overall["unique_sources"] == len({s for s, _ in samples})
    assert close(overall["mean_source_length"], sum(len(s) for s, _ in samples) / count)
    expected = math.fsum(float(ratio(s, t)) for s, t in samples) / count
    assert close(overall["mean_levenshtein_ratio"], expected)

    # The breakdown covers erroneous targets only, as --drop-correct keeps.
    groups = model_groups(samples, drop_correct=True)
    sizes = Counter(bucket_label(len(targets)) for _, targets in groups)
    labels = [label for label in [*map(str, range(1, 8)), ">=8"] if sizes[label]]
    rows = report["by_target_count"]
    assert [row["targets"] for row in rows] == labels + ["total"] * bool(labels)
    for row in rows:
        members = [
            (source, targets)
            for source, targets in groups
            if row["targets"] in ("total", bucket_label(len(targets)))
        ]
        assert row["sources"] == len(members)
        pairs = [(source, target) for source, targets in members for target in targets]
        ratios = [float(ratio(s, t)) for s, t in pairs]
        assert close(row["mean_levenshtein_ratio"], math.fsum(ratios) / len(pairs))
        edits = sum(edit_count(s, t) for s, t in pairs)
        assert close(row["mean_edits_per_target"], edits / len(pairs))


def check_m2_blocks(text: str, groups) -> None:
    blocks = text.split("\n\n") if text else []
    assert len(blocks) == len(groups)
    for block, (source, targets) in zip(blocks, groups):
        s_line, *a_lines = block.rstrip("\n").split("\n")
        assert s_line == "S " + " ".join(source)
        ids = [int(line.rsplit("|||", 1)[1]) for line in a_lines]
        assert ids == sorted(ids)
        assert list(dict.fromkeys(ids)) == list(range(len(targets)))


# Output name suffixes: without and with --drop-correct.
DROPS = ("", ".drop")


def run_commands(work: Path, multi: bool) -> None:
    corpus = str(work / "in.tsv")
    layout = ["--multi-target-lines"] if multi else []
    for drop in DROPS:
        options = layout + ["--drop-correct"] * bool(drop)
        for strategy in KEYS:
            output = str(work / f"{strategy}{drop}.tsv")
            assert main(["clean", corpus, "-o", output, "--strategy", strategy] + options) == 0
        m2 = str(work / f"gold{drop}.m2")
        assert main(["to-m2", corpus, "-o", m2] + options) == 0
        assert main(["apply-m2", m2, "-o", str(work / f"applied{drop}.txt")]) == 0
    assert main(["stats", corpus, "--json", "-o", str(work / "stats.json")] + layout) == 0
    gold, hyp = str(work / "gold.m2"), str(work / "hyp.txt")
    argv = ["score", "--gold", gold, "--hyp", hyp, "--json", "-o", str(work / "score.json")]
    assert main(argv) == 0


def snapshot(work: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(work.iterdir())}


@given(corpora())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_matches_model(corpus):
    data, multi = corpus
    samples = model_samples(data)
    with tempfile.TemporaryDirectory() as directory:
        work = Path(directory)
        (work / "in.tsv").write_bytes(data)
        groups = model_groups(samples, drop_correct=False)
        # Hypotheses for score: each source's first target.
        hypotheses = "".join(targets[0] + "\n" for _, targets in groups)
        (work / "hyp.txt").write_bytes(hypotheses.encode("utf-8"))
        run_commands(work, multi)

        def read(name: str) -> str:
            return (work / name).read_bytes().decode("utf-8")

        for drop in DROPS:
            kept = model_groups(samples, bool(drop))
            for strategy, key in KEYS.items():
                assert read(f"{strategy}{drop}.tsv") == model_clean(kept, key)
                sidecar = json.loads(read(f"{strategy}{drop}.tsv.meta.json"))
                assert sidecar["config"]["strategy"] == strategy
            check_m2_blocks(read(f"gold{drop}.m2"), kept)
            expected = "".join(t + "\n" for _, targets in kept for t in targets)
            assert read(f"applied{drop}.txt") == expected

        check_stats(json.loads(read("stats.json")), samples)

        score = json.loads(read("score.json"))
        assert score["fp"] == score["fn"] == 0
        assert score["tp"] == sum(edit_count(s, targets[0]) for s, targets in groups)

        before = snapshot(work)
        run_commands(work, multi)
        assert snapshot(work) == before


def read_pairs(path: Path) -> dict[str, str]:
    lines = path.read_bytes().decode("utf-8").split("\n")[:-1]
    return dict(line.split("\t") for line in lines)


@given(corpora(), st.integers(0, 2**64 - 1), st.booleans(), st.data())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_pick_ignores_other_sources(corpus, seed, drop, data):
    """``random`` keeps one of a source's targets, whatever other lines the
    corpus holds and in whatever order, so long as the source's own lines
    keep theirs."""
    text, multi = corpus
    lines = lines_by_source(text)
    sources = data.draw(st.permutations(list(lines)))
    sources = sources[: data.draw(st.integers(1, len(sources)))]
    subset = "".join(line + "\n" for source in sources for line in lines[source])
    options = ["--strategy", "random", "--seed", str(seed)]
    options += ["--multi-target-lines"] * multi + ["--drop-correct"] * drop
    with tempfile.TemporaryDirectory() as directory:
        work = Path(directory)
        picks = []
        for name, content in (("all", text), ("some", subset.encode("utf-8"))):
            (work / f"{name}.tsv").write_bytes(content)
            argv = ["clean", str(work / f"{name}.tsv"), "-o", str(work / f"{name}.out")]
            assert main(argv + options) == 0
            picks.append(read_pairs(work / f"{name}.out"))
            sidecar = json.loads((work / f"{name}.out.meta.json").read_bytes())
            assert sidecar["config"]["strategy"] == "random"
    everything, some = picks
    groups = model_groups(model_samples(text), drop)
    assert list(everything) == [source for source, _ in groups]
    for source, targets in groups:
        assert everything[source] in targets
    assert some == {source: everything[source] for source in sources if source in everything}
    assert list(some) == [source for source in sources if source in everything]


def test_failed_sidecar_rename_leaves_a_complete_output(tmp_path, monkeypatch):
    """A rerun whose sidecar rename fails exits 1 and leaves no temporary
    file, and the output is one of the two complete outputs.

    It is the new one, beside the old sidecar: a sidecar does not yet pin
    its output's bytes.
    """
    text = b"abcdef\txbcdey\tabc\n"
    corpus = tmp_path / "in.tsv"
    corpus.write_bytes(text)
    groups = model_groups(model_samples(text), drop_correct=False)
    complete = {model_clean(groups, key) for key in KEYS.values()}
    assert len(complete) == 2  # lev_sim keeps "xbcdey", edi_least keeps "abc"
    out = tmp_path / "out.tsv"
    argv = ["clean", str(corpus), "-o", str(out), "--multi-target-lines", "--strategy"]
    assert main(argv + ["lev_sim"]) == 0
    replace = os.replace

    def failing_replace(src, dst):
        if str(dst).endswith(".meta.json"):
            raise OSError(errno.EIO, "injected failure")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(argv + ["edi_least"]) == 1
    assert not list(tmp_path.glob("*.tmp"))
    assert out.read_bytes().decode("utf-8") in complete
    sidecar = json.loads((tmp_path / "out.tsv.meta.json").read_text(encoding="utf-8"))
    assert sidecar["config"]["strategy"] in KEYS


def sidecar_runs(work: Path) -> dict[str, list[str]]:
    """One run of each sidecar-writing command, all writing ``out``."""
    tsv, gold, hyp, out = (str(work / name) for name in ("in.tsv", "gold.m2", "hyp.txt", "out"))
    return {
        "clean": ["clean", tsv, "-o", out, "--strategy", "lev_sim"],
        "stats": ["stats", tsv, "-o", out],
        "to-m2": ["to-m2", tsv, "-o", out],
        "apply-m2": ["apply-m2", gold, "-o", out],
        "score": ["score", "--gold", gold, "--hyp", hyp, "-o", out],
        "ablate": ["ablate", tsv, "-o", out, "--k-min", "1", "--n-values", "1"],
    }


def write_inputs(work: Path, pairs: list[tuple[str, str]]) -> None:
    (work / "in.tsv").write_bytes("".join(f"{s}\t{t}\n" for s, t in pairs).encode("utf-8"))
    assert main(["to-m2", str(work / "in.tsv"), "-o", str(work / "gold.m2")]) == 0
    hypotheses = ["abcxef"] + [t for _, t in pairs[1:]]
    (work / "hyp.txt").write_bytes("".join(h + "\n" for h in hypotheses).encode("utf-8"))


def rerun_argv(work: Path, command: str) -> list[str]:
    """Run ``command``, then change its inputs; the returned rerun would
    change its output and its sidecar (through a count or ``--json``)."""
    argv = sidecar_runs(work)[command]
    write_inputs(work, [("abcdef", "abcxef")])
    assert main(argv) == 0
    write_inputs(work, [("abcdef", "abc"), ("pq", "pqr")])
    return argv + ["--json"] * (command in ("stats", "score"))


SIDECAR_COMMANDS = list(sidecar_runs(Path()))


def assert_rerun_changes_both(work: Path, argv: list[str], before: dict[str, bytes]) -> None:
    assert main(argv) == 0
    after = snapshot(work)
    assert after["out.meta.json"] != before["out.meta.json"]
    assert {name for name in after if after[name] != before.get(name)} - {"out.meta.json"}


@pytest.mark.parametrize("command", SIDECAR_COMMANDS)
def test_unwritable_sidecar_replaces_nothing(tmp_path, capsys, command):
    """A run whose sidecar cannot be opened exits 1 before any output is
    renamed: every file keeps its bytes."""
    argv = rerun_argv(tmp_path, command)
    before = snapshot(tmp_path)
    blocker = tmp_path / f"out.meta.json.{os.getpid()}.tmp"
    blocker.mkdir()
    assert main(argv) == 1
    assert "out.meta.json" in capsys.readouterr().err
    blocker.rmdir()
    assert snapshot(tmp_path) == before
    assert not list(tmp_path.glob("*.tmp"))
    assert_rerun_changes_both(tmp_path, argv, before)


@pytest.mark.parametrize("command", SIDECAR_COMMANDS)
def test_failed_output_rename_keeps_the_sidecar(tmp_path, monkeypatch, command):
    """The sidecar is renamed after its output: when the output's rename
    fails, the previous sidecar still describes the previous output."""
    argv = rerun_argv(tmp_path, command)
    before = snapshot(tmp_path)
    replace = os.replace

    def failing_replace(src, dst):
        if not str(dst).endswith(".meta.json"):
            raise OSError(errno.EIO, "injected failure")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(argv) == 1
    assert snapshot(tmp_path) == before
    assert not list(tmp_path.glob("*.tmp"))
    monkeypatch.undo()
    assert_rerun_changes_both(tmp_path, argv, before)


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


def fill_disk(work: Path, name: str) -> None:
    """Point the run's temporary file for ``name`` at /dev/full, so the
    flush of its last bytes fails with ENOSPC."""
    (work / f"{name}.{os.getpid()}.tmp").symlink_to("/dev/full")


def assert_failed_cleanly(work: Path, err: str, name: str, before: dict[str, bytes]) -> None:
    """A failed run named ``name`` in its error, left no temporary file
    (checked before the snapshot reads a link to /dev/full, which never
    ends) and changed no file."""
    assert f"No space left on device: '{work / name}'" in err
    assert not list(work.glob("*.tmp"))
    assert snapshot(work) == before


@needs_dev_full
@pytest.mark.parametrize("victim", ["output", "sidecar"])
@pytest.mark.parametrize("command", SIDECAR_COMMANDS)
def test_full_disk_replaces_nothing(tmp_path, capsys, command, victim):
    """A run whose output or sidecar cannot be written out exits 1 before
    any rename, and the error names that file."""
    argv = rerun_argv(tmp_path, command)
    before = snapshot(tmp_path)
    name = "out.n1.tsv" if command == "ablate" else "out"
    if victim == "sidecar":
        name = "out.meta.json"
    fill_disk(tmp_path, name)
    assert main(argv) == 1
    assert_failed_cleanly(tmp_path, capsys.readouterr().err, name, before)
    assert_rerun_changes_both(tmp_path, argv, before)


# Three targets for each of 2,000 sources: every output written from them
# outgrows the stream buffer, so a full disk fails in the handler's own
# writes rather than at close.
LARGE = [
    (f"abcdef{i}", target)
    for i in range(2000)
    for target in (f"abcxef{i}", f"abc{i}", f"xbcdey{i}")
]


@needs_dev_full
@pytest.mark.parametrize("command", ["clean", "to-m2", "apply-m2"])
def test_full_disk_while_writing_names_the_output(tmp_path, capsys, command):
    """A write error in the handler's body names ``-o``, not only one at close."""
    argv = rerun_argv(tmp_path, command)
    write_inputs(tmp_path, LARGE)
    before = snapshot(tmp_path)
    fill_disk(tmp_path, "out")
    assert main(argv) == 1
    assert_failed_cleanly(tmp_path, capsys.readouterr().err, "out", before)


def test_read_error_names_the_input_not_the_output(tmp_path, capsys, monkeypatch):
    """A read error that names no file, raised while ``apply-m2`` writes,
    names the M2 input."""
    import gecclean.m2

    argv = rerun_argv(tmp_path, "apply-m2")
    before = snapshot(tmp_path)
    read_m2_file = gecclean.m2.read_m2_file

    def failing_read(lines):
        yield from read_m2_file(lines)
        raise OSError(errno.EIO, "injected failure")

    monkeypatch.setattr(gecclean.m2, "read_m2_file", failing_read)
    assert main(argv) == 1
    assert f"injected failure: '{tmp_path / 'gold.m2'}'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.tmp"))
    assert snapshot(tmp_path) == before


def ablate_rerun(work: Path) -> list[str]:
    """Run ``ablate`` over one group of three targets, then change the
    group; the returned rerun changes every output and the sidecar."""
    corpus = work / "in.tsv"
    argv = ["ablate", str(corpus), "-o", str(work / "out"), "--k-min", "3", "--n-values", "1,2,3"]
    corpus.write_bytes(b"abcdef\tabcxef\nabcdef\tabc\nabcdef\txbcdey\n")
    assert main(argv) == 0
    corpus.write_bytes(b"pqrs\tpqr\npqrs\tpqrst\npqrs\tqrs\n")
    return argv + ["--seed", "7"]


def test_ablate_renames_complete_files_in_order(tmp_path, monkeypatch):
    """Every file holds its final bytes before the first rename; the
    outputs are renamed by N, and the sidecar last."""
    argv = ablate_rerun(tmp_path)
    before = snapshot(tmp_path)
    replace = os.replace
    renamed: list[str] = []
    held: dict[str, bytes] = {}

    def recording_replace(src, dst):
        if not renamed:
            held.update((path.name, path.read_bytes()) for path in tmp_path.glob("*.tmp"))
        renamed.append(Path(dst).name)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    assert main(argv) == 0
    assert renamed == ["out.n1.tsv", "out.n2.tsv", "out.n3.tsv", "out.meta.json"]
    after = snapshot(tmp_path)
    assert held == {f"{name}.{os.getpid()}.tmp": after[name] for name in renamed}
    assert all(after[name] != before[name] for name in renamed)
    assert json.loads(after["out.meta.json"])["config"]["seed"] == 7


@needs_dev_full
def test_ablate_full_disk_on_its_first_output_replaces_nothing(tmp_path, capsys):
    """The outputs renamed after the one that fails are not replaced either."""
    argv = ablate_rerun(tmp_path)
    before = snapshot(tmp_path)
    fill_disk(tmp_path, "out.n1.tsv")
    assert main(argv) == 1
    assert_failed_cleanly(tmp_path, capsys.readouterr().err, "out.n1.tsv", before)


@needs_dev_full
@pytest.mark.parametrize("name", ["out.n1.tsv", "out.n2.tsv"])
def test_ablate_full_disk_while_writing_names_that_output(tmp_path, capsys, name):
    """The error names the dataset being written, not the first or the last."""
    argv = ablate_rerun(tmp_path)
    write_inputs(tmp_path, LARGE)
    before = snapshot(tmp_path)
    fill_disk(tmp_path, name)
    assert main(argv) == 1
    assert_failed_cleanly(tmp_path, capsys.readouterr().err, name, before)


def read_lines_of(path: str) -> list[str]:
    text = Path(path).read_bytes().decode("utf-8")
    assert text == "" or text.endswith("\n")
    return text.split("\n")[:-1]


@given(corpora(), st.integers(1, 3), st.data())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_ablate_matches_model(corpus, k_min, data):
    text, multi = corpus
    n_values = data.draw(st.lists(st.integers(1, k_min), min_size=1, max_size=3))
    max_groups = data.draw(st.none() | st.integers(1, 4))
    groups = [
        (source, targets)
        for source, targets in model_groups(model_samples(text), drop_correct=False)
        if len(targets) >= k_min
    ]
    sizes = sorted(set(n_values))
    with tempfile.TemporaryDirectory() as directory:
        work = Path(directory)
        (work / "in.tsv").write_bytes(text)
        prefix = str(work / "out")
        argv = ["ablate", str(work / "in.tsv"), "-o", prefix, "--k-min", str(k_min)]
        argv += ["--n-values", ",".join(map(str, n_values))]
        argv += ["--seed", str(data.draw(st.integers(0, 2**32)))]
        argv += ["--multi-target-lines"] * multi
        argv += ["--max-groups", str(max_groups)] * (max_groups is not None)
        assert main(argv) == 0
        paths = {n: f"{prefix}.n{n}.tsv" for n in sizes}
        datasets = {n: read_lines_of(paths[n]) for n in sizes}

        picks = {}  # each dataset's targets per source, in source order
        for n, lines in datasets.items():
            by_source: dict[str, list[str]] = {}
            for line in lines:
                source, target = line.split("\t")
                by_source.setdefault(source, []).append(target)
            assert lines == [f"{s}\t{t}" for s, targets in by_source.items() for t in targets]
            assert all(len(targets) == n for targets in by_source.values())
            picks[n] = by_source

        # Kept: the groups with at least k_min distinct targets, in order,
        # or a subsequence of max_groups of them.
        kept = list(picks[sizes[0]])
        expected = [source for source, _ in groups]
        if max_groups is None or max_groups >= len(expected):
            assert kept == expected
        else:
            remaining = iter(expected)
            assert len(kept) == max_groups
            assert all(source in remaining for source in kept)
        for n in sizes:
            assert len(datasets[n]) == n * len(kept)
        for small, large in zip(sizes, sizes[1:]):
            assert list(picks[large]) == kept
            for source in kept:
                assert picks[large][source][:small] == picks[small][source]
        distinct = dict(groups)
        for source, targets in picks[sizes[-1]].items():
            assert len(set(targets)) == len(targets)
            assert set(targets) <= set(distinct[source])

        sidecar = json.loads(Path(f"{prefix}.meta.json").read_text(encoding="utf-8"))
        assert sidecar["config"]["outputs"] == {
            paths[n]: len(lines) for n, lines in datasets.items()
        }
        before = snapshot(work)
        assert main(argv) == 0
        assert snapshot(work) == before
