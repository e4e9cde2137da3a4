import ast
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from gecclean import __version__
from gecclean.corpus import filter_groups, group_by_source, parse_parallel
from gecclean.edits import extract_edits
from gecclean.m2 import to_m2
from gecclean.onetarget import SelectionConfig, Strategy, clean_corpus
from gecclean.cli import main

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"

TWO_GROUP_TSV = "abcd\tabcf\nabcd\tab\npq\tpqr\n"


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


class TestClean:
    def test_unknown_strategy_lists_valid_names(self, tmp_path, capsys):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        with pytest.raises(SystemExit) as excinfo:
            main(["clean", str(corpus), "-o", str(tmp_path / "x"), "--strategy", "bogus"])
        assert excinfo.value.code != 0
        message = capsys.readouterr().err
        for name in (
            "lev_sim", "lev_dis", "jac_sim", "jac_dis", "edi_least", "edi_most", "random",
        ):
            assert name in message

    def test_rerun_is_bit_exact(self, tmp_path):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV * 50)
        out = tmp_path / "out.tsv"
        main(["clean", str(corpus), "-o", str(out), "--strategy", "random"])
        first = out.read_bytes()
        meta_first = (tmp_path / "out.tsv.meta.json").read_bytes()
        out.unlink()
        main(["clean", str(corpus), "-o", str(out), "--strategy", "random"])
        assert out.read_bytes() == first
        assert (tmp_path / "out.tsv.meta.json").read_bytes() == meta_first

    def test_library_drop_correct_selects_as_the_flag(self, tmp_path):
        # "cd" has an identity target beside its correction; "ab" only its own.
        text = "cd\tcd\ncd\tce\nab\tab\n"
        corpus = write(tmp_path / "in.tsv", text)
        groups = group_by_source(parse_parallel(text.splitlines()))
        kept = filter_groups(groups, drop_correct=True)
        out = tmp_path / "out.tsv"
        for strategy in Strategy:
            if strategy is Strategy.RANDOM:
                continue
            argv = ["clean", str(corpus), "-o", str(out), "--strategy", strategy.value]
            assert main(argv + ["--drop-correct"]) == 0
            picked = clean_corpus(kept, SelectionConfig(strategy))
            assert out.read_text(encoding="utf-8") == "".join(f"{s}\t{t}\n" for s, t in picked)

    def test_unwritable_output_names_its_path(self, tmp_path, capsys):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        out = tmp_path / "missing" / "out.tsv"
        assert main(["clean", str(corpus), "-o", str(out), "--strategy", "lev_sim"]) == 1
        assert f"No such file or directory: '{out}'\n" in capsys.readouterr().err

    def test_output_that_is_a_directory_names_its_path(self, tmp_path, capsys):
        # The rename over the output fails, not the open of the temporary
        # file; the message still names only the path asked for.
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        out = tmp_path / "out.tsv"
        out.mkdir()
        assert main(["clean", str(corpus), "-o", str(out), "--strategy", "lev_sim"]) == 1
        err = capsys.readouterr().err
        assert f"Is a directory: '{out}'\n" in err
        assert ".tmp" not in err
        assert list(tmp_path.glob("*.tmp")) == []


class TestInputReadBeforeOutputs:
    """``clean`` and ``to-m2`` read their whole input before opening an output."""

    OPTIONS = {"clean": ["--strategy", "lev_sim"], "to-m2": []}

    @pytest.mark.parametrize("command", ["clean", "to-m2"])
    @pytest.mark.parametrize("bad_input", ["malformed", "missing"])
    def test_input_error_comes_first(self, tmp_path, capsys, command, bad_input):
        out = tmp_path / "out"
        argv = [command, str(write(tmp_path / "ok.tsv", TWO_GROUP_TSV)), "-o", str(out)]
        assert main(argv + self.OPTIONS[command]) == 0
        output, sidecar = out.read_bytes(), (tmp_path / "out.meta.json").read_bytes()
        corpus = tmp_path / "in.tsv"
        if bad_input == "malformed":
            write(corpus, "ab\tac\nbroken\n")
            expected = f"error: {corpus}: line 2: expected at least 2 tab-separated fields\n"
        else:
            expected = f"No such file or directory: '{corpus}'\n"
        before = sorted(tmp_path.iterdir())
        # An output in a directory that does not exist, then a previous one.
        for target in (tmp_path / "missing" / "out", out):
            argv = [command, str(corpus), "-o", str(target), *self.OPTIONS[command]]
            assert main(argv) == 1
            assert capsys.readouterr().err.endswith(expected)
        assert out.read_bytes() == output
        assert (tmp_path / "out.meta.json").read_bytes() == sidecar
        assert sorted(tmp_path.iterdir()) == before


class TestPerGroupMemory:
    """Traced bytes per group.

    The difference between two corpus sizes cancels the constant costs.
    On Python 3.10-3.13, where every source has one target, with a dict of
    targets per source and a list of groups, ``clean`` read 357-454 bytes
    a group and ``stats`` 421-537; with a lone target held as its string,
    179-229 and 286-361; with equal per-pair values in ``stats`` sharing
    one tuple, ``stats`` read 213-255, against 292-335 without it on the
    same machine.  Where every source has two targets, ``ablate`` read
    688-737 while it made each dataset's samples apart, and 545-651 with
    every dataset sharing a group's samples.
    """

    SIZES = (4000, 8000)

    def peak(self, tmp_path, argv, groups, last_chars):
        # One target per character of ``last_chars``, which ends it.
        lines = "".join(
            f"{i:06d}我能胜任\t{i:06d}我能胜{last}\n" for i in range(groups) for last in last_chars
        )
        corpus = write(tmp_path / f"in{groups}.tsv", lines)
        tracemalloc.start()
        try:
            assert main([argv[0], str(corpus), "-o", str(tmp_path / "out"), *argv[1:]]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def per_group(self, tmp_path, argv, last_chars) -> float:
        # Imports and caches fill before anything is traced.
        self.peak(tmp_path, argv, 10, last_chars)
        small, large = (self.peak(tmp_path, argv, n, last_chars) for n in self.SIZES)
        return (large - small) / (self.SIZES[1] - self.SIZES[0])

    @pytest.mark.parametrize(
        "argv", [["clean", "--strategy", "lev_sim"], ["stats"]], ids=["clean", "stats"]
    )
    def test_singleton_groups(self, tmp_path, argv):
        assert self.per_group(tmp_path, argv, "这") < 290

    def test_two_target_groups(self, tmp_path):
        argv = ["ablate", "--k-min", "2", "--n-values", "1,2"]
        assert self.per_group(tmp_path, argv, "这那") < 670


class TestStats:
    def test_golden_text_output(self, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["stats", str(DATA / "stats_fixture.tsv"), "-o", str(out)]) == 0
        golden = (DATA / "stats_golden.txt").read_text(encoding="utf-8")
        assert out.read_text(encoding="utf-8") == golden


class TestM2Pipeline:
    def test_score_against_most_favorable_annotator(self, tmp_path, capsys):
        corpus = write(
            tmp_path / "in.tsv",
            "我能胜任这此职务\t我能胜任这职务。\n我能胜任这此职务\t我能胜任此职务。\n",
        )
        gold = tmp_path / "gold.m2"
        main(["to-m2", str(corpus), "-o", str(gold)])
        hyp = write(tmp_path / "hyp.txt", "我能胜任此职务。\n")
        assert main(["score", "--gold", str(gold), "--hyp", str(hyp), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f0.5"] == 1.0

    def test_hypothesis_lines_end_at_newline_only(self, tmp_path, capsys):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        gold = tmp_path / "gold.m2"
        main(["to-m2", str(corpus), "-o", str(gold)])
        # A lone CR is not a line break: this is one hypothesis, not two.
        hyp = tmp_path / "hyp.txt"
        hyp.write_bytes(b"ax\rcd\n")
        assert main(["score", "--gold", str(gold), "--hyp", str(hyp)]) == 1
        err = capsys.readouterr().err
        assert "2 gold entries but 1 hypothesis lines" in err
        assert f"(gold {gold}, hypotheses {hyp})" in err

    def test_crlf_hypotheses_score_like_lf(self, tmp_path, capsys):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        gold = tmp_path / "gold.m2"
        main(["to-m2", str(corpus), "-o", str(gold)])
        reports = []
        for name, data in (("lf.txt", b"abcf\npq\n"), ("crlf.txt", b"abcf\r\npq\r\n")):
            hyp = tmp_path / name
            hyp.write_bytes(data)
            assert main(["score", "--gold", str(gold), "--hyp", str(hyp), "--json"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["recall"] < 1.0

    def test_score_output_file_and_sidecar(self, tmp_path):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        gold = tmp_path / "gold.m2"
        main(["to-m2", str(corpus), "-o", str(gold)])
        hyp = write(tmp_path / "hyp.txt", "abcf\npqr\n")
        report = tmp_path / "report.txt"
        assert main(["score", "--gold", str(gold), "--hyp", str(hyp), "-o", str(report)]) == 0
        assert "f0.5       1.0000" in report.read_text(encoding="utf-8")
        meta = json.loads((tmp_path / "report.txt.meta.json").read_text(encoding="utf-8"))
        assert meta["command"] == "score"

    def test_failed_to_m2_keeps_previous_output_and_sidecar(self, tmp_path, capsys):
        good = write(tmp_path / "ok.tsv", TWO_GROUP_TSV)
        gold = tmp_path / "gold.m2"
        assert main(["to-m2", str(good), "-o", str(gold)]) == 0
        before = sorted(tmp_path.iterdir())
        output, sidecar = gold.read_bytes(), (tmp_path / "gold.m2.meta.json").read_bytes()
        # The last target cannot be written as M2, after many that can.
        lines = [f"s{i}x\ts{i}y" for i in range(2000)] + ["ab\ta|||b"]
        bad = write(tmp_path / "bad.tsv", "\n".join(lines) + "\n")
        assert main(["to-m2", str(bad), "-o", str(gold)]) == 1
        assert "collides with M2 markers" in capsys.readouterr().err
        assert gold.read_bytes() == output
        assert (tmp_path / "gold.m2.meta.json").read_bytes() == sidecar
        assert sorted(tmp_path.iterdir()) == sorted(before + [bad])

    # A trailing "|" collides too: read at the leftmost "|||", the field
    # "x|" and its end "|||REQUIRED" would split as "x", "|REQUIRED".
    @pytest.mark.parametrize("target", ["x|||z", "-NONE-", "xy|"])
    def test_marker_collision_names_file_and_source(self, tmp_path, capsys, target):
        good = write(tmp_path / "ok.tsv", TWO_GROUP_TSV)
        gold = tmp_path / "gold.m2"
        assert main(["to-m2", str(good), "-o", str(gold)]) == 0
        before = sorted(tmp_path.iterdir())
        output = gold.read_bytes()
        bad = write(tmp_path / "bad.tsv", f"abcd\tabce\nxyz\t{target}\n")
        assert main(["to-m2", str(bad), "-o", str(gold)]) == 1
        err = capsys.readouterr().err
        assert f"error: {bad}: source starting 'xyz': replacement " in err
        assert "collides with M2 markers" in err
        assert gold.read_bytes() == output
        assert sorted(tmp_path.iterdir()) == sorted(before + [bad])

    def test_long_pair_warning_printed_once(self, tmp_path):
        lines = [f"{i}{'a' * 600}\t{i}{'a' * 600}b" for i in range(5)]
        corpus = write(tmp_path / "long.tsv", "\n".join(lines) + "\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [
                sys.executable, "-m", "gecclean.cli",
                "to-m2", str(corpus), "-o", str(tmp_path / "long.m2"),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert result.stderr.count("aligning an unusually long pair") == 1
        assert "UserWarning" in result.stderr

    @pytest.mark.parametrize(
        "command, options",
        [("to-m2", []), ("clean", ["--strategy", "edi_least"])],
    )
    def test_long_pair_warning_as_error_is_one_error_line(
        self, tmp_path, capsys, command, options
    ):
        # Under -W error the long-pair flag is raised: main reports it as
        # any other error and keeps the previous output.
        corpus = write(tmp_path / "long.tsv", f"{'a' * 600}\t{'a' * 600}b\t{'a' * 600}c\n")
        out = write(tmp_path / "out", "previous\n")
        argv = [command, str(corpus), "-o", str(out), "--multi-target-lines", *options]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"gecclean {command}: error: aligning an unusually long pair (over 512 characters)\n"
        )
        assert out.read_text(encoding="utf-8") == "previous\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_long_identity_pair_is_not_flagged(self, tmp_path):
        # An identical pair takes no alignment, as stats already skips it.
        long = "a" * 600
        corpus = write(tmp_path / "in.tsv", f"{long}\t{long}\n")
        hyp = write(tmp_path / "hyp.txt", f"{long}\n")
        gold = str(tmp_path / "gold.m2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["to-m2", str(corpus), "-o", gold]) == 0
            assert main(["score", "--gold", gold, "--hyp", str(hyp)]) == 0

    @pytest.mark.parametrize(
        "command, bad_file",
        [
            ("score", "hyp"),
            ("score", "gold"),
            ("apply-m2", "gold"),
            ("clean", "tsv"),
        ],
    )
    def test_invalid_utf8_names_file_and_line(self, tmp_path, capsys, command, bad_file):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        gold = tmp_path / "gold.m2"
        main(["to-m2", str(corpus), "-o", str(gold)])
        hyp = write(tmp_path / "hyp.txt", "abcf\npqr\n")
        target = {"hyp": hyp, "gold": gold, "tsv": corpus}[bad_file]
        lines = target.read_bytes().split(b"\n")
        lines[1] = lines[1][:6] + b"\xff" + lines[1][6:]
        target.write_bytes(b"\n".join(lines))
        if command == "score":
            argv = ["score", "--gold", str(gold), "--hyp", str(hyp)]
        elif command == "apply-m2":
            argv = ["apply-m2", str(gold), "-o", str(tmp_path / "out.txt")]
        else:
            out = str(tmp_path / "out.tsv")
            argv = ["clean", str(corpus), "-o", out, "--strategy", "lev_sim"]
        assert main(argv) == 1
        assert f"{target}: line 2: invalid UTF-8: " in capsys.readouterr().err

    def test_apply_m2_lone_cr_is_not_a_line_break(self, tmp_path, capsys):
        noop = "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n"
        gold = tmp_path / "gold.m2"
        gold.write_bytes(f"S a b\n{noop}\nS a\rb\n{noop}".encode("utf-8"))
        assert main(["apply-m2", str(gold), "-o", str(tmp_path / "out.txt")]) == 1
        err = capsys.readouterr().err
        assert "line 4: S line is not single characters joined by single spaces" in err
        assert "line 5" not in err


class TestAblate:
    def test_failed_run_replaces_no_dataset(self, tmp_path, capsys):
        lines = [f"s{i}\tt{i}.{j}" for i in range(5) for j in range(3)]
        corpus = write(tmp_path / "in.tsv", "\n".join(lines) + "\n")
        prefix = tmp_path / "out"
        argv = ["ablate", str(corpus), "-o", str(prefix), "--k-min", "3", "--n-values", "1,2"]
        assert main(argv) == 0
        before = {path: path.read_bytes() for path in tmp_path.glob("out*")}
        # In process, os.getpid() names the temporary file of n2, which
        # cannot be opened while a directory holds its name.
        Path(f"{prefix}.n2.tsv.{os.getpid()}.tmp").mkdir()
        assert main(argv + ["--seed", "7"]) == 1
        assert "out.n2.tsv" in capsys.readouterr().err
        after = {path: path.read_bytes() for path in tmp_path.glob("out*") if path.is_file()}
        assert after == before

    def test_n_above_k_min_fails(self, tmp_path, capsys):
        corpus = write(tmp_path / "in.tsv", "s\ta\ns\tb\n")
        code = main(
            [
                "ablate", str(corpus), "-o", str(tmp_path / "x"),
                "--k-min", "2", "--n-values", "3",
            ]
        )
        assert code == 1
        assert "k_min" in capsys.readouterr().err

    @pytest.mark.parametrize("max_groups", ["0", "-1"])
    def test_max_groups_below_one_rejected(self, tmp_path, capsys, max_groups):
        corpus = write(tmp_path / "in.tsv", "s\ta\ns\tb\n")
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "ablate", str(corpus), "-o", str(tmp_path / "x"),
                    "--k-min", "2", "--n-values", "1", "--max-groups", max_groups,
                ]
            )
        assert excinfo.value.code == 2
        assert "--max-groups" in capsys.readouterr().err

    @pytest.mark.parametrize("n_values", ["1,x", "a"])
    def test_non_integer_n_values_rejected(self, tmp_path, capsys, n_values):
        corpus = write(tmp_path / "in.tsv", "s\ta\ns\tb\n")
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "ablate", str(corpus), "-o", str(tmp_path / "x"),
                    "--k-min", "2", "--n-values", n_values,
                ]
            )
        assert excinfo.value.code == 2
        assert "--n-values" in capsys.readouterr().err


class TestModulesLoaded:
    CORE = ["gecclean", "gecclean.cli", "gecclean.corpus", "gecclean.edits",
            "gecclean.m2", "gecclean.textmetrics"]
    # Only the edi_* strategies rank with the aligner (edits and m2).
    SELECT = ["gecclean", "gecclean.cli", "gecclean.corpus", "gecclean.onetarget",
              "gecclean.textmetrics"]
    # Standard modules no command needs at start: records are NamedTuples,
    # the long-pair flag is a warning, --threads starts no processes, and
    # only a random draw imports hashlib.
    WATCHED = ("concurrent", "dataclasses", "hashlib", "inspect", "logging",
               "multiprocessing")

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["--version"], ["gecclean", "gecclean.cli"]),
            (
                ["apply-m2", "gold.m2", "-o", "applied.txt"],
                ["gecclean", "gecclean.cli", "gecclean.corpus", "gecclean.m2"],
            ),
            (["to-m2", "in.tsv", "-o", "out.m2"], CORE),
            (["score", "--gold", "gold.m2", "--hyp", "hyp.txt"], CORE + ["gecclean.scorer"]),
            (["stats", "in.tsv"], CORE + ["gecclean.stats"]),
            (["clean", "in.tsv", "-o", "out.tsv", "--strategy", "lev_sim"], SELECT),
            (
                ["clean", "in.tsv", "-o", "out.tsv", "--strategy", "edi_least"],
                CORE + ["gecclean.onetarget"],
            ),
            (
                ["clean", "in.tsv", "-o", "out.tsv", "--strategy", "random"],
                SELECT + ["hashlib"],
            ),
            (
                ["ablate", "in.tsv", "-o", "abl", "--k-min", "2", "--n-values", "1,2"],
                SELECT + ["hashlib"],
            ),
        ],
        ids=["version", "apply-m2", "to-m2", "score", "stats", "clean", "clean-edi_least",
             "clean-random", "ablate"],
    )
    def test_each_command_loads_only_its_modules(self, tmp_path, argv, loaded):
        # Run in a fresh interpreter; -S keeps site hooks from importing
        # modules of their own.
        write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        assert main(["to-m2", str(tmp_path / "in.tsv"), "-o", str(tmp_path / "gold.m2")]) == 0
        write(tmp_path / "hyp.txt", "abcf\npqr\n")
        # Under edi_least the probe also records whether the aligner is
        # loaded when the corpus is first read: compiling it after the read
        # would stack its compile on the corpus's peak.
        ranks_by_aligner = "edi_least" in argv
        # The CLI reads a corpus through corpus._pair_runs.
        watch_read = (
            "import gecclean.corpus as corpus\n"
            "parse = corpus._pair_runs\n"
            "def _pair_runs(*args, **kwargs):\n"
            "    seen.append('gecclean.edits' in sys.modules)\n"
            "    return parse(*args, **kwargs)\n"
            "corpus._pair_runs = _pair_runs\n"
        )
        probe = (
            "import sys\n"
            "seen = []\n"
            f"{watch_read if ranks_by_aligner else ''}"
            "from gecclean.cli import main\n"
            "try:\n"
            "    status = main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    status = exc.code\n"
            f"watched = {self.WATCHED!r}\n"
            "print(repr((status, sorted(m for m in sys.modules if m.startswith('gecclean')"
            " or m.split('.')[0] in watched), 'json' in sys.modules, seen[:1])))\n"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", probe, *argv],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        status, modules, has_json, seen = ast.literal_eval(result.stdout.splitlines()[-1])
        assert status == 0
        assert modules == sorted(loaded)
        if ranks_by_aligner:
            assert seen == [True]
        if argv == ["--version"]:
            assert not has_json


class TestThreadCap:
    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "clean", str(corpus), "-o", str(tmp_path / "out.tsv"),
                    "--strategy", "lev_sim", "--threads", threads,
                ]
            )
        assert excinfo.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out.tsv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["clean", "{tsv}", "-o", "{out}", "--strategy", "lev_sim", "--threads", "abc"],
            ["ablate", "{tsv}", "-o", "{out}", "--k-min", "1", "--n-values", "1",
             "--max-groups", "abc"],
        ],
    )
    def test_non_integer_count_named_plainly(self, tmp_path, capsys, argv):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        argv = [a.format(tsv=corpus, out=tmp_path / "out") for a in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"argument {argv[-2]}: expected an integer, got 'abc'" in capsys.readouterr().err


CONTROL_IN_REPLACEMENT = "edit replacement may not contain tab or newline"


class TestFormatErrorsNameTheFile:
    @pytest.mark.parametrize(
        "argv",
        [
            ["clean", "{tsv}", "-o", "{out}", "--strategy", "lev_sim"],
            ["stats", "{tsv}"],
            ["to-m2", "{tsv}", "-o", "{out}"],
            ["ablate", "{tsv}", "-o", "{out}", "--k-min", "1", "--n-values", "1"],
        ],
        ids=["clean", "stats", "to-m2", "ablate"],
    )
    def test_tsv_input(self, tmp_path, capsys, argv):
        tsv = write(tmp_path / "in.tsv", "ok\tfine\nbroken\n")
        out = tmp_path / "out"
        argv = [arg.format(tsv=tsv, out=out) for arg in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{tsv}: line 2: expected at least 2 tab-separated fields" in err

    def test_apply_m2_input(self, tmp_path, capsys):
        gold = write(tmp_path / "gold.m2", "S a b\nA 0 1|||X|||b|||REQUIRED|||-NONE-|||0\n")
        assert main(["apply-m2", str(gold), "-o", str(tmp_path / "out.txt")]) == 1
        assert f"{gold}: line 2: unknown edit kind 'X'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines, message",
        [
            (
                ["A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0",
                 "A 0 1|||R|||x|||REQUIRED|||-NONE-|||0"],
                "edit follows a noop for annotator 0",
            ),
            (
                ["A 0 1|||R|||x|||REQUIRED|||-NONE-|||0",
                 "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0"],
                "noop conflicts with other lines for annotator 0",
            ),
        ],
        ids=["edit-after-noop", "noop-after-edit"],
    )
    def test_apply_m2_noop_and_edit_of_one_annotator(self, tmp_path, capsys, lines, message):
        gold = write(tmp_path / "gold.m2", "S a b\n" + "\n".join(lines) + "\n")
        assert main(["apply-m2", str(gold), "-o", str(tmp_path / "out.txt")]) == 1
        assert f"{gold}: line 3: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "a_line, message",
        [
            ("A 0 1|||R|||x|||REQUIRED|||-NONE-|||-1", "negative annotator id -1"),
            ("A 0 1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0", "malformed noop line"),
            ("A 0 1|||R|||x\ty|||REQUIRED|||-NONE-|||0", CONTROL_IN_REPLACEMENT),
            ("A 0 1|||R|||x\ry|||REQUIRED|||-NONE-|||0", CONTROL_IN_REPLACEMENT),
        ],
        ids=["negative-annotator", "malformed-noop", "tab", "lone-cr"],
    )
    def test_apply_m2_a_line(self, tmp_path, capsys, a_line, message):
        gold = tmp_path / "gold.m2"
        gold.write_bytes(f"S a b\n{a_line}\n".encode("utf-8"))
        assert main(["apply-m2", str(gold), "-o", str(tmp_path / "out.txt")]) == 1
        assert f"{gold}: line 2: {message}\n" in capsys.readouterr().err

    def test_score_names_gold_not_hypothesis(self, tmp_path, capsys):
        gold = write(tmp_path / "gold.m2", "S a b\nA 0 1|||X|||b|||REQUIRED|||-NONE-|||0\n")
        hyp = write(tmp_path / "hyp.txt", "b b\n")
        assert main(["score", "--gold", str(gold), "--hyp", str(hyp)]) == 1
        err = capsys.readouterr().err
        assert f"{gold}: line 2: unknown edit kind 'X'" in err
        assert str(hyp) not in err

    NO_A_LINE_GOLD = (
        "S a b\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n\nS c d\n"
    )

    def test_apply_m2_block_without_a_line(self, tmp_path, capsys):
        gold = write(tmp_path / "gold.m2", self.NO_A_LINE_GOLD)
        out = tmp_path / "out.txt"
        assert main(["apply-m2", str(gold), "-o", str(out)]) == 1
        assert f"{gold}: line 4: block has no 'A' line" in capsys.readouterr().err
        assert not out.exists()

    def test_score_block_without_a_line(self, tmp_path, capsys):
        gold = write(tmp_path / "gold.m2", self.NO_A_LINE_GOLD)
        hyp = write(tmp_path / "hyp.txt", "ab\ncd\n")
        assert main(["score", "--gold", str(gold), "--hyp", str(hyp)]) == 1
        assert f"{gold}: line 4: block has no 'A' line" in capsys.readouterr().err


class TestByteOrderMark:
    """Every input may start with a UTF-8 byte-order mark, which is not text."""

    INPUTS = {
        "tsv": "ab\tac\nab\tad\n",
        "m2": (
            "S a b\nA 1 2|||R|||c|||REQUIRED|||-NONE-|||0\n"
            "A 1 2|||R|||d|||REQUIRED|||-NONE-|||1\n"
        ),
        "hyp": "ac\n",
    }

    def run(self, work: Path, argv, bom: bytes, capsys) -> tuple[str, bytes]:
        work.mkdir()
        paths = {name: work / name for name in self.INPUTS}
        for name, text in self.INPUTS.items():
            paths[name].write_bytes(bom + text.encode("utf-8"))
        out = work / "out"
        assert main([arg.format(out=out, **paths) for arg in argv]) == 0
        return capsys.readouterr().out, out.read_bytes() if out.exists() else b""

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "{tsv}", "--multi-target-lines", "--json"],
            ["clean", "{tsv}", "-o", "{out}", "--strategy", "lev_dis"],
            ["apply-m2", "{m2}", "-o", "{out}"],
            ["score", "--gold", "{m2}", "--hyp", "{hyp}", "--json"],
        ],
        ids=["stats", "clean", "apply-m2", "score"],
    )
    def test_same_outputs_as_without_one(self, tmp_path, capsys, argv):
        plain = self.run(tmp_path / "plain", argv, b"", capsys)
        assert self.run(tmp_path / "bom", argv, b"\xef\xbb\xbf", capsys) == plain


class TestScoreReadsInStep:
    """``score`` reads gold entry k, then hypothesis line k, to the end of both."""

    BLOCK = "S a b\nA 0 1|||R|||c|||REQUIRED|||-NONE-|||0\n"
    BAD_BLOCK = "S a b\nA 0 1|||X|||c|||REQUIRED|||-NONE-|||0\n"

    def files(self, tmp_path, gold_blocks, hyp: bytes):
        gold = write(tmp_path / "gold.m2", "\n".join(gold_blocks))
        hyp_path = tmp_path / "hyp.txt"
        hyp_path.write_bytes(hyp)
        return gold, hyp_path

    def score(self, tmp_path, gold_blocks, hyp: bytes, *options):
        gold, hyp = self.files(tmp_path, gold_blocks, hyp)
        return gold, hyp, main(["score", "--gold", str(gold), "--hyp", str(hyp), *options])

    def test_holds_one_block_at_a_time(self, tmp_path, capsys):
        pairs = [(f"第{i}句话有错", f"第{i}句话有错。") for i in range(8000)]
        blocks = [to_m2(s, [extract_edits(s, t)]) for s, t in pairs]
        hyp = "".join(t + "\n" for _, t in pairs).encode("utf-8")
        gold, hyp = self.files(tmp_path, blocks, hyp)
        tracemalloc.start()
        try:
            assert main(["score", "--gold", str(gold), "--hyp", str(hyp), "--json"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert json.loads(capsys.readouterr().out)["f0.5"] == 1.0
        # Holding every block and hypothesis takes ~4.9 MB here.
        assert peak < 0.5 * 2**20

    @pytest.mark.parametrize(
        "bad_block, expected",
        [(1, "{gold}: line 5: unknown edit kind 'X'"), (2, "{hyp}: line 2: invalid UTF-8: ")],
        ids=["gold-first", "hyp-first"],
    )
    def test_entry_k_is_read_before_line_k(self, tmp_path, capsys, bad_block, expected):
        blocks = [self.BLOCK] * 3
        blocks[bad_block] = self.BAD_BLOCK
        gold, hyp, status = self.score(tmp_path, blocks, b"a c\n\xff\na c\n")
        assert status == 1
        assert expected.format(gold=gold, hyp=hyp) in capsys.readouterr().err

    def test_gold_error_past_the_last_hypothesis(self, tmp_path, capsys):
        blocks = [self.BLOCK, self.BLOCK, self.BAD_BLOCK]
        gold, _, status = self.score(tmp_path, blocks, b"a c\n")
        assert status == 1
        err = capsys.readouterr().err
        assert f"{gold}: line 8: unknown edit kind 'X'" in err
        assert "hypothesis lines" not in err

    def test_hypothesis_error_past_the_last_entry(self, tmp_path, capsys):
        _, hyp, status = self.score(tmp_path, [self.BLOCK], b"a c\na c\n\xff\n")
        assert status == 1
        err = capsys.readouterr().err
        assert f"{hyp}: line 3: invalid UTF-8: " in err
        assert "gold entries" not in err

    def test_empty_gold_and_hypotheses_name_the_gold_file(self, tmp_path, capsys):
        gold, _, status = self.score(tmp_path, [], b"")
        assert status == 1
        assert capsys.readouterr().err == (
            f"gecclean score: error: {gold}: cannot score an empty corpus\n"
        )

    def test_empty_gold_is_a_count_mismatch(self, tmp_path, capsys):
        gold, hyp, status = self.score(tmp_path, [], b"a c\n")
        assert status == 1
        err = capsys.readouterr().err
        assert f"0 gold entries but 1 hypothesis lines (gold {gold}, hypotheses {hyp})" in err

    def test_mismatch_writes_nothing(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        status = self.score(tmp_path, [self.BLOCK] * 2, b"a c\n", "-o", str(report))[2]
        assert status == 1
        assert "2 gold entries but 1 hypothesis lines" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gold.m2", "hyp.txt"]


class TestSidecarContent:
    """Each sidecar whole: every parsed option but the output path and
    ``--threads``, plus the command's count."""

    @staticmethod
    def sidecar(output) -> dict:
        return json.loads(Path(f"{output}.meta.json").read_text(encoding="utf-8"))

    @staticmethod
    def expected(command: str, config: dict) -> dict:
        return {
            "tool": "gecclean",
            "version": __version__,
            "command": command,
            "config": config,
        }

    def test_clean_records_no_threads(self, tmp_path):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        out = tmp_path / "out.tsv"
        argv = ["clean", str(corpus), "-o", str(out), "--strategy", "random"]
        assert main(argv + ["--seed", "5", "--threads", "3"]) == 0
        assert self.sidecar(out) == self.expected(
            "clean",
            {
                "input": str(corpus),
                "strategy": "random",
                "seed": 5,
                "multi_target_lines": False,
                "drop_correct": False,
                "samples": 2,
            },
        )

    def test_stats(self, tmp_path):
        corpus = write(tmp_path / "in.tsv", "s\tt1\tt2\n")
        out = tmp_path / "report.json"
        argv = ["stats", str(corpus), "--multi-target-lines", "--json", "-o", str(out)]
        assert main(argv) == 0
        assert self.sidecar(out) == self.expected(
            "stats",
            {"input": str(corpus), "multi_target_lines": True, "json": True},
        )

    def test_to_m2_and_apply_m2(self, tmp_path):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        gold = tmp_path / "gold.m2"
        assert main(["to-m2", str(corpus), "-o", str(gold), "--drop-correct"]) == 0
        assert self.sidecar(gold) == self.expected(
            "to-m2",
            {
                "input": str(corpus),
                "multi_target_lines": False,
                "drop_correct": True,
                "entries": 2,
            },
        )
        restored = tmp_path / "restored.txt"
        assert main(["apply-m2", str(gold), "-o", str(restored)]) == 0
        assert self.sidecar(restored) == self.expected(
            "apply-m2", {"input": str(gold), "sentences": 3}
        )

    def test_ablate_records_sorted_distinct_n_values(self, tmp_path):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        prefix = tmp_path / "ablation"
        argv = ["ablate", str(corpus), "-o", str(prefix), "--k-min", "2"]
        assert main(argv + ["--n-values", "2,1,2", "--max-groups", "1"]) == 0
        assert self.sidecar(prefix) == self.expected(
            "ablate",
            {
                "input": str(corpus),
                "k_min": 2,
                "n_values": [1, 2],
                "seed": 42,
                "max_groups": 1,
                "multi_target_lines": False,
                "outputs": {f"{prefix}.n1.tsv": 1, f"{prefix}.n2.tsv": 2},
            },
        )

    def test_score(self, tmp_path):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        gold = tmp_path / "gold.m2"
        main(["to-m2", str(corpus), "-o", str(gold)])
        hyp = write(tmp_path / "hyp.txt", "abcf\npqr\n")
        report = tmp_path / "report.txt"
        argv = ["score", "--gold", str(gold), "--hyp", str(hyp), "-o", str(report)]
        assert main(argv) == 0
        assert self.sidecar(report) == self.expected(
            "score", {"gold": str(gold), "hyp": str(hyp), "json": False}
        )

    def test_stdout_reports_write_no_sidecar(self, tmp_path, capsys):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        gold = tmp_path / "gold.m2"
        main(["to-m2", str(corpus), "-o", str(gold)])
        hyp = write(tmp_path / "hyp.txt", "abcf\npqr\n")
        before = sorted(tmp_path.iterdir())
        assert main(["stats", str(corpus), "--json"]) == 0
        assert main(["score", "--gold", str(gold), "--hyp", str(hyp)]) == 0
        assert sorted(tmp_path.iterdir()) == before
