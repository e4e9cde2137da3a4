import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gecclean import __version__
from gecclean.cli import main

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"

TWO_GROUP_TSV = "abcd\tabcf\nabcd\tab\npq\tpqr\n"


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


class TestClean:
    def test_two_group_fixture(self, tmp_path, capsys):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        out = tmp_path / "out.tsv"
        assert main(["clean", str(corpus), "-o", str(out), "--strategy", "lev_sim"]) == 0
        assert out.read_text(encoding="utf-8") == "abcd\tabcf\npq\tpqr\n"

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

    def test_meta_sidecar_written(self, tmp_path):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        out = tmp_path / "out.tsv"
        main(["clean", str(corpus), "-o", str(out), "--strategy", "random", "--seed", "7"])
        meta = json.loads((tmp_path / "out.tsv.meta.json").read_text(encoding="utf-8"))
        assert meta["tool"] == "gecclean"
        assert meta["command"] == "clean"
        assert meta["config"]["seed"] == 7
        assert meta["config"]["strategy"] == "random"

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

    def test_drop_correct(self, tmp_path):
        corpus = write(tmp_path / "in.tsv", "aa\taa\nbb\tbc\n")
        out = tmp_path / "out.tsv"
        main(["clean", str(corpus), "-o", str(out), "--strategy", "lev_sim", "--drop-correct"])
        assert out.read_text(encoding="utf-8") == "bb\tbc\n"

    def test_malformed_input_fails_with_line_number(self, tmp_path, capsys):
        corpus = write(tmp_path / "in.tsv", "ok\tfine\nbroken\n")
        out = tmp_path / "out.tsv"
        code = main(["clean", str(corpus), "-o", str(out), "--strategy", "lev_sim"])
        assert code == 1
        assert "line 2" in capsys.readouterr().err


class TestStats:
    def test_multi_target_lines_flag(self, tmp_path, capsys):
        corpus = write(tmp_path / "in.tsv", "s\tt1\tt2\n")
        assert main(["stats", str(corpus), "--multi-target-lines", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overall"]["samples"] == 2

    def test_golden_text_output(self, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["stats", str(DATA / "stats_fixture.tsv"), "-o", str(out)]) == 0
        golden = (DATA / "stats_golden.txt").read_text(encoding="utf-8")
        assert out.read_text(encoding="utf-8") == golden


class TestM2Pipeline:
    def test_to_m2_then_score_self_is_perfect(self, tmp_path, capsys):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        cleaned = tmp_path / "clean.tsv"
        main(["clean", str(corpus), "-o", str(cleaned), "--strategy", "lev_sim"])
        gold = tmp_path / "gold.m2"
        assert main(["to-m2", str(cleaned), "-o", str(gold)]) == 0
        hyp = write(tmp_path / "hyp.txt", "abcf\npqr\n")
        assert main(["score", "--gold", str(gold), "--hyp", str(hyp), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["precision"] == 1.0
        assert payload["recall"] == 1.0
        assert payload["f0.5"] == 1.0

    def test_apply_m2_recovers_targets(self, tmp_path):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        gold = tmp_path / "gold.m2"
        main(["to-m2", str(corpus), "-o", str(gold)])
        restored = tmp_path / "restored.txt"
        assert main(["apply-m2", str(gold), "-o", str(restored)]) == 0
        # One line per annotation, in group / annotator order.
        assert restored.read_text(encoding="utf-8") == "abcf\nab\npqr\n"

    def test_multi_annotator_m2_from_multi_target_group(self, tmp_path):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        gold = tmp_path / "gold.m2"
        main(["to-m2", str(corpus), "-o", str(gold)])
        text = gold.read_text(encoding="utf-8")
        assert text.count("S ") == 2
        assert "|||1\n" in text  # second annotator present

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

    def test_hypothesis_count_mismatch(self, tmp_path, capsys):
        corpus = write(tmp_path / "in.tsv", TWO_GROUP_TSV)
        gold = tmp_path / "gold.m2"
        main(["to-m2", str(corpus), "-o", str(gold)])
        hyp = write(tmp_path / "hyp.txt", "abcf\n")
        assert main(["score", "--gold", str(gold), "--hyp", str(hyp)]) == 1
        assert "hypothesis" in capsys.readouterr().err

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
    def test_one_tsv_per_n(self, tmp_path):
        lines = []
        for i in range(5):
            for j in range(3):
                lines.append(f"s{i}\tt{i}.{j}")
        corpus = write(tmp_path / "in.tsv", "\n".join(lines) + "\n")
        prefix = tmp_path / "ablation"
        code = main(
            [
                "ablate", str(corpus), "-o", str(prefix),
                "--k-min", "3", "--n-values", "1,2,3",
            ]
        )
        assert code == 0
        for n in (1, 2, 3):
            path = Path(f"{prefix}.n{n}.tsv")
            assert path.exists()
            assert len(path.read_text(encoding="utf-8").splitlines()) == 5 * n

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


class TestThreads:
    def test_thread_count_does_not_change_bytes(self, tmp_path):
        lines = [f"src{i:04d}x\tsrc{i:04d}y\nsrc{i:04d}x\tsrc{i:04d}z" for i in range(300)]
        corpus = write(tmp_path / "in.tsv", "\n".join(lines) + "\n")
        outputs = []
        for threads in ("1", "3"):
            out = tmp_path / f"out{threads}.tsv"
            main(
                [
                    "clean", str(corpus), "-o", str(out),
                    "--strategy", "random", "--threads", threads,
                ]
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_cli_import_loads_no_process_pool(self):
        # --threads starts no processes, so the CLI must not pay for the
        # process-pool modules on every start.
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        probe = (
            "import sys, gecclean.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert result.stdout == "[]\n"


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
