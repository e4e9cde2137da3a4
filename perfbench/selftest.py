"""Self-test of the benchmark: generators, output checks and metric names.

    python3 perfbench/selftest.py

Shows that a corrupted output counts as a failed operation, that correct
outputs pass, that the ``short-near`` generator reproduces the acceptance
suite's corpus recipe, and that a run reports exactly the metrics
``BENCHMARK.json`` declares. Needs pytest importable for the recipe test.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
import unittest

import corpora
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class Bench:
    """A small short-near corpus in a work directory of its own."""

    def __init__(self, name: str, seed: int = 5, lines: int = 300):
        self.work = run.WORK / f"selftest-{name}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.corpus = corpora.short_near(seed, lines, self.work / "input.tsv")
        corpora.hypotheses(seed, self.corpus.groups, self.work / "hyp.txt")
        self.argvs = run.command_argvs(self.corpus, False, 2)

    def measure(self, tamper=None, trace=False):
        """The shortest run; with ``trace`` also the traced replay's
        per-layer metrics and spans."""
        check = run.Checker(self.corpus, False, pins={})
        with run.Cli(run.ROOT, self.work) as cli:
            m = run.measure(cli, self.argvs, check, seconds=0, tamper=tamper)
            if not trace:
                return m
            workload = run.WORKLOADS["short-near"]
            return m, *run.traced(cli, workload, self.corpus, self.work, self.argvs, m)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


class ChecksCatchErrors(unittest.TestCase):
    def setUp(self):
        self.bench = Bench(self.id().rsplit(".", 1)[-1])
        self.addCleanup(self.bench.close)

    def assert_fails_once_per_round(self, m: run.Measurement, command: str, words: str):
        self.assertEqual(m.failed, m.rounds, m.problems)
        self.assertTrue(all(p.startswith(command + ":") for p in m.problems), m.problems)
        self.assertTrue(any(words in p for p in m.problems), m.problems)

    def test_correct_outputs_pass_and_report_every_metric(self):
        m, metrics, spans = self.bench.measure(trace=True)
        self.assertEqual((m.failed, m.problems), (0, []))
        # Every start and command, then one comparison per replayed command.
        replayed = len(run.COMMANDS) - 1
        self.assertEqual(
            m.attempted, 1 + run.SETUP_STARTS + m.rounds * len(run.COMMANDS) + replayed
        )
        names = {metric["name"] for metric in BENCHMARK["end_to_end"]}
        self.assertEqual(set(run.end_to_end(self.bench.corpus, m)), names)
        self.assertEqual(set(metrics), {metric["name"] for metric in BENCHMARK["per_layer"]})
        self.assertTrue(all(s["end"] >= s["start"] for s in spans))
        self.assertEqual({s["workload"] for s in spans}, {"short-near"})

    def test_flipped_byte_in_clean_output(self):
        def flip(command, path):
            if command == "clean_lev_sim":
                data = bytearray(path.read_bytes())
                data[len(data) // 2] ^= 0x01
                path.write_bytes(bytes(data))

        m = self.bench.measure(flip)
        self.assert_fails_once_per_round(m, "clean_lev_sim", "")

    def test_reordered_apply_m2_output(self):
        def reorder(command, path):
            if command == "apply_m2":
                lines = path.read_bytes().splitlines(keepends=True)
                path.write_bytes(b"".join(lines[1:] + lines[:1]))

        m = self.bench.measure(reorder)
        self.assert_fails_once_per_round(m, "apply_m2", "do not reproduce")

    def test_threads_output_differs_from_single_thread(self):
        # Swap one ranked group's choice for its other target: still a
        # well-formed clean output, so only the t1/t2 comparison sees it.
        groups = self.bench.corpus.groups

        def other_choice(command, path):
            if command != "clean_edi_least_t2":
                return
            lines = path.read_text(encoding="utf-8").splitlines()
            for i, line in enumerate(lines):
                source, target = line.split("\t")
                others = [t for t in groups[source] if t != target]
                if others:
                    lines[i] = f"{source}\t{others[0]}"
                    break
            path.write_text("".join(l + "\n" for l in lines), encoding="utf-8")

        m = self.bench.measure(other_choice)
        self.assert_fails_once_per_round(m, "clean_edi_least_t2", "--threads 1")


class Generators(unittest.TestCase):
    def test_short_near_reproduces_acceptance_recipe_prefix(self):
        sys.path[:0] = [str(run.ROOT / "src"), str(run.ROOT / "tests")]
        spec = importlib.util.spec_from_file_location(
            "test_acceptance", run.ROOT / "tests" / "test_acceptance.py"
        )
        acceptance = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(acceptance)
        work = run.WORK / "selftest-recipe"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.addCleanup(shutil.rmtree, work, True)
        acceptance._generate_million_line_corpus(work / "recipe.tsv")
        corpora.short_near(900_001, 20_000, work / "ours.tsv")
        ours = (work / "ours.tsv").read_bytes().splitlines(keepends=True)
        with open(work / "recipe.tsv", "rb") as recipe:
            theirs = [recipe.readline() for _ in ours]
        # At the size cap the last line may be a single where the uncapped
        # recipe writes a pair; everything before it must match.
        self.assertEqual(ours[:-1], theirs[:-1])

    def test_same_seed_same_bytes(self):
        work = run.WORK / "selftest-seeds"
        work.mkdir(parents=True, exist_ok=True)
        self.addCleanup(shutil.rmtree, work, True)
        for workload in run.WORKLOADS.values():
            first = workload.generate(7, work / "a.tsv")
            workload.generate(7, work / "b.tsv")
            workload.generate(8, work / "c.tsv")
            a, b, c = ((work / n).read_bytes() for n in ("a.tsv", "b.tsv", "c.tsv"))
            self.assertEqual(a, b, workload.name)
            self.assertNotEqual(a, c, workload.name)
            self.assertEqual(first.lines, a.count(b"\n"), workload.name)


class Contract(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        self.addCleanup(shutil.rmtree, bare, True)
        shutil.copytree(run.HERE, bare / run.HERE.name)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        result = subprocess.run(
            [sys.executable, *BENCHMARK["command"][1:],
             "--workload", "short-near", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            timeout=60,
        )
        self.assertNotEqual(result.returncode, 0)
        self.assertEqual(result.stdout, b"")

    def test_benchmark_json_names_its_workloads(self):
        self.assertEqual(
            {w["name"] for w in BENCHMARK["workloads"]}, set(run.WORKLOADS)
        )


if __name__ == "__main__":
    unittest.main()
