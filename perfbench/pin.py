"""Pin the sha256 of every command output for a set of seeds.

    python3 perfbench/pin.py

Runs each command once per workload and seed, checks the outputs against
the corpus model, and rewrites ``digests.json``. The pins are taken from
a commit whose outputs are known good; a later run with a pinned seed then
fails any output whose bytes changed.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

PINNED_SEEDS = range(0, 21)


def pin(workload: run.Workload, seed: int) -> dict[str, str]:
    work = run.WORK / f"pin-{workload.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        corpus = workload.generate(seed, work / "input.tsv")
        run.corpora.hypotheses(seed, corpus.groups, work / "hyp.txt")
        argvs = run.command_argvs(
            corpus, workload.drop_correct, min(run.THREADS, run.nproc())
        )
        check = run.Checker(corpus, workload.drop_correct, pins={})
        digests = {}
        outputs: dict[str, bytes] = {}
        with run.Cli(run.ROOT, work) as cli:
            for command in run.COMMANDS:
                outcome = cli.run(argvs[command])
                if outcome.returncode != 0:
                    raise SystemExit(f"{workload.name} seed {seed} {command}: {outcome.stderr}")
                data = (work / f"{command}.out").read_bytes()
                outputs[command] = data
                problems = check(command, data, outputs)
                if problems:
                    raise SystemExit(f"{workload.name} seed {seed} {command}: {problems}")
                digests[command] = check.first[command]
        return digests
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    pins = {}
    for workload in run.WORKLOADS.values():
        seeds = sorted({workload.default_seed, *PINNED_SEEDS})
        pins[workload.name] = {str(seed): pin(workload, seed) for seed in seeds}
        print(f"pinned {workload.name}: {len(seeds)} seeds", file=sys.stderr)
    with open(run.DIGESTS, "w", encoding="utf-8") as out:
        json.dump(pins, out, indent=1, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
