"""The CLI's error contract on mutated input bytes.

Hypothesis writes a small valid corpus, its M2 gold (through ``to-m2``) and
a hypothesis file, then mutates some of the three: line breaks of every
kind, a BOM, invalid UTF-8, M2 markers, NUL, U+0085 and a combining mark.
All six commands run through ``cli.main``.  Whatever the bytes, a command
exits 0 or 1; it fails only when an input was mutated, and then its one
stderr line names the command and a mutated input; it leaves no temporary
file; and any M2 that ``to-m2`` writes reads back through ``apply-m2``.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from gecclean.cli import main

# Every pair stays far below edits.ALIGN_LENGTH_FLAG: the long-pair
# warning is an error under the suite's warning filter.
sentences = st.text(alphabet="ab我。 é", min_size=1, max_size=6).map(str.strip).filter(bool)

INSERTS = [
    b"\n", b"\r\n", b"\r", b"\xef\xbb\xbf", b"\xff", b"\xe6\x88", b"|", b"|||",
    b"-NONE-", b"\x00", "\u0085".encode(), "\u0301".encode(), b"\t", b" ", b"A ", b"S ",
]


@st.composite
def corpora(draw) -> tuple[bytes, bool]:
    multi = draw(st.booleans())
    lines = [
        "\t".join(draw(st.lists(sentences, min_size=2, max_size=4 if multi else 2)))
        for _ in range(draw(st.integers(1, 5)))
    ]
    return "".join(line + "\n" for line in lines).encode("utf-8"), multi


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` with a few byte strings inserted and maybe a range deleted."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(INSERTS)) + data[at:]
    if draw(st.booleans()):
        start = draw(st.integers(0, len(data)))
        data = data[:start] + data[start + draw(st.integers(0, 8)) :]
    return data


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main(argv)
    return status, err.getvalue()


@given(corpora(), st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_command_fails_cleanly_and_names_the_input(corpus, data):
    text, multi = corpus
    layout = ["--multi-target-lines"] * multi
    with tempfile.TemporaryDirectory() as directory:
        work = Path(directory)
        tsv, gold, hyp = work / "in.tsv", work / "gold.m2", work / "hyp.txt"
        tsv.write_bytes(text)
        assert run(["to-m2", str(tsv), "-o", str(gold)] + layout) == (0, "")
        blocks = gold.read_bytes().decode("utf-8").split("\n\n")
        # Each block's source, from its S line, is a valid hypothesis.
        sources = [block.split("\n")[0][2::2] for block in blocks]
        hyp.write_bytes("".join(source + "\n" for source in sources).encode("utf-8"))

        changed = set()
        for path in (tsv, gold, hyp):
            if data.draw(st.booleans()):
                before = path.read_bytes()
                path.write_bytes(data.draw(mutated(before)))
                if path.read_bytes() != before:
                    changed.add(str(path))

        out = str(work / "out")
        commands = {
            "clean": (["clean", str(tsv), "-o", out, "--strategy", "lev_sim"], [tsv]),
            "stats": (["stats", str(tsv), "--json", "-o", out], [tsv]),
            "to-m2": (["to-m2", str(tsv), "-o", f"{out}.m2"], [tsv]),
            "apply-m2": (["apply-m2", str(gold), "-o", out], [gold]),
            "score": (["score", "--gold", str(gold), "--hyp", str(hyp), "-o", out], [gold, hyp]),
            "ablate": (["ablate", str(tsv), "-o", out, "--k-min", "1", "--n-values", "1"], [tsv]),
        }
        for command, (argv, inputs) in commands.items():
            if inputs[0] == tsv:
                argv += layout
            status, err = run(argv)
            assert status in (0, 1), (command, status)
            at_fault = [str(path) for path in inputs if str(path) in changed]
            if status == 0:
                assert err == ""
            else:
                assert at_fault, (command, err)
                assert err.startswith(f"gecclean {command}: error: "), err
                assert err.count("\n") == 1 and err.endswith("\n"), err
                assert any(path in err for path in at_fault), (command, err)
            assert not list(work.glob("*.tmp")), command

        if Path(f"{out}.m2").exists():
            assert run(["apply-m2", f"{out}.m2", "-o", f"{out}.txt"]) == (0, "")
