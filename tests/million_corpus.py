"""Criterion 9's million-line corpus, with no test framework needed.

``tests/test_acceptance.py`` imports the generator from here, and so can a
script run with ``tests`` on ``PYTHONPATH``.  The corpus it writes has the
sha256 ``1c221aad53c70d767a8077693cde1f75275837f189bb3643c6b6f328b16073b0``.
"""

import random


def generate_million_line_corpus(path) -> int:
    rng = random.Random(900_001)
    alphabet = "我能胜任这此职务不是很好的了在有人中就时要一会对生到和说出得着过天上们来去里后自己"
    lines = 0
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        while lines < 1_000_000:
            source = "".join(rng.choices(alphabet, k=rng.randint(10, 25)))
            if rng.random() < 0.4 and lines + 2 <= 1_000_000:
                chars = list(source)
                chars[rng.randrange(len(chars))] = rng.choice(alphabet)
                first = "".join(chars)
                second = source[: len(source) - 1]
                out.write(f"{source}\t{first}\n{source}\t{second}\n")
                lines += 2
            else:
                out.write(f"{source}\t{source[:-1]}{rng.choice(alphabet)}\n")
                lines += 1
    return lines
