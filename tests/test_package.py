"""The package namespace holds only ``__version__``; names live in submodules."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gecclean

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src"


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        gecclean.no_such_name


def test_from_import_of_a_submodule_returns_it():
    from gecclean import edits

    assert edits is sys.modules["gecclean.edits"]


def test_import_loads_no_submodule():
    probe = "import sys, gecclean; print(sorted(m for m in sys.modules if m.startswith('gecclean')))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout == "['gecclean']\n"


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # The example is the map of where each name lives, so a name imported
    # from the wrong module fails here.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    shutil.copy(Path(__file__).parent / "data" / "stats_fixture.tsv", tmp_path / "corpus.tsv")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(example, namespace)
    samples = namespace["samples"]
    assert len(samples) == 6
    assert len({sample.source for sample in samples}) == 6
