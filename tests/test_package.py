"""The package's exports resolve on first use, to their submodules' objects."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gecclean

SRC = Path(__file__).parent.parent / "src"


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from gecclean import *", namespace)
    assert set(gecclean.__all__) <= namespace.keys()


@pytest.mark.parametrize("name", gecclean.__all__)
def test_each_name_is_its_submodules_object(name):
    module = importlib.import_module(f"gecclean.{gecclean._EXPORTS[name]}")
    assert getattr(gecclean, name) is getattr(module, name)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        gecclean.no_such_name


def test_from_import_of_a_submodule_returns_it():
    from gecclean import edits

    assert edits is sys.modules["gecclean.edits"]


def test_import_loads_no_submodule_until_a_name_is_used():
    # dir() lists the exports before any is bound.
    probe = (
        "import sys, gecclean\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('gecclean'))\n"
        "print(set(gecclean.__all__) <= set(dir(gecclean)))\n"
        "print(loaded())\n"
        "gecclean.extract_edits\n"
        "print(loaded())\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.splitlines() == [
        "True",
        "['gecclean']",
        "['gecclean', 'gecclean.corpus', 'gecclean.edits', 'gecclean.m2',"
        " 'gecclean.textmetrics']",
    ]
