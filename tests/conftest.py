"""Shared set-up for the suite.

`python -m krn` subprocesses import krn from src/ without an install, and
every test starts with an empty script parse memo, so none depends on
which tests ran before it.
"""

import os
from pathlib import Path

import pytest

from krn import script

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(autouse=True)
def _empty_parse_memo():
    script.clear_parse_memo()
