"""The package's source keeps to the Python floor that `pyproject.toml` declares."""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((REPO_ROOT / "src" / "riskrl").glob("*.py"))
FLOOR = (3, 10)


def test_the_floor_checked_is_the_declared_one():
    assert 'requires-python = ">=3.10"' in (REPO_ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_each_module_parses_with_the_grammar_of_the_floor(path):
    """Only the grammar is checked: syntax newer than the floor (`except*`, a `type`
    statement) fails here, but a call that the floor's standard library lacks does not, as
    that needs the modules run, numpy and all, under a Python 3.10 interpreter."""
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
