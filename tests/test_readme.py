"""The README's examples run as written."""

import re
from pathlib import Path

import pytest

from swapsim import validate_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _first_line(block):
    return block.split("\n", 1)[0]


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


@pytest.mark.parametrize("doc", _blocks("ini"), ids=_first_line)
def test_config_examples_validate(doc):
    validate_config(doc)


@pytest.mark.parametrize("code", _blocks("python"), ids=_first_line)
def test_python_examples_run(code):
    exec(compile(code, "README.md", "exec"), {})


def test_readme_has_examples():
    assert _blocks("ini") and _blocks("python")
