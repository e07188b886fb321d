"""The README's examples run as written, and it states the CLI's exit codes."""

import re
from pathlib import Path

import pytest

from swapsim import cli, validate_config

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


def _exit_codes_named(text):
    """The codes that the sentence starting ``Exit codes:`` names, each one
    at the start of the list or after a comma and followed by a word."""
    sentence = re.search(r"Exit codes: (.*?)\.(?:\s|$)", text.replace("`", ""), re.S).group(1)
    return {int(code) for code in re.findall(r"(?:^|, )(\d) \w", " ".join(sentence.split()))}


@pytest.mark.parametrize("text", [cli.__doc__, README], ids=["cli-docstring", "README"])
def test_exit_codes_sentence_names_every_code(text):
    assert _exit_codes_named(text) == {0} | {code for _, code, _ in cli.EXITS}


@pytest.mark.parametrize("prefix", [prefix for _, _, prefix in cli.EXITS])
def test_readme_names_every_stderr_prefix(prefix):
    assert "`" + prefix.rstrip("\n") in README
