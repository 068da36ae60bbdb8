"""The README's CLI section against the config tables: its complete config
resolves, it names every key, and it uses no retired second spelling."""

import json
import re
from pathlib import Path

import pytest

from polygas import RunConfig, cli, resolve_config

README = Path(__file__).resolve().parents[1] / "README.md"

#: second spellings of one setting that configs no longer take
RETIRED = ("allow_tau_halving", '"mesh": {"cells"', '{"cells": N}', '"kind": "pressure", "p0"',
           "or `p0`")


@pytest.fixture(scope="module")
def cli_section() -> str:
    """The README text from '## CLI' up to the next second-level heading."""
    text = README.read_text(encoding="utf-8")
    return text[text.index("\n## CLI\n"):].split("\n## ")[1]


def test_the_complete_config_resolves(cli_section):
    block = cli_section.split("A complete config:\n\n```json\n", 1)[1].split("```", 1)[0]
    assert isinstance(resolve_config(json.loads(block)), RunConfig)


@pytest.mark.parametrize("table", ["_TOP", "_TIME", "_PARAMS", "_BOUNDARY", "_TRACE", "_MESH"])
def test_every_config_key_is_named(cli_section, table):
    unnamed = [key for key in getattr(cli, table)
               if not re.search(f'[`"]{re.escape(key)}[`"]', cli_section)]
    assert not unnamed, f"{table} keys missing from the README's CLI section: {unnamed}"


@pytest.mark.parametrize("spelling", RETIRED)
def test_no_retired_spelling_is_named(cli_section, spelling):
    assert spelling not in cli_section
