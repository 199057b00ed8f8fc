"""The README's examples run as written."""

import contextlib
import io
import re
from pathlib import Path

from orthoate import load_run_config
from orthoate.dataio import CONFIG_RULES

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_python_blocks_run():
    found = blocks("python")
    assert found
    for code in found:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(code, str(README), "exec"), {})


def test_json_blocks_are_valid_run_configs(tmp_path):
    found = blocks("json")
    assert found
    for i, text in enumerate(found):
        path = tmp_path / f"block_{i}.json"
        path.write_text(text)
        load_run_config(path)


def test_key_sections_state_every_rule():
    text = " ".join(README.read_text().split())
    for section, rules in CONFIG_RULES.items():
        for key, (_, must_be) in rules.items():
            assert f"`{key}`: {must_be}" in text, (section, key)
