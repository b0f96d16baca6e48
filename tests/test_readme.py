"""The README's "Library use" snippet runs as written, and its Configuration
table matches the config keys and the commands that offer them."""

import argparse
import re
from dataclasses import fields
from pathlib import Path

from dynabs import save_dataset
from dynabs.cli import PipelineConfig, build_parser

from synthdata import swirl_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_snippet_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    snippet = re.search(r"^## Library use\n.*?^```python\n(.*?)^```$", text, re.S | re.M).group(1)
    assert "swirl.csv" in snippet
    save_dataset(tmp_path / "swirl.csv", swirl_dataset(1500, seed=1))
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(snippet, "README.md", "exec"), scope)
    assert scope["ts"].n_cells == len(scope["cells"]) > 1
    assert capsys.readouterr().out in ("True\n", "False\n")


def _offering_commands() -> dict[str, set[str]]:
    """Config key -> the commands whose subparser offers its flag. A command
    without --config reads no config (simulate's --seed is its own)."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    offered = {}
    for name, sub in commands.choices.items():
        dests = {action.dest for action in sub._actions}
        if "config" in dests:
            for dest in dests:
                offered.setdefault(dest, set()).add(name)
    return offered


def test_configuration_table_lists_every_key_with_its_default_and_commands():
    text = README.read_text(encoding="utf-8")
    table = re.search(r"^## Configuration\n.*?^\| key .*?\n\| ---.*?\n(.*?)\n\n", text, re.S | re.M).group(1)
    rows = {}
    for line in table.splitlines():
        keys, default, read_by, meaning = (cell.strip() for cell in line.strip("|").split("|"))
        names = re.findall(r"`(\w+)`", keys)
        defaults = [d.strip().strip("`") for d in default.split(",")]
        for name, value in zip(names, defaults * len(names) if len(defaults) == 1 else defaults, strict=True):
            rows[name] = (value, set(read_by.split(", ")), meaning)
    offered = _offering_commands()
    assert set(rows) == {f.name for f in fields(PipelineConfig)}
    for f in fields(PipelineConfig):
        value, read_by, meaning = rows[f.name]
        assert read_by == offered[f.name], f.name
        if f.default is None:
            assert value in ("–", "data bounds"), f.name
        else:
            assert type(f.default)(value) == f.default, f.name
        if f.metadata["at_most"] is not None:
            assert f"at most {f.metadata['at_most']}" in meaning, f.name
