"""The README's "Library use" snippet runs as written."""

import re
from pathlib import Path

from dynabs import save_dataset

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
