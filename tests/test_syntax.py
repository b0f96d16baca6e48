"""Every Python source file, and the Python the CI workflow runs inline,
parses as the oldest Python that `requires-python` admits, so syntax newer
than that (such as `except*`) fails here and not only on the oldest CI leg."""

import ast
import re
import textwrap
from pathlib import Path

import pytest

from test_workflow import INLINE_PYTHON, workflow_scripts

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ("src/dynabs", "tests", "pipebench", "tools")


def oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.MULTILINE).groups()
    return int(major), int(minor)


def test_the_oldest_python_rejects_exception_groups():
    assert oldest_python() == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=oldest_python())


def test_sources_parse_as_the_oldest_python():
    files = sorted(path for top in SOURCES for path in (ROOT / top).rglob("*.py"))
    assert len(files) >= 30
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path.relative_to(ROOT)), feature_version=oldest_python())


def test_workflow_inline_python_parses_as_the_oldest_python():
    snippets = [(name, m.group(1)) for name, script in workflow_scripts() for m in INLINE_PYTHON.finditer(script)]
    assert len(snippets) >= 12
    for name, code in snippets:
        ast.parse(textwrap.dedent(code), f"<{name}>", feature_version=oldest_python())
