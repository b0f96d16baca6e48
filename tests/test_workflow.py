"""The CI workflow parses, every step's shell script passes `bash -n`, and
the Python its steps run inline compiles."""

import re
import shutil
import subprocess
import textwrap
from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"

# a single-quoted `python -c '...'` argument, or the `edit='...'` helper that a step runs with `python -c "$edit"`
INLINE_PYTHON = re.compile(r"(?:\bpython3? -c |\bedit=)'([^']*)'")


def workflow_scripts():
    yaml = pytest.importorskip("yaml")
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    return [(f"{job}: {step.get('name', step.get('uses'))}", step["run"])
            for job, spec in doc["jobs"].items() for step in spec["steps"] if "run" in step]


def test_workflow_steps_are_valid_bash():
    scripts = workflow_scripts()
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("bash is not installed")
    assert len(scripts) >= 4
    for name, script in scripts:
        done = subprocess.run([bash, "-n"], input=script, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, f"{name}: {done.stderr}"


def test_workflow_inline_python_compiles():
    """`bash -n` does not parse the Python inside single quotes, so each
    snippet is compiled here."""
    snippets = [(name, m.group(1)) for name, script in workflow_scripts() for m in INLINE_PYTHON.finditer(script)]
    assert len(snippets) >= 12
    for name, code in snippets:
        try:
            compile(textwrap.dedent(code), f"<{name}>", "exec")
        except SyntaxError as exc:
            pytest.fail(f"{name}: {exc}\n{code}")
