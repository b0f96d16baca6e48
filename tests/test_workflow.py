"""The CI workflow parses, and every step's shell script passes `bash -n`."""

import shutil
import subprocess
from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_workflow_steps_are_valid_bash():
    yaml = pytest.importorskip("yaml")
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("bash is not installed")
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    scripts = [(f"{job}: {step.get('name', step.get('uses'))}", step["run"])
               for job, spec in doc["jobs"].items() for step in spec["steps"] if "run" in step]
    assert len(scripts) >= 4
    for name, script in scripts:
        done = subprocess.run([bash, "-n"], input=script, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, f"{name}: {done.stderr}"
