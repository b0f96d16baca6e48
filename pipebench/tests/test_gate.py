"""Self-test of the benchmark and its correctness gate.

Run from the repository root:  python3 -m pytest pipebench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import ctlref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# 20 trajectories x 100 steps = 2 000 samples of the controlled system
TINY = dataclasses.replace(
    workloads.WORKLOADS["controlled"], name="tiny", fit_epsilon=1e-2, abstract_epsilon=1e-2,
    traces=60, trace_length=60, nominal_s=1.0, trajectories=20,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_pass(tmp_path_factory):
    """Artifacts of one tiny pipeline pass, as (ModelDoc, TsDoc, model.json path)."""
    work = tmp_path_factory.mktemp("tiny")
    _, _, cli, data = run.setup(TINY, 5, work)
    gate = run.Gate()
    p = run.run_pipeline(cli, TINY, data[0][0], work / "pass0", gate)
    assert p.ok and not gate.failures
    model = checks.ModelDoc(checks.load_json(p.artifacts[0]))
    return model, checks.TsDoc.from_doc(checks.load_json(p.artifacts[1])), p.artifacts[0]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric(tmp_path, trace, section):
    lines = []
    result = run.run(TINY, 3, 1, bool(trace), tmp_path / "work", tmp_path / "spans.json", lines.append)
    assert result["correct"], [line for line in lines if line.startswith("FAILED")]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert [line.split(":")[0] for line in lines if line.startswith("checks")] == ["checks data0", "checks data1"]
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    if trace:
        spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
        assert {s["name"] for s in spans} >= {"cli.fit", "partition.fit", "hybrid.merge_and_learn"}


def test_soundness_gate_catches_a_missing_edge(tiny_pass):
    model, ts, _ = tiny_pass
    gate = run.Gate()
    wit = run.gate_soundness(gate, model, ts, TINY, 11)
    assert not gate.failures and wit.witnessed == len(wit.edges)

    i, j = next((i, j) for i, j in wit.edges if j < ts.n_cells)
    relation = ts.relation.copy()
    relation[i, j] = False
    run.gate_soundness(gate, model, checks.TsDoc(ts.cells, relation), TINY, 11)
    assert len(gate.failures) == 1 and "1 simulated edges missing" in gate.failures[0]


def test_soundness_gate_catches_a_missing_exit(tiny_pass):
    model, ts, _ = tiny_pass
    wit = checks.witness_check(model, ts, TINY.traces, TINY.trace_length, 11)
    exits = [i for i, j in wit.edges if j == ts.n_cells]
    if not exits:
        pytest.skip("no simulated trace left the zone")
    relation = ts.relation.copy()
    relation[exits[0], ts.n_cells] = False
    assert checks.witness_check(model, checks.TsDoc(ts.cells, relation), TINY.traces,
                                TINY.trace_length, 11).missing_exits == 1


def test_enclosure_check_has_no_violations(tiny_pass):
    import dynabs

    model, ts, model_path = tiny_pass
    cells = checks.check_cells(ts.n_cells, 8)
    result = checks.enclosure_check(dynabs, dynabs.HybridModel.load(model_path), model, ts, cells, 64, 1)
    assert result.violations == 0 and len(result.width_ratios) == len(cells)
    assert min(result.width_ratios) >= 1.0


def test_ctl_reference_matches_program_on_random_relations():
    from dynabs import Box, TransitionSystem, WorkingZone, parse_ctl, sat_set

    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        rel = rng.random((n + 1, n + 1)) < rng.uniform(0.1, 0.6)
        rel[n] = False
        rel[n, n] = True
        for i in range(n):
            if not rel[i].any():
                rel[i, int(rng.integers(n + 1))] = True
        cells = tuple(Box([float(i)], [float(i + 1)], [i == n - 1]) for i in range(n))
        ts = TransitionSystem(WorkingZone(Box([0.0], [float(n)])), cells, rel)
        graph = ctlref.Graph(rel)
        for text, formula in run.VERIFY_BATCH:
            expected = {s - 1 for s in sat_set(ts, parse_ctl(text))}
            assert ctlref.sat(graph, formula) == expected, (text, rel.astype(int).tolist())


def test_digest_ignores_only_created_utc(tmp_path):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    a.write_text('{\n  "created_utc": "2026-01-01T00:00:00",\n  "x": 1\n}\n')
    b.write_text('{\n  "created_utc": "2027-05-05T11:11:11",\n  "x": 1\n}\n')
    c.write_text('{\n  "created_utc": "2026-01-01T00:00:00",\n  "x": 2\n}\n')
    assert checks.digest(a) == checks.digest(b) != checks.digest(c)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "controlled", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0 and out.stdout == ""
