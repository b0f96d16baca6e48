"""The epsilon ladder of `tools/ladder.py` and its checked-in entries in
`BENCH_pipeline.json`."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# partitions, pair tests, regions, region boxes, trace states, cells and edges of
# each rung: the counts of the ladder table measured at f1f2db0, and the trace
# states that every entry gives
TABLE = {
    1e-2: (111, 266, 11, 111, 126_864, 89, 4_621),
    3e-3: (344, 1_712, 11, 344, 129_209, 342, 26_784),
    1e-3: (978, 2_827, 11, 978, 126_462, 734, 53_980),
    3e-4: (3_257, 7_376, 11, 3_257, 124_881, 3_211, 5_595_968),
}


@pytest.fixture(scope="module")
def ladder():
    spec = importlib.util.spec_from_file_location("ladder", ROOT / "tools" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smallest_rung_gives_the_table_counts(ladder):
    result = ladder.rung(1e-2, repeats=1, transition_repeats=1)
    assert set(result) == {"epsilon", "counts", "seconds"} and result["epsilon"] == 1e-2
    assert tuple(result["counts"].values()) == TABLE[1e-2] and tuple(result["counts"]) == ladder.COUNTS
    assert tuple(result["seconds"]) == ladder.STAGES and all(s >= 0 for s in result["seconds"].values())


def test_bench_pipeline_entries_follow_the_schema_and_agree(ladder):
    bench = json.loads((ROOT / "BENCH_pipeline.json").read_text(encoding="utf-8"))
    assert set(bench) == {"setup", "entries"} and bench["setup"] == ladder.setup()
    assert len(bench["entries"]) >= 2
    for entry in bench["entries"]:
        assert set(entry) == {"label", "commit", "python", "numpy", "nproc", "machine", "created_utc", "rungs"}
        assert entry["label"] and entry["commit"]
        assert [r["epsilon"] for r in entry["rungs"]] == list(ladder.EPSILONS)
        for r in entry["rungs"]:
            assert set(r) == {"epsilon", "counts", "seconds", "peak_rss_mb"} and r["peak_rss_mb"] > 0
            assert tuple(r["counts"]) == ladder.COUNTS and tuple(r["counts"].values()) == TABLE[r["epsilon"]]
            assert tuple(r["seconds"]) == ladder.STAGES and all(s >= 0 for s in r["seconds"].values())
