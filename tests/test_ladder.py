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
# the entries before this index predate the precision object
FIRST_PRECISION_ENTRY = 2


@pytest.fixture(scope="module")
def ladder():
    spec = importlib.util.spec_from_file_location("ladder", ROOT / "tools" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smallest_rung_gives_the_table_counts(ladder):
    result = ladder.rung(1e-2, repeats=1, transition_repeats=1)
    assert set(result) == {"epsilon", "counts", "seconds", "precision", "peak_rss_mb"} and result["epsilon"] == 1e-2
    assert tuple(result["counts"].values()) == TABLE[1e-2] and tuple(result["counts"]) == ladder.COUNTS
    assert tuple(result["seconds"]) == ladder.STAGES and all(s >= 0 for s in result["seconds"].values())
    assert result["peak_rss_mb"] > 0
    precision = result["precision"]
    assert tuple(precision) == ladder.PRECISION
    # AG !EXIT takes 8 dense rounds at this rung (the f1f2db0 table's IBP rounds), and every cell
    # lies in the attractor's strongly connected component
    assert precision["ctl_rounds"] == 8 and precision["attractor_scc"] == 89
    assert precision["out_degree_p50"] <= precision["out_degree_p90"] <= precision["out_degree_max"] <= 90
    assert 0 < precision["witnessed_fraction"] <= 1 and 0 <= precision["true_miss"] <= 1
    # the enclosure of a cell holds its sampled image, so it is at least as wide
    assert 1 <= precision["width_ratio_p50"] <= precision["width_ratio_p90"]


def test_bench_pipeline_entries_follow_the_schema_and_agree(ladder):
    bench = json.loads((ROOT / "BENCH_pipeline.json").read_text(encoding="utf-8"))
    assert set(bench) == {"setup", "entries"} and bench["setup"] == ladder.setup()
    assert len(bench["entries"]) > FIRST_PRECISION_ENTRY
    for k, entry in enumerate(bench["entries"]):
        assert set(entry) == {"label", "commit", "python", "numpy", "nproc", "machine", "created_utc", "rungs"}
        assert entry["label"] and entry["commit"]
        assert [r["epsilon"] for r in entry["rungs"]] == list(ladder.EPSILONS)
        keys = {"epsilon", "counts", "seconds", "peak_rss_mb"}
        if k >= FIRST_PRECISION_ENTRY:
            keys.add("precision")
        for r in entry["rungs"]:
            assert set(r) == keys and r["peak_rss_mb"] > 0
            assert k < FIRST_PRECISION_ENTRY or tuple(r["precision"]) == ladder.PRECISION
            assert tuple(r["counts"]) == ladder.COUNTS and tuple(r["counts"].values()) == TABLE[r["epsilon"]]
            assert tuple(r["seconds"]) == ladder.STAGES and all(s >= 0 for s in r["seconds"].values())
