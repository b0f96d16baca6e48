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
# partitions, pair tests and regions of each row of the samples axis, the 1e-3 rung on
# that many samples: the first row is that rung itself
SAMPLES_TABLE = {
    20_000: (978, 2_827, 11),
    200_000: (1_005, 1_415, 16),
    2_000_000: (1_006, 3_638, 9),
}
# the entries before these indices predate the precision object and the samples axis
FIRST_PRECISION_ENTRY, FIRST_SAMPLES_ENTRY = 2, 4


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


def test_the_samples_axis_starts_at_the_rung_of_its_epsilon(ladder):
    """The first row of the samples axis is the 1e-3 rung itself, so its
    counts are that rung's table counts."""
    assert ladder.SAMPLES_AXIS == tuple(SAMPLES_TABLE) and ladder.SAMPLES_AXIS[0] == ladder.SAMPLES
    assert ladder.SAMPLES_EPSILON == 1e-3 and SAMPLES_TABLE[20_000] == TABLE[1e-3][:3]
    assert ladder.setup()["samples"] == list(SAMPLES_TABLE) and ladder.setup()["samples_epsilon"] == 1e-3


def test_bench_pipeline_entries_follow_the_schema_and_agree(ladder):
    bench = json.loads((ROOT / "BENCH_pipeline.json").read_text(encoding="utf-8"))
    assert set(bench) == {"setup", "entries"} and bench["setup"] == ladder.setup()
    assert len(bench["entries"]) > FIRST_SAMPLES_ENTRY
    for k, entry in enumerate(bench["entries"]):
        keys = {"label", "commit", "python", "numpy", "nproc", "machine", "created_utc", "rungs"}
        assert set(entry) == (keys | {"samples"} if k >= FIRST_SAMPLES_ENTRY else keys)
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
        for r in entry.get("samples", []):
            assert set(r) == keys | {"samples"} and r["epsilon"] == ladder.SAMPLES_EPSILON
            assert tuple(r["counts"]) == ladder.COUNTS
            assert tuple(r["counts"].values())[:3] == SAMPLES_TABLE[r["samples"]]
            assert tuple(r["seconds"]) == ladder.STAGES and all(s >= 0 for s in r["seconds"].values())
        if k >= FIRST_SAMPLES_ENTRY:
            assert [r["samples"] for r in entry["samples"]] == list(ladder.SAMPLES_AXIS)
            (same,) = [r for r in entry["rungs"] if r["epsilon"] == ladder.SAMPLES_EPSILON]
            first = entry["samples"][0]
            assert (first["counts"], first["precision"]) == (same["counts"], same["precision"])
