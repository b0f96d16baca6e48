"""One block budget: every loop that bounds its memory walks `geometry.blocks`
over `geometry.STACK_BYTES`, so that one constant sizes every block."""

import sys

from dynabs import TransitionSystem, build_cells, compute_transitions, sample_traces, save_dataset
from dynabs import data, elm, geometry, hybrid
from dynabs.geometry import blocks

from synthdata import fitted_model, swirl_dataset

# the function of each bounded loop
LOOPS = {"__init__", "of", "predict_located", "merge_sweep", "overlapping", "_write_bits", "_decode_bits",
         "save_dataset"}


def block_calls(monkeypatch, tmp_path) -> dict[str, list[tuple[int, float, int]]]:
    """Fit, trace, abstract, save and load a swirl model, and save its data,
    with each module's `blocks` recorded: the function that called it ->
    (item_bytes, share, largest span) of each call."""
    calls: dict[str, list[tuple[int, float, int]]] = {}

    def spy(start, stop, item_bytes, share=1.0):
        spans = blocks(start, stop, item_bytes, share)
        largest = max((j - i for i, j in spans), default=0)
        calls.setdefault(sys._getframe(1).f_code.co_name, []).append((item_bytes, share, largest))
        return spans

    with monkeypatch.context() as m:
        for module in (geometry, elm, hybrid, data):
            m.setattr(module, "blocks", spy)
        samples = swirl_dataset(3000, seed=1, twist=0.6)
        model = fitted_model(samples, 1e-2)
        cells = build_cells(model.zone, sample_traces(model, 60, 20, seed=0), 1e-2)
        compute_transitions(model, cells, initial=1).save(tmp_path / "ts.json")
        TransitionSystem.load(tmp_path / "ts.json")
        save_dataset(tmp_path / "data.csv", samples)
    return calls


def test_one_budget_sizes_every_block(monkeypatch, tmp_path):
    """At the default budget an overlap block has 2**17 // boxes query rows
    (8 bytes per (row, box) pair), a text block 64 KiB of rows and a merge
    chunk 98 candidates at 20 hidden units. Setting `geometry.STACK_BYTES`
    alone to one byte shrinks each of the eight bounded loops to one item
    per block."""
    def rows(item_bytes, share):  # items per block: every item here has 8 bytes or more
        return blocks(0, geometry.STACK_BYTES // 4, item_bytes, share)[0][1]

    default = block_calls(monkeypatch, tmp_path)
    assert set(default) == LOOPS
    for item_bytes, share, _ in default["overlapping"]:
        assert item_bytes % 8 == 0 and rows(item_bytes, share) == 2**17 // (item_bytes // 8)
    for loop in ("_write_bits", "_decode_bits", "save_dataset"):
        for item_bytes, share, _ in default[loop]:
            assert rows(item_bytes, share) * item_bytes <= 64 * 1024 < (rows(item_bytes, share) + 1) * item_bytes
    assert {rows(item_bytes, share) for item_bytes, share, _ in default["merge_sweep"]} == {98}
    assert all(max(largest for _, _, largest in default[loop]) > 1 for loop in LOOPS)

    monkeypatch.setattr(geometry, "STACK_BYTES", 1)
    tiny = block_calls(monkeypatch, tmp_path)
    assert {loop: max(largest for _, _, largest in tiny[loop]) for loop in tiny} == dict.fromkeys(LOOPS, 1)
