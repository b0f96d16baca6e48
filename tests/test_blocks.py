"""One block budget: every loop that bounds its memory walks `geometry.blocks`
over `geometry.STACK_BYTES`, so that one constant sizes every block."""

import sys

from dynabs import TransitionSystem, build_cells, compute_transitions, sample_traces, save_dataset
from dynabs import data, elm, geometry, hybrid
from dynabs.geometry import blocks

from synthdata import fitted_model, swirl_dataset

# the function of each bounded loop
LOOPS = {"__init__", "of", "region_blocks", "merge_sweep", "overlapping", "_write_bits", "_decode_bits",
         "save_dataset"}
# the functions that walk `HybridModel.region_blocks` -> bytes per row and hidden unit: a model step's
# activations, and reach's four bound products per layer of 2 inputs and 2 outputs
WALKS = {"predict_located": 8, "cell_successor_box": 32 * (2 + 2)}


def block_calls(monkeypatch, tmp_path) -> tuple[dict[str, list[tuple[int, float, int]]], dict[str, list[int]]]:
    """Fit, trace, abstract, save and load a swirl model, and save its data,
    with each module's `blocks` recorded: the function that called it ->
    (item_bytes, share, largest span) of each call, and for the calls of
    `region_blocks`, the function that walks it -> largest span."""
    calls: dict[str, list[tuple[int, float, int]]] = {}
    walks: dict[str, list[int]] = {}

    def spy(start, stop, item_bytes, share=1.0):
        spans = blocks(start, stop, item_bytes, share)
        largest = max((j - i for i, j in spans), default=0)
        caller = sys._getframe(1)
        calls.setdefault(caller.f_code.co_name, []).append((item_bytes, share, largest))
        if caller.f_code.co_name == "region_blocks":
            walker = caller.f_back.f_code.co_name
            assert item_bytes == WALKS[walker] * 20, (walker, item_bytes)  # 20 hidden units
            walks.setdefault(walker, []).append(largest)
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
    return calls, walks


def test_one_budget_sizes_every_block(monkeypatch, tmp_path):
    """At the default budget an overlap block has 2**17 // boxes query rows
    (8 bytes per (row, box) pair), a text block 64 KiB of rows and a merge
    chunk 98 candidates at 20 hidden units. The model steps and reach's
    enclosures walk the one region walk. Setting `geometry.STACK_BYTES`
    alone to one byte shrinks each of the eight bounded loops to one item
    per block, and so each reach block to one piece."""
    def rows(item_bytes, share):  # items per block: every item here has 8 bytes or more
        return blocks(0, geometry.STACK_BYTES // 4, item_bytes, share)[0][1]

    default, walks = block_calls(monkeypatch, tmp_path)
    assert set(default) == LOOPS and set(walks) == set(WALKS)
    assert all(max(walks[walker]) > 1 for walker in WALKS)
    for item_bytes, share, _ in default["overlapping"]:
        assert item_bytes % 8 == 0 and rows(item_bytes, share) == 2**17 // (item_bytes // 8)
    for loop in ("_write_bits", "_decode_bits", "save_dataset"):
        for item_bytes, share, _ in default[loop]:
            assert rows(item_bytes, share) * item_bytes <= 64 * 1024 < (rows(item_bytes, share) + 1) * item_bytes
    assert {rows(item_bytes, share) for item_bytes, share, _ in default["merge_sweep"]} == {98}
    assert all(max(largest for _, _, largest in default[loop]) > 1 for loop in LOOPS)

    monkeypatch.setattr(geometry, "STACK_BYTES", 1)
    tiny, walks = block_calls(monkeypatch, tmp_path)
    assert {loop: max(largest for _, _, largest in tiny[loop]) for loop in tiny} == dict.fromkeys(LOOPS, 1)
    assert {walker: max(walks[walker]) for walker in walks} == dict.fromkeys(WALKS, 1)
