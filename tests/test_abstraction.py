import dataclasses
import io
import json
import re
import time
import tracemalloc

import numpy as np
import pytest

from dynabs import (
    Box,
    DataError,
    Dataset,
    ElmNetwork,
    HybridModel,
    TransitionSystem,
    WorkingZone,
    build_cells,
    compute_transitions,
    export_dot,
    fit_output_weights,
    init_elm,
    membership_matrix,
    sample_traces,
)
from dynabs.data import TEXT_SHARE, write_artifact
from dynabs.geometry import STACK_BYTES

from oracles import edge_dot, observed_transitions, pairwise_transitions, sequential_traces, trace_inputs

from synthdata import (
    alternating_slab_model,
    constant_net,
    count_boxes,
    drift_model,
    fitted_input_model,
    fitted_swirl_model,
    malformed_ts_texts,
    overflowing_step_model,
    random_transition_system,
    single_region_model,
    split_region_model,
    tiny_transition_system,
    tree_of,
    two_cluster_points,
    unit_zone,
)


def quarter_cells(zone):
    left, right = zone.omega.bisect(0)
    ll, lu = left.bisect(1)
    rl, ru = right.bisect(1)
    return tree_of(zone, [ll, lu, rl, ru])


def test_sample_traces_shapes_and_determinism():
    model = single_region_model(unit_zone(), constant_net([0.5, 0.5], 2))
    visited = sample_traces(model, L=1, M=1, seed=0)
    assert isinstance(visited, np.ndarray) and visited.shape == (2, 2)  # the start state and its successor
    assert np.array_equal(visited[1], [0.5, 0.5])

    a = sample_traces(model, L=7, M=9, seed=42)
    b = sample_traces(model, L=7, M=9, seed=42)
    assert a.shape == (70, 2) and np.array_equal(a, b)

    c = sample_traces(model, L=7, M=9, seed=43)
    assert not np.array_equal(a, c)


def input_model():
    """x+ = 0.5 x + 0.5 u on x in [0, 1], u in [-0.25, 0.25]: stays inside
    for most draws, and leaves below 0 for some."""
    zone = WorkingZone(Box([0.0], [1.0]), input_bounds=Box([-0.25], [0.25]))
    net = ElmNetwork(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.zeros(3),
                     np.array([[0.5, 0.5, -0.5]]), 3, 0)
    return single_region_model(zone, net)


def test_sample_traces_step_indices_are_consecutive():
    """states[i, k] is run i's state after k steps and trace_inputs(...)[i, k]
    the input applied at step k, so one step maps column k to column k + 1."""
    states, lengths = sequential_traces(input_model(), L=4, M=6, seed=1)
    assert lengths.max() > 2
    step = np.arange(6) < lengths[:, None]  # (run, k) pairs with a step k -> k + 1
    expected = 0.5 * states[:, :-1] + 0.5 * trace_inputs(input_model(), L=4, M=6, seed=1)
    assert np.allclose(states[:, 1:][step], expected[step], atol=1e-15)


def test_sample_traces_stacked_arrays():
    """The visited states are the L start states, then each step's in-zone
    successors in run order: L + sum(lengths) finite rows inside the zone,
    step k's block holding the runs that took k steps or more."""
    L, M = 40, 12
    model = input_model()
    visited = sample_traces(model, L=L, M=M, seed=6)
    states, lengths = sequential_traces(model, L, M, seed=6)
    exited = lengths < M
    assert exited.any() and not exited.all()
    assert visited.shape == (L + lengths.sum(), 1)
    assert np.isfinite(visited).all() and model.zone.contains(visited).all()
    blocks = np.split(visited, np.cumsum([(lengths >= k).sum() for k in range(M)]))
    for k, block in enumerate(blocks):
        assert np.array_equal(block, states[lengths >= k, k])


@pytest.mark.parametrize("case", ["swirl regions", "inputs", "all exit"])
def test_sample_traces_equal_the_sequential_oracle(case):
    """The live-row sampler takes the steps, draws and exits of the loop
    that masks all L runs at every step, bit for bit: it returns the oracle's
    visited states step after step."""
    if case == "swirl regions":
        model, L, M = fitted_swirl_model(epsilon=0.01, gamma=1e-6)[0], 60, 50
        assert model.n_regions > 1 and model.region_walk.depth < model.tree.box_walk.depth
    elif case == "inputs":
        model, L, M = fitted_input_model(), 40, 30
    else:
        model, L, M = drift_model(), 25, 30
    got = sample_traces(model, L, M, seed=5)
    states, lengths = sequential_traces(model, L, M, seed=5)
    k = np.arange(M + 1)
    want = states.swapaxes(0, 1)[k[:, None] <= lengths]
    assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if case == "inputs":
        assert (lengths < M).any() and not (lengths < M).all()
    if case == "all exit":
        assert np.unique(lengths).size > 5 and lengths.max() < M


@pytest.mark.parametrize("case", ["some stay", "all exit"])
def test_sample_traces_locates_each_state_once(monkeypatch, case):
    """sample_traces steps through `HybridModel.rollout`: one `locate_batch`
    call for the start states and one per step, one `predict_located` call
    per step, and no step once every run has exited (M steps when some run
    stays, fewer when all exit)."""
    model, L, M = (fitted_swirl_model(epsilon=0.01, gamma=1e-6)[0], 60, 50) if case == "some stay" else \
        (drift_model(), 25, 30)
    _, lengths = sequential_traces(model, L, M, seed=5)
    steps = min(M, lengths.max() + 1)  # the last run exits at the step after its last in-zone state
    assert (steps == M) == (case == "some stay")
    calls = {"locate_batch": 0, "predict_located": 0}

    def counted(name):
        method = getattr(HybridModel, name)

        def call(self, *args):
            calls[name] += 1
            return method(self, *args)
        return call

    for name in calls:
        monkeypatch.setattr(HybridModel, name, counted(name))
    sample_traces(model, L, M, seed=5)
    assert calls == {"locate_batch": steps + 1, "predict_located": steps}


def test_simulate_reproduces_sampled_traces_with_inputs():
    """simulate from a sampled trace's start state, fed that trace's inputs
    for all M steps, retraces it and exits where it ends: simulate's one-row
    rollout and sample_traces' batched rollout take the same steps, and a
    run that stayed n < M steps in the zone exits at step n + 1, kept as the
    last row."""
    model = fitted_input_model()
    states, lengths = sequential_traces(model, L=30, M=25, seed=4)
    assert (lengths < 25).any() and (lengths == 25).any() and (lengths > 10).any()
    for run, inputs, n in zip(states, trace_inputs(model, L=30, M=25, seed=4), lengths):
        result = model.simulate(run[0], inputs, steps=25)
        assert result.exited_at == (n + 1 if n < 25 else None)
        assert len(result.states) == (n + 2 if n < 25 else 26)
        assert np.array_equal(result.states[: n + 1], run[: n + 1])


def test_simulate_raises_the_text_sample_traces_raises_for_an_overflowing_state():
    """Both step through `predict_located`, so the state whose step overflows
    in a sampled trace fails `simulate` with the same text."""
    model = overflowing_step_model()
    with pytest.raises(FloatingPointError) as sampled:
        sample_traces(model, 20, 5, seed=0)
    state = re.fullmatch(r"model step from state (\[.*?\]) in region 1 is not finite: \[.*\]", str(sampled.value))
    with pytest.raises(FloatingPointError) as simulated:
        model.simulate(json.loads(state.group(1)), steps=5)
    assert str(simulated.value) == str(sampled.value)


def test_sample_traces_exit_marker():
    model = single_region_model(unit_zone(), constant_net([2.0, 2.0], 2))
    states, lengths = sequential_traces(model, L=4, M=5, seed=3)
    assert (lengths == 0).all()  # only the initial state stays in the zone
    assert np.isnan(states[:, 1:]).all()
    visited = sample_traces(model, L=4, M=5, seed=3)
    assert np.array_equal(visited, states[:, 0])
    assert membership_matrix([unit_zone().omega], visited).all()


def test_sample_traces_draws_inputs_within_bounds():
    zone = WorkingZone(Box([0.0], [1.0]), input_bounds=Box([-0.25], [0.25]))
    rng = np.random.default_rng(0)
    z = np.column_stack([rng.uniform(0, 1, 80), rng.uniform(-0.25, 0.25, 80)])
    from dynabs import Dataset

    net = fit_output_weights(init_elm(2, 1, 8, seed=0), Dataset(1, 1, z, 0.5 * z[:, :1]))
    model = single_region_model(zone, net)
    states, lengths = sequential_traces(model, L=3, M=10, seed=5)
    inputs = trace_inputs(model, L=3, M=10, seed=5)
    assert inputs.shape == (3, 10, 1)
    step = np.arange(10) < lengths[:, None]
    applied = inputs[step]
    assert applied.shape[0] == lengths.sum()  # one input per step taken
    assert np.all(applied >= -0.25) and np.all(applied <= 0.25)
    # and those are the inputs the steps took
    assert np.allclose(model.step(states[:, :-1][step], applied), states[:, 1:][step], rtol=0.0, atol=1e-12)


def test_build_cells_huge_epsilon_single_cell():
    model = single_region_model(unit_zone(), constant_net([0.5, 0.5], 2))
    cells = build_cells(model.zone, sample_traces(model, L=10, M=10, seed=0), epsilon=1e6)
    assert len(cells) == 1
    assert np.array_equal(cells[0].lo, model.zone.omega.lo)


def test_build_cells_two_cluster_traces_split_midline():
    pts = two_cluster_points(seed=11)
    cells = build_cells(unit_zone(), pts, epsilon=0.05)
    assert len(cells) > 1
    # the first committed cut is the x1 midline: no cell crosses it
    for c in cells:
        assert c.hi[0] <= 0.5 or c.lo[0] >= 0.5


def test_transitions_self_loop_only():
    zone = unit_zone()
    model = single_region_model(zone, constant_net([0.4, 0.6], 2))
    ts = compute_transitions(model, tree_of(zone, [zone.omega]))
    assert ts.n_cells == 1
    assert ts.relation[0, 0] and not ts.relation[0, 1]
    assert ts.relation[1, 1]  # sink self-loop
    assert ts.edge_count() == 2


def test_transitions_make_no_box_per_cell(monkeypatch):
    """`compute_transitions` hands reach the cells' tree, not one `Box` per cell."""
    zone = WorkingZone(Box([0.0], [1.0]))
    model = single_region_model(zone, constant_net([0.3], 1))
    cells = [zone.omega]
    made = {}
    for n in (1, 256):
        while len(cells) < n:
            cells = [half for cell in cells for half in cell.bisect(0)]
        tree = tree_of(zone, cells)
        with monkeypatch.context() as m:
            count = count_boxes(m)
            ts = compute_transitions(model, tree)
        assert ts.n_cells == n
        made[n] = count[0]
    assert made == {1: 0, 256: 0}, made


def test_transitions_exit_edge():
    zone = unit_zone()
    model = single_region_model(zone, constant_net([1.5, 0.5], 2))
    ts = compute_transitions(model, tree_of(zone, [zone.omega]))
    assert ts.relation[0, 1]  # to sink
    assert not ts.relation[0, 0]

    # one region's piece stays, the other's leaves: both edges
    model = split_region_model(zone, [constant_net([0.2, 0.2], 2), constant_net([1.5, 0.5], 2)])
    ts = compute_transitions(model, tree_of(zone, [zone.omega]))
    assert ts.relation[0, 0] and ts.relation[0, 1]


def test_transitions_constant_map_into_third_cell():
    zone = unit_zone()
    model = single_region_model(zone, constant_net([0.6, 0.1], 2))
    cells = quarter_cells(zone)
    assert membership_matrix(cells, [[0.6, 0.1]])[0].tolist() == [False, False, True, False]
    ts = compute_transitions(model, cells)
    for i in range(4):
        row = ts.relation[i]
        assert row[2] and row.sum() == 1


def test_transitions_straddling_regions():
    zone = unit_zone()
    model = split_region_model(zone, [constant_net([0.1, 0.1], 2), constant_net([0.9, 0.9], 2)])
    left, right = zone.omega.bisect(0)
    ts = compute_transitions(model, tree_of(zone, [left, right]))
    # each half maps into itself only (its constant lands inside it)
    assert ts.relation[0, 0] and not ts.relation[0, 1]
    assert ts.relation[1, 1] and not ts.relation[1, 0]


def test_transitions_deterministic():
    model, _ = fitted_swirl_model(seed=5, n_samples=600)
    cells = quarter_cells(model.zone)
    a = compute_transitions(model, cells)
    b = compute_transitions(model, cells)
    assert np.array_equal(a.relation, b.relation)


def test_transitions_equal_pairwise_reference():
    model, _ = fitted_swirl_model(seed=1, n_samples=1500, epsilon=0.01, gamma=1e-7)
    assert model.n_regions > 1 and len(model.tree) > model.n_regions
    trace_cells = build_cells(model.zone, sample_traces(model, 40, 40, seed=4), epsilon=0.02)
    # coarse cells over the fine region tiling: each cell holds 20+ pieces of several networks
    for cells in (trace_cells, quarter_cells(model.zone)):
        ts = compute_transitions(model, cells)
        assert np.array_equal(ts.relation, pairwise_transitions(model, cells))


def test_transitions_with_inputs_equal_pairwise_reference():
    nets = [init_elm(2, 1, 6, seed=s) for s in (1, 2)]
    rng = np.random.default_rng(0)
    z = np.column_stack([rng.uniform(0, 8, 80), rng.uniform(-0.25, 0.25, 80)])
    nets = [fit_output_weights(n, Dataset(1, 1, z, 0.8 * z[:, :1] + z[:, 1:])) for n in nets]
    # on [0, 8], each cell holds two pieces of each network
    model = alternating_slab_model(nets, n_x=1, input_bounds=Box([-0.25], [0.25]))
    cells = tree_of(model.zone, [c for half in model.zone.omega.bisect(0) for c in half.bisect(0)])
    ts = compute_transitions(model, cells)
    assert np.array_equal(ts.relation, pairwise_transitions(model, cells))


def test_transitions_require_a_bisection_tiling():
    """The cells' tree raises the named cause of a defect in their tiling
    when it is built, and compute_transitions rejects a tree over another
    zone."""
    zone = unit_zone()
    model = single_region_model(zone, constant_net([0.4, 0.6], 2))
    left, right = zone.omega.bisect(0)
    recut = [Box([0.0, 0.0], [0.25, 1.0], [False, True]), Box([0.25, 0.0], [1.0, 1.0], [True, True])]
    slabs = [c for half in (left, right) for c in half.bisect(0)]  # each half's longer side is x2
    for cells, cause in (([left], "gap"), ([left, right, right], "overlap: box 1 .* fills .*, where box 2"),
                         (recut, "not a bisection tiling: box 1 .* straddles the cut at 0.5 in dimension 0"),
                         (slabs, "not a bisection tiling: box 0 .* straddles the cut at 0.5 in dimension 1"),
                         ([Box(left.lo, left.hi, [True, True]), right], "closed exactly on the zone's closed faces")):
        with pytest.raises(ValueError, match=cause):
            tree_of(zone, cells)
    for other in (Box([0.0, 0.0], [2.0, 1.0], [True, True]), Box([0.0, 0.0], [1.0, 1.0])):
        with pytest.raises(ValueError, match=re.escape(f"the cells tile {other!r}, not the zone {zone.omega!r}")):
            compute_transitions(model, tree_of(other, [other]))


def test_transition_system_validation():
    zone = unit_zone()
    cells = [zone.omega]
    with pytest.raises(ValueError, match="total"):
        TransitionSystem(zone, tuple(cells), np.array([[0, 0], [0, 1]], dtype=bool))
    with pytest.raises(ValueError, match="sink"):
        TransitionSystem(zone, tuple(cells), np.array([[1, 0], [1, 0]], dtype=bool))
    with pytest.raises(ValueError):
        TransitionSystem(zone, tuple(cells), np.eye(3, dtype=bool))
    with pytest.raises(ValueError, match="initial"):
        TransitionSystem(zone, tuple(cells), np.eye(2, dtype=bool), initial=5)


def test_transition_system_cell_lookup():
    zone = unit_zone()
    cells = quarter_cells(zone)
    ts = compute_transitions(single_region_model(zone, constant_net([0.5, 0.5], 2)), cells)
    ids = ts.cells.locate([[0.1, 0.1], [0.6, 0.1], [2.0, 0.0], [0.6, 0.9], [3.0, 3.0]]) + 1
    assert list(ids) == [1, 3, 0, 4, 0]


def dot_text(ts) -> str:
    out = io.StringIO()
    export_dot(ts, out)
    return out.getvalue()


def test_export_dot_single_cell_golden():
    zone = unit_zone()
    ts = compute_transitions(single_region_model(zone, constant_net([0.4, 0.6], 2)), tree_of(zone, [zone.omega]))
    expected = (
        "digraph transition_system {\n"
        "  rankdir=LR;\n"
        "  Q1 [shape=box];\n"
        "  EXIT [shape=doublecircle];\n"
        "  Q1 -> Q1;\n"
        "  EXIT -> EXIT;\n"
        "}\n"
    )
    assert dot_text(ts) == expected == edge_dot(ts)


def test_export_dot_two_cells_golden():
    zone = unit_zone()
    model = split_region_model(zone, [constant_net([0.2, 0.2], 2), constant_net([0.8, 0.9], 2)])
    left, right = zone.omega.bisect(0)
    ts = compute_transitions(model, tree_of(zone, [left, right]), initial=1)
    expected = (
        "digraph transition_system {\n"
        "  rankdir=LR;\n"
        "  Q1 [shape=box, peripheries=2];\n"
        "  Q2 [shape=box];\n"
        "  EXIT [shape=doublecircle];\n"
        "  Q1 -> Q1;\n"
        "  Q2 -> Q2;\n"
        "  EXIT -> EXIT;\n"
        "}\n"
    )
    assert dot_text(ts) == expected


@pytest.mark.parametrize("with_initial", [False, True])
def test_export_dot_equals_the_per_edge_rendering(with_initial):
    """The row-joined export is byte for byte the DOT of one line per
    nonzero (i, j) of the relation: on random relations over up to 12 cells
    and on a fully dense one (every cell reaches every state)."""
    rng = np.random.default_rng(17)
    systems = [random_transition_system(rng, max_cells=12) for _ in range(40)]
    n = 9
    dense = np.ones((n + 1, n + 1), dtype=bool)
    dense[n, :n] = False
    systems.append(tiny_transition_system(dense, n))
    for ts in systems:
        if with_initial:
            ts = dataclasses.replace(ts, initial=int(rng.integers(1, ts.n_cells + 1)))
        assert dot_text(ts) == edge_dot(ts)


def test_save_and_export_dot_hold_one_row_block_of_a_dense_relation(tmp_path):
    """On a dense relation over 1 024 bisected cells (2.2 MB of `ts.json`,
    16.6 MB of DOT), the relation adds less than a few blocks of
    `STACK_BYTES * TEXT_SHARE` and DOT rows to `save`'s peak over that of the same
    document without it (the cells' JSON is built whole), and `export_dot`
    peaks below that much. Built as whole texts, the relation added 6.0 MB
    and `export_dot` peaked at 50 MB."""
    zone = WorkingZone(Box([0.0], [1.0]))
    cells = [zone.omega]
    for _ in range(10):
        cells = [half for cell in cells for half in cell.bisect(0)]
    n = len(cells)
    relation = np.ones((n + 1, n + 1), dtype=bool)
    relation[n, :n] = False
    ts = TransitionSystem(zone, tree_of(zone, cells), relation)
    row = len("".join(f"  Q{n} -> Q{j};\n" for j in range(1, n + 1)) + "  Q{n} -> EXIT;\n")
    bound = 4 * (STACK_BYTES * TEXT_SHARE + row)
    tracemalloc.start()
    try:
        ts.save(tmp_path / "ts.json")
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        write_artifact(tmp_path / "cells.json", {k: v for k, v in ts.to_dict().items() if k != "relation"})
        cells_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with open(tmp_path / "ts.dot", "w", encoding="utf-8") as f:
            export_dot(ts, f)
        dot_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert min((tmp_path / name).stat().st_size for name in ("ts.json", "ts.dot")) > 6 * bound
    assert save_peak - cells_peak < bound
    assert dot_peak < bound


def save_random_relation(path) -> np.ndarray:
    """Save a transition system over 1 024 bisected cells of [0, 1] with a
    random relation (2.2 MB of `ts.json`) to `path`; return its relation."""
    zone = WorkingZone(Box([0.0], [1.0]))
    cells = [zone.omega]
    for _ in range(10):
        cells = [half for cell in cells for half in cell.bisect(0)]
    relation = np.random.default_rng(5).random((len(cells) + 1,) * 2) < 0.3
    np.fill_diagonal(relation, True)  # total, with the sink's self-loop
    relation[-1, :-1] = False
    TransitionSystem(zone, tree_of(zone, cells), relation).save(path)
    return relation


def test_load_makes_no_box_per_cell(tmp_path, monkeypatch):
    """`TransitionSystem.load` reads the cells into the stacked rows of their
    tree: the `Box` objects it makes, for the zone, do not grow with the
    cells."""
    zone = WorkingZone(Box([0.0], [1.0]))
    cells = [zone.omega]
    made = {}
    for n in (1, 256):
        while len(cells) < n:
            cells = [half for cell in cells for half in cell.bisect(0)]
        path = tmp_path / f"{n}.json"
        TransitionSystem(zone, tree_of(zone, cells), np.eye(n + 1, dtype=bool)).save(path)
        with monkeypatch.context() as m:
            count = count_boxes(m)
            ts = TransitionSystem.load(path)
        assert ts.n_cells == n
        made[n] = count[0]
    assert made[1] == made[256] <= 4, made


def test_save_makes_no_box_per_box(tmp_path, monkeypatch):
    """`HybridModel.save` and `TransitionSystem.save` write the region boxes
    and the cells from the stacked rows of their trees: neither makes a `Box`."""
    model, _ = fitted_swirl_model(epsilon=0.005, gamma=1e-8)
    zone = WorkingZone(Box([0.0], [1.0]))
    cells = [zone.omega]
    while len(cells) < 256:
        cells = [half for cell in cells for half in cell.bisect(0)]
    ts = TransitionSystem(zone, tree_of(zone, cells), np.eye(257, dtype=bool))
    assert len(model.tree) > 90 and model.n_regions > 10
    with monkeypatch.context() as m:
        count = count_boxes(m)
        model.save(tmp_path / "model.json")
        ts.save(tmp_path / "ts.json")
    assert count[0] == 0


def test_load_holds_the_relation_text_once(tmp_path):
    """On a random relation over 1 024 bisected cells (2.2 MB of `ts.json`),
    `TransitionSystem.load` peaks at under 2.5 times the file's size (2.0
    reads, set by the file's read): the relation is decoded from the text in
    place, one row block at a time. Decoding the whole text, with its bytes
    and whitespace-free copies, peaked at 5.1 times."""
    path = tmp_path / "ts.json"
    relation = save_random_relation(path)
    tracemalloc.start()
    try:
        back = TransitionSystem.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.relation, relation)
    assert peak < 2.5 * path.stat().st_size


def test_load_of_a_relation_with_an_entry_on_each_line_holds_its_text_once(tmp_path):
    """The random relation of `save_random_relation`, with each entry
    on a line of its own as `python -m json.tool` lays it out (11.7 MB):
    `TransitionSystem.load` reads the relation through `json` and
    `number_rows` and peaks at under 2.5 times the file's size (2.0 reads:
    the text, then json's lists beside it). Decoding a whitespace-free copy
    of the text, with its bracket scan, peaked at 4.0 times."""
    path = tmp_path / "ts.json"
    relation = save_random_relation(path)
    path.write_text(path.read_text().replace(",", ",\n        "))
    tracemalloc.start()
    try:
        back = TransitionSystem.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.relation, relation)
    assert peak < 2.5 * path.stat().st_size


def test_transition_system_json_round_trip(tmp_path):
    model, _ = fitted_swirl_model(seed=1, n_samples=600)
    cells = build_cells(model.zone, sample_traces(model, L=30, M=30, seed=2), epsilon=0.05)
    ts = compute_transitions(model, cells, initial=1)
    path = tmp_path / "ts.json"
    ts.save(path)
    back = TransitionSystem.load(path)
    assert back.n_cells == ts.n_cells
    assert np.array_equal(back.relation, ts.relation)
    assert back.initial == 1

    import json

    doc = json.loads(path.read_text())
    del doc["format_version"]
    with pytest.raises(ValueError, match="format_version"):
        TransitionSystem.from_dict(doc)


def test_simulated_transitions_respect_relation():
    model, _ = fitted_swirl_model(seed=2, n_samples=800)
    cells = build_cells(model.zone, sample_traces(model, L=40, M=40, seed=3), epsilon=0.05)
    ts = compute_transitions(model, cells)
    states, lengths = sequential_traces(model, L=20, M=50, seed=99)
    src, dst, exits = observed_transitions(states, lengths, ts.cells)
    missing = ~ts.relation[src, dst]
    assert not missing.any(), f"missing transitions Q{src[missing] + 1} -> Q{dst[missing] + 1}"
    assert ts.relation[exits, ts.n_cells].all(), "missing exit transition"


def test_refining_cells_projects_into_coarse_relation():
    model, _ = fitted_swirl_model(seed=3, n_samples=600)
    omega = model.zone.omega
    left, right = omega.bisect(0)
    coarse = tree_of(omega, [left, right])
    refined = tree_of(omega, [*left.bisect(1), *right.bisect(1)])
    parent = [0, 0, 1, 1]

    r_coarse = compute_transitions(model, coarse).relation
    r_refined = compute_transitions(model, refined).relation

    n_ref = len(refined)
    for i in range(n_ref + 1):
        for j in range(n_ref + 1):
            if not r_refined[i, j]:
                continue
            pi = parent[i] if i < n_ref else 2  # sink projects to sink
            pj = parent[j] if j < n_ref else 2
            assert r_coarse[pi, pj], "refined edge missing from coarse relation"


def test_artifact_saves_differ_only_in_created_utc(tmp_path):
    """Two saves made at different times are byte-identical once the
    `"created_utc": "...",` line is removed; each top-level key has a line."""
    model, _ = fitted_swirl_model(n_samples=800, epsilon=0.05)
    cells = build_cells(model.zone, sample_traces(model, 30, 30, seed=0), epsilon=0.05)
    ts = compute_transitions(model, cells, initial=1)
    created = re.compile(rb'\n\s*"created_utc": "[^"]*",?')
    for artifact in (model, ts):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        artifact.save(first)
        time.sleep(0.002)
        artifact.save(second)
        a, b = first.read_bytes(), second.read_bytes()
        assert a != b
        assert created.sub(b"", a) == created.sub(b"", b)
        doc = json.loads(a)
        lines = a.decode().splitlines()
        assert lines[0] == "{" and lines[-1] == "}"
        assert [line.split('"')[1] for line in lines[1:-1]] == sorted(doc)
        assert type(artifact).load(first).to_dict().keys() == doc.keys()
    assert json.loads(a)["relation"] == ts.relation.astype(int).tolist()


def test_load_rejects_cells_that_do_not_tile_the_zone(tmp_path):
    model, _ = fitted_swirl_model(n_samples=800, epsilon=0.05)
    cells = build_cells(model.zone, sample_traces(model, 30, 30, seed=0), epsilon=0.05)
    doc = compute_transitions(model, cells).to_dict()
    k = len(doc["cells"]) // 2
    del doc["cells"][k]
    rel = np.delete(np.delete(np.asarray(doc["relation"]), k, axis=0), k, axis=1)
    rel[:, -1] = 1  # every row keeps a successor: the relation stays square and total
    doc["relation"] = rel.astype(int).tolist()
    with pytest.raises(DataError, match="gap"):
        TransitionSystem.from_dict(doc)


def test_malformed_relation_or_initial_is_rejected_naming_the_key(tmp_path):
    """Entries 2, 0.5, true or "01", a non-square or empty relation, an
    initial cell id that is no integer, and a document that is cut short or
    runs on: `load` raises DataError naming the key, and a relation defect
    by its row or entry (`relation[0][0] must be a JSON 0 or 1, got 2`).
    `from_dict` raises the same message for every document that is JSON."""
    relation = np.eye(4, dtype=bool)
    relation[0, 1] = relation[1, 2] = relation[2, 3] = True
    ts = tiny_transition_system(relation, 3)
    assert ts.to_dict()["relation"].dtype == bool
    path = tmp_path / "ts.json"
    ts.save(path)
    for case, (text, key) in malformed_ts_texts(path.read_text()).items():
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(DataError) as err:
            TransitionSystem.load(bad)
        loaded = str(err.value)
        assert key in loaded.replace(str(bad), ""), case
        if case not in ("truncated", "trailing data"):
            with pytest.raises(DataError) as err:
                TransitionSystem.from_dict(json.loads(text))
            assert str(err.value) == loaded, case
    back = TransitionSystem.from_dict(ts.to_dict())
    assert np.array_equal(back.relation, relation) and back.initial is None


@pytest.mark.parametrize("spaced", [False, True], ids=["compact", "spaced"])
@pytest.mark.parametrize("entry", ["-0", "256", "-1", "1.0", "1e0", "true", '"01"', "[1]"])
def test_relation_entries_are_the_json_integers_0_and_1(tmp_path, spaced, entry):
    """A relation entry is the JSON integer 0 or 1, in compact text and in
    text with an entry on each line: `-0` is JSON's integer 0 and reads as
    0, and 256, -1, 1.0, 1e0, true, "01" and [1] are rejected by `load` and
    `from_dict` alike, naming `relation[0][0]`."""
    relation = np.eye(3, dtype=bool)
    relation[0] = [False, True, False]
    path = tmp_path / "ts.json"
    tiny_transition_system(relation, 2).save(path)
    text = path.read_text().replace('"relation": [[0,', f'"relation": [[{entry},')
    assert f"[[{entry}," in text
    if spaced:
        text = text.replace(",", ",\n        ")
    path.write_text(text)
    if entry == "-0":
        for ts in (TransitionSystem.load(path), TransitionSystem.from_dict(json.loads(text))):
            assert np.array_equal(ts.relation, relation)
        return
    with pytest.raises(DataError, match=re.escape("relation[0][0] must be a JSON 0 or 1, got ")) as err:
        TransitionSystem.load(path)
    with pytest.raises(DataError) as again:
        TransitionSystem.from_dict(json.loads(text))
    assert str(again.value) == str(err.value)
