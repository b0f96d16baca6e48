import dataclasses
import json
import re
import time

import numpy as np
import pytest

from dynabs import (
    Box,
    BoxTree,
    DataError,
    Dataset,
    ElmNetwork,
    TransitionSystem,
    WorkingZone,
    build_cells,
    compute_transitions,
    export_dot,
    fit_output_weights,
    init_elm,
    me_partition,
    membership_matrix,
    merge_and_learn,
    sample_traces,
)
from dynabs.abstraction import TraceSet

from oracles import edge_dot, observed_transitions, pairwise_transitions, sequential_traces, trace_inputs

from synthdata import (
    alternating_slab_model,
    constant_net,
    fitted_swirl_model,
    malformed_ts_texts,
    random_transition_system,
    single_region_model,
    split_region_model,
    tiny_transition_system,
    two_cluster_points,
    unit_zone,
)


def quarter_cells(zone):
    left, right = zone.omega.bisect(0)
    ll, lu = left.bisect(1)
    rl, ru = right.bisect(1)
    return [ll, lu, rl, ru]


def test_sample_traces_shapes_and_determinism():
    model = single_region_model(unit_zone(), constant_net([0.5, 0.5], 2))
    traces = sample_traces(model, L=1, M=1, seed=0)
    assert len(traces) == 1
    assert traces.states.shape == (1, 2, 2)
    assert traces.lengths.tolist() == [1]
    assert [f.name for f in dataclasses.fields(traces)] == ["states", "lengths"]
    assert traces.visited.shape == (2, 2)

    a = sample_traces(model, L=7, M=9, seed=42)
    b = sample_traces(model, L=7, M=9, seed=42)
    assert np.array_equal(a.states, b.states, equal_nan=True)
    assert np.array_equal(a.lengths, b.lengths)

    c = sample_traces(model, L=7, M=9, seed=43)
    assert not np.array_equal(a.states, c.states, equal_nan=True)


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
    traces = sample_traces(input_model(), L=4, M=6, seed=1)
    assert traces.lengths.max() > 2
    step = np.arange(6) < traces.lengths[:, None]  # (run, k) pairs with a step k -> k + 1
    expected = 0.5 * traces.states[:, :-1] + 0.5 * trace_inputs(input_model(), L=4, M=6, seed=1)
    assert np.allclose(traces.states[:, 1:][step], expected[step], atol=1e-15)


def test_sample_traces_stacked_arrays():
    """Runs that did not exit took all M steps; entries past each run's end
    are NaN; `visited` is the runs' in-zone states, run after run."""
    L, M = 40, 12
    traces = sample_traces(input_model(), L=L, M=M, seed=6)
    exited = traces.lengths < M
    assert exited.any() and not exited.all()
    assert (traces.lengths[~exited] == M).all()
    k = np.arange(M + 1)
    assert np.isnan(traces.states[k > traces.lengths[:, None]]).all()
    assert np.isfinite(traces.states[k <= traces.lengths[:, None]]).all()
    runs = [traces.states[i, : traces.lengths[i] + 1] for i in range(L)]
    assert np.array_equal(traces.visited, np.concatenate(runs))


def fitted_input_model():
    """Several regions fitted to x+ = 0.95 x + 0.3 u + 0.1 sin(3 x) on
    x in [-1, 1], u in [-0.5, 0.5]; some runs leave the zone."""
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, 600)
    u = rng.uniform(-0.5, 0.5, 600)
    data = Dataset(1, 1, np.column_stack([x, u]), (0.95 * x + 0.3 * u + 0.1 * np.sin(3.0 * x))[:, None])
    zone = WorkingZone(Box([-1.0], [1.0]), input_bounds=Box([-0.5], [0.5]))
    model = merge_and_learn(me_partition(zone, data.states, 0.01), data, hidden_count=10, seed=0, gamma=1e-7)
    assert model.n_regions > 1
    return model


def drift_model():
    """x+ = x + 0.1 on [0, 1]: every run leaves the zone within 11 steps,
    each at its own step."""
    zone = WorkingZone(Box([0.0], [1.0]))
    return single_region_model(zone, ElmNetwork(np.array([[1.0], [0.0]]), np.array([0.0, 1.0]),
                                                np.array([[1.0, 0.1]]), 2, 0))


@pytest.mark.parametrize("case", ["swirl regions", "inputs", "all exit"])
def test_sample_traces_equal_the_sequential_oracle(case):
    """The live-row sampler takes the steps, draws and exits of the loop
    that masks all L runs at every step, bit for bit."""
    if case == "swirl regions":
        model, L, M = fitted_swirl_model(epsilon=0.01, gamma=1e-6)[0], 60, 50
        assert model.n_regions > 1 and model.region_walk.depth < model.tree.box_walk.depth
    elif case == "inputs":
        model, L, M = fitted_input_model(), 40, 30
    else:
        model, L, M = drift_model(), 25, 30
    got, want = sample_traces(model, L, M, seed=5), sequential_traces(model, L, M, seed=5)
    assert np.array_equal(got.states, want.states, equal_nan=True)
    assert np.array_equal(got.lengths, want.lengths)
    if case == "inputs":
        assert (got.lengths < M).any() and not (got.lengths < M).all()
    if case == "all exit":
        assert np.unique(got.lengths).size > 5 and got.lengths.max() < M


def test_simulate_reproduces_sampled_traces_with_inputs():
    """simulate from a sampled trace's start state, fed that trace's inputs,
    retraces it up to its end: simulate's one-row rollout and sample_traces'
    batched rollout take the same steps."""
    model = fitted_input_model()
    traces = sample_traces(model, L=30, M=25, seed=4)
    assert (traces.lengths < 25).any() and (traces.lengths > 10).any()
    for states, inputs, n in zip(traces.states, trace_inputs(model, L=30, M=25, seed=4), traces.lengths):
        result = model.simulate(states[0], inputs[:n], steps=n)
        assert not result.truncated and result.out_of_zone_steps == []
        assert np.allclose(result.states, states[: n + 1], rtol=0.0, atol=1e-12)


def test_sample_traces_exit_marker():
    model = single_region_model(unit_zone(), constant_net([2.0, 2.0], 2))
    traces = sample_traces(model, L=4, M=5, seed=3)
    assert (traces.lengths < 5).all()
    assert (traces.lengths == 0).all()  # only the initial state stays in the zone
    assert np.isnan(traces.states[:, 1:]).all()
    assert membership_matrix([unit_zone().omega], traces.states[:, 0]).all()


def test_sample_traces_draws_inputs_within_bounds():
    zone = WorkingZone(Box([0.0], [1.0]), input_bounds=Box([-0.25], [0.25]))
    rng = np.random.default_rng(0)
    z = np.column_stack([rng.uniform(0, 1, 80), rng.uniform(-0.25, 0.25, 80)])
    from dynabs import Dataset

    net = fit_output_weights(init_elm(2, 1, 8, seed=0), Dataset(1, 1, z, 0.5 * z[:, :1]))
    model = single_region_model(zone, net)
    traces = sample_traces(model, L=3, M=10, seed=5)
    inputs = trace_inputs(model, L=3, M=10, seed=5)
    assert inputs.shape == (3, 10, 1)
    step = np.arange(10) < traces.lengths[:, None]
    applied = inputs[step]
    assert applied.shape[0] == traces.lengths.sum()  # one input per step taken
    assert np.all(applied >= -0.25) and np.all(applied <= 0.25)
    # and those are the inputs the steps took
    assert np.allclose(model.step(traces.states[:, :-1][step], applied), traces.states[:, 1:][step],
                       rtol=0.0, atol=1e-12)


def test_build_cells_huge_epsilon_single_cell():
    model = single_region_model(unit_zone(), constant_net([0.5, 0.5], 2))
    traces = sample_traces(model, L=10, M=10, seed=0)
    cells = build_cells(model.zone, traces, epsilon=1e6)
    assert len(cells) == 1
    assert np.array_equal(cells[0].lo, model.zone.omega.lo)


def test_build_cells_two_cluster_traces_split_midline():
    pts = two_cluster_points(seed=11)
    traces = TraceSet(pts[None], np.array([len(pts) - 1]))
    cells = build_cells(unit_zone(), traces, epsilon=0.05)
    assert len(cells) > 1
    # the first committed cut is the x1 midline: no cell crosses it
    for c in cells:
        assert c.hi[0] <= 0.5 or c.lo[0] >= 0.5


def test_transitions_self_loop_only():
    zone = unit_zone()
    model = single_region_model(zone, constant_net([0.4, 0.6], 2))
    ts = compute_transitions(model, [zone.omega])
    assert ts.n_cells == 1
    assert ts.relation[0, 0] and not ts.relation[0, 1]
    assert ts.relation[1, 1]  # sink self-loop
    assert ts.edge_count() == 2


def test_transitions_exit_edge():
    zone = unit_zone()
    model = single_region_model(zone, constant_net([1.5, 0.5], 2))
    ts = compute_transitions(model, [zone.omega])
    assert ts.relation[0, 1]  # to sink
    assert not ts.relation[0, 0]

    # one region's piece stays, the other's leaves: both edges
    model = split_region_model(zone, [constant_net([0.2, 0.2], 2), constant_net([1.5, 0.5], 2)])
    ts = compute_transitions(model, [zone.omega])
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
    ts = compute_transitions(model, [left, right])
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
    assert model.n_regions > 1 and sum(len(r.boxes) for r in model.regions) > model.n_regions
    trace_cells = build_cells(model.zone, sample_traces(model, 40, 40, seed=4), epsilon=0.02)
    # coarse cells over the fine region tiling: each cell holds 20+ pieces of several networks
    for cells in (trace_cells, quarter_cells(model.zone)):
        ts = compute_transitions(model, cells)
        assert np.array_equal(ts.relation, pairwise_transitions(model, cells))


def test_transitions_with_inputs_equal_pairwise_reference():
    zone = WorkingZone(Box([0.0], [1.0]), input_bounds=Box([-0.25], [0.25]))
    nets = [init_elm(2, 1, 6, seed=s) for s in (1, 2)]
    rng = np.random.default_rng(0)
    z = np.column_stack([rng.uniform(0, 1, 80), rng.uniform(-0.25, 0.25, 80)])
    nets = [fit_output_weights(n, Dataset(1, 1, z, 0.8 * z[:, :1] + z[:, 1:])) for n in nets]
    model = alternating_slab_model(zone, nets)  # each cell holds two pieces of each network
    cells = [c for half in zone.omega.bisect(0) for c in half.bisect(0)]
    ts = compute_transitions(model, cells)
    assert np.array_equal(ts.relation, pairwise_transitions(model, cells))


def test_transitions_require_a_bisection_tiling():
    """compute_transitions builds a BoxTree over the cells and raises its named cause."""
    zone = unit_zone()
    model = single_region_model(zone, constant_net([0.4, 0.6], 2))
    left, right = zone.omega.bisect(0)
    recut = [Box([0.0, 0.0], [0.25, 1.0], [False, True]), Box([0.25, 0.0], [1.0, 1.0], [True, True])]
    for cells, cause in (([left], "gap"), ([left, right, right], "overlap"), (recut, "not a bisection tiling"),
                         ([Box(left.lo, left.hi, [True, True]), right], "closed exactly on the zone's closed faces")):
        with pytest.raises(ValueError, match=cause):
            compute_transitions(model, cells)


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
    ids = BoxTree(ts.zone.omega, ts.cells).locate([[0.1, 0.1], [0.6, 0.1], [2.0, 0.0], [0.6, 0.9], [3.0, 3.0]]) + 1
    assert list(ids) == [1, 3, 0, 4, 0]


def test_export_dot_single_cell_golden():
    zone = unit_zone()
    ts = compute_transitions(single_region_model(zone, constant_net([0.4, 0.6], 2)), [zone.omega])
    expected = (
        "digraph transition_system {\n"
        "  rankdir=LR;\n"
        "  Q1 [shape=box];\n"
        "  EXIT [shape=doublecircle];\n"
        "  Q1 -> Q1;\n"
        "  EXIT -> EXIT;\n"
        "}\n"
    )
    assert export_dot(ts) == expected == edge_dot(ts)


def test_export_dot_two_cells_golden():
    zone = unit_zone()
    model = split_region_model(zone, [constant_net([0.2, 0.2], 2), constant_net([0.8, 0.9], 2)])
    left, right = zone.omega.bisect(0)
    ts = compute_transitions(model, [left, right], initial=1)
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
    assert export_dot(ts) == expected


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
        assert export_dot(ts) == edge_dot(ts)


def test_transition_system_json_round_trip(tmp_path):
    model, _ = fitted_swirl_model(seed=1, n_samples=600)
    traces = sample_traces(model, L=30, M=30, seed=2)
    cells = build_cells(model.zone, traces, epsilon=0.05)
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
    traces = sample_traces(model, L=40, M=40, seed=3)
    cells = build_cells(model.zone, traces, epsilon=0.05)
    ts = compute_transitions(model, cells)
    fresh = sample_traces(model, L=20, M=50, seed=99)
    src, dst, exits = observed_transitions(fresh, BoxTree(ts.zone.omega, ts.cells))
    missing = ~ts.relation[src, dst]
    assert not missing.any(), f"missing transitions Q{src[missing] + 1} -> Q{dst[missing] + 1}"
    assert ts.relation[exits, ts.n_cells].all(), "missing exit transition"


def test_refining_cells_projects_into_coarse_relation():
    model, _ = fitted_swirl_model(seed=3, n_samples=600)
    omega = model.zone.omega
    left, right = omega.bisect(0)
    coarse = [left, right]
    refined = [*left.bisect(1), *right.bisect(1)]
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
    runs on: `load` and `from_dict` both raise DataError naming the key."""
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
        assert key in str(err.value).replace(str(bad), ""), case
        if case not in ("truncated", "trailing data"):
            with pytest.raises(DataError) as err:
                TransitionSystem.from_dict(json.loads(text))
            assert key in str(err.value), case
    back = TransitionSystem.from_dict(ts.to_dict())
    assert np.array_equal(back.relation, relation) and back.initial is None
