import json
import re

import numpy as np
import pytest

from dynabs import (
    Box,
    DataError,
    Dataset,
    ElmNetwork,
    HybridModel,
    PartitionSet,
    Region,
    WorkingZone,
    fit_output_weights,
    hybrid_mse,
    me_partition,
    membership_matrix,
    merge_and_learn,
    mse,
    predict_batch,
)

from oracles import linf_distance, raw_merge
from synthdata import (
    constant_net,
    malformed_model_texts,
    random_tiling_cases,
    single_region_model,
    split_region_model,
    swirl_dataset,
    swirl_zone,
    unit_zone,
)


def manual_two_partitions(zone, data):
    left, right = zone.omega.bisect(0)
    mid = 0.5 * (zone.omega.lo[0] + zone.omega.hi[0])
    idx = np.arange(len(data))
    lower = data.states[:, 0] < mid
    return PartitionSet(zone, [left, right], [idx[lower], idx[~lower]], epsilon=0.0)


def test_huge_gamma_merges_everything():
    data = swirl_dataset(400, seed=2)
    parts = me_partition(swirl_zone(), data.states, epsilon=0.05)
    assert len(parts) > 1
    model = merge_and_learn(parts, data, hidden_count=20, seed=0, gamma=1e6)
    assert model.n_regions == 1
    assert len(model.regions[0].boxes) == len(parts)


def test_representable_pair_merges():
    zone = WorkingZone(Box([-2.0], [2.0]))
    z = np.linspace(-2.0, 2.0, 16).reshape(-1, 1)
    data = Dataset(1, 0, z, 0.5 * np.maximum(z, 0.0))
    parts = manual_two_partitions(zone, data)
    model = merge_and_learn(parts, data, hidden_count=20, seed=1, gamma=1e-9)
    assert model.n_regions == 1


def test_zero_gamma_keeps_noisy_partitions_apart():
    rng = np.random.default_rng(0)
    zone = unit_zone()
    z = rng.uniform(0, 1, size=(60, 2))
    data = Dataset(2, 0, z, rng.normal(size=(60, 2)))
    parts = manual_two_partitions(zone, data)
    model = merge_and_learn(parts, data, hidden_count=20, seed=0, gamma=0.0)
    assert model.n_regions == 2
    assert model.stats.merges == 0


def test_merge_names_the_partition_whose_statistics_overflow():
    """Finite successors near the float limit in one later partition: pair
    tests with it fail, it raises on its turn as row N, and numpy warns of
    nothing (RuntimeWarnings fail this suite)."""
    data = swirl_dataset(600, seed=5)
    parts = me_partition(swirl_zone(), data.states, epsilon=0.04)
    k = len(parts) // 2
    y = data.y.copy()
    y[parts.assignments[k]] = 1e300
    with pytest.raises(FloatingPointError, match=re.escape(f"partition {parts.boxes[k]!r} is not finite")):
        merge_and_learn(parts, Dataset(2, 0, data.z, y), hidden_count=20, seed=3, gamma=1e-5)


def test_merge_is_deterministic():
    data = swirl_dataset(600, seed=5)
    parts = me_partition(swirl_zone(), data.states, epsilon=0.04)
    a = merge_and_learn(parts, data, hidden_count=20, seed=3, gamma=1e-5)
    b = merge_and_learn(parts, data, hidden_count=20, seed=3, gamma=1e-5)
    assert a.n_regions == b.n_regions
    for na, nb in zip(a.networks, b.networks):
        assert np.array_equal(na.w_in, nb.w_in)
        assert np.array_equal(na.w_out, nb.w_out)


def test_zero_sample_region_gets_zero_map_with_warning():
    rng = np.random.default_rng(1)
    zone = unit_zone()
    z = np.column_stack([rng.uniform(0.0, 0.49, 30), rng.uniform(0, 1, 30)])
    data = Dataset(2, 0, z, rng.normal(size=(30, 2)))
    left, right = zone.omega.bisect(0)
    parts = PartitionSet(zone, [left, right], [np.arange(30), np.arange(0)], epsilon=0.0)
    with pytest.warns(RuntimeWarning, match="no samples"):
        model = merge_and_learn(parts, data, hidden_count=10, seed=0, gamma=0.0)
    assert model.n_regions == 2
    assert np.all(model.networks[1].w_out == 0.0)


def test_locate_inside_and_boundary_and_outside():
    zone = unit_zone()
    model = split_region_model(zone, [constant_net([0.1, 0.1], 2), constant_net([0.9, 0.9], 2)])

    # the cut face [0.5, 0.5] belongs to the region whose lower edge it is;
    # out-of-zone points fall back to the nearest region and raise the flag
    ids, out = model.locate_batch([[0.2, 0.5], [0.7, 0.5], [0.5, 0.5], [1.3, 0.5], [-0.2, 0.5], [0.2, 0.2]])
    assert ids.tolist() == [1, 2, 2, 2, 1, 1]
    assert out.tolist() == [False, False, False, True, True, False]


def test_step_single_region_equals_predict():
    zone = unit_zone()
    rng = np.random.default_rng(4)
    net = fit_output_weights(
        ElmNetwork(rng.uniform(-1, 1, (8, 2)), rng.uniform(-1, 1, 8), np.zeros((2, 8)), 8, 0),
        Dataset(2, 0, rng.uniform(0, 1, (40, 2)), rng.uniform(0, 1, (40, 2))),
    )
    model = single_region_model(zone, net)
    x = np.array([[0.3, 0.8], [0.1, 0.2], [1.0, 1.0]])
    assert np.array_equal(model.step(x), predict_batch(net, x))


def test_step_constant_regions():
    zone = unit_zone()
    c1, c2 = [0.25, 0.25], [0.75, 0.75]
    model = split_region_model(zone, [constant_net(c1, 2), constant_net(c2, 2)])
    # the boundary point [0.5, 0.5] follows locate's half-open choice
    assert np.allclose(model.step([[0.1, 0.9], [0.9, 0.1], [0.5, 0.5]]), [c1, c2, c2])


def test_simulate_zero_steps():
    model = single_region_model(unit_zone(), constant_net([0.5, 0.5], 2))
    result = model.simulate([0.1, 0.1], steps=0)
    assert result.states.shape == (1, 2)
    assert not result.truncated and result.out_of_zone_steps == []


def test_simulate_identity_model_has_tiny_drift():
    zone = WorkingZone(Box([0.5, 0.5], [1.5, 1.5]))
    rng = np.random.default_rng(8)
    z = rng.uniform(0.5, 1.5, size=(50, 2))
    data = Dataset(2, 0, z, z)
    # identity hidden features on the positive quadrant: ReLU(I x) = x
    net = fit_output_weights(ElmNetwork(np.eye(2), np.zeros(2), np.zeros((2, 2)), 2, 0), data)
    model = single_region_model(zone, net)
    result = model.simulate([1.0, 1.2], steps=20)
    assert result.states.shape == (21, 2)
    drift = np.abs(np.diff(result.states, axis=0)).max()
    assert drift < 1e-6
    assert result.out_of_zone_steps == []


def test_simulate_flags_out_of_zone_states():
    model = single_region_model(unit_zone(), constant_net([2.0, 2.0], 2))
    result = model.simulate([0.5, 0.5], steps=3)
    assert result.states.shape == (4, 2)
    assert result.out_of_zone_steps == [1, 2, 3]


def test_simulate_truncates_on_overflow():
    zone = WorkingZone(Box([0.0], [1.0]))
    net = ElmNetwork(np.array([[1.0]]), np.zeros(1), np.array([[1e200]]), 1, 0)
    model = single_region_model(zone, net)
    with np.errstate(over="ignore"):  # the overflow is the point of this test
        result = model.simulate([0.5], steps=10)
    assert result.truncated
    assert "non-finite" in result.message
    assert result.states.shape[0] < 11


def test_simulate_flags_each_out_of_zone_position_once():
    """out_of_zone_steps lists every trace position whose state lies outside
    the zone: on a truncated trace the last kept state, and on a full trace a
    final state that alone leaves the zone."""
    zone = WorkingZone(Box([0.0], [1.0]))
    # x -> 1e200 x: 0.5 leaves the zone at once, and the next step overflows
    blowup = single_region_model(zone, ElmNetwork(np.array([[1.0]]), np.zeros(1), np.array([[1e200]]), 1, 0))
    with np.errstate(over="ignore"):
        result = blowup.simulate([0.5], steps=10)
    assert result.truncated and result.states.shape == (2, 1)
    assert result.out_of_zone_steps == [1]

    # x -> 2 x: 0.3, 0.6 stay inside and 1.2 alone leaves
    doubling = single_region_model(zone, ElmNetwork(np.array([[1.0]]), np.zeros(1), np.array([[2.0]]), 1, 0))
    result = doubling.simulate([0.3], steps=2)
    assert not result.truncated
    assert np.array_equal(result.states[:, 0], [0.3, 0.6, 1.2])
    assert result.out_of_zone_steps == [2]


def test_simulate_rejects_non_finite_start_state():
    model = single_region_model(unit_zone(), constant_net([0.5, 0.5], 2))
    for x0 in ([np.nan, 0.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match=f"coordinate {int(np.isfinite(x0[0]))}"):
            model.simulate(x0, steps=3)


def test_simulate_requires_inputs_when_model_has_them():
    zone = WorkingZone(Box([0.0], [1.0]), input_bounds=Box([-1.0], [1.0]))
    from dynabs import init_elm

    model = single_region_model(zone, init_elm(2, 1, 4, seed=0))
    with pytest.raises(ValueError):
        model.simulate([0.5], steps=3)
    result = model.simulate([0.5], inputs=np.zeros((3, 1)), steps=3)
    assert result.states.shape[0] <= 4


def test_training_samples_reproduce_owning_network():
    data = swirl_dataset(800, seed=3)
    parts = me_partition(swirl_zone(), data.states, epsilon=0.04)
    model = merge_and_learn(parts, data, hidden_count=20, seed=0, gamma=1e-6)
    ids, out = model.locate_batch(data.states)
    assert not out.any()
    stepped = model.step(data.states)
    for region in model.regions:
        rows = ids == region.id
        assert rows.any()
        assert np.array_equal(stepped[rows], predict_batch(model.network_of(region.id), data.z[rows]))


def test_regions_tile_zone_after_merging():
    data = swirl_dataset(800, seed=4)
    parts = me_partition(swirl_zone(), data.states, epsilon=0.04)
    model = merge_and_learn(parts, data, hidden_count=20, seed=0, gamma=1e-5)
    boxes = [b for r in model.regions for b in r.boxes]
    rng = np.random.default_rng(0)
    probes = rng.uniform(-1, 1, size=(10_000, 2))
    assert (membership_matrix(boxes, probes).sum(axis=1) == 1).all()


def test_model_json_round_trip_and_version(tmp_path):
    data = swirl_dataset(300, seed=6)
    parts = me_partition(swirl_zone(), data.states, epsilon=0.05)
    model = merge_and_learn(parts, data, hidden_count=10, seed=2, gamma=1e-5)
    path = tmp_path / "model.json"
    model.save(path)
    back = HybridModel.load(path)
    assert back.n_regions == model.n_regions
    x = np.random.default_rng(6).uniform(-1, 1, size=(200, 2))
    assert np.array_equal(back.step(x), model.step(x))
    assert back.gamma == model.gamma and back.epsilon == model.epsilon

    import json

    doc = json.loads(path.read_text())
    del doc["format_version"]
    with pytest.raises(ValueError, match="format_version"):
        HybridModel.from_dict(doc)


@pytest.mark.parametrize("gamma", [float("nan"), -1e-9, -np.inf])
def test_merge_rejects_nan_and_negative_gamma(gamma):
    data = swirl_dataset(300, seed=6)
    parts = me_partition(swirl_zone(), data.states, epsilon=0.05)
    with pytest.raises(ValueError, match=re.escape(f"gamma must be >= 0, got {gamma!r}")):
        merge_and_learn(parts, data, hidden_count=10, seed=2, gamma=gamma)


def test_malformed_model_boxes_are_rejected_naming_the_box(tmp_path):
    """A region box with a JSON string, boolean or out-of-range number where
    another kind belongs, or that is degenerate, ragged or missing a bound,
    fails `load` and `from_dict` with a DataError naming the region and box."""
    data = swirl_dataset(300, seed=6)
    model = merge_and_learn(me_partition(swirl_zone(), data.states, epsilon=0.05), data, hidden_count=10, seed=2, gamma=1e-5)
    path = tmp_path / "model.json"
    model.save(path)
    cases = malformed_model_texts(path.read_text())
    assert any("regions[" in named and "boxes[1]" in named for _, named in cases.values())
    for case, (text, named) in cases.items():
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(DataError) as err:
            HybridModel.load(bad)
        assert named in str(err.value), case
        with pytest.raises(DataError) as err:
            HybridModel.from_dict(json.loads(text))
        assert named in str(err.value), case


def test_hybrid_mse_zero_for_self_consistent_model():
    zone = unit_zone()
    c = [0.5, 0.5]
    model = single_region_model(zone, constant_net(c, 2))
    z = np.random.default_rng(0).uniform(0, 1, (20, 2))
    data = Dataset(2, 0, z, np.tile(c, (20, 1)))
    assert hybrid_mse(model, data) == 0.0


def test_refit_is_deterministic():
    data = swirl_dataset(500, seed=9)
    parts = me_partition(swirl_zone(), data.states, epsilon=0.04)
    a = merge_and_learn(parts, data, hidden_count=15, seed=1, gamma=1e-6)
    b = merge_and_learn(parts, data, hidden_count=15, seed=1, gamma=1e-6)
    assert a.n_regions == b.n_regions
    for ra, rb in zip(a.regions, b.regions):
        assert [(x.lo.tolist(), x.hi.tolist()) for x in ra.boxes] == [(x.lo.tolist(), x.hi.tolist()) for x in rb.boxes]
    for na, nb in zip(a.networks, b.networks):
        assert np.array_equal(na.w_out, nb.w_out)


def test_locate_batch_equals_membership_reference():
    """Tree lookup plus nearest-region fallback against brute-force membership
    and a per-region distance scan, on box corners, cut faces and outside points."""
    data = swirl_dataset(800, seed=4)
    parts = me_partition(swirl_zone(), data.states, epsilon=0.02)
    model = merge_and_learn(parts, data, hidden_count=10, seed=0, gamma=1e-8)
    assert model.n_regions > 1
    boxes = [b for r in model.regions for b in r.boxes]
    owner = np.array([r.id for r in model.regions for _ in r.boxes])
    rng = np.random.default_rng(5)
    points = np.concatenate([
        np.stack([b.lo for b in boxes]),
        np.stack([b.hi for b in boxes]),
        np.stack([np.array([b.lo[0], 0.5 * (b.lo[1] + b.hi[1])]) for b in boxes]),
        rng.uniform(-1.0, 1.0, size=(2000, 2)),
        rng.uniform(-3.0, 3.0, size=(500, 2)),
    ])
    ids, out = model.locate_batch(points)
    member = membership_matrix(boxes, points)
    assert np.array_equal(out, ~member.any(axis=1))
    assert np.array_equal(ids[~out], owner[member[~out].argmax(axis=1)])
    for x, rid in zip(points[out], ids[out]):
        nearest = min(model.regions, key=lambda r: (min(linf_distance(b, x) for b in r.boxes), r.id))
        assert rid == nearest.id


def test_model_requires_regions_that_tile_the_zone():
    zone = unit_zone()
    left, right = zone.omega.bisect(0)
    net = constant_net([0.5, 0.5], 2)
    with pytest.raises(ValueError, match="gap"):
        HybridModel(zone, (Region(1, (left,)),), (net,), gamma=0.0, epsilon=0.0)
    with pytest.raises(ValueError, match="overlap"):
        HybridModel(zone, (Region(1, (left, zone.omega)), Region(2, (right,))), (net, net), gamma=0.0, epsilon=0.0)



def box_lists(regions):
    return [[(b.lo.tolist(), b.hi.tolist()) for b in boxes] for boxes in regions]


def test_merge_equals_raw_data_oracle():
    """Pair tests from readout statistics take the decisions of refitting each
    pooled pair on its raw samples, on criterion 1's random datasets."""
    merged = 0
    for zone, pts, eps, _ in random_tiling_cases():
        data = Dataset(pts.shape[1], 0, pts, 0.9 * pts + 0.2 * np.sin(3.0 * np.roll(pts, 1, axis=1)))
        parts = me_partition(zone, data.states, eps)
        model = merge_and_learn(parts, data, hidden_count=10, seed=7, gamma=1e-2)
        boxes, tests = raw_merge(parts, data, hidden_count=10, seed=7, gamma=1e-2)
        assert model.stats.pair_tests == tests
        assert box_lists(r.boxes for r in model.regions) == box_lists(boxes)
        merged += model.stats.merges
    assert merged > 100


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_merged_regions_ship_their_certified_network(seed):
    """A region that absorbed a candidate ships the network its last accepted
    pair test certified, so its training MSE is within gamma."""
    gamma = 1.5e-5
    data = swirl_dataset(4000, seed=seed, twist=0.6)
    parts = me_partition(swirl_zone(), data.states, epsilon=0.005)
    model = merge_and_learn(parts, data, hidden_count=20, seed=seed, gamma=gamma)
    ids, _ = model.locate_batch(data.states)
    merged = [r for r in model.regions if len(r.boxes) > 1]
    assert merged
    for region in merged:
        rows = data.subset(np.nonzero(ids == region.id)[0])
        assert mse(model.network_of(region.id), rows) <= gamma * (1 + 1e-4)
