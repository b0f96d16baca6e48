import json
import re
import warnings

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
    init_elm,
    hybrid_mse,
    me_partition,
    membership_matrix,
    merge_and_learn,
    mse,
    predict_batch,
)

from oracles import linf_distance, raw_merge, sequential_merge
from synthdata import (
    alternating_slab_model,
    constant_net,
    malformed_model_texts,
    random_tiling_cases,
    single_region_model,
    split_region_model,
    swirl_dataset,
    swirl_zone,
    unit_zone,
)
from dynabs import hybrid
from dynabs.elm import DEFAULT_RIDGE, ReadoutStats
from dynabs.hybrid import MergeStats, derive_seed, merge_sweep


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
    with pytest.raises(FloatingPointError, match=re.escape(f"partition {parts.boxes[k]!r} is not finite")) as got:
        merge_and_learn(parts, Dataset(2, 0, data.z, y), hidden_count=20, seed=3, gamma=1e-5)
    with pytest.raises(FloatingPointError) as expected:  # the one-at-a-time sweep raises the same text
        sequential_merge(parts, Dataset(2, 0, data.z, y), 20, 3, 1e-5)
    assert str(got.value) == str(expected.value)


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
    # out-of-zone points are -1, and step takes them through the nearest region
    x = [[0.2, 0.5], [0.7, 0.5], [0.5, 0.5], [1.3, 0.5], [-0.2, 0.5], [0.2, 0.2]]
    assert model.locate_batch(x).tolist() == [1, 2, 2, -1, -1, 1]
    assert model.step(x)[:, 0].tolist() == [0.1, 0.9, 0.9, 0.9, 0.1, 0.1]


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
    ids = model.locate_batch(data.states)
    assert (ids > 0).all()
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


@pytest.mark.parametrize("gamma", [float("nan"), -1e-9, -np.inf,
                                   pytest.param(np.float64(-1e-9), id="np.float64(-1e-09)")])
def test_merge_rejects_nan_and_negative_gamma(gamma):
    data = swirl_dataset(300, seed=6)
    parts = me_partition(swirl_zone(), data.states, epsilon=0.05)
    with pytest.raises(ValueError, match=re.escape(f"gamma must be >= 0, got {float(gamma)!r}")):
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
    """Tree lookup against brute-force membership on box corners, cut faces
    and outside points: the owner of the one box holding a point, else -1;
    outside points step through the region a per-region distance scan names."""
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
    member = membership_matrix(boxes, points)
    inside = member.any(axis=1)
    assert np.array_equal(model.locate_batch(points), np.where(inside, owner[member.argmax(axis=1)], -1))
    outside = points[~inside]
    assert np.array_equal(model.step(outside), model.predict_located(outside, nearest_regions(model, outside)))


def nearest_regions(model, points) -> np.ndarray:
    """Brute force: each point's region by L-infinity distance to its boxes,
    ties to the lowest id."""
    return np.array([min(model.regions, key=lambda r: (min(linf_distance(b, x) for b in r.boxes), r.id)).id
                     for x in points], dtype=int)


def points_around_the_zone(zone, rng, n: int = 400) -> np.ndarray:
    """Rows outside the zone, rows on its faces and rows one ulp outside them."""
    lo, hi = zone.omega.lo, zone.omega.hi
    wide = rng.uniform(lo - (hi - lo), hi + (hi - lo), size=(n, zone.n_x))
    face = rng.uniform(lo, hi, size=(n, zone.n_x))
    k = rng.integers(zone.n_x, size=n)
    upper = rng.random(n) < 0.5
    face[np.arange(n), k] = np.where(upper, hi[k], lo[k])
    beyond = face.copy()
    beyond[np.arange(n), k] = np.nextafter(face[np.arange(n), k], np.where(upper, np.inf, -np.inf))
    return np.concatenate([wide[~zone.contains(wide)], face, beyond])


def test_step_takes_out_of_zone_rows_through_the_nearest_region():
    """step against a per-region distance scan on rows outside the zone and on
    and just beyond its faces. Alternating slabs tie often (a row above the
    zone is often as near to a neighbouring slab as to the one below it), and
    their constant networks name the region stepped through; on a fitted swirl
    model the rows step with the bits of their brute-force region."""
    rng = np.random.default_rng(8)
    slabs = alternating_slab_model(unit_zone(), [constant_net([0.1, 0.1], 2), constant_net([0.9, 0.9], 2)])
    x = points_around_the_zone(slabs.zone, rng)
    want = nearest_regions(slabs, x)
    assert np.array_equal(np.where(slabs.step(x)[:, 0] == 0.1, 1, 2), want)
    assert (want == 1).any() and (want == 2).any()
    data = swirl_dataset(800, seed=4)
    model = merge_and_learn(me_partition(swirl_zone(), data.states, 0.02), data, hidden_count=10, seed=0, gamma=1e-8)
    x = points_around_the_zone(model.zone, rng)
    want = nearest_regions(model, x)
    assert np.unique(want).size > 1
    assert np.array_equal(model.step(x), model.predict_located(x, want))


def test_locate_batch_is_minus_one_exactly_where_the_zone_test_fails():
    data = swirl_dataset(800, seed=4)
    model = merge_and_learn(me_partition(swirl_zone(), data.states, 0.02), data, hidden_count=10, seed=0, gamma=1e-8)
    rng = np.random.default_rng(9)
    x = np.concatenate([points_around_the_zone(model.zone, rng), rng.uniform(-1.0, 1.0, size=(400, 2)),
                        [[np.nan, 0.0], [0.0, np.nan], [np.nan, np.nan], [np.inf, 0.0], [0.0, -np.inf]]])
    ids = model.locate_batch(x)
    inside = model.zone.contains(x)
    assert np.array_equal(ids < 0, ~inside) and (ids[inside] >= 1).all() and (ids[~inside] == -1).all()
    assert inside.sum() > 400 and (~inside).sum() > 400


def test_grouped_step_gives_each_region_the_bits_of_its_rows_alone():
    """predict_located runs each network on its rows in their order, so every
    row has the bits of predict_batch over the rows of its region."""
    data = swirl_dataset(800, seed=4)
    model = merge_and_learn(me_partition(swirl_zone(), data.states, 0.02), data, hidden_count=10, seed=0, gamma=1e-8)
    z = np.random.default_rng(6).uniform(-1.0, 1.0, size=(3000, 2))
    ids = model.locate_batch(z)
    assert np.unique(ids).size == model.n_regions > 1 and (ids > 0).all()
    out = model.predict_located(z, ids)
    for rid in range(1, model.n_regions + 1):
        rows = ids == rid
        assert np.array_equal(out[rows], predict_batch(model.network_of(rid), z[rows]))
    assert np.array_equal(model.step(z), out)


def test_region_walk_of_a_single_region_model_takes_no_level():
    model = single_region_model(unit_zone(), constant_net([0.5, 0.5], 2))
    assert model.region_walk.depth == 0
    x = [[0.2, 0.7], [1.0, 1.0], [1.5, 0.5], [np.nan, 0.5]]
    assert model.locate_batch(x).tolist() == [1, 1, -1, -1]
    assert model.step(x[:3]).tolist() == [[0.5, 0.5]] * 3  # a NaN row steps to NaN even through a constant map


def test_region_walk_where_no_two_sibling_boxes_share_a_region():
    """Slabs that alternate between two regions: no subtree holds one region
    only, so the walk descends to the boxes and still names their owners."""
    model = alternating_slab_model(unit_zone(), [constant_net([0.1, 0.1], 2), constant_net([0.9, 0.9], 2)])
    assert model.region_walk.depth == model.tree.box_walk.depth == 3
    boxes = [b for r in model.regions for b in r.boxes]
    owner = np.array([r.id for r in model.regions for _ in r.boxes])
    x = np.concatenate([np.stack([b.lo for b in boxes]), np.random.default_rng(2).uniform(0.0, 1.0, (500, 2))])
    ids = model.locate_batch(x)
    member = membership_matrix(boxes, x)
    assert np.array_equal(ids, owner[member.argmax(axis=1)])
    assert np.array_equal(model.step(x), np.where((ids == 1)[:, None], [0.1, 0.1], [0.9, 0.9]))


def test_zero_rows_step_locate_and_predict():
    zone = WorkingZone(Box([0.0, 0.0], [1.0, 1.0]), input_bounds=Box([-1.0], [1.0]))
    model = single_region_model(zone, init_elm(3, 2, 4, seed=0))
    ids = model.locate_batch(np.zeros((0, 2)))
    assert ids.shape == (0,)
    assert model.predict_located(np.zeros((0, 3)), ids).shape == (0, 2)
    assert model.step(np.zeros((0, 2)), np.zeros((0, 1))).shape == (0, 2)


def test_wrong_width_states_raise_as_the_tree_does():
    model = split_region_model(unit_zone(), [constant_net([0.1, 0.1], 2), constant_net([0.9, 0.9], 2)])
    message = "points of shape (4, 3) located in a zone of dimension 2"
    for call in (model.tree.locate, model.locate_batch, model.step):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(np.zeros((4, 3)))
    with pytest.raises(ValueError, match=re.escape("(3,) region ids for 4 rows")):
        model.predict_located(np.zeros((4, 2)), [1, 1, 2])


def test_predict_located_rejects_region_ids_the_model_lacks():
    """An id outside 1..n_regions used to pick a network by Python's negative
    indexing (0 stepped through the last region's network) or fail with an
    IndexError."""
    model = split_region_model(unit_zone(), [constant_net([0.1, 0.1], 2), constant_net([0.9, 0.9], 2)])
    for ids, bad in (([1, 0], 0), ([3, 2], 3), ([-1, 5], -1)):
        with pytest.raises(ValueError, match=re.escape(f"region id {bad} outside 1..2")):
            model.predict_located(np.zeros((2, 2)), ids)


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
    ids = model.locate_batch(data.states)
    merged = [r for r in model.regions if len(r.boxes) > 1]
    assert merged
    for region in merged:
        rows = data.subset(np.nonzero(ids == region.id)[0])
        assert mse(model.network_of(region.id), rows) <= gamma * (1 + 1e-4)


def grid_with_empty_cells(seed: int) -> tuple[PartitionSet, Dataset]:
    """An epsilon-0 tiling of the unit square into 8 x 8 bisection cells,
    with samples in only some of them, so many partitions are empty."""
    boxes = [unit_zone().omega]
    for dim in (0, 1, 0, 1, 0, 1):
        boxes = [half for b in boxes for half in b.bisect(dim)]
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.0, 1.0, size=(300, 2)) ** 3  # crowded near the origin
    data = Dataset(2, 0, z, np.column_stack([np.sin(4.0 * z[:, 0]), z[:, 0] * z[:, 1]]))
    owner = membership_matrix(boxes, z).argmax(axis=1)
    parts = PartitionSet(unit_zone(), boxes, [np.flatnonzero(owner == k) for k in range(len(boxes))], epsilon=0.0)
    assert sum(a.size == 0 for a in parts.assignments) >= 10
    return parts, data


def sweep_cases():
    """(parts, data, hidden_count, seed, gamma) for the batched-sweep checks."""
    for k, (zone, pts, eps, _) in enumerate(random_tiling_cases(12)):
        data = Dataset(pts.shape[1], 0, pts, 0.9 * pts + 0.2 * np.sin(3.0 * np.roll(pts, 1, axis=1)))
        yield me_partition(zone, data.states, eps), data, 10, k, 1e-2
    data = swirl_dataset(4000, seed=0, twist=0.6)
    yield me_partition(swirl_zone(), data.states, epsilon=1e-3), data, 20, 0, 1.5e-5
    for seed, gamma in ((0, 1e-4), (1, 1e-3)):
        yield *grid_with_empty_cells(seed), 10, seed, gamma


def test_batched_sweep_equals_sequential_oracle():
    """The windowed sweep takes the one-at-a-time sweep's decisions bit for
    bit: criterion 1's datasets, about 1k swirl partitions at eps 1e-3, and
    epsilon-0 grids with empty partitions. Every region's boxes, final
    statistics and row count and the counts are equal, and each region ships
    exactly the ridge readout of those statistics, whose predictions on the
    region's rows agree with a least-squares fit's to criterion 3's
    tolerance."""
    kinds = set()
    for parts, data, hidden, seed, gamma in sweep_cases():
        expected, tests, merges = sequential_merge(parts, data, hidden, seed, gamma)

        def layer(i):
            return init_elm(data.n_x + data.n_u, data.n_x, hidden, derive_seed(seed, i))

        stats = MergeStats()
        got = merge_sweep(parts, data, layer, gamma, stats)
        assert (stats.pair_tests, stats.merges) == (tests, merges)
        assert box_lists(boxes for boxes, _ in got) == box_lists(boxes for boxes, _, _ in expected)
        for (_, pool), (_, idx, (hh, hy, yy, rows)) in zip(got, expected):
            assert len(pool) == 1 and pool.rows[0] == rows == idx.size and pool.yy[0] == yy
            assert np.array_equal(pool.hh[0], hh) and np.array_equal(pool.hy[0], hy)
        with warnings.catch_warnings():  # an empty region's zero map warns
            warnings.simplefilter("ignore", RuntimeWarning)
            model = merge_and_learn(parts, data, hidden_count=hidden, seed=seed, gamma=gamma)
        assert (model.stats.pair_tests, model.stats.merges) == (tests, merges)
        for i, ((_, idx, (hh, hy, _, _)), net) in enumerate(zip(expected, model.networks)):
            if not idx.size:
                assert np.array_equal(net.w_out, layer(i).w_out)
                continue
            assert np.array_equal(net.w_out, np.linalg.solve(hh + DEFAULT_RIDGE * np.eye(hidden), hy).T)
            # the weights of an ill-conditioned region differ more; its predictions do not
            rows = data.subset(idx)
            lstsq = predict_batch(fit_output_weights(layer(i), rows), rows.z)
            assert np.linalg.norm(predict_batch(net, rows.z) - lstsq) < 1e-6 * np.linalg.norm(lstsq)
        kinds.add((0 < merges < tests, len(parts) > 900, any(a.size == 0 for a in parts.assignments)))
    assert {(True, True, False), (True, False, True)} <= kinds


def test_merge_and_learn_reads_no_region_rows_after_the_sweep(monkeypatch):
    """Each region's readout comes from the statistics its merge tests
    solved: no least-squares refit and no gather of a region's rows."""
    data = swirl_dataset(2000, seed=1, twist=0.6)
    parts = me_partition(swirl_zone(), data.states, epsilon=3e-3)
    calls = []
    for owner, name in ((hybrid, "fit_output_weights"), (Dataset, "subset")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, name=name, original=original: calls.append(name) or original(*a))
    model = merge_and_learn(parts, data, hidden_count=20, seed=1, gamma=1.5e-5)
    assert 1 < model.n_regions < len(parts)
    assert calls == []


def test_a_singular_readout_solve_names_its_region(monkeypatch):
    """A LinAlgError from a region's final readout solve surfaces as
    FloatingPointError naming the region, as a singular pooled test does."""
    data = swirl_dataset(400, seed=2)
    parts = manual_two_partitions(swirl_zone(), data)
    second = parts.assignments[1].size
    readout = ReadoutStats.readout

    def second_is_singular(self):
        if self.rows.tolist() == [second]:  # not the pooled test, whose pool holds both
            raise np.linalg.LinAlgError("Singular matrix")
        return readout(self)

    monkeypatch.setattr(ReadoutStats, "readout", second_is_singular)
    with pytest.raises(FloatingPointError, match=re.escape(
            f"readout solve of region 2 ({second} samples, first box {parts.boxes[1]!r}) is singular "
            "(Singular matrix)")):
        merge_and_learn(parts, data, hidden_count=20, seed=0, gamma=0.0)


def test_batched_sweep_solves_far_fewer_systems_than_it_tests(monkeypatch):
    """About 1k swirl partitions: the pair tests come in runs, and a window
    of a run is one stacked solve, so solves are a small share of tests."""
    data = swirl_dataset(4000, seed=0, twist=0.6)
    parts = me_partition(swirl_zone(), data.states, epsilon=1e-3)
    solve, calls = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a.shape) or solve(a, b))
    model = merge_and_learn(parts, data, hidden_count=20, seed=0, gamma=1.5e-5)
    assert model.stats.pair_tests > 1000
    assert 10 * len(calls) < model.stats.pair_tests


def test_a_window_whose_solve_raises_is_rerun_one_test_at_a_time(monkeypatch):
    """With every stacked solve of more than one system raising, the sweep
    still takes the one-at-a-time decisions, and a solve that raises on one
    system fails the first test with the sequential sweep's error."""
    data = swirl_dataset(4000, seed=0, twist=0.6)
    parts = me_partition(swirl_zone(), data.states, epsilon=3e-3)
    expected, tests, merges = sequential_merge(parts, data, 20, 0, 1.5e-5)
    solve = np.linalg.solve

    def stacked_fails(a, b):
        if a.shape[0] > 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    def layer(i):
        return init_elm(2, 2, 20, derive_seed(0, i))

    monkeypatch.setattr(np.linalg, "solve", stacked_fails)
    stats = MergeStats()
    got = merge_sweep(parts, data, layer, 1.5e-5, stats)
    assert (stats.pair_tests, stats.merges) == (tests, merges)
    assert box_lists(boxes for boxes, _ in got) == box_lists(boxes for boxes, _, _ in expected)
    assert all(np.array_equal(pool.hh[0], hh) for (_, pool), (_, _, (hh, _, _, _)) in zip(got, expected))

    def always_fails(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", always_fails)
    stats = MergeStats()
    with pytest.raises(FloatingPointError, match=re.escape(f"partition {parts.boxes[1]!r} with the region of "
                                                           f"partition {parts.boxes[0]!r} is singular")) as got:
        merge_sweep(parts, data, layer, 1.5e-5, stats)
    assert stats.pair_tests == 0
    with pytest.raises(FloatingPointError) as expected:
        sequential_merge(parts, data, 20, 0, 1.5e-5)
    assert str(got.value) == str(expected.value)
