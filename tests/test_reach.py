import numpy as np
import pytest

from dynabs import (
    Box,
    Bounds,
    Dataset,
    ElmNetwork,
    WorkingZone,
    affine_image_box,
    cell_successor_box,
    elm_output_box,
    fit_output_weights,
    init_elm,
    predict_batch,
    relu_image_box,
)

from oracles import monte_carlo_containment
from synthdata import constant_net, single_region_model, split_region_model, unit_zone

SLACK = 1e-9


def test_affine_image_hand_case():
    out = affine_image_box(np.array([[1.0, -1.0]]), np.array([1.0]), Box([0, 0], [1, 1]))
    assert np.allclose(out.lo, [0.0]) and np.allclose(out.hi, [2.0])


def test_affine_image_zero_weights_degenerate():
    out = affine_image_box(np.zeros((2, 2)), np.array([3.0, -1.0]), Box([0, 0], [1, 1]))
    assert np.array_equal(out.lo, [3.0, -1.0])
    assert np.array_equal(out.hi, [3.0, -1.0])  # zero width tolerated in Bounds


def test_affine_image_identity():
    b = Box([-1.0, 2.0], [0.5, 4.0])
    out = affine_image_box(np.eye(2), np.zeros(2), b)
    assert np.array_equal(out.lo, b.lo) and np.array_equal(out.hi, b.hi)


def test_affine_image_shape_checks():
    with pytest.raises(ValueError):
        affine_image_box(np.eye(3), np.zeros(3), Box([0, 0], [1, 1]))
    with pytest.raises(ValueError):
        affine_image_box(np.eye(2), np.zeros(3), Box([0, 0], [1, 1]))


def test_relu_image_cases():
    out = relu_image_box(Bounds(np.array([-2.0]), np.array([3.0])))
    assert np.array_equal(out.lo, [0.0]) and np.array_equal(out.hi, [3.0])

    out = relu_image_box(Bounds(np.array([-5.0]), np.array([-1.0])))
    assert np.array_equal(out.lo, [0.0]) and np.array_equal(out.hi, [0.0])

    out = relu_image_box(Box([1.0], [2.0]))
    assert np.array_equal(out.lo, [1.0]) and np.array_equal(out.hi, [2.0])


def test_elm_output_box_single_neuron():
    net = ElmNetwork(np.array([[1.0]]), np.zeros(1), np.array([[1.0]]), 1, 0)
    out = elm_output_box(net, Box([-1.0], [2.0]))
    # enclosure is [0, 2] up to the slack padding (plus representation error)
    assert abs(out.lo[0] - 0.0) <= 2 * SLACK and abs(out.hi[0] - 2.0) <= 2 * SLACK
    assert out.lo[0] <= 0.0 and out.hi[0] >= 2.0


def test_elm_output_box_monte_carlo_containment():
    rng = np.random.default_rng(21)
    net = init_elm(2, 2, 20, seed=1)
    data = Dataset(2, 0, rng.uniform(-1, 1, (100, 2)), rng.uniform(-1, 1, (100, 2)))
    net = fit_output_weights(net, data)
    box = Box([-0.7, 0.1], [0.4, 0.9])
    assert monte_carlo_containment(net, box, 100_000, rng) == 0


def test_elm_output_box_point_input_matches_predict():
    rng = np.random.default_rng(3)
    net = init_elm(3, 2, 15, seed=2)
    net = fit_output_weights(
        net, Dataset(2, 1, rng.uniform(-1, 1, (50, 3)), rng.uniform(-1, 1, (50, 2)))
    )
    z = rng.uniform(-1, 1, 3)
    out = elm_output_box(net, Bounds(z, z))
    y = predict_batch(net, z[None])[0]
    assert np.allclose(out.center, y, atol=1e-12)
    assert np.all(out.hi - out.lo <= 2 * SLACK + 1e-12)


def test_elm_output_box_monotone_in_input():
    rng = np.random.default_rng(5)
    net = init_elm(2, 2, 20, seed=9)
    net = fit_output_weights(
        net, Dataset(2, 0, rng.uniform(-1, 1, (80, 2)), rng.uniform(-1, 1, (80, 2)))
    )
    for _ in range(20):
        lo = rng.uniform(-1.0, 0.0, 2)
        hi = rng.uniform(0.1, 1.0, 2)
        big = Box(lo, hi)
        mid = 0.5 * (lo + hi)
        small = Box(0.5 * (lo + mid), 0.5 * (hi + mid))
        a = elm_output_box(net, small)
        b = elm_output_box(net, big)
        assert np.all(b.lo <= a.lo + 1e-12) and np.all(a.hi <= b.hi + 1e-12)


def test_cell_successor_single_region_whole_zone():
    zone = unit_zone()
    net = constant_net([0.3, 0.6], n_in=2)
    model = single_region_model(zone, net)
    result = cell_successor_box(model, zone.omega)
    assert len(result.pieces) == 1
    direct = elm_output_box(net, zone.omega)
    assert np.array_equal(result.output.lo, direct.lo)
    assert np.array_equal(result.output.hi, direct.hi)


def test_cell_successor_straddling_constant_regions():
    zone = unit_zone()
    model = split_region_model(zone, [constant_net([0.2, 0.2], 2), constant_net([0.8, 0.9], 2)])
    result = cell_successor_box(model, zone.omega)
    assert len(result.pieces) == 2
    assert np.all(np.abs(result.output.lo - [0.2, 0.2]) <= SLACK)
    assert np.all(np.abs(result.output.hi - [0.8, 0.9]) <= SLACK)
    assert {p.region_id for p in result.pieces} == {1, 2}


def test_cell_successor_autonomous_input_box_is_state_box():
    zone = unit_zone()
    model = single_region_model(zone, constant_net([0.5, 0.5], 2))
    result = cell_successor_box(model, zone.omega)
    piece = result.pieces[0]
    assert piece.input.dim == 2
    assert np.array_equal(piece.input.lo, zone.omega.lo)


def test_cell_successor_with_input_bounds():
    zone = WorkingZone(Box([0.0], [1.0]), input_bounds=Box([-0.5], [0.5]))
    net = init_elm(2, 1, 8, seed=0)  # state + input
    model = single_region_model(zone, net)
    result = cell_successor_box(model, zone.omega)
    piece = result.pieces[0]
    assert piece.input.dim == 2
    assert np.array_equal(piece.input.lo, [0.0, -0.5])
    assert np.array_equal(piece.input.hi, [1.0, 0.5])


def test_cell_successor_rejects_cell_outside_zone():
    zone = unit_zone()
    model = single_region_model(zone, constant_net([0.5, 0.5], 2))
    with pytest.raises(ValueError):
        cell_successor_box(model, Box([0.5, 0.5], [1.5, 1.0]))


def test_cell_successor_piece_containment_against_samples():
    rng = np.random.default_rng(17)
    zone = unit_zone()
    nets = [init_elm(2, 2, 12, seed=s) for s in (1, 2)]
    data = Dataset(2, 0, rng.uniform(0, 1, (60, 2)), rng.uniform(0, 1, (60, 2)))
    nets = [fit_output_weights(n, data) for n in nets]
    model = split_region_model(zone, nets)
    cell = Box([0.2, 0.1], [0.9, 0.8])
    result = cell_successor_box(model, cell)
    for piece in result.pieces:
        z = rng.uniform(piece.input.lo, piece.input.hi, size=(5000, 2))
        from dynabs import predict_batch

        y = predict_batch(model.network_of(piece.region_id), z)
        assert np.all(y >= piece.output.lo[None, :] - SLACK)
        assert np.all(y <= piece.output.hi[None, :] + SLACK)
        assert np.all(y >= result.output.lo[None, :] - SLACK)
        assert np.all(y <= result.output.hi[None, :] + SLACK)

