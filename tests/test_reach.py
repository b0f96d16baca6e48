import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynabs import (
    Box,
    Dataset,
    ElmNetwork,
    WorkingZone,
    cell_successor_box,
    elm_output_box,
    fit_output_weights,
    init_elm,
    predict_batch,
)

from oracles import ibp_output_box, monte_carlo_containment
from synthdata import (
    alternating_slab_model,
    constant_net,
    overflowing_model,
    single_region_model,
    split_region_model,
    unit_zone,
)

SLACK = 1e-9


def net_of(w_in, b_in, w_out) -> ElmNetwork:
    w_in = np.asarray(w_in, dtype=float)
    return ElmNetwork(w_in, np.asarray(b_in, dtype=float), np.asarray(w_out, dtype=float), w_in.shape[0], 0)


def box_rows(*boxes):
    """Stacked (P, n) lower and upper bounds of the given (lo, hi) pairs."""
    return np.array([lo for lo, _ in boxes], dtype=float), np.array([hi for _, hi in boxes], dtype=float)


def test_affine_image_hand_case():
    # hidden unit x1 - x2 + 1 over [0, 1]^2 is [0, 2] and stays positive through the ReLU
    lo, hi = elm_output_box(net_of([[1.0, -1.0]], [1.0], [[1.0]]), *box_rows(([0, 0], [1, 1])))
    assert np.allclose(lo, [[0.0]]) and np.allclose(hi, [[2.0]])


def test_affine_image_zero_weights_degenerate():
    net = net_of(np.zeros((2, 2)), [3.0, 1.0], [[1.0, 0.0], [0.0, -1.0]])
    lo, hi = elm_output_box(net, *box_rows(([0, 0], [1, 1])))
    # zero-width output: [3, -1] on both sides, up to the slack
    assert np.all(np.abs(lo - [[3.0, -1.0]]) <= 2 * SLACK) and np.all(np.abs(hi - [[3.0, -1.0]]) <= 2 * SLACK)
    assert np.all(hi - lo <= 2 * SLACK + 1e-15)


def test_affine_image_identity():
    # x1 = relu(x1) - relu(-x1), x2 = relu(x2) on a box with x2 > 0: the box comes back
    net = net_of([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], np.zeros(3), [[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    lo, hi = elm_output_box(net, *box_rows(([-1.0, 2.0], [0.5, 4.0])))
    assert np.array_equal(lo, [[-1.0 - SLACK, 2.0 - SLACK]])
    assert np.array_equal(hi, [[0.5 + SLACK, 4.0 + SLACK]])


def test_affine_image_shape_checks():
    net = init_elm(2, 2, 4, seed=0)
    with pytest.raises(ValueError, match="n_in=2"):
        elm_output_box(net, np.zeros((1, 3)), np.ones((1, 3)))
    with pytest.raises(ValueError, match="n_in=2"):
        elm_output_box(net, np.zeros((2, 2)), np.ones((1, 2)))
    with pytest.raises(ValueError, match="n_in=2"):
        elm_output_box(net, np.zeros(2), np.ones(2))  # one box must still be a (1, n_in) row


def test_relu_image_cases():
    # one unit, identity weights: each row's enclosure is [max(0, lo), max(0, hi)]
    lo, hi = elm_output_box(net_of([[1.0]], [0.0], [[1.0]]), *box_rows(([-2.0], [3.0]), ([-5.0], [-1.0]), ([1.0], [2.0])))
    assert np.array_equal(lo + SLACK, [[0.0], [0.0], [1.0]])
    assert np.array_equal(hi - SLACK, [[3.0], [0.0], [2.0]])


def test_elm_output_box_single_neuron():
    lo, hi = elm_output_box(net_of([[1.0]], [0.0], [[1.0]]), *box_rows(([-1.0], [2.0])))
    # enclosure is [0, 2] up to the slack padding (plus representation error)
    assert abs(lo[0, 0] - 0.0) <= 2 * SLACK and abs(hi[0, 0] - 2.0) <= 2 * SLACK
    assert lo[0, 0] <= 0.0 and hi[0, 0] >= 2.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_elm_output_box_equals_one_box_reference(n_in, seed):
    """Every row of the batched enclosure is bit for bit the one-box,
    one-layer-at-a-time interval arithmetic of `oracles.ibp_output_box`."""
    rng = np.random.default_rng(seed)
    hidden = int(rng.integers(1, 30))
    n_out = int(rng.integers(1, 4))
    scale = 10.0 ** rng.uniform(-2, 2)
    net = net_of(rng.normal(0, scale, (hidden, n_in)), rng.normal(0, scale, hidden), rng.normal(0, scale, (n_out, hidden)))
    p = int(rng.integers(1, 12))
    lo = rng.uniform(-2, 2, (p, n_in))
    hi = lo + rng.uniform(0, 2, (p, n_in))
    flat = rng.random(p) < 0.3
    hi[flat] = lo[flat]  # zero-width rows
    side = rng.random(n_in) < 0.2
    hi[:, side] = lo[:, side]  # zero-width sides
    out_lo, out_hi = elm_output_box(net, lo, hi)
    assert out_lo.shape == out_hi.shape == (p, n_out)
    for k in range(p):
        ref_lo, ref_hi = ibp_output_box(net, lo[k], hi[k])
        assert np.array_equal(out_lo[k].view(np.uint64), ref_lo.view(np.uint64))
        assert np.array_equal(out_hi[k].view(np.uint64), ref_hi.view(np.uint64))


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
    z = rng.uniform(-1, 1, (1, 3))
    lo, hi = elm_output_box(net, z, z)
    y = predict_batch(net, z)
    assert np.allclose(0.5 * (lo + hi), y, atol=1e-12)
    assert np.all(hi - lo <= 2 * SLACK + 1e-12)


def test_elm_output_box_monotone_in_input():
    rng = np.random.default_rng(5)
    net = init_elm(2, 2, 20, seed=9)
    net = fit_output_weights(
        net, Dataset(2, 0, rng.uniform(-1, 1, (80, 2)), rng.uniform(-1, 1, (80, 2)))
    )
    lo = rng.uniform(-1.0, 0.0, (20, 2))
    hi = rng.uniform(0.1, 1.0, (20, 2))
    mid = 0.5 * (lo + hi)
    small_lo, small_hi = elm_output_box(net, 0.5 * (lo + mid), 0.5 * (hi + mid))
    big_lo, big_hi = elm_output_box(net, lo, hi)
    assert np.all(big_lo <= small_lo + 1e-12) and np.all(small_hi <= big_hi + 1e-12)


def test_cell_successor_single_region_whole_zone():
    zone = unit_zone()
    net = constant_net([0.3, 0.6], n_in=2)
    model = single_region_model(zone, net)
    result = cell_successor_box(model, zone.omega)
    assert len(result.pieces) == 1
    lo, hi = elm_output_box(net, zone.omega.lo[None], zone.omega.hi[None])
    assert np.array_equal(result.output.lo, lo[0])
    assert np.array_equal(result.output.hi, hi[0])


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
    assert piece.input.lo.shape == (2,)
    assert np.array_equal(piece.input.lo, zone.omega.lo)


def test_cell_successor_with_input_bounds():
    zone = WorkingZone(Box([0.0], [1.0]), input_bounds=Box([-0.5], [0.5]))
    net = init_elm(2, 1, 8, seed=0)  # state + input
    model = single_region_model(zone, net)
    result = cell_successor_box(model, zone.omega)
    piece = result.pieces[0]
    assert piece.input.lo.shape == (2,)
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
        y = predict_batch(model.network_of(piece.region_id), z)
        assert np.all(y >= piece.output.lo[None, :] - SLACK)
        assert np.all(y <= piece.output.hi[None, :] + SLACK)
        assert np.all(y >= result.output.lo[None, :] - SLACK)
        assert np.all(y <= result.output.hi[None, :] + SLACK)


def test_reach_rows_agree_with_pieces_and_output_views():
    """Regions alternate over eight x-slabs, so one cell holds several pieces
    of each of two networks, with an input appended to every piece."""
    zone = WorkingZone(Box([0.0, 0.0], [1.0, 1.0]), input_bounds=Box([-0.5], [0.5]))
    model = alternating_slab_model(zone, [init_elm(3, 2, 10, seed=s) for s in (1, 2)])
    result = cell_successor_box(model, Box([0.1, 0.2], [0.9, 0.7]))
    assert result.region_ids.tolist() == [1, 1, 1, 1, 2, 2, 2, 2]  # region-box order
    assert np.array_equal(result.in_lo[:, 2], np.full(8, -0.5)) and np.array_equal(result.in_hi[:, 2], np.full(8, 0.5))
    assert [p.region_id for p in result.pieces] == result.region_ids.tolist()
    for k, piece in enumerate(result.pieces):
        assert np.array_equal(piece.input.lo, result.in_lo[k]) and np.array_equal(piece.input.hi, result.in_hi[k])
        assert np.array_equal(piece.output.lo, result.out_lo[k]) and np.array_equal(piece.output.hi, result.out_hi[k])
        lo, hi = ibp_output_box(model.network_of(piece.region_id), piece.input.lo, piece.input.hi)
        assert np.array_equal(piece.output.lo, lo) and np.array_equal(piece.output.hi, hi)
    assert np.array_equal(result.output.lo, result.out_lo.min(axis=0))
    assert np.array_equal(result.output.hi, result.out_hi.max(axis=0))


def test_cell_successor_rejects_non_finite_enclosure():
    model = overflowing_model()
    # the concrete step is finite: the enclosure, not the model, fails
    assert np.allclose(model.step(np.array([[0.5, 0.5]])), [[0.09, 0.0]], rtol=1e-12, atol=0)
    with pytest.raises(FloatingPointError, match=r"cell Box\(\[0,1\)x\[0,1\)\) under region 1 is not finite"):
        cell_successor_box(model, Box([0.0, 0.0], [1.0, 1.0]))
