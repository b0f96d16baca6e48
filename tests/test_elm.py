import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynabs import (
    Dataset,
    ElmNetwork,
    fit_output_weights,
    init_elm,
    me_partition,
    mse,
    predict_batch,
)
from dynabs.elm import DEFAULT_RIDGE, ReadoutStats

from oracles import normal_equations_fit
from synthdata import swirl_dataset, swirl_zone


def random_dataset(rng, n, n_x=2, n_u=0):
    z = rng.uniform(-1.0, 1.0, size=(n, n_x + n_u))
    y = rng.uniform(-1.0, 1.0, size=(n, n_x))
    return Dataset(n_x, n_u, z, y)


def test_init_is_deterministic():
    a = init_elm(2, 2, 20, seed=123)
    b = init_elm(2, 2, 20, seed=123)
    assert np.array_equal(a.w_in, b.w_in)
    assert np.array_equal(a.b_in, b.b_in)
    assert np.array_equal(a.w_out, b.w_out)


def test_init_shapes_twenty_hidden():
    net = init_elm(2, 2, 20, seed=0)
    assert net.w_in.shape == (20, 2)
    assert net.b_in.shape == (20,)
    assert net.w_out.shape == (2, 20)
    assert np.all(net.w_out == 0.0)
    assert np.all(np.abs(net.w_in) <= 1.0) and np.all(np.abs(net.b_in) <= 1.0)


def test_init_different_seeds_differ():
    a = init_elm(2, 2, 20, seed=1)
    b = init_elm(2, 2, 20, seed=2)
    assert not np.array_equal(a.w_in, b.w_in)


def test_fit_exactly_representable_relu():
    # hidden layer overridden to the identity feature: y = ReLU(z)
    net = ElmNetwork(
        w_in=np.array([[1.0]]), b_in=np.zeros(1), w_out=np.zeros((1, 1)),
        hidden_count=1, seed=0,
    )
    z = np.array([[-1.0], [0.5], [2.0]])
    data = Dataset(1, 0, z, np.maximum(z, 0.0))
    fitted = fit_output_weights(net, data)
    # closed-form ridge readout: H^T Y / (H^T H + 1e-8) with H^T H = H^T Y = 0.25 + 4
    assert abs(fitted.w_out[0, 0] - 4.25 / (4.25 + 1e-8)) < 1e-12
    shrink = 1e-8 / (4.25 + 1e-8)  # 1 - w: the ridge's only residual
    expected = 4.25 * shrink**2 / 3
    assert abs(mse(fitted, data) - expected) <= 1e-6 * expected


def test_fit_matches_normal_equations_oracle():
    rng = np.random.default_rng(11)
    data = random_dataset(rng, 200)
    net = init_elm(2, 2, 20, seed=5)
    fitted = fit_output_weights(net, data)
    expected = normal_equations_fit(net, data, DEFAULT_RIDGE)
    rel = np.linalg.norm(fitted.w_out - expected) / np.linalg.norm(expected)
    assert rel < 1e-6


def test_fit_single_repeated_sample_interpolates():
    rng = np.random.default_rng(2)
    z = np.tile(rng.uniform(-1, 1, size=(1, 2)), (5, 1))
    y = np.tile(rng.uniform(-1, 1, size=(1, 2)), (5, 1))
    data = Dataset(2, 0, z, y)
    net = fit_output_weights(init_elm(2, 2, 20, seed=3), data)  # rank 1: the ridge keeps it solvable
    assert mse(net, data) < 1e-12


def test_fit_rejects_mismatched_dataset():
    net = init_elm(3, 2, 8, seed=0)
    data = random_dataset(np.random.default_rng(0), 10, n_x=2, n_u=0)
    with pytest.raises(ValueError):
        fit_output_weights(net, data)


def test_predict_zero_readout_is_zero():
    net = init_elm(3, 2, 10, seed=4)
    assert np.array_equal(predict_batch(net, [[0.3, -0.1, 0.7]]), np.zeros((1, 2)))


def test_predict_single_neuron_clamps():
    net = ElmNetwork(np.array([[1.0]]), np.zeros(1), np.array([[1.0]]), 1, 0)
    assert predict_batch(net, [[-3.0]])[0, 0] == 0.0


def test_predict_single_neuron_hand_value():
    net = ElmNetwork(np.array([[2.0]]), np.array([1.0]), np.array([[0.5]]), 1, 0)
    assert np.isclose(predict_batch(net, [[1.0]])[0, 0], 1.5)


def test_predict_dimension_mismatch():
    net = init_elm(2, 2, 4, seed=0)
    with pytest.raises(ValueError):
        predict_batch(net, [[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        predict_batch(net, [1.0, 2.0])  # one vector, not a batch of rows


def test_mse_hand_values():
    # perfect predictor
    net = ElmNetwork(np.array([[1.0]]), np.zeros(1), np.array([[1.0]]), 1, 0)
    z = np.array([[0.5], [2.0]])
    assert mse(net, Dataset(1, 0, z, np.maximum(z, 0.0))) == 0.0

    # constant-zero predictor, three 1-D samples with y = 1
    zero = ElmNetwork(np.array([[1.0]]), np.zeros(1), np.zeros((1, 1)), 1, 0)
    data = Dataset(1, 0, np.array([[0.0], [1.0], [2.0]]), np.ones((3, 1)))
    assert mse(zero, data) == 1.0

    # constant-zero predictor, 2-D samples y = (1,1), (0,0): ((1+1) + 0) / 2
    zero2 = ElmNetwork(np.array([[1.0, 0.0]]), np.zeros(1), np.zeros((2, 1)), 1, 0)
    data2 = Dataset(2, 0, np.zeros((2, 2)), np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert mse(zero2, data2) == 1.0


def test_fit_never_worse_than_zero_readout():
    rng = np.random.default_rng(9)
    for seed in range(5):
        data = random_dataset(rng, 50)
        net = init_elm(2, 2, 10, seed=seed)
        fitted = fit_output_weights(net, data)
        assert mse(fitted, data) <= mse(net, data) + 1e-12


@settings(max_examples=30)
@given(st.floats(-5.0, 5.0, allow_nan=False))
def test_predict_homogeneous_in_readout(c):
    net = init_elm(2, 2, 8, seed=7)
    fitted = fit_output_weights(net, random_dataset(np.random.default_rng(1), 30))
    scaled = ElmNetwork(fitted.w_in, fitted.b_in, c * fitted.w_out, fitted.hidden_count, fitted.seed)
    z = np.array([[0.2, -0.4]])
    assert np.allclose(predict_batch(scaled, z), c * predict_batch(fitted, z), atol=1e-12)


def test_json_round_trip_reproduces_predictions():
    rng = np.random.default_rng(12)
    data = random_dataset(rng, 40)
    net = fit_output_weights(init_elm(2, 2, 12, seed=6), data)
    back = ElmNetwork.from_dict(json.loads(json.dumps(net.to_dict())))
    z = rng.uniform(-1, 1, size=(20, 2))
    assert np.array_equal(predict_batch(net, z), predict_batch(back, z))
    assert back.seed == net.seed


def test_from_dict_rejects_non_finite_weights():
    doc = init_elm(2, 2, 4, seed=0).to_dict()
    for field, value in (("w_in", float("nan")), ("b_in", float("inf")), ("w_out", float("-inf"))):
        bad = json.loads(json.dumps(doc))
        if isinstance(bad[field][0], list):
            bad[field][0][0] = value
        else:
            bad[field][0] = value
        with pytest.raises(ValueError, match=f"^{field} holds a non-finite value"):
            ElmNetwork.from_dict(bad)


def test_readout_stats_mse_matches_direct_fit():
    """The pooled-MSE test from summed readout statistics against refitting
    the pooled rows: relative error within 1e-4 over 200 pools of swirl
    partitions, many of them within 2x of gamma, every tenth under a layer
    with a dead hidden unit. Below gamma / 1000, where no merge decision can
    turn, the bound is absolute: the normal equations lose relative accuracy
    on near-exact fits."""
    data = swirl_dataset(4000, seed=3, twist=0.6)
    parts = me_partition(swirl_zone(), data.states, epsilon=0.01)
    rng = np.random.default_rng(11)
    gamma = 1.5e-5
    near = dead = 0
    for k in range(200):
        net = init_elm(2, 2, 20, seed=k)
        if k % 10 == 0:  # unit 0 is ReLU(0 . z - 1) = 0 on every row
            net = ElmNetwork(np.vstack([[0.0, 0.0], net.w_in[1:]]), np.concatenate([[-1.0], net.b_in[1:]]),
                             net.w_out, net.hidden_count, net.seed)
        first = int(rng.integers(len(parts)))
        members = [parts.assignments[i] for i in range(first, min(first + int(rng.integers(2, 40)), len(parts)))]
        stats = ReadoutStats.of(net, data.z[members[0]], data.y[members[0]])
        for idx in members[1:]:
            stats = stats + ReadoutStats.of(net, data.z[idx], data.y[idx])
        pool = data.subset(np.concatenate(members))
        if len(pool) == 0:
            continue
        direct = mse(fit_output_weights(net, pool), pool)
        assert stats.rows == len(pool)
        assert abs(stats.ridge_mse() - direct) <= 1e-4 * max(direct, 1e-3 * gamma)
        near += gamma / 2 <= direct <= 2 * gamma
        dead += not net.hidden(pool.z)[:, 0].any()
    assert near >= 20 and dead >= 10
