import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynabs import Box, WorkingZone, me_partition, membership_matrix, shannon_entropy

from oracles import widest_first_partition
from synthdata import two_cluster_dataset, unit_zone


def test_entropy_even_split_is_ln2():
    assert abs(shannon_entropy([5, 5]) - np.log(2.0)) < 1e-12
    assert abs(shannon_entropy([1000, 1000]) - np.log(2.0)) < 1e-12


def test_entropy_degenerate_mass_is_zero():
    assert shannon_entropy([10, 0]) == 0.0
    assert shannon_entropy([7]) == 0.0


def test_entropy_uneven_split_hand_value():
    # -(0.75 ln 0.75 + 0.25 ln 0.25), evaluated by hand
    assert abs(shannon_entropy([3, 1]) - 0.5623351446188083) < 1e-12


def test_entropy_rejects_bad_input():
    with pytest.raises(ValueError):
        shannon_entropy([0, 0])
    with pytest.raises(ValueError):
        shannon_entropy([])
    with pytest.raises(ValueError):
        shannon_entropy([3, -1])


@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=8).filter(lambda c: sum(c) > 0))
def test_entropy_bounded_by_log_n(counts):
    h = shannon_entropy(counts)
    assert -1e-12 <= h <= np.log(len(counts)) + 1e-12


def test_huge_epsilon_keeps_single_partition():
    parts = me_partition(unit_zone(), two_cluster_dataset().states, epsilon=1e6)
    assert len(parts) == 1
    assert [a.size for a in parts.assignments] == [200]


def test_two_cluster_first_split_on_x1_midline():
    parts = me_partition(unit_zone(), two_cluster_dataset().states, epsilon=0.05)
    i, j, delta_h, committed = parts.split_log[0]
    assert (i, j, committed) == (0, 0, True)
    assert abs(delta_h - np.log(2.0)) < 1e-12  # perfectly balanced clusters
    # frozen regression value from a reference run of this configuration
    assert len(parts) == 20


def test_partition_conservation_and_tiling():
    data = two_cluster_dataset()
    parts = me_partition(unit_zone(), data.states, epsilon=0.05)
    assert sum(a.size for a in parts.assignments) == len(data)

    # every sample sits in the box it was assigned to
    member = membership_matrix(parts.boxes, data.states)
    for k, idx in enumerate(parts.assignments):
        assert member[idx, k].all()

    # random probes land in exactly one box
    rng = np.random.default_rng(0)
    probes = rng.uniform(0.0, 1.0, size=(10_000, 2))
    assert (membership_matrix(parts.boxes, probes).sum(axis=1) == 1).all()


def test_committed_splits_meet_threshold_and_grow_count():
    eps = 0.05
    parts = me_partition(unit_zone(), two_cluster_dataset().states, epsilon=eps)
    committed = [e for e in parts.split_log if e[3]]
    assert committed, "expected at least one committed split"
    assert all(e[2] >= eps for e in committed)
    rejected = [e for e in parts.split_log if not e[3]]
    assert all(e[2] < eps for e in rejected)
    # each committed split adds exactly one partition
    assert len(parts) == 1 + len(committed)


def test_me_partition_deterministic():
    a = me_partition(unit_zone(), two_cluster_dataset().states, epsilon=0.05)
    b = me_partition(unit_zone(), two_cluster_dataset().states, epsilon=0.05)
    assert len(a) == len(b)
    for ba, bb in zip(a.boxes, b.boxes):
        assert np.array_equal(ba.lo, bb.lo) and np.array_equal(ba.hi, bb.hi)
    for ia, ib in zip(a.assignments, b.assignments):
        assert np.array_equal(ia, ib)


def test_me_partition_accepts_raw_points():
    pts = two_cluster_dataset().states
    parts = me_partition(unit_zone(), pts, epsilon=0.05)
    assert sum(a.size for a in parts.assignments) == pts.shape[0]


def test_me_partition_rejects_out_of_zone_data():
    from dynabs import DataError

    data = two_cluster_dataset()
    small = WorkingZone(Box([0.0, 0.0], [0.5, 1.0]))
    with pytest.raises(DataError):
        me_partition(small, data.states, epsilon=0.05)


@pytest.mark.parametrize("epsilon", [float("nan"), -1e-9, -np.inf])
def test_me_partition_rejects_nan_and_negative_epsilon(epsilon):
    with pytest.raises(ValueError, match=re.escape(f"epsilon must be >= 0, got {epsilon!r}")):
        me_partition(unit_zone(), two_cluster_dataset().states, epsilon)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.5))
def test_tiling_property_random_data(seed, epsilon):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    pts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(20, 400)), dim))
    zone = WorkingZone(Box(-np.ones(dim), np.ones(dim)))
    parts = me_partition(zone, pts, epsilon)
    assert sum(a.size for a in parts.assignments) == pts.shape[0]
    probes = rng.uniform(-1.0, 1.0, size=(2000, dim))
    assert (membership_matrix(parts.boxes, probes).sum(axis=1) == 1).all()


def test_me_partition_equals_widest_first_reference():
    """The depth-first walk gives the same tiling as widest-first selection,
    on the random datasets of acceptance criterion 1."""
    rng = np.random.default_rng(1001)
    for k in range(50):
        dim = 2 if k % 2 == 0 else 3
        pts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(100, 10_001)), dim))
        zone = WorkingZone(Box(-np.ones(dim), np.ones(dim)))
        eps = float(rng.uniform(0.02, 0.2))
        rng.uniform(-1.0, 1.0, size=(10_000, dim))  # criterion 1's probes, to keep its draws
        parts = me_partition(zone, pts, eps)
        boxes, assignments, log = widest_first_partition(zone, pts, eps)
        assert len(parts.boxes) == len(boxes)
        for a, b in zip(parts.boxes, boxes):
            assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)
            assert np.array_equal(a.closed_hi, b.closed_hi)
        for a, b in zip(parts.assignments, assignments):
            assert np.array_equal(a, b)
        assert sorted(e[1:] for e in parts.split_log) == sorted(e[1:] for e in log)
