import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynabs import Box, BoxTree, WorkingZone, me_partition, membership_matrix
from dynabs.geometry import split_dims

from dynabs.partition import MIN_SIDE_FRACTION, xlogx_halves

from oracles import shannon_entropy, widest_first_partition, xlogx
from synthdata import count_boxes, random_tiling_cases, swirl_dataset, swirl_zone, two_cluster_dataset, unit_zone


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


def test_infinite_epsilon_gives_the_one_box_partition_of_every_row():
    """At epsilon inf no split is kept: `bench` fits its reference network on this partition."""
    zone, states = unit_zone(), two_cluster_dataset().states
    parts = me_partition(zone, states, math.inf)
    assert len(parts) == 1 and parts.epsilon == math.inf
    assert parts.boxes[0].to_dict() == zone.omega.to_dict()
    np.testing.assert_array_equal(parts.assignments[0], np.arange(len(states)))
    assert parts.split_log and not any(committed for *_, committed in parts.split_log)


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


def test_me_partition_makes_no_box(monkeypatch):
    """The partition's boxes are the stacked rows of its tree: partitioning
    makes no `Box`, however many boxes it keeps."""
    data = swirl_dataset(2000, seed=1)
    zone = swirl_zone()
    made = count_boxes(monkeypatch)
    parts = me_partition(zone, data.states, epsilon=1e-3)
    assert len(parts) > 100 and made == [0]


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


@pytest.mark.parametrize("epsilon", [float("nan"), -1e-9, -np.inf,
                                     pytest.param(np.float64("nan"), id="np.float64(nan)")])
def test_me_partition_rejects_nan_and_negative_epsilon(epsilon):
    # a numpy scalar reads as a plain number, not as np.float64(nan)
    with pytest.raises(ValueError, match=re.escape(f"epsilon must be >= 0, got {float(epsilon)!r}")):
        me_partition(unit_zone(), two_cluster_dataset().states, epsilon)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.just(0.0) | st.floats(0.01, 0.5))
@example(seed=0, epsilon=0.0)
def test_tiling_property_random_data(seed, epsilon):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    pts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(20, 400)), dim))
    zone = WorkingZone(Box(-np.ones(dim), np.ones(dim)))
    parts = me_partition(zone, pts, epsilon)
    assert sum(a.size for a in parts.assignments) == pts.shape[0]
    assert all(a.size for a in parts.assignments)  # a committed split leaves samples in both halves
    probes = rng.uniform(-1.0, 1.0, size=(2000, dim))
    assert (membership_matrix(parts.boxes, probes).sum(axis=1) == 1).all()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.just(0.0) | st.floats(0.005, 0.2))
@example(seed=0, dim=2, epsilon=0.0)
@example(seed=0, dim=3, epsilon=0.05)
def test_cells_do_not_depend_on_the_order_of_the_states(seed, dim, epsilon):
    """Each split is decided from the sample counts in its two halves, so
    permuted states give the same boxes, each holding the same samples:
    `sample_traces` may list the visited states in any order."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-0.8, 0.8, size=(3, dim))  # clusters, so that eps > 0 splits unevenly too
    pts = np.clip(centers[rng.integers(0, 3, 300)] + rng.normal(0.0, 0.1, size=(300, dim)), -1.0, 1.0)
    zone = WorkingZone(Box(-np.ones(dim), np.ones(dim)))
    perm = rng.permutation(len(pts))
    want, got = me_partition(zone, pts, epsilon), me_partition(zone, pts[perm], epsilon)
    assert [(b.lo.tolist(), b.hi.tolist(), b.closed_hi.tolist()) for b in got.boxes] == \
        [(b.lo.tolist(), b.hi.tolist(), b.closed_hi.tolist()) for b in want.boxes]
    for g, w in zip(got.assignments, want.assignments):
        assert np.array_equal(np.sort(perm[g]), np.sort(w))


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


def test_xlogx_halves_have_the_bits_of_the_scalar_terms():
    """Every count up to 200 000 takes both places of the 2-entry product,
    and an empty half at either end gives exactly 0. (`math.log` differs
    from `np.log` on 7 of these counts.)"""
    n = 200_000
    assert [xlogx_halves(c, n - c) for c in range(n + 1)] == [(xlogx(c), xlogx(n - c)) for c in range(n + 1)]
    assert xlogx_halves(0, 0) == (0.0, 0.0)


def test_partition_holds_four_byte_row_indices():
    """Besides the points, `me_partition` holds a 4-byte row index per
    point and one split's gather and mask: its traced peak stays within 14
    bytes per point (25 with int64 indices and a c ln c table), and each
    box's samples come as int32 indices."""
    data = swirl_dataset(200_000, seed=1)
    tracemalloc.start()
    try:
        parts = me_partition(swirl_zone(), data.states, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 * len(data), peak / len(data)
    assert {a.dtype for a in parts.assignments} == {np.dtype(np.int32)}
    assert sum(a.size for a in parts.assignments) == len(data)


def test_zero_epsilon_commits_exactly_the_splits_that_separate_samples():
    """At epsilon 0 every split that leaves samples in both halves is
    committed and no other (a split of an empty box gains 0 and once split
    without end): the tiling equals the widest-first reference, no partition
    is empty, and two points closer than the resolution floor share one."""
    rng = np.random.default_rng(60)
    for dim, n in ((2, 60), (1, 50), (2, 300), (3, 200)):
        pts = rng.uniform(-1.0, 1.0, size=(n, dim))
        pts[1] = pts[0] + 1e-12
        zone = WorkingZone(Box(-np.ones(dim), np.ones(dim)))
        parts = me_partition(zone, pts, 0.0)
        boxes, assignments, log = widest_first_partition(zone, pts, 0.0)
        assert len(parts.boxes) == len(boxes) < n
        for a, b in zip(parts.boxes, boxes):
            assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)
        for a, b in zip(parts.assignments, assignments):
            assert np.array_equal(a, b)
        assert sorted(e[1:] for e in parts.split_log) == sorted(e[1:] for e in log)
        assert all(a.size for a in parts.assignments)
        assert any(0 in a and 1 in a for a in parts.assignments)
        probes = rng.uniform(-1.0, 1.0, size=(2000, dim))
        assert (membership_matrix(parts.boxes, probes).sum(axis=1) == 1).all()


def frozen_untested(parts) -> list[int]:
    """Tiling positions of the boxes kept without a tested split: the sliver
    floor and midpoint collapse freeze a box before its split is logged."""
    rejected = {i for i, _, _, committed in parts.split_log if not committed}
    return [k for k in range(len(parts)) if k not in rejected]


def assert_exact_tiling(parts, pts) -> None:
    member = membership_matrix(parts.boxes, pts)
    assert (member.sum(axis=1) == 1).all()
    for k, idx in enumerate(parts.assignments):
        assert np.array_equal(np.sort(idx), np.flatnonzero(member[:, k]))
    assert isinstance(parts.boxes, BoxTree)  # whose build raises unless the boxes are a bisection tiling


def test_tree_is_the_partition_tree():
    """On criterion 1's random datasets, a partition's `BoxTree` has one
    inner node per accepted split, each halving, at the midpoint, the
    dimension its own halving counts give: the longest of side * 2^-count,
    ties to the lowest dimension. Its node bounds, derived as `Box.bisect`
    derives them, end in the partition's boxes bit for bit."""
    for zone, pts, eps, _ in random_tiling_cases():
        parts = me_partition(zone, pts, eps)
        tree = parts.boxes
        inner = tree.leaf < 0
        accepted = [j for _, j, _, committed in parts.split_log if committed]
        # nodes are numbered level by level, so a parent comes before its children
        bounds = {0: (zone.omega, np.zeros(zone.n_x, dtype=int), 0)}  # node: box, halvings, level
        cut_dims = []
        for node in range(tree.leaf.size):
            box, halvings, level = bounds.pop(node)
            if not inner[node]:
                leaf = parts.boxes[tree.leaf[node]]
                assert np.array_equal(box.lo, leaf.lo) and np.array_equal(box.hi, leaf.hi)
                continue
            halved = zone.omega.sides / 2.0 ** halvings
            j = int(np.flatnonzero(halved == halved.max())[0])
            assert tree.dims[level] == j and tree.cuts[node] == 0.5 * (box.lo[j] + box.hi[j])
            cut_dims.append(j)
            halvings = halvings + np.eye(zone.n_x, dtype=int)[j]
            for kid, child in zip(tree.box_walk.kids[2 * node: 2 * node + 2], box.bisect(j)):
                bounds[kid] = (child, halvings, level + 1)
        assert sorted(cut_dims) == sorted(accepted)


def node_cut_dims(tree, boxes, dim):
    """(level, cut dimension, cut, node's lo, node's hi) of every inner node
    of `tree`, read off the bounds of the boxes under each node alone: the
    dimension is the one in which the lower child's upper face is not the
    node's."""
    kids = tree.box_walk.kids.reshape(-1, 2)
    n = tree.leaf.size
    lo, hi, level = np.empty((n, dim)), np.empty((n, dim)), np.zeros(n, dtype=int)
    for node in range(n - 1, -1, -1):  # children come after their parent
        if tree.leaf[node] >= 0:
            lo[node], hi[node] = boxes[tree.leaf[node]].lo, boxes[tree.leaf[node]].hi
        else:
            lo[node], hi[node] = lo[kids[node]].min(axis=0), hi[kids[node]].max(axis=0)
    for node in np.flatnonzero(tree.leaf < 0):
        level[kids[node]] = level[node] + 1
    out = []
    for node in np.flatnonzero(tree.leaf < 0):
        (j,) = np.flatnonzero(hi[kids[node, 0]] != hi[node])
        out.append((int(level[node]), int(j), float(hi[kids[node, 0], j]), lo[node], hi[node]))
    return out


@pytest.mark.parametrize("lo, hi", [([0.1, 0.1], [0.4, 0.4]), ([0.1, 0.2], [0.7, 0.5]), ([-0.7, -0.3], [0.5, 0.3])])
def test_partition_tree_of_a_tie_zone_cuts_one_dimension_per_level(lo, hi):
    """The zone's sides are in a power-of-2 ratio and its bounds are not
    short dyadic fractions, so the boxes of one level differ in the last
    bits of their float sides. Every inner node still cuts, at its
    midpoint, the dimension `split_dims` gives its level."""
    zone = WorkingZone(Box(lo, hi))
    pts = np.random.default_rng(29).uniform(lo, hi, size=(20_000, 2))
    parts = me_partition(zone, pts, 1e-4)
    tree = parts.boxes
    cuts = node_cut_dims(tree, parts.boxes, 2)
    depth = max(level for level, *_ in cuts) + 1
    assert depth >= 6
    sequence = list(itertools.islice(split_dims(zone.omega.sides), depth))
    for level, j, cut, node_lo, node_hi in cuts:
        assert j == sequence[level] and cut == 0.5 * (node_lo[j] + node_hi[j]), (level, j)


def test_sliver_floor_freezes_a_box_every_split_of_which_separates_samples():
    """Points 2^-k pile up at 0, so each midpoint split of the box holding
    them leaves samples in both halves: only the resolution floor stops it,
    at side 2^-29 = 1.86e-9, below 1e-9 of the zone's extent 2."""
    zone = WorkingZone(Box([-1.0], [1.0]))
    pts = np.array([2.0 ** -k for k in range(1, 60)] + [-0.5])[:, None]
    parts = me_partition(zone, pts, 0.0)
    assert len(parts) == 31
    assert_exact_tiling(parts, pts)
    frozen = frozen_untested(parts)  # the box of 30 points and its upper neighbour of one, as narrow
    assert frozen == [1, 2] and [parts.assignments[k].size for k in frozen] == [30, 1]
    assert parts.boxes[1].lo[0] == 0.0 and parts.boxes[1].hi[0] == 2.0 ** -29
    for k in frozen:
        assert (parts.boxes[k].sides / zone.omega.sides).max() < MIN_SIDE_FRACTION


def test_midpoint_collapse_freezes_a_box_one_ulp_wide():
    """Near 1e6 one ulp is 1.16e-10, so a box one ulp wide has side/extent
    1.16e-9 on a zone 0.1 wide, above the floor: its midpoint rounds onto an
    end and it freezes by collapse."""
    lo = 1e6
    zone = WorkingZone(Box([lo], [lo + 0.1]))
    pts = np.unique(np.array([lo + 0.1 * 2.0 ** -k for k in range(1, 60)] + [lo]))[:, None]
    parts = me_partition(zone, pts, 0.0)
    assert len(parts) == 31
    assert_exact_tiling(parts, pts)
    collapsed = frozen_untested(parts)
    assert collapsed
    for k in collapsed:
        box = parts.boxes[k]
        assert box.hi[0] == np.nextafter(box.lo[0], np.inf) and 0.5 * (box.lo[0] + box.hi[0]) in (box.lo[0], box.hi[0])
        assert (box.sides / zone.omega.sides).max() >= MIN_SIDE_FRACTION
