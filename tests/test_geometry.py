import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynabs import Box, BoxTree, WorkingZone, membership_matrix

from synthdata import constant_net, split_region_model


def test_box_basic_fields():
    b = Box([0.0, -1.0], [2.0, 3.0])
    assert b.dim == 2
    assert np.allclose(b.sides, [2.0, 4.0])
    assert np.allclose(b.center, [1.0, 1.0])


def test_box_rejects_degenerate_and_inverted():
    with pytest.raises(ValueError):
        Box([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        Box([0.0], [0.0])
    with pytest.raises(ValueError):
        Box([2.0], [1.0])
    with pytest.raises(ValueError):
        Box([0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        Box([0.0], [np.inf])


def test_contains_half_open():
    b = Box([0.0, 0.0], [1.0, 1.0])
    # inside; lower faces closed; upper faces open on a box that is not a closed zone
    points = [[0.5, 0.5], [0.0, 0.0], [1.0, 0.5], [0.5, 1.0]]
    assert membership_matrix([b], points)[:, 0].tolist() == [True, True, False, False]
    assert BoxTree(b, [b]).locate(points).tolist() == [0, 0, -1, -1]


def test_contains_zone_upper_face_closed():
    zone = WorkingZone(Box([0.0, 0.0], [1.0, 1.0]))
    points = [[1.0, 1.0], [1.0, 0.3]]
    assert membership_matrix([zone.omega], points).all()
    assert BoxTree(zone.omega, [zone.omega]).locate(points).tolist() == [0, 0]


def test_contains_dimension_mismatch():
    b = Box([0.0, 0.0], [1.0, 1.0])
    # the tree checks the point dimension; membership_matrix, the brute-force
    # reference, broadcasts instead
    with pytest.raises(ValueError, match="dimension 2"):
        BoxTree(b, [b]).locate([[0.5]])


def test_intersect_examples():
    a = Box([0.0, 0.0], [2.0, 2.0])
    b = Box([1.0, 1.0], [3.0, 3.0])
    c = a.intersect(b)
    assert np.allclose(c.lo, [1.0, 1.0]) and np.allclose(c.hi, [2.0, 2.0])

    d = Box([2.0, 0.0], [3.0, 1.0])
    assert Box([0.0, 0.0], [1.0, 1.0]).intersect(d) is None

    # face contact is zero width, hence empty
    assert Box([0.0], [1.0]).intersect(Box([1.0], [2.0])) is None


def test_intersect_dimension_mismatch():
    with pytest.raises(ValueError):
        Box([0.0], [1.0]).intersect(Box([0.0, 0.0], [1.0, 1.0]))


def test_intersect_with_zone_is_identity_inside():
    zone = WorkingZone(Box([0.0, 0.0], [4.0, 4.0]))
    inner = Box([1.0, 1.5], [2.0, 3.5])
    out = inner.intersect(zone.omega)
    assert np.array_equal(out.lo, inner.lo) and np.array_equal(out.hi, inner.hi)


def test_bisect_examples():
    left, right = Box([0.0, 0.0], [4.0, 1.0]).bisect(0)
    assert np.allclose(left.hi, [2.0, 1.0]) and np.allclose(right.lo, [2.0, 0.0])
    assert not left.closed_hi[0]  # cut face belongs to the right child

    whole = Box([-1.0], [1.0])
    left, right = whole.bisect(0)
    points = [[-0.5], [0.0], [1.0]]
    assert membership_matrix([left, right], points).tolist() == [[True, False], [False, True], [False, False]]
    assert BoxTree(whole, [left, right]).locate(points).tolist() == [0, 1, -1]

    # two same-axis splits give quarter widths
    box = Box([0.0], [1.0])
    _, upper = box.bisect(0)
    q1, q2 = upper.bisect(0)
    assert np.isclose(q1.sides[0], 0.25) and np.isclose(q2.sides[0], 0.25)


def test_bisect_bad_dimension():
    with pytest.raises(ValueError):
        Box([0.0], [1.0]).bisect(1)


def test_bisect_zone_keeps_closure_on_outer_face():
    zone = WorkingZone(Box([0.0], [1.0]))
    left, right = zone.omega.bisect(0)
    points = [[0.5], [1.0]]  # the cut, and the outer face, which stays closed
    assert membership_matrix([left, right], points).tolist() == [[False, True], [False, True]]
    assert BoxTree(zone.omega, [left, right]).locate(points).tolist() == [1, 1]


def test_distance_linf():
    """Out-of-zone points go to the region nearest by L-infinity distance,
    ties to the lowest id."""
    model = split_region_model(WorkingZone(Box([0.0, 0.0], [1.0, 1.0])),
                               [constant_net([0.1, 0.1], 2), constant_net([0.9, 0.9], 2)])
    points = [
        [-0.5, 0.5],  # 0.5 from region 1, 1.0 from region 2
        [1.5, 0.5],   # 1.0 and 0.5
        [0.5, 1.5],   # 0.5 and 0.5: tie
        [0.7, -0.3],  # max(0.2, 0.3) = 0.3 and 0.3: tie (L1 or L2 would pick region 2)
        [0.9, -0.3],  # max(0.4, 0.3) = 0.4 and 0.3
    ]
    ids, out = model.locate_batch(points)
    assert out.all()
    assert ids.tolist() == [1, 2, 1, 1, 2]


def test_box_json_round_trip():
    b = Box([0.0, -1.0], [0.5, 2.0], closed_hi=[True, False])
    c = Box.from_dict(b.to_dict())
    assert np.array_equal(b.lo, c.lo)
    assert np.array_equal(b.hi, c.hi)
    assert np.array_equal(b.closed_hi, c.closed_hi)


@st.composite
def boxes_2d(draw):
    lo0 = draw(st.floats(-5, 4, allow_nan=False))
    lo1 = draw(st.floats(-5, 4, allow_nan=False))
    w0 = draw(st.floats(0.1, 5))
    w1 = draw(st.floats(0.1, 5))
    return Box([lo0, lo1], [lo0 + w0, lo1 + w1])


@given(boxes_2d(), boxes_2d())
def test_intersect_commutative(a, b):
    ab = a.intersect(b)
    ba = b.intersect(a)
    if ab is None:
        assert ba is None
    else:
        assert np.array_equal(ab.lo, ba.lo) and np.array_equal(ab.hi, ba.hi)


@given(boxes_2d())
def test_intersect_idempotent(a):
    aa = a.intersect(a)
    assert np.array_equal(aa.lo, a.lo) and np.array_equal(aa.hi, a.hi)


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_random_bisection_tree_tiles_zone(seed, dim):
    """Every point of the zone lands in exactly one leaf of any bisection tree."""
    rng = np.random.default_rng(seed)
    zone = WorkingZone(Box(np.zeros(dim), np.ones(dim) * rng.uniform(0.5, 3.0)))
    leaves = [zone.omega]
    for _ in range(12):
        i = int(rng.integers(len(leaves)))
        j = int(rng.integers(dim))
        box = leaves.pop(i)
        leaves.extend(box.bisect(j))
    pts = rng.uniform(zone.omega.lo, zone.omega.hi, size=(500, dim))
    counts = membership_matrix(leaves, pts).sum(axis=1)
    assert (counts == 1).all()
    # boundary points too, including the closed outer corner
    corners = np.stack([zone.omega.lo, zone.omega.hi, zone.omega.center])
    counts = membership_matrix(leaves, corners).sum(axis=1)
    assert (counts == 1).all()


def reference_locate(boxes, points):
    """Index of the box holding each point by brute force, -1 where none does."""
    member = membership_matrix(boxes, points)
    assert (member.sum(axis=1) <= 1).all()
    return np.where(member.any(axis=1), member.argmax(axis=1), -1)


def face_probes(zone, boxes, rng):
    """Every box corner, points on every box face, random points of the zone
    and points outside it."""
    lo = np.stack([b.lo for b in boxes])
    hi = np.stack([b.hi for b in boxes])
    dim = zone.dim
    corners = [np.where(np.array(bits, dtype=bool), hi, lo) for bits in np.ndindex(*(2,) * dim)]
    on_faces = []
    for k in range(dim):
        for side in (lo, hi):
            p = rng.uniform(lo, hi)
            p[:, k] = side[:, k]
            on_faces.append(p)
    inside = rng.uniform(zone.lo, zone.hi, size=(300, dim))
    outside = np.concatenate([zone.hi + rng.uniform(0.01, 1.0, size=(10, dim)),
                              zone.lo - rng.uniform(0.01, 1.0, size=(10, dim))])
    return np.concatenate(corners + on_faces + [inside, outside])


def random_zone(rng, dim):
    """A box with some upper faces closed, as a working zone's are, and some open."""
    return Box(rng.uniform(-2.0, 0.0, dim), rng.uniform(0.5, 3.0, dim), rng.random(dim) < 0.7)


def random_bisection_tiling(rng, dim, splits):
    zone = random_zone(rng, dim)
    leaves = [zone]
    for _ in range(splits):
        box = leaves.pop(int(rng.integers(len(leaves))))
        leaves.extend(box.bisect(int(rng.integers(dim))))
    return zone, leaves


def guillotine_tiling(rng, zone, cuts):
    """Recursive cuts at random (non-midpoint) positions."""
    leaves = [zone]
    for _ in range(cuts):
        box = leaves.pop(int(rng.integers(len(leaves))))
        j = int(rng.integers(zone.dim))
        cut = box.lo[j] + rng.uniform(0.1, 0.9) * box.sides[j]
        lo_hi = box.hi.copy()
        lo_hi[j] = cut
        lo_closed = box.closed_hi.copy()
        lo_closed[j] = False
        hi_lo = box.lo.copy()
        hi_lo[j] = cut
        leaves.extend([Box(box.lo, lo_hi, lo_closed), Box(hi_lo, box.hi, box.closed_hi)])
    return leaves


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 40))
def test_tree_locate_equals_membership_on_bisection_tilings(seed, dim, splits):
    rng = np.random.default_rng(seed)
    zone, leaves = random_bisection_tiling(rng, dim, splits)
    order = rng.permutation(len(leaves))  # the tree must not rely on tiling order
    boxes = [leaves[k] for k in order]
    tree = BoxTree(zone, boxes)
    probes = face_probes(zone, boxes, rng)
    assert np.array_equal(tree.locate(probes), reference_locate(boxes, probes))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 40))
def test_tree_rejects_guillotine_tilings_cut_off_the_midpoint(seed, dim, cuts):
    """Such a tiling covers the zone exactly once, but it is not a bisection tiling."""
    rng = np.random.default_rng(seed)
    zone = random_zone(rng, dim)
    boxes = guillotine_tiling(rng, zone, cuts)
    probes = rng.uniform(zone.lo, zone.hi, size=(300, dim))
    assert (membership_matrix(boxes, probes).sum(axis=1) == 1).all()
    with pytest.raises(ValueError, match="not a bisection tiling"):
        BoxTree(zone, boxes)


def test_tree_cuts_bisection_tilings_at_midpoints():
    zone = WorkingZone(Box([0.0, 0.0], [1.0, 1.0])).omega
    left, right = zone.bisect(0)
    boxes = [*left.bisect(1), right]
    tree = BoxTree(zone, boxes)
    inner = tree.leaf < 0
    assert sorted(zip(tree.dims[inner].tolist(), tree.cuts[inner].tolist())) == [(0, 0.5), (1, 0.5)]
    assert tree.locate([[0.5, 0.5], [0.2, 0.5], [0.2, 0.49], [1.0, 1.0], [1.0, 1.01]]).tolist() == [2, 1, 0, 2, -1]


def test_tree_rejects_bad_tilings():
    zone = WorkingZone(Box([0.0, 0.0], [2.0, 2.0])).omega
    left, right = zone.bisect(0)
    with pytest.raises(ValueError, match="gap"):
        BoxTree(zone, [left])
    with pytest.raises(ValueError, match="gap"):
        BoxTree(zone, [left, *right.bisect(1)[:1]])
    with pytest.raises(ValueError, match="overlap"):
        BoxTree(zone, [left, right, Box([0.5, 0.5], [1.5, 1.5])])
    with pytest.raises(ValueError, match="overlap: boxes 1 .* and 2"):
        BoxTree(zone, [left, right, right])  # found below the root
    with pytest.raises(ValueError, match="outside the zone"):
        BoxTree(zone, [left, Box([1.0, 0.0], [3.0, 2.0], [True, True])])
    with pytest.raises(ValueError, match="closed"):
        BoxTree(zone, [Box(left.lo, left.hi, [True, True]), right])
    # a pinwheel tiles the square, but no single cut separates its boxes
    pinwheel = [
        Box([0.0, 0.0], [1.5, 0.5]),
        Box([1.5, 0.0], [2.0, 1.5], [True, False]),
        Box([0.5, 1.5], [2.0, 2.0], [True, True]),
        Box([0.0, 0.5], [0.5, 2.0], [False, True]),
        Box([0.5, 0.5], [1.5, 1.5]),
    ]
    grid = np.stack(np.meshgrid(np.linspace(0, 2, 9), np.linspace(0, 2, 9)), axis=-1).reshape(-1, 2)
    assert (membership_matrix(pinwheel, grid).sum(axis=1) == 1).all()
    with pytest.raises(ValueError, match="not a bisection tiling"):
        BoxTree(zone, pinwheel)
