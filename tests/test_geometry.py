import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynabs import Box, BoxTree, WorkingZone, geometry, membership_matrix
from dynabs.data import boxes_from_docs

from oracles import halved_longest_dim, level_tree
from synthdata import tree_of


def test_box_basic_fields():
    b = Box([0.0, -1.0], [2.0, 3.0])
    assert b.dim == 2
    assert np.allclose(b.sides, [2.0, 4.0])
    assert np.allclose(0.5 * (b.lo + b.hi), [1.0, 1.0])


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
    assert tree_of(b, [b]).locate(points).tolist() == [0, 0, -1, -1]


def test_contains_zone_upper_face_closed():
    zone = WorkingZone(Box([0.0, 0.0], [1.0, 1.0]))
    points = [[1.0, 1.0], [1.0, 0.3]]
    assert membership_matrix([zone.omega], points).all()
    assert tree_of(zone.omega, [zone.omega]).locate(points).tolist() == [0, 0]


def test_contains_dimension_mismatch():
    b = Box([0.0, 0.0], [1.0, 1.0])
    # the tree checks the point dimension; membership_matrix, the brute-force
    # reference, broadcasts instead
    with pytest.raises(ValueError, match="dimension 2"):
        tree_of(b, [b]).locate([[0.5]])


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
    assert tree_of(whole, [left, right]).locate(points).tolist() == [0, 1, -1]

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
    assert tree_of(zone.omega, [left, right]).locate(points).tolist() == [1, 1]


def test_box_json_round_trip():
    b = Box([0.0, -1.0], [0.5, 2.0], closed_hi=[True, False])
    lo, hi, closed = boxes_from_docs([b.to_dict()], None, lambda k: "box")
    assert np.array_equal([b.lo], lo)
    assert np.array_equal([b.hi], hi)
    assert np.array_equal([b.closed_hi], closed)


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
    corners = np.stack([zone.omega.lo, zone.omega.hi, 0.5 * (zone.omega.lo + zone.omega.hi)])
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
    """A box with some upper faces closed, as a working zone's are, and some
    open. Two in five are tie zones: one interval scaled by 2^-1, 1 or 2 in
    each dimension, so the sides are in exact power-of-2 ratios while the
    bounds are not short dyadic fractions, as on [0.1, 0.4]^2."""
    closed = rng.random(dim) < 0.7
    if rng.random() < 0.4:
        scale = np.ldexp(1.0, rng.integers(-1, 2, dim))
        return Box(scale * rng.uniform(-2.0, 0.4), scale * rng.uniform(0.5, 3.0), closed)
    return Box(rng.uniform(-2.0, 0.0, dim), rng.uniform(0.5, 3.0, dim), closed)


def random_bisection_tiling(rng, dim, splits):
    """`splits` random leaves, each halved in the dimension its own
    halving counts give, as partitioning does."""
    zone = random_zone(rng, dim)
    leaves = [(zone, np.zeros(dim, dtype=int))]
    for _ in range(splits):
        box, halvings = leaves.pop(int(rng.integers(len(leaves))))
        j = int(halved_longest_dim(zone.sides, halvings))
        halvings = halvings + np.eye(dim, dtype=int)[j]
        leaves.extend((child, halvings) for child in box.bisect(j))
    return zone, [box for box, _ in leaves]


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
    tree = tree_of(zone, boxes)
    probes = face_probes(zone, boxes, rng)
    assert np.array_equal(tree.locate(probes), reference_locate(boxes, probes))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 40), st.integers(1, 4))
def test_labelled_walk_equals_the_label_of_each_box(seed, dim, splits, n_labels):
    """A walk that stops at subtrees of one label gives each point its box's
    label, in no more levels than the box walk; with one label, in none."""
    rng = np.random.default_rng(seed)
    zone, leaves = random_bisection_tiling(rng, dim, splits)
    boxes = [leaves[k] for k in rng.permutation(len(leaves))]
    tree = tree_of(zone, boxes)
    by_box = tree.walk(np.arange(len(boxes)))
    assert by_box.depth == tree.box_walk.depth
    assert np.array_equal(by_box.kids, tree.box_walk.kids) and np.array_equal(by_box.label, tree.box_walk.label)
    labels = rng.integers(n_labels, size=len(boxes)) + 1
    walk = tree.walk(labels)
    probes = face_probes(zone, boxes, rng)
    box = reference_locate(boxes, probes)
    assert np.array_equal(tree.locate(probes, walk), np.where(box >= 0, labels[box], -1))
    assert walk.depth <= tree.box_walk.depth
    if (labels == labels[0]).all():
        assert walk.depth == 0


def test_walk_rejects_labels_that_do_not_fit_the_boxes():
    zone = WorkingZone(Box([0.0, 0.0], [1.0, 1.0])).omega
    tree = tree_of(zone, zone.bisect(0))
    for labels in ([1], [1, 2, 3], [0, -1]):
        with pytest.raises(ValueError, match="one non-negative label per box"):
            tree.walk(labels)


def reference_overlaps(boxes, lo, hi) -> set[tuple[int, int]]:
    """(query row, box) pairs that meet with positive width in every dimension, by brute force."""
    blo = np.stack([b.lo for b in boxes])
    bhi = np.stack([b.hi for b in boxes])
    meets = np.all(np.minimum(hi[:, None], bhi[None]) > np.maximum(lo[:, None], blo[None]), axis=2)
    return set(zip(*(a.tolist() for a in np.nonzero(meets))))


def overlap_queries(zone, boxes, rng):
    """Query boxes as (lo, hi) rows: random ones that stick out of the zone
    or lie beside it, the boxes themselves, boxes spanning between box
    corners (their faces lie on other boxes' faces), points, boxes of zero
    width in one dimension, and inverted ones."""
    dim = zone.dim
    a = rng.uniform(zone.lo - 1.0, zone.hi + 1.0, size=(40, dim))
    b = rng.uniform(zone.lo - 1.0, zone.hi + 1.0, size=(40, dim))
    lo = np.stack([box.lo for box in boxes])
    hi = np.stack([box.hi for box in boxes])
    corners = np.concatenate([lo, hi])
    c, d = corners[rng.integers(len(corners), size=(2, 60))]
    flat_lo, flat_hi = np.minimum(c, d), np.maximum(c, d)
    k = rng.integers(dim, size=60)
    flat_hi[np.arange(60), k] = flat_lo[np.arange(60), k]
    return (np.concatenate([np.minimum(a, b), lo, np.minimum(c, d), c, flat_lo, np.maximum(a, b)]),
            np.concatenate([np.maximum(a, b), hi, np.maximum(c, d), c, flat_hi, np.minimum(a, b)]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 40), st.sampled_from([None, 1, 200]))
def test_tree_overlapping_equals_brute_force_on_bisection_tilings(seed, dim, splits, pairs):
    """With the default block size (one block here), and with blocks of
    `pairs` // boxes query rows, a block counting 8 bytes of STACK_BYTES per
    (row, box) pair: one row, or a few. Each yield holds the rows of one
    block, and at most block rows times boxes pairs: at most `pairs`, unless
    one row alone meets more boxes."""
    rng = np.random.default_rng(seed)
    zone, leaves = random_bisection_tiling(rng, dim, splits)
    boxes = [leaves[k] for k in rng.permutation(len(leaves))]
    lo, hi = overlap_queries(zone, boxes, rng)
    tree = tree_of(zone, boxes)
    limit = pairs or geometry.STACK_BYTES // 8
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "STACK_BYTES", 8 * limit)
        yields = list(tree.overlapping(lo, hi))
    block = max(1, limit // len(boxes))
    for rows, hit in yields:
        assert 0 < rows.size == hit.size <= block * len(boxes) <= max(limit, len(boxes))
        assert rows.min() // block == rows.max() // block
    pairs = [(i, k) for rows, hit in yields for i, k in zip(rows.tolist(), hit.tolist())]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == reference_overlaps(boxes, lo, hi)


def test_tree_overlapping_hand_cases():
    zone = WorkingZone(Box([0.0, 0.0], [1.0, 1.0])).omega
    left, right = zone.bisect(0)
    tree = tree_of(zone, [*left.bisect(1), right])  # [0,.5)x[0,.5), [0,.5)x[.5,1], [.5,1]x[0,1]
    lo = np.array([[0.5, 0.0], [0.4, 0.4], [-1.0, -1.0], [0.2, 0.2], [1.0, 0.0], [0.1, 0.6]])
    hi = np.array([[1.0, 1.0], [0.6, 0.6], [2.0, 2.0], [0.2, 0.3], [2.0, 1.0], [0.1, 0.6]])
    rows, hit = (np.concatenate(a) for a in zip(*tree.overlapping(lo, hi)))
    got = sorted(zip(rows.tolist(), hit.tolist()))
    # the right half only touches the left boxes; a zero-width or point query meets nothing
    assert got == [(0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


def test_bisect_children_are_valid_read_only_boxes():
    box = Box([0.0, -1.0], [1.0, 3.0], [True, False])
    for child in box.bisect(1):
        again = Box(child.lo, child.hi, child.closed_hi)
        assert np.array_equal(again.lo, child.lo) and np.array_equal(again.hi, child.hi)
        assert np.array_equal(again.closed_hi, child.closed_hi)
        assert not (child.lo.flags.writeable or child.hi.flags.writeable or child.closed_hi.flags.writeable)
    tiny = Box([0.0], [np.nextafter(0.0, 1.0)])  # no float strictly between its faces
    with pytest.raises(ValueError, match="degenerate"):
        tiny.bisect(0)


def raises_as_level_tree(zone, boxes, match: str) -> None:
    """BoxTree raises ValueError matching `match`, with the text of the
    level-by-level reference build."""
    with pytest.raises(ValueError, match=match) as got:
        tree_of(zone, boxes)
    with pytest.raises(ValueError) as want:
        level_tree(zone, boxes)
    assert str(got.value) == str(want.value)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 40))
def test_tree_rejects_guillotine_tilings_cut_off_the_midpoint(seed, dim, cuts):
    """Such a tiling covers the zone exactly once, but it is not a bisection tiling."""
    rng = np.random.default_rng(seed)
    zone = random_zone(rng, dim)
    boxes = guillotine_tiling(rng, zone, cuts)
    probes = rng.uniform(zone.lo, zone.hi, size=(300, dim))
    assert (membership_matrix(boxes, probes).sum(axis=1) == 1).all()
    raises_as_level_tree(zone, boxes, "not a bisection tiling")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 60))
def test_tree_tables_equal_the_level_by_level_build(seed, dim, splits):
    """The tree's dims (one per level), cuts, child table and leaves, and so
    its box walk, are those of the reference build that scatters every box
    onto its node."""
    rng = np.random.default_rng(seed)
    zone, leaves = random_bisection_tiling(rng, dim, splits)
    boxes = [leaves[k] for k in rng.permutation(len(leaves))]
    tree = tree_of(zone, boxes)
    dims, cuts, left, right, leaf = level_tree(zone, boxes)
    for got, want in [(tree.dims, dims), (tree.cuts, cuts), (tree.leaf, leaf),
                      (tree.box_walk.kids, np.stack([left, right], axis=1).reshape(-1))]:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(tree.box_walk.label, leaf)
    level, depth = np.array([0]), 0  # the box walk descends to the deepest leaf
    while (leaf[level] < 0).any():
        inner = level[leaf[level] < 0]
        level, depth = np.concatenate([left[inner], right[inner]]), depth + 1
    assert tree.box_walk.depth == depth


@pytest.mark.parametrize("sides, prefix", [
    ((2.0, 2.0), [0, 1, 0, 1, 0, 1, 0, 1]),
    ((3.0, 1.0), [0, 0, 1, 0, 1, 0, 1, 0]),
    ((0.3, 0.6), [1, 0, 1, 0, 1, 0, 1, 0]),  # 0.6 is 2 * 0.3 in floats
])
def test_split_dims_halves_the_longest_halved_side_ties_to_the_lowest(sides, prefix):
    assert list(itertools.islice(geometry.split_dims(np.array(sides)), len(prefix))) == prefix


def test_tree_cuts_bisection_tilings_at_midpoints():
    zone = WorkingZone(Box([0.0, 0.0], [1.0, 1.0])).omega
    left, right = zone.bisect(0)
    boxes = [*left.bisect(1), right]
    tree = tree_of(zone, boxes)
    # the root cuts x1, level 1 (the left half, inner, and the right one, a leaf) x2
    assert tree.dims.tolist() == [0, 1, 0] and tree.cuts[tree.leaf < 0].tolist() == [0.5, 0.5]
    assert tree.locate([[0.5, 0.5], [0.2, 0.5], [0.2, 0.49], [1.0, 1.0], [1.0, 1.01]]).tolist() == [2, 1, 0, 2, -1]


def test_tree_is_the_sequence_of_its_boxes():
    """A tree holds its own read-only copy of the stacked rows it is built
    from, and makes the `Box` of row k when asked for it."""
    zone = WorkingZone(Box([0.0, 0.0], [1.0, 1.0])).omega
    lo, hi = np.array([[0.0, 0.0], [0.5, 0.0]]), np.array([[0.5, 1.0], [1.0, 1.0]])
    closed = np.array([[False, True], [True, True]])
    tree = BoxTree(zone, lo, hi, closed)
    lo[0, 0] = 0.25
    assert len(tree) == 2 and tree.lo[0, 0] == 0.0
    assert all(not rows.flags.writeable for rows in (tree.lo, tree.hi, tree.closed_hi))
    boxes = ["Box([0,0.5)x[0,1])", "Box([0.5,1]x[0,1])"]
    assert [repr(b) for b in tree] == [repr(tree[0]), repr(tree[np.intp(1)])] == boxes
    assert repr(tree[-1]) == repr(tree[1]) and not tree[1].lo.flags.writeable
    with pytest.raises(TypeError):
        tree[0:1]
    with pytest.raises(IndexError):
        tree[2]
    with pytest.raises(ValueError, match="no boxes to index"):
        BoxTree(zone, np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2), dtype=bool))
    for rows in ((lo[:, :1], hi[:, :1], closed[:, :1]), (lo[0], hi[0], closed[0]), (lo, hi[:1], closed)):
        with pytest.raises(ValueError, match="every box must have the zone's dimension 2"):
            BoxTree(zone, *rows)


def test_tree_rejects_bad_tilings():
    zone = WorkingZone(Box([0.0, 0.0], [2.0, 2.0])).omega
    left, right = zone.bisect(0)
    raises_as_level_tree(zone, [left], "gap")
    raises_as_level_tree(zone, [left, *right.bisect(1)[:1]], "gap")
    raises_as_level_tree(zone, [left, right, Box([0.0, 0.0], [1.0, 1.0])],
                         re.escape("overlap: box 0 Box([0,1)x[0,2]) fills [[0.0, 0.0], [1.0, 2.0]], where box 2"))
    raises_as_level_tree(zone, [left, right, right], "overlap: box 1 .* where box 2")  # found below the root
    raises_as_level_tree(zone, [left, right, Box([0.5, 0.5], [1.5, 1.5])],
                         re.escape("not a bisection tiling: box 2 Box([0.5,1.5)x[0.5,1.5)) straddles the cut at 1.0 "
                                   "in dimension 0 of [[0.0, 0.0], [2.0, 2.0]]"))
    raises_as_level_tree(zone, [left, Box([1.0, 0.0], [3.0, 2.0], [True, True])], "outside the zone")
    raises_as_level_tree(zone, [Box(left.lo, left.hi, [True, True]), right], "closed")
    # two slabs tile the unit square's left half, and no box meets its right half
    unit = WorkingZone(Box([0.0, 0.0], [1.0, 1.0])).omega
    slabs = [Box([0.0, 0.0], [0.25, 1.0], [False, True]), Box([0.25, 0.0], [0.5, 1.0], [False, True])]
    raises_as_level_tree(unit, slabs, re.escape("gap: no box covers [[0.5, 0.0], [1.0, 1.0]]"))
    # four x1-slabs tile the square at midpoints, but the left half's longer side is x2
    slabs = [b for half in unit.bisect(0) for b in half.bisect(0)]
    raises_as_level_tree(unit, slabs, re.escape("not a bisection tiling: box 0 Box([0,0.25)x[0,1]) straddles the cut "
                                                "at 0.5 in dimension 1 of [[0.0, 0.0], [0.5, 1.0]]"))
    # on [0.1, 0.4]^2 the boxes of one level differ in the last bits of their float sides, so halving
    # each box on its own longest float side cuts x1 in some boxes of level 2 and x2 in others
    tie = WorkingZone(Box([0.1, 0.1], [0.4, 0.4])).omega
    leaves = [tie]
    for _ in range(3):
        leaves = [half for box in leaves for half in box.bisect(int(np.argmax(box.sides)))]
    raises_as_level_tree(tie, leaves, r"not a bisection tiling: box \d+ .* straddles the cut at .* in dimension 0")
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
    raises_as_level_tree(zone, pinwheel, "not a bisection tiling: box 0 .* straddles the cut at 1.0 in dimension 0")
    # a zone one ulp wide has no cut that shrinks both halves, so two boxes in it cannot be split apart
    ulp = Box([0.0], [np.nextafter(0.0, 1.0)], [True])
    raises_as_level_tree(ulp, [ulp, ulp], "not a bisection tiling: box 0 .* shares .* with other boxes, "
                                          "but the cut at 0.0 in dimension 0 does not shrink both halves")
