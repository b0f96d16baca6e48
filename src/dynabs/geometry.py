"""Axis-aligned box geometry.

Boxes are the universal set representation here: working zones, data-driven
partitions, and abstraction cells are all boxes or unions of boxes.
Membership is half-open (lower edge closed, upper edge open) except on upper
faces flagged as closed, which is how the outermost working-zone faces keep
boundary points inside the tiling.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

# bytes of one block of temporaries: every loop over rows, sets, candidates or
# query boxes that bounds its memory takes one block, or its share of one, at
# a time (`blocks`)
STACK_BYTES = 1 << 20


def blocks(start: int, stop: int, item_bytes: int, share: float = 1.0) -> list[tuple[int, int]]:
    """The (i, j) spans that cover range(start, stop) in order, each of as
    many items of `item_bytes` bytes as the fraction `share` of STACK_BYTES
    holds, at least one. The budget is read at call time, so setting
    `geometry.STACK_BYTES` resizes every block."""
    step = max(1, int(STACK_BYTES * share) // max(int(item_bytes), 1))
    return [(i, min(stop, i + step)) for i in range(start, stop, step)]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned interval vector with strictly positive side lengths.

    ``closed_hi[k]`` marks dimension k's upper face as closed for membership
    tests; bisection propagates these flags so a tiling of a zone stays an
    exact partition of it.
    """

    lo: np.ndarray
    hi: np.ndarray
    closed_hi: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        lo = _freeze(np.asarray(self.lo, dtype=float))
        hi = _freeze(np.asarray(self.hi, dtype=float))
        if lo.ndim != 1 or hi.ndim != 1 or lo.shape != hi.shape:
            raise ValueError(f"box bounds must be 1-D vectors of equal length, got {lo.shape} and {hi.shape}")
        if lo.size == 0:
            raise ValueError("box must have at least one dimension")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        bad = np.nonzero(~(lo < hi))[0]
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"degenerate box: dimension {k} has lo={float(lo[k])} >= hi={float(hi[k])}")
        closed = self.closed_hi
        if closed is None:
            closed = np.zeros(lo.shape, dtype=bool)
        else:
            closed = np.asarray(closed, dtype=bool)
            if closed.shape != lo.shape:
                raise ValueError("closed_hi mask must match box dimension")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "closed_hi", _freeze(closed))

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def sides(self) -> np.ndarray:
        return self.hi - self.lo

    def intersect(self, other: Box) -> Box | None:
        """Componentwise intersection; zero-width or inverted results are empty."""
        if self.dim != other.dim:
            raise ValueError(f"cannot intersect boxes of dimensions {self.dim} and {other.dim}")
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if np.any(hi <= lo):
            return None
        # upper-face closure follows whichever box supplied the tighter bound
        closed = np.where(
            self.hi < other.hi, self.closed_hi,
            np.where(other.hi < self.hi, other.closed_hi, self.closed_hi & other.closed_hi),
        )
        return Box(lo, hi, closed)

    def bisect(self, j: int) -> tuple[Box, Box]:
        """Split at the midpoint of dimension j.

        The lower child's new upper face is open (points on the cut belong to
        the upper child); the upper child inherits this box's closure flag.
        """
        if not 0 <= j < self.dim:
            raise ValueError(f"dimension {j} out of range for box of dimension {self.dim}")
        mid = 0.5 * (self.lo[j] + self.hi[j])
        lo_hi = self.hi.copy()
        lo_hi[j] = mid
        lo_closed = self.closed_hi.copy()
        lo_closed[j] = False
        hi_lo = self.lo.copy()
        hi_lo[j] = mid
        return Box(self.lo, lo_hi, lo_closed), Box(hi_lo, self.hi, self.closed_hi)

    def to_dict(self) -> dict:
        return box_docs(self.lo[None], self.hi[None], self.closed_hi[None])[0]

    def __repr__(self) -> str:
        parts = "x".join(f"[{l:g},{h:g}{']' if c else ')'}" for l, h, c in zip(self.lo, self.hi, self.closed_hi))
        return f"Box({parts})"


def box_docs(lo: np.ndarray, hi: np.ndarray, closed_hi: np.ndarray) -> list[dict]:
    """The JSON box documents of stacked (n, dim) `lo`, `hi` and `closed_hi`
    rows, one per row: the inverse of `data.boxes_from_docs`. Row by row, as
    whole-array `tolist` calls moved the benchmark's peak RSS by 1.4 MB."""
    return [{"lo": l.tolist(), "hi": h.tolist(), "closed_hi": c.tolist()} for l, h, c in zip(lo, hi, closed_hi)]


def split_dims(sides: np.ndarray):
    """The dimension the split rule halves at each depth below a zone of these `sides`:
    the longest halved side ``side * 2**-halvings``, exact in floats, ties to the lowest."""
    halvings = np.zeros(len(sides), dtype=int)
    while True:
        j = int(np.argmax(np.ldexp(sides, -halvings)))
        yield j
        halvings[j] += 1


def rows_all(mask: np.ndarray) -> np.ndarray:
    """Row-wise all of an (n, d) bool array, one column at a time: numpy's
    axis-1 reduction loops once per row, which for a few columns is an
    order of magnitude slower."""
    out = mask[:, 0].copy()
    for k in range(1, mask.shape[1]):
        out &= mask[:, k]
    return out


def membership_matrix(boxes, points: np.ndarray) -> np.ndarray:
    """Boolean (n_points, n_boxes) matrix of half-open box membership.

    The brute-force reference for `BoxTree.locate`, which replaces it on
    every path that looks points up in a tiling.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lo = np.stack([b.lo for b in boxes])            # (n_boxes, dim)
    hi = np.stack([b.hi for b in boxes])
    closed = np.stack([b.closed_hi for b in boxes])
    p = points[:, None, :]                          # (n_points, 1, dim)
    above = (p < hi[None]) | (closed[None] & (p == hi[None]))
    return np.all((lo[None] <= p) & above, axis=2)


class Walk(NamedTuple):
    """Descent tables over a `BoxTree`'s nodes (see `BoxTree.walk`)."""

    kids: np.ndarray   # (2 * nodes,): node n's lower child at 2n, its upper one at 2n + 1; a stop's are itself
    label: np.ndarray  # (nodes,): the one label of a stop's boxes, -1 at other nodes
    depth: int         # levels that take every point to a stop


class BoxTree:
    """A bisection tiling of a zone, held as the stacked (n_boxes, dim) `lo`,
    `hi` and `closed_hi` rows of its boxes, and its split tree: the spatial
    index behind every point lookup (`locate`) and box range query
    (`overlapping`) in a tiling. ``tree[k]`` makes the `Box` of row k.

    Level l's inner nodes halve ``dims[l]``, the dimension `split_dims`, the
    rule of `me_partition`, gives depth l, at the midpoint ``0.5 * (lo + hi)``
    as `Box.bisect` does, so the tree is the one partitioning built. A point
    goes right iff ``x[dims[l]] >= cut``, the half-open membership rule.
    Leaves map to box indices. Built level by level, it raises `ValueError`
    naming the first gap, overlap, wrong closure, box outside the zone, or
    box that straddles a cut or shares a node no cut can shrink (not a
    bisection tiling). A box is named `name(k)` for its index k, "box k" by
    default.
    """

    def __init__(self, zone: Box, lo, hi, closed_hi, name: Callable[[int], str] = "box {}".format):
        # read-only copies: no later write to the caller's arrays reaches the tiling
        self.lo, self.hi, self.closed_hi = lo, hi, closed = [
            _freeze(np.array(a, dtype=t)) for a, t in ((lo, float), (hi, float), (closed_hi, bool))]
        if not lo.size:
            raise ValueError("no boxes to index")
        if not lo.shape == hi.shape == closed.shape == lo.shape[:1] + (zone.dim,):
            raise ValueError(f"every box must have the zone's dimension {zone.dim}")
        self.zone = zone
        # x < _zone_upper is x < hi on an open upper face and x <= hi on a closed one
        self._zone_upper = np.where(zone.closed_hi, np.nextafter(zone.hi, np.inf), zone.hi)
        outside = np.flatnonzero(~rows_all((lo >= zone.lo) & (hi <= zone.hi)))
        if outside.size:
            k = int(outside[0])
            raise ValueError(f"{name(k)} {self[k]!r} extends outside the zone {zone!r}")
        # a tiling is closed exactly on the zone's closed outer faces, so that
        # every point of the zone lies in one box
        wrong = np.flatnonzero(~rows_all(closed == ((hi == zone.hi) & zone.closed_hi)))
        if wrong.size:
            k = int(wrong[0])
            raise ValueError(f"{name(k)} {self[k]!r}: upper faces must be closed exactly on the zone's closed faces")

        # bounds are held one row per dimension and one column per node or box,
        # so that every elementwise step runs over a long contiguous row
        node_lo, node_hi = zone.lo[:, None], zone.hi[:, None]   # the level's nodes, in id order
        members = np.arange(len(self))                          # boxes not yet at a leaf
        m_lo, m_hi = lo.T.copy(), hi.T.copy()                   # their bounds
        at = np.zeros(len(self), dtype=np.intp)                 # the level node holding each member
        levels, split = [], split_dims(zone.sides)             # per level: dim, cuts, leaf
        while members.size:
            n = node_lo.shape[1]
            count = np.bincount(at, minlength=n)
            if not count.all():
                k = int(np.argmin(count))
                raise ValueError(f"gap: no box covers [{node_lo[:, k].tolist()}, {node_hi[:, k].tolist()}]")
            single = count.take(at) == 1                        # a node's one box is its leaf and must fill it
            s = single.nonzero()[0]
            leaf_at = at.take(s)
            lo_off = m_lo.take(s, 1) != node_lo.take(leaf_at, 1)
            hi_off = m_hi.take(s, 1) != node_hi.take(leaf_at, 1)
            if lo_off.any() or hi_off.any():
                i = int(s[np.argmax(lo_off.any(axis=0) | hi_off.any(axis=0))])
                k = int(members[i])
                raise ValueError(f"gap: {name(k)} {self[k]!r} does not fill "
                                 f"[{node_lo[:, at[i]].tolist()}, {node_hi[:, at[i]].tolist()}]")
            leaf = np.full(n, -1, dtype=np.intp)
            leaf[leaf_at] = members.take(s)
            rest = (~single).nonzero()[0]
            members, at, m_lo, m_hi = members.take(rest), at.take(rest), m_lo.take(rest, 1), m_hi.take(rest, 1)
            d = next(split)
            d_lo, d_hi = node_lo[d], node_hi[d]
            cut = 0.5 * (d_lo + d_hi)                           # Box.bisect's midpoint
            cut_at = cut.take(at)
            below = m_lo[d] < cut_at
            cross = below & (cut_at < m_hi[d])
            # members share their node with other boxes: one that crosses its cut fills the node (an
            # overlap) or straddles the cut; a cut that cannot shrink both halves would split forever
            bad = cross | ~((d_lo < cut) & (cut < d_hi)).take(at)
            if bad.any():
                i = int(np.argmax(bad))
                a, k = int(at[i]), int(members[i])
                node = f"[{node_lo[:, a].tolist()}, {node_hi[:, a].tolist()}]"
                cut_a = f"the cut at {float(cut[a])!r} in dimension {d}"
                if not cross[i]:
                    raise ValueError(f"not a bisection tiling: {name(k)} {self[k]!r} shares {node} with other boxes, "
                                     f"but {cut_a} does not shrink both halves")
                if (m_lo[:, i] == node_lo[:, a]).all() and (m_hi[:, i] == node_hi[:, a]).all():
                    j = int(members[np.argmax((at == a) & (members != k))])
                    raise ValueError(f"overlap: {name(k)} {self[k]!r} fills {node}, "
                                     f"where {name(j)} {self[j]!r} lies too")
                raise ValueError(f"not a bisection tiling: {name(k)} {self[k]!r} straddles {cut_a} of {node}")
            inner = count > 1
            levels.append((d, cut, leaf))
            # the i-th inner node's children are the next level's nodes 2 i and 2 i + 1
            k = inner.nonzero()[0]
            kid = np.arange(0, 2 * k.size, 2)
            node_lo, node_hi = node_lo.take(k.repeat(2), 1), node_hi.take(k.repeat(2), 1)
            node_hi[d, kid] = node_lo[d, kid + 1] = cut.take(k)     # lower child's hi, upper child's lo
            pair = np.empty(n, dtype=np.intp)
            pair[k] = kid
            at = pair.take(at) + ~below                         # the upper child holds boxes above the cut
        dims, cuts, leaves = zip(*levels)  # one dimension per level, one cut and leaf per node
        self.dims, self.cuts, self.leaf = np.array(dims, dtype=np.intp), np.concatenate(cuts), np.concatenate(leaves)
        self._level = np.repeat(np.arange(len(levels)), [c.size for c in cuts])  # each node's level
        # nodes are numbered level by level, so the i-th inner node's children are 2 i + 1 and 2 i + 2;
        # a leaf's children are itself
        inner = self.leaf < 0
        left = np.where(inner, 2 * np.cumsum(inner) - 1, np.arange(inner.size))
        self._left_right = np.stack([left, left + inner], axis=1)
        # walk(range(n_boxes)): each leaf is a stop, and the last level holds only leaves
        self.box_walk = Walk(self._left_right.reshape(-1), self.leaf, len(levels) - 1)

    def __len__(self) -> int:
        return len(self.lo)

    def __getitem__(self, k: int) -> Box:  # one box: a slice is no index
        return Box(self.lo[operator.index(k)], self.hi[k], self.closed_hi[k])

    def walk(self, labels) -> Walk:
        """The descent that stops at the first node whose boxes all carry one
        label, `labels` holding one non-negative integer per box.

        Labelled by box index, the stops are the leaves. Labelled by owner,
        a subtree of boxes of one owner is one stop, so a point reaches its
        owner in fewer levels.
        """
        labels = np.asarray(labels)
        if labels.shape != self.lo.shape[:1] or (labels < 0).any():
            raise ValueError(f"need one non-negative label per box, got shape {labels.shape}")
        label = np.where(self.leaf >= 0, labels[self.leaf], -1)
        inner = self.leaf < 0
        for lv in range(int(self._level[-1]) - 1, -1, -1):  # bottom-up; the last level holds only leaves
            at = np.flatnonzero((self._level == lv) & inner)
            lower, upper = label[self._left_right[at]].T
            label[at] = np.where(lower == upper, lower, -1)
        stop = label >= 0
        nodes = np.arange(label.size)
        kids = np.where(stop[:, None], nodes[:, None], self._left_right).reshape(-1)
        depth = int(self._level[~stop].max()) + 1 if not stop.all() else 0
        return Walk(kids, label, depth)

    def locate(self, points, walk: Walk | None = None) -> np.ndarray:
        """Index of the box holding each point row, -1 outside the zone; under
        a `walk` from `BoxTree.walk`, the label of the stop holding it.

        Every walk takes this one descent: `depth` levels l of ``node =
        kids[2 * node + (x[:, dims[l]] >= cuts[node])]`` over 1-D takes.
        """
        walk = self.box_walk if walk is None else walk
        x = np.atleast_2d(np.asarray(points, dtype=float))
        if x.ndim != 2 or x.shape[1] != self.zone.dim:
            raise ValueError(f"points of shape {x.shape} located in a zone of dimension {self.zone.dim}")
        node = np.zeros(x.shape[0], dtype=np.intp)
        for d in self.dims[:walk.depth]:
            node = walk.kids.take(2 * node + (x[:, d] >= self.cuts.take(node)))
        inside = rows_all((self.zone.lo <= x) & (x < self._zone_upper))
        return np.where(inside, walk.label.take(node), -1)

    def overlapping(self, lo, hi):
        """Yield (rows, boxes) index arrays, one pair of arrays per tree
        level of a block of query rows that reaches leaves: query row i of the
        (Q, dim) `lo`/`hi` meets box k with positive width, `min(hi[i],
        box.hi) > max(lo[i], box.lo)` in every dimension, exactly when (i, k)
        is among the pairs of some yield. Zero-width contact counts as empty,
        as do zero-width and inverted queries.

        Each block walks down the tree level by level: a query goes to a
        node's lower child iff its lo is below the cut and to the upper one
        iff its hi is above it, and the pairs that reach a leaf are yielded
        at once. A level has at most as many nodes as there are boxes, and a
        block's rows take 8 bytes (two int32) per box from STACK_BYTES
        (`blocks`), so it holds at most STACK_BYTES / 8 (row, node) pairs at a
        level, and a yield at most as many, however dense the overlaps. Pairs
        come in no particular order.
        """
        lo = np.atleast_2d(np.asarray(lo, dtype=float))
        hi = np.atleast_2d(np.asarray(hi, dtype=float))
        if lo.ndim != 2 or lo.shape != hi.shape or lo.shape[1] != self.zone.dim:
            raise ValueError(f"queries of shapes {lo.shape} and {hi.shape} in a zone of dimension {self.zone.dim}")
        z = self.zone
        meets_zone = np.all(np.minimum(hi, z.hi) > np.maximum(lo, z.lo), axis=1)
        # 32-bit (row, node) pairs halve the memory of a block
        kids, leaf_of = (a.astype(np.int32) for a in (self.box_walk.kids, self.leaf))
        for i, j in blocks(0, lo.shape[0], 8 * self.lo.shape[0]):
            q = (i + np.flatnonzero(meets_zone[i:j])).astype(np.int32)
            node = np.zeros(q.size, dtype=np.int32)
            dims = iter(self.dims)  # the nodes of pass l lie on level l
            while q.size:
                leaf = leaf_of[node]
                at_leaf = leaf >= 0
                if at_leaf.any():
                    yield q[at_leaf], leaf[at_leaf]
                    q, node = q[~at_leaf], node[~at_leaf]
                d, cut = next(dims), self.cuts[node]
                lower = lo[q, d] < cut
                upper = hi[q, d] > cut
                del cut  # freed before the next level's pairs are made
                q = np.concatenate([q[lower], q[upper]])
                node = np.concatenate([kids[2 * node[lower]], kids[2 * node[upper] + 1]])
