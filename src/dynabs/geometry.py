"""Axis-aligned box geometry.

Boxes are the universal set representation here: working zones, data-driven
partitions, and abstraction cells are all boxes or unions of boxes.
Membership is half-open (lower edge closed, upper edge open) except on upper
faces flagged as closed, which is how the outermost working-zone faces keep
boundary points inside the tiling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np


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
            raise ValueError(f"degenerate box: dimension {k} has lo={lo[k]!r} >= hi={hi[k]!r}")
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

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x) -> bool:
        """Half-open membership: lo <= x < hi, closed on flagged upper faces."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.lo.shape:
            raise ValueError(f"point of dimension {x.size} tested against box of dimension {self.dim}")
        above = (x < self.hi) | (self.closed_hi & (x == self.hi))
        return bool(np.all((self.lo <= x) & above))

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

    def distance_linf(self, x) -> float:
        """L-infinity distance from a point to this box (0 when inside)."""
        x = np.asarray(x, dtype=float)
        gap = np.maximum(np.maximum(self.lo - x, x - self.hi), 0.0)
        return float(gap.max())

    def to_dict(self) -> dict:
        return {
            "lo": self.lo.tolist(),
            "hi": self.hi.tolist(),
            "closed_hi": self.closed_hi.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> Box:
        return cls(np.asarray(d["lo"], dtype=float), np.asarray(d["hi"], dtype=float),
                   np.asarray(d.get("closed_hi", np.zeros(len(d["lo"]), dtype=bool)), dtype=bool))

    def __repr__(self) -> str:
        parts = "x".join(f"[{l:g},{h:g}{']' if c else ')'}" for l, h, c in zip(self.lo, self.hi, self.closed_hi))
        return f"Box({parts})"


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


class BoxTree:
    """Split tree over boxes that tile a zone: the spatial index behind every
    point lookup in a tiling.

    Each internal node stores a face `(dim, cut)` that separates its boxes;
    a point goes right iff ``x[dim] >= cut``, which is `Box.contains`'s
    half-open rule. For a tiling made by bisection the face is the node's
    midpoint; other guillotine tilings cut at a box face. Leaves map to box
    indices. Building costs O(B * depth) and raises `ValueError` naming the
    first gap, overlap or node without a separating face.
    """

    def __init__(self, zone: Box, boxes):
        boxes = list(boxes)
        if not boxes:
            raise ValueError("no boxes to index")
        if any(b.dim != zone.dim for b in boxes):
            raise ValueError(f"every box must have the zone's dimension {zone.dim}")
        self.zone = zone
        self.lo = np.stack([b.lo for b in boxes])   # (n_boxes, dim)
        self.hi = np.stack([b.hi for b in boxes])
        lo, hi = self.lo, self.hi
        outside = np.nonzero(np.any(lo < zone.lo, axis=1) | np.any(hi > zone.hi, axis=1))[0]
        if outside.size:
            k = int(outside[0])
            raise ValueError(f"box {k} {boxes[k]!r} extends outside the zone {zone!r}")
        # a tiling is closed exactly on the zone's closed outer faces, so that
        # every point of the zone lies in one box
        closed = np.stack([b.closed_hi for b in boxes])
        wrong = np.nonzero(np.any(closed != ((hi == zone.hi) & zone.closed_hi), axis=1))[0]
        if wrong.size:
            k = int(wrong[0])
            raise ValueError(f"box {k} {boxes[k]!r}: upper faces must be closed exactly on the zone's closed faces")

        dims, cuts, left, right, leaf = [0], [0.0], [0], [0], [-1]
        self.depth = 0
        stack = [(0, 0, np.arange(len(boxes)), zone.lo, zone.hi)]
        while stack:
            node, depth, members, node_lo, node_hi = stack.pop()
            if members.size == 0:
                raise ValueError(f"gap: no box covers [{node_lo.tolist()}, {node_hi.tolist()}]")
            if members.size == 1:
                k = int(members[0])
                if not (np.array_equal(lo[k], node_lo) and np.array_equal(hi[k], node_hi)):
                    raise ValueError(f"gap: box {k} {boxes[k]!r} does not fill "
                                     f"[{node_lo.tolist()}, {node_hi.tolist()}]")
                leaf[node] = k
                self.depth = max(self.depth, depth)
                continue
            d, cut = _separating_face(lo[members], hi[members], node_lo, node_hi, boxes, members)
            lower = hi[members, d] <= cut
            left_hi = node_hi.copy()
            left_hi[d] = cut
            right_lo = node_lo.copy()
            right_lo[d] = cut
            dims[node], cuts[node] = d, cut
            left[node], right[node] = len(dims), len(dims) + 1
            for _ in range(2):
                dims.append(0)
                cuts.append(0.0)
                left.append(len(left))    # a leaf's children are itself
                right.append(len(right))
                leaf.append(-1)
            stack.append((right[node], depth + 1, members[~lower], right_lo, node_hi))
            stack.append((left[node], depth + 1, members[lower], node_lo, left_hi))

        self.dims = np.asarray(dims, dtype=np.intp)
        self.cuts = np.asarray(cuts, dtype=float)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.leaf = np.asarray(leaf, dtype=np.intp)

    def locate(self, points) -> np.ndarray:
        """Index of the box holding each point row, -1 outside the zone."""
        x = np.atleast_2d(np.asarray(points, dtype=float))
        if x.ndim != 2 or x.shape[1] != self.zone.dim:
            raise ValueError(f"points of shape {x.shape} located in a zone of dimension {self.zone.dim}")
        rows = np.arange(x.shape[0])
        node = np.zeros(x.shape[0], dtype=np.intp)
        for _ in range(self.depth):
            node = np.where(x[rows, self.dims[node]] >= self.cuts[node], self.right[node], self.left[node])
        z = self.zone
        inside = np.all((z.lo <= x) & ((x < z.hi) | (z.closed_hi & (x == z.hi))), axis=1)
        return np.where(inside, self.leaf[node], -1)


def _separating_face(lo, hi, node_lo, node_hi, boxes, members) -> tuple[int, float]:
    """(dim, cut) of a face no box of the node crosses: the midpoint where it
    separates, else the lowest box face that does."""
    mid = 0.5 * (node_lo + node_hi)
    at_mid = np.nonzero(np.all((hi <= mid) | (lo >= mid), axis=0))[0]
    if at_mid.size:
        d = int(at_mid[0])
        return d, float(mid[d])
    for d in range(lo.shape[1]):
        order = np.argsort(lo[:, d], kind="stable")
        starts = lo[order, d]
        reach = np.maximum.accumulate(hi[order, d])
        # a cut at starts[k] separates iff every box starting before it ends by it
        ok = np.nonzero(reach[:-1] <= starts[1:])[0]
        if ok.size:
            return d, float(starts[ok[0] + 1])
    for a in range(len(members)):
        inter = np.minimum(hi[a], hi[a + 1:]) > np.maximum(lo[a], lo[a + 1:])
        hit = np.nonzero(np.all(inter, axis=1))[0]
        if hit.size:
            i, j = int(members[a]), int(members[a + 1 + hit[0]])
            raise ValueError(f"overlap: boxes {i} {boxes[i]!r} and {j} {boxes[j]!r} intersect")
    raise ValueError(f"no axis-aligned face separates boxes {sorted(int(m) for m in members)}: "
                     "the boxes do not form a guillotine tiling")

