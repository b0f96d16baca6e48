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
    """Split tree over a bisection tiling of a zone: the spatial index behind
    every point lookup in a tiling.

    Each internal node cuts at its midpoint ``0.5 * (lo + hi)``, as
    `Box.bisect` does, on the lowest dimension no box of the node straddles;
    a point goes right iff ``x[dim] >= cut``, the half-open membership rule.
    Leaves map to box indices. Built level by level, it raises `ValueError`
    naming the first gap, overlap, wrong closure, box outside the zone or
    node that no midpoint cut separates (not a bisection tiling).
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

        dim = zone.dim
        node_lo, node_hi = zone.lo[None], zone.hi[None]   # the level's nodes, in id order
        members = np.arange(len(boxes))                   # boxes not yet at a leaf
        at = np.zeros(len(boxes), dtype=np.intp)          # the level node holding each member
        levels, first = [], 0                             # per level: dims, cuts, left, right, leaf
        while members.size:
            n = node_lo.shape[0]
            rows = np.arange(n)
            count = np.bincount(at, minlength=n)
            if not count.all():
                k = int(np.argmin(count))
                raise ValueError(f"gap: no box covers [{node_lo[k].tolist()}, {node_hi[k].tolist()}]")
            single = count[at] == 1
            unfilled = single & np.any((lo[members] != node_lo[at]) | (hi[members] != node_hi[at]), axis=1)
            if unfilled.any():
                i = int(np.argmax(unfilled))
                k = int(members[i])
                raise ValueError(f"gap: box {k} {boxes[k]!r} does not fill "
                                 f"[{node_lo[at[i]].tolist()}, {node_hi[at[i]].tolist()}]")
            mid = 0.5 * (node_lo + node_hi)
            straddled = np.zeros((n, dim), dtype=bool)
            np.logical_or.at(straddled, at, (lo[members] < mid[at]) & (mid[at] < hi[members]))
            # a cut must shrink both children, or a float-limit node would split forever
            free = ~straddled & (node_lo < mid) & (mid < node_hi)
            inner = count > 1
            if (inner & ~free.any(axis=1)).any():
                k = int(np.argmax(inner & ~free.any(axis=1)))
                stuck = members[at == k]
                _reject(boxes, stuck, lo[stuck], hi[stuck], node_lo[k], node_hi[k])
            d = np.argmax(free, axis=1)                   # the lowest free dimension
            cut = mid[rows, d]
            pair = 2 * np.cumsum(inner) - 2               # an inner node's lower child in the next level
            leaf = np.full(n, -1, dtype=np.intp)
            leaf[at[single]] = members[single]
            # a leaf's children are itself
            levels.append((d, cut, np.where(inner, first + n + pair, first + rows),
                           np.where(inner, first + n + pair + 1, first + rows), leaf))
            lower_hi, upper_lo = node_hi.copy(), node_lo.copy()
            lower_hi[rows, d] = cut
            upper_lo[rows, d] = cut
            node_lo = np.stack([node_lo, upper_lo], axis=1)[inner].reshape(-1, dim)
            node_hi = np.stack([lower_hi, node_hi], axis=1)[inner].reshape(-1, dim)
            members, at = members[~single], at[~single]
            at = pair[at] + (lo[members, d[at]] >= cut[at])
            first += n
        self.depth = len(levels) - 1
        self.dims, self.cuts, self.left, self.right, self.leaf = (np.concatenate(a) for a in zip(*levels))

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


def _reject(boxes, members, lo, hi, node_lo, node_hi):
    """Raise for a node that no midpoint cut separates: the first overlap
    among its boxes, else the tiling is not a bisection tiling."""
    for a in range(len(members)):
        inter = np.minimum(hi[a], hi[a + 1:]) > np.maximum(lo[a], lo[a + 1:])
        hit = np.nonzero(np.all(inter, axis=1))[0]
        if hit.size:
            i, j = int(members[a]), int(members[a + 1 + hit[0]])
            raise ValueError(f"overlap: boxes {i} {boxes[i]!r} and {j} {boxes[j]!r} intersect")
    raise ValueError(f"not a bisection tiling: no midpoint cut of [{node_lo.tolist()}, {node_hi.tolist()}] "
                     f"separates boxes {members.tolist()}")
