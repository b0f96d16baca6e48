"""Maximum-entropy bisection of a working zone.

The zone is recursively bisected at the midpoint of the side its depth cuts
(`geometry.split_dims`); a tentative split is kept only when it leaves samples
in both halves and raises the Shannon entropy of sample occupancy by at least
epsilon. Partitions whose tentative split fails are frozen and never
revisited, which guarantees termination and keeps the procedure deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DataError, WorkingZone
from .geometry import BoxTree, split_dims

# Unconditional freeze for slivers: longest side below this fraction of the
# zone's extent, the resolution floor where samples converge.
MIN_SIDE_FRACTION = 1e-9


@dataclass(frozen=True, eq=False)
class PartitionSet:
    """Disjoint boxes tiling the zone, as the `BoxTree` that indexes them,
    plus per-box sample assignments: the indices into the source points of
    each box's samples, ascending, as int32 (intp from 2**31 points on)."""

    zone: WorkingZone
    boxes: BoxTree
    assignments: list[np.ndarray]  # per-box indices into the source points
    epsilon: float
    split_log: list[tuple[int, int, float, bool]] = field(default=None, repr=False)  # type: ignore[assignment]

    def __len__(self) -> int:
        return len(self.boxes)


def xlogx_halves(c1: int, c2: int) -> tuple[float, float]:
    """c ln c of the counts of a split's two halves, with 0 ln 0 = 0, from
    one 2-entry product: each has the bits of the scalar ``c * np.log(c)``.
    An empty half is taken as 1 ln 1, which is exactly 0."""
    pair = np.array([c1 or 1, c2 or 1], dtype=float)
    return tuple((pair * np.log(pair)).tolist())


def me_partition(zone: WorkingZone, points, epsilon: float) -> PartitionSet:
    """Maximum-entropy partitioning of the zone driven by sample density.

    Bisects each partition at the midpoint of the side its depth cuts; the
    split is committed when both halves hold samples and the global entropy gain
    H(after) - H(before) reaches epsilon, otherwise the partition is frozen.
    Returns the final tiling with each point assigned to exactly one box
    (half-open membership).
    `split_log` holds one (tiling position, dimension, gain, committed) entry
    per tested split, in depth-first order.

    `points` is an (n, n_x) array of states inside the zone; a point outside
    it raises DataError.

    Besides the points, it holds one 4-byte row index per point, split
    among the open boxes, and a split's gather of one coordinate with its
    mask: about 13 bytes per point at the root. A box's bounds are float
    tuples and its c ln c is carried down from its parent's split; the
    tiling is built once, as the `BoxTree` over the stacked bounds.
    """
    if not epsilon >= 0:  # NaN fails too
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    states = np.atleast_2d(np.asarray(points, dtype=float))
    if states.shape[1] != zone.n_x:
        raise ValueError(f"points have dimension {states.shape[1]}, zone has {zone.n_x}")
    outside = np.nonzero(~zone.contains(states))[0]
    if outside.size:
        raise DataError(f"point {int(outside[0])} lies outside the working zone")

    n_total = states.shape[0]
    extent = zone.omega.sides.tolist()
    columns = states.T  # 1-D coordinate columns, views of states
    leaves: list[tuple[tuple[float, ...], tuple[float, ...]]] = []  # (lo, hi) of each kept box, in tiling order
    assignments: list[np.ndarray] = []
    log: list[tuple[int, int, float, bool]] = []

    def keep(lo, hi, idx: np.ndarray) -> None:
        leaves.append((lo, hi))
        assignments.append(idx)

    # Depth-first over the split tree, lower child first, so boxes come out in
    # tiling order. A box's fate depends only on the box and its samples, so
    # this visits the same splits as widest-first selection would.
    split, dims = split_dims(zone.omega.sides), []  # dims[depth]: the dimension that depth cuts
    rows = np.arange(n_total, dtype=np.int32 if n_total < 2**31 else np.intp)
    stack = [(tuple(zone.omega.lo.tolist()), tuple(zone.omega.hi.tolist()), rows, 0, xlogx_halves(n_total, 0)[0])]
    del rows  # the stack holds the only reference, so the split frees it
    while stack:
        lo, hi, idx, depth, xlogx_c = stack.pop()  # xlogx_c: c ln c of the box's c samples
        if max((h - l) / e for l, h, e in zip(lo, hi, extent)) < MIN_SIDE_FRACTION:
            keep(lo, hi, idx)
            continue
        if depth == len(dims):
            dims.append(next(split))
        j = dims[depth]
        mid = 0.5 * (lo[j] + hi[j])
        if not lo[j] < mid < hi[j]:  # midpoint collapse at float limits
            keep(lo, hi, idx)
            continue
        lower_mask = columns[j][idx] < mid
        c = idx.size
        c1 = int(np.count_nonzero(lower_mask))
        c2 = c - c1
        # an empty half gains exactly 0: at epsilon 0 empty boxes would split without end
        accepted = False
        delta_h = 0.0
        if c1 and c2:
            xlogx_1, xlogx_2 = xlogx_halves(c1, c2)
            delta_h = (xlogx_c - xlogx_1 - xlogx_2) / n_total
            accepted = bool(delta_h >= epsilon)
        # the split box's position in the tiling: every box before it is final
        log.append((len(leaves), j, delta_h, accepted))
        if accepted:
            stack.append((lo[:j] + (mid,) + lo[j + 1:], hi, idx.compress(~lower_mask), depth + 1, xlogx_2))
            stack.append((lo, hi[:j] + (mid,) + hi[j + 1:], idx.compress(lower_mask), depth + 1, xlogx_1))
        else:
            keep(lo, hi, idx)

    los, his = (np.array(side, dtype=float) for side in zip(*leaves))
    # a box's upper face is closed where it lies on a closed face of the zone, as bisection leaves it
    closed = (his == zone.omega.hi) & zone.omega.closed_hi
    return PartitionSet(
        zone=zone,
        boxes=BoxTree(zone.omega, los, his, closed),
        assignments=assignments,
        epsilon=float(epsilon),
        split_log=log,
    )
