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
from .geometry import Box, split_dims

# Unconditional freeze for slivers: longest side below this fraction of the
# zone's extent, the resolution floor where samples converge.
MIN_SIDE_FRACTION = 1e-9


@dataclass(frozen=True, eq=False)
class PartitionSet:
    """Disjoint boxes tiling the zone plus per-box sample assignments."""

    zone: WorkingZone
    boxes: list[Box]
    assignments: list[np.ndarray]  # per-box indices into the source points
    epsilon: float
    split_log: list[tuple[int, int, float, bool]] = field(default=None, repr=False)  # type: ignore[assignment]

    def __len__(self) -> int:
        return len(self.boxes)


def xlogx_table(n: int) -> np.ndarray:
    """c ln c for the counts c = 0..n, with 0 ln 0 = 0: each entry has the
    bits of the scalar ``c * np.log(c)``."""
    c = np.arange(n + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        table = c * np.log(c)
    table[0] = 0.0
    return table


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
    extent = zone.omega.sides
    columns = states.T  # 1-D coordinate columns, views of states
    xlogx = xlogx_table(n_total)
    boxes: list[Box] = []
    assignments: list[np.ndarray] = []
    log: list[tuple[int, int, float, bool]] = []

    def keep(box: Box, idx: np.ndarray) -> None:
        boxes.append(box)
        assignments.append(idx)

    # Depth-first over the split tree, lower child first, so boxes come out in
    # tiling order. A box's fate depends only on the box and its samples, so
    # this visits the same splits as widest-first selection would.
    split, dims = split_dims(extent), []  # dims[depth]: the dimension that depth cuts
    stack = [(zone.omega, np.arange(n_total), 0)]
    while stack:
        box, idx, depth = stack.pop()
        if ((box.hi - box.lo) / extent).max() < MIN_SIDE_FRACTION:
            keep(box, idx)
            continue
        if depth == len(dims):
            dims.append(next(split))
        j = dims[depth]
        mid = 0.5 * (box.lo[j] + box.hi[j])
        if not box.lo[j] < mid < box.hi[j]:  # midpoint collapse at float limits
            keep(box, idx)
            continue
        lower_mask = columns[j][idx] < mid
        c = idx.size
        c1 = int(np.count_nonzero(lower_mask))
        c2 = c - c1
        delta_h = (xlogx.item(c) - xlogx.item(c1) - xlogx.item(c2)) / n_total if n_total else 0.0
        # an empty half gains exactly 0: at epsilon 0 empty boxes would split without end
        accepted = bool(c1 and c2 and delta_h >= epsilon)
        # the split box's position in the tiling: every box before it is final
        log.append((len(boxes), j, delta_h, accepted))
        if accepted:
            left, right = box.bisect(j)
            stack.append((right, idx[~lower_mask], depth + 1))
            stack.append((left, idx[lower_mask], depth + 1))
        else:
            keep(box, idx)

    return PartitionSet(
        zone=zone,
        boxes=boxes,
        assignments=assignments,
        epsilon=float(epsilon),
        split_log=log,
    )
