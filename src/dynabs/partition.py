"""Maximum-entropy bisection of a working zone.

The zone is recursively bisected at the midpoint of each partition's longest
side; a tentative split is kept only when it raises the Shannon entropy of
sample occupancy by at least the threshold epsilon. Partitions whose
tentative split fails are frozen and never revisited, which guarantees
termination and keeps the procedure deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DataError, WorkingZone
from .geometry import Box

# Unconditional freeze for slivers: longest side below this fraction of the
# zone's extent. Guards against unbounded refinement when epsilon is 0.
MIN_SIDE_FRACTION = 1e-9


def shannon_entropy(counts) -> float:
    """H = -sum p_i ln p_i over occupancy fractions, with 0 ln 0 = 0."""
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a non-empty 1-D sequence")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    total = counts.sum()
    if total == 0:
        raise ValueError("at least one count must be positive")
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


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


def _xlogx(c: float) -> float:
    return c * np.log(c) if c > 0 else 0.0


def me_partition(zone: WorkingZone, points, epsilon: float) -> PartitionSet:
    """Maximum-entropy partitioning of the zone driven by sample density.

    Bisects each partition at the midpoint of its longest side; the split is
    committed when the global entropy gain H(after) - H(before) reaches
    epsilon, otherwise the partition is frozen. Returns the final tiling with
    each point assigned to exactly one box (half-open membership).
    `split_log` holds one (tiling position, dimension, gain, committed) entry
    per tested split, in depth-first order.

    `points` is an (n, n_x) array of states inside the zone; a point outside
    it raises DataError.
    """
    if not epsilon >= 0:  # NaN fails too
        raise ValueError(f"epsilon must be >= 0, got {epsilon!r}")
    states = np.atleast_2d(np.asarray(points, dtype=float))
    if states.shape[1] != zone.n_x:
        raise ValueError(f"points have dimension {states.shape[1]}, zone has {zone.n_x}")
    outside = np.nonzero(~zone.contains(states))[0]
    if outside.size:
        raise DataError(f"point {int(outside[0])} lies outside the working zone")

    n_total = states.shape[0]
    extent = zone.omega.sides
    boxes: list[Box] = []
    assignments: list[np.ndarray] = []
    log: list[tuple[int, int, float, bool]] = []

    def keep(box: Box, idx: np.ndarray) -> None:
        boxes.append(box)
        assignments.append(idx)

    # Depth-first over the split tree, lower child first, so boxes come out in
    # tiling order. A box's fate depends only on the box and its samples, so
    # this visits the same splits as widest-first selection would.
    stack = [(zone.omega, np.arange(n_total))]
    while stack:
        box, idx = stack.pop()
        if np.max(box.sides / extent) < MIN_SIDE_FRACTION:
            keep(box, idx)
            continue
        j = int(np.argmax(box.sides))  # argmax takes the lowest dim on ties
        mid = 0.5 * (box.lo[j] + box.hi[j])
        if not box.lo[j] < mid < box.hi[j]:  # midpoint collapse at float limits
            keep(box, idx)
            continue
        lower_mask = states[idx, j] < mid
        c = idx.size
        c1 = int(lower_mask.sum())
        c2 = c - c1
        delta_h = (_xlogx(c) - _xlogx(c1) - _xlogx(c2)) / n_total if n_total else 0.0
        accepted = bool(delta_h >= epsilon)
        # the split box's position in the tiling: every box before it is final
        log.append((len(boxes), j, delta_h, accepted))
        if accepted:
            left, right = box.bisect(j)
            stack.append((right, idx[~lower_mask]))
            stack.append((left, idx[lower_mask]))
        else:
            keep(box, idx)

    return PartitionSet(
        zone=zone,
        boxes=boxes,
        assignments=assignments,
        epsilon=float(epsilon),
        split_log=log,
    )
