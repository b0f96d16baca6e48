"""Interval over-approximation of network images.

Bound propagation through a single affine layer is exact interval arithmetic
and ReLU is monotone, so pushing a box through affine -> ReLU -> affine gives
a sound box enclosure of the network's image. Boxes travel as stacked rows:
(P, n) lower and upper bounds, one row per box. Enclosures may collapse to
zero width (constant networks, point inputs), which `Box` does not allow;
final network enclosures carry a small symmetric slack that absorbs
floating-point rounding against concrete evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elm import ElmNetwork, id_runs
from .geometry import Box, BoxTree
from .hybrid import HybridModel

# symmetric widening applied to network output enclosures
OUTPUT_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class Bounds:
    """Interval vector that, unlike Box, tolerates zero-width dimensions."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be 1-D vectors of equal length")
        if np.any(hi < lo):
            raise ValueError("inverted interval")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def overlaps_box(self, box: Box) -> bool:
        """Positive-measure overlap test; zero-width contact counts as empty."""
        return bool(np.all(np.minimum(self.hi, box.hi) > np.maximum(self.lo, box.lo)))


def elm_output_box(net: ElmNetwork, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Sound box enclosures of the network image of P input boxes.

    Row p of `lo`/`hi`, shape (P, n_in), is one input box; every z inside it
    has predict_batch(net, z) inside row p of the returned (P, n_out) lower
    and upper bounds. The composition affine -> ReLU -> affine is widened by
    OUTPUT_SLACK per side.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 2 or lo.shape != hi.shape or lo.shape[1] != net.n_in:
        raise ValueError(f"input bounds of shapes {lo.shape} and {hi.shape} fed to network with n_in={net.n_in}")

    def affine_image(w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # exact (tightest) interval image of each row's box under x -> w x
        at_lo = w * lo[:, None, :]
        at_hi = w * hi[:, None, :]
        return np.minimum(at_lo, at_hi).sum(axis=2), np.maximum(at_lo, at_hi).sum(axis=2)

    pre_lo, pre_hi = affine_image(net.w_in, lo, hi)
    out_lo, out_hi = affine_image(net.w_out, np.maximum(pre_lo + net.b_in, 0.0), np.maximum(pre_hi + net.b_in, 0.0))
    return out_lo - OUTPUT_SLACK, out_hi + OUTPUT_SLACK


@dataclass(frozen=True, eq=False)
class ReachPiece:
    """Contribution of one region's network to a cell's successor set."""

    region_id: int
    input: Bounds   # propagated z-box: (cell ∩ region box) x input bounds
    output: Bounds


@dataclass(frozen=True, eq=False)
class ReachResult:
    """One-step successor enclosures of cells under the hybrid model.

    Row p is one region piece: the position of its cell among the cells
    reached, the region id, its propagated z-box (cell ∩ region box, times
    the input bounds) and that box's enclosure under the region's network.
    Rows are sorted by cell, then by region box. `pieces` and `output` are
    views of the rows.
    """

    cell_ids: np.ndarray    # (P,)
    region_ids: np.ndarray  # (P,)
    in_lo: np.ndarray       # (P, n_x + n_u)
    in_hi: np.ndarray
    out_lo: np.ndarray      # (P, n_x)
    out_hi: np.ndarray

    @property
    def pieces(self) -> tuple[ReachPiece, ...]:
        return tuple(
            ReachPiece(int(r), Bounds(a, b), Bounds(c, d))
            for r, a, b, c, d in zip(self.region_ids, self.in_lo, self.in_hi, self.out_lo, self.out_hi)
        )

    @property
    def output(self) -> Bounds:
        """Hull of the piece enclosures (of one cell's, when one cell was reached)."""
        return Bounds(self.out_lo.min(axis=0), self.out_hi.max(axis=0))


def cell_successor_box(model: HybridModel, cells: Box | BoxTree) -> ReachResult:
    """Per-region reachability of cells: propagate every non-empty
    (cell ∩ region box) through that region's network.

    `cells` is one `Box`, which is one cell, or a `BoxTree` whose rows are
    the cells. The pieces of all cells come from one positive-width range
    query down the model's region-box index (`BoxTree.overlapping`), and
    each network encloses all of its pieces, over all cells, in one call.
    The regions tile the zone, so a cell inside the zone always yields at
    least one piece. An enclosure that is not finite (the network overflows
    on the piece) raises FloatingPointError naming the cell and the region,
    since dropping its edges would make the relation unsound.
    """
    cell_lo, cell_hi, cell_closed = (np.atleast_2d(a) for a in (cells.lo, cells.hi, cells.closed_hi))
    outside = ~(model.zone.contains(cell_lo) & model.zone.contains(cell_hi))  # a box is inside iff its corners are
    if outside.any():
        c = int(np.argmax(outside))
        raise ValueError(f"cell {Box(cell_lo[c], cell_hi[c], cell_closed[c])!r} must lie inside the working zone")
    cell_ids, boxes = (np.concatenate(a) for a in zip(*model.tree.overlapping(cell_lo, cell_hi)))
    order = np.lexsort((boxes, cell_ids))
    cell_ids, boxes = cell_ids[order], boxes[order]
    region_ids = model.box_owner[boxes]
    in_lo = np.maximum(cell_lo[cell_ids], model.tree.lo[boxes])
    in_hi = np.minimum(cell_hi[cell_ids], model.tree.hi[boxes])
    ib = model.zone.input_bounds
    if ib is not None:
        in_lo = np.concatenate([in_lo, np.broadcast_to(ib.lo, (in_lo.shape[0], ib.dim))], axis=1)
        in_hi = np.concatenate([in_hi, np.broadcast_to(ib.hi, (in_hi.shape[0], ib.dim))], axis=1)
    order, runs = id_runs(region_ids)
    run_lo, run_hi = in_lo[order], in_hi[order]
    out_lo = np.empty((region_ids.size, model.zone.n_x))
    out_hi = np.empty_like(out_lo)
    with np.errstate(over="ignore", invalid="ignore"):
        for rid, a, b in runs:
            rows = order[a:b]
            out_lo[rows], out_hi[rows] = elm_output_box(model.network_of(rid), run_lo[a:b], run_hi[a:b])
    finite = np.isfinite(out_lo).all(axis=1) & np.isfinite(out_hi).all(axis=1)
    if not finite.all():
        p = int(np.argmin(finite))
        c = cell_ids[p]
        raise FloatingPointError(f"reach enclosure of cell {Box(cell_lo[c], cell_hi[c], cell_closed[c])!r} "
                                 f"under region {region_ids[p]} "
                                 "is not finite: the region's network overflows on it")
    return ReachResult(cell_ids, region_ids, in_lo, in_hi, out_lo, out_hi)
