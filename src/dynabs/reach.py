"""Interval over-approximation of network images.

Bound propagation through a single affine layer is exact interval arithmetic
and ReLU is monotone, so pushing a box through affine -> ReLU -> affine gives
a sound box enclosure of the network's image. Enclosures may collapse to zero
width (constant networks, point inputs), so they are represented by a relaxed
`Bounds` type rather than the strictly-positive `Box` used for partitions;
final network enclosures carry a small symmetric slack that absorbs
floating-point rounding against concrete evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import Box

if TYPE_CHECKING:
    from .elm import ElmNetwork
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

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @classmethod
    def from_box(cls, b: Box) -> Bounds:
        return cls(b.lo, b.hi)

    def pad(self, slack: float) -> Bounds:
        return Bounds(self.lo - slack, self.hi + slack)

    def hull(self, other: Bounds) -> Bounds:
        return Bounds(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def overlaps_box(self, box: Box) -> bool:
        """Positive-measure overlap test; zero-width contact counts as empty."""
        return bool(np.all(np.minimum(self.hi, box.hi) > np.maximum(self.lo, box.lo)))

    def within(self, box: Box) -> bool:
        return bool(np.all((self.lo >= box.lo) & (self.hi <= box.hi)))


def as_bounds(b) -> Bounds:
    return Bounds.from_box(b) if isinstance(b, Box) else b


def affine_image_box(weights: np.ndarray, bias, box) -> Bounds:
    """Exact (tightest) interval image of a box under x -> W x + b."""
    w = np.asarray(weights, dtype=float)
    b = as_bounds(box)
    if w.ndim != 2 or w.shape[1] != b.dim:
        raise ValueError(f"weights of shape {w.shape} applied to box of dimension {b.dim}")
    bias = np.zeros(w.shape[0]) if bias is None else np.asarray(bias, dtype=float)
    if bias.shape != (w.shape[0],):
        raise ValueError(f"bias of shape {bias.shape} does not match {w.shape[0]} output rows")
    at_lo = w * b.lo
    at_hi = w * b.hi
    return Bounds(
        np.minimum(at_lo, at_hi).sum(axis=1) + bias,
        np.maximum(at_lo, at_hi).sum(axis=1) + bias,
    )


def relu_image_box(box) -> Bounds:
    """Componentwise [max(0, lo), max(0, hi)]; exact since ReLU is monotone."""
    b = as_bounds(box)
    return Bounds(np.maximum(b.lo, 0.0), np.maximum(b.hi, 0.0))


def elm_output_box(net: ElmNetwork, box, slack: float = OUTPUT_SLACK) -> Bounds:
    """Sound box enclosure of the network image of an input box.

    Every input row z inside the box has predict_batch(net, z) inside the result;
    the composition affine -> ReLU -> affine is widened by `slack` per side.
    """
    b = as_bounds(box)
    if b.dim != net.n_in:
        raise ValueError(f"input box of dimension {b.dim} fed to network with n_in={net.n_in}")
    pre = affine_image_box(net.w_in, net.b_in, b)
    hid = relu_image_box(pre)
    out = affine_image_box(net.w_out, None, hid)
    return out.pad(slack)


@dataclass(frozen=True, eq=False)
class ReachPiece:
    """Contribution of one region's network to a cell's successor set."""

    region_id: int
    input: Bounds   # propagated z-box: (cell ∩ region box) x input bounds
    output: Bounds


@dataclass(frozen=True, eq=False)
class ReachResult:
    """One-step successor enclosure of a cell under the hybrid model."""

    output: Bounds
    pieces: tuple[ReachPiece, ...]


def cell_successor_box(model: HybridModel, cell: Box, input_bounds: Box | None = None) -> ReachResult:
    """Per-region reachability of one cell: propagate every non-empty
    (cell ∩ region box) through that region's network and take the hull.

    The cell meets all region boxes at once, over the stacked bounds of the
    model's index; pieces come in region-box order. The regions tile the
    zone, so a cell inside the zone always yields at least one piece.
    """
    omega = model.zone.omega
    if np.any(cell.lo < omega.lo) or np.any(cell.hi > omega.hi):
        raise ValueError("cell must lie inside the working zone")
    if input_bounds is None:
        input_bounds = model.zone.input_bounds
    lo = np.maximum(cell.lo, model.tree.lo)
    hi = np.minimum(cell.hi, model.tree.hi)
    pieces: list[ReachPiece] = []
    output: Bounds | None = None
    for k in np.nonzero(np.all(hi > lo, axis=1))[0]:  # zero-width overlap is empty
        if input_bounds is not None:
            z = Bounds(
                np.concatenate([lo[k], input_bounds.lo]),
                np.concatenate([hi[k], input_bounds.hi]),
            )
        else:
            z = Bounds(lo[k], hi[k])
        region_id = int(model.box_owner[k])
        out = elm_output_box(model.network_of(region_id), z)
        pieces.append(ReachPiece(region_id, z, out))
        output = out if output is None else output.hull(out)
    if output is None:
        raise ValueError("cell intersects no region; region coverage is broken")
    return ReachResult(output, tuple(pieces))

