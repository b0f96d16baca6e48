"""Transition-system abstraction of a hybrid model.

Traces sampled from the model give the state density; maximum-entropy
partitioning of the visited states gives the cells; per-cell interval
reachability gives the transition relation. An explicit exit sink absorbs
behavior that leaves the working zone, keeping the relation total.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

from .data import (DataError, WorkingZone, bit_matrix, boxes_from_docs, check_format_version, member,
                   read_artifact, write_artifact)
# membership_matrix is not called here, but the benchmark's traced run
# (pipebench/run.py) wraps this module's name for it, so the import stays
from .geometry import BoxTree, box_docs, membership_matrix  # noqa: F401
from .hybrid import HybridModel
from .partition import me_partition
from .reach import cell_successor_box

TS_FORMAT_VERSION = 1


def sample_traces(model: HybridModel, L: int, M: int, seed: int) -> np.ndarray:
    """The states that L traces of up to M steps visit, from uniform random
    initial states: an (n, n_x) array of the L start states, then each step's
    in-zone successors, in ascending run order.

    Inputs (when the model takes any) are drawn uniformly over the input
    bounds, L of them at every step until every trace has exited. A trace
    whose successor leaves the zone stops there, after fewer than M steps; the
    out-of-zone state is not kept. A step that is not finite (the model
    overflows on a state of the zone) raises FloatingPointError naming the
    state and its region. Room for L * (M + 1) states is allocated at once;
    too much to allocate raises ValueError naming its size. The inputs are
    not kept: the cells read only the states. Fully deterministic for a given
    seed.
    """
    if L < 1 or M < 1:
        raise ValueError("need L >= 1 traces and M >= 1 steps")
    omega = model.zone.omega
    n_u = model.zone.n_u
    rng = np.random.default_rng(seed)

    x = rng.uniform(omega.lo, omega.hi, size=(L, omega.dim))
    try:
        states = np.empty((L * (M + 1), omega.dim))
    except MemoryError:
        need = 8 * L * (M + 1) * omega.dim
        raise ValueError(f"traces {L} x trace_length {M} need {need} bytes of stacked trace arrays, "
                         "more than can be allocated") from None
    states[:L] = x
    n = L  # the rows of states filled so far
    live = np.arange(L)  # the runs still in the zone, each taking its row of a step's L input draws
    ids = model.locate_batch(x)  # x holds their states and ids their regions
    ib = model.zone.input_bounds

    for _ in range(M):
        if n_u > 0:
            u = rng.uniform(ib.lo, ib.hi, size=(L, n_u))[live]
        if not live.size:
            break
        nxt = model.predict_located(x if n_u == 0 else np.concatenate([x, u], axis=1), ids)
        ids = model.locate_batch(nxt)
        inside = ids >= 0  # -1 outside the zone: the one exit test
        if not inside.all():
            live, nxt, ids = live[inside], nxt[inside], ids[inside]
        states[n: n + len(nxt)] = nxt
        n += len(nxt)
        x = nxt

    return states[:n]


def build_cells(zone: WorkingZone, states: np.ndarray, epsilon: float) -> BoxTree:
    """Cells = maximum-entropy partition of the (n, n_x) visited states, as
    `sample_traces` returns them, as the `BoxTree` that indexes them."""
    return me_partition(zone, states, epsilon).boxes


@dataclass(frozen=True, eq=False)
class TransitionSystem:
    """Finite cells over the zone plus a total boolean transition relation.

    `relation` is (N+1) x (N+1): index N is the exit sink, which only
    self-loops. Cell ids are 1-based; the sink's state id is N+1. A loaded
    or computed system's cells are the `BoxTree` of a tiling of the zone.
    """

    zone: WorkingZone
    cells: BoxTree  # or any sequence of Box, which to_dict cannot write
    relation: np.ndarray
    initial: int | None = None

    def __post_init__(self):
        rel = np.asarray(self.relation, dtype=bool)
        n = len(self.cells) + 1
        if rel.shape != (n, n):
            raise ValueError(f"relation must be {n}x{n} including the exit sink, got {rel.shape}")
        if not rel.any(axis=1).all():
            raise ValueError("relation must be total: some row has no successor")
        if not rel[n - 1, n - 1] or rel[n - 1, : n - 1].any():
            raise ValueError("exit sink must have exactly a self-loop")
        rel.setflags(write=False)
        object.__setattr__(self, "relation", rel)
        if self.initial is not None:
            if isinstance(self.initial, bool) or not isinstance(self.initial, (int, np.integer)):
                raise ValueError(f"initial cell id must be an integer, got {self.initial!r}")
            if not 1 <= self.initial <= len(self.cells):
                raise ValueError(f"initial cell id {self.initial} out of range 1..{len(self.cells)}")

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_states(self) -> int:
        return len(self.cells) + 1

    @property
    def exit_id(self) -> int:
        """1-based state id of the exit sink."""
        return len(self.cells) + 1

    def state_label(self, state_id: int) -> str:
        return "EXIT" if state_id == self.exit_id else f"Q{state_id}"

    def edge_count(self) -> int:
        return int(self.relation.sum())

    def to_dict(self) -> dict:
        return {
            "format_version": TS_FORMAT_VERSION,
            "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "zone": self.zone.to_dict(),
            "cells": box_docs(self.cells.lo, self.cells.hi, self.cells.closed_hi),
            "relation": self.relation,
            "exit_sink": True,
            "initial": self.initial,
        }

    def save(self, path) -> None:
        write_artifact(path, self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> TransitionSystem:
        """Transition system from its JSON document; any defect raises DataError
        naming its key path (see `data.member`) or the invariant it breaks."""
        check_format_version(d, TS_FORMAT_VERSION, "transition-system")
        zone = WorkingZone.from_dict(member(d, "zone", "object"))
        bounds = boxes_from_docs(member(d, "cells", "list"), zone.n_x, lambda k: f"cells[{k}]")
        relation = bit_matrix(member(d, "relation"), "relation")
        try:
            return cls(zone, BoxTree(zone.omega, *bounds), relation, d.get("initial"))  # the tree names a defect
        except ValueError as exc:
            raise DataError(f"invalid transition-system document: {exc}") from None

    @classmethod
    def load(cls, path) -> TransitionSystem:
        return cls.from_dict(read_artifact(path, "relation"))


def compute_transitions(model: HybridModel, cells: BoxTree, initial: int | None = None) -> TransitionSystem:
    """Relation R over the cells: R(i, j) iff the one-step enclosure of cell
    i meets cell j with positive width; enclosures extending beyond the zone
    get an edge to the exit sink.

    One `cell_successor_box` call gives the region pieces of every cell,
    and each piece's enclosure is tested on its own, which drops spurious
    transitions the hull would add: a range query down the cells' tree
    finds the cells it meets. The cells tile the zone, so a padded enclosure
    always meets a cell or leaves the zone, and every row has a successor;
    cells over another zone raise ValueError. An enclosure that is not
    finite raises FloatingPointError (see `cell_successor_box`).
    """
    n = len(cells)
    zone = model.zone
    if cells.zone.to_dict() != zone.omega.to_dict():
        raise ValueError(f"the cells tile {cells.zone!r}, not the zone {zone.omega!r}")
    reach = cell_successor_box(model, cells)
    relation = np.zeros((n + 1, n + 1), dtype=bool)
    for pieces, hit in cells.overlapping(reach.out_lo, reach.out_hi):
        relation[reach.cell_ids[pieces], hit] = True
    # an enclosure lies in the zone iff both its corners do
    leaves = ~(zone.contains(reach.out_lo) & zone.contains(reach.out_hi))
    relation[reach.cell_ids[leaves], n] = True
    relation[n, n] = True
    return TransitionSystem(zone=zone, cells=cells, relation=relation, initial=initial)


def export_dot(ts: TransitionSystem, out) -> None:
    """Write the transition graph as DOT to the text stream `out`, with
    stable row-major ordering: one line per edge, each source's successors
    in ascending order. Each source's edge lines are written as they are
    rendered, so the whole text is never held."""
    out.write("digraph transition_system {\n  rankdir=LR;\n")
    out.writelines(f"  Q{i} [shape=box{', peripheries=2' if ts.initial == i else ''}];\n"
                   for i in range(1, ts.n_cells + 1))
    out.write("  EXIT [shape=doublecircle];\n")
    labels = np.array([ts.state_label(i) for i in range(1, ts.n_states + 1)], dtype=object)
    for label, row in zip(labels.tolist(), ts.relation):  # the relation is total: every row has a successor
        head = f"  {label} -> "
        out.write(head + f";\n{head}".join(labels[row].tolist()) + ";\n")
    out.write("}\n")
