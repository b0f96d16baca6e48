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
from .geometry import Box, BoxTree, membership_matrix  # noqa: F401
from .hybrid import HybridModel
from .partition import me_partition
from .reach import cell_successor_box

TS_FORMAT_VERSION = 1


@dataclass(frozen=True, eq=False)
class TraceSet:
    """L sampled runs of up to M steps, stacked.

    Run i took `lengths[i]` steps: `states[i, k]` is its state after k steps,
    NaN past the run's end. A run that took fewer than M steps stopped
    because its next state left the zone; the out-of-zone state itself is
    not stored.
    """

    states: np.ndarray            # (L, M + 1, n_x)
    lengths: np.ndarray           # (L,)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def visited(self) -> np.ndarray:
        """Every run's in-zone states, run after run: (sum(lengths + 1), n_x)."""
        return self.states[np.arange(self.states.shape[1]) <= self.lengths[:, None]]


def sample_traces(model: HybridModel, L: int, M: int, seed: int) -> TraceSet:
    """L traces of up to M steps with uniform random initial states.

    Inputs (when the model takes any) are drawn uniformly over the input
    bounds, L of them at every step until every trace has exited. A trace
    whose successor leaves the zone stops there, after fewer than M steps. A
    step that is not finite (the model overflows on a state of the zone)
    raises FloatingPointError naming the state and its region. Stacked states
    too large to allocate raise ValueError naming their size. The inputs are
    not kept: the cells read only the states. Fully deterministic for a
    given seed.
    """
    if L < 1 or M < 1:
        raise ValueError("need L >= 1 traces and M >= 1 steps")
    omega = model.zone.omega
    n_u = model.zone.n_u
    rng = np.random.default_rng(seed)

    x = rng.uniform(omega.lo, omega.hi, size=(L, omega.dim))
    try:
        states = np.full((L, M + 1, omega.dim), np.nan)
    except MemoryError:
        need = 8 * L * (M + 1) * omega.dim
        raise ValueError(f"traces {L} x trace_length {M} need {need} bytes of stacked trace arrays, "
                         "more than can be allocated") from None
    states[:, 0] = x
    lengths = np.full(L, M)  # until a run exits
    live = np.arange(L)  # the traces still in the zone; x holds their states
    ids = model.locate_batch(x)  # and ids their regions
    ib = model.zone.input_bounds

    for t in range(M):
        if n_u > 0:
            u = rng.uniform(ib.lo, ib.hi, size=(L, n_u))[live]
        if not live.size:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = model.predict_located(x if n_u == 0 else np.concatenate([x, u], axis=1), ids)
        if not np.isfinite(nxt).all():
            bad = int(np.argmin(np.isfinite(nxt).all(axis=1)))
            raise FloatingPointError(f"model step from state {x[bad].tolist()} in region {int(ids[bad])} is not "
                                     f"finite: {nxt[bad].tolist()}")
        ids = model.locate_batch(nxt)
        inside = ids >= 0  # -1 outside the zone: the one exit test
        if not inside.all():
            lengths[live[~inside]] = t
            live, nxt, ids = live[inside], nxt[inside], ids[inside]
        states[live, t + 1] = nxt
        x = nxt

    return TraceSet(states, lengths)


def build_cells(zone: WorkingZone, traces: TraceSet, epsilon: float) -> list[Box]:
    """Cells = maximum-entropy partition of all visited states."""
    return me_partition(zone, traces.visited, epsilon).boxes


@dataclass(frozen=True, eq=False)
class TransitionSystem:
    """Finite cells over the zone plus a total boolean transition relation.

    `relation` is (N+1) x (N+1): index N is the exit sink, which only
    self-loops. Cell ids are 1-based; the sink's state id is N+1. A loaded
    system's cells must be a bisection tiling of the zone (see `BoxTree`).
    """

    zone: WorkingZone
    cells: tuple[Box, ...]
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
            "cells": [c.to_dict() for c in self.cells],
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
        cells = boxes_from_docs(member(d, "cells", "list"), zone.n_x, lambda k: f"cells[{k}]")
        relation = bit_matrix(member(d, "relation"), "relation")
        try:
            BoxTree(zone.omega, cells)  # raises, naming the cause, unless the cells tile the zone
            return cls(zone, cells, relation, d.get("initial"))
        except ValueError as exc:
            raise DataError(f"invalid transition-system document: {exc}") from None

    @classmethod
    def load(cls, path) -> TransitionSystem:
        return cls.from_dict(read_artifact(path, "relation"))


def compute_transitions(model: HybridModel, cells, initial: int | None = None) -> TransitionSystem:
    """Relation R over the cells: R(i, j) iff the one-step enclosure of cell
    i meets cell j with positive width; enclosures extending beyond the zone
    get an edge to the exit sink.

    One `cell_successor_box` call gives the region pieces of every cell,
    and each piece's enclosure is tested on its own, which drops spurious
    transitions the hull would add: a range query down the cells' `BoxTree`
    finds the cells it meets. The cells must be a bisection tiling of the
    zone, which building that tree checks (it raises ValueError naming the
    cause otherwise); a padded enclosure then always meets a cell or leaves
    the zone, so every row has a successor. An enclosure that is not finite
    raises FloatingPointError (see `cell_successor_box`).
    """
    cells = tuple(cells)
    n = len(cells)
    zone = model.zone
    tree = BoxTree(zone.omega, cells)
    reach = cell_successor_box(model, *cells)
    relation = np.zeros((n + 1, n + 1), dtype=bool)
    for pieces, hit in tree.overlapping(reach.out_lo, reach.out_hi):
        relation[reach.cell_ids[pieces], hit] = True
    # an enclosure lies in the zone iff both its corners do
    leaves = ~(zone.contains(reach.out_lo) & zone.contains(reach.out_hi))
    relation[reach.cell_ids[leaves], n] = True
    relation[n, n] = True
    return TransitionSystem(zone=zone, cells=cells, relation=relation, initial=initial)


def export_dot(ts: TransitionSystem) -> str:
    """Render the transition graph as DOT with stable row-major ordering:
    one line per edge, each source's successors in ascending order."""
    lines = ["digraph transition_system {", "  rankdir=LR;"]
    lines += [f"  Q{i} [shape=box{', peripheries=2' if ts.initial == i else ''}];" for i in range(1, ts.n_cells + 1)]
    lines.append("  EXIT [shape=doublecircle];")
    labels = np.array([ts.state_label(i) for i in range(1, ts.n_states + 1)], dtype=object)
    for label, row in zip(labels.tolist(), ts.relation):  # the relation is total: every row has a successor
        head = f"  {label} -> "
        lines.append(head + f";\n{head}".join(labels[row].tolist()) + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"
