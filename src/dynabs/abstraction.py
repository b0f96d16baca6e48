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

from .data import DataError, WorkingZone, bit_matrix, check_format_version, read_artifact, write_artifact
# membership_matrix is not called here, but the benchmark's traced run
# (pipebench/run.py) wraps this module's name for it, so the import stays
from .geometry import Box, BoxTree, boxes_from_docs, membership_matrix  # noqa: F401
from .hybrid import HybridModel
from .partition import me_partition
from .reach import cell_successor_box

TS_FORMAT_VERSION = 1


@dataclass(frozen=True, eq=False)
class TraceSet:
    """L sampled runs of up to M steps, stacked.

    Run i took `lengths[i]` steps: `states[i, k]` is its state after k steps
    and `inputs[i, k]` the input applied at step k, both NaN past the run's
    end. `exited` marks runs whose next state left the zone; the out-of-zone
    state itself is not stored.
    """

    states: np.ndarray            # (L, M + 1, n_x)
    lengths: np.ndarray           # (L,)
    exited: np.ndarray            # (L,) bool
    inputs: np.ndarray | None     # (L, M, n_u) when the model takes inputs

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def visited(self) -> np.ndarray:
        """Every run's in-zone states, run after run: (sum(lengths + 1), n_x)."""
        return self.states[np.arange(self.states.shape[1]) <= self.lengths[:, None]]


def sample_traces(model: HybridModel, L: int, M: int, seed: int) -> TraceSet:
    """L traces of up to M steps with uniform random initial states.

    Inputs (when the model takes any) are drawn uniformly over the input
    bounds at every step. A trace whose successor leaves the zone stops
    there and is marked exited. A step that is not finite (the model
    overflows on a state of the zone) raises FloatingPointError naming the
    state and its region. Fully deterministic for a given seed.
    """
    if L < 1 or M < 1:
        raise ValueError("need L >= 1 traces and M >= 1 steps")
    omega = model.zone.omega
    n_u = model.zone.n_u
    rng = np.random.default_rng(seed)

    x = rng.uniform(omega.lo, omega.hi, size=(L, omega.dim))
    states = np.full((L, M + 1, omega.dim), np.nan)
    states[:, 0] = x
    inputs = np.full((L, M, n_u), np.nan) if n_u > 0 else None
    lengths = np.zeros(L, dtype=int)
    exited = np.zeros(L, dtype=bool)
    alive = np.ones(L, dtype=bool)

    for t in range(M):
        if n_u > 0:
            ib = model.zone.input_bounds
            u = rng.uniform(ib.lo, ib.hi, size=(L, n_u))
        if not alive.any():
            break
        rows = np.nonzero(alive)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = model.step(x[rows], u[rows] if n_u > 0 else None)
        bad = np.nonzero(~np.isfinite(nxt).all(axis=1))[0]
        if bad.size:
            state = x[rows[bad[0]]]
            region = int(model.locate_batch(state)[0][0])
            raise FloatingPointError(f"model step from state {state.tolist()} in region {region} is not finite: "
                                     f"{nxt[bad[0]].tolist()}")
        inside = model.zone.contains(nxt)
        leaving = rows[~inside]
        exited[leaving] = True
        alive[leaving] = False
        staying = rows[inside]
        states[staying, t + 1] = nxt[inside]
        if n_u > 0:
            inputs[staying, t] = u[staying]
        lengths[staying] = t + 1
        x[staying] = nxt[inside]

    return TraceSet(states, lengths, exited, inputs)


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
        """Transition system from its JSON document; any defect raises DataError."""
        check_format_version(d, TS_FORMAT_VERSION, "transition-system")
        try:
            zone = WorkingZone.from_dict(d["zone"])
            if type(d["cells"]) is not list:
                raise DataError(f"key 'cells' must be a list of boxes, got {type(d['cells']).__name__}")
            cells = boxes_from_docs(d["cells"], zone.n_x, lambda k: f"cells[{k}]")
            BoxTree(zone.omega, cells)  # raises, naming the cause, unless the cells tile the zone
            return cls(zone, cells, bit_matrix(d["relation"], "relation"), d.get("initial"))
        except KeyError as exc:
            raise DataError(f"transition-system document is missing key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise DataError(f"invalid transition-system document: {exc}") from exc

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
    """Render the transition graph as DOT with stable row-major ordering."""
    lines = ["digraph transition_system {", "  rankdir=LR;"]
    for i in range(1, ts.n_cells + 1):
        attrs = ["shape=box"]
        if ts.initial == i:
            attrs.append("peripheries=2")
        lines.append(f"  Q{i} [{', '.join(attrs)}];")
    lines.append("  EXIT [shape=doublecircle];")
    labels = [ts.state_label(i) for i in range(1, ts.n_states + 1)]
    lines += [f"  {labels[i]} -> {labels[j]};" for i, j in zip(*np.nonzero(ts.relation))]
    lines.append("}")
    return "\n".join(lines) + "\n"
