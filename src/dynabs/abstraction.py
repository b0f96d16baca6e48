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
from .geometry import Box, BoxTree, membership_matrix  # noqa: F401
from .hybrid import HybridModel
from .partition import me_partition
from .reach import cell_successor_box

TS_FORMAT_VERSION = 1


@dataclass(frozen=True, eq=False)
class Trace:
    """One sampled run: states inside the zone, step-aligned inputs.

    `exited` marks runs whose next state left the zone; the out-of-zone
    state itself is not stored.
    """

    states: np.ndarray            # (m + 1, n_x)
    inputs: np.ndarray | None     # (m, n_u) when the model takes inputs
    exited: bool = False

    def __len__(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True, eq=False)
class TraceSet:
    traces: tuple[Trace, ...]

    def __len__(self) -> int:
        return len(self.traces)

    @property
    def all_states(self) -> np.ndarray:
        return np.concatenate([t.states for t in self.traces])


def sample_traces(model: HybridModel, L: int, M: int, seed: int) -> TraceSet:
    """L traces of up to M steps with uniform random initial states.

    Inputs (when the model takes any) are drawn uniformly over the input
    bounds at every step. A trace whose successor leaves the zone stops
    there and is marked exited. Fully deterministic for a given seed.
    """
    if L < 1 or M < 1:
        raise ValueError("need L >= 1 traces and M >= 1 steps")
    omega = model.zone.omega
    n_u = model.zone.n_u
    rng = np.random.default_rng(seed)

    x = rng.uniform(omega.lo, omega.hi, size=(L, omega.dim))
    states = np.empty((L, M + 1, omega.dim))
    states[:, 0] = x
    inputs = np.empty((L, M, n_u)) if n_u > 0 else None
    length = np.zeros(L, dtype=int)  # steps actually taken per trace
    exited = np.zeros(L, dtype=bool)
    alive = np.ones(L, dtype=bool)

    for t in range(M):
        if n_u > 0:
            ib = model.zone.input_bounds
            u = rng.uniform(ib.lo, ib.hi, size=(L, n_u))
            inputs[:, t] = u
        if not alive.any():
            break
        rows = np.nonzero(alive)[0]
        nxt = model.step(x[rows], u[rows] if n_u > 0 else None)
        inside = np.all((nxt >= omega.lo) & (nxt <= omega.hi), axis=1)
        inside &= np.isfinite(nxt).all(axis=1)
        leaving = rows[~inside]
        exited[leaving] = True
        alive[leaving] = False
        staying = rows[inside]
        states[staying, t + 1] = nxt[inside]
        length[staying] = t + 1
        x[staying] = nxt[inside]

    traces = tuple(
        Trace(
            states=states[i, : length[i] + 1].copy(),
            inputs=inputs[i, : length[i]].copy() if n_u > 0 else None,
            exited=bool(exited[i]),
        )
        for i in range(L)
    )
    return TraceSet(traces)


def build_cells(zone: WorkingZone, traces: TraceSet, epsilon: float) -> list[Box]:
    """Cells = maximum-entropy partition of all visited states."""
    if len(traces) == 0:
        raise ValueError("trace set is empty")
    return me_partition(zone, traces.all_states, epsilon).boxes


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
            cells = tuple(Box.from_dict(c) for c in d["cells"])
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

    Each region piece of the enclosure is tested against all cells at once,
    which drops spurious transitions the hull would add. The cells must tile
    the zone: a padded enclosure then always meets a cell or leaves the zone,
    so every row has a successor. An enclosure that is not finite raises
    FloatingPointError (see `cell_successor_box`).
    """
    cells = tuple(cells)
    n = len(cells)
    omega = model.zone.omega
    cell_lo = np.stack([c.lo for c in cells])
    cell_hi = np.stack([c.hi for c in cells])
    relation = np.zeros((n + 1, n + 1), dtype=bool)
    for i, cell in enumerate(cells):
        reach = cell_successor_box(model, cell)
        out_lo = reach.out_lo[:, None, :]   # (pieces, 1, dim)
        out_hi = reach.out_hi[:, None, :]
        meets = np.all(np.minimum(out_hi, cell_hi) > np.maximum(out_lo, cell_lo), axis=2)
        relation[i, :n] = meets.any(axis=0)
        within = np.all((out_lo >= omega.lo) & (out_hi <= omega.hi), axis=2)
        relation[i, n] = not within.all()
    relation[n, n] = True
    return TransitionSystem(zone=model.zone, cells=cells, relation=relation, initial=initial)


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
