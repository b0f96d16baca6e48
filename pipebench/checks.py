"""Correctness gate over the artifacts of one pipeline run.

The checks read `model.json` and `ts.json` as documents and evaluate the
model with their own code, so a fault in the program's locate, predict or
relation code cannot hide itself:

- witness: fresh traces of the model, from a seed the abstraction did not
  use, must only take transitions that are in R, and every exit from the zone
  must be an edge into EXIT;
- enclosure: Monte-Carlo points of a fixed subset of cells must map inside
  the `cell_successor_box` piece of the region that owns them;
- determinism: a digest of the artifacts with `created_utc` removed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from dataclasses import dataclass

import numpy as np

_CREATED = re.compile(rb'\n\s*"created_utc": "[^"]*",?')
_CHUNK = 1 << 20  # points x candidate boxes per membership block


def digest(*paths) -> str:
    """sha256 over the files, with each `created_utc` line removed."""
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(_CREATED.sub(b"", f.read()))
    return h.hexdigest()


class Boxes:
    """Stacked half-open boxes (closed on flagged upper faces) with a bucket
    grid, so that a point is tested only against the boxes meeting its bucket.

    The grid lines are drawn from the boxes' own lower corners, so the grid is
    fine where the boxes are small (cells crowd around the attractor)."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray, closed: np.ndarray):
        self.lo, self.hi, self.closed = lo, hi, closed
        n, d = lo.shape
        per_dim = 2 * max(1, round(n ** (1 / d)))
        self._edges = []
        for k in range(d):
            cuts = np.unique(lo[:, k])
            self._edges.append(cuts[:: max(1, len(cuts) // per_dim)])
        self._shape = np.array([len(e) for e in self._edges])
        first, last = self._bucket(lo), self._bucket(hi)
        lists: list[list[int]] = [[] for _ in range(int(np.prod(self._shape)))]
        for b in range(n):
            for cell in itertools.product(*(range(first[b, k], last[b, k] + 1) for k in range(d))):
                lists[self._flat(np.asarray(cell))].append(b)
        self._table = np.full((len(lists), max(map(len, lists))), -1)
        for k, members in enumerate(lists):
            self._table[k, : len(members)] = members

    @classmethod
    def from_docs(cls, docs) -> Boxes:
        return cls(
            np.array([d["lo"] for d in docs], dtype=float),
            np.array([d["hi"] for d in docs], dtype=float),
            np.array([d["closed_hi"] for d in docs], dtype=bool),
        )

    def __len__(self) -> int:
        return len(self.lo)

    def _bucket(self, v: np.ndarray) -> np.ndarray:
        # monotone in v, so a point inside a box lands between the box's corner buckets
        return np.stack(
            [np.clip(np.searchsorted(e, v[:, k], side="right") - 1, 0, len(e) - 1)
             for k, e in enumerate(self._edges)],
            axis=1,
        )

    def _flat(self, cells: np.ndarray) -> np.ndarray:
        return np.ravel_multi_index(tuple(np.moveaxis(cells, -1, 0)), self._shape)

    def find(self, points: np.ndarray) -> np.ndarray:
        """Index of the lowest box holding each point, -1 where none does."""
        out = np.empty(points.shape[0], dtype=int)
        step = max(1, _CHUNK // self._table.shape[1])
        for a in range(0, points.shape[0], step):
            p = points[a: a + step]
            cand = self._table[self._flat(self._bucket(p))]   # (m, width), -1 padded
            c = np.maximum(cand, 0)
            q = p[:, None, :]
            above = (q < self.hi[c]) | (self.closed[c] & (q == self.hi[c]))
            member = (cand >= 0) & np.all((self.lo[c] <= q) & above, axis=2)
            first = member.argmax(axis=1)
            out[a: a + step] = np.where(member.any(axis=1), cand[np.arange(len(p)), first], -1)
        return out


class ModelDoc:
    """The hybrid model of a `model.json`, evaluated independently of the program."""

    def __init__(self, doc: dict):
        zone = doc["zone"]
        self.omega_lo = np.asarray(zone["omega"]["lo"], dtype=float)
        self.omega_hi = np.asarray(zone["omega"]["hi"], dtype=float)
        ib = zone.get("input_bounds")
        self.input_lo = np.asarray(ib["lo"], dtype=float) if ib else None
        self.input_hi = np.asarray(ib["hi"], dtype=float) if ib else None
        self.n_x = self.omega_lo.size
        self.n_u = 0 if ib is None else self.input_lo.size
        self.boxes = Boxes.from_docs([b for r in doc["regions"] for b in r["boxes"]])
        self.owner = np.array([k for k, r in enumerate(doc["regions"]) for _ in r["boxes"]])
        self.nets = [
            (np.asarray(n["w_in"], dtype=float), np.asarray(n["b_in"], dtype=float),
             np.asarray(n["w_out"], dtype=float))
            for n in doc["networks"]
        ]

    @property
    def n_regions(self) -> int:
        return len(self.nets)

    def locate(self, x: np.ndarray) -> np.ndarray:
        """0-based region index of each in-zone state."""
        k = self.boxes.find(x)
        if np.any(k < 0):
            raise ValueError("state outside every region box")
        return self.owner[k]

    def predict(self, z: np.ndarray, regions: np.ndarray) -> np.ndarray:
        y = np.empty((z.shape[0], self.n_x))
        for r in np.unique(regions):
            rows = regions == r
            w_in, b_in, w_out = self.nets[r]
            y[rows] = np.maximum(z[rows] @ w_in.T + b_in, 0.0) @ w_out.T
        return y

    def step(self, x: np.ndarray, u: np.ndarray | None) -> np.ndarray:
        z = x if u is None else np.concatenate([x, u], axis=1)
        return self.predict(z, self.locate(x))

    def mse(self, z: np.ndarray, y: np.ndarray) -> float:
        err = self.predict(z, self.locate(z[:, : self.n_x])) - y
        return float(np.mean(np.sum(err * err, axis=1)))


@dataclass
class TsDoc:
    cells: Boxes
    relation: np.ndarray  # (N+1, N+1), the last state is the exit sink

    @classmethod
    def from_doc(cls, doc: dict) -> TsDoc:
        return cls(Boxes.from_docs(doc["cells"]), np.asarray(doc["relation"], dtype=bool))

    @property
    def n_cells(self) -> int:
        return len(self.cells)


@dataclass
class WitnessResult:
    transitions: int        # simulated one-step transitions, exits included
    edges: np.ndarray       # (k, 2) distinct simulated edges (i, j), 0-based; j = N is EXIT
    witnessed: int          # how many of them are in R
    cell_edges: int         # edges of R leaving a cell (the sink's self-loop excluded)
    missing_edges: int      # distinct simulated cell -> cell edges not in R
    missing_exits: int      # distinct cells whose simulated exit has no EXIT edge

    @property
    def fraction(self) -> float:
        return self.witnessed / self.cell_edges


def witness_check(model: ModelDoc, ts: TsDoc, traces: int, steps: int, seed: int) -> WitnessResult:
    """Roll out `traces` fresh runs of up to `steps` steps and map every
    transition onto the cells; a run stops when its successor leaves the zone."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(model.omega_lo, model.omega_hi, size=(traces, model.n_x))
    states = np.empty((traces, steps + 1, model.n_x))
    states[:, 0] = x
    length = np.zeros(traces, dtype=int)
    exited = np.zeros(traces, dtype=bool)
    alive = np.ones(traces, dtype=bool)
    for t in range(steps):
        u = rng.uniform(model.input_lo, model.input_hi, size=(traces, model.n_u)) if model.n_u else None
        if not alive.any():
            break
        rows = np.nonzero(alive)[0]
        nxt = model.step(x[rows], None if u is None else u[rows])
        inside = np.all((nxt >= model.omega_lo) & (nxt <= model.omega_hi), axis=1)
        inside &= np.isfinite(nxt).all(axis=1)
        exited[rows[~inside]] = True
        alive[rows[~inside]] = False
        stay = rows[inside]
        states[stay, t + 1] = nxt[inside]
        length[stay] = t + 1
        x[stay] = nxt[inside]

    visited = np.arange(steps + 1)[None, :] <= length[:, None]
    cell = np.full((traces, steps + 1), -1)
    cell[visited] = ts.cells.find(states[visited])
    if np.any(cell[visited] < 0):
        raise ValueError("a simulated in-zone state lies in no cell")
    pair = np.arange(steps)[None, :] < length[:, None]
    src = cell[:, :-1][pair]
    dst = cell[:, 1:][pair]
    exit_cells = np.unique(cell[exited, length[exited]])

    n = ts.n_cells
    edges = np.unique(src * (n + 1) + dst)
    in_r = ts.relation[edges // (n + 1), edges % (n + 1)]
    exit_ok = ts.relation[exit_cells, n]
    found = np.concatenate([
        np.stack([edges // (n + 1), edges % (n + 1)], axis=1),
        np.stack([exit_cells, np.full(exit_cells.size, n)], axis=1),
    ])
    return WitnessResult(
        transitions=int(src.size + exited.sum()),
        edges=found,
        witnessed=int(in_r.sum() + exit_ok.sum()),
        cell_edges=int(ts.relation[:n].sum()),
        missing_edges=int((~in_r).sum()),
        missing_exits=int((~exit_ok).sum()),
    )


@dataclass
class EnclosureResult:
    points: int
    violations: int
    width_ratios: list[float]  # per checked cell: enclosure width / sampled image width, mean over dims


def check_cells(n_cells: int, count: int) -> list[int]:
    """The fixed subset of 0-based cell indices checked by Monte Carlo."""
    return sorted(set(np.linspace(0, n_cells - 1, min(count, n_cells)).round().astype(int).tolist()))


def enclosure_check(dynabs, program_model, model: ModelDoc, ts: TsDoc, cells: list[int],
                    points: int, seed: int) -> EnclosureResult:
    """Sample each listed cell (and the input bounds), evaluate the model, and
    require every image inside the output of a `cell_successor_box` piece of
    the sample's own region whose input box holds the sample."""
    rng = np.random.default_rng(seed)
    violations = 0
    ratios = []
    for c in cells:
        lo, hi = ts.cells.lo[c], ts.cells.hi[c]
        result = dynabs.cell_successor_box(program_model, dynabs.Box(lo, hi, ts.cells.closed[c]))
        x = rng.uniform(lo, hi, size=(points, model.n_x))
        z = x
        if model.n_u:
            z = np.concatenate([x, rng.uniform(model.input_lo, model.input_hi, size=(points, model.n_u))], axis=1)
        region = model.locate(x)
        y = model.predict(z, region)
        p_region = np.array([p.region_id - 1 for p in result.pieces])
        p_in_lo = np.stack([p.input.lo for p in result.pieces])
        p_in_hi = np.stack([p.input.hi for p in result.pieces])
        p_out_lo = np.stack([p.output.lo for p in result.pieces])
        p_out_hi = np.stack([p.output.hi for p in result.pieces])
        holds = (
            (p_region[None, :] == region[:, None])
            & np.all((p_in_lo <= z[:, None]) & (z[:, None] <= p_in_hi), axis=2)
            & np.all((p_out_lo <= y[:, None]) & (y[:, None] <= p_out_hi), axis=2)
        )
        violations += int((~holds.any(axis=1)).sum())
        sampled = y.max(axis=0) - y.min(axis=0)
        ratios.append(float(np.mean((result.output.hi - result.output.lo) / sampled)))
    return EnclosureResult(points * len(cells), violations, ratios)


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)
