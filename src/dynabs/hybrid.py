"""Neural hybrid system: per-region networks selected by state location.

Built from a maximum-entropy partition by merging redundant partitions (one
network fitted on the pooled data of a candidate pair must reach the MSE
threshold gamma); each surviving region keeps the network its merge tests
solved. The model steps as x(k+1) = net[region(x(k))](x(k), u(k)).
"""

from __future__ import annotations

import datetime
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .data import (DataError, Dataset, WorkingZone, boxes_from_docs, check_format_version, member, objects,
                   read_artifact, write_artifact)
# fit_output_weights and membership_matrix are not called here, but the
# benchmark's traced run (pipebench/run.py) wraps this module's names for them,
# so the imports stay
from .elm import STACK_BYTES, ElmNetwork, ReadoutStats, RowSets, init_elm, predict_batch
from .elm import fit_output_weights  # noqa: F401
from .geometry import Box, BoxTree, Walk, membership_matrix  # noqa: F401
from .partition import PartitionSet

MODEL_FORMAT_VERSION = 1
# pair tests in the first window of a run of the merge sweep; later windows double
FIRST_WINDOW = 8


def derive_seed(*parts: int) -> int:
    """Deterministic child seed from a tuple of non-negative integers."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True, eq=False)
class Region:
    """Union of disjoint boxes owning one network; ids are dense from 1."""

    id: int
    boxes: tuple[Box, ...]


@dataclass
class MergeStats:
    """Bookkeeping from merge_and_learn; not part of the serialized model."""

    pair_tests: int = 0
    merges: int = 0
    fit_seconds: list[float] = field(default_factory=list)  # each region's readout solve, 0 for an empty one

    @property
    def total_fit_seconds(self) -> float:
        return float(sum(self.fit_seconds))


@dataclass(frozen=True, eq=False)
class SimResult:
    states: np.ndarray              # (steps_taken + 1, n_x)
    out_of_zone_steps: list[int]    # trace positions whose state left the zone
    truncated: bool = False
    message: str | None = None


@dataclass(frozen=True, eq=False)
class HybridModel:
    zone: WorkingZone
    regions: tuple[Region, ...]
    networks: tuple[ElmNetwork, ...]
    gamma: float
    epsilon: float
    stats: MergeStats | None = field(default=None, repr=False)
    # index over every region box, in region order; built once per model
    tree: BoxTree = field(init=False, repr=False)
    box_owner: np.ndarray = field(init=False, repr=False)  # region id of each indexed box
    region_walk: Walk = field(init=False, repr=False)      # the tree's descent to a state's region

    def __post_init__(self):
        if len(self.regions) != len(self.networks):
            raise ValueError("one network per region required")
        for k, r in enumerate(self.regions, start=1):
            if r.id != k:
                raise ValueError(f"region ids must be dense from 1, got {r.id} at position {k}")
        # each network maps [x; u] to x: a wrong width would broadcast or fail only when stepped
        n_x, n_in = self.zone.n_x, self.zone.n_x + self.zone.n_u
        for k, net in enumerate(self.networks):
            if net.n_in != n_in:
                raise ValueError(f"networks[{k}].w_in has {net.n_in} columns, expected n_x + n_u = {n_in}")
            if net.n_out != n_x:
                raise ValueError(f"networks[{k}].w_out has {net.n_out} rows, expected n_x = {n_x}")
        boxes = [b for r in self.regions for b in r.boxes]
        object.__setattr__(self, "tree", BoxTree(self.zone.omega, boxes))
        object.__setattr__(self, "box_owner", np.array([r.id for r in self.regions for _ in r.boxes]))
        object.__setattr__(self, "region_walk", self.tree.walk(self.box_owner))

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def network_of(self, region_id: int) -> ElmNetwork:
        return self.networks[region_id - 1]

    def locate_batch(self, states: np.ndarray) -> np.ndarray:
        """Region id of each state row, -1 for a row outside the zone.

        The tree walk stops at the first subtree whose boxes all belong to
        one region.
        """
        return self.tree.locate(states, self.region_walk)

    def predict_located(self, z: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Batch step for pre-located samples: row i of z through the network
        of region ids[i].

        Each network runs once, on the contiguous run of its rows in a stable
        sort by id, which holds them in their order in z: every row gets the
        bits `predict_batch` gives the rows of its region alone.
        """
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if np.shape(ids) != z.shape[:1]:
            raise ValueError(f"{np.shape(ids)} region ids for {z.shape[0]} rows")
        order, runs = id_runs(ids)
        if runs and not 1 <= runs[0][0] <= runs[-1][0] <= self.n_regions:
            bad = runs[0][0] if runs[0][0] < 1 else runs[-1][0]
            raise ValueError(f"region id {bad} outside 1..{self.n_regions}")
        zs = z[order]
        out = np.empty((z.shape[0], self.zone.n_x))
        for rid, a, b in runs:
            out[order[a:b]] = predict_batch(self.network_of(rid), zs[a:b])
        return out

    def step(self, states: np.ndarray, inputs: np.ndarray | None = None) -> np.ndarray:
        """One step of x(k+1) = net[region(x(k))]([x(k); u(k)]) for each state
        row; a row outside the zone steps through the region nearest to it by
        L-infinity distance, ties to the lowest id."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        z = states if inputs is None else np.concatenate([states, np.atleast_2d(inputs)], axis=1)
        ids = self.locate_batch(states)
        out = ids < 0
        if out.any():
            x, lo, hi = states[out], self.tree.lo, self.tree.hi
            gap = np.zeros((x.shape[0], lo.shape[0]))  # to every box, one dimension at a time
            for j in range(x.shape[1]):
                np.maximum(gap, np.maximum(lo[:, j] - x[:, j, None], x[:, j, None] - hi[:, j]), out=gap)
            # boxes are in region order, so the first nearest box has the lowest id
            ids[out] = self.box_owner[np.argmin(gap, axis=1)]
        return self.predict_located(z, ids)

    def simulate(self, x0, inputs=None, steps: int = 0) -> SimResult:
        """Iterate the model for `steps` steps from x0, one `step` call each.

        Out-of-zone states are flagged (the nearest-region fallback of `step`
        keeps the trajectory going); a non-finite state truncates the trace. A
        non-finite x0 raises ValueError naming the coordinate.
        """
        if steps < 0:
            raise ValueError("steps must be >= 0")
        x = np.asarray(x0, dtype=float)
        bad = np.nonzero(~np.isfinite(x))[0]
        if bad.size:
            raise ValueError(f"start state coordinate {int(bad[0])} is {float(x[bad[0]])!r}, not finite")
        n_u = self.zone.n_u
        if n_u > 0:
            if inputs is None:
                raise ValueError("model takes external inputs; provide an input sequence")
            inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
            if inputs.shape[0] < steps:
                raise ValueError(f"need {steps} input vectors, got {inputs.shape[0]}")
        trace = [x]
        message = None
        for t in range(steps):
            with np.errstate(over="ignore", invalid="ignore"):
                x = self.step(x, inputs[t] if n_u > 0 else None)[0]
            if not np.all(np.isfinite(x)):
                message = f"non-finite state produced at step {t + 1}"
                break
            trace.append(x)
        states = np.asarray(trace)
        out = np.flatnonzero(self.locate_batch(states) < 0).tolist()
        return SimResult(states, out, truncated=message is not None, message=message)

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "zone": self.zone.to_dict(),
            "epsilon": self.epsilon,
            "gamma": self.gamma,
            "regions": [
                {"id": r.id, "boxes": [b.to_dict() for b in r.boxes]} for r in self.regions
            ],
            "networks": [net.to_dict() for net in self.networks],
        }

    def save(self, path) -> None:
        write_artifact(path, self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> HybridModel:
        """Model from its JSON document; any defect raises DataError naming
        its key path (see `data.member`) or the invariant it breaks."""
        check_format_version(d, MODEL_FORMAT_VERSION, "model")
        zone = WorkingZone.from_dict(member(d, "zone", "object"))
        regions = tuple(
            Region(member(r, "id", "integer", path),
                   boxes_from_docs(member(r, "boxes", "list", path), zone.n_x, lambda k: f"{path}.boxes[{k}]"))
            for path, r in objects(d, "regions")
        )
        networks = tuple(ElmNetwork.from_dict(net, path) for path, net in objects(d, "networks"))
        gamma, epsilon = (float(member(d, key, "number")) for key in ("gamma", "epsilon"))
        try:
            return cls(zone=zone, regions=regions, networks=networks, gamma=gamma, epsilon=epsilon)
        except ValueError as exc:
            raise DataError(f"invalid model document: {exc}") from None

    @classmethod
    def load(cls, path) -> HybridModel:
        return cls.from_dict(read_artifact(path))


def id_runs(ids) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Stable sort order of the 1-D integer `ids` and (id, start, stop) of
    each run of one id in that order, ids ascending: `order[start:stop]` are
    the rows of the id, in ascending order."""
    ids = np.asarray(ids)
    order = np.argsort(ids, kind="stable")
    run_ids = ids[order]
    bounds = [0, *(np.flatnonzero(run_ids[1:] != run_ids[:-1]) + 1).tolist(), ids.size]
    return order, [(int(run_ids[a]), a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def hybrid_mse(model: HybridModel, data: Dataset) -> float:
    """MSE of the switched model over a dataset: (1/n) sum ||step(z) - y||^2."""
    err = model.step(data.states, data.inputs if data.n_u else None) - data.y
    return float(np.mean(np.sum(err * err, axis=1)))


def merge_and_learn(
    parts: PartitionSet,
    data: Dataset,
    hidden_count: int,
    seed: int,
    gamma: float,
) -> HybridModel:
    """Merge redundant partitions by the pooled-MSE test and give each
    surviving region its network.

    The sweep is sequential in its semantics: the outer index N walks regions
    in ascending order and draws one candidate hidden layer per row (seed
    derived from (seed, N)); each candidate n > N is tested by the training
    MSE of that layer's ridge readout on the pooled data, computed from the
    additive statistics of region N and region n (ReadoutStats). On success
    the candidate is absorbed into N, indices compact, and the sweep
    continues with the merged region. The tests are evaluated in batches
    (see `merge_sweep`) that take exactly these decisions. Region i keeps the
    layer of seed (seed, i) and the readout `ReadoutStats.readout` solves
    from its final statistics, without reading its rows again: for a region
    that absorbed a candidate, that is bit for bit the network its last
    accepted test certified. A region without samples keeps the zero map,
    with a RuntimeWarning; a singular readout solve raises FloatingPointError
    naming the region. `stats.fit_seconds` times each region's solve.
    """
    if not gamma >= 0:  # NaN fails too
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    n_in = data.n_x + data.n_u
    stats = MergeStats()

    def layer(i: int) -> ElmNetwork:
        return init_elm(n_in, data.n_x, hidden_count, derive_seed(seed, i))

    regions = merge_sweep(parts, data, layer, gamma, stats)

    def fit(i: int, pool: ReadoutStats) -> ElmNetwork:
        net = layer(i)
        if pool.rows[0] == 0:
            warnings.warn(
                f"region {i + 1} has no samples; its network is the zero map",
                RuntimeWarning,
                stacklevel=2,
            )
            stats.fit_seconds.append(0.0)
            return net
        t0 = time.perf_counter()
        try:
            w_t = pool.readout()[0]
        except np.linalg.LinAlgError as exc:
            raise FloatingPointError(f"readout solve of region {i + 1} ({int(pool.rows[0])} samples, first box "
                                     f"{regions[i][0][0]!r}) is singular ({exc})") from exc
        stats.fit_seconds.append(time.perf_counter() - t0)
        return replace(net, w_out=w_t.T)

    networks = [fit(i, pool) for i, (_, pool) in enumerate(regions)]

    return HybridModel(
        zone=parts.zone,
        regions=tuple(
            Region(i + 1, tuple(boxes)) for i, (boxes, _) in enumerate(regions)
        ),
        networks=tuple(networks),
        gamma=float(gamma),
        epsilon=float(parts.epsilon),
        stats=stats,
    )


def merge_sweep(
    parts: PartitionSet,
    data: Dataset,
    layer: Callable[[int], ElmNetwork],
    gamma: float,
    stats: MergeStats,
) -> list[tuple[list[Box], ReadoutStats]]:
    """The merge decisions of merge_and_learn, with row N's tests run under
    `layer(N)`: the boxes of each region in order with its final one-entry
    statistics under `layer(N)` (the pool of its last accepted test, or its
    own if it absorbed nothing), and the tests and merges counted in `stats`.

    Row N's candidates are the partitions after it, none of which has
    absorbed anything, so their statistics come from `ReadoutStats.of` in
    stacked chunks of at most STACK_BYTES. The tests run in windows of
    consecutive candidates, one stacked solve per window. While the row
    rejects, every candidate is pooled with the fixed row; while it accepts,
    the pools are the running sums from the row's statistics, added in the
    order the one-at-a-time sweep adds them. A window keeps its results up to
    the first test that breaks the run, and the mode flips there; it starts
    at FIRST_WINDOW tests and doubles while the run holds. A window whose
    solve raises is re-run one test at a time, so a singular pooled solve
    raises FloatingPointError at the test where the one-at-a-time sweep
    (`tests/oracles.py:sequential_merge`) raises it.
    """
    assignments = [np.asarray(idx, dtype=int) for idx in parts.assignments]
    regions = list(range(len(assignments)))  # partition ids; a region's first id is its row
    merged: list[tuple[list[int], ReadoutStats]] = []  # partition ids and statistics of each finished region

    def window(ids: np.ndarray, cand: ReadoutStats) -> int:
        """Test the candidate partitions `ids`, of statistics `cand`, in the
        current mode; apply the results up to the first test that breaks the
        run and return how many candidates that is. A singular solve raises
        LinAlgError from several tests, FloatingPointError from one."""
        nonlocal row, accepting, width
        pools = cand.running(row) if accepting else row + cand
        tested = pools.rows > 0  # a pool without rows is skipped, not tested
        accept = np.zeros(len(cand), dtype=bool)
        if tested.any():
            try:
                accept[tested] = (pools if tested.all() else pools[tested]).ridge_mse() <= gamma
            except np.linalg.LinAlgError as exc:
                if len(ids) > 1:
                    raise
                raise FloatingPointError(f"pooled readout solve of partition {parts.boxes[ids[0]]!r} with the region "
                                         f"of partition {parts.boxes[members[0]]!r} is singular ({exc})") from exc
        breaks = np.flatnonzero(accept != accepting)
        k = int(breaks[0]) if breaks.size else len(cand)
        used = min(k + 1, len(cand))
        absorbed = slice(0, k) if accepting else slice(k, used)
        took = ids[absorbed]
        stats.pair_tests += int(np.count_nonzero(tested[:used]))
        stats.merges += took.size
        if took.size:
            row = pools[absorbed.stop - 1]
        members.extend(took.tolist())
        kept.extend(np.delete(ids[:used], absorbed).tolist())
        if breaks.size:
            accepting, width = not accepting, FIRST_WINDOW
        else:
            width *= 2
        return used

    # Huge finite data overflow the statistics to inf or nan. A pool with such
    # statistics fails its test (its MSE is not <= gamma), and a partition
    # with them raises when its turn as row N comes, at the latest.
    with np.errstate(over="ignore", invalid="ignore"):
        sets = RowSets(data.z, data.y, assignments)
        while regions:
            members, candidates, kept = regions[:1], np.array(regions[1:], dtype=int), []
            net = layer(len(merged))
            row = ReadoutStats.of(net, sets, members)
            if not (np.isfinite(row.hh).all() and np.isfinite(row.hy).all() and np.isfinite(row.yy).all()):
                # row N has absorbed nothing yet, so it is still one partition
                raise FloatingPointError(f"H^T H, H^T Y or sum Y^2 of partition {parts.boxes[members[0]]!r} "
                                         "is not finite: the data overflow the fit")
            accepting, width = False, FIRST_WINDOW
            chunk = max(1, STACK_BYTES // (8 * net.hidden_count * (net.hidden_count + net.n_out)))
            for start in range(0, candidates.size, chunk):
                block = candidates[start:start + chunk]
                cand = ReadoutStats.of(net, sets, block)
                i = 0
                while i < block.size:
                    j = min(block.size, i + width)
                    try:
                        i += window(block[i:j], cand[i:j])
                    except np.linalg.LinAlgError:  # only a window of several tests lets it through
                        for _ in range(j - i):  # a one-test window tests exactly one candidate
                            i += window(block[i:i + 1], cand[i:i + 1])
            # a copy: an absorbed pool is a view into its window's stacked pools
            merged.append((members, ReadoutStats(row.hh.copy(), row.hy.copy(), row.yy.copy(), row.rows.copy())))
            regions = kept
    return [([parts.boxes[i] for i in ids], pool) for ids, pool in merged]
