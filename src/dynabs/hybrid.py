"""Neural hybrid system: per-region networks selected by state location.

Built from a maximum-entropy partition by merging redundant partitions (one
network fitted on the pooled data of a candidate pair must reach the MSE
threshold gamma); each surviving region keeps the network its merge tests
solved. The model steps as x(k+1) = net[region(x(k))](x(k), u(k)) on the zone
only: `step` raises on a state outside it, and `rollout` drops a run there.
"""

from __future__ import annotations

import datetime
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from .data import (DataError, Dataset, WorkingZone, boxes_from_docs, check_format_version, member, objects,
                   read_artifact, write_artifact)
# fit_output_weights and membership_matrix are not called here, but the
# benchmark's traced run (pipebench/run.py) wraps this module's names for them,
# so the imports stay
from .elm import GATHER_SHARE, ElmNetwork, ReadoutStats, RowSets, id_runs, init_elm, mean_squared_error, predict_batch
from .elm import fit_output_weights  # noqa: F401
from .geometry import BoxTree, Walk, blocks, box_docs, membership_matrix  # noqa: F401
from .partition import PartitionSet

MODEL_FORMAT_VERSION = 1
# pair tests in the first window of a run of the merge sweep; later windows double
FIRST_WINDOW = 8


def derive_seed(*parts: int) -> int:
    """Deterministic child seed from a tuple of non-negative integers."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


@dataclass
class MergeStats:
    """Bookkeeping from merge_and_learn; not part of the serialized model."""

    pair_tests: int = 0
    merges: int = 0
    fit_seconds: list[float] = field(default_factory=list)  # each region's readout solve
    rows: list[int] = field(default_factory=list)  # samples of each region
    mse: list[float] = field(default_factory=list)  # training MSE of each region's readout

    @property
    def total_fit_seconds(self) -> float:
        return float(sum(self.fit_seconds))


@dataclass(frozen=True, eq=False)
class SimResult:
    states: np.ndarray              # (steps_taken + 1, n_x)
    exited_at: int | None = None    # step whose state, kept as the last row, left the zone


@dataclass(frozen=True, eq=False)
class HybridModel:
    zone: WorkingZone
    tree: BoxTree = field(repr=False)          # every region box, one tiling of the zone
    box_owner: np.ndarray = field(repr=False)  # region id of each box of the tree, whose network is networks[id - 1]
    networks: tuple[ElmNetwork, ...]
    gamma: float
    epsilon: float
    stats: MergeStats | None = field(default=None, repr=False)
    region_walk: Walk = field(init=False, repr=False)  # the tree's descent to a state's region

    def __post_init__(self):
        # each network maps [x; u] to x: a wrong width would broadcast or fail only when stepped
        n_x, n_in = self.zone.n_x, self.zone.n_x + self.zone.n_u
        for k, net in enumerate(self.networks):
            if net.n_in != n_in:
                raise ValueError(f"networks[{k}].w_in has {net.n_in} columns, expected n_x + n_u = {n_in}")
            if net.n_out != n_x:
                raise ValueError(f"networks[{k}].w_out has {net.n_out} rows, expected n_x = {n_x}")
        if self.tree.zone.to_dict() != self.zone.omega.to_dict():
            raise ValueError(f"the region boxes tile {self.tree.zone!r}, not the zone {self.zone.omega!r}")
        owner = np.asarray(self.box_owner)
        if (owner.shape != (len(self.tree),) or owner.dtype.kind not in "iu"
                or not 1 <= owner.min() <= owner.max() <= len(self.networks)):
            raise ValueError(f"box_owner needs {len(self.tree)} region ids in 1..{len(self.networks)}, one per box")
        object.__setattr__(self, "box_owner", owner.astype(np.intp))  # a copy of the caller's ids
        idle = np.flatnonzero(np.bincount(self.box_owner, minlength=len(self.networks) + 1)[1:] == 0)
        if idle.size:  # its network could never run
            raise ValueError(f"region {int(idle[0]) + 1} owns no box")
        object.__setattr__(self, "region_walk", self.tree.walk(self.box_owner))

    @property
    def n_regions(self) -> int:
        return len(self.networks)

    def network_of(self, region_id: int) -> ElmNetwork:
        return self.networks[region_id - 1]

    def locate_batch(self, states: np.ndarray) -> np.ndarray:
        """Region id of each state row, -1 for a row outside the zone.

        The tree walk stops at the first subtree whose boxes all belong to
        one region.
        """
        return self.tree.locate(states, self.region_walk)

    def region_blocks(self, ids, unit_bytes: int) -> tuple[np.ndarray, list[tuple[ElmNetwork, int, int]]]:
        """The one walk of rows by region: the stable sort order of the
        region ids `ids`, and one (network, i, j) span per block of each
        region's rows in that order, regions ascending, where `order[i:j]`
        are rows of the region whose network that is. A row takes
        `unit_bytes` per hidden unit of its network from `geometry.blocks`.
        An id outside 1..n_regions raises ValueError naming it.
        """
        order, runs = id_runs(ids)
        if runs and not 1 <= runs[0][0] <= runs[-1][0] <= self.n_regions:
            bad = runs[0][0] if runs[0][0] < 1 else runs[-1][0]
            raise ValueError(f"region id {bad} outside 1..{self.n_regions}")
        spans = []
        for rid, a, b in runs:
            net = self.network_of(rid)
            for i, j in blocks(a, b, unit_bytes * net.hidden_count):
                spans.append((net, i, j))
        return order, spans

    def predict_located(self, z: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Batch step for pre-located samples: row i of z through the network
        of region ids[i].

        Each network runs on the run of its rows in a stable sort by id, in
        pieces of one block of activations (`region_blocks`). Since
        `predict_batch` gives a row the bits it gets inside any batch, every
        row gets the bits `predict_batch` gives the rows of its region alone.
        A step that is not finite raises FloatingPointError naming its row's
        state, input (if the model takes one) and region.
        """
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if np.shape(ids) != z.shape[:1]:
            raise ValueError(f"{np.shape(ids)} region ids for {z.shape[0]} rows")
        order, spans = self.region_blocks(ids, 8)
        zs = z[order]
        n_x = self.zone.n_x
        out = np.empty((z.shape[0], n_x))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below, naming its row
            for net, i, j in spans:
                out[order[i:j]] = predict_batch(net, zs[i:j])
        if not np.isfinite(out).all():
            bad = int(np.argmin(np.isfinite(out).all(axis=1)))
            given = f" with input {z[bad, n_x:].tolist()}" if self.zone.n_u else ""
            raise FloatingPointError(f"model step from state {z[bad, :n_x].tolist()}{given} in region "
                                     f"{int(ids[bad])} is not finite: {out[bad].tolist()}")
        return out

    def step(self, states: np.ndarray, inputs: np.ndarray | None = None) -> np.ndarray:
        """One step of x(k+1) = net[region(x(k))]([x(k); u(k)]) for each state
        row. A row outside the zone, where `locate_batch` gives -1 (a row
        holding NaN or an infinity among them), raises ValueError naming it,
        and a step that is not finite FloatingPointError (`predict_located`)."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        z = states if inputs is None else np.concatenate([states, np.atleast_2d(inputs)], axis=1)
        ids = self.locate_batch(states)
        if (ids < 0).any():
            k = int(np.flatnonzero(ids < 0)[0])
            raise ValueError(f"state row {k} {states[k].tolist()} lies outside the zone {self.zone.omega!r}")
        return self.predict_located(z, ids)

    def rollout(self, x: np.ndarray, inputs: Iterable[np.ndarray | None]) -> Iterator[tuple[np.ndarray, ...]]:
        """Step the (L, n_x) zone states x once per entry of `inputs`: that
        step's (L, n_u) draw, row i for run i, or None without inputs. Each
        step yields (live, nxt, inside): the ascending positions of the runs
        still in the zone, their successors, and which of those lie in the
        zone. The runs that left are then dropped; once none is left the
        rollout ends, reading no further entry."""
        ids = self.locate_batch(x)
        live = np.arange(len(x))
        for u in inputs:
            nxt = self.predict_located(x if u is None else np.concatenate([x, u[live]], axis=1), ids)
            ids = self.locate_batch(nxt)
            inside = ids >= 0  # -1 outside the zone: the one exit test
            yield live, nxt, inside
            x = nxt
            if not inside.all():  # a step where every run stays re-indexes nothing
                live, x, ids = live[inside], x[inside], ids[inside]
                if not live.size:
                    return

    def simulate(self, x0, inputs=None, steps: int = 0) -> SimResult:
        """Iterate the model for up to `steps` steps from x0, step t taking row
        t of `inputs`, of shape (>= steps, n_u) when the model takes inputs
        (another shape raises ValueError naming this one): one run of `rollout`.

        The run ends at the first state outside the zone, which it keeps
        (`exited_at`). A step that is not finite raises FloatingPointError
        naming its state and region. An x0 that is not one point of the zone
        (another shape, a non-finite entry or a point outside it) raises
        ValueError naming it.
        """
        if steps < 0:
            raise ValueError("steps must be >= 0")
        x = np.asarray(x0, dtype=float)
        if x.shape != (self.zone.n_x,) or self.locate_batch(x[None])[0] < 0:
            raise ValueError(f"start state {x.tolist()} lies outside the zone {self.zone.omega!r}")
        n_u = self.zone.n_u
        if n_u > 0:
            if inputs is None:
                raise ValueError("model takes external inputs; provide an input sequence")
            inputs = np.asarray(inputs, dtype=float)
            if inputs.ndim != 2 or inputs.shape[0] < steps or inputs.shape[1] != n_u:
                raise ValueError(f"need inputs of shape (>= {steps}, {n_u}), got {inputs.shape}")
        trace, inside = [x], [True]  # no step taken, no exit
        for _, nxt, inside in self.rollout(x[None], inputs[:steps, None] if n_u else [None] * steps):
            trace.append(nxt[0])
        return SimResult(np.asarray(trace), None if inside[0] else len(trace) - 1)  # the rollout ends on an exit

    def to_dict(self) -> dict:
        docs = box_docs(self.tree.lo, self.tree.hi, self.tree.closed_hi)
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "zone": self.zone.to_dict(),
            "epsilon": self.epsilon,
            "gamma": self.gamma,
            "regions": [
                {"id": i, "boxes": [docs[k] for k in np.flatnonzero(self.box_owner == i)]}
                for i in range(1, self.n_regions + 1)
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
        regions = [(member(r, "id", "integer", path), member(r, "boxes", "list", path))
                   for path, r in objects(d, "regions")]
        owner = np.repeat(np.arange(1, len(regions) + 1), [len(boxes) for _, boxes in regions])  # by position

        def name(k: int) -> str:  # a box is named by its place in the document
            return f"regions[{owner[k] - 1}].boxes[{k - np.searchsorted(owner, owner[k])}]"

        bounds = boxes_from_docs([b for _, boxes in regions for b in boxes], zone.n_x, name)
        networks = tuple(ElmNetwork.from_dict(net, path) for path, net in objects(d, "networks"))
        gamma, epsilon = (float(member(d, key, "number")) for key in ("gamma", "epsilon"))
        if len(regions) != len(networks):
            raise DataError("invalid model document: one network per region required")
        for k, (i, _) in enumerate(regions, start=1):
            if i != k:
                raise DataError(f"invalid model document: region ids must be dense from 1, got {i} at position {k}")
        try:
            return cls(zone, BoxTree(zone.omega, *bounds, name), owner, networks, gamma, epsilon)
        except ValueError as exc:
            raise DataError(f"invalid model document: {exc}") from None

    @classmethod
    def load(cls, path) -> HybridModel:
        return cls.from_dict(read_artifact(path))


def hybrid_mse(model: HybridModel, data: Dataset) -> float:
    """MSE of the switched model over a dataset (see `elm.mean_squared_error`)."""
    return mean_squared_error(model.step(data.states, data.inputs if data.n_u else None), data.y)


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
    layer its tests ran under and the readout `ReadoutStats.readout` solves
    from its final statistics, without reading its rows again: for a region
    that absorbed a candidate, that is bit for bit the network its last
    accepted test certified. A partition without samples, which `me_partition`
    never makes, raises ValueError naming it before any test; a singular
    readout solve raises FloatingPointError naming the region.
    `stats.fit_seconds` times each region's solve, and `stats.rows` and
    `stats.mse` give its samples and the training MSE of its readout, from
    the same statistics: no sample is stepped.
    """
    if not gamma >= 0:  # NaN fails too
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    sizes = [len(a) for a in parts.assignments]
    if 0 in sizes:
        raise ValueError(f"partition {parts.boxes[sizes.index(0)]!r} holds no samples")
    n_in = data.n_x + data.n_u
    stats = MergeStats()

    def layer(i: int) -> ElmNetwork:
        return init_elm(n_in, data.n_x, hidden_count, derive_seed(seed, i))

    regions = merge_sweep(parts, data, layer, gamma, stats)

    def fit(i: int, net: ElmNetwork, pool: ReadoutStats) -> ElmNetwork:
        stats.rows.append(int(pool.rows[0]))
        t0 = time.perf_counter()
        try:
            w_t = pool.readout()
        except np.linalg.LinAlgError as exc:
            raise FloatingPointError(f"readout solve of region {i + 1} ({int(pool.rows[0])} samples, first box "
                                     f"{parts.boxes[regions[i][0][0]]!r}) is singular ({exc})") from exc
        stats.fit_seconds.append(time.perf_counter() - t0)
        stats.mse.append(float(pool.mse(w_t)[0]))
        return replace(net, w_out=w_t[0].T)

    networks = [fit(i, net, pool) for i, (_, net, pool) in enumerate(regions)]
    owner = np.empty(len(parts), dtype=np.intp)
    for i, (ids, _, _) in enumerate(regions, start=1):
        owner[ids] = i

    return HybridModel(
        zone=parts.zone,
        tree=parts.boxes,
        box_owner=owner,
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
) -> list[tuple[list[int], ElmNetwork, ReadoutStats]]:
    """The merge decisions of merge_and_learn (every partition holds
    samples), with row N's tests run under `layer(N)`: the partition ids of
    each region, ascending, in order with `layer(N)` and its final one-entry
    statistics under it (the pool of its last accepted test, or its own if it
    absorbed nothing), and the tests and merges counted in `stats`.

    Row N's candidates are the partitions after it, none of which has
    absorbed anything, so their statistics come from `ReadoutStats.of` in
    stacked chunks of a third of `geometry.STACK_BYTES`. The tests run in
    windows of consecutive candidates of one chunk, one stacked solve per
    window, so a window's pools and `readout`'s ridge-shifted copy of them
    take at most a third each, and `of`'s gathers take the two thirds the
    chunk leaves (`elm.GATHER_SHARE`): the sweep's temporaries stay within
    one block however many partitions or samples there are. While the row
    rejects, every candidate is pooled with the fixed row; while it accepts,
    the pools are the running sums from the row's statistics, added in the
    order the one-at-a-time sweep adds them. A window keeps its results up to
    the first test that breaks the run, and the mode flips there; it starts
    at FIRST_WINDOW tests and doubles while the run holds. A window whose
    solve raises is re-run one test at a time, so a singular pooled solve
    raises FloatingPointError at the test where the one-at-a-time sweep
    (`tests/oracles.py:sequential_merge`) raises it.
    """
    regions = list(range(len(parts)))  # partition ids; a region's first id is its row
    merged: list[tuple[list[int], ElmNetwork, ReadoutStats]] = []  # partition ids, layer, statistics of each region

    def window(ids: np.ndarray, cand: ReadoutStats) -> int:
        """Test the candidate partitions `ids`, of statistics `cand`, in the
        current mode; apply the results up to the first test that breaks the
        run and return how many candidates that is. A singular solve raises
        LinAlgError from several tests, FloatingPointError from one."""
        nonlocal row, accepting, width
        pools = cand.running(row) if accepting else row + cand
        try:
            accept = pools.mse(pools.readout()) <= gamma
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
        stats.pair_tests += used
        stats.merges += took.size
        if took.size:
            # a copy: the absorbed pool is a view that would pin its window's stacked pools
            row = pools[absorbed.stop - 1].copy()
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
        sets = RowSets(data.z, data.y, parts.assignments)
        while regions:
            members, candidates, kept = regions[:1], np.array(regions[1:], dtype=int), []
            net = layer(len(merged))
            row = ReadoutStats.of(net, sets, members)
            if not (np.isfinite(row.hh).all() and np.isfinite(row.hy).all() and np.isfinite(row.yy).all()):
                # row N has absorbed nothing yet, so it is still one partition
                raise FloatingPointError(f"H^T H, H^T Y or sum Y^2 of partition {parts.boxes[members[0]]!r} "
                                         "is not finite: the data overflow the fit")
            accepting, width = False, FIRST_WINDOW
            entry = 8 * net.hidden_count * (net.hidden_count + net.n_out) + 16
            for start, stop in blocks(0, candidates.size, entry, 1 - GATHER_SHARE):
                block = candidates[start:stop]
                cand = ReadoutStats.of(net, sets, block)
                i = 0
                while i < block.size:
                    j = min(block.size, i + width)
                    try:
                        i += window(block[i:j], cand[i:j])
                    except np.linalg.LinAlgError:  # only a window of several tests lets it through
                        for _ in range(j - i):  # a one-test window tests exactly one candidate
                            i += window(block[i:i + 1], cand[i:i + 1])
                del cand  # freed before the next chunk's statistics are built
            merged.append((members, net, row))
            regions = kept
    return merged
