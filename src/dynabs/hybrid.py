"""Neural hybrid system: per-region networks selected by state location.

Built from a maximum-entropy partition by merging redundant partitions (one
network fitted on the pooled data of a candidate pair must reach the MSE
threshold gamma) and fitting one network per surviving region. The model
steps as x(k+1) = net[region(x(k))](x(k), u(k)).
"""

from __future__ import annotations

import bisect
import datetime
import itertools
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import DataError, Dataset, WorkingZone, check_format_version, read_artifact, write_artifact
from .elm import ElmNetwork, ReadoutStats, fit_output_weights, init_elm, predict_batch
# membership_matrix is not called here, but the benchmark's traced run
# (pipebench/run.py) wraps this module's name for it, so the import stays
from .geometry import Box, BoxTree, _short, boxes_from_docs, membership_matrix  # noqa: F401
from .partition import PartitionSet

MODEL_FORMAT_VERSION = 1


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
    refit_seconds: list[float] = field(default_factory=list)

    @property
    def total_refit_seconds(self) -> float:
        return float(sum(self.refit_seconds))


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

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def network_of(self, region_id: int) -> ElmNetwork:
        return self.networks[region_id - 1]

    def locate_batch(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized locate: (region ids, out-of-zone mask) for state rows.

        Rows outside the zone fall back to the region nearest by L-infinity
        distance, ties to the lowest id.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        box = self.tree.locate(states)
        out = box < 0
        if out.any():
            x = states[out][:, None, :]
            gap = np.maximum(np.maximum(self.tree.lo - x, x - self.tree.hi), 0.0).max(axis=2)
            # boxes are in region order, so the first nearest box has the lowest id
            box[out] = np.argmin(gap, axis=1)
        return self.box_owner[box], out

    def predict_located(self, z: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Batch step for pre-located samples: rows of z grouped by region id."""
        z = np.atleast_2d(np.asarray(z, dtype=float))
        out = np.empty((z.shape[0], self.zone.n_x))
        for rid in np.unique(ids):
            rows = ids == rid
            out[rows] = predict_batch(self.network_of(int(rid)), z[rows])
        return out

    def step(self, states: np.ndarray, inputs: np.ndarray | None = None) -> np.ndarray:
        """One step of x(k+1) = net[region(x(k))]([x(k); u(k)]) for each state row."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        z = states if inputs is None else np.concatenate([states, np.atleast_2d(inputs)], axis=1)
        ids, _ = self.locate_batch(states)
        return self.predict_located(z, ids)

    def simulate(self, x0, inputs=None, steps: int = 0) -> SimResult:
        """Iterate the model for `steps` steps from x0, one `step` call each.

        Out-of-zone states are flagged (nearest-region fallback keeps the
        trajectory going); a non-finite state truncates the trace. A
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
        _, out = self.locate_batch(states)
        return SimResult(states, np.nonzero(out)[0].tolist(), truncated=message is not None, message=message)

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
        """Model from its JSON document; any defect raises DataError.

        Numbers have exact JSON types, as in `boxes_from_docs`: `gamma` and
        `epsilon` are numbers and region ids integers (`true`, `1.0` and
        `"1"` are neither); networks are read by `ElmNetwork.from_dict`.
        """
        check_format_version(d, MODEL_FORMAT_VERSION, "model")
        try:
            zone = WorkingZone.from_dict(d["zone"])
            for key in ("gamma", "epsilon"):
                if type(d[key]) not in (int, float):
                    raise DataError(f"key {key!r} must be a JSON number, got {_short(d[key])}")
            for i, r in enumerate(d["regions"]):
                if type(r["id"]) is not int:
                    raise DataError(f"regions[{i}].id must be a JSON integer, got {_short(r['id'])}")
                if type(r["boxes"]) is not list:
                    raise DataError(f"regions[{i}].boxes must be a list of boxes, got {type(r['boxes']).__name__}")
            box_lists = [r["boxes"] for r in d["regions"]]
            # every region box in one pass, named by its region in an error
            ends = list(itertools.accumulate(map(len, box_lists)))

            def name(k: int) -> str:
                i = bisect.bisect_right(ends, k)
                return f"regions[{i}].boxes[{k - (ends[i - 1] if i else 0)}]"

            boxes = boxes_from_docs([b for docs in box_lists for b in docs], zone.n_x, name)
            return cls(
                zone=zone,
                regions=tuple(
                    Region(r["id"], boxes[end - len(docs):end])
                    for r, docs, end in zip(d["regions"], box_lists, ends)
                ),
                networks=tuple(_network_from_dict(k, n) for k, n in enumerate(d["networks"])),
                gamma=float(d["gamma"]),
                epsilon=float(d["epsilon"]),
            )
        except KeyError as exc:
            raise DataError(f"model document is missing key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise DataError(f"invalid model document: {exc}") from exc

    @classmethod
    def load(cls, path) -> HybridModel:
        return cls.from_dict(read_artifact(path))


def _network_from_dict(k: int, doc) -> ElmNetwork:
    """Network k of a model document; a defect raises ValueError naming `networks[k]` and the key."""
    try:
        return ElmNetwork.from_dict(doc)
    except KeyError as exc:
        raise ValueError(f"networks[{k}] is missing key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ValueError(f"networks[{k}].{exc}") from None


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
    """Merge redundant partitions by the pooled-MSE test and fit one network
    per surviving region.

    The sweep is deterministic: the outer index N walks regions in ascending
    order and draws one candidate hidden layer per row (seed derived from
    (seed, N)); each candidate n > N is tested by the training MSE of that
    layer's ridge readout on the pooled data, computed from the additive
    statistics of region N and region n (ReadoutStats). On success the
    candidate is absorbed into N, indices compact, and the sweep continues
    with the merged region. Afterwards every region i gets its network fitted
    on its data over the layer of seed (seed, i), which for a region that
    absorbed a candidate is the network its last accepted test certified.
    """
    if not gamma >= 0:  # NaN fails too
        raise ValueError(f"gamma must be >= 0, got {gamma!r}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    n_in = data.n_x + data.n_u
    stats = MergeStats()

    regions = [
        {"boxes": [box], "idx": np.asarray(idx, dtype=int)}
        for box, idx in zip(parts.boxes, parts.assignments)
    ]

    def layer(i: int) -> ElmNetwork:
        return init_elm(n_in, data.n_x, hidden_count, derive_seed(seed, i))

    def readout_stats(net: ElmNetwork, idx: np.ndarray) -> ReadoutStats:
        return ReadoutStats.of(net, data.z[idx], data.y[idx])

    # Huge finite data overflow the statistics to inf or nan. A pool with such
    # statistics fails its test (its MSE is not <= gamma), and a partition
    # with them raises when its turn as row N comes, at the latest.
    with np.errstate(over="ignore", invalid="ignore"):
        big_n = 0
        while big_n < len(regions):
            net = layer(big_n)
            row = readout_stats(net, regions[big_n]["idx"])
            if not (np.isfinite(row.hh).all() and np.isfinite(row.hy).all() and np.isfinite(row.yy)):
                # row N has absorbed nothing yet, so it is still one partition
                raise FloatingPointError(f"H^T H, H^T Y or sum Y^2 of partition {regions[big_n]['boxes'][0]!r} "
                                         "is not finite: the data overflow the fit")
            n = big_n + 1
            while n < len(regions):
                pooled = row + readout_stats(net, regions[n]["idx"])
                if pooled.rows == 0:
                    n += 1
                    continue
                stats.pair_tests += 1
                if pooled.ridge_mse() <= gamma:
                    regions[big_n]["boxes"].extend(regions[n]["boxes"])
                    regions[big_n]["idx"] = np.concatenate([regions[big_n]["idx"], regions[n]["idx"]])
                    row = pooled
                    del regions[n]
                    stats.merges += 1
                else:
                    n += 1
            big_n += 1

    def refit(i: int) -> tuple[ElmNetwork, float]:
        net = layer(i)
        idx = regions[i]["idx"]
        if idx.size == 0:
            warnings.warn(
                f"region {i + 1} has no samples; its network is the zero map",
                RuntimeWarning,
                stacklevel=2,
            )
            return net, 0.0
        t0 = time.perf_counter()
        net = fit_output_weights(net, data.subset(idx))
        return net, time.perf_counter() - t0

    fitted = [refit(i) for i in range(len(regions))]
    stats.refit_seconds = [sec for _, sec in fitted]

    return HybridModel(
        zone=parts.zone,
        regions=tuple(
            Region(i + 1, tuple(r["boxes"])) for i, r in enumerate(regions)
        ),
        networks=tuple(net for net, _ in fitted),
        gamma=float(gamma),
        epsilon=float(parts.epsilon),
        stats=stats,
    )
