"""Neural hybrid system: per-region networks selected by state location.

Built from a maximum-entropy partition by merging redundant partitions (a
fresh network fitted on the pooled data of a candidate pair must reach the
MSE threshold gamma) and fitting one network per surviving region. The model
steps as x(k+1) = net[locate(x(k))](x(k), u(k)).
"""

from __future__ import annotations

import datetime
import json
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import DataError, Dataset, WorkingZone, check_format_version
from .elm import DEFAULT_RIDGE, ElmNetwork, fit_output_weights, init_elm, mse, predict, predict_batch
# membership_matrix is not called here, but the benchmark's traced run
# (pipebench/run.py) wraps this module's name for it, so the import stays
from .geometry import Box, BoxTree, membership_matrix  # noqa: F401
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

    initial_partitions: int
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
        boxes = [b for r in self.regions for b in r.boxes]
        object.__setattr__(self, "tree", BoxTree(self.zone.omega, boxes))
        object.__setattr__(self, "box_owner", np.array([r.id for r in self.regions for _ in r.boxes]))

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def network_of(self, region_id: int) -> ElmNetwork:
        return self.networks[region_id - 1]

    def locate(self, x) -> int:
        return self.locate_with_flag(x)[0]

    def locate_with_flag(self, x) -> tuple[int, bool]:
        """Region id containing x; out-of-zone points fall back to the
        nearest region by L-infinity distance and raise the flag."""
        ids, out = self.locate_batch(np.asarray(x, dtype=float)[None])
        return int(ids[0]), bool(out[0])

    def step(self, x, u=None) -> np.ndarray:
        """One step of x(k+1) = net[locate(x(k))]([x(k); u(k)])."""
        x = np.asarray(x, dtype=float)
        z = x if u is None else np.concatenate([x, np.asarray(u, dtype=float)])
        return predict(self.network_of(self.locate(x)), z)

    def simulate(self, x0, inputs=None, steps: int = 0) -> SimResult:
        """Iterate the model for `steps` steps from x0.

        Out-of-zone states are flagged (nearest-region fallback keeps the
        trajectory going); a non-finite state truncates the trace.
        """
        if steps < 0:
            raise ValueError("steps must be >= 0")
        n_u = self.zone.n_u
        if n_u > 0:
            if inputs is None:
                raise ValueError("model takes external inputs; provide an input sequence")
            inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
            if inputs.shape[0] < steps:
                raise ValueError(f"need {steps} input vectors, got {inputs.shape[0]}")
        x = np.asarray(x0, dtype=float)
        trace = [x]
        flagged: list[int] = []
        for t in range(steps):
            _, out = self.locate_with_flag(x)
            if out:
                flagged.append(t)
            x = self.step(x, inputs[t] if n_u > 0 else None)
            if not np.all(np.isfinite(x)):
                return SimResult(
                    np.asarray(trace), flagged, truncated=True,
                    message=f"non-finite state produced at step {t + 1}",
                )
            trace.append(x)
        # positions 0..steps-1 were flagged while stepping; cover the last state
        _, out = self.locate_with_flag(trace[-1])
        if out:
            flagged.append(len(trace) - 1)
        return SimResult(np.asarray(trace), flagged)

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
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def from_dict(cls, d: dict) -> HybridModel:
        """Model from its JSON document; any defect raises DataError."""
        check_format_version(d, MODEL_FORMAT_VERSION, "model")
        try:
            return cls(
                zone=WorkingZone.from_dict(d["zone"]),
                regions=tuple(
                    Region(int(r["id"]), tuple(Box.from_dict(b) for b in r["boxes"]))
                    for r in d["regions"]
                ),
                networks=tuple(ElmNetwork.from_dict(n) for n in d["networks"]),
                gamma=float(d["gamma"]),
                epsilon=float(d["epsilon"]),
            )
        except KeyError as exc:
            raise DataError(f"model document is missing key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise DataError(f"invalid model document: {exc}") from exc

    @classmethod
    def load(cls, path) -> HybridModel:
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


def hybrid_mse(model: HybridModel, data: Dataset) -> float:
    """MSE of the switched model over a dataset: (1/n) sum ||step(z) - y||^2."""
    ids, _ = model.locate_batch(data.states)
    err = model.predict_located(data.z, ids) - data.y
    return float(np.mean(np.sum(err * err, axis=1)))


def merge_and_learn(
    parts: PartitionSet,
    data: Dataset,
    hidden_count: int,
    seed: int,
    gamma: float,
    ridge: float = DEFAULT_RIDGE,
) -> HybridModel:
    """Merge redundant partitions by the pooled-MSE test and fit one network
    per surviving region.

    The sweep is deterministic: the outer index N walks regions in ascending
    order; each candidate n > N is tested with a fresh network (seed derived
    from (seed, N, n)) fitted on the pooled data; on success the candidate is
    absorbed into N, indices compact, and the sweep continues with the merged
    region. Afterwards every region gets a final network fitted on its data.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    n_in = data.n_x + data.n_u
    stats = MergeStats(initial_partitions=len(parts))

    regions = [
        {"boxes": [box], "idx": np.asarray(idx, dtype=int)}
        for box, idx in zip(parts.boxes, parts.assignments)
    ]

    big_n = 0
    while big_n < len(regions):
        n = big_n + 1
        while n < len(regions):
            pooled = np.concatenate([regions[big_n]["idx"], regions[n]["idx"]])
            if pooled.size == 0:
                n += 1
                continue
            stats.pair_tests += 1
            candidate = init_elm(n_in, data.n_x, hidden_count, derive_seed(seed, big_n, n))
            candidate = fit_output_weights(candidate, data.subset(pooled), ridge)
            if mse(candidate, data.subset(pooled)) <= gamma:
                regions[big_n]["boxes"].extend(regions[n]["boxes"])
                regions[big_n]["idx"] = pooled
                del regions[n]
                stats.merges += 1
            else:
                n += 1
        big_n += 1

    def refit(i: int) -> tuple[ElmNetwork, float]:
        net = init_elm(n_in, data.n_x, hidden_count, derive_seed(seed, i))
        idx = regions[i]["idx"]
        if idx.size == 0:
            warnings.warn(
                f"region {i + 1} has no samples; its network is the zero map",
                RuntimeWarning,
                stacklevel=2,
            )
            return net, 0.0
        t0 = time.perf_counter()
        net = fit_output_weights(net, data.subset(idx), ridge)
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
