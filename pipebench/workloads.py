"""Workload definitions and input generation for the pipeline benchmark.

Every workload is the swirl map on the zone [-1, 1]^2 (the autonomous one
from the test suite, twist 0.6, damping 0.96, or a controlled variant with one
input), sampled as 200 trajectories of 100 steps. Only the initial states and
inputs depend on the workload seed; the CLI settings below are fixed. A run
uses DATASETS datasets drawn from its seed, so that one unlucky draw does not
set the run's figures alone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

BASE_ANGLE = 0.15
TWIST = 0.6
TRAJECTORIES = 200
STEPS = 100
INPUT_BOUND = 0.1   # controlled input u ~ U[-0.1, 0.1], also the declared input bounds
INPUT_GAIN = 0.5    # x1 receives 0.5 * u
GAMMA = 1.5e-5
HIDDEN = 20
DATASETS = 2        # datasets per run, drawn from (workload seed, dataset index)


@dataclass(frozen=True)
class Workload:
    name: str
    fit_epsilon: float
    abstract_epsilon: float
    traces: int
    trace_length: int
    damping: float
    n_u: int
    nominal_s: float  # rough pipeline seconds on a 2-core x86 VM; sets the pass count
    trajectories: int = TRAJECTORIES


# why each workload exists: README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit_fine", 1e-3, 1e-2, 500, 40, 0.96, 0, 12.0),
        Workload("abstract_fine", 1e-2, 1.5e-3, 2000, 60, 0.96, 0, 7.5),
        Workload("controlled", 3e-3, 3e-3, 300, 300, 0.9, 1, 7.5),
    )
}


def swirl_step(x: np.ndarray, u: np.ndarray | None, damping: float) -> np.ndarray:
    """x+ = damping * R(0.15 + 0.6 |x|^2) x, plus (0.5 u, 0) when u is given."""
    th = BASE_ANGLE + TWIST * (x * x).sum(axis=1, keepdims=True)
    c, s = np.cos(th), np.sin(th)
    nxt = damping * np.concatenate([c * x[:, :1] - s * x[:, 1:], s * x[:, :1] + c * x[:, 1:]], axis=1)
    if u is not None:
        nxt[:, :1] += INPUT_GAIN * u
    return nxt


def generate(w: Workload, seed: int, dataset: int) -> tuple[np.ndarray, np.ndarray]:
    """One-step samples (z, y) of dataset `dataset` of the seed, trajectory-major.

    Initial states are uniform on [-0.7, 0.7]^2, so their L2 norm is below
    0.99. The map contracts that norm (by damping, plus at most 0.05 from the
    input), so every state stays inside the zone [-1, 1]^2.
    """
    rng = np.random.default_rng([seed, dataset])
    trajectories = w.trajectories
    x = rng.uniform(-0.7, 0.7, size=(trajectories, 2))
    zs, ys = [], []
    for _ in range(STEPS):
        u = rng.uniform(-INPUT_BOUND, INPUT_BOUND, size=(trajectories, 1)) if w.n_u else None
        nxt = swirl_step(x, u, w.damping)
        zs.append(x if u is None else np.concatenate([x, u], axis=1))
        ys.append(nxt)
        x = nxt
    z = np.stack(zs, axis=1).reshape(trajectories * STEPS, -1)
    y = np.stack(ys, axis=1).reshape(trajectories * STEPS, -1)
    return z, y


def write_csv(path, z: np.ndarray, y: np.ndarray, n_u: int) -> None:
    """Header row, then x..., u..., y... with round-trip float text."""
    header = ["x1", "x2"] + [f"u{i + 1}" for i in range(n_u)] + ["y1", "y2"]
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([repr(v) for v in row] for row in np.concatenate([z, y], axis=1).tolist())


def cli_args(w: Workload, csv_path: str, out_dir: str) -> tuple[list[str], list[str]]:
    """Argument lists for `dynabs fit` and `dynabs abstract`; the program seed stays 0."""
    fit = [
        "fit", "--dataset", csv_path, "--n-x", "2", "--n-u", str(w.n_u),
        "--omega-lo=-1,-1", "--omega-hi=1,1",
        "--epsilon", repr(w.fit_epsilon), "--gamma", repr(GAMMA), "--hidden-count", str(HIDDEN),
        "--seed", "0", "--out-dir", out_dir,
    ]
    if w.n_u:
        fit += [f"--input-lo=-{INPUT_BOUND}", f"--input-hi={INPUT_BOUND}"]
    abstract = [
        "abstract", "--model", f"{out_dir}/model.json", "--initial", "1",
        "--epsilon", repr(w.abstract_epsilon), "--traces", str(w.traces),
        "--trace-length", str(w.trace_length), "--seed", "0", "--out-dir", out_dir,
    ]
    return fit, abstract
