"""The epsilon ladder: stage times, counts, peak RSS and precision diagnostics
of one fit -> abstract -> verify run per rung, on a fixed swirl dataset.

Run from the repository root:

    python3 tools/ladder.py                       # print the ladder's JSON entry
    python3 tools/ladder.py --append BENCH_pipeline.json --label "what changed"
    python3 tools/ladder.py --root ../other-checkout --append BENCH_pipeline.json --label parent

Each rung runs in a fresh Python process, so that its `ru_maxrss` is its own
and no earlier rung's freed heap shapes it. The process imports `dynabs` from
`<root>/src` and the dataset generator from `<root>/tests/synthdata.py`, calls
the library in-process and times each call itself: `me_partition`,
`merge_and_learn`, `sample_traces`, `build_cells`, `compute_transitions` and
one `sat_set` of `AG !EXIT`, each the best of REPEATS (TRANSITION_REPEATS
for the transitions). The counts come from the return values, and the peak
RSS is read after the timed stages. The samples axis runs the SAMPLES_EPSILON
rung again on each number of samples in SAMPLES_AXIS, in a fresh process too.

Then, untimed, each rung's `precision` object reads the transition system R:
- `out_degree_p50`, `_p90` and `_max`: successors of each cell's row of R,
  the EXIT edge counted (quantiles as observed degrees);
- `ctl_rounds`: the `ctl._fix` rounds that one `AG !EXIT` takes, counted by
  wrapping `dynabs.ctl._fix` in this process;
- `attractor_scc`: the cells of the strongly connected component of the cell
  holding ATTRACTOR, as forward and backward reachability over R's cell block;
- `witnessed_fraction`: the share of R's cell-row edges (EXIT edges included)
  that WITNESS_RUNS fresh runs of `model.rollout` of up to WITNESS_STEPS steps
  take, from uniform start states (seed TRACE_SEED + 1), up to their exit steps;
- `width_ratio_p50` and `_p90`: over WIDTH_CELLS evenly spaced cells, the
  enclosure width over the width of WIDTH_POINTS sampled images (seed
  TRACE_SEED + 2), as the mean over dimensions;
- `true_miss`: the share of true swirl steps from MISS_POINTS points per cell
  (seed TRACE_SEED + 3) whose cell or EXIT edge is not in R.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

# BLAS runs single-threaded, as in the benchmark. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
EPSILONS = (1e-2, 3e-3, 1e-3, 3e-4)  # the partition and the cell epsilon of each rung
SAMPLES, DATA_SEED, TWIST = 20_000, 1, 0.6
SAMPLES_AXIS, SAMPLES_EPSILON = (SAMPLES, 200_000, 2_000_000), 1e-3
HIDDEN, GAMMA, FIT_SEED = 20, 1.5e-5, 0
TRACES, TRACE_LENGTH, TRACE_SEED = 400, 400, 0
FORMULA = "AG !EXIT"
REPEATS, TRANSITION_REPEATS = 3, 2
COUNTS = ("partitions", "pair_tests", "regions", "region_boxes", "trace_states", "cells", "edges")
STAGES = ("partition", "merge", "traces", "cells", "transitions", "ctl")
ATTRACTOR = (0.05, 0.05)  # near the swirl's fixed point at the origin
WITNESS_RUNS, WITNESS_STEPS = 400, 400
WIDTH_CELLS, WIDTH_POINTS = 24, 256
MISS_POINTS = 16
PRECISION = ("out_degree_p50", "out_degree_p90", "out_degree_max", "ctl_rounds", "attractor_scc",
             "witnessed_fraction", "width_ratio_p50", "width_ratio_p90", "true_miss")


def setup() -> dict:
    return {"dataset": f"tests/synthdata.swirl_dataset({SAMPLES}, seed={DATA_SEED}, twist={TWIST})",
            "zone": [[-1.0, -1.0], [1.0, 1.0]], "hidden": HIDDEN, "gamma": GAMMA, "fit_seed": FIT_SEED,
            "traces": TRACES, "trace_length": TRACE_LENGTH, "trace_seed": TRACE_SEED, "formula": FORMULA,
            "repeats": REPEATS, "transition_repeats": TRANSITION_REPEATS, "epsilons": list(EPSILONS),
            "samples": list(SAMPLES_AXIS), "samples_epsilon": SAMPLES_EPSILON}


def best_of(k: int, call):
    """The result of `call()` and the least wall time of k calls."""
    best = float("inf")
    for _ in range(k):
        t0 = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - t0)
    return result, best


def rung(epsilon: float, samples: int = SAMPLES, repeats: int = REPEATS,
         transition_repeats: int = TRANSITION_REPEATS) -> dict:
    """Counts, stage seconds, peak RSS and precision of one rung on `samples` samples, run in this process."""
    import numpy as np
    from dynabs import (Box, WorkingZone, build_cells, compute_transitions, me_partition, merge_and_learn,
                        parse_ctl, sample_traces, sat_set)
    from synthdata import swirl_dataset

    data = swirl_dataset(samples, seed=DATA_SEED, twist=TWIST)
    zone = WorkingZone(Box(-np.ones(2), np.ones(2)))
    seconds = {}
    parts, seconds["partition"] = best_of(repeats, lambda: me_partition(zone, data.states, epsilon))
    model, seconds["merge"] = best_of(
        repeats, lambda: merge_and_learn(parts, data, hidden_count=HIDDEN, seed=FIT_SEED, gamma=GAMMA))
    states, seconds["traces"] = best_of(repeats, lambda: sample_traces(model, TRACES, TRACE_LENGTH, TRACE_SEED))
    cells, seconds["cells"] = best_of(repeats, lambda: build_cells(zone, states, epsilon))
    ts, seconds["transitions"] = best_of(transition_repeats, lambda: compute_transitions(model, cells))
    formula = parse_ctl(FORMULA)
    _, seconds["ctl"] = best_of(repeats, lambda: sat_set(ts, formula))
    counts = {"partitions": len(parts), "pair_tests": model.stats.pair_tests, "regions": model.n_regions,
              "region_boxes": len(model.tree), "trace_states": len(states), "cells": len(cells),
              "edges": int(np.count_nonzero(ts.relation))}
    peak_rss_mb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 2)
    return {"epsilon": epsilon, "counts": counts, "seconds": {k: round(v, 4) for k, v in seconds.items()},
            "precision": precision(model, ts, formula), "peak_rss_mb": peak_rss_mb}


def ctl_rounds(ts, formula) -> int:
    """The `ctl._fix` rounds (calls of its step) that `sat_set(ts, formula)` takes."""
    from dynabs import ctl
    rounds, fix = 0, ctl._fix

    def counted_fix(step, start):
        def counted(cur):
            nonlocal rounds
            rounds += 1
            return step(cur)
        return fix(counted, start)

    ctl._fix = counted_fix
    try:
        ctl.sat_set(ts, formula)
    finally:
        ctl._fix = fix
    return rounds


def precision(model, ts, formula) -> dict:
    """The precision diagnostics of R = `ts.relation` (see the module docstring)."""
    import numpy as np
    from dynabs import cell_successor_box
    from synthdata import swirl_step

    cells, relation = ts.cells, ts.relation
    n = len(cells)
    rows = relation[:n]  # the cells' rows, EXIT column included
    degree = rows.sum(axis=1)
    p50, p90 = np.quantile(degree, [0.5, 0.9], method="inverted_cdf").tolist()

    block = relation[:n, :n]

    def reachable(start: int, successors) -> np.ndarray:
        seen = np.zeros(n, dtype=bool)
        seen[start] = True
        frontier = seen
        while frontier.any():
            frontier = successors(frontier) & ~seen
            seen |= frontier
        return seen

    home = int(cells.locate(np.array([ATTRACTOR]))[0])
    scc = reachable(home, lambda f: block[f].any(axis=0)) & reachable(home, lambda f: block[:, f].any(axis=1))

    omega = model.zone.omega
    rng = np.random.default_rng(TRACE_SEED + 1)
    x = rng.uniform(omega.lo, omega.hi, size=(WITNESS_RUNS, omega.dim))
    src, taken = cells.locate(x), []  # the cell of each run's state
    for live, nxt, _ in model.rollout(x, [None] * WITNESS_STEPS):
        dst = cells.locate(nxt)
        taken.append(src[live] * (n + 1) + np.where(dst < 0, n, dst))
        src[live] = dst
    witnessed = np.count_nonzero(relation.ravel()[np.unique(np.concatenate(taken))]) / np.count_nonzero(rows)

    rng = np.random.default_rng(TRACE_SEED + 2)
    ratios = []
    for k in np.linspace(0, n - 1, WIDTH_CELLS).round().astype(int).tolist():
        box = cells[k]
        reach = cell_successor_box(model, box)
        image = model.step(rng.uniform(box.lo, box.hi, size=(WIDTH_POINTS, box.dim)))
        enclosure = reach.out_hi.max(axis=0) - reach.out_lo.min(axis=0)
        ratios.append(float(np.mean(enclosure / np.ptp(image, axis=0))))
    w50, w90 = np.quantile(ratios, [0.5, 0.9]).tolist()

    rng = np.random.default_rng(TRACE_SEED + 3)
    src = np.repeat(np.arange(n), MISS_POINTS)
    dst = cells.locate(swirl_step(rng.uniform(cells.lo[src], cells.hi[src]), twist=TWIST))
    miss = float(np.mean(~relation[src, np.where(dst < 0, n, dst)]))

    values = (p50, p90, int(degree.max()), ctl_rounds(ts, formula), int(np.count_nonzero(scc)),
              witnessed, w50, w90, miss)
    return {k: v if isinstance(v, int) else float(f"{v:.4g}") for k, v in zip(PRECISION, values)}


def run_rung(root: Path, epsilon: float, samples: int = SAMPLES) -> dict:
    """One rung in a fresh process over `root`'s sources, with its peak RSS."""
    out = subprocess.run([sys.executable, __file__, "--root", str(root), "--rung", repr(epsilon), str(samples)],
                         capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": "0"})
    if out.returncode:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"error: the rung at epsilon {epsilon!r} on {samples} samples exited {out.returncode}")
    return json.loads(out.stdout.splitlines()[-1])


def commit(root: Path) -> str:
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"], capture_output=True, text=True)
    dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--", "src"], capture_output=True,
                           text=True).stdout.strip()
    return (out.stdout.strip() or "unknown") + ("+changes" if dirty else "")


def entry(root: Path, label: str) -> dict:
    import numpy as np
    return {"label": label, "commit": commit(root), "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "rungs": [run_rung(root, epsilon) for epsilon in EPSILONS],
            "samples": [{"samples": samples} | run_rung(root, SAMPLES_EPSILON, samples) for samples in SAMPLES_AXIS]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ and tests/ to run")
    p.add_argument("--label", default="", help="what the entry measures")
    p.add_argument("--append", type=Path, help="append the entry to this JSON file")
    p.add_argument("--rung", type=float, nargs=2, help=argparse.SUPPRESS)  # epsilon, samples: one rung, in this process
    args = p.parse_args(argv)
    root = args.root.resolve()
    if args.rung is not None:
        sys.path[:0] = [str(root / "src"), str(root / "tests")]
        print(json.dumps(rung(args.rung[0], int(args.rung[1]))))
        return 0
    doc = entry(root, args.label)
    if args.append is None:
        print(json.dumps(doc, indent=1))
        return 0
    bench = json.loads(args.append.read_text(encoding="utf-8")) if args.append.exists() else \
        {"setup": setup(), "entries": []}
    if bench["setup"] != setup():
        raise SystemExit(f"error: {args.append} holds a ladder of another setup")
    bench["entries"].append(doc)
    args.append.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
