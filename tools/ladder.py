"""The epsilon ladder: stage times, counts and peak RSS of one fit -> abstract
-> verify run per rung, on a fixed swirl dataset.

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
for the transitions). The counts come from the return values.
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
HIDDEN, GAMMA, FIT_SEED = 20, 1.5e-5, 0
TRACES, TRACE_LENGTH, TRACE_SEED = 400, 400, 0
FORMULA = "AG !EXIT"
REPEATS, TRANSITION_REPEATS = 3, 2
COUNTS = ("partitions", "pair_tests", "regions", "region_boxes", "trace_states", "cells", "edges")
STAGES = ("partition", "merge", "traces", "cells", "transitions", "ctl")


def setup() -> dict:
    return {"dataset": f"tests/synthdata.swirl_dataset({SAMPLES}, seed={DATA_SEED}, twist={TWIST})",
            "zone": [[-1.0, -1.0], [1.0, 1.0]], "hidden": HIDDEN, "gamma": GAMMA, "fit_seed": FIT_SEED,
            "traces": TRACES, "trace_length": TRACE_LENGTH, "trace_seed": TRACE_SEED, "formula": FORMULA,
            "repeats": REPEATS, "transition_repeats": TRANSITION_REPEATS, "epsilons": list(EPSILONS)}


def best_of(k: int, call):
    """The result of `call()` and the least wall time of k calls."""
    best = float("inf")
    for _ in range(k):
        t0 = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - t0)
    return result, best


def rung(epsilon: float, repeats: int = REPEATS, transition_repeats: int = TRANSITION_REPEATS) -> dict:
    """Counts and stage seconds of one rung, run in this process."""
    import numpy as np
    from dynabs import (Box, WorkingZone, build_cells, compute_transitions, me_partition, merge_and_learn,
                        parse_ctl, sample_traces, sat_set)
    from synthdata import swirl_dataset

    data = swirl_dataset(SAMPLES, seed=DATA_SEED, twist=TWIST)
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
    return {"epsilon": epsilon, "counts": counts, "seconds": {k: round(v, 4) for k, v in seconds.items()}}


def run_rung(root: Path, epsilon: float) -> dict:
    """One rung in a fresh process over `root`'s sources, with its peak RSS."""
    out = subprocess.run([sys.executable, __file__, "--root", str(root), "--rung", repr(epsilon)],
                         check=True, capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": "0"})
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
            "rungs": [run_rung(root, epsilon) for epsilon in EPSILONS]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ and tests/ to run")
    p.add_argument("--label", default="", help="what the entry measures")
    p.add_argument("--append", type=Path, help="append the entry to this JSON file")
    p.add_argument("--rung", type=float, help=argparse.SUPPRESS)  # one rung, in this process
    args = p.parse_args(argv)
    root = args.root.resolve()
    if args.rung is not None:
        sys.path[:0] = [str(root / "src"), str(root / "tests")]
        result = rung(args.rung)
        result["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 2)
        print(json.dumps(result))
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
