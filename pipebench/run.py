"""Fit -> abstract -> verify benchmark for dynabs.

Run from the repository root:

    python3 pipebench/run.py --workload fit_fine --seed 1 --seconds 30 --trace 0

One process runs one workload, closed loop, one pipeline at a time. It
imports the program from `src/` and drives it in-process through
`dynabs.cli.main`, exactly as the `dynabs` command would: `fit` on a
generated CSV, then `abstract`, then a fixed batch of `verify` calls. The
workload seed only shapes the generated data; the program's own `--seed`
stays 0. Every run is gated on exit codes, soundness, CTL verdicts and
determinism. `--trace 1` adds one pipeline with spans around the public
functions of every layer and reports per-layer metrics instead of the
end-to-end ones. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# BLAS runs single-threaded: on a 2-vCPU VM two BLAS threads made the small
# least-squares solves slower and the timings noisier. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import ctlref  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 5
# Python draws a new str hash seed per process, which changes dict layouts.
# On the 2-vCPU VM that alone moved one seed's pipeline_s by up to 30 %
# between processes, against 8 % with a fixed seed, so every run uses this one.
HASH_SEED = "0"
MIN_PASSES = 3        # dataset 0 runs at least twice, for the determinism check
CHECK_CELLS = 24      # cells sampled by the enclosure check
CHECK_POINTS = 256    # Monte-Carlo points per checked cell

EXIT = ("exit",)
Q1 = ("cell", 1)
# (formula text for the CLI, the same formula for the reference); only atoms
# that exist at any cell count, each checked with --initial 1
VERIFY_BATCH = (
    ("EF EXIT", ("EF", EXIT)),
    ("AG !EXIT", ("AG", ("not", EXIT))),
    ("EG !EXIT", ("EG", ("not", EXIT))),
    ("A[!EXIT U Q1]", ("AU", ("not", EXIT), Q1)),
    ("AF AG !EXIT", ("AF", ("AG", ("not", EXIT)))),
    ("E[!EXIT U Q1]", ("EU", ("not", EXIT), Q1)),
    ("AX !EXIT", ("AX", ("not", EXIT))),
    ("AG EF Q1", ("AG", ("EF", Q1))),
)

LAYERS = ("data", "geometry", "partition", "elm", "hybrid", "reach", "abstraction", "ctl", "cli")


class Gate:
    """Attempted and failed operations: CLI calls and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail.strip()[-2000:]}")
        return ok


class Pipeline:
    """Timings and artifacts of one fit -> abstract -> verify pass."""

    def __init__(self, out_dir: Path, dataset: int = 0):
        self.out_dir = out_dir
        self.dataset = dataset
        self.seconds = {"fit": 0.0, "abstract": 0.0, "verify": 0.0}  # verify: the whole batch
        self.verify_out: list[tuple[str, str | None]] = []  # (formula, stdout) of every verify call
        self.ok = False
        self.digest: str | None = None

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    @property
    def artifacts(self) -> tuple[Path, Path, Path]:
        return self.out_dir / "model.json", self.out_dir / "ts.json", self.out_dir / "ts.dot"


def call(main, args: list[str], label: str, gate: Gate, tracer: Tracer | None) -> tuple[bool, float, str]:
    """One `dynabs` command in-process; returns (exit 0, seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{args[0]}") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            rc = main(args)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # the run goes on and reports the failure
        rc = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    ok = gate.record(label, rc == 0, f"exit {rc}; {err.getvalue()}")
    return ok, seconds, out.getvalue()


def run_pipeline(cli, w: workloads.Workload, csv_path: Path, out_dir: Path, gate: Gate,
                 tracer: Tracer | None = None, dataset: int = 0) -> Pipeline:
    """fit, abstract, then the verify batch once."""
    p = Pipeline(out_dir, dataset)
    fit, abstract = workloads.cli_args(w, str(csv_path), str(out_dir))
    ok, p.seconds["fit"], _ = call(cli.main, fit, "dynabs fit", gate, tracer)
    if ok:
        ok, p.seconds["abstract"], _ = call(cli.main, abstract, "dynabs abstract", gate, tracer)
    else:
        gate.record("dynabs abstract", False, "skipped: fit failed")
    if not ok:
        for text, _ in VERIFY_BATCH:
            gate.record(f"dynabs verify {text}", False, "skipped: no transition system")
        return p
    p.digest = checks.digest(*p.artifacts)

    for text, _ in VERIFY_BATCH:
        args = ["verify", "--ts", str(out_dir / "ts.json"), "--formula", text, "--initial", "1"]
        v_ok, seconds, stdout = call(cli.main, args, f"dynabs verify {text}", gate, tracer)
        p.seconds["verify"] += seconds
        p.verify_out.append((text, stdout if v_ok else None))
    p.ok = all(stdout is not None for _, stdout in p.verify_out)
    return p


def setup(w: workloads.Workload, seed: int, work: Path):
    """Import dynabs afresh, generate each dataset's samples and write its CSV; median of repeats.

    Returns (seconds, dynabs, dynabs.cli, [(csv path, z, y) per dataset])."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "dynabs" or m.startswith("dynabs.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        dynabs = importlib.import_module("dynabs")
        cli = importlib.import_module("dynabs.cli")
        data = []
        for d in range(workloads.DATASETS):
            z, y = workloads.generate(w, seed, d)
            workloads.write_csv(work / f"data{d}.csv", z, y, w.n_u)
            data.append((work / f"data{d}.csv", z, y))
        times.append(time.perf_counter() - t0)
    return statistics.median(times), dynabs, cli, data


def install_tracer(tracer: Tracer) -> None:
    """Wrap each layer's public functions at the names their callers look up."""
    mod = {n: importlib.import_module(f"dynabs.{n}") for n in ("cli", "data", "geometry", "hybrid", "reach", "abstraction")}
    cli, hybrid, abstraction, reach = mod["cli"], mod["hybrid"], mod["abstraction"], mod["reach"]
    model_cls, ts_cls = hybrid.HybridModel, abstraction.TransitionSystem
    counts = tracer.counts

    def on_partition(t, args, kwargs, parts):
        counts["partition.partitions"] += len(parts)
        counts["partition.split_tests"] += len(parts.split_log)
        counts["partition.split_accepts"] += sum(1 for entry in parts.split_log if entry[3])

    def on_merge(t, args, kwargs, model):
        counts["hybrid.pair_tests"] += model.stats.pair_tests
        counts["hybrid.merges"] += model.stats.merges

    def on_fit_weights(t, args, kwargs, net):
        counts["elm.fit_rows"] += len(args[1])

    def on_cells(t, args, kwargs, parts):
        counts["abstraction.trace_states"] += len(args[1])

    def on_successor(t, args, kwargs, result):
        counts["reach.pieces"] += len(result.pieces)

    tracer.patch(cli, "load_dataset", "data.load_dataset")
    tracer.patch(mod["data"].Dataset, "subset", "data.subset", count_only=True)
    tracer.patch(cli, "me_partition", "partition.fit", on_partition)
    tracer.patch(cli, "merge_and_learn", "hybrid.merge_and_learn", on_merge)
    tracer.patch(hybrid, "fit_output_weights", "elm.fit_output_weights", on_fit_weights)
    tracer.patch(cli, "mse", "elm.mse")
    tracer.patch(cli, "hybrid_mse", "hybrid.hybrid_mse")
    tracer.patch(model_cls, "locate_batch", "hybrid.locate_batch")
    tracer.patch(model_cls, "predict_located", "hybrid.predict_located")
    tracer.patch(model_cls, "save", "hybrid.model_save")
    tracer.patch(model_cls, "load", "hybrid.model_load")
    tracer.patch(hybrid, "membership_matrix", "geometry.membership_matrix")
    tracer.patch(abstraction, "membership_matrix", "geometry.membership_matrix")
    tracer.patch(mod["geometry"].Box, "intersect", "geometry.box_intersect", count_only=True)
    tracer.patch(cli, "sample_traces", "abstraction.sample_traces")
    tracer.patch(cli, "build_cells", "abstraction.build_cells")
    tracer.patch(abstraction, "me_partition", "partition.cells", on_cells)
    tracer.patch(cli, "compute_transitions", "abstraction.compute_transitions")
    tracer.patch(abstraction, "cell_successor_box", "reach.cell_successor_box", on_successor)
    tracer.patch(reach, "elm_output_box", "reach.elm_output_box")
    tracer.patch(reach.Bounds, "overlaps_box", "reach.bounds_overlaps_box", count_only=True)
    tracer.patch(cli, "export_dot", "abstraction.export_dot")
    tracer.patch(ts_cls, "save", "abstraction.ts_save")
    tracer.patch(ts_cls, "load", "abstraction.ts_load")
    tracer.patch(cli, "parse_ctl", "ctl.parse")
    tracer.patch(cli, "check", "ctl.check")
    tracer.patch(cli, "sat_set", "ctl.sat_set")


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def git_commit() -> str:
    """HEAD of the checkout from `.git` itself; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if it is one."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def repeats(w: workloads.Workload, seconds: int) -> int:
    """Untraced pipelines per run: enough to fill `seconds` at the nominal speed, at least MIN_PASSES.

    The count depends only on the arguments, so every run of a workload takes
    its median over the same mix of datasets and of first and later passes.
    """
    return max(MIN_PASSES, round(seconds / w.nominal_s))


def gate_soundness(gate: Gate, model: checks.ModelDoc, ts: checks.TsDoc, w: workloads.Workload,
                   trace_seed: int) -> checks.WitnessResult:
    wit = checks.witness_check(model, ts, w.traces, w.trace_length, trace_seed)
    gate.record("soundness: simulated transitions in R", wit.missing_edges == 0,
                f"{wit.missing_edges} simulated edges missing from R")
    gate.record("soundness: exits map to EXIT edges", wit.missing_exits == 0,
                f"{wit.missing_exits} cells exit without an EXIT edge")
    return wit


def gate_verdicts(gate: Gate, graph: ctlref.Graph, runs: list[Pipeline]) -> None:
    expected = {}
    for text, formula in VERIFY_BATCH:
        states = ctlref.sat(graph, formula)
        expected[text] = (0 in states, ctlref.labels(graph, states))
    for k, p in enumerate(runs):
        for text, stdout in p.verify_out:
            if stdout is None:
                continue
            doc = json.loads(stdout)
            result, labels = expected[text]
            gate.record(f"verdict {text} (pass {k})", doc["result"] == result and doc["sat_set"] == labels,
                        f"got result={doc['result']} with {len(doc['sat_set'])} states, "
                        f"reference result={result} with {len(labels)} states")


def check_dataset(gate: Gate, dynabs, w: workloads.Workload, passes: list[Pipeline], z: np.ndarray,
                  y: np.ndarray, seed: int, log=print) -> dict[str, float]:
    """Gate the first pass's artifacts of one dataset and every verdict of its passes.

    Returns the artifact-derived metrics, or {} if that pass failed."""
    first = passes[0]
    if not first.ok:
        return {}
    t_checks = time.perf_counter()
    model_path, ts_path, _ = first.artifacts
    model = checks.ModelDoc(checks.load_json(model_path))
    ts = checks.TsDoc.from_doc(checks.load_json(ts_path))
    n = ts.n_cells
    quality = {
        "hybrid.mse": model.mse(z, y),
        "hybrid.regions": model.n_regions,
        "hybrid.region_boxes": len(model.owner),
        "abstraction.cells": n,
        "abstraction.edges": int(ts.relation.sum()),
        "abstraction.max_out_degree": int(ts.relation[:n].sum(axis=1).max()),
        "abstraction.exit_edges": int(ts.relation[:n, n].sum()),
    }

    wit = gate_soundness(gate, model, ts, w, seed + 1)
    quality["abstraction.witnessed_edge_fraction"] = wit.fraction

    program_model = dynabs.HybridModel.load(model_path)
    cells = checks.check_cells(ts.n_cells, CHECK_CELLS)
    enc = checks.enclosure_check(dynabs, program_model, model, ts, cells, CHECK_POINTS, seed + 2)
    gate.record("soundness: Monte-Carlo images inside successor pieces", enc.violations == 0,
                f"{enc.violations} of {enc.points} images escape their piece")
    quality["reach.width_ratio_p50"] = float(np.percentile(enc.width_ratios, 50))
    quality["reach.width_ratio_p90"] = float(np.percentile(enc.width_ratios, 90))

    gate_verdicts(gate, ctlref.Graph(ts.relation), passes)
    log(f"checks data{first.dataset}: {wit.transitions} simulated transitions witness {wit.witnessed} of "
        f"{wit.cell_edges} cell edges; {enc.points} Monte-Carlo images in {len(cells)} cells; "
        f"{time.perf_counter() - t_checks:.1f}s")
    return quality


def run(w: workloads.Workload, seed: int, seconds: int, trace: bool, work: Path,
        spans_path: Path | None = None, log=print) -> dict:
    """Set up, measure and check one workload; returns the result document.

    The untraced passes take the datasets in turn; the traced pass runs on
    dataset 0. A traced run writes its spans to `spans_path` at the end."""
    work.mkdir(parents=True, exist_ok=True)
    setup_s, dynabs, cli, data = setup(w, seed, work)
    log("env " + json.dumps(environment(seed), sort_keys=True))
    gate = Gate()

    runs: list[Pipeline] = []
    for k in range(repeats(w, seconds)):
        d = k % workloads.DATASETS
        gc.collect()
        runs.append(run_pipeline(cli, w, data[d][0], work / f"pass{k}", gate, dataset=d))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = list(runs)

    tracer = None
    if trace:
        gc.collect()
        tracer = Tracer()
        install_tracer(tracer)
        try:
            runs.append(run_pipeline(cli, w, data[0][0], work / "traced", gate, tracer))
        finally:
            tracer.restore()

    for k, p in enumerate(runs):
        times = " ".join(f"{stage}={sec:.3f}s" for stage, sec in p.seconds.items())
        log(f"pass{k} data{p.dataset}{' (traced)' if tracer and p is runs[-1] else ''}: {times} digest={p.digest}")
    quality: dict[str, float] = {}  # artifact-derived metrics of dataset 0
    for d, (_, z, y) in enumerate(data):
        passes = [p for p in runs if p.dataset == d]
        for k, p in enumerate(passes[1:], 1):
            gate.record(f"determinism data{d} repeat{k}", p.digest is not None and p.digest == passes[0].digest,
                        f"artifact digest {p.digest} != {passes[0].digest}")
        found = check_dataset(gate, dynabs, w, passes, z, y, seed, log)
        if d == 0:
            quality = found

    ok_frac = (gate.attempted - len(gate.failures)) / gate.attempted
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pipeline_s": (statistics.median(p.total for p in untraced), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ops_ok_frac": (ok_frac, "ratio"),
        }
    else:
        base_s = statistics.median(p.total for p in untraced if p.dataset == 0)
        metrics = layer_metrics(tracer, runs[-1], base_s, quality)
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(tracer.to_doc()) + "\n", encoding="utf-8")
            log(f"spans written: {spans_path}")

    for name, (value, unit) in metrics.items():
        log(f"metric {name} = {value} {unit}")
    for failure in gate.failures:
        log(f"FAILED {failure}")
    return {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def layer_metrics(tracer: Tracer, traced: Pipeline, untraced_s: float,
                  quality: dict) -> dict[str, tuple[float | None, str]]:
    names, self_s = tracer.summary()
    counts = tracer.counts

    def wall(name):
        return names.get(name, (0, 0.0))[1]

    def calls(name):
        return names.get(name, (0, 0.0))[0]

    def ratio(num, den):
        return num / den if den else None

    ts_bytes = traced.artifacts[1].stat().st_size if traced.ok else None
    m = {
        "cli.fit_s": (traced.seconds["fit"], "s"),
        "cli.abstract_s": (traced.seconds["abstract"], "s"),
        "cli.verify_s": (traced.seconds["verify"], "s"),
        "partition.fit_s": (wall("partition.fit"), "s"),
        "partition.partitions": (counts["partition.partitions"], "count"),
        "partition.split_tests": (counts["partition.split_tests"], "count"),
        "partition.split_accept_ratio": (ratio(counts["partition.split_accepts"], counts["partition.split_tests"]), "ratio"),
        "partition.cells_s": (wall("partition.cells"), "s"),
        "hybrid.merge_and_learn_s": (wall("hybrid.merge_and_learn"), "s"),
        "hybrid.pair_tests": (counts["hybrid.pair_tests"], "count"),
        "hybrid.merges": (counts["hybrid.merges"], "count"),
        "hybrid.merge_accept_ratio": (ratio(counts["hybrid.merges"], counts["hybrid.pair_tests"]), "ratio"),
        "hybrid.regions": (quality.get("hybrid.regions"), "count"),
        "hybrid.region_boxes": (quality.get("hybrid.region_boxes"), "count"),
        "hybrid.mse": (quality.get("hybrid.mse"), "1"),
        "elm.fit_output_weights_calls": (calls("elm.fit_output_weights"), "count"),
        "elm.fit_output_weights_s": (wall("elm.fit_output_weights"), "s"),
        "elm.fit_rows": (counts["elm.fit_rows"], "count"),
        "data.subset_calls": (counts["data.subset"], "count"),
        "hybrid.locate_batch_calls": (calls("hybrid.locate_batch"), "count"),
        "hybrid.locate_batch_s": (wall("hybrid.locate_batch"), "s"),
        "hybrid.predict_located_s": (wall("hybrid.predict_located"), "s"),
        "geometry.membership_matrix_s": (wall("geometry.membership_matrix"), "s"),
        "abstraction.sample_traces_s": (wall("abstraction.sample_traces"), "s"),
        "abstraction.trace_states": (counts["abstraction.trace_states"], "count"),
        "abstraction.compute_transitions_s": (wall("abstraction.compute_transitions"), "s"),
        "reach.cell_successor_box_calls": (calls("reach.cell_successor_box"), "count"),
        "reach.cell_successor_box_s": (wall("reach.cell_successor_box"), "s"),
        "reach.pieces_per_cell": (ratio(counts["reach.pieces"], calls("reach.cell_successor_box")), "count"),
        "reach.elm_output_box_s": (wall("reach.elm_output_box"), "s"),
        "geometry.box_intersect_calls": (counts["geometry.box_intersect"], "count"),
        "reach.bounds_overlaps_box_calls": (counts["reach.bounds_overlaps_box"], "count"),
        "abstraction.cells": (quality.get("abstraction.cells"), "count"),
        "abstraction.edges": (quality.get("abstraction.edges"), "count"),
        "abstraction.max_out_degree": (quality.get("abstraction.max_out_degree"), "count"),
        "abstraction.exit_edges": (quality.get("abstraction.exit_edges"), "count"),
        "abstraction.witnessed_edge_fraction": (quality.get("abstraction.witnessed_edge_fraction"), "ratio"),
        "reach.width_ratio_p50": (quality.get("reach.width_ratio_p50"), "ratio"),
        "reach.width_ratio_p90": (quality.get("reach.width_ratio_p90"), "ratio"),
        "data.load_dataset_s": (wall("data.load_dataset"), "s"),
        "hybrid.model_save_s": (wall("hybrid.model_save"), "s"),
        "hybrid.model_load_s": (wall("hybrid.model_load"), "s"),
        "abstraction.ts_save_s": (wall("abstraction.ts_save"), "s"),
        "abstraction.ts_load_s": (wall("abstraction.ts_load"), "s"),
        "abstraction.ts_json_bytes": (ts_bytes, "bytes"),
        "abstraction.export_dot_s": (wall("abstraction.export_dot"), "s"),
        "ctl.parse_s": (wall("ctl.parse"), "s"),
        "ctl.check_s": (wall("ctl.check"), "s"),
        "ctl.sat_set_s": (wall("ctl.sat_set"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.overhead_frac"] = (traced.total / untraced_s - 1.0, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed (data only)")
    parser.add_argument("--seconds", type=int, default=30, help="measuring time that sets the pass count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")

    src = ROOT / "src"
    if not (src / "dynabs" / "__init__.py").is_file():
        print(f"error: no program sources at {src / 'dynabs'}; run from a dynabs checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work = ROOT / ".pipebench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    spans = Path(".pipebench_out") / f"spans-{args.workload}-s{args.seed}.json"
    try:
        result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work,
                     ROOT / spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
