"""Command-line pipeline: fit, abstract, verify, bench, simulate.

Configuration comes from an optional JSON file plus flag overrides (flags
win), so an experiment is reproducible from its config alone. Exit codes:
0 success, 2 usage error, 3 data error, 4 numeric failure (a non-finite
training error or reach enclosure).
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .abstraction import TransitionSystem, build_cells, compute_transitions, export_dot, sample_traces
# check is not called here, but the benchmark's traced run (pipebench/run.py)
# wraps this module's name for it, so the import stays
from .ctl import CtlSyntaxError, check, format_ctl, parse_ctl, sat_set  # noqa: F401
from .data import JSON_KINDS, DataError, Dataset, WorkingZone, _short, load_dataset, zone_from_data
from .elm import fit_output_weights, init_elm, mse
from .geometry import Box
# hybrid_mse is not called here, but the benchmark's traced run
# (pipebench/run.py) wraps this module's name for it, so the import stays
from .hybrid import HybridModel, hybrid_mse, merge_and_learn  # noqa: F401
from .partition import me_partition

MAX_STEPS = 10**6  # the most steps of one run: the bound of trace_length and of simulate's --steps


class UsageError(ValueError):
    """Bad configuration or arguments (exit code 2)."""


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}") from None


# flag type: (what a config file gives for its keys, its exact JSON kind)
_CONFIG_KINDS = {
    int: ("an integer", "integer"),
    float: ("a number", "number"),
    str: ("a string", "string"),
    _csv_floats: ("a list of numbers", "list of numbers"),
}


def _key(default, kind, text: str, at_least=None, at_most=None):
    """A config key: its default, the type of its flag (--key with '-' for
    '_'), the flag's help, and the bounds `validate` holds its value to."""
    return field(default=default, metadata={"kind": kind, "help": text, "at_least": at_least, "at_most": at_most})


@dataclass
class PipelineConfig:
    dataset: str | None = _key(None, str, "CSV file of one-step samples")
    n_x: int = _key(2, int, "state dimension", at_least=1)
    n_u: int = _key(0, int, "input dimension (0 for autonomous)", at_least=0)
    omega_lo: list[float] | None = _key(None, _csv_floats, "zone lower corner")
    omega_hi: list[float] | None = _key(None, _csv_floats, "zone upper corner")
    input_lo: list[float] | None = _key(None, _csv_floats, "input lower bounds")
    input_hi: list[float] | None = _key(None, _csv_floats, "input upper bounds")
    # NaN fails the lower bound; inf is allowed
    epsilon: float = _key(4e-2, float, "entropy-gain threshold for partitioning", at_least=0)
    gamma: float = _key(1.5e-5, float, "pooled-MSE threshold for merging", at_least=0)
    hidden_count: int = _key(20, int, "neurons per sub-network", at_least=1, at_most=4096)
    reference_hidden_count: int = _key(200, int, "neurons of the single reference network", at_least=1, at_most=4096)
    traces: int = _key(400, int, "number of traces sampled for abstraction", at_least=1, at_most=10**6)
    trace_length: int = _key(400, int, "steps per sampled trace", at_least=1, at_most=MAX_STEPS)
    seed: int = _key(0, int, "random seed", at_least=0)
    out_dir: str = _key(".", str, "artifact directory")

    def validate(self) -> None:
        for f in fields(self):
            value, at_least, at_most = getattr(self, f.name), f.metadata["at_least"], f.metadata["at_most"]
            shown = repr(value) if type(value) is float else _short(value)  # nan and inf as Python writes them
            if at_least is not None and not value >= at_least:
                raise UsageError(f"{f.name} must be >= {at_least}, got {shown}")
            if at_most is not None and value > at_most:
                raise UsageError(f"{f.name} must be <= {at_most}, got {shown}")
        if (self.omega_lo is None) != (self.omega_hi is None):
            raise UsageError("omega_lo and omega_hi must be given together")
        if self.omega_lo is not None:
            Box(np.asarray(self.omega_lo), np.asarray(self.omega_hi))  # validity check
        if (self.input_lo is None) != (self.input_hi is None):
            raise UsageError("input_lo and input_hi must be given together")

    @classmethod
    def from_file(cls, path) -> PipelineConfig:
        """Config from a JSON object whose values have their keys' flag types;
        null is taken only where the default is None."""
        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f)
        except ValueError as exc:  # json.JSONDecodeError is one
            raise UsageError(f"config file {path} is not JSON: {exc}") from None
        except RecursionError:
            raise UsageError(f"config file {path} nests JSON values too deeply to read") from None
        if not JSON_KINDS["object"](raw):
            raise UsageError(f"config file {path} must hold a JSON object, got {_short(raw)}")
        keys = {f.name: f for f in fields(cls)}
        unknown = set(raw) - set(keys)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            what, kind = _CONFIG_KINDS[keys[key].metadata["kind"]]
            if not (JSON_KINDS[kind](value) or (value is None and keys[key].default is None)):
                raise UsageError(f"config key {key!r} must be {what}, got {_short(value)}")
        return cls(**raw)


def _config_from_args(args) -> PipelineConfig:
    cfg = PipelineConfig.from_file(args.config) if getattr(args, "config", None) else PipelineConfig()
    overrides = {}
    for f in fields(PipelineConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            overrides[f.name] = val
    cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def _zone_for(cfg: PipelineConfig, data: Dataset) -> WorkingZone:
    """Omega and, when the data have inputs, input bounds: from the config
    where given, else the data's tight bounds; every sample must lie in omega."""
    if data.n_u == 0 and cfg.input_lo is not None:
        raise UsageError("input_lo/input_hi are given, but the dataset has no inputs (n_u = 0)")
    tight = zone_from_data(data)
    omega = tight.omega if cfg.omega_lo is None else Box(cfg.omega_lo, cfg.omega_hi)
    input_bounds = tight.input_bounds if cfg.input_lo is None else Box(cfg.input_lo, cfg.input_hi)
    zone = WorkingZone(omega, input_bounds)
    zone.check_dataset(data)
    return zone


def _load_for(cfg: PipelineConfig) -> Dataset:
    if not cfg.dataset:
        raise UsageError("no dataset given (config key 'dataset' or --dataset)")
    return load_dataset(cfg.dataset, cfg.n_x, cfg.n_u)


def _fit_model(cfg: PipelineConfig, data: Dataset):
    """Partition, merge and fit; returns (parts, model, training MSE of the
    model, region id of each sample, each sample's squared error).

    One located prediction over the data gives both the total and the
    per-region errors. A non-finite training MSE (the data overflow the
    readout solve) raises FloatingPointError, so no model is written.
    """
    zone = _zone_for(cfg, data)
    parts = me_partition(zone, data.states, cfg.epsilon)
    model = merge_and_learn(parts, data, hidden_count=cfg.hidden_count, seed=cfg.seed, gamma=cfg.gamma)
    ids = model.locate_batch(data.states)
    err = model.predict_located(data.z, ids) - data.y
    sq_err = np.sum(err * err, axis=1)
    train_mse = float(np.mean(sq_err))
    if not np.isfinite(train_mse):
        raise FloatingPointError(f"hybrid training MSE is {train_mse!r}, not finite: the data overflow the fit")
    return parts, model, train_mse, ids, sq_err


def cmd_fit(args) -> int:
    cfg = _config_from_args(args)
    data = _load_for(cfg)
    parts, model, train_mse, ids, sq_err = _fit_model(cfg, data)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "model.json"
    model.save(model_path)

    stats = model.stats
    print(f"partitions: {len(parts)}")
    print(f"regions after merge: {model.n_regions}")
    for region, secs in zip(model.regions, stats.fit_seconds):
        region_err = sq_err[ids == region.id]
        mse_text = f"{np.mean(region_err):.6e}" if region_err.size else "n/a (no samples)"
        print(f"region {region.id:3d}: samples={region_err.size:6d}  mse={mse_text}  fit_ms={secs * 1e3:.4f}")
    print(f"total mse: {train_mse:.6e}")
    print(f"total fit time: {stats.total_fit_seconds * 1e3:.4f} ms")
    print(f"model written: {model_path}")
    return 0


def cmd_abstract(args) -> int:
    cfg = _config_from_args(args)
    model = HybridModel.load(args.model)
    traces = sample_traces(model, cfg.traces, cfg.trace_length, cfg.seed)
    cells = build_cells(model.zone, traces, cfg.epsilon)
    ts = compute_transitions(model, cells, initial=args.initial)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ts_path = out_dir / "ts.json"
    dot_path = out_dir / "ts.dot"
    ts.save(ts_path)
    dot_path.write_text(export_dot(ts), encoding="utf-8")

    print(f"cells: {ts.n_cells}")
    print(f"edges: {ts.edge_count()}")
    print(f"transition system written: {ts_path}")
    print(f"graph written: {dot_path}")
    return 0


def cmd_verify(args) -> int:
    ts = TransitionSystem.load(args.ts)
    formula = parse_ctl(args.formula)
    if not 1 <= args.initial <= ts.n_cells:
        raise UsageError(f"initial cell id {args.initial} out of range 1..{ts.n_cells}")
    sat = sat_set(ts, formula)
    print(json.dumps({
        "formula": format_ctl(formula),
        "initial": args.initial,
        "result": args.initial in sat,
        "sat_set": [ts.state_label(i) for i in sorted(sat)],
    }, indent=2))
    return 0


def cmd_bench(args) -> int:
    cfg = _config_from_args(args)
    data = _load_for(cfg)

    _, model, train_mse, _, _ = _fit_model(cfg, data)
    sub_times = [s for s in model.stats.fit_seconds if s > 0.0]
    hybrid_row = {
        "variant": "hybrid",
        "networks": model.n_regions,
        "hidden_count": cfg.hidden_count,
        "samples": len(data),
        "median_fit_ms": statistics.median(sub_times) * 1e3 if sub_times else 0.0,
        "total_fit_ms": model.stats.total_fit_seconds * 1e3,
        "mse": train_mse,
    }

    reference = init_elm(data.n_x + data.n_u, data.n_x, cfg.reference_hidden_count, cfg.seed)
    t0 = time.perf_counter()
    reference = fit_output_weights(reference, data)
    ref_seconds = time.perf_counter() - t0
    reference_row = {
        "variant": "reference",
        "networks": 1,
        "hidden_count": cfg.reference_hidden_count,
        "samples": len(data),
        "median_fit_ms": ref_seconds * 1e3,
        "total_fit_ms": ref_seconds * 1e3,
        "mse": mse(reference, data),
    }

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = out_dir / "bench.csv"
    with open(report, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=list(hybrid_row))
        writer.writeheader()
        writer.writerow(hybrid_row)
        writer.writerow(reference_row)

    for row in (hybrid_row, reference_row):
        print(
            f"{row['variant']:9s} networks={row['networks']:3d} hidden={row['hidden_count']:4d} "
            f"median_fit_ms={row['median_fit_ms']:.4f} total_fit_ms={row['total_fit_ms']:.4f} "
            f"mse={row['mse']:.6e}"
        )
    print(f"report written: {report}")
    return 0


def cmd_simulate(args) -> int:
    if not 0 <= args.steps <= MAX_STEPS:  # before the inputs are drawn, whose shape it gives, or any step
        raise UsageError("steps must be >= 0" if args.steps < 0 else f"steps must be <= {MAX_STEPS}, got {args.steps}")
    model = HybridModel.load(args.model)
    n_x, entries = model.zone.n_x, args.x0.split(",")
    wanted = f"x0 needs n_x = {n_x} comma-separated numbers, got {len(entries)}"
    if len(entries) != n_x:
        raise UsageError(wanted)
    try:
        x0 = np.array([float(v) for v in entries])
    except ValueError as exc:
        raise UsageError(f"{wanted} ({exc})") from None
    inputs = None
    if model.zone.n_u > 0:
        rng = np.random.default_rng(args.seed)
        ib = model.zone.input_bounds
        inputs = rng.uniform(ib.lo, ib.hi, size=(args.steps, ib.dim))
    result = model.simulate(x0, inputs, args.steps)
    doc = {
        "states": result.states.tolist(),
        "out_of_zone_steps": result.out_of_zone_steps,
        "truncated": result.truncated,
        "message": result.message,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"trace written: {args.out}")
    else:
        print(json.dumps(doc, indent=2))
    return 0


_DATA_KEYS = ("dataset", "n_x", "n_u", "omega_lo", "omega_hi", "input_lo", "input_hi")


def _add_config_flags(p: argparse.ArgumentParser, *keys: str) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    meta = {f.name: f.metadata for f in fields(PipelineConfig)}
    for key in keys:
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=meta[key]["kind"], help=meta[key]["help"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynabs",
        description="Learn a neural hybrid model from one-step samples, abstract it into "
                    "a finite transition system, and verify CTL formulas against it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="partition, merge, and train the hybrid model")
    _add_config_flags(p, *_DATA_KEYS, "epsilon", "gamma", "hidden_count", "seed", "out_dir")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("abstract", help="sample traces, build cells, compute transitions")
    p.add_argument("--model", required=True, help="model JSON produced by fit")
    p.add_argument("--initial", type=int, help="cell id to mark as initial")
    _add_config_flags(p, "epsilon", "traces", "trace_length", "seed", "out_dir")
    p.set_defaults(func=cmd_abstract)

    p = sub.add_parser("verify", help="check a CTL formula on a transition system")
    p.add_argument("--ts", required=True, help="transition-system JSON produced by abstract")
    p.add_argument("--formula", required=True, help="CTL formula, e.g. 'EF Q2'")
    p.add_argument("--initial", required=True, type=int, help="initial cell id")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="compare hybrid training against one large network")
    _add_config_flags(p, *_DATA_KEYS, "epsilon", "gamma", "hidden_count", "reference_hidden_count",
                      "seed", "out_dir")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("simulate", help="roll out the hybrid model from a start state")
    p.add_argument("--model", required=True, help="model JSON produced by fit")
    p.add_argument("--x0", required=True, help="comma-separated start state")
    p.add_argument("--steps", required=True, type=int, help="number of steps")
    p.add_argument("--seed", type=int, default=0, help="seed for random inputs, if the model has any")
    p.add_argument("--out", help="write the trace JSON here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, CtlSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
