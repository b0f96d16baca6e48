"""Command-line pipeline: fit, abstract, verify, bench, simulate.

Configuration comes from an optional JSON file plus flag overrides (flags
win), so an experiment is reproducible from its config alone. Exit codes:
0 success, 2 usage error, 3 data error, 4 numeric failure (a non-finite
training error, model step or reach enclosure), 141 stdout closed by its
reader (as a shell reports a command that SIGPIPE killed).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import statistics
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .abstraction import TransitionSystem, build_cells, compute_transitions, export_dot, sample_traces
# check is not called here, but the benchmark's traced run (pipebench/run.py)
# wraps this module's name for it, so the import stays
from .ctl import CtlSyntaxError, check, format_ctl, parse_ctl, sat_set  # noqa: F401
from .data import JSON_KINDS, DataError, Dataset, WorkingZone, _short, load_dataset, zone_from_data
# nor is mse: the traced run wraps this module's name for it too
from .elm import mse  # noqa: F401
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
        if (self.input_lo is None) != (self.input_hi is None):
            raise UsageError("input_lo and input_hi must be given together")
        if self.n_u == 0 and self.input_lo is not None:
            raise UsageError("input_lo/input_hi are given, but the dataset has no inputs (n_u = 0)")
        for key, dim in (("omega_lo", "n_x"), ("omega_hi", "n_x"), ("input_lo", "n_u"), ("input_hi", "n_u")):
            value, want = getattr(self, key), getattr(self, dim)
            if value is not None and len(value) != want:
                raise UsageError(f"{key} has {len(value)} entr{'y' if len(value) == 1 else 'ies'}, "
                                 f"expected {dim} = {want}")
        if self.omega_lo is not None:
            Box(np.asarray(self.omega_lo), np.asarray(self.omega_hi))  # validity check

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
    """Partition, merge and fit; returns (partition count, model, training
    MSE of the model). The partition is dropped on return.

    The training MSE is the sample-weighted mean of the region MSEs that
    `merge_and_learn` takes from each region's final statistics
    (`MergeStats.rows` and `MergeStats.mse`), so no sample is stepped after
    the merge sweep. A non-finite training MSE (the data overflow the readout
    solve) raises FloatingPointError, so no model is written.
    """
    zone = _zone_for(cfg, data)
    parts = me_partition(zone, data.states, cfg.epsilon)
    model = merge_and_learn(parts, data, hidden_count=cfg.hidden_count, seed=cfg.seed, gamma=cfg.gamma)
    train_mse = float(np.dot(model.stats.rows, model.stats.mse)) / len(data)
    if not np.isfinite(train_mse):
        raise FloatingPointError(f"hybrid training MSE is {train_mse!r}, not finite: the data overflow the fit")
    return len(parts), model, train_mse


def cmd_fit(args) -> int:
    cfg = _config_from_args(args)
    # the samples and the partition are freed here, before the model is written
    partitions, model, train_mse = _fit_model(cfg, _load_for(cfg))

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "model.json"
    model.save(model_path)

    stats = model.stats
    print(f"partitions: {partitions}")
    print(f"regions after merge: {model.n_regions}")
    for region, (rows, region_mse, secs) in enumerate(zip(stats.rows, stats.mse, stats.fit_seconds), start=1):
        print(f"region {region:3d}: samples={rows:6d}  mse={region_mse:.6e}  fit_ms={secs * 1e3:.4f}")
    print(f"total mse: {train_mse:.6e}")
    print(f"total fit time: {stats.total_fit_seconds * 1e3:.4f} ms")
    print(f"model written: {model_path}")
    return 0


def cmd_abstract(args) -> int:
    cfg = _config_from_args(args)
    # an initial cell id is checked as soon as its bound is known: below 1 before any work,
    # above the cell count before the transitions
    if args.initial is not None and args.initial < 1:
        raise UsageError(f"initial cell id {args.initial} out of range: cell ids start at 1")
    model = HybridModel.load(args.model)
    cells = build_cells(model.zone, sample_traces(model, cfg.traces, cfg.trace_length, cfg.seed), cfg.epsilon)
    if args.initial is not None and args.initial > len(cells):
        raise UsageError(f"initial cell id {args.initial} out of range 1..{len(cells)}")
    ts = compute_transitions(model, cells, initial=args.initial)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ts_path = out_dir / "ts.json"
    dot_path = out_dir / "ts.dot"
    ts.save(ts_path)
    with open(dot_path, "w", encoding="utf-8") as f:
        export_dot(ts, f)

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
    rows = []
    # at epsilon inf no split is kept: the reference is the one-region model `fit --epsilon inf` writes
    reference = replace(cfg, epsilon=math.inf, hidden_count=cfg.reference_hidden_count)
    for variant, fit_cfg in (("hybrid", cfg), ("reference", reference)):
        _, model, train_mse = _fit_model(fit_cfg, data)
        rows.append({
            "variant": variant,
            "networks": model.n_regions,
            "hidden_count": fit_cfg.hidden_count,
            "samples": len(data),
            "median_fit_ms": statistics.median(model.stats.fit_seconds) * 1e3,
            "total_fit_ms": model.stats.total_fit_seconds * 1e3,
            "mse": train_mse,
        })

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = out_dir / "bench.csv"
    with open(report, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    for row in rows:
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
    if len(args.x0) != model.zone.n_x:
        raise UsageError(f"x0 needs n_x = {model.zone.n_x} comma-separated numbers, got {len(args.x0)}")
    ib, rng = model.zone.input_bounds, np.random.default_rng(args.seed)
    inputs = rng.uniform(ib.lo, ib.hi, size=(args.steps, ib.dim)) if model.zone.n_u else None
    result = model.simulate(args.x0, inputs, args.steps)
    doc = {"states": result.states.tolist(), "exited_at": result.exited_at}
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


def _fit_flags(p: argparse.ArgumentParser) -> None:
    _add_config_flags(p, *_DATA_KEYS, "epsilon", "gamma", "hidden_count", "seed", "out_dir")


def _abstract_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model JSON produced by fit")
    p.add_argument("--initial", type=int, help="cell id to mark as initial")
    _add_config_flags(p, "epsilon", "traces", "trace_length", "seed", "out_dir")


def _verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ts", required=True, help="transition-system JSON produced by abstract")
    p.add_argument("--formula", required=True, help="CTL formula, e.g. 'EF Q2'")
    p.add_argument("--initial", required=True, type=int, help="initial cell id")


def _bench_flags(p: argparse.ArgumentParser) -> None:
    _add_config_flags(p, *_DATA_KEYS, "epsilon", "gamma", "hidden_count", "reference_hidden_count",
                      "seed", "out_dir")


def _simulate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model JSON produced by fit")
    p.add_argument("--x0", required=True, type=_csv_floats, help="comma-separated start state")
    p.add_argument("--steps", required=True, type=int, help="number of steps")
    p.add_argument("--seed", type=int, default=0, help="seed for random inputs, if the model has any")
    p.add_argument("--out", help="write the trace JSON here instead of stdout")


# subcommand: (help, function adding its flags, function running it)
_COMMANDS = {
    "fit": ("partition, merge, and train the hybrid model", _fit_flags, cmd_fit),
    "abstract": ("sample traces, build cells, compute transitions", _abstract_flags, cmd_abstract),
    "verify": ("check a CTL formula on a transition system", _verify_flags, cmd_verify),
    "bench": ("compare hybrid training against one large network", _bench_flags, cmd_bench),
    "simulate": ("roll out the hybrid model from a start state", _simulate_flags, cmd_simulate),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `dynabs` parser, built once per process: `parse_args` keeps no
    state between calls, so every call of `main` parses with it."""
    parser = argparse.ArgumentParser(
        prog="dynabs",
        description="Learn a neural hybrid model from one-step samples, abstract it into "
                    "a finite transition system, and verify CTL formulas against it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_flags, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        add_flags(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout: exit as SIGPIPE would, and let the flush at exit go to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
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
