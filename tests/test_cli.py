import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynabs
from dynabs import ctl
from dynabs import Box, Dataset, ElmNetwork, WorkingZone, me_partition, save_dataset, zone_from_data
from dynabs.cli import MAX_STEPS, PipelineConfig, main
from dynabs.elm import ReadoutStats
from dynabs.hybrid import HybridModel, SimResult

from oracles import sequential_merge
from synthdata import (constant_net, malformed_model_texts, malformed_ts_texts, overflowing_model,
                       random_transition_system, single_region_model, swirl_dataset, swirl_zone,
                       tiny_transition_system)


@pytest.fixture()
def dataset_csv(tmp_path):
    path = tmp_path / "swirl.csv"
    save_dataset(path, swirl_dataset(1200, seed=1))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_timestamps(doc):
    doc = dict(doc)
    doc.pop("created_utc", None)
    return doc


def test_fit_writes_model_and_reports(dataset_csv, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run(
        capsys, "fit", "--dataset", dataset_csv, "--n-x", 2, "--n-u", 0,
        "--omega-lo=-1,-1", "--omega-hi=1,1", "--seed", 0, "--out-dir", out_dir,
    )
    assert code == 0
    assert (out_dir / "model.json").exists()
    assert "partitions:" in out and "regions after merge:" in out
    assert "total mse:" in out and "total fit time:" in out
    # the per-region table splits the total: its sample-weighted mean is the total MSE
    rows = [(int(n), float(m)) for n, m in re.findall(r"samples=\s*(\d+)\s+mse=(\d\S*)", out)]
    total = float(re.search(r"total mse: (\S+)", out).group(1))
    assert sum(n for n, _ in rows) == 1200
    assert sum(n * m for n, m in rows) / 1200 == pytest.approx(total, rel=1e-5)


def test_fit_missing_dataset_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code, _, err = run(capsys, "fit", "--dataset", missing, "--n-x", 2, "--n-u", 0)
    assert code == 3
    assert "nope.csv" in err


def test_fit_degenerate_thresholds_single_region(dataset_csv, tmp_path, capsys):
    code, out, _ = run(
        capsys, "fit", "--dataset", dataset_csv, "--n-x", 2, "--n-u", 0,
        "--epsilon", 1e6, "--gamma", 1e6, "--out-dir", tmp_path / "d",
    )
    assert code == 0
    assert "partitions: 1\n" in out
    assert "regions after merge: 1\n" in out


def test_fit_config_file_with_flag_override(dataset_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dataset": str(dataset_csv), "n_x": 2, "n_u": 0,
        "epsilon": 1e6, "gamma": 1e6, "out_dir": str(tmp_path / "a"),
    }))
    code, out, _ = run(capsys, "fit", "--config", cfg)
    assert code == 0 and "partitions: 1\n" in out

    # flags win over the config file
    code, out, _ = run(capsys, "fit", "--config", cfg, "--epsilon", 0.04,
                       "--out-dir", tmp_path / "b")
    assert code == 0 and "partitions: 1\n" not in out


def test_fit_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": "x.csv", "epsilonn": 1.0}))
    code, _, err = run(capsys, "fit", "--config", cfg)
    assert code == 2
    assert "epsilonn" in err


def test_abstract_and_verify_flow(dataset_csv, tmp_path, capsys):
    out_dir = tmp_path / "flow"
    code, _, _ = run(
        capsys, "fit", "--dataset", dataset_csv, "--n-x", 2, "--n-u", 0,
        "--omega-lo=-1,-1", "--omega-hi=1,1", "--out-dir", out_dir,
    )
    assert code == 0
    code, out, _ = run(
        capsys, "abstract", "--model", out_dir / "model.json",
        "--traces", 40, "--trace-length", 40, "--seed", 1,
        "--initial", 1, "--out-dir", out_dir,
    )
    assert code == 0
    assert (out_dir / "ts.json").exists() and (out_dir / "ts.dot").exists()
    assert "cells:" in out and "edges:" in out
    dot = (out_dir / "ts.dot").read_text()
    assert dot.startswith("digraph") and "EXIT" in dot

    code, out, _ = run(
        capsys, "verify", "--ts", out_dir / "ts.json", "--formula", "EF Q1", "--initial", 1,
    )
    assert code == 0
    verdict = json.loads(out)
    assert set(verdict) == {"formula", "initial", "result", "sat_set"}
    assert verdict["initial"] == 1
    assert isinstance(verdict["result"], bool)
    assert "Q1" in verdict["sat_set"]


def test_verify_bad_formula_is_usage_error(dataset_csv, tmp_path, capsys):
    out_dir = tmp_path / "v"
    run(capsys, "fit", "--dataset", dataset_csv, "--n-x", 2, "--n-u", 0,
        "--epsilon", 1e6, "--gamma", 1e6, "--out-dir", out_dir)
    run(capsys, "abstract", "--model", out_dir / "model.json",
        "--traces", 5, "--trace-length", 5, "--out-dir", out_dir)
    code, _, err = run(capsys, "verify", "--ts", out_dir / "ts.json",
                       "--formula", "EF (Q1", "--initial", 1)
    assert code == 2 and "position" in err

    code, _, err = run(capsys, "verify", "--ts", tmp_path / "missing.json",
                       "--formula", "EF Q1", "--initial", 1)
    assert code == 3


def test_bench_report(dataset_csv, tmp_path, capsys):
    out_dir = tmp_path / "bench"
    code, out, _ = run(
        capsys, "bench", "--dataset", dataset_csv, "--n-x", 2, "--n-u", 0,
        "--out-dir", out_dir, "--seed", 0,
    )
    assert code == 0
    with open(out_dir / "bench.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["variant"] for r in rows] == ["hybrid", "reference"]
    for r in rows:
        assert np.isfinite(float(r["median_fit_ms"]))
        assert np.isfinite(float(r["total_fit_ms"]))
        assert np.isfinite(float(r["mse"]))
    assert int(rows[1]["hidden_count"]) == 200


def test_simulate_outputs_trace(dataset_csv, tmp_path, capsys):
    out_dir = tmp_path / "sim"
    run(capsys, "fit", "--dataset", dataset_csv, "--n-x", 2, "--n-u", 0,
        "--omega-lo=-1,-1", "--omega-hi=1,1", "--out-dir", out_dir)
    code, out, _ = run(capsys, "simulate", "--model", out_dir / "model.json",
                       "--x0", "0.3,0.2", "--steps", 10)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["states"]) == 11
    assert doc["truncated"] is False

    trace_file = out_dir / "trace.json"
    code, out, _ = run(capsys, "simulate", "--model", out_dir / "model.json",
                       "--x0", "0.3,0.2", "--steps", 5, "--out", trace_file)
    assert code == 0 and trace_file.exists()


def test_pipeline_determinism(dataset_csv, tmp_path, capsys):
    docs = []
    for name in ("r1", "r2"):
        out_dir = tmp_path / name
        run(capsys, "fit", "--dataset", dataset_csv, "--n-x", 2, "--n-u", 0,
            "--omega-lo=-1,-1", "--omega-hi=1,1", "--seed", 7, "--out-dir", out_dir)
        run(capsys, "abstract", "--model", out_dir / "model.json",
            "--traces", 30, "--trace-length", 30, "--seed", 7, "--out-dir", out_dir)
        docs.append((
            strip_timestamps(json.loads((out_dir / "model.json").read_text())),
            strip_timestamps(json.loads((out_dir / "ts.json").read_text())),
            (out_dir / "ts.dot").read_text(),
        ))
    assert docs[0] == docs[1]


def test_full_flow_with_external_input(tmp_path, capsys):
    # controlled 1-D system x' = 0.8 x + 0.2 u with u in [-0.5, 0.5]
    rng = np.random.default_rng(6)
    x = rng.uniform(-1.0, 1.0, 600)
    u = rng.uniform(-0.5, 0.5, 600)
    y = 0.8 * x + 0.2 * u
    from dynabs import Dataset

    data_path = tmp_path / "controlled.csv"
    save_dataset(data_path, Dataset(1, 1, np.column_stack([x, u]), y[:, None]))

    out_dir = tmp_path / "ctrl"
    code, out, _ = run(
        capsys, "fit", "--dataset", data_path, "--n-x", 1, "--n-u", 1,
        "--omega-lo=-1", "--omega-hi=1", "--input-lo=-0.5", "--input-hi=0.5",
        "--out-dir", out_dir,
    )
    assert code == 0
    code, out, _ = run(
        capsys, "abstract", "--model", out_dir / "model.json",
        "--traces", 50, "--trace-length", 30, "--seed", 2, "--out-dir", out_dir,
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", "--ts", out_dir / "ts.json",
                       "--formula", "AG (true)", "--initial", 1)
    assert code == 0 and json.loads(out)["result"] is True

    code, out, _ = run(capsys, "simulate", "--model", out_dir / "model.json",
                       "--x0", "0.9", "--steps", 8, "--seed", 1)
    assert code == 0
    assert len(json.loads(out)["states"]) == 9


def test_usage_error_on_missing_subcommand_args(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # argparse enforces required flags
    assert exc.value.code == 2


@pytest.mark.parametrize("column, value, position", [
    ("y1", "nan", "row 2, column 3 ('y1')"),
    ("x2", "inf", "row 2, column 2 ('x2')"),
])
def test_fit_rejects_non_finite_values(tmp_path, capsys, column, value, position):
    rows = [["x1", "x2", "y1", "y2"], ["0.1", "0.2", "0.3", "0.4"], ["0.5", "0.6", "0.7", "0.8"]]
    rows[2][rows[0].index(column)] = value
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    code, _, err = run(capsys, "fit", "--dataset", path, "--n-x", 2, "--n-u", 0,
                       "--out-dir", tmp_path / "out")
    assert code == 3
    assert position in err and "non-finite" in err
    assert not (tmp_path / "out" / "model.json").exists()


def test_abstract_and_verify_reject_malformed_artifacts(dataset_csv, tmp_path, capsys):
    out_dir = tmp_path / "m"
    code, _, _ = run(capsys, "fit", "--dataset", dataset_csv, "--n-x", 2, "--n-u", 0,
                     "--omega-lo=-1,-1", "--omega-hi=1,1", "--out-dir", out_dir)
    assert code == 0
    doc = json.loads((out_dir / "model.json").read_text())
    region = next(r for r in doc["regions"] if len(r["boxes"]) > 1)
    del region["boxes"][0]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code, _, err = run(capsys, "abstract", "--model", broken, "--out-dir", tmp_path / "a")
    assert code == 3 and "gap" in err

    for bad, model_named, ts_named in (
            ({"format_version": 1}, "zone is missing", "zone is missing"),
            ({"format_version": 99}, "model document has format_version 99",
             "transition-system document has format_version 99")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "abstract", "--model", path, "--out-dir", tmp_path / "a")
        assert code == 3 and model_named in err
        code, _, err = run(capsys, "verify", "--ts", path, "--formula", "EF Q1", "--initial", 1)
        assert code == 3 and ts_named in err


def test_abstract_rejects_malformed_model_boxes_naming_the_box(dataset_csv, tmp_path, capsys):
    out_dir = tmp_path / "m"
    code, _, _ = run(capsys, "fit", "--dataset", dataset_csv, "--n-x", 2, "--n-u", 0,
                     "--omega-lo=-1,-1", "--omega-hi=1,1", "--out-dir", out_dir)
    assert code == 0
    bad = tmp_path / "bad.json"
    for case, (text, named) in malformed_model_texts((out_dir / "model.json").read_text()).items():
        bad.write_text(text)
        code, _, err = run(capsys, "abstract", "--model", bad, "--out-dir", tmp_path / "a")
        assert code == 3 and named in err, case
    assert not (tmp_path / "a").exists()


def test_threads_option_is_gone(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": "x.csv", "threads": 2}))
    code, _, err = run(capsys, "fit", "--config", cfg)
    assert code == 2 and "threads" in err


def test_non_finite_weights_and_untiled_cells_exit_3(dataset_csv, tmp_path, capsys):
    out_dir = tmp_path / "m"
    code, _, _ = run(capsys, "fit", "--dataset", dataset_csv, "--n-x", 2, "--n-u", 0,
                     "--omega-lo=-1,-1", "--omega-hi=1,1", "--out-dir", out_dir)
    assert code == 0
    code, _, _ = run(capsys, "abstract", "--model", out_dir / "model.json", "--traces", 30,
                     "--trace-length", 30, "--out-dir", out_dir)
    assert code == 0

    doc = json.loads((out_dir / "model.json").read_text())
    doc["networks"][0]["w_out"][0][0] = float("nan")
    nan_model = tmp_path / "nan.json"
    nan_model.write_text(json.dumps(doc))
    for argv in (("simulate", "--model", nan_model, "--x0", "0.1,0.1", "--steps", 3),
                 ("abstract", "--model", nan_model, "--out-dir", tmp_path / "a")):
        code, _, err = run(capsys, *argv)
        assert code == 3 and "networks[0].w_out[0][0] is NaN, not a finite number" in err
    assert not (tmp_path / "a" / "ts.json").exists()

    doc = json.loads((out_dir / "ts.json").read_text())
    del doc["cells"][0]
    rel = np.asarray(doc["relation"])[1:, 1:]
    rel[:, -1] = 1  # square and total, so only the missing cell is wrong
    doc["relation"] = rel.tolist()
    gap_ts = tmp_path / "gap.json"
    gap_ts.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--ts", gap_ts, "--formula", "EF EXIT", "--initial", 1)
    assert code == 3 and "gap" in err


def test_fit_and_bench_on_overflowing_data_exit_4(tmp_path, capsys):
    """Finite values near the float limit pass load_dataset but overflow the
    readout statistics; the merge sweep fails on the first partition, before
    any pair test, with one error line and no numpy warning."""
    rng = np.random.default_rng(0)
    from dynabs import Dataset

    path = tmp_path / "huge.csv"
    save_dataset(path, Dataset(2, 0, rng.uniform(-1e300, 1e300, (200, 2)), rng.uniform(-1e300, 1e300, (200, 2))))
    for command in ("fit", "bench"):
        out_dir = tmp_path / command
        code, out, err = run(capsys, command, "--dataset", path, "--n-x", 2, "--n-u", 0, "--out-dir", out_dir)
        assert code == 4
        assert re.fullmatch(r"error: H\^T H, H\^T Y or sum Y\^2 of partition Box\(.*\) is not finite: "
                            r"the data overflow the fit\n", err)
        assert not out_dir.exists()


def test_fit_on_a_singular_pooled_solve_exits_4(tmp_path, capsys):
    """States of order 1e6 make a pooled readout solve singular at the
    default ridge: fit and bench fail with one error line naming the pooled
    partitions, the one-at-a-time sweep's text, and write nothing."""
    x = np.random.default_rng(0).uniform(-1e6, 1e6, (400, 2))
    data = Dataset(2, 0, x, 0.9 * x)
    path = tmp_path / "wide.csv"
    save_dataset(path, data)
    with pytest.raises(FloatingPointError) as expected:
        sequential_merge(me_partition(zone_from_data(data), x, 1e-3), data, 20, 0, 1.5e-5)
    assert "is singular" in str(expected.value)
    for command in ("fit", "bench"):
        out_dir = tmp_path / command
        code, out, err = run(capsys, command, "--dataset", path, "--n-x", 2, "--n-u", 0, "--epsilon", 1e-3,
                             "--out-dir", out_dir)
        assert (code, out, err) == (4, "", f"error: {expected.value}\n")
        assert not out_dir.exists()


def test_fit_on_a_singular_readout_solve_exits_4(dataset_csv, tmp_path, capsys, monkeypatch):
    """A LinAlgError from the final readout solve of a region exits 4 with
    one error line naming the region, and writes nothing. At epsilon 1 the
    zone is one partition, so no pair test solves anything before it."""
    def singular(self):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(ReadoutStats, "readout", singular)
    out_dir = tmp_path / "fit"
    code, out, err = run(capsys, "fit", "--dataset", dataset_csv, "--n-x", 2, "--n-u", 0, "--epsilon", 1,
                         "--out-dir", out_dir)
    assert (code, out) == (4, "")
    assert re.fullmatch(r"error: readout solve of region 1 \(1200 samples, first box Box\(.*\)\) is singular "
                        r"\(Singular matrix\)\n", err)
    assert not out_dir.exists()


def test_abstract_with_non_finite_enclosure_exits_4(tmp_path, capsys):
    """Finite weights that overflow the interval enclosure of a cell: abstract
    names the cell and the region and writes no ts.json, rather than a
    relation whose row for that cell drops real edges."""
    model_path = tmp_path / "model.json"
    overflowing_model().save(model_path)
    out_dir = tmp_path / "a"
    code, _, err = run(capsys, "abstract", "--model", model_path, "--traces", 20, "--trace-length", 5,
                         "--epsilon", 1e6, "--out-dir", out_dir)
    assert code == 4
    assert re.fullmatch(r"error: reach enclosure of cell Box\(.*\) under region 1 is not finite: .*\n", err)
    assert not (out_dir / "ts.json").exists()


def test_simulate_rejects_bad_start_state(dataset_csv, tmp_path, capsys):
    out_dir = tmp_path / "sim"
    code, _, _ = run(capsys, "fit", "--dataset", dataset_csv, "--n-x", 2, "--n-u", 0,
                     "--omega-lo=-1,-1", "--omega-hi=1,1", "--out-dir", out_dir)
    assert code == 0
    for x0, cause in (("nan,0", "coordinate 0 is nan"), ("0,inf", "coordinate 1 is inf"),
                      ("0.1,0.2,0.3", "x0 needs n_x = 2 comma-separated numbers, got 3\n"),
                      ("0.1", "x0 needs n_x = 2 comma-separated numbers, got 1\n"),
                      ("0.1,abc", "x0 needs n_x = 2 comma-separated numbers, got 2 "
                                  "(could not convert string to float: 'abc')\n")):
        code, out, err = run(capsys, "simulate", "--model", out_dir / "model.json", "--x0", x0, "--steps", 3)
        assert code == 2 and cause in err and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("input_bounds", [None, Box([-0.5], [0.5])])
def test_simulate_rejects_negative_steps_with_or_without_inputs(tmp_path, capsys, input_bounds):
    zone = WorkingZone(Box([-1.0, -1.0], [1.0, 1.0]), input_bounds)
    path = tmp_path / "model.json"
    single_region_model(zone, constant_net([0.0, 0.0], zone.n_x + zone.n_u)).save(path)
    code, out, err = run(capsys, "simulate", "--model", path, "--x0", "0.1,0.2", "--steps", -1)
    assert (code, out, err) == (2, "", "error: steps must be >= 0\n")


@pytest.mark.parametrize("input_bounds", [None, Box([-0.5], [0.5])])
def test_simulate_bounds_steps_as_trace_length_before_drawing_or_stepping(tmp_path, capsys, monkeypatch,
                                                                          input_bounds):
    """10**12 steps used to fail drawing 7.28 TiB of inputs, or to run for
    hours without inputs; above the bound nothing is drawn or stepped."""
    zone = WorkingZone(Box([-1.0, -1.0], [1.0, 1.0]), input_bounds)
    path = tmp_path / "model.json"
    single_region_model(zone, constant_net([0.0, 0.0], zone.n_x + zone.n_u)).save(path)
    assert MAX_STEPS == PipelineConfig.__dataclass_fields__["trace_length"].metadata["at_most"] == 10**6
    for steps in (10**12, MAX_STEPS + 1):
        code, out, err = run(capsys, "simulate", "--model", path, "--x0", "0.1,0.2", "--steps", steps)
        assert (code, out, err) == (2, "", f"error: steps must be <= 1000000, got {steps}\n")
    # the bound itself passes: the rollout is stubbed, since a million steps take a while
    taken = []
    monkeypatch.setattr(HybridModel, "simulate", lambda self, x0, inputs, steps: taken.append(
        (steps, None if inputs is None else inputs.shape)) or SimResult(np.atleast_2d(x0), []))
    code, _, err = run(capsys, "simulate", "--model", path, "--x0", "0.1,0.2", "--steps", MAX_STEPS)
    assert (code, err) == (0, "")
    assert taken == [(MAX_STEPS, None if input_bounds is None else (MAX_STEPS, 1))]


def test_each_command_offers_only_the_flags_it_reads(dataset_csv, tmp_path, capsys):
    for argv in (("fit", "--dataset", dataset_csv, "--traces", 5),
                 ("fit", "--dataset", dataset_csv, "--trace-length", 5),
                 ("fit", "--dataset", dataset_csv, "--reference-hidden-count", 5),
                 ("abstract", "--model", "model.json", "--gamma", 1e-3),
                 ("abstract", "--model", "model.json", "--hidden-count", 5),
                 ("abstract", "--model", "model.json", "--reference-hidden-count", 5),
                 ("bench", "--dataset", dataset_csv, "--traces", 5),
                 ("bench", "--dataset", dataset_csv, "--trace-length", 5)):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err

    # config-file keys stay: one file serves every command
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": str(dataset_csv), "epsilon": 1e6, "gamma": 1e6, "traces": 5,
                               "trace_length": 5, "reference_hidden_count": 5, "out_dir": str(tmp_path)}))
    for argv in (("fit",), ("abstract", "--model", tmp_path / "model.json"), ("bench",)):
        code, _, _ = run(capsys, *argv, "--config", cfg)
        assert code == 0


@pytest.mark.parametrize("omega", [(), ("--omega-lo=-1,-1", "--omega-hi=1,1")])
def test_input_bounds_without_inputs_are_a_usage_error(dataset_csv, tmp_path, capsys, omega):
    code, _, err = run(capsys, "fit", "--dataset", dataset_csv, "--n-x", 2, "--n-u", 0, *omega,
                       "--input-lo=-1", "--input-hi=1", "--out-dir", tmp_path / "out")
    assert code == 2
    assert "input_lo/input_hi" in err and "n_u = 0" in err
    assert not (tmp_path / "out").exists()


def test_tilings_cut_off_the_midpoint_exit_3(dataset_csv, tmp_path, capsys):
    """A model.json and a ts.json whose two halves are re-cut off the
    midpoint still tile the zone, but they are not bisection tilings."""
    out_dir = tmp_path / "m"
    code, _, _ = run(capsys, "fit", "--dataset", dataset_csv, "--n-x", 2, "--n-u", 0,
                     "--omega-lo=-1,-1", "--omega-hi=1,1", "--epsilon", 1e6, "--gamma", 1e6, "--out-dir", out_dir)
    assert code == 0
    code, _, _ = run(capsys, "abstract", "--model", out_dir / "model.json", "--epsilon", 1e6,
                     "--traces", 5, "--trace-length", 5, "--out-dir", out_dir)
    assert code == 0

    def recut(boxes):
        """The zone's two halves along x1, with the cut moved from 0 to 0.25."""
        (zone,) = boxes
        assert zone["lo"] == [-1.0, -1.0] and zone["hi"] == [1.0, 1.0]
        return [{"lo": [-1.0, -1.0], "hi": [0.25, 1.0], "closed_hi": [False, True]},
                {"lo": [0.25, -1.0], "hi": [1.0, 1.0], "closed_hi": [True, True]}]

    doc = json.loads((out_dir / "model.json").read_text())
    doc["regions"][0]["boxes"] = recut(doc["regions"][0]["boxes"])
    bad_model = tmp_path / "model.json"
    bad_model.write_text(json.dumps(doc))
    code, _, err = run(capsys, "abstract", "--model", bad_model, "--out-dir", tmp_path / "a")
    assert code == 3 and "not a bisection tiling" in err
    assert not (tmp_path / "a").exists()

    doc = json.loads((out_dir / "ts.json").read_text())
    doc["cells"] = recut(doc["cells"])
    doc["relation"] = [[1, 1, 1], [1, 1, 1], [0, 0, 1]]
    bad_ts = tmp_path / "ts.json"
    bad_ts.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--ts", bad_ts, "--formula", "EF Q1", "--initial", 1)
    assert code == 3 and "not a bisection tiling" in err


def test_verify_reads_any_json_spacing_and_rejects_malformed_ts(dataset_csv, tmp_path, capsys):
    out_dir = tmp_path / "m"
    code, _, _ = run(capsys, "fit", "--dataset", dataset_csv, "--n-x", 2, "--n-u", 0,
                     "--omega-lo=-1,-1", "--omega-hi=1,1", "--out-dir", out_dir)
    assert code == 0
    code, _, _ = run(capsys, "abstract", "--model", out_dir / "model.json", "--traces", 30,
                     "--trace-length", 30, "--initial", 1, "--out-dir", out_dir)
    assert code == 0
    text = (out_dir / "ts.json").read_text()
    verify = ("--formula", "EF Q2", "--initial", 1)
    code, out, _ = run(capsys, "verify", "--ts", out_dir / "ts.json", *verify)
    assert code == 0
    spaced = tmp_path / "spaced.json"
    spaced.write_text(json.dumps(json.loads(text), indent=2))
    assert run(capsys, "verify", "--ts", spaced, *verify) == (0, out, "")

    bad = tmp_path / "bad.json"
    for case, (bad_text, key) in malformed_ts_texts(text).items():
        bad.write_text(bad_text)
        code, _, err = run(capsys, "verify", "--ts", bad, *verify)
        assert code == 3 and key in err.replace(str(bad), ""), case


@pytest.mark.parametrize("doc, named", [
    (5, "must hold a JSON object, got 5"),
    (None, "must hold a JSON object, got null"),
    ([1, 2], "must hold a JSON object, got [1, 2]"),
    ({"epsilon": "abc"}, "'epsilon' must be a number, got \"abc\""),
    ({"n_x": "2"}, "'n_x' must be an integer"),
    ({"seed": 1.5}, "'seed' must be an integer"),
    ({"hidden_count": 2.5}, "'hidden_count' must be an integer"),
    ({"n_u": True}, "'n_u' must be an integer, got true"),
    ({"gamma": True}, "'gamma' must be a number"),
    ({"out_dir": None}, "'out_dir' must be a string"),
    ({"dataset": 7}, "'dataset' must be a string"),
    ({"omega_lo": [-1, "a"], "omega_hi": [1, 1]}, "'omega_lo' must be a list of numbers"),
    ({"omega_lo": -1, "omega_hi": [1, 1]}, "'omega_lo' must be a list of numbers"),
    ({"epsilon": 10**400}, "'epsilon' must be a number, got " + "1" + "0" * 56 + "..."),
    ({"n_x": 0}, "n_x must be >= 1, got 0"),
    ({"n_u": -1}, "n_u must be >= 0, got -1"),
    ({"hidden_count": 0}, "hidden_count must be >= 1, got 0"),
    ({"hidden_count": 10**30}, "hidden_count must be <= 4096, got 1" + "0" * 30 + "\n"),
    ({"reference_hidden_count": 0}, "reference_hidden_count must be >= 1, got 0"),
    ({"reference_hidden_count": 10**400}, "reference_hidden_count must be <= 4096, got 1" + "0" * 56 + "...\n"),
    ({"traces": 0}, "traces must be >= 1, got 0"),
    ({"trace_length": -5}, "trace_length must be >= 1, got -5"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"epsilon": -0.5}, "epsilon must be >= 0, got -0.5"),
    ({"gamma": -1e-9}, "gamma must be >= 0, got -1e-09"),
])
def test_fit_rejects_malformed_config_naming_the_key(dataset_csv, tmp_path, capsys, doc, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run(capsys, "fit", "--config", cfg, "--dataset", dataset_csv, "--out-dir", tmp_path / "o")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and named in err and err.count("\n") == 1


def test_config_that_is_not_json_exits_2_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "cut.json"
    cfg.write_text('{"epsilon": ')
    code, out, err = run(capsys, "fit", "--config", cfg)
    assert (code, out) == (2, "")
    assert err == f"error: config file {cfg} is not JSON: Expecting value: line 1 column 13 (char 12)\n"


def test_fit_names_a_degenerate_zone_in_plain_numbers(dataset_csv, tmp_path, capsys):
    code, out, err = run(capsys, "fit", "--dataset", dataset_csv, "--omega-lo=1,1", "--omega-hi=-1,-1",
                         "--out-dir", tmp_path / "o")
    assert (code, out, err) == (2, "", "error: degenerate box: dimension 0 has lo=1.0 >= hi=-1.0\n")


def test_config_null_is_taken_where_the_default_is_none(dataset_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"omega_lo": None, "omega_hi": None, "input_lo": None, "input_hi": None,
                               "epsilon": 1e6, "gamma": 1e6}))
    code, out, _ = run(capsys, "fit", "--config", cfg, "--dataset", dataset_csv, "--out-dir", tmp_path / "o")
    assert code == 0 and "partitions: 1\n" in out


@pytest.mark.parametrize("argv, key", [
    (("fit", "--epsilon", "nan"), "epsilon"),
    (("fit", "--gamma", "nan"), "gamma"),
    (("abstract", "--model", "model.json", "--epsilon", "nan"), "epsilon"),
])
def test_nan_thresholds_are_usage_errors(dataset_csv, tmp_path, capsys, argv, key):
    if argv[0] == "fit":
        argv = (*argv, "--dataset", dataset_csv)
    code, out, err = run(capsys, *argv, "--out-dir", tmp_path / "o")
    assert code == 2 and out == ""
    assert err == f"error: {key} must be >= 0, got nan\n"
    assert not (tmp_path / "o").exists()


def test_infinite_thresholds_stay_allowed(dataset_csv, tmp_path, capsys):
    code, out, _ = run(capsys, "fit", "--dataset", dataset_csv, "--epsilon", "inf", "--gamma", "inf",
                       "--out-dir", tmp_path / "o")
    assert code == 0 and "partitions: 1\n" in out and "regions after merge: 1\n" in out


def overflowing_step_model_path(tmp_path):
    """One region on [-1, 1]^2 whose step overflows on most of the zone."""
    net = ElmNetwork(np.full((3, 2), 1e308), np.zeros(3), np.full((2, 3), 1e-300), 3, 0)
    path = tmp_path / "model.json"
    single_region_model(swirl_zone(), net).save(path)
    return path


def test_abstract_on_overflowing_steps_exits_4(tmp_path, capsys):
    out_dir = tmp_path / "a"
    code, _, err = run(capsys, "abstract", "--model", overflowing_step_model_path(tmp_path),
                       "--traces", 20, "--trace-length", 5, "--out-dir", out_dir)
    assert code == 4
    assert re.fullmatch(r"error: model step from state \[.*\] in region 1 is not finite: \[.*\]\n", err)
    assert not (out_dir / "ts.json").exists()


def test_simulate_on_overflowing_steps_truncates_without_warnings(tmp_path, capsys):
    # pytest turns RuntimeWarning into errors, so a numpy overflow warning fails here
    code, out, err = run(capsys, "simulate", "--model", overflowing_step_model_path(tmp_path),
                         "--x0", "0.5,0.5", "--steps", 3)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["truncated"] and doc["message"] == "non-finite state produced at step 2"
    assert len(doc["states"]) == 2


@pytest.mark.parametrize("formula", ["!" * 3000 + "Q1", "(" * 3000 + "Q1" + ")" * 3000],
                         ids=["3000 negations", "3000 parentheses"])
def test_verify_rejects_deeply_nested_formula(tmp_path, capsys, formula):
    ts_path = tmp_path / "ts.json"
    tiny_transition_system([[1, 0], [0, 1]], 1).save(ts_path)
    code, out, err = run(capsys, "verify", "--ts", ts_path, "--formula", formula, "--initial", 1)
    assert code == 2 and out == ""
    assert err == "error: formula nests deeper than 100 levels at position 100\n"


# the benchmark's verify batch (pipebench/run.py): atoms that exist at any cell count
VERIFY_BATCH = ("EF EXIT", "AG !EXIT", "EG !EXIT", "A[!EXIT U Q1]", "AF AG !EXIT", "E[!EXIT U Q1]", "AX !EXIT",
                "AG EF Q1")


def test_verify_evaluates_each_formula_once_with_the_verdict_of_check(tmp_path, capsys, monkeypatch):
    """verify reads its verdict off the one satisfying set it computes: one
    top-level evaluation per command, and the JSON `check` and `sat_set`
    give. An initial cell out of range exits 2 before any evaluation."""
    top = []
    depth = [0]
    evaluate = ctl._sat

    def counted(ts, f):
        top.append(depth[0] == 0)
        depth[0] += 1
        try:
            return evaluate(ts, f)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ctl, "_sat", counted)
    rng = np.random.default_rng(20)
    systems = [random_transition_system(rng, max_cells=6) for _ in range(12)]
    systems.append(tiny_transition_system([[0, 1, 0], [1, 0, 0], [0, 0, 1]], 2))
    ts_path = tmp_path / "ts.json"
    for ts in systems:
        ts.save(ts_path)
        for text in VERIFY_BATCH:
            for initial in sorted({1, ts.n_cells}):
                top.clear()
                code, out, err = run(capsys, "verify", "--ts", ts_path, "--formula", text, "--initial", initial)
                assert (code, err, top.count(True)) == (0, "", 1), text
                formula = ctl.parse_ctl(text)
                assert json.loads(out) == {
                    "formula": ctl.format_ctl(formula),
                    "initial": initial,
                    "result": ctl.check(ts, formula, initial),
                    "sat_set": [ts.state_label(i) for i in sorted(ctl.sat_set(ts, formula))],
                }
        for initial in (0, ts.n_cells + 1):
            top.clear()
            code, out, err = run(capsys, "verify", "--ts", ts_path, "--formula", "EF Q99", "--initial", initial)
            assert (code, out, top) == (2, "", [])
            assert err == f"error: initial cell id {initial} out of range 1..{ts.n_cells}\n"


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """model.json and ts.json of one small swirl fit, shared by the load tests."""
    d = tmp_path_factory.mktemp("artifacts")
    save_dataset(d / "swirl.csv", swirl_dataset(1200, seed=1))
    assert main(["fit", "--dataset", str(d / "swirl.csv"), "--omega-lo=-1,-1", "--omega-hi=1,1",
                 "--out-dir", str(d)]) == 0
    assert main(["abstract", "--model", str(d / "model.json"), "--traces", "30", "--trace-length", "30",
                 "--out-dir", str(d)]) == 0
    return d


@pytest.mark.parametrize("change, named", [
    (lambda net: net["w_out"].pop(), "w_out has 1 rows, expected n_x = 2"),
    (lambda net: [row.append(0.5) for row in net["w_in"]], "w_in has 3 columns, expected n_x + n_u = 2"),
], ids=["one w_out row", "third w_in column"])
def test_network_widths_are_checked_against_the_zone_on_load(artifacts, tmp_path, capsys, change, named):
    doc = json.loads((artifacts / "model.json").read_text())
    k = len(doc["networks"]) - 1
    change(doc["networks"][k])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for argv in (("simulate", "--model", bad, "--x0", "0.1,0.1", "--steps", 3),
                 ("abstract", "--model", bad, "--traces", 5, "--trace-length", 5, "--out-dir", tmp_path / "a")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and f"networks[{k}].{named}" in err and out == "", argv[0]
    assert not (tmp_path / "a").exists()


# explicit ids keep these cases' names; each states the requirement that `named` pins
@pytest.mark.parametrize("artifact, path, value, named", [
    pytest.param("model.json", ("format_version",), True, "format_version must be a JSON integer, got true",
                 id="model.json-path0-True-format_version true"),
    pytest.param("model.json", ("format_version",), 1.0, "format_version must be a JSON integer, got 1.0",
                 id="model.json-path1-1.0-format_version 1.0"),
    pytest.param("ts.json", ("format_version",), True, "format_version must be a JSON integer, got true",
                 id="ts.json-path2-True-format_version true"),
    pytest.param("ts.json", ("format_version",), 1.0, "format_version must be a JSON integer, got 1.0",
                 id="ts.json-path3-1.0-format_version 1.0"),
    pytest.param("model.json", ("networks", 0, "w_in", 0, 1), "0.5",
                 'networks[0].w_in[0][1] must be a JSON number, got "0.5"',
                 id='model.json-path4-0.5-networks[0].w_in[0] holds "0.5"'),
    pytest.param("model.json", ("networks", 0, "w_out", 1, 0), True,
                 "networks[0].w_out[1][0] must be a JSON number, got true",
                 id="model.json-path5-True-networks[0].w_out[1] holds true"),
    pytest.param("model.json", ("networks", 0, "b_in", 2), True, "networks[0].b_in[2] must be a JSON number, got true",
                 id="model.json-path6-True-networks[0].b_in holds true"),
    pytest.param("model.json", ("gamma",), "1e-5", "gamma must be a JSON number, got \"1e-5\"",
                 id="model.json-path7-1e-5-key 'gamma' must be a JSON number, got \"1e-5\""),
    pytest.param("model.json", ("epsilon",), "0.01", "epsilon must be a JSON number, got \"0.01\"",
                 id="model.json-path8-0.01-key 'epsilon' must be a JSON number, got \"0.01\""),
    ("model.json", ("regions", 0, "id"), True, "regions[0].id must be a JSON integer, got true"),
    ("model.json", ("regions", 0, "id"), 1.0, "regions[0].id must be a JSON integer, got 1.0"),
    ("model.json", ("networks", 0, "hidden_count"), True, "networks[0].hidden_count must be a JSON integer"),
    ("model.json", ("networks", 0, "hidden_count"), 20.0, "networks[0].hidden_count must be a JSON integer"),
    ("model.json", ("networks", 0, "seed"), True, "networks[0].seed must be a JSON integer, got true"),
    ("model.json", ("networks", 0, "seed"), 1.7, "networks[0].seed must be a JSON integer, got 1.7"),
])
def test_artifact_loads_take_exact_json_types(artifacts, tmp_path, capsys, artifact, path, value, named):
    doc = json.loads((artifacts / artifact).read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / artifact
    bad.write_text(json.dumps(doc))
    if artifact == "model.json":
        argv = ("simulate", "--model", bad, "--x0", "0.1,0.1", "--steps", 1)
    else:
        argv = ("verify", "--ts", bad, "--formula", "EF Q1", "--initial", 1)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and named in err


DEEP = 100_000  # nesting far past Python's recursion limit


def test_deeply_nested_config_exits_2_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text('{"epsilon": ' + "[" * DEEP + "]" * DEEP + "}")
    code, out, err = run(capsys, "fit", "--config", cfg)
    assert (code, out) == (2, "")
    assert err == f"error: config file {cfg} nests JSON values too deeply to read\n"


def test_deeply_nested_artifact_value_exits_3_naming_the_file_and_key(artifacts, tmp_path, capsys):
    text = (artifacts / "model.json").read_text()
    zone = re.search(r'^  "zone": .*$', text, re.M).group()
    bad = tmp_path / "deep.json"
    bad.write_text(text.replace(zone, '  "zone": ' + "[" * DEEP + "]" * DEEP))
    code, out, err = run(capsys, "simulate", "--model", bad, "--x0", "0.1,0.1", "--steps", 3)
    assert (code, out) == (3, "")
    assert err == f"error: {bad}: key 'zone': JSON values nested too deeply to read\n"


@pytest.mark.parametrize("flag", ["--traces", "--trace-length"])
def test_trace_counts_past_their_bound_exit_2_naming_the_key(artifacts, tmp_path, capsys, flag):
    code, out, err = run(capsys, "abstract", "--model", artifacts / "model.json", flag, 10**30,
                         "--out-dir", tmp_path / "a")
    assert (code, out) == (2, "")
    assert err == f"error: {flag[2:].replace('-', '_')} must be <= 1000000, got {10**30}\n"
    assert not (tmp_path / "a").exists()


def test_trace_arrays_too_large_to_allocate_exit_2_naming_their_size(artifacts, tmp_path):
    """10**6 traces of 10**6 steps pass the config bounds, but their stacked
    states need 8 * 10**6 * (10**6 + 1) * n_x bytes, n_x = 2. The command runs in a child
    process whose address space is capped at 3 GB, so the allocation fails
    there at once and this process commits no memory for it."""
    pytest.importorskip("resource")
    limit = 3 << 30
    child = ("import resource, sys\n"
             f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
             "from dynabs.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(dynabs.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", child, "abstract", "--model", str(artifacts / "model.json"),
                           "--traces", "1000000", "--trace-length", "1000000", "--out-dir", str(tmp_path / "big")],
                          capture_output=True, text=True, env=env, timeout=300)
    need = 8 * 10**6 * (10**6 + 1) * 2
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: traces 1000000 x trace_length 1000000 need {need} bytes of stacked trace arrays, "
                           "more than can be allocated\n")
    assert not (tmp_path / "big").exists()
