"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import csv
import json
import time

import numpy as np

from dynabs import (
    Box,
    BoxTree,
    WorkingZone,
    build_cells,
    compute_transitions,
    elm_output_box,
    fit_output_weights,
    init_elm,
    me_partition,
    membership_matrix,
    predict_batch,
    sample_traces,
    sat_set,
    shannon_entropy,
)
from dynabs.cli import main
from dynabs.elm import DEFAULT_RIDGE

from oracles import normal_equations_fit, observed_transitions, oracle_sat
from synthdata import (
    ctl_subformulas,
    fitted_swirl_model,
    random_ctl_formula,
    random_tiling_cases,
    random_transition_system,
    swirl_dataset,
)


def report(n: int, text: str) -> None:
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_1_partition_tiling_on_random_datasets():
    t0 = time.perf_counter()
    for zone, pts, eps, probes in random_tiling_cases():
        parts = me_partition(zone, pts, eps)
        assert sum(a.size for a in parts.assignments) == len(pts)
        owners = membership_matrix(parts.boxes, probes).sum(axis=1)
        assert (owners == 1).all(), "probe point not in exactly one box"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"tiling check took {elapsed:.2f}s, budget is 5s"
    report(1, f"50 random datasets tiled exactly (10^4 probes each) in {elapsed:.2f}s")


def test_criterion_2_entropy_correctness():
    for n in (1, 5, 1000, 123456):
        assert abs(shannon_entropy([n, n]) - np.log(2.0)) < 1e-12

    rng = np.random.default_rng(1002)
    committed = 0
    for _ in range(10):
        pts = rng.uniform(0.0, 1.0, size=(int(rng.integers(50, 2000)), 2))
        eps = float(rng.uniform(0.01, 0.1))
        parts = me_partition(WorkingZone(Box([0.0, 0.0], [1.0, 1.0])), pts, eps)
        for _, _, delta_h, ok in parts.split_log:
            if ok:
                committed += 1
                assert delta_h >= eps
                assert delta_h >= -1e-12
    assert committed > 0
    report(2, f"entropy of even splits = ln 2 within 1e-12; {committed} committed splits all had dH >= epsilon")


def test_criterion_3_least_squares_oracle():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for k in range(20):
        from dynabs import Dataset

        z = rng.uniform(-1.0, 1.0, size=(200, 2))
        y = rng.uniform(-1.0, 1.0, size=(200, 2))
        data = Dataset(2, 0, z, y)
        net = init_elm(2, 2, 20, seed=2000 + k)
        fitted = fit_output_weights(net, data)
        expected = normal_equations_fit(net, data, DEFAULT_RIDGE)
        rel = np.linalg.norm(fitted.w_out - expected) / np.linalg.norm(expected)
        worst = max(worst, rel)
        assert rel < 1e-6
    report(3, f"20 randomized fits match the normal-equations oracle (worst rel err {worst:.2e})")


def test_criterion_4_reachability_soundness_monte_carlo():
    rng = np.random.default_rng(1004)
    t0 = time.perf_counter()
    violations = 0
    points_per_box = 100_000
    for k in range(20):
        from dynabs import Dataset

        net = init_elm(2, 2, 20, seed=3000 + k)
        data = Dataset(2, 0, rng.uniform(-2, 2, (100, 2)), rng.uniform(-2, 2, (100, 2)))
        net = fit_output_weights(net, data)
        for _ in range(20):
            lo = rng.uniform(-2.0, 1.0, 2)
            box = Box(lo, lo + rng.uniform(0.1, 2.0, 2))
            out_lo, out_hi = elm_output_box(net, box.lo[None], box.hi[None])
            z = rng.uniform(box.lo, box.hi, size=(points_per_box, 2))
            y = predict_batch(net, z)
            ok = (y >= out_lo - 1e-9) & (y <= out_hi + 1e-9)
            violations += int((~ok.all(axis=1)).sum())
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 60.0, f"soundness sweep took {elapsed:.1f}s, budget is 60s"
    report(4, f"4e7 Monte-Carlo points inside enclosures, zero violations, {elapsed:.1f}s")


def test_criterion_5_abstraction_soundness_on_fixture_models():
    fixtures = [
        dict(seed=0, twist=0.1, damping=0.96),
        dict(seed=1, twist=0.6, damping=0.96),
        dict(seed=2, twist=1.2, damping=0.90),
        dict(seed=3, twist=0.3, damping=0.92),
        dict(seed=4, twist=2.0, damping=0.88),
    ]
    checked = 0
    for fx in fixtures:
        model, _ = fitted_swirl_model(n_samples=800, epsilon=0.05, **fx)
        cells = build_cells(model.zone, sample_traces(model, 40, 60, seed=fx["seed"]), epsilon=0.05)
        ts = compute_transitions(model, cells)
        fresh = sample_traces(model, 100, 200, seed=900 + fx["seed"])
        src, dst, exits = observed_transitions(fresh, BoxTree(ts.zone.omega, ts.cells))
        assert ts.relation[src, dst].all(), "observed transition missing from R"
        assert ts.relation[exits, ts.n_cells].all(), "observed exit missing from R"
        checked += src.size + exits.size
    report(5, f"5 fixture models, 100x200-step traces each: {checked} observed transitions all in R")


def test_criterion_6_ctl_oracle_equivalence():
    rng = np.random.default_rng(1006)
    seen = set()
    for _ in range(200):
        ts = random_transition_system(rng)
        f = random_ctl_formula(rng, ts.n_cells, 3)
        seen.update(node[0] for node in ctl_subformulas(f))
        assert sat_set(ts, f) == oracle_sat(ts, f), f"checker disagrees with path oracle on {f}"
    required = {"EX", "AX", "EF", "AF", "EG", "AG", "EU", "AU", "and", "or", "not"}
    assert required <= seen, f"operator coverage incomplete: {sorted(required - seen)}"
    report(6, "200 random systems (<=5 states): fixpoint checker equals path-enumeration oracle exactly")


def test_criterion_7_bench_pattern_at_desk_scale(tmp_path, capsys):
    from dynabs import save_dataset

    data_path = tmp_path / "bench_data.csv"
    save_dataset(data_path, swirl_dataset(2000, seed=1, twist=0.6))
    out_dir = tmp_path / "bench_out"
    code = main([
        "bench", "--dataset", str(data_path), "--n-x", "2", "--n-u", "0",
        "--omega-lo=-1,-1", "--omega-hi=1,1", "--seed", "0",
        "--hidden-count", "20", "--reference-hidden-count", "200",
        "--out-dir", str(out_dir),
    ])
    capsys.readouterr()
    assert code == 0
    with open(out_dir / "bench.csv", newline="") as f:
        rows = {r["variant"]: r for r in csv.DictReader(f)}
    hybrid_ms = float(rows["hybrid"]["median_fit_ms"])
    reference_ms = float(rows["reference"]["median_fit_ms"])
    hybrid_mse_val = float(rows["hybrid"]["mse"])
    assert hybrid_ms * 5.0 <= reference_ms, (
        f"median sub-network fit {hybrid_ms:.4f}ms not 5x faster than reference {reference_ms:.4f}ms"
    )
    assert hybrid_mse_val <= 1e-4
    report(7, f"median sub-network fit {hybrid_ms:.3f}ms vs reference {reference_ms:.3f}ms "
              f"({reference_ms / hybrid_ms:.0f}x), hybrid mse {hybrid_mse_val:.2e} <= 1e-4")


def test_criterion_8_pipeline_determinism(tmp_path, capsys):
    from dynabs import save_dataset

    data_path = tmp_path / "data.csv"
    save_dataset(data_path, swirl_dataset(1000, seed=2, twist=0.6))
    artifacts = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        assert main([
            "fit", "--dataset", str(data_path), "--n-x", "2", "--n-u", "0",
            "--omega-lo=-1,-1", "--omega-hi=1,1", "--seed", "11",
            "--out-dir", str(out_dir),
        ]) == 0
        assert main([
            "abstract", "--model", str(out_dir / "model.json"),
            "--traces", "50", "--trace-length", "50", "--seed", "11",
            "--out-dir", str(out_dir),
        ]) == 0
        capsys.readouterr()
        model_doc = json.loads((out_dir / "model.json").read_text())
        ts_doc = json.loads((out_dir / "ts.json").read_text())
        model_doc.pop("created_utc")
        ts_doc.pop("created_utc")
        artifacts.append((model_doc, ts_doc, (out_dir / "ts.dot").read_text()))
    assert artifacts[0] == artifacts[1]
    report(8, "fit + abstract twice: identical artifacts (timestamp field excluded)")


def test_criterion_9_degenerate_thresholds(tmp_path, capsys):
    from dynabs import save_dataset

    data_path = tmp_path / "data.csv"
    save_dataset(data_path, swirl_dataset(500, seed=3))
    out_dir = tmp_path / "degenerate"
    assert main([
        "fit", "--dataset", str(data_path), "--n-x", "2", "--n-u", "0",
        "--omega-lo=-1,-1", "--omega-hi=1,1",
        "--epsilon", "1e6", "--gamma", "1e6", "--out-dir", str(out_dir),
    ]) == 0
    out = capsys.readouterr().out
    assert "partitions: 1\n" in out
    assert "regions after merge: 1\n" in out

    assert main([
        "abstract", "--model", str(out_dir / "model.json"),
        "--epsilon", "1e6", "--traces", "20", "--trace-length", "20",
        "--out-dir", str(out_dir),
    ]) == 0
    out = capsys.readouterr().out
    assert "cells: 1\n" in out

    assert main([
        "verify", "--ts", str(out_dir / "ts.json"),
        "--formula", "AG (Q1 | EXIT)", "--initial", "1",
    ]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["result"] is True
    report(9, "epsilon,gamma -> infinity give 1 partition / 1 region / 1 cell; AG (Q1 | EXIT) true from Q1")
