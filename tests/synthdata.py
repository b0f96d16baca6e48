"""Synthetic datasets and fixture models shared across the test suite."""

from __future__ import annotations

import json

import numpy as np

from dynabs import Box, Dataset, ElmNetwork, HybridModel, Region, WorkingZone, init_elm, me_partition, merge_and_learn


def swirl_step(x: np.ndarray, damping: float = 0.96, base_angle: float = 0.15, twist: float = 0.1) -> np.ndarray:
    """Contracting planar swirl: rotate by an angle that grows with radius."""
    r2 = (x * x).sum(axis=1, keepdims=True)
    th = base_angle + twist * r2
    c, s = np.cos(th), np.sin(th)
    return damping * np.concatenate(
        [c * x[:, :1] - s * x[:, 1:], s * x[:, :1] + c * x[:, 1:]], axis=1
    )


def swirl_dataset(n_samples: int = 2000, seed: int = 1, **swirl_kwargs) -> Dataset:
    """One-step samples harvested from swirl trajectories inside [-1, 1]^2."""
    rng = np.random.default_rng(seed)
    steps = 100
    n_traj = max(1, n_samples // steps)
    zs, ys = [], []
    for _ in range(n_traj):
        # initial L2 norm < 1 and the map is an L2 contraction, so every
        # visited state stays inside [-1, 1]^2
        x = rng.uniform(-0.7, 0.7, size=(1, 2))
        for _ in range(steps):
            nxt = swirl_step(x, **swirl_kwargs)
            zs.append(x[0])
            ys.append(nxt[0])
            x = nxt
    z = np.asarray(zs)[:n_samples]
    y = np.asarray(ys)[:n_samples]
    return Dataset(2, 0, z, y)


def random_tiling_cases(n_cases: int = 50):
    """Criterion 1's random datasets: (zone, points, epsilon, probes) per case,
    2-D and 3-D in turn, 100..10 000 uniform points on [-1, 1]^dim."""
    rng = np.random.default_rng(1001)
    for k in range(n_cases):
        dim = 2 if k % 2 == 0 else 3
        n = int(rng.integers(100, 10_001))
        pts = rng.uniform(-1.0, 1.0, size=(n, dim))
        zone = WorkingZone(Box(-np.ones(dim), np.ones(dim)))
        eps = float(rng.uniform(0.02, 0.2))
        yield zone, pts, eps, rng.uniform(-1.0, 1.0, size=(10_000, dim))


def swirl_zone() -> WorkingZone:
    return WorkingZone(Box([-1.0, -1.0], [1.0, 1.0]))


def two_cluster_points(seed: int = 7, per_cluster: int = 100) -> np.ndarray:
    """Half below x1=0.5, half above; uniform within each half of [0,1]^2."""
    rng = np.random.default_rng(seed)
    left = np.column_stack([
        rng.uniform(0.0, 0.5, per_cluster),
        rng.uniform(0.0, 1.0, per_cluster),
    ])
    right = np.column_stack([
        rng.uniform(0.5, 1.0, per_cluster),
        rng.uniform(0.0, 1.0, per_cluster),
    ])
    return np.concatenate([left, right])


def two_cluster_dataset(seed: int = 7, per_cluster: int = 100) -> Dataset:
    pts = two_cluster_points(seed, per_cluster)
    return Dataset(2, 0, pts, 0.5 * pts)  # contraction toward the origin corner


def unit_zone() -> WorkingZone:
    return WorkingZone(Box([0.0, 0.0], [1.0, 1.0]))


def constant_net(c, n_in: int):
    """Network that outputs the constant vector c everywhere."""
    c = np.asarray(c, dtype=float)
    net = init_elm(n_in, c.size, 1, seed=0)
    w_in = np.zeros((1, n_in))
    b_in = np.ones(1)
    w_out = c.reshape(-1, 1)
    return type(net)(w_in, b_in, w_out, 1, 0)


def single_region_model(zone: WorkingZone, net, gamma: float = 0.0, epsilon: float = 0.0) -> HybridModel:
    return HybridModel(
        zone=zone,
        regions=(Region(1, (zone.omega,)),),
        networks=(net,),
        gamma=gamma,
        epsilon=epsilon,
    )


def split_region_model(zone: WorkingZone, nets, j: int = 0) -> HybridModel:
    """Two-region model: the zone bisected once along dimension j."""
    left, right = zone.omega.bisect(j)
    return HybridModel(
        zone=zone,
        regions=(Region(1, (left,)), Region(2, (right,))),
        networks=tuple(nets),
        gamma=0.0,
        epsilon=0.0,
    )


def alternating_slab_model(zone: WorkingZone, nets, levels: int = 3) -> HybridModel:
    """Two-region model over the zone bisected `levels` times along dimension
    0; the regions alternate slab by slab, region 1 owning the first."""
    slabs = [zone.omega]
    for _ in range(levels):
        slabs = [half for s in slabs for half in s.bisect(0)]
    return HybridModel(
        zone=zone,
        regions=(Region(1, tuple(slabs[0::2])), Region(2, tuple(slabs[1::2]))),
        networks=tuple(nets),
        gamma=0.0,
        epsilon=0.0,
    )


def overflowing_model() -> HybridModel:
    """One region on [-1, 1]^2 with finite weights whose interval enclosure of
    any cell holding the corner (1, 1) is NaN: w_in z overflows to inf only
    within about 3e-3 of that corner, and the zero readout weights turn inf
    into NaN. Elsewhere the concrete step stays finite and maps into
    [0, 0.18] x {0}, so sampled traces do not overflow."""
    w_in = np.full((3, 2), 0.9e308)
    w_out = np.zeros((2, 3))
    w_out[0, 0] = 1e-309
    return single_region_model(swirl_zone(), ElmNetwork(w_in, np.zeros(3), w_out, 3, 0))


def fitted_swirl_model(seed: int = 0, n_samples: int = 2000, epsilon: float = 0.04,
                       gamma: float = 1.5e-5, **swirl_kwargs) -> tuple[HybridModel, Dataset]:
    data = swirl_dataset(n_samples, seed=seed + 1, **swirl_kwargs)
    zone = swirl_zone()
    parts = me_partition(zone, data.states, epsilon)
    model = merge_and_learn(parts, data, hidden_count=20, seed=seed, gamma=gamma)
    return model, data


def tiny_transition_system(relation, n_cells: int):
    """TransitionSystem with the given relation over a 1-D bisection tiling:
    [0, 1] bisected, then its upper half, and so on, n_cells cells in all."""
    from dynabs import TransitionSystem

    zone = WorkingZone(Box([0.0], [1.0]))
    cells, rest = [], zone.omega
    for _ in range(n_cells - 1):
        lower, rest = rest.bisect(0)
        cells.append(lower)
    return TransitionSystem(zone, (*cells, rest), np.asarray(relation, dtype=bool))


def random_transition_system(rng, max_cells: int = 4):
    """Random total relation over up to max_cells cells plus the sink."""
    n = int(rng.integers(1, max_cells + 1))
    rel = rng.random((n + 1, n + 1)) < rng.uniform(0.15, 0.6)
    rel[n, :] = False
    rel[n, n] = True
    for i in range(n):
        if not rel[i].any():
            rel[i, int(rng.integers(n + 1))] = True
    return tiny_transition_system(rel, n)


def random_ctl_formula(rng, n_cells: int, depth: int) -> tuple:
    """A random formula tuple (see dynabs.ctl) of at most `depth` operator levels."""
    roll = rng.integers(0, 10) if depth > 0 else rng.integers(0, 3)
    if roll == 0:
        return ("true",)
    if roll == 1:
        return ("exit",)
    if roll == 2:
        return ("cell", int(rng.integers(1, n_cells + 1)))
    if roll == 3:
        return ("not", random_ctl_formula(rng, n_cells, depth - 1))
    if roll in (4, 5, 6):
        if roll == 6:
            op = "EU" if rng.integers(2) else "AU"
        else:
            op = "and" if roll == 4 else "or"
        return (op, random_ctl_formula(rng, n_cells, depth - 1), random_ctl_formula(rng, n_cells, depth - 1))
    op = ["EX", "AX", "EF", "AF", "EG", "AG"][int(rng.integers(6))]
    return (op, random_ctl_formula(rng, n_cells, depth - 1))


def ctl_subformulas(f: tuple):
    """f and every formula nested in it, depth first."""
    yield f
    for child in f[1:]:
        if isinstance(child, tuple):
            yield from ctl_subformulas(child)


def malformed_box_docs(box: dict, name: str) -> dict[str, tuple[dict | None, str]]:
    """Defective copies of one box document: {case: (box, what its error names)}.

    A JSON string, boolean or number where the other kind belongs, a bound
    that is not finite, a degenerate or ragged box, and a missing bound.
    """

    def first(key, value) -> dict:
        return {**box, key: [value, *box[key][1:]]}

    return {
        'closed_hi "no"': (first("closed_hi", "no"), f"{name}.closed_hi"),
        "closed_hi 2": (first("closed_hi", 2), f"{name}.closed_hi"),
        'lo "0.5"': (first("lo", str(box["lo"][0])), f"{name}.lo"),
        "lo true": (first("lo", True), f"{name}.lo"),
        "hi NaN": (first("hi", float("nan")), f"{name}.hi[0]"),
        "hi Infinity": (first("hi", float("inf")), f"{name}.hi[0]"),
        "hi beyond the float range": (first("hi", 10 ** 400), f"{name}.hi[0]"),
        "degenerate": ({**box, "hi": box["lo"]}, f"{name} is degenerate"),
        "ragged": ({**box, "lo": [*box["lo"], 0.0]}, f"{name}.lo"),
        "missing hi": ({k: v for k, v in box.items() if k != "hi"}, f"{name} is missing key 'hi'"),
        "not an object": ([box["lo"], box["hi"]], f"{name} must be an object"),
    }


def malformed_model_texts(text: str) -> dict[str, tuple[str, str]]:
    """Defective copies of a saved model.json's text: {case: (text, what its error names)}.

    Each copy breaks one region box (the second box of the first region that
    has two, so that the name carries both indices) or the zone's omega, as
    `malformed_box_docs` lists, and keeps everything else valid.
    """
    doc = json.loads(text)
    i = next((i for i, r in enumerate(doc["regions"]) if len(r["boxes"]) > 1), 0)
    j = min(1, len(doc["regions"][i]["boxes"]) - 1)
    cases = {}
    for case, (box, named) in malformed_box_docs(doc["regions"][i]["boxes"][j], f"regions[{i}].boxes[{j}]").items():
        bad = json.loads(text)
        bad["regions"][i]["boxes"][j] = box
        cases[case] = (json.dumps(bad), named)
    omega = doc["zone"]["omega"]
    cases["omega closed_hi 1"] = (
        json.dumps({**doc, "zone": {**doc["zone"], "omega": {**omega, "closed_hi": [1] * len(omega["lo"])}}}),
        "zone.omega.closed_hi")
    return cases


def malformed_ts_texts(text: str) -> dict[str, tuple[str, str]]:
    """Defective copies of a saved ts.json's text: {case: (text, what its error names)}.

    Each copy breaks one thing, the relation, the document around it, cell 1
    (as `malformed_box_docs` lists) or the initial cell id, and keeps
    everything else valid.
    """
    doc = json.loads(text)
    rel = doc["relation"]

    def changed(key, value) -> str:
        return json.dumps({**doc, key: value})

    cells = {
        f"cell {case}": (changed("cells", [doc["cells"][0], box, *doc["cells"][2:]]), named)
        for case, (box, named) in malformed_box_docs(doc["cells"][1], "cells[1]").items()
    }

    def first_entry(value) -> str:
        return changed("relation", [[value, *rel[0][1:]], *rel[1:]])

    start = text.index('"relation"')
    return {
        "ragged row": (changed("relation", [*rel[:-1], rel[-1][:-1]]), "relation"),
        "n x (n+1)": (changed("relation", [row + [0] for row in rel]), "relation"),
        "three-deep nesting": (changed("relation", [[[v] for v in row] for row in rel]), "relation"),
        "entry 2": (first_entry(2), "relation"),
        "entry 0.5": (first_entry(0.5), "relation"),
        "entry true": (first_entry(True), "relation"),
        'entry "01"': (first_entry("01"), "relation"),
        "empty matrix": (changed("relation", []), "relation"),
        "missing key": (json.dumps({k: v for k, v in doc.items() if k != "relation"}), "relation"),
        "truncated": (text[: (start + text.index("\n", start)) // 2], "relation"),
        "trailing data": (text + "{}\n", "relation"),
        "initial 1.5": (changed("initial", 1.5), "initial"),
        "initial true": (changed("initial", True), "initial"),
        "cells not a list": (changed("cells", {"0": doc["cells"][0]}), "cells"),
        **cells,
    }
