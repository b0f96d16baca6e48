"""Synthetic datasets and fixture models shared across the test suite."""

from __future__ import annotations

import json

import numpy as np

from dynabs import (Box, BoxTree, Dataset, ElmNetwork, HybridModel, WorkingZone, init_elm, me_partition,
                    merge_and_learn)


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


def vdp_step(x: np.ndarray, dt: float = 0.1) -> np.ndarray:
    """One RK4 step of Van der Pol with mu = 1, the state scaled by 1/4:
    s1' = s2, s2' = (1 - 16 s1^2) s2 - s1. Its limit cycle reaches about 0.5
    in s1."""
    def field(s):
        return np.stack([s[:, 1], (1 - 16 * s[:, 0] ** 2) * s[:, 1] - s[:, 0]], axis=1)

    k1 = field(x)
    k2 = field(x + 0.5 * dt * k1)
    k3 = field(x + 0.5 * dt * k2)
    k4 = field(x + dt * k3)
    return x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def swirl3_step(x: np.ndarray) -> np.ndarray:
    """The swirl (twist 0.6) in (x1, x2) plus x3+ = 0.9 x3 + 0.05 sin(3 x1)."""
    return np.concatenate([swirl_step(x[:, :2], twist=0.6), 0.9 * x[:, 2:] + 0.05 * np.sin(3 * x[:, :1])], axis=1)


def runs_dataset(step, dim: int, seed: int) -> Dataset:
    """20 000 one-step samples of the map `step`: 200 runs of 100 steps,
    started uniformly on [-0.7, 0.7]^dim, run after run."""
    x = np.empty((101, 200, dim))
    x[0] = np.random.default_rng(seed).uniform(-0.7, 0.7, size=(200, dim))
    for k in range(100):
        x[k + 1] = step(x[k])
    return Dataset(dim, 0, x[:-1].swapaxes(0, 1).reshape(-1, dim), x[1:].swapaxes(0, 1).reshape(-1, dim))


def vdp_dataset(seed: int = 1) -> Dataset:
    """Samples of the limit cycle `vdp_step`; at seed 1 every sample lies in
    [-1, 1]^2 (at seed 0 some leave it)."""
    return runs_dataset(vdp_step, 2, seed)


def swirl3_dataset(seed: int = 1) -> Dataset:
    """Samples of the 3-D swirl `swirl3_step`, all in [-1, 1]^3."""
    return runs_dataset(swirl3_step, 3, seed)


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


def tree_of(zone: Box | WorkingZone, boxes) -> BoxTree:
    """The `BoxTree` over a zone (a `Box`, or a `WorkingZone`'s omega) of a
    list of `Box`es, in list order."""
    omega = zone.omega if isinstance(zone, WorkingZone) else zone
    return BoxTree(omega, *(np.reshape([getattr(b, key) for b in boxes], (-1, omega.dim))
                            for key in ("lo", "hi", "closed_hi")))


def count_boxes(monkeypatch) -> list[int]:
    """Patch `Box` so that each `Box` made adds 1 to the one entry of the
    list returned."""
    made = [0]
    post_init = Box.__post_init__

    def counted_post_init(box):
        made[0] += 1
        post_init(box)

    monkeypatch.setattr(Box, "__post_init__", counted_post_init)
    return made


def regions_model(zone: WorkingZone, regions, nets, gamma: float = 0.0, epsilon: float = 0.0) -> HybridModel:
    """The model whose region i + 1 owns the boxes of `regions[i]`, indexed
    region by region, as a loaded model indexes them."""
    boxes = [b for region in regions for b in region]
    owner = np.repeat(np.arange(1, len(regions) + 1), [len(region) for region in regions])
    return HybridModel(zone, tree_of(zone, boxes), owner, tuple(nets), gamma, epsilon)


def region_boxes(model: HybridModel) -> list[list[Box]]:
    """Each region's boxes, in the order of the model's tree."""
    return [[model.tree[k] for k in np.flatnonzero(model.box_owner == i)] for i in range(1, model.n_regions + 1)]


def single_region_model(zone: WorkingZone, net, gamma: float = 0.0, epsilon: float = 0.0) -> HybridModel:
    return regions_model(zone, [[zone.omega]], [net], gamma, epsilon)


def split_region_model(zone: WorkingZone, nets, j: int = 0) -> HybridModel:
    """Two-region model: the zone bisected once along dimension j."""
    left, right = zone.omega.bisect(j)
    return regions_model(zone, [[left], [right]], nets)


def alternating_slab_model(nets, levels: int = 3, n_x: int = 2, input_bounds: Box | None = None) -> HybridModel:
    """Two-region model over a zone 2**levels times wider than tall,
    [0, 2**levels] x [0, 1]^(n_x - 1), bisected `levels` times along
    dimension 0 into unit slabs: its longest side each time, as partitioning
    does. The regions alternate slab by slab, region 1 owning the first."""
    zone = WorkingZone(Box(np.zeros(n_x), [2.0 ** levels] + [1.0] * (n_x - 1)), input_bounds)
    slabs = [zone.omega]
    for _ in range(levels):
        slabs = [half for s in slabs for half in s.bisect(0)]
    return regions_model(zone, [slabs[0::2], slabs[1::2]], nets)


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


def overflowing_step_model() -> HybridModel:
    """One region on [-1, 1]^2 whose step overflows where x1 + x2 > 1.8:
    each hidden unit is relu(1e308 (x1 + x2)), and the step 3e8 (x1 + x2) in
    each entry. Elsewhere a step leaves the zone at once (x1 + x2 > 4e-9) or
    maps to the origin (x1 + x2 <= 0)."""
    net = ElmNetwork(np.full((3, 2), 1e308), np.zeros(3), np.full((2, 3), 1e-300), 3, 0)
    return single_region_model(swirl_zone(), net)


def fitted_model(data: Dataset, epsilon: float, seed: int = 0, gamma: float = 1.5e-5) -> HybridModel:
    """The model `dynabs fit` gives on [-1, 1]^n_x, with 20 hidden units."""
    zone = WorkingZone(Box(-np.ones(data.n_x), np.ones(data.n_x)))
    return merge_and_learn(me_partition(zone, data.states, epsilon), data, hidden_count=20, seed=seed, gamma=gamma)


def fitted_swirl_model(seed: int = 0, n_samples: int = 2000, epsilon: float = 0.04,
                       gamma: float = 1.5e-5, **swirl_kwargs) -> tuple[HybridModel, Dataset]:
    data = swirl_dataset(n_samples, seed=seed + 1, **swirl_kwargs)
    return fitted_model(data, epsilon, seed, gamma), data


def tiny_transition_system(relation, n_cells: int):
    """TransitionSystem with the given relation over a 1-D bisection tiling:
    [0, 1] bisected, then its upper half, and so on, n_cells cells in all."""
    from dynabs import TransitionSystem

    zone = WorkingZone(Box([0.0], [1.0]))
    cells, rest = [], zone.omega
    for _ in range(n_cells - 1):
        lower, rest = rest.bisect(0)
        cells.append(lower)
    return TransitionSystem(zone, tree_of(zone, [*cells, rest]), np.asarray(relation, dtype=bool))


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
        "missing hi": ({k: v for k, v in box.items() if k != "hi"}, f"{name}.hi is missing"),
        "not an object": ([box["lo"], box["hi"]], f"{name} must be a JSON object"),
    }


def malformed_zone_docs(doc: dict) -> dict[str, tuple[str, str]]:
    """Defective copies of an artifact document whose zone is broken:
    {case: (text, what its error names)}."""
    omega = doc["zone"]["omega"]
    return {
        "zone [1]": (json.dumps({**doc, "zone": [1]}), "zone must be a JSON object, got [1]"),
        "zone without omega": (json.dumps({**doc, "zone": {"input_bounds": None}}), "zone.omega is missing"),
        "omega closed_hi 1": (
            json.dumps({**doc, "zone": {**doc["zone"], "omega": {**omega, "closed_hi": [1] * len(omega["lo"])}}}),
            "zone.omega.closed_hi"),
    }


def malformed_model_texts(text: str) -> dict[str, tuple[str, str]]:
    """Defective copies of a saved model.json's text: {case: (text, what its error names)}.

    Each copy breaks one region box (the second box of the first region that
    has two, so that the name carries both indices), as `malformed_box_docs`
    lists, or one weight entry or row of the first network, or the zone, or
    the structure around the regions and networks (the model must have two
    regions or more), and keeps everything else valid.
    """
    doc = json.loads(text)
    assert len(doc["regions"]) >= 2, "the region-id cases need a second region"
    i = next((i for i, r in enumerate(doc["regions"]) if len(r["boxes"]) > 1), 0)
    j = min(1, len(doc["regions"][i]["boxes"]) - 1)
    cases = {}
    for case, (box, named) in malformed_box_docs(doc["regions"][i]["boxes"][j], f"regions[{i}].boxes[{j}]").items():
        bad = json.loads(text)
        bad["regions"][i]["boxes"][j] = box
        cases[case] = (json.dumps(bad), named)

    def first_entry(key, entry) -> str:
        return json.dumps({**doc, key: [entry, *doc[key][1:]]})

    def weight(key, at, value) -> str:
        bad = json.loads(text)
        target = bad["networks"][0][key]
        for k in at[:-1]:
            target = target[k]
        target[at[-1]] = value
        return json.dumps(bad)

    region, net = doc["regions"][0], doc["networks"][0]
    n_in = len(net["w_in"][1])
    gap = json.loads(text)
    gap["regions"][1]["id"] = 5
    return {
        "region id gap": (json.dumps(gap), "region ids must be dense from 1, got 5 at position 2"),
        "one network short": (json.dumps({**doc, "networks": doc["networks"][:-1]}),
                              "one network per region required"),
        "no regions": (json.dumps({**doc, "regions": [], "networks": []}), "no boxes to index"),
        **cases,
        **malformed_zone_docs(doc),
        "regions an object": (json.dumps({**doc, "regions": {"0": region}}), "regions must be a JSON list"),
        "regions null": (json.dumps({**doc, "regions": None}), "regions must be a JSON list, got null"),
        "networks an object": (json.dumps({**doc, "networks": {"0": net}}), "networks must be a JSON list"),
        "networks null": (json.dumps({**doc, "networks": None}), "networks must be a JSON list, got null"),
        "region a list": (first_entry("regions", list(region.values())), "regions[0] must be a JSON object"),
        "network a list": (first_entry("networks", list(net.values())), "networks[0] must be a JSON object"),
        "region without id": (first_entry("regions", {"boxes": region["boxes"]}), "regions[0].id is missing"),
        "network without w_in": (first_entry("networks", {k: v for k, v in net.items() if k != "w_in"}),
                                 "networks[0].w_in is missing"),
        "ragged w_in row": (weight("w_in", (1,), [*net["w_in"][1], 0.5]),
                            f"networks[0].w_in[1] has {n_in + 1} entries, expected {n_in}"),
        "w_out row 0.5": (weight("w_out", (0,), 0.5), "networks[0].w_out[0] must be a JSON list, got 0.5"),
        "b_in true": (weight("b_in", (0,), True), "networks[0].b_in[0] must be a JSON number, got true"),
        "w_out NaN": (weight("w_out", (1, 2), float("nan")), "networks[0].w_out[1][2] is NaN, not a finite number"),
        "w_in beyond the float range": (weight("w_in", (0, 1), 10 ** 400),
                                        "networks[0].w_in[0][1] must be a JSON number, got 1000"),
    }


def malformed_ts_texts(text: str) -> dict[str, tuple[str, str]]:
    """Defective copies of a saved ts.json's text: {case: (text, what its error names)}.

    Each copy breaks one thing, the relation, the document around it, the
    zone, cell 1 (as `malformed_box_docs` lists) or the initial cell id, and
    keeps everything else valid.
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
    n = len(rel)
    entry = "relation[0][0] must be a JSON 0 or 1, got "
    ragged = f"relation[{n - 1}] has {n - 1} entries, expected {n}"
    wide = f"relation[0] has {n + 1} entries, expected {n}"
    return {
        "ragged row": (changed("relation", [*rel[:-1], rel[-1][:-1]]), ragged),
        "n x (n+1)": (changed("relation", [row + [0] for row in rel]), wide),
        "three-deep nesting": (changed("relation", [[[v] for v in row] for row in rel]), f"{entry}[{rel[0][0]}]"),
        "entry 2": (first_entry(2), entry + "2"),
        "entry 0.5": (first_entry(0.5), entry + "0.5"),
        "entry true": (first_entry(True), entry + "true"),
        'entry "01"': (first_entry("01"), entry + '"01"'),
        "empty matrix": (changed("relation", []), "relation must be a non-empty square matrix, got []"),
        "missing key": (json.dumps({k: v for k, v in doc.items() if k != "relation"}), "relation is missing"),
        "truncated": (text[: (start + text.index("\n", start)) // 2], "key 'relation'"),
        "trailing data": (text + "{}\n", "relation"),
        "initial 1.5": (changed("initial", 1.5), "initial"),
        "initial true": (changed("initial", True), "initial"),
        "cells an object": (changed("cells", {"0": doc["cells"][0]}), "cells must be a JSON list"),
        **malformed_zone_docs(doc),
        **cells,
    }
