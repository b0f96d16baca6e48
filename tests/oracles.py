"""Independent oracles the implementation is checked against.

These deliberately use different machinery than the library: the
entropy oracle sums -p ln p over occupancy fractions where the partitioner
adds x ln x terms of counts, the least-squares oracle solves the normal equations directly, the merge
oracle refits every pair test on the pooled raw samples, the sequential merge
oracle solves one pair test at a time where the sweep batches them, the partition
oracle rescans every active box for the widest one instead of walking the
split tree, the enclosure oracle pushes one box at a time through one
layer at a time, the transition oracle intersects cells with region boxes
one pair at a time and encloses each piece with that oracle, the trace
oracle re-gathers the live runs from the full arrays at every step where
the sampler carries only the live rows, the tree oracle builds a `BoxTree`'s
tables by per-level scatters over every box not yet at a leaf where the
tree drops finished boxes and reads one column at a time, the DOT oracle
formats one line per edge where the export joins each row's successors,
the witness oracle reads the steps a simulation took straight off the
sampled traces, and the CTL oracle evaluates path semantics by depth-first graph walks
instead of boolean fixpoint iteration.
"""

from __future__ import annotations

import numpy as np

from dynabs import TraceSet, elm_output_box, fit_output_weights, init_elm, mse, predict_batch
from dynabs.elm import DEFAULT_RIDGE
from dynabs.hybrid import derive_seed
from dynabs.reach import OUTPUT_SLACK
from dynabs.partition import MIN_SIDE_FRACTION


def shannon_entropy(counts) -> float:
    """H = -sum p_i ln p_i over occupancy fractions, with 0 ln 0 = 0: the
    entropy whose gains me_partition computes term by term."""
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a non-empty 1-D sequence")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    total = counts.sum()
    if total == 0:
        raise ValueError("at least one count must be positive")
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def normal_equations_fit(net, data, ridge: float) -> np.ndarray:
    """w_out via (H^T H + ridge I)^-1 H^T Y."""
    h = np.maximum(data.z @ net.w_in.T + net.b_in, 0.0)
    gram = h.T @ h + ridge * np.eye(net.hidden_count)
    w_t = np.linalg.solve(gram, h.T @ data.y)
    return w_t.T


def raw_merge(parts, data, hidden_count: int, seed: int, gamma: float):
    """The merge sweep of merge_and_learn with each pair test refitted on the
    pooled raw samples (a Dataset subset and a least-squares solve) under the
    row's layer, seeded (seed, N). Returns (box list per region, pair tests)."""
    n_in = data.n_x + data.n_u
    regions = [[[box], np.asarray(idx, dtype=int)] for box, idx in zip(parts.boxes, parts.assignments)]
    tests = 0
    big_n = 0
    while big_n < len(regions):
        layer = init_elm(n_in, data.n_x, hidden_count, derive_seed(seed, big_n))
        n = big_n + 1
        while n < len(regions):
            pooled = np.concatenate([regions[big_n][1], regions[n][1]])
            if pooled.size == 0:
                n += 1
                continue
            tests += 1
            pool = data.subset(pooled)
            if mse(fit_output_weights(layer, pool), pool) <= gamma:
                regions[big_n][0].extend(regions[n][0])
                regions[big_n][1] = pooled
                del regions[n]
            else:
                n += 1
        big_n += 1
    return [boxes for boxes, _ in regions], tests


def sequential_merge(parts, data, hidden_count: int, seed: int, gamma: float):
    """The merge sweep of merge_and_learn one pair test at a time: each test
    sums the two regions' readout statistics (H^T H, H^T Y, sum Y^2, rows)
    and solves its own ridge system. Returns ([(boxes, sample indices,
    [H^T H, H^T Y, sum Y^2, rows])] per region, pair tests, merges), the
    statistics being the region's final pool (its own if it absorbed
    nothing); raises FloatingPointError for a row whose statistics overflow
    or a pooled solve that is singular, as merge_and_learn does."""
    n_in = data.n_x + data.n_u

    def statistics(net, idx):
        h, y = net.hidden(data.z[idx]), data.y[idx]
        return [h.T @ h, h.T @ y, float(np.sum(y * y)), idx.size]

    def ridge_mse(hh, hy, yy, rows):
        w_t = np.linalg.solve(hh + DEFAULT_RIDGE * np.eye(hh.shape[0]), hy)
        rss = yy - 2.0 * float(np.sum(w_t * hy)) + float(np.sum(w_t * (hh @ w_t)))
        return max(rss, 0.0) / rows

    regions = [[[box], np.asarray(idx, dtype=int)] for box, idx in zip(parts.boxes, parts.assignments)]
    tests = merges = 0
    with np.errstate(over="ignore", invalid="ignore"):
        big_n = 0
        while big_n < len(regions):
            layer = init_elm(n_in, data.n_x, hidden_count, derive_seed(seed, big_n))
            row = statistics(layer, regions[big_n][1])
            if not (np.isfinite(row[0]).all() and np.isfinite(row[1]).all() and np.isfinite(row[2])):
                raise FloatingPointError(f"H^T H, H^T Y or sum Y^2 of partition {regions[big_n][0][0]!r} "
                                         "is not finite: the data overflow the fit")
            n = big_n + 1
            while n < len(regions):
                pooled = [a + b for a, b in zip(row, statistics(layer, regions[n][1]))]
                if pooled[3] == 0:
                    n += 1
                    continue
                try:
                    fit = ridge_mse(*pooled)
                except np.linalg.LinAlgError as exc:
                    raise FloatingPointError(
                        f"pooled readout solve of partition {regions[n][0][0]!r} with the region of "
                        f"partition {regions[big_n][0][0]!r} is singular ({exc})") from exc
                tests += 1
                if fit <= gamma:
                    regions[big_n][0].extend(regions[n][0])
                    regions[big_n][1] = np.concatenate([regions[big_n][1], regions[n][1]])
                    row = pooled
                    del regions[n]
                    merges += 1
                else:
                    n += 1
            regions[big_n].append(row)
            big_n += 1
    return [(boxes, idx, row) for boxes, idx, row in regions], tests, merges


def linf_distance(box, x) -> float:
    """L-infinity distance from one point to a box (0 when inside)."""
    x = np.asarray(x, dtype=float)
    return float(max(np.max(box.lo - x), np.max(x - box.hi), 0.0))


def monte_carlo_containment(net, box, n_points: int, rng, slack: float = 1e-9) -> int:
    """Number of sampled inputs whose prediction escapes the output box."""
    lo, hi = elm_output_box(net, box.lo[None], box.hi[None])
    z = rng.uniform(box.lo, box.hi, size=(n_points, box.dim))
    y = predict_batch(net, z)
    ok = (y >= lo - slack) & (y <= hi + slack)
    return int((~ok.all(axis=1)).sum())


def _affine_image(weights: np.ndarray, bias: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Exact (tightest) interval image of one box under x -> W x + b."""
    at_lo = weights * lo
    at_hi = weights * hi
    return np.minimum(at_lo, at_hi).sum(axis=1) + bias, np.maximum(at_lo, at_hi).sum(axis=1) + bias


def ibp_output_box(net, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Enclosure of the network image of one 1-D input box, one layer at a
    time: affine, then ReLU ([max(0, lo), max(0, hi)]), then affine with a
    zero bias, widened by OUTPUT_SLACK per side."""
    lo, hi = _affine_image(net.w_in, net.b_in, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
    lo, hi = _affine_image(net.w_out, np.zeros(net.n_out), lo, hi)
    return lo - OUTPUT_SLACK, hi + OUTPUT_SLACK


def xlogx(c: int) -> float:
    return c * np.log(c) if c > 0 else 0.0


def widest_first_partition(zone, states: np.ndarray, epsilon: float):
    """Max-entropy bisection that always splits the widest active box.

    A split is committed when both halves hold samples and its gain reaches
    epsilon. Ties go to the lowest tiling position, then the lowest
    dimension. Returns (boxes, assignments, split_log) with log entries
    (position, dim, gain, committed) in selection order.
    """
    n_total = states.shape[0]
    extent = zone.omega.sides
    entries = [[zone.omega, np.arange(n_total), True]]  # box, samples, active
    log = []
    while True:
        for e in entries:
            if e[2] and np.max(e[0].sides / extent) < MIN_SIDE_FRACTION:
                e[2] = False
        active = [i for i, e in enumerate(entries) if e[2]]
        if not active:
            break
        i = max(active, key=lambda k: (entries[k][0].sides.max(), -k))
        box, idx, _ = entries[i]
        j = int(np.argmax(box.sides))
        mid = 0.5 * (box.lo[j] + box.hi[j])
        if not box.lo[j] < mid < box.hi[j]:
            entries[i][2] = False
            continue
        lower = states[idx, j] < mid
        c, c1 = idx.size, int(lower.sum())
        delta_h = (xlogx(c) - xlogx(c1) - xlogx(c - c1)) / n_total if n_total else 0.0
        committed = 0 < c1 < c and delta_h >= epsilon
        log.append((i, j, delta_h, committed))
        if committed:
            left, right = box.bisect(j)
            entries[i: i + 1] = [[left, idx[lower], True], [right, idx[~lower], True]]
        else:
            entries[i][2] = False
    return [e[0] for e in entries], [e[1] for e in entries], log


def sequential_traces(model, L: int, M: int, seed: int):
    """sample_traces with an alive mask over all L runs: every step gathers
    the live runs' states and inputs by np.nonzero and scatters the states
    back. Draws the same random numbers in the same order."""
    if L < 1 or M < 1:
        raise ValueError("need L >= 1 traces and M >= 1 steps")
    omega = model.zone.omega
    n_u = model.zone.n_u
    rng = np.random.default_rng(seed)

    x = rng.uniform(omega.lo, omega.hi, size=(L, omega.dim))
    states = np.full((L, M + 1, omega.dim), np.nan)
    states[:, 0] = x
    lengths = np.zeros(L, dtype=int)
    alive = np.ones(L, dtype=bool)

    for t in range(M):
        if n_u > 0:
            ib = model.zone.input_bounds
            u = rng.uniform(ib.lo, ib.hi, size=(L, n_u))
        if not alive.any():
            break
        rows = np.nonzero(alive)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = model.step(x[rows], u[rows] if n_u > 0 else None)
        bad = np.nonzero(~np.isfinite(nxt).all(axis=1))[0]
        if bad.size:
            state = x[rows[bad[0]]]
            region = int(model.locate_batch(state)[0])
            raise FloatingPointError(f"model step from state {state.tolist()} in region {region} is not finite: "
                                     f"{nxt[bad[0]].tolist()}")
        inside = model.zone.contains(nxt)
        alive[rows[~inside]] = False
        staying = rows[inside]
        states[staying, t + 1] = nxt[inside]
        lengths[staying] = t + 1
        x[staying] = nxt[inside]

    return TraceSet(states, lengths)


def trace_inputs(model, L: int, M: int, seed: int) -> np.ndarray:
    """The inputs sample_traces(model, L, M, seed) applies, from its
    documented draw order: after the (L, n_x) start states, one (L, n_u)
    draw per step, row i for run i. Returns (L, M, n_u): run i applied
    inputs[i, k] at step k, for k < lengths[i]."""
    omega, ib = model.zone.omega, model.zone.input_bounds
    rng = np.random.default_rng(seed)
    rng.uniform(omega.lo, omega.hi, size=(L, omega.dim))
    return np.stack([rng.uniform(ib.lo, ib.hi, size=(L, model.zone.n_u)) for _ in range(M)], axis=1)


def level_tree(zone, boxes):
    """The tables of `BoxTree(zone, boxes)` built level by level with a
    `np.logical_or.at` scatter of straddling boxes onto their nodes and
    axis-1 reductions over every box not yet at a leaf, re-gathering each
    box's bounds at every level: (dims, cuts, left, right, leaf), a leaf's
    children being itself. Raises ValueError with the texts BoxTree raises."""
    boxes = list(boxes)
    if not boxes:
        raise ValueError("no boxes to index")
    if {b.lo.shape for b in boxes} != {(zone.dim,)}:
        raise ValueError(f"every box must have the zone's dimension {zone.dim}")
    lo = np.array([b.lo for b in boxes])
    hi = np.array([b.hi for b in boxes])
    outside = np.nonzero(np.any(lo < zone.lo, axis=1) | np.any(hi > zone.hi, axis=1))[0]
    if outside.size:
        k = int(outside[0])
        raise ValueError(f"box {k} {boxes[k]!r} extends outside the zone {zone!r}")
    closed = np.array([b.closed_hi for b in boxes])
    wrong = np.nonzero(np.any(closed != ((hi == zone.hi) & zone.closed_hi), axis=1))[0]
    if wrong.size:
        k = int(wrong[0])
        raise ValueError(f"box {k} {boxes[k]!r}: upper faces must be closed exactly on the zone's closed faces")

    dim = zone.dim
    node_lo, node_hi = zone.lo[None], zone.hi[None]
    members = np.arange(len(boxes))
    at = np.zeros(len(boxes), dtype=np.intp)
    levels, first = [], 0
    while members.size:
        n = node_lo.shape[0]
        rows = np.arange(n)
        count = np.bincount(at, minlength=n)
        if not count.all():
            k = int(np.argmin(count))
            raise ValueError(f"gap: no box covers [{node_lo[k].tolist()}, {node_hi[k].tolist()}]")
        single = count[at] == 1
        unfilled = single & np.any((lo[members] != node_lo[at]) | (hi[members] != node_hi[at]), axis=1)
        if unfilled.any():
            i = int(np.argmax(unfilled))
            k = int(members[i])
            raise ValueError(f"gap: box {k} {boxes[k]!r} does not fill "
                             f"[{node_lo[at[i]].tolist()}, {node_hi[at[i]].tolist()}]")
        mid = 0.5 * (node_lo + node_hi)
        straddled = np.zeros((n, dim), dtype=bool)
        np.logical_or.at(straddled, at, (lo[members] < mid[at]) & (mid[at] < hi[members]))
        free = ~straddled & (node_lo < mid) & (mid < node_hi)
        inner = count > 1
        if (inner & ~free.any(axis=1)).any():
            k = int(np.argmax(inner & ~free.any(axis=1)))
            stuck = members[at == k]
            _reject_node(boxes, stuck, lo[stuck], hi[stuck], node_lo[k], node_hi[k])
        d = np.argmax(free, axis=1)
        cut = mid[rows, d]
        pair = 2 * np.cumsum(inner) - 2
        leaf = np.full(n, -1, dtype=np.intp)
        leaf[at[single]] = members[single]
        levels.append((d, cut, np.where(inner, first + n + pair, first + rows),
                       np.where(inner, first + n + pair + 1, first + rows), leaf))
        lower_hi, upper_lo = node_hi.copy(), node_lo.copy()
        lower_hi[rows, d] = cut
        upper_lo[rows, d] = cut
        node_lo = np.stack([node_lo, upper_lo], axis=1)[inner].reshape(-1, dim)
        node_hi = np.stack([lower_hi, node_hi], axis=1)[inner].reshape(-1, dim)
        members, at = members[~single], at[~single]
        at = pair[at] + (lo[members, d[at]] >= cut[at])
        first += n
    return tuple(np.concatenate(a) for a in zip(*levels))


def _reject_node(boxes, members, lo, hi, node_lo, node_hi):
    for a in range(len(members)):
        inter = np.minimum(hi[a], hi[a + 1:]) > np.maximum(lo[a], lo[a + 1:])
        hit = np.nonzero(np.all(inter, axis=1))[0]
        if hit.size:
            i, j = int(members[a]), int(members[a + 1 + hit[0]])
            raise ValueError(f"overlap: boxes {i} {boxes[i]!r} and {j} {boxes[j]!r} intersect")
    raise ValueError(f"not a bisection tiling: no midpoint cut of [{node_lo.tolist()}, {node_hi.tolist()}] "
                     f"separates boxes {members.tolist()}")


def edge_dot(ts) -> str:
    """`export_dot` with one f-string per edge over the relation's nonzero pairs."""
    lines = ["digraph transition_system {", "  rankdir=LR;"]
    for i in range(1, ts.n_cells + 1):
        attrs = ["shape=box"]
        if ts.initial == i:
            attrs.append("peripheries=2")
        lines.append(f"  Q{i} [{', '.join(attrs)}];")
    lines.append("  EXIT [shape=doublecircle];")
    labels = [ts.state_label(i) for i in range(1, ts.n_states + 1)]
    lines += [f"  {labels[i]} -> {labels[j]};" for i, j in zip(*np.nonzero(ts.relation))]
    lines.append("}")
    return "\n".join(lines) + "\n"


def pairwise_transitions(model, cells) -> np.ndarray:
    """(N+1) x (N+1) relation from one cell x region-box intersection, one
    `ibp_output_box` enclosure and one piece x cell overlap test at a time."""
    omega = model.zone.omega
    ib = model.zone.input_bounds
    n = len(cells)
    rel = np.zeros((n + 1, n + 1), dtype=bool)
    for i, cell in enumerate(cells):
        for region, net in zip(model.regions, model.networks):
            for box in region.boxes:
                overlap = cell.intersect(box)
                if overlap is None:
                    continue
                lo, hi = overlap.lo, overlap.hi
                if ib is not None:
                    lo, hi = np.concatenate([lo, ib.lo]), np.concatenate([hi, ib.hi])
                out_lo, out_hi = ibp_output_box(net, lo, hi)
                for j, other in enumerate(cells):
                    rel[i, j] |= bool(np.all(np.minimum(out_hi, other.hi) > np.maximum(out_lo, other.lo)))
                rel[i, n] |= not bool(np.all((out_lo >= omega.lo) & (out_hi <= omega.hi)))
    rel[n, n] = True
    return rel


# --- CTL path-semantics oracle (graph DFS, states 0-based) ----------------


def observed_transitions(traces, tree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every step the sampled traces took, mapped onto the cells of `tree`
    (a `BoxTree`): the (src, dst) cell indices of each step and the cell
    each exited run left the zone from. Every visited state must lie in a
    cell."""
    k = np.arange(traces.states.shape[1])
    visited = k <= traces.lengths[:, None]
    cell = np.full(visited.shape, -1)
    cell[visited] = tree.locate(traces.states[visited])
    assert (cell[visited] >= 0).all(), "a simulated state escaped the cell tiling"
    step = k[:-1] < traces.lengths[:, None]
    exited = traces.lengths < k[-1]
    return cell[:, :-1][step], cell[:, 1:][step], cell[exited, traces.lengths[exited]]


def _succ(relation: np.ndarray, s: int) -> list[int]:
    return [int(j) for j in np.nonzero(relation[s])[0]]


def _reach_through(relation, start: int, allowed: set[int], targets: set[int]) -> bool:
    """Is there a path start -> ... -> t in targets whose prefix stays in allowed?"""
    if start in targets:
        return True
    if start not in allowed:
        return False
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        for t in _succ(relation, s):
            if t in targets:
                return True
            if t in allowed and t not in seen:
                seen.add(t)
                stack.append(t)
    return False


def _lasso_within(relation, start: int, allowed: set[int]) -> bool:
    """Is there an infinite path from start staying inside allowed?"""
    if start not in allowed:
        return False

    # a cycle within allowed, reachable from start through allowed
    on_cycle = set()
    for c in allowed:
        seen = set()
        stack = [t for t in _succ(relation, c) if t in allowed]
        while stack:
            s = stack.pop()
            if s == c:
                on_cycle.add(c)
                break
            if s in seen:
                continue
            seen.add(s)
            stack.extend(t for t in _succ(relation, s) if t in allowed)
    return _reach_through(relation, start, allowed, on_cycle)


def oracle_sat(ts, f: tuple) -> set[int]:
    """1-based sat set computed by explicit path enumeration."""
    relation = ts.relation
    n = ts.n_states
    states = set(range(n))

    def ev(node) -> set[int]:
        op = node[0]
        if op == "true":
            return set(states)
        if op == "cell":
            return {node[1] - 1}
        if op == "exit":
            return {n - 1}
        if op == "not":
            return states - ev(node[1])
        if op == "and":
            return ev(node[1]) & ev(node[2])
        if op == "or":
            return ev(node[1]) | ev(node[2])
        if op in ("EU", "AU"):
            a = ev(node[1])
            b = ev(node[2])
            if op == "EU":
                return {s for s in states if _reach_through(relation, s, a, b)}
            # A[a U b]: no path dodging b forever, none hitting !a & !b before b
            bad = (states - a) - b
            return {
                s
                for s in states
                if not _lasso_within(relation, s, states - b)
                and not _reach_through(relation, s, states - b, bad)
            }
        z = ev(node[1])
        if op == "EX":
            return {s for s in states if any(t in z for t in _succ(relation, s))}
        if op == "AX":
            return {s for s in states if all(t in z for t in _succ(relation, s))}
        if op == "EF":
            return {s for s in states if _reach_through(relation, s, states, z)}
        if op == "AF":
            return {s for s in states if not _lasso_within(relation, s, states - z)}
        if op == "EG":
            return {s for s in states if _lasso_within(relation, s, z)}
        if op == "AG":
            return {s for s in states if not _reach_through(relation, s, states, states - z)}
        raise AssertionError(op)

    return {s + 1 for s in ev(f)}
