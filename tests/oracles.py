"""Independent oracles the implementation is checked against.

These deliberately use different machinery than the library: the
least-squares oracle solves the normal equations directly, the merge
oracle refits every pair test on the pooled raw samples, the partition
oracle rescans every active box for the widest one instead of walking the
split tree, the enclosure oracle pushes one box at a time through one
layer at a time, the transition oracle intersects cells with region boxes
one pair at a time and encloses each piece with that oracle, the witness
oracle reads the steps a simulation took straight off the sampled traces,
and the CTL oracle evaluates path semantics by depth-first graph walks
instead of boolean fixpoint iteration.
"""

from __future__ import annotations

import numpy as np

from dynabs import elm_output_box, fit_output_weights, init_elm, mse, predict_batch
from dynabs.hybrid import derive_seed
from dynabs.reach import OUTPUT_SLACK
from dynabs.partition import MIN_SIDE_FRACTION


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


def _xlogx(c: int) -> float:
    return c * np.log(c) if c > 0 else 0.0


def widest_first_partition(zone, states: np.ndarray, epsilon: float):
    """Max-entropy bisection that always splits the widest active box.

    Ties go to the lowest tiling position, then the lowest dimension. Returns
    (boxes, assignments, split_log) with log entries (position, dim, gain,
    committed) in selection order.
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
        delta_h = (_xlogx(c) - _xlogx(c1) - _xlogx(c - c1)) / n_total if n_total else 0.0
        log.append((i, j, delta_h, bool(delta_h >= epsilon)))
        if delta_h >= epsilon:
            left, right = box.bisect(j)
            entries[i: i + 1] = [[left, idx[lower], True], [right, idx[~lower], True]]
        else:
            entries[i][2] = False
    return [e[0] for e in entries], [e[1] for e in entries], log


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
    exited = traces.exited
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
