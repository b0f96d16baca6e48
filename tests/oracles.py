"""Independent oracles the implementation is checked against.

These deliberately use different machinery than the library: the
least-squares oracle solves the normal equations directly, the partition
oracle rescans every active box for the widest one instead of walking the
split tree, the transition oracle intersects cells with region boxes one
pair at a time, and the CTL oracle evaluates path semantics by depth-first
graph walks instead of boolean fixpoint iteration.
"""

from __future__ import annotations

import numpy as np

from dynabs import Bounds, elm_output_box, predict_batch
from dynabs.partition import MIN_SIDE_FRACTION
from dynabs.ctl import And, CellAtom, CtlFormula, ExitAtom, Not, Or, TrueF, Unary, Until


def normal_equations_fit(net, data, ridge: float) -> np.ndarray:
    """w_out via (H^T H + ridge I)^-1 H^T Y."""
    h = np.maximum(data.z @ net.w_in.T + net.b_in, 0.0)
    gram = h.T @ h + ridge * np.eye(net.hidden_count)
    w_t = np.linalg.solve(gram, h.T @ data.y)
    return w_t.T


def monte_carlo_containment(net, box, n_points: int, rng, slack: float = 1e-9) -> int:
    """Number of sampled inputs whose prediction escapes the output box."""
    bounds = elm_output_box(net, box)
    z = rng.uniform(box.lo, box.hi, size=(n_points, box.dim))
    y = predict_batch(net, z)
    ok = (y >= bounds.lo - slack) & (y <= bounds.hi + slack)
    return int((~ok.all(axis=1)).sum())


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
    """(N+1) x (N+1) relation from one cell x region-box intersection and one
    piece x cell overlap test at a time."""
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
                z = Bounds.from_box(overlap)
                if ib is not None:
                    z = Bounds(np.concatenate([z.lo, ib.lo]), np.concatenate([z.hi, ib.hi]))
                out = elm_output_box(net, z)
                for j, other in enumerate(cells):
                    rel[i, j] |= out.overlaps_box(other)
                rel[i, n] |= not out.within(omega)
    rel[n, n] = True
    return rel


# --- CTL path-semantics oracle (graph DFS, states 0-based) ----------------


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


def oracle_sat(ts, f: CtlFormula) -> set[int]:
    """1-based sat set computed by explicit path enumeration."""
    relation = ts.relation
    n = ts.n_states
    states = set(range(n))

    def ev(node) -> set[int]:
        if isinstance(node, TrueF):
            return set(states)
        if isinstance(node, CellAtom):
            return {node.index - 1}
        if isinstance(node, ExitAtom):
            return {n - 1}
        if isinstance(node, Not):
            return states - ev(node.arg)
        if isinstance(node, And):
            return ev(node.left) & ev(node.right)
        if isinstance(node, Or):
            return ev(node.left) | ev(node.right)
        if isinstance(node, Unary):
            z = ev(node.arg)
            if node.op == "EX":
                return {s for s in states if any(t in z for t in _succ(relation, s))}
            if node.op == "AX":
                return {s for s in states if all(t in z for t in _succ(relation, s))}
            if node.op == "EF":
                return {s for s in states if _reach_through(relation, s, states, z)}
            if node.op == "AF":
                return {s for s in states if not _lasso_within(relation, s, states - z)}
            if node.op == "EG":
                return {s for s in states if _lasso_within(relation, s, z)}
            if node.op == "AG":
                return {s for s in states if not _reach_through(relation, s, states, states - z)}
            raise AssertionError(node.op)
        if isinstance(node, Until):
            a = ev(node.left)
            b = ev(node.right)
            if node.quantifier == "E":
                return {s for s in states if _reach_through(relation, s, a, b)}
            # A[a U b]: no path dodging b forever, none hitting !a & !b before b
            bad = (states - a) - b
            return {
                s
                for s in states
                if not _lasso_within(relation, s, states - b)
                and not _reach_through(relation, s, states - b, bad)
            }
        raise TypeError(node)

    return {s + 1 for s in ev(f)}
