"""Path-semantics CTL reference for checking `dynabs verify` verdicts.

It works on graph walks rather than the boolean fixpoint iteration the
program uses. E-until and EF are backward searches. EG holds where a path
inside the operand's states reaches a cycle (a strongly connected component
with an edge) that stays inside them. The universal operators follow from the
existential ones through the usual path dualities.

Formulas are nested tuples:
    ("exit",) | ("cell", k) | ("not", f) | ("and", f, g) | ("or", f, g)
    | (op, f) for op in EX AX EF AF EG AG | ("EU", f, g) | ("AU", f, g)
States are 0-based: cell Qk is k-1 and the exit sink is the last state.
"""

from __future__ import annotations

import numpy as np


class Graph:
    def __init__(self, relation: np.ndarray):
        rel = np.asarray(relation, dtype=bool)
        self.n = rel.shape[0]
        self.succ = [np.nonzero(row)[0].tolist() for row in rel]
        self.pred = [np.nonzero(col)[0].tolist() for col in rel.T]


def _backward(g: Graph, targets: set[int], through: set[int] | None) -> set[int]:
    """States with a path into targets whose earlier states all lie in `through`."""
    found = set(targets)
    stack = list(targets)
    while stack:
        s = stack.pop()
        for p in g.pred[s]:
            if p not in found and (through is None or p in through):
                found.add(p)
                stack.append(p)
    return found


def _cycle_states(g: Graph, allowed: set[int]) -> set[int]:
    """States of the subgraph on `allowed` that lie on a cycle inside it (iterative Tarjan)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    result: set[int] = set()
    counter = 0
    for root in sorted(allowed):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            succ = g.succ[v]
            while i < len(succ):
                w = succ[i]
                i += 1
                if w not in allowed:
                    continue
                if w not in index:
                    work.append((v, i))
                    work.append((w, 0))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    if len(comp) > 1 or v in g.succ[v]:
                        result.update(comp)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    return result


def sat(g: Graph, f: tuple) -> set[int]:
    every = set(range(g.n))
    op = f[0]
    if op == "exit":
        return {g.n - 1}
    if op == "cell":
        return {f[1] - 1}
    if op == "not":
        return every - sat(g, f[1])
    if op == "and":
        return sat(g, f[1]) & sat(g, f[2])
    if op == "or":
        return sat(g, f[1]) | sat(g, f[2])
    if op == "EU":
        return _backward(g, sat(g, f[2]), sat(g, f[1]))
    if op == "AU":
        a, b = sat(g, f[1]), sat(g, f[2])
        not_b = every - b
        bad = _backward(g, not_b - a, not_b) | _eg(g, not_b)
        return every - bad
    z = sat(g, f[1])
    if op == "EX":
        return {s for s in every if any(t in z for t in g.succ[s])}
    if op == "AX":
        return {s for s in every if all(t in z for t in g.succ[s])}
    if op == "EF":
        return _backward(g, z, None)
    if op == "AG":
        return every - _backward(g, every - z, None)
    if op == "EG":
        return _eg(g, z)
    if op == "AF":
        return every - _eg(g, every - z)
    raise ValueError(f"unknown operator {op!r}")


def _eg(g: Graph, z: set[int]) -> set[int]:
    return _backward(g, _cycle_states(g, z), z)


def labels(g: Graph, states: set[int]) -> list[str]:
    """Labels in ascending state order, as `dynabs verify` prints its sat set."""
    return ["EXIT" if s == g.n - 1 else f"Q{s + 1}" for s in sorted(states)]
