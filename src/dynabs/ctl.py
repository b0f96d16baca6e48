"""CTL over transition-system cells: parser and fixpoint model checker.

Grammar (precedence low to high, whitespace insensitive)::

    formula ::= formula '|' formula
              | formula '&' formula
              | '!' formula
              | 'EX' formula | 'AX' formula
              | 'EF' formula | 'AF' formula
              | 'EG' formula | 'AG' formula
              | 'E' '[' formula 'U' formula ']'
              | 'A' '[' formula 'U' formula ']'
              | 'Q' int | 'EXIT' | 'true' | '(' formula ')'

A formula is a nested tuple::

    ("true",) | ("exit",) | ("cell", k) | ("not", f) | ("and", f, g) | ("or", f, g)
    | (op, f) for op in EX AX EF AF EG AG | ("EU", f, g) | ("AU", f, g)

Atoms are cell identities (Q1 is the first cell) plus the EXIT sink. The
relation is total by construction, so EX/AX need no deadlock convention.
The checker computes EX, E[U] and EG and derives the rest by duality.
"""

from __future__ import annotations

import re

import numpy as np

from .abstraction import TransitionSystem

# operators over any subformula, and brackets and prefix operators around any
# token; it keeps parsing, formatting and checking within the recursion limit
MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(?P<ATOM>Q\d+)|(?P<NAME>[A-Za-z]+)|(?P<PUNCT>[&|!()\[\]])|(?P<END>\Z)|(?P<BAD>\S))")
_UNARY_OPS = {"EX", "AX", "EF", "AF", "EG", "AG"}
_BINARY_OPS = {"and": "&", "or": "|"}
_CONSTANTS = {"true": ("true",), "EXIT": ("exit",)}


class CtlSyntaxError(ValueError):
    """Formula text rejected, with the offending position."""


def _bounded(levels: int, pos: int) -> int:
    if levels > MAX_NESTING:
        raise CtlSyntaxError(f"formula nests deeper than {MAX_NESTING} levels at position {pos}")
    return levels


def parse_ctl(text: str) -> tuple:
    """Parse a formula in the module grammar; raises CtlSyntaxError.

    The text is split once into (kind, text, position) tokens, closed by one
    END token, then parsed by recursive descent. Each helper takes `depth`,
    the brackets and prefix operators around its first token, and returns
    (formula, operator height); both are bounded by MAX_NESTING.
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "BAD":
            raise CtlSyntaxError(f"unexpected character {m[kind]!r} at position {m.start(kind)}")
        tokens.append((kind, m[kind], m.start(kind)))
        if kind == "END":
            break
    i = 0

    def take(want=None):
        nonlocal i
        kind, value, pos = tokens[i]
        if kind == "END":
            raise CtlSyntaxError(f"unexpected end of formula at position {pos}")
        if want is not None and value != want:
            raise CtlSyntaxError(f"expected {want!r} but found {value!r} at position {pos}")
        i += 1
        return kind, value, pos

    def chain(op, depth):  # '|' chains '&' chains, which chain unary operands
        def operand():
            return unary(depth) if op == "and" else chain("and", depth)

        f, height = operand()
        while tokens[i][1] == _BINARY_OPS[op]:
            pos = take()[2]
            g, h = operand()
            f, height = (op, f, g), _bounded(max(height, h) + 1, pos)
        return f, height

    def unary(depth):
        kind, value, pos = take()
        if value == "!" or (kind == "NAME" and value in _UNARY_OPS):
            f, h = unary(_bounded(depth + 1, pos))
            return ("not" if value == "!" else value, f), _bounded(h + 1, pos)
        if kind == "NAME" and value in ("E", "A"):
            inner = _bounded(depth + 1, pos)
            take("[")
            left, hl = chain("or", inner)
            _, u, at = take()
            if u != "U":
                raise CtlSyntaxError(f"expected 'U' in until at position {at}")
            right, hr = chain("or", inner)
            take("]")
            return (value + "U", left, right), _bounded(max(hl, hr) + 1, pos)
        if kind == "ATOM":
            try:
                return ("cell", int(value[1:])), 0
            except ValueError:  # past the interpreter's digit limit for int()
                raise CtlSyntaxError(f"atom {value[:8]}... of {len(value) - 1} digits at position {pos} "
                                     "is too long") from None
        if kind == "NAME":
            if value in _CONSTANTS:
                return _CONSTANTS[value], 0
            raise CtlSyntaxError(f"unknown name {value!r} at position {pos}")
        if value == "(":
            f = chain("or", _bounded(depth + 1, pos))
            take(")")
            return f
        raise CtlSyntaxError(f"unexpected token {value!r} at position {pos}")

    f, _ = chain("or", 0)
    kind, value, pos = tokens[i]
    if kind != "END":
        raise CtlSyntaxError(f"trailing input {value!r} at position {pos}")
    return f


def format_ctl(f: tuple) -> str:
    """Formula text that parse_ctl reads back to f; binary operators are parenthesized."""
    op = f[0]
    if op == "true":
        return "true"
    if op == "exit":
        return "EXIT"
    if op == "cell":
        return f"Q{f[1]}"
    if op == "not":
        return f"!{format_ctl(f[1])}"
    if op in _BINARY_OPS:
        return f"({format_ctl(f[1])} {_BINARY_OPS[op]} {format_ctl(f[2])})"
    if op in ("EU", "AU"):
        return f"{op[0]}[{format_ctl(f[1])} U {format_ctl(f[2])}]"
    if op in _UNARY_OPS:
        return f"{op} {format_ctl(f[1])}"
    raise ValueError(f"not a CTL formula: {f!r}")


def _pre_exists(relation: np.ndarray, z: np.ndarray) -> np.ndarray:
    """EX z: states with at least one successor in z."""
    return (relation & z[None, :]).any(axis=1)


def _eu(relation: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """E[a U b]: the least fixpoint of b | (a & EX cur)."""
    return _fix(lambda cur: b | (a & _pre_exists(relation, cur)), b)


def _eg(relation: np.ndarray, z: np.ndarray) -> np.ndarray:
    """EG z: the greatest fixpoint of z & EX cur."""
    return _fix(lambda cur: z & _pre_exists(relation, cur), z)


def _fix(step, start):
    """Iterate to a fixpoint; monotone steps converge within n_states rounds."""
    cur = start
    while True:
        nxt = step(cur)
        if np.array_equal(nxt, cur):
            return cur
        cur = nxt


def _sat(ts: TransitionSystem, f: tuple) -> np.ndarray:
    n = ts.n_states
    r = ts.relation
    every = np.ones(n, dtype=bool)
    op = f[0]
    if op == "true":
        return every
    if op in ("cell", "exit"):
        k = n if op == "exit" else f[1]
        if op == "cell" and not 1 <= k <= ts.n_cells:
            raise ValueError(f"atom Q{k} out of range: system has cells Q1..Q{ts.n_cells}")
        v = np.zeros(n, dtype=bool)
        v[k - 1] = True
        return v
    if op == "not":
        return ~_sat(ts, f[1])
    if op == "and":
        return _sat(ts, f[1]) & _sat(ts, f[2])
    if op == "or":
        return _sat(ts, f[1]) | _sat(ts, f[2])
    if op == "EU":
        return _eu(r, _sat(ts, f[1]), _sat(ts, f[2]))
    if op == "AU":
        a, b = _sat(ts, f[1]), _sat(ts, f[2])
        return ~(_eu(r, ~b, ~a & ~b) | _eg(r, ~b))
    if op not in _UNARY_OPS:
        raise ValueError(f"not a CTL formula: {f!r}")
    z = _sat(ts, f[1])
    if op == "EX":
        return _pre_exists(r, z)
    if op == "AX":
        return ~_pre_exists(r, ~z)
    if op == "EF":
        return _eu(r, every, z)
    if op == "AF":
        return ~_eg(r, ~z)
    if op == "EG":
        return _eg(r, z)
    return ~_eu(r, every, ~z)  # AG


def sat_set(ts: TransitionSystem, f: tuple) -> set[int]:
    """1-based ids of states satisfying f; the exit sink's id is n_cells+1."""
    mask = _sat(ts, f)
    return {int(i) + 1 for i in np.nonzero(mask)[0]}


def check(ts: TransitionSystem, f: tuple, initial: int) -> bool:
    """True iff the initial cell satisfies f."""
    if not 1 <= initial <= ts.n_cells:
        raise ValueError(f"initial cell id {initial} out of range 1..{ts.n_cells}")
    return bool(_sat(ts, f)[initial - 1])
