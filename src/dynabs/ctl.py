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

_TOKEN = re.compile(r"\s*(?:(Q\d+)|([A-Za-z]+)|([&|!()\[\]]))")
_UNARY_OPS = {"EX", "AX", "EF", "AF", "EG", "AG"}
_BINARY_OPS = {"and": "&", "or": "|"}


class CtlSyntaxError(ValueError):
    """Formula text rejected, with the offending position."""


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise CtlSyntaxError(f"unexpected character {text[pos]!r} at position {pos}")
        if m.group(1):
            tokens.append(("ATOM", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("NAME", m.group(2), m.start(2)))
        else:
            tokens.append(("PUNCT", m.group(3), m.start(3)))
        pos = m.end()
    return tokens


def _bounded(levels: int, pos: int) -> int:
    if levels > MAX_NESTING:
        raise CtlSyntaxError(f"formula nests deeper than {MAX_NESTING} levels at position {pos}")
    return levels


class _Parser:
    """Recursive descent; each parse_* returns (formula, operator height)."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.open = 0  # brackets and prefix operators around the next token

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise CtlSyntaxError(f"unexpected end of formula at position {len(self.text)}")
        self.i += 1
        return tok

    def expect(self, value: str):
        tok = self.take()
        if tok[1] != value:
            raise CtlSyntaxError(f"expected {value!r} but found {tok[1]!r} at position {tok[2]}")

    def nested(self, parse, pos: int):
        self.open = _bounded(self.open + 1, pos)
        result = parse()
        self.open -= 1
        return result

    def parse(self) -> tuple:
        f, _ = self.parse_or()
        tok = self.peek()
        if tok is not None:
            raise CtlSyntaxError(f"trailing input {tok[1]!r} at position {tok[2]}")
        return f

    def parse_or(self):
        return self.parse_chain("or", self.parse_and)

    def parse_and(self):
        return self.parse_chain("and", self.parse_unary)

    def parse_chain(self, op: str, operand):
        f, height = operand()
        while self.peek() and self.peek()[1] == _BINARY_OPS[op]:
            pos = self.take()[2]
            g, h = operand()
            f, height = (op, f, g), _bounded(max(height, h) + 1, pos)
        return f, height

    def parse_unary(self):
        kind, value, pos = self.peek() or self.take()  # take() raises at the end
        if value == "!" or (kind == "NAME" and value in _UNARY_OPS):
            self.take()
            f, h = self.nested(self.parse_unary, pos)
            return ("not" if value == "!" else value, f), _bounded(h + 1, pos)
        if kind == "NAME" and value in ("E", "A"):
            self.take()
            (left, hl), (right, hr) = self.nested(self.parse_until, pos)
            return (value + "U", left, right), _bounded(max(hl, hr) + 1, pos)
        return self.parse_primary()

    def parse_until(self):
        self.expect("[")
        left = self.parse_or()
        tok = self.take()
        if tok[1] != "U":
            raise CtlSyntaxError(f"expected 'U' in until at position {tok[2]}")
        right = self.parse_or()
        self.expect("]")
        return left, right

    def parse_primary(self):
        kind, value, pos = self.take()
        if kind == "ATOM":
            return ("cell", int(value[1:])), 0
        if kind == "NAME":
            if value == "true":
                return ("true",), 0
            if value == "EXIT":
                return ("exit",), 0
            raise CtlSyntaxError(f"unknown name {value!r} at position {pos}")
        if value == "(":
            f = self.nested(self.parse_or, pos)
            self.expect(")")
            return f
        raise CtlSyntaxError(f"unexpected token {value!r} at position {pos}")


def parse_ctl(text: str) -> tuple:
    """Parse a formula in the module grammar; raises CtlSyntaxError."""
    return _Parser(text).parse()


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
