"""Trajectory datasets and working zones.

A dataset is a flat table of one-step samples (z, y): z stacks the current
state with the external input (when there is one) and y is the successor
state. The sole ingestion format is CSV with a header row and the column
order x..., u..., y... .
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .geometry import Box, _short, boxes_from_docs


class DataError(ValueError):
    """Malformed or inconsistent input data."""


def check_format_version(doc, version: int, what: str) -> None:
    """Reject an artifact document that is not a JSON object of `version`, a
    JSON integer (so neither `true` nor `1.0`)."""
    if not isinstance(doc, dict):
        raise DataError(f"{what} document must be a JSON object")
    if "format_version" not in doc:
        raise DataError(f"{what} document missing format_version")
    found = doc["format_version"]
    if type(found) is not int or found != version:
        raise DataError(f"{what} document has format_version {_short(found)}; only version {version} can be read")


_JSON_WS = b" \t\n\r"
# a matrix entry that is neither 0 nor 1: a run of non-delimiters holding some other character
_BAD_ENTRY = re.compile(rb"[^\[\], \t\n\r]*[^\[\],01 \t\n\r][^\[\], \t\n\r]*")


def _bits_json(m: np.ndarray) -> bytes:
    """Compact JSON of a 2-D bool matrix as 0/1 integers, built in one uint8
    buffer; equal to `json.dumps(m.astype(int).tolist(), separators=(",", ":"))`."""
    rows, cols = m.shape
    buf = np.empty((rows, 2 * cols + 2), dtype=np.uint8)  # one row: "[d,...,d],"
    buf[:, 0] = ord("[")
    buf[:, 1:2 * cols:2] = m.astype(np.uint8) + ord("0")
    buf[:, 2:2 * cols:2] = ord(",")
    buf[:, 2 * cols] = ord("]")
    buf[:, 2 * cols + 1] = ord(",")
    return b"[" + buf.ravel()[:-1].tobytes() + b"]"


def _read_bits(text: str, pos: int) -> tuple[np.ndarray, int]:
    """Decode the non-empty square 0/1 matrix whose JSON starts at text[pos].

    Returns the bool matrix and the index just past it; raises ValueError
    naming the first defect and its character index.
    """
    tail = text[pos:].encode("utf-8")
    if not tail.startswith(b"["):
        raise ValueError(f"expected a square matrix of 0/1 entries, found {text[pos:pos + 12]!r} at char {pos}")
    b = np.frombuffer(tail, dtype=np.uint8)
    brackets = np.flatnonzero((b == ord("[")) | (b == ord("]")))
    closed = np.flatnonzero(np.cumsum(np.where(b[brackets] == ord("["), 1, -1)) == 0)
    if closed.size == 0:
        raise ValueError(f"matrix starting at char {pos} is not closed before the end of the file")
    end = int(brackets[closed[0]]) + 1
    # The whitespace-free text holds the matrix as "[" + n rows "[d,...,d]," + the
    # outer "]" in place of the last ",": one layout test over its (n, 2n + 2)
    # view checks every character. A right layout closes the matrix at the
    # same bracket as `end`, so the text after it does not matter here.
    c = tail.translate(None, _JSON_WS)
    n = (c.index(b"]") - 1) // 2  # the first row closes at 2n + 1
    size = n * (2 * n + 2) + 1
    if n >= 1 and len(c) >= size:
        rows = np.frombuffer(c, dtype=np.uint8, count=size)[1:].reshape(n, 2 * n + 2)
        layout = np.full(2 * n + 2, ord(","), dtype=np.uint8)  # "[1,...,1],"
        layout[0], layout[2 * n] = ord("["), ord("]")
        layout[1:2 * n:2] = ord("1")
        digit = (layout == ord("1")).astype(np.uint8)  # x | 1 == '1' only for x in '0', '1'
        if (c[size - 1] == ord("]") and ((rows[:-1] | digit) == layout).all()
                and ((rows[-1, :-1] | digit[:-1]) == layout[:-1]).all()):
            return rows[:, 1:2 * n:2] == ord("1"), pos + end
    _raise_bits_defect(tail, b, pos, end)


def _raise_bits_defect(tail: bytes, b: np.ndarray, pos: int, end: int) -> NoReturn:
    """Raise for a matrix text that fails `_read_bits`'s layout test, naming
    the first character that breaks it."""
    c = tail[:end].translate(None, _JSON_WS)
    if c.translate(None, b"[],01"):
        bad = _BAD_ENTRY.search(tail, 0, end)
        raise ValueError(f"entries must be 0 or 1, found {bad.group().decode(errors='replace')!r} "
                         f"at char {pos + bad.start()}")
    n = (c.index(b"]") - 1) // 2
    if n < 1:
        raise ValueError(f"matrix at char {pos} must be non-empty")
    template = _bits_json(np.zeros((n, n), dtype=bool))
    zeroed = c.replace(b"1", b"0")
    k = next((k for k, (x, y) in enumerate(zip(zeroed, template)) if x != y), min(len(c), len(template)))
    if k < len(c):  # back from the whitespace-free copy to the text
        where = f"char {pos + int(np.flatnonzero(~np.isin(b[:end], list(_JSON_WS)))[k])}"
    else:
        where = f"the end at char {pos + end - 1}"
    raise ValueError(f"not a {n}x{n} matrix (the length of its first row): layout breaks at {where}")


def bit_matrix(value, key: str) -> np.ndarray:
    """A document's square 0/1 matrix as a bool ndarray.

    A bool ndarray, as `read_artifact` returns it, is taken as is. Nested
    lists (as `json.load` returns them) go through the same decoder as the
    file, so both accept the same entries: 0 and 1, not `true`, `2` or `0.5`.
    """
    if isinstance(value, np.ndarray) and value.dtype == bool:
        return value
    try:
        return _read_bits(json.dumps(value, separators=(",", ":")), 0)[0]
    except (TypeError, ValueError) as exc:
        raise DataError(f"key {key!r} (as compact JSON): {exc}") from None


def write_artifact(path, doc: dict) -> None:
    """Write an artifact document as a JSON object, one top-level key per line.

    Keys come in sorted order, each as `  "key": <value>` with the value in
    compact JSON (the C encoder; `indent` would force the pure-Python one and
    put every relation entry on a line of its own). A string value such as
    `created_utc` thus keeps a line to itself. A 2-D bool ndarray value is
    written as rows of 0/1 integers straight from one byte buffer.
    """

    def text(value) -> str:
        if isinstance(value, np.ndarray) and value.dtype == bool and value.ndim == 2:
            return _bits_json(value).decode("ascii")
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    lines = [f"  {json.dumps(key)}: {text(doc[key])}" for key in sorted(doc)]
    with open(path, "w", encoding="utf-8") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")


def read_artifact(path, bits: str | None = None) -> dict:
    """Read an artifact document: one JSON object, in any JSON whitespace.

    The top-level keys go through json's string scanner and their values
    through its decoder, except the value of key `bits`: it must be a
    non-empty square matrix of 0/1 entries and comes back as a bool ndarray,
    decoded with numpy in one pass. Any defect raises DataError naming the
    file and, inside a value, the key.
    """
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    expected = "one JSON object" + (f" with a 0/1 matrix under {bits!r}" if bits else "")
    decoder = json.JSONDecoder()
    skip = json.decoder.WHITESPACE.match
    doc: dict = {}
    pos = skip(text, 0).end()

    def fail(cause: str, at: int) -> NoReturn:
        raise DataError(f"{path}: expected {expected}; {cause} at char {at}")

    if not text.startswith("{", pos):
        fail("no '{'", pos)
    pos = skip(text, pos + 1).end()
    if text.startswith("}", pos):
        pos += 1
    else:
        while True:
            if not text.startswith('"', pos):
                fail("no key", pos)
            try:
                key, pos = json.decoder.scanstring(text, pos + 1)
            except json.JSONDecodeError as exc:
                fail(f"bad key ({exc.msg})", exc.pos)
            pos = skip(text, pos).end()
            if not text.startswith(":", pos):
                fail(f"no ':' after key {key!r}", pos)
            pos = skip(text, pos + 1).end()
            try:
                doc[key], pos = _read_bits(text, pos) if key == bits else decoder.raw_decode(text, pos)
            except ValueError as exc:  # json.JSONDecodeError is one
                raise DataError(f"{path}: key {key!r}: {exc}") from None
            pos = skip(text, pos).end()
            if text.startswith("}", pos):
                pos += 1
                break
            if not text.startswith(",", pos):
                fail(f"no ',' or '}}' after the value of key {key!r}", pos)
            pos = skip(text, pos + 1).end()
    pos = skip(text, pos).end()
    if pos != len(text):
        fail("trailing data after the object", pos)
    return doc


@dataclass(frozen=True, eq=False)
class Dataset:
    """Input/output sample pairs with declared state and input dimensions."""

    n_x: int
    n_u: int
    z: np.ndarray  # (n_samples, n_x + n_u)
    y: np.ndarray  # (n_samples, n_x)

    def __post_init__(self):
        if self.n_x < 1 or self.n_u < 0:
            raise DataError(f"need n_x >= 1 and n_u >= 0, got n_x={self.n_x}, n_u={self.n_u}")
        z = np.ascontiguousarray(np.asarray(self.z, dtype=float))
        y = np.ascontiguousarray(np.asarray(self.y, dtype=float))
        if z.ndim != 2 or z.shape[1] != self.n_x + self.n_u:
            raise DataError(f"z must be (n, {self.n_x + self.n_u}), got {z.shape}")
        if y.ndim != 2 or y.shape != (z.shape[0], self.n_x):
            raise DataError(f"y must be ({z.shape[0]}, {self.n_x}), got {y.shape}")
        if z.shape[0] < 1:
            raise DataError("dataset must contain at least one sample")
        z.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.z.shape[0]

    @property
    def states(self) -> np.ndarray:
        """State portion of every z, shape (n_samples, n_x)."""
        return self.z[:, : self.n_x]

    @property
    def inputs(self) -> np.ndarray:
        """Input portion of every z, shape (n_samples, n_u)."""
        return self.z[:, self.n_x:]

    def subset(self, idx) -> Dataset:
        idx = np.asarray(idx, dtype=int)
        return Dataset(self.n_x, self.n_u, self.z[idx], self.y[idx])


@dataclass(frozen=True, eq=False)
class WorkingZone:
    """State-space box the model is valid on, plus bounds for external inputs.

    The zone's upper faces are closed so that the zone itself, and any tiling
    bisected out of it, contains its boundary points exactly once.
    """

    omega: Box
    input_bounds: Box | None = None

    def __post_init__(self):
        closed = np.ones(self.omega.dim, dtype=bool)
        object.__setattr__(self, "omega", Box(self.omega.lo, self.omega.hi, closed))

    @property
    def n_x(self) -> int:
        return self.omega.dim

    @property
    def n_u(self) -> int:
        return self.input_bounds.dim if self.input_bounds is not None else 0

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Bool mask of the (n, n_x) rows that lie in the zone: lo <= x <= hi
        on every face. A row holding NaN lies outside."""
        return np.all((points >= self.omega.lo) & (points <= self.omega.hi), axis=1)

    def check_dataset(self, data: Dataset) -> None:
        """Validate that every sample's state lies inside the zone."""
        if data.n_x != self.n_x:
            raise DataError(f"dataset state dimension {data.n_x} != zone dimension {self.n_x}")
        if data.n_u != self.n_u:
            raise DataError(f"dataset input dimension {data.n_u} != zone input dimension {self.n_u}")
        bad = np.nonzero(~self.contains(data.states))[0]
        if bad.size:
            r = int(bad[0])
            raise DataError(
                f"sample {r} state {data.states[r].tolist()} lies outside the working zone "
                f"[{self.omega.lo.tolist()}, {self.omega.hi.tolist()}]"
            )

    def to_dict(self) -> dict:
        return {
            "omega": self.omega.to_dict(),
            "input_bounds": self.input_bounds.to_dict() if self.input_bounds is not None else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> WorkingZone:
        ib = d.get("input_bounds")
        omega = boxes_from_docs([d["omega"]], None, lambda k: "zone.omega")[0]
        return cls(omega, boxes_from_docs([ib], None, lambda k: "zone.input_bounds")[0] if ib else None)


def zone_from_data(data: Dataset) -> WorkingZone:
    """Tight working zone around a dataset's states (and inputs, if any).

    With the zone's closed upper faces the bounding box already contains
    every sample. Constant dimensions are widened by 0.5 on each side to
    form a valid box.
    """

    def bounds(cols: np.ndarray) -> Box:
        lo = cols.min(axis=0)
        hi = cols.max(axis=0)
        flat = hi <= lo
        lo[flat] -= 0.5
        hi[flat] += 0.5
        return Box(lo, hi)

    omega = bounds(data.states)
    input_bounds = bounds(data.inputs) if data.n_u > 0 else None
    return WorkingZone(omega, input_bounds)


def load_dataset(path, n_x: int, n_u: int) -> Dataset:
    """Load a CSV of one-step samples: header row, columns x..., u..., y... .

    Raises DataError naming the offending row and column on any malformed
    or non-finite cell, and on column-count mismatches against n_x + n_u + n_x.
    """
    n_cols = n_x + n_u + n_x
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty, expected a header row") from None
        if len(header) != n_cols:
            raise DataError(
                f"{path}: header declares {len(header)} columns, expected "
                f"{n_cols} (n_x={n_x}, n_u={n_u})"
            )
        rows = []
        numbers = []  # CSV row number of each kept row; blank rows are skipped
        for r, row in enumerate(reader, start=1):
            if not row:
                continue
            numbers.append(r)
            if len(row) != n_cols:
                raise DataError(f"{path}: row {r} has {len(row)} columns, expected {n_cols}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                c = next(i for i, cell in enumerate(row) if not _is_float(cell))
                raise DataError(
                    f"{path}: row {r}, column {c + 1} ({header[c]!r}): "
                    f"non-numeric value {row[c]!r}"
                ) from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        k, c = (int(v) for v in bad[0])
        raise DataError(
            f"{path}: row {numbers[k]}, column {c + 1} ({header[c]!r}): "
            f"non-finite value {float(table[k, c])!r}"
        )
    return Dataset(n_x, n_u, table[:, : n_x + n_u], table[:, n_x + n_u:])


def save_dataset(path, data: Dataset, header: list[str] | None = None) -> None:
    """Write a dataset back to the CSV layout accepted by load_dataset."""
    if header is None:
        header = (
            [f"x{i + 1}" for i in range(data.n_x)]
            + [f"u{i + 1}" for i in range(data.n_u)]
            + [f"y{i + 1}" for i in range(data.n_x)]
        )
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for z, y in zip(data.z, data.y):
            writer.writerow([repr(float(v)) for v in z] + [repr(float(v)) for v in y])


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False
