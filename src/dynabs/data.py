"""Trajectory datasets and working zones.

A dataset is a flat table of one-step samples (z, y): z stacks the current
state with the external input (when there is one) and y is the successor
state. The sole ingestion format is CSV with a header row and the column
order x..., u..., y... .
"""

from __future__ import annotations

import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Callable, NoReturn

import numpy as np

from .geometry import Box, blocks, rows_all


class DataError(ValueError):
    """Malformed or inconsistent input data."""


# Exact JSON kinds, as `json.load` returns them: a boolean is neither an
# integer nor a number, a string such as "1" is neither either, and an
# integer beyond the float range has no float value, so it is no number.
JSON_KINDS = {
    "object": lambda v: type(v) is dict,
    "list": lambda v: type(v) is list,
    "integer": lambda v: type(v) is int,
    "number": lambda v: type(v) is float or type(v) is int and abs(v) <= sys.float_info.max,
    "string": lambda v: type(v) is str,
    "boolean": lambda v: type(v) is bool,
    "0 or 1": lambda v: type(v) is int and v in (0, 1),
    "list of numbers": lambda v: type(v) is list and all(map(JSON_KINDS["number"], v)),
}


def key_path(where: str, key: str) -> str:
    """Path of `key` inside the object at path `where` ("" for the document itself)."""
    return f"{where}.{key}" if where else key


def _of_kind(value, kind: str, path: str):
    if not JSON_KINDS[kind](value):
        raise DataError(f"{path} must be a JSON {kind}, got {_short(value)}")
    return value


def member(doc: dict, key: str, kind: str | None = None, where: str = ""):
    """`doc[key]`, of the `JSON_KINDS` entry `kind` unless None, for the object
    `doc` at path `where`; else DataError `<path> is missing` or `<path> must
    be a JSON <kind>, got <value>`."""
    path = key_path(where, key)
    if key not in doc:
        raise DataError(f"{path} is missing")
    return doc[key] if kind is None else _of_kind(doc[key], kind, path)


def objects(doc: dict, key: str, where: str = ""):
    """Yield (path, entry) for each entry of `doc[key]`, a list of JSON objects."""
    path = key_path(where, key)
    for i, entry in enumerate(member(doc, key, "list", where)):
        yield f"{path}[{i}]", _of_kind(entry, "object", f"{path}[{i}]")


def check_format_version(doc, version: int, what: str) -> None:
    """Reject an artifact document that is not a JSON object whose
    `format_version` is the integer `version`."""
    found = member(_of_kind(doc, "object", f"{what} document"), "format_version", "integer")
    if found != version:
        raise DataError(f"{what} document has format_version {found}; only version {version} can be read")


# The entry types that `number_rows` stacks for each `JSON_KINDS` entry it
# reads, and the dtype it stacks them as.
_ROW_TYPES = {"number": ({int, float}, float), "boolean": ({bool}, bool), "0 or 1": ({int}, bool)}


def number_rows(rows: list, path: Callable[[int], str], width: int | None = None, kind: str = "number") -> np.ndarray:
    """Rows, each a non-empty list of `width` finite JSON numbers (the first
    row's length when `width` is None), as a read-only (n, width) float
    ndarray; with `kind` "boolean", of JSON booleans, and with "0 or 1", of
    the JSON integers 0 and 1, as a bool ndarray.

    All rows are type-checked and stacked in one pass. Only when that fails
    are they walked, and the first defect raises DataError naming row
    `path(i)` or its entry `path(i)[j]`.
    """
    types, dtype = _ROW_TYPES[kind]
    try:
        n = len(rows[0]) if width is None else width
        # exact types: true and false are not numbers, and neither is "0.5"; 0/1
        # values are checked before the cast to bool, which takes 2 as true
        if (set(map(type, rows)) == {list} and set(map(len, rows)) == {n} and n > 0
                and set(map(type, chain.from_iterable(rows))) <= types
                and (kind != "0 or 1" or set(chain.from_iterable(rows)) <= {0, 1})):
            a = np.array(rows, dtype=dtype)
            if np.isfinite(a).all():
                a.setflags(write=False)
                return a
    except (IndexError, TypeError, OverflowError):  # OverflowError: an integer beyond the float range
        pass
    for i, row in enumerate(rows):
        _of_kind(row, "list", path(i))
        if width is None:
            width = len(row)
        if len(row) != width or not row:
            raise DataError(f"{path(i)} has {len(row)} entries, expected {width or 'at least 1'}")
        for j, x in enumerate(row):  # a boolean is finite
            if not math.isfinite(_of_kind(x, kind, f"{path(i)}[{j}]")):
                raise DataError(f"{path(i)}[{j}] is {_short(x)}, not a finite number")
    return np.empty((0, width or 0), dtype=dtype)  # only for no rows: rows that pass the walk pass the stacked pass


def boxes_from_docs(docs: list, dim: int | None, name: Callable[[int], str]) -> tuple[np.ndarray, ...]:
    """The stacked (n, dim) `lo`, `hi` and `closed_hi` rows, as `BoxTree`
    takes them, of a list of JSON box documents (`dim` is the first box's
    when None). `number_rows` reads all `lo`, then `hi`, then `closed_hi`
    lists, and lo < hi in every row. A defect raises DataError naming the
    first bad box as `name(k)`, with its key and, for a bad value, the entry.
    """
    try:
        lo_rows, hi_rows, closed_rows = ([d[key] for d in docs] for key in ("lo", "hi", "closed_hi"))
    except (KeyError, TypeError):  # TypeError: a box that is no JSON object
        for k, d in enumerate(docs):
            for key in ("lo", "hi", "closed_hi"):
                member(_of_kind(d, "object", name(k)), key, where=name(k))
    lo = number_rows(lo_rows, lambda k: f"{name(k)}.lo", dim)
    hi = number_rows(hi_rows, lambda k: f"{name(k)}.hi", lo.shape[1])
    closed = number_rows(closed_rows, lambda k: f"{name(k)}.closed_hi", lo.shape[1], "boolean")
    flat = lo >= hi
    if flat.any():
        k, i = np.argwhere(flat)[0]
        raise DataError(f"{name(k)} is degenerate: dimension {i} has lo={_short(lo_rows[k][i])} "
                        f">= hi={_short(hi_rows[k][i])}")
    return lo, hi, closed


def _short(value, limit: int = 60) -> str:
    """A value's JSON text (its repr if it has none), cut to `limit` characters for an error message."""
    try:
        text = json.dumps(value)
    except (TypeError, ValueError):
        text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


# The share of `geometry.STACK_BYTES` converted at once (64 KiB): of a 0/1
# matrix's JSON text in `write_artifact` and `read_artifact`, of a dataset's
# float values in `save_dataset`. A block holds at least one row.
TEXT_SHARE = 1 / 16


def _bits_rows(m: np.ndarray) -> np.ndarray:
    """The rows "[d,...,d]," of a 2-D bool matrix's compact JSON, 0/1 for
    each entry, as one (rows, 2 * cols + 2) uint8 buffer."""
    rows, cols = m.shape
    buf = np.empty((rows, 2 * cols + 2), dtype=np.uint8)
    buf[:, 0] = ord("[")
    buf[:, 1:2 * cols:2] = m
    buf[:, 1:2 * cols:2] += ord("0")
    buf[:, 2:2 * cols:2] = ord(",")
    buf[:, 2 * cols] = ord("]")
    buf[:, 2 * cols + 1] = ord(",")
    return buf


def _write_bits(f, m: np.ndarray) -> None:
    """Write the compact JSON of a 2-D bool matrix as 0/1 integers, equal to
    `json.dumps(m.astype(int).tolist(), separators=(",", ":"))`, to the text
    stream `f`, one TEXT_SHARE block at a time."""
    f.write("[")
    for i, j in blocks(0, len(m), 2 * m.shape[1] + 2, TEXT_SHARE):
        text = _bits_rows(m[i:j]).tobytes()
        f.write((text if j < len(m) else text[:-1]).decode("ascii"))
    f.write("]")


def _decode_bits(text: str, pos: int) -> tuple[np.ndarray, int] | None:
    """The n x n bool matrix whose compact JSON, "[" + n rows "[d,...,d]," with
    the outer "]" in place of the last ",", starts at text[pos], and the index
    just past it; or None unless n >= 1 and it does, n being taken from the
    first row's "]" at text[pos + 2n + 1]. Each TEXT_SHARE block of rows is
    tested, as a (rows, 2n + 2) view of its ASCII bytes, and decoded in
    turn, so only the result is held whole."""
    n = (text.find("]", pos) - pos - 1) // 2
    width = 2 * n + 2
    if n < 1 or not text.startswith("[", pos) or len(text) - pos < n * width + 1:
        return None
    layout = np.full(width, ord(","), dtype=np.uint8)  # "[1,...,1],"
    layout[0], layout[2 * n] = ord("["), ord("]")
    layout[1:2 * n:2] = ord("1")
    digit = (layout == ord("1")).astype(np.uint8)  # x | 1 == '1' only for x in '0', '1'
    out = np.empty((n, n), dtype=bool)
    for a, b in blocks(0, n, width, TEXT_SHARE):
        # a non-ASCII character becomes "?", which fails the test
        block = text[pos + 1 + a * width:pos + 1 + b * width].encode("ascii", "replace")
        rows = np.frombuffer(block, dtype=np.uint8).reshape(b - a, width)
        bad = (rows | digit) != layout
        if b == n:
            bad[-1, -1] = rows[-1, -1] != ord("]")
        if bad.any():
            return None
        out[a:b] = rows[:, 1:2 * n:2] == ord("1")
        del block, rows, bad  # before the next block is sliced
    return out, pos + n * width + 1


def bit_matrix(value, key: str) -> np.ndarray:
    """A document's non-empty square 0/1 matrix at `key` as a bool ndarray.

    A bool ndarray, as `read_artifact` decodes compact text, is taken as is.
    Nested lists, as `json` returns them for any other text, go through
    `number_rows` as rows of the JSON integers 0 and 1: a defect raises
    DataError naming the row or the entry, as in `relation[0][0] must be a
    JSON 0 or 1, got 2`.
    """
    if isinstance(value, np.ndarray) and value.dtype == bool:
        return value
    if type(value) is not list or not value:
        raise DataError(f"{key} must be a non-empty square matrix, got {_short(value)}")
    return number_rows(value, lambda i: f"{key}[{i}]", len(value), "0 or 1")


def write_artifact(path, doc: dict) -> None:
    """Write an artifact document as a JSON object, one top-level key per line.

    Keys come in sorted order, each as `  "key": <value>` with the value in
    compact JSON (the C encoder; `indent` would force the pure-Python one and
    put every relation entry on a line of its own). A string value such as
    `created_utc` thus keeps a line to itself. A 2-D bool ndarray value is
    written as rows of 0/1 integers, one block of rows at a time (see
    TEXT_SHARE), so its whole text is never held.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.write("{\n")
        for k, key in enumerate(sorted(doc)):
            value = doc[key]
            f.write((",\n" if k else "") + f"  {json.dumps(key)}: ")
            if isinstance(value, np.ndarray) and value.dtype == bool and value.ndim == 2:
                _write_bits(f, value)
            else:
                f.write(json.dumps(value, sort_keys=True, separators=(",", ":")))
        f.write("\n}\n")


def read_artifact(path, bits: str | None = None) -> dict:
    """Read an artifact document: one JSON object, in any JSON whitespace.

    The top-level keys go through json's string scanner and their values
    through its decoder, except a value of key `bits` in the compact layout
    that `write_artifact` writes: that comes back as a bool ndarray, decoded
    with numpy in place (see `_decode_bits`). Any other `bits` value, such as
    a matrix with JSON whitespace, goes through json's decoder too and is
    checked by `bit_matrix`, so that the document's reader can first name a
    newer `format_version`. Any JSON defect raises DataError naming the file
    and, inside a value, the key.
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
                decoded = _decode_bits(text, pos) if key == bits else None
                doc[key], pos = decoded or decoder.raw_decode(text, pos)
            except ValueError as exc:  # json.JSONDecodeError is one
                raise DataError(f"{path}: key {key!r}: {exc}") from None
            except RecursionError:
                raise DataError(f"{path}: key {key!r}: JSON values nested too deeply to read") from None
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
        z = np.asarray(self.z, dtype=float)  # column ranges of one table stay views of it
        y = np.asarray(self.y, dtype=float)
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
        return rows_all((points >= self.omega.lo) & (points <= self.omega.hi))

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
        """Zone from an artifact's `zone` object; null or no `input_bounds` means no inputs."""
        def box(doc, key: str) -> Box:  # a defect is named zone.<key>
            return Box(*(rows[0] for rows in boxes_from_docs([doc], None, lambda k: f"zone.{key}")))

        ib = d.get("input_bounds")
        return cls(box(member(d, "omega", where="zone"), "omega"), box(ib, "input_bounds") if ib is not None else None)


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
    The header goes through the csv module and the rows through numpy's C
    reader in one pass. A file that reader cannot take, or whose header or
    values are wrong, is read again row by row by the csv module alone: it
    names the defect, or reads what only it takes, such as quoted numbers.
    """
    n_cols = n_x + n_u + n_x
    try:
        with open(path, newline="", encoding="utf-8") as f:
            header = next(csv.reader(f), [])
            with warnings.catch_warnings():  # a file without data rows warns; the csv reader names it
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
    except ValueError:  # UnicodeDecodeError is one
        table = None
    if table is None or len(header) != n_cols or table.shape[1:] != (n_cols,) or not table.size \
            or not np.isfinite(table).all():
        return _read_csv(path, n_x, n_u)
    return Dataset(n_x, n_u, table[:, : n_x + n_u], table[:, n_x + n_u:])


def _read_csv(path, n_x: int, n_u: int) -> Dataset:
    """`load_dataset` by the csv module, one row at a time: the first defect raises DataError naming it."""
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


def save_dataset(path, data: Dataset) -> None:
    """Write a dataset in the CSV layout accepted by load_dataset, under the
    header x1..., u1..., y1... : each value as the `repr` of its float, each
    line ended by CRLF, as the csv module writes them. The rows are converted
    one TEXT_SHARE block at a time."""
    header = (
        [f"x{i + 1}" for i in range(data.n_x)]
        + [f"u{i + 1}" for i in range(data.n_u)]
        + [f"y{i + 1}" for i in range(data.n_x)]
    )
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(header) + "\r\n")
        for i, j in blocks(0, len(data), 8 * len(header), TEXT_SHARE):
            block = np.concatenate([data.z[i:j], data.y[i:j]], axis=1)
            f.writelines(",".join(map(repr, row)) + "\r\n" for row in block.tolist())


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False
