"""Trajectory datasets and working zones.

A dataset is a flat table of one-step samples (z, y): z stacks the current
state with the external input (when there is one) and y is the successor
state. The sole ingestion format is CSV with a header row and the column
order x..., u..., y... .
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .geometry import Box


class DataError(ValueError):
    """Malformed or inconsistent input data."""


def check_format_version(doc, version: int, what: str) -> None:
    """Reject an artifact document that is not a JSON object of `version`."""
    if not isinstance(doc, dict):
        raise DataError(f"{what} document must be a JSON object")
    if "format_version" not in doc:
        raise DataError(f"{what} document missing format_version")
    if doc["format_version"] != version:
        raise DataError(f"{what} document has format_version {doc['format_version']!r}; "
                        f"only version {version} can be read")


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

    def check_dataset(self, data: Dataset) -> None:
        """Validate that every sample's state lies inside the zone."""
        if data.n_x != self.n_x:
            raise DataError(f"dataset state dimension {data.n_x} != zone dimension {self.n_x}")
        if data.n_u != self.n_u:
            raise DataError(f"dataset input dimension {data.n_u} != zone input dimension {self.n_u}")
        states = data.states
        inside = (states >= self.omega.lo) & (states <= self.omega.hi)
        bad = np.nonzero(~inside.all(axis=1))[0]
        if bad.size:
            r = int(bad[0])
            raise DataError(
                f"sample {r} state {states[r].tolist()} lies outside the working zone "
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
        return cls(Box.from_dict(d["omega"]), Box.from_dict(ib) if ib else None)


def zone_from_data(data: Dataset, pad: float = 0.0) -> WorkingZone:
    """Tight working zone around a dataset's states (and inputs, if any).

    With the zone's closed upper faces a zero-pad bounding box already
    contains every sample; `pad` widens each side by that fraction of its
    extent. Constant dimensions are widened enough to form a valid box.
    """

    def bounds(cols: np.ndarray) -> Box:
        lo = cols.min(axis=0)
        hi = cols.max(axis=0)
        ext = hi - lo
        ext[ext == 0.0] = 1.0
        lo = lo - pad * ext
        hi = hi + pad * ext
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
