"""Single-hidden-layer ReLU extreme learning machine.

The hidden layer is random and fixed (uniform weights on [-1, 1] from a
seeded generator); only the linear output layer is trained, by a closed-form
least-squares solve. Keeping the solve closed-form is what makes per-network
training time meaningful to compare against a large monolithic network.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import DataError, Dataset, member, number_rows
from .geometry import blocks

DEFAULT_RIDGE = 1e-8


@dataclass(frozen=True, eq=False)
class ElmNetwork:
    """Fixed random hidden layer plus a solved linear readout."""

    w_in: np.ndarray   # (hidden_count, n_in)
    b_in: np.ndarray   # (hidden_count,)
    w_out: np.ndarray  # (n_out, hidden_count)
    hidden_count: int
    seed: int

    def __post_init__(self):
        # contiguous layout so reloaded weights reproduce products bit-for-bit
        w_in = np.ascontiguousarray(np.asarray(self.w_in, dtype=float))
        b_in = np.ascontiguousarray(np.asarray(self.b_in, dtype=float))
        w_out = np.ascontiguousarray(np.asarray(self.w_out, dtype=float))
        h = self.hidden_count
        if w_in.ndim != 2 or w_in.shape[0] != h or b_in.shape != (h,):
            raise ValueError(f"w_in and b_in have shapes {w_in.shape} and {b_in.shape}, expected (h, n_in) and (h,) "
                             f"for hidden_count h = {h}")
        if w_out.ndim != 2 or w_out.shape[1] != h:
            raise ValueError(f"w_out has shape {w_out.shape}, expected (n_out, {h}) for hidden_count {h}")
        for a in (w_in, b_in, w_out):
            a.setflags(write=False)
        object.__setattr__(self, "w_in", w_in)
        object.__setattr__(self, "b_in", b_in)
        object.__setattr__(self, "w_out", w_out)

    @property
    def n_in(self) -> int:
        return self.w_in.shape[1]

    @property
    def n_out(self) -> int:
        return self.w_out.shape[0]

    def hidden(self, z: np.ndarray) -> np.ndarray:
        """ReLU hidden activations for a batch of inputs, shape (n, hidden)."""
        h = z @ self.w_in.T
        h += self.b_in
        return np.maximum(h, 0.0, out=h)

    def to_dict(self) -> dict:
        return {
            "hidden_count": self.hidden_count,
            "seed": self.seed,
            "w_in": self.w_in.tolist(),
            "b_in": self.b_in.tolist(),
            "w_out": self.w_out.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict, where: str = "network") -> ElmNetwork:
        """Network from the JSON object at path `where`, read through
        `data.member` and `data.number_rows`: `hidden_count` and `seed` are
        JSON integers, `w_in` and `w_out` lists of rows and `b_in` one row, of
        finite JSON numbers. A defect raises DataError naming its path, down to
        the entry; weight shapes that do not fit `hidden_count` name `where`."""
        hidden_count, seed = (member(d, key, "integer", where) for key in ("hidden_count", "seed"))
        w_in = number_rows(member(d, "w_in", "list", where), lambda i: f"{where}.w_in[{i}]")
        b_in = number_rows([member(d, "b_in", "list", where)], lambda i: f"{where}.b_in")[0]
        w_out = number_rows(member(d, "w_out", "list", where), lambda i: f"{where}.w_out[{i}]")
        try:
            return cls(w_in, b_in, w_out, hidden_count, seed)
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from None


def init_elm(n_in: int, n_out: int, hidden_count: int, seed: int) -> ElmNetwork:
    """Fresh network: hidden weights i.i.d. uniform on [-1, 1], zero readout."""
    if n_in < 1 or n_out < 1 or hidden_count < 1:
        raise ValueError("n_in, n_out, and hidden_count must be positive")
    rng = np.random.default_rng(seed)
    w_in = rng.uniform(-1.0, 1.0, size=(hidden_count, n_in))
    b_in = rng.uniform(-1.0, 1.0, size=hidden_count)
    w_out = np.zeros((n_out, hidden_count))
    return ElmNetwork(w_in, b_in, w_out, hidden_count, int(seed))


def fit_output_weights(net: ElmNetwork, data: Dataset) -> ElmNetwork:
    """Solve the readout: argmin ||H W^T - Y||_F^2 + DEFAULT_RIDGE ||W||_F^2.

    H is the ReLU hidden matrix of the dataset; the ridge term keeps the
    solve well posed when H is rank deficient (dead units, repeated rows).
    It is solved as the augmented least-squares system [H; sqrt(ridge) I].
    """
    if data.n_x != net.n_out or data.n_x + data.n_u != net.n_in:
        raise ValueError(
            f"dataset dimensions (n_x={data.n_x}, n_u={data.n_u}) do not match "
            f"network (n_in={net.n_in}, n_out={net.n_out})"
        )
    a = np.vstack([net.hidden(data.z), np.sqrt(DEFAULT_RIDGE) * np.eye(net.hidden_count)])
    b = np.vstack([data.y, np.zeros((net.hidden_count, net.n_out))])
    w_t, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    return replace(net, w_out=w_t.T)


# The fit holds one block of `geometry.STACK_BYTES` besides the data's table,
# 8 bytes of row index per sample (`RowSets`) and its results: a chunk of the
# merge sweep's candidate statistics takes a third, and beside it either one
# gather of sample rows with its activations and products (GATHER_SHARE, in
# `RowSets` and `ReadoutStats.of`) or a window of pair tests, whose pools and
# `ReadoutStats.readout`'s ridge-shifted copy of them are at most a chunk
# each. One entry's H^T H (8 h^2 bytes) and one row set's activations (8 r h
# bytes) are held whole, since splitting either would change bits, so a share
# holds at least one of either. The fit steps no sample;
# `HybridModel.predict_located` steps its pieces in whole blocks.
GATHER_SHARE = 2 / 3


def id_runs(ids) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Stable sort order of the 1-D integer `ids` and (id, start, stop) of
    each run of one id in that order, ids ascending: `order[start:stop]` are
    the rows of the id, in ascending order."""
    ids = np.asarray(ids)
    order = np.argsort(ids, kind="stable")
    run_ids = ids[order]
    bounds = [0, *(np.flatnonzero(run_ids[1:] != run_ids[:-1]) + 1).tolist(), ids.size]
    return order, [(int(run_ids[a]), a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


class RowSets:
    """Disjoint row sets of one sample table (z, y), held as one (k, r)
    stack of intp row indices per set size r, copied once from the sets in
    whatever integer type they come (`me_partition` gives int32):
    `ReadoutStats.of` gathers any selection of the sets from the table, in
    blocks of GATHER_SHARE of `geometry.STACK_BYTES`, under any hidden
    layer. The table itself is not copied."""

    def __init__(self, z: np.ndarray, y: np.ndarray, sets: list[np.ndarray]):
        self.n_in, self.n_out = z.shape[1], y.shape[1]
        self.z, self.y = row_items(z), row_items(y)  # the table's rows, read through `gather`
        self.size = np.array([len(s) for s in sets], dtype=int)
        self.slot = np.empty(len(sets), dtype=int)  # position of each set in its size's stack
        self.stacks: dict[int, np.ndarray] = {}
        self.yy = np.empty(len(sets))  # sum of Y^2 of each set, as np.sum of its rows gives it
        by_size, runs = id_runs(self.size)
        idx = np.concatenate([sets[i] for i in by_size], dtype=np.intp)  # sets ordered by size, the one copy
        start = 0
        for r, a, b in runs:
            k, stop = by_size[a:b], start + (b - a) * r
            rows = self.stacks[r] = idx[start:stop].reshape(b - a, r)
            self.slot[k] = np.arange(b - a)
            for i, j in blocks(0, b - a, 8 * r * (1 + 2 * self.n_out), GATHER_SHARE):
                ys = gather(self.y, rows[i:j], self.n_out)
                self.yy[k[i:j]] = (ys * ys).reshape(ys.shape[0], -1).sum(axis=1)
            start = stop


def row_items(a: np.ndarray) -> np.ndarray:
    """The rows of the 2-D float array `a` as a 1-D array of one opaque item
    per row, a view of `a` when each row is contiguous. numpy gathers such
    items a whole row at a time, several times faster than rows of floats."""
    if a.strides[1] != a.itemsize:
        a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.itemsize * a.shape[1])))[:, 0]


def gather(items: np.ndarray, idx: np.ndarray, width: int) -> np.ndarray:
    """The rows `idx` (any shape) of the `row_items` `items` of a table of
    `width` float columns, as a C-contiguous float array of shape
    idx.shape + (width,)."""
    return items[idx].view(float).reshape(*idx.shape, width)


@dataclass(frozen=True, eq=False)
class ReadoutStats:
    """Additive sufficient statistics of readout fits over one hidden layer,
    stacked on a leading axis: entry k belongs to one row set.

    H^T H, H^T Y, sum of Y^2 and the row count add up over disjoint row sets,
    so the fit of a pooled set follows from its parts without their rows
    (the recursive form of OS-ELM, Liang et al., IEEE TNN 2006). Every
    operation works on all entries at once, and gives each entry the bits the
    same operation gives one entry on its own, so batching a sequence of
    tests changes no decision.
    """

    hh: np.ndarray    # (m, hidden_count, hidden_count)
    hy: np.ndarray    # (m, hidden_count, n_out)
    yy: np.ndarray    # (m,)
    rows: np.ndarray  # (m,) int

    @classmethod
    def of(cls, net: ElmNetwork, sets: RowSets, ids) -> ReadoutStats:
        """Entry k from the row set `ids[k]` of `sets`.

        Sets of one size go through one stacked `a^T @ a`, which runs the
        product each set's own `h.T @ h` runs, so every entry equals that of
        its set alone. A block's gathered rows, activations and products
        together take at most GATHER_SHARE of `geometry.STACK_BYTES`
        (`blocks`), besides the returned stack.
        """
        ids = np.asarray(ids, dtype=int)
        m, h = ids.size, net.hidden_count
        n_in, n_out = sets.n_in, sets.n_out
        rows = sets.size[ids]
        hh, hy = np.empty((m, h, h)), np.empty((m, h, n_out))
        by_size, runs = id_runs(rows)
        slots = sets.slot[ids[by_size]]
        for r, a, b in runs:
            for i, j in blocks(a, b, 8 * (r * (1 + n_in + n_out + h) + h * (h + n_out)), GATHER_SHARE):
                k, s = by_size[i:j], sets.stacks[r][slots[i:j]]
                act = net.hidden(gather(sets.z, s, n_in))
                hh[k] = act.transpose(0, 2, 1) @ act
                hy[k] = act.transpose(0, 2, 1) @ gather(sets.y, s, n_out)
        return cls(hh, hy, sets.yy[ids], rows)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, k) -> ReadoutStats:
        """Entries `k` (a slice or an index array), or entry `k` alone for an integer."""
        if isinstance(k, (int, np.integer)):
            k = slice(k, k + 1 or None)
        return ReadoutStats(self.hh[k], self.hy[k], self.yy[k], self.rows[k])

    def copy(self) -> ReadoutStats:
        return ReadoutStats(self.hh.copy(), self.hy.copy(), self.yy.copy(), self.rows.copy())

    def __add__(self, other: ReadoutStats) -> ReadoutStats:
        """Entrywise sums; a one-entry side is added to every entry of the other."""
        return ReadoutStats(self.hh + other.hh, self.hy + other.hy, self.yy + other.yy, self.rows + other.rows)

    def running(self, start: ReadoutStats) -> ReadoutStats:
        """Entry k is start + self[0] + ... + self[k], added in that order,
        for the one-entry `start`. The sums are taken in place, so the
        result is the only stack this allocates."""
        def run(a, b):
            total = np.concatenate([a, b])
            return np.cumsum(total, axis=0, out=total)[1:]

        return ReadoutStats(*(run(a, b) for a, b in zip((start.hh, start.hy, start.yy, start.rows),
                                                        (self.hh, self.hy, self.yy, self.rows))))

    def readout(self) -> np.ndarray:
        """W^T of the ridge readout at DEFAULT_RIDGE, one (hidden_count, n_out)
        block per entry: the h x h normal equations (H^T H + ridge I) W^T =
        H^T Y, solved for all entries by one stacked solve. The minimizer is
        the one fit_output_weights finds by least squares on the rows; a
        singular system raises LinAlgError."""
        return np.linalg.solve(self.hh + DEFAULT_RIDGE * np.eye(self.hh.shape[-1]), self.hy)

    def mse(self, w_t: np.ndarray) -> np.ndarray:
        """Training MSE of the readout block `w_t[k]` on the rows of entry k,
        for W^T stacked as `readout` gives it; every entry must hold rows.

        The residual sum ||H W^T - Y||^2 = Y^T Y - 2<W^T, H^T Y> + <W^T, H^T H
        W^T> is stationary in W at the `readout`, so solve error enters squared.
        """
        m = len(self)
        fit = (w_t * self.hy).reshape(m, -1).sum(axis=1)
        quad = (w_t * (self.hh @ w_t)).reshape(m, -1).sum(axis=1)
        return np.maximum(self.yy - 2.0 * fit + quad, 0.0) / self.rows


def predict_batch(net: ElmNetwork, z: np.ndarray) -> np.ndarray:
    """y = w_out . ReLU(w_in . z + b_in) for each row of z, shape (n, n_in) -> (n, n_out).
    numpy multiplies a single row, or a single readout column, by another
    BLAS routine (a matrix-vector product) than several, so one row runs as
    two copies of it and a one-output readout as two copies of its column:
    every row gets the bits of any batch."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[1] != net.n_in:
        raise ValueError(f"batch of shape {z.shape} fed to network with n_in={net.n_in}")
    n = z.shape[0]
    if n == 1:
        z = np.repeat(z, 2, axis=0)
    w_out = net.w_out if net.n_out > 1 else np.repeat(net.w_out, 2, axis=0)
    return (net.hidden(z) @ w_out.T)[:n, :net.n_out]


def mean_squared_error(y_hat: np.ndarray, y: np.ndarray) -> float:
    """(1/n) sum ||y_hat - y||^2 over the rows; one that is not finite raises FloatingPointError."""
    with np.errstate(over="ignore", invalid="ignore"):  # named below, not warned of
        value = float(np.mean(np.sum(np.square(y_hat - y), axis=1)))
    if not np.isfinite(value):
        raise FloatingPointError(f"mean squared error is {value!r}, not finite: the prediction errors overflow it")
    return value


def mse(net: ElmNetwork, data: Dataset) -> float:
    """Mean squared prediction error: (1/n) sum ||y_hat - y||^2 (see `mean_squared_error`)."""
    return mean_squared_error(predict_batch(net, data.z), data.y)
