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


# bytes one stacked block of readout statistics or hidden activations may
# hold: entries are stacked up to this size, however large the hidden layer
STACK_BYTES = 1 << 23


class RowSets:
    """Disjoint row sets of one sample table (z, y), gathered once into one
    (k, r, ...) stack per set size r, so that `ReadoutStats.of` reads any
    selection of the sets under any hidden layer without gathering rows."""

    def __init__(self, z: np.ndarray, y: np.ndarray, sets: list[np.ndarray]):
        self.n_out = y.shape[1]
        self.size = np.array([len(s) for s in sets], dtype=int)
        self.slot = np.empty(len(sets), dtype=int)  # position of each set in its size's stack
        self.stacks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.yy = np.empty(len(sets))  # sum of Y^2 of each set, as np.sum of its rows gives it
        for r in np.unique(self.size):
            k = np.flatnonzero(self.size == r)
            idx = np.array([sets[i] for i in k], dtype=int).reshape(k.size, r)
            zs, ys = z[idx], y[idx]
            self.stacks[int(r)] = zs, ys
            self.slot[k] = np.arange(k.size)
            self.yy[k] = (ys * ys).reshape(k.size, -1).sum(axis=1)


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

        Sets of one size go through one stacked `a^T @ a` (blocks of at most
        STACK_BYTES of activations), which runs the product each set's own
        `h.T @ h` runs, so every entry equals that of its set alone.
        """
        ids = np.asarray(ids, dtype=int)
        m, h = ids.size, net.hidden_count
        rows = sets.size[ids]
        hh, hy = np.empty((m, h, h)), np.empty((m, h, sets.n_out))
        for r in np.unique(rows):
            at = np.flatnonzero(rows == r)
            z, y = sets.stacks[int(r)]
            slots = sets.slot[ids[at]]
            block = max(1, STACK_BYTES // (8 * h * max(int(r), 1)))
            for i in range(0, at.size, block):
                k, s = at[i:i + block], slots[i:i + block]
                a = net.hidden(z[s])
                hh[k] = a.transpose(0, 2, 1) @ a
                hy[k] = a.transpose(0, 2, 1) @ y[s]
        return cls(hh, hy, sets.yy[ids], rows)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, k) -> ReadoutStats:
        """Entries `k` (a slice or an index array), or entry `k` alone for an integer."""
        if isinstance(k, (int, np.integer)):
            k = slice(k, k + 1 or None)
        return ReadoutStats(self.hh[k], self.hy[k], self.yy[k], self.rows[k])

    def __add__(self, other: ReadoutStats) -> ReadoutStats:
        """Entrywise sums; a one-entry side is added to every entry of the other."""
        return ReadoutStats(self.hh + other.hh, self.hy + other.hy, self.yy + other.yy, self.rows + other.rows)

    def running(self, start: ReadoutStats) -> ReadoutStats:
        """Entry k is start + self[0] + ... + self[k], added in that order,
        for the one-entry `start`."""
        return ReadoutStats(*(np.cumsum(np.concatenate([a, b]), axis=0)[1:]
                              for a, b in zip((start.hh, start.hy, start.yy, start.rows),
                                              (self.hh, self.hy, self.yy, self.rows))))

    def readout(self) -> np.ndarray:
        """W^T of the ridge readout at DEFAULT_RIDGE, one (hidden_count, n_out)
        block per entry: the h x h normal equations (H^T H + ridge I) W^T =
        H^T Y, solved for all entries by one stacked solve. The minimizer is
        the one fit_output_weights finds by least squares on the rows; a
        singular system raises LinAlgError."""
        return np.linalg.solve(self.hh + DEFAULT_RIDGE * np.eye(self.hh.shape[-1]), self.hy)

    def ridge_mse(self) -> np.ndarray:
        """Training MSE of the `readout` of each entry; every entry must hold rows.

        The residual sum ||H W^T - Y||^2 = Y^T Y - 2<W^T, H^T Y> + <W^T, H^T H
        W^T> is stationary in W, so solve error enters squared.
        """
        m = len(self)
        w_t = self.readout()
        fit = (w_t * self.hy).reshape(m, -1).sum(axis=1)
        quad = (w_t * (self.hh @ w_t)).reshape(m, -1).sum(axis=1)
        return np.maximum(self.yy - 2.0 * fit + quad, 0.0) / self.rows


def predict_batch(net: ElmNetwork, z: np.ndarray) -> np.ndarray:
    """y = w_out . ReLU(w_in . z + b_in) for each row of z, shape (n, n_in) -> (n, n_out)."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[1] != net.n_in:
        raise ValueError(f"batch of shape {z.shape} fed to network with n_in={net.n_in}")
    return net.hidden(z) @ net.w_out.T


def mse(net: ElmNetwork, data: Dataset) -> float:
    """Mean squared prediction error: (1/n) sum ||y_hat - y||^2."""
    err = predict_batch(net, data.z) - data.y
    return float(np.mean(np.sum(err * err, axis=1)))
