"""Single-hidden-layer ReLU extreme learning machine.

The hidden layer is random and fixed (uniform weights on [-1, 1] from a
seeded generator); only the linear output layer is trained, by a closed-form
least-squares solve. Keeping the solve closed-form is what makes per-network
training time meaningful to compare against a large monolithic network.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .geometry import _short

DEFAULT_RIDGE = 1e-8


def relu(t: np.ndarray) -> np.ndarray:
    return np.maximum(t, 0.0)


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
        return relu(z @ self.w_in.T + self.b_in)

    def to_dict(self) -> dict:
        return {
            "hidden_count": self.hidden_count,
            "seed": self.seed,
            "w_in": self.w_in.tolist(),
            "b_in": self.b_in.tolist(),
            "w_out": self.w_out.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> ElmNetwork:
        """Network from its JSON document, with the exact types of
        `geometry.boxes_from_docs`: `hidden_count` and `seed` are JSON
        integers, `w_in` and `w_out` lists of rows and `b_in` a list, of
        finite JSON numbers. A defect raises ValueError whose message starts
        with the key."""
        for key in ("hidden_count", "seed"):
            if type(d[key]) is not int:
                raise ValueError(f"{key} must be a JSON integer, got {_short(d[key])}")
        weights = {key: _weights(d[key], key, ndim) for key, ndim in (("w_in", 2), ("b_in", 1), ("w_out", 2))}
        return cls(**weights, hidden_count=d["hidden_count"], seed=d["seed"])


def _weights(value, key: str, ndim: int) -> np.ndarray:
    """A weight matrix (ndim 2) or vector (ndim 1) from its JSON value."""
    rows = value if ndim == 2 else [value]
    kind = "a list of equal-length lists" if ndim == 2 else "a list"
    if type(value) is not list or not all(type(r) is list for r in rows):
        raise ValueError(f"{key} must be {kind} of JSON numbers, got {_short(value)}")
    for i, row in enumerate(rows):
        for x in row:
            if type(x) not in (int, float):  # true and "0.5" are not numbers
                raise ValueError(f"{key}{f'[{i}]' if ndim == 2 else ''} holds {_short(x)}, not a JSON number")
    try:
        a = np.array(value, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{key} holds a non-finite value") from None
    except ValueError:
        raise ValueError(f"{key} must be {kind} of JSON numbers, got rows of unequal length") from None
    if not np.isfinite(a).all():
        raise ValueError(f"{key} holds a non-finite value")
    return a


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


@dataclass(frozen=True, eq=False)
class ReadoutStats:
    """Additive sufficient statistics of a readout fit over one hidden layer.

    H^T H, H^T Y, sum of Y^2 and the row count add up over disjoint row sets,
    so the fit of a pooled set follows from its parts without their rows
    (the recursive form of OS-ELM, Liang et al., IEEE TNN 2006).
    """

    hh: np.ndarray  # (hidden_count, hidden_count)
    hy: np.ndarray  # (hidden_count, n_out)
    yy: float
    rows: int

    @classmethod
    def of(cls, net: ElmNetwork, z: np.ndarray, y: np.ndarray) -> ReadoutStats:
        h = net.hidden(z)
        return cls(h.T @ h, h.T @ y, float(np.sum(y * y)), z.shape[0])

    def __add__(self, other: ReadoutStats) -> ReadoutStats:
        return ReadoutStats(self.hh + other.hh, self.hy + other.hy, self.yy + other.yy, self.rows + other.rows)

    def ridge_mse(self) -> float:
        """Training MSE of the readout fit_output_weights solves at DEFAULT_RIDGE for these rows.

        The readout comes from the h x h normal equations (H^T H + ridge I) W^T
        = H^T Y; the residual sum ||H W^T - Y||^2 = Y^T Y - 2<W^T, H^T Y> +
        <W^T, H^T H W^T> is stationary in W, so solve error enters squared.
        """
        w_t = np.linalg.solve(self.hh + DEFAULT_RIDGE * np.eye(self.hh.shape[0]), self.hy)
        rss = self.yy - 2.0 * float(np.sum(w_t * self.hy)) + float(np.sum(w_t * (self.hh @ w_t)))
        return max(rss, 0.0) / self.rows


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
