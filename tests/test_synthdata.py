"""The swirl generator of `synthdata` against its per-trajectory oracle."""

import numpy as np
import pytest

from oracles import trajectory_swirl
from synthdata import swirl_dataset

# every (samples, seed, swirl keywords) that the suite, tools/ladder.py and the CI workflow draw
SWIRL_CASES = [
    (300, 6, {}), (400, 2, {}), (500, 3, {}), (500, 9, {}), (600, 2, {}), (600, 4, {}), (600, 5, {}), (600, 6, {}),
    (800, 1, {}), (800, 3, {}), (800, 4, {}), (1200, 1, {}), (1500, 1, {}), (1500, 2, {}), (2000, 1, {}),
    (50_000, 1, {}), (200_000, 1, {}),
    (1000, 2, {"twist": 0.6}), (1200, 1, {"twist": 0.6}), (2000, 1, {"twist": 0.6}), (3000, 1, {"twist": 0.6}),
    (4000, 0, {"twist": 0.6}), (4000, 1, {"twist": 0.6}), (4000, 2, {"twist": 0.6}), (4000, 3, {"twist": 0.6}),
    (16_000, 1, {"twist": 0.6}), (20_000, 1, {"twist": 0.6}), (40_000, 1, {"twist": 0.6}),
    (200_000, 1, {"twist": 0.6}), (2_000_000, 1, {"twist": 0.6}),
    (800, 1, {"twist": 0.1, "damping": 0.96}), (800, 2, {"twist": 0.6, "damping": 0.96}),
    (800, 3, {"twist": 1.2, "damping": 0.9}), (800, 4, {"twist": 0.3, "damping": 0.92}),
    (800, 5, {"twist": 2.0, "damping": 0.88}),
    # fewer samples than one trajectory, and counts that are not a whole number of trajectories
    (50, 2, {}), (150, 5, {}), (150, 1, {"twist": 0.6}), (1250, 1, {}), (1250, 3, {"twist": 0.6}),
]
# above this many trajectories only the first, middle and last WINDOW of them are stepped one at a time
WHOLE, WINDOW = 200, 20


@pytest.mark.parametrize("n, seed, kwargs", SWIRL_CASES)
def test_swirl_dataset_equals_the_per_trajectory_loop(n, seed, kwargs):
    """All trajectories at once give the samples of one trajectory at a time,
    bit for bit, in trajectory-major order."""
    data = swirl_dataset(n, seed=seed, **kwargs)
    n_traj = -(-n // 100)
    assert data.z.shape == data.y.shape == (n, 2)  # the last trajectory cut short
    picked = np.arange(n_traj)
    if n_traj > WHOLE:
        mid = n_traj // 2
        picked = np.r_[:WINDOW, mid - WINDOW // 2: mid + WINDOW // 2, n_traj - WINDOW: n_traj]
    rows = (100 * picked[:, None] + np.arange(100)).ravel()
    rows = rows[rows < n]
    z, y = trajectory_swirl(n, seed, picked.tolist(), **kwargs)
    assert np.array_equal(data.z[rows].view(np.uint64), z.view(np.uint64))
    assert np.array_equal(data.y[rows].view(np.uint64), y.view(np.uint64))
