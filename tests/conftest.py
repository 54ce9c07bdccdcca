"""Shared fixtures: small networks and simulated patterns reused across tests.

Also the two adapters between the block-wise pair engine and the flat
dense references: ``one_block`` and ``joined``.
"""

import numpy as np
import pytest

from stpoint import (
    IntensitySpec,
    LinearNetwork,
    SpatialWindow,
    TimeInterval,
    sim_poisson,
)


def one_block(dense_pairs):
    """A reference pair function as ``summaries._pairs``: its pairs as one block."""

    def blocks(*args, **kwargs):
        yield dense_pairs(*args, **kwargs)

    return blocks


def joined(blocks):
    """The blocks of ``summaries._pairs`` as one flat (i, j, d, dt, w, skipped)."""
    blocks = list(blocks)
    return (*(np.concatenate(c) for c in zip(*(b[:5] for b in blocks))), sum(b[5] for b in blocks))


@pytest.fixture(scope="session")
def unit_window():
    return SpatialWindow(0.0, 1.0, 0.0, 1.0)


@pytest.fixture(scope="session")
def unit_interval():
    return TimeInterval(0.0, 1.0)


@pytest.fixture(scope="session")
def grid_network():
    """4 x 3 vertex grid with two diagonals: 19 segments, unit spacing."""
    verts = [(i, j) for j in range(3) for i in range(4)]
    segs = []
    for j in range(3):
        for i in range(3):
            segs.append((j * 4 + i, j * 4 + i + 1))
    for j in range(2):
        for i in range(4):
            segs.append((j * 4 + i, (j + 1) * 4 + i))
    segs.append((0, 5))
    segs.append((6, 11))
    return LinearNetwork(np.array(verts, dtype=float), np.array(segs))


@pytest.fixture(scope="session")
def cycle_network():
    """Unit square traversed as a 4-cycle, perimeter 4."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    segs = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    return LinearNetwork(verts, segs)


@pytest.fixture(scope="session")
def poisson100(unit_window, unit_interval):
    """One homogeneous Poisson(100) pattern on the unit cube, fixed seed."""
    return sim_poisson(
        IntensitySpec.constant(100.0),
        window=unit_window,
        interval=unit_interval,
        seed=4,
    )


@pytest.fixture(scope="session")
def net_poisson(grid_network, unit_interval):
    """Homogeneous Poisson pattern on the grid network, fixed seed."""
    return sim_poisson(
        IntensitySpec.constant(3.0),
        network=grid_network,
        interval=unit_interval,
        seed=11,
    )
