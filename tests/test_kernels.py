import math

import numpy as np

from fracheat import _kernels, picard
from fracheat.grid import TorusGrid

from conftest import SEED


def _second_iterate_oracle(targets, xi1, w, t, alpha, prefac):
    """Scalar-loop reference: one kernel branch chosen per (target, node)."""
    p = 2.0 * alpha
    out = np.empty(targets.shape[0])
    for j in range(targets.shape[0]):
        xi = targets[j]
        mu = abs(xi) ** p
        emu = math.exp(-mu * t)
        acc = 0.0
        for i in range(xi1.shape[0]):
            nu = abs(xi1[i]) ** p + abs(xi - xi1[i]) ** p
            theta = mu - nu
            x = theta * t
            if abs(x) < _kernels.SERIES_CUT:
                k = t * emu * (1.0 + 0.5 * x + x * x / 6.0)
            elif x > _kernels.EXP_BIG:
                k = (math.exp(-nu * t) - emu) / theta
            else:
                k = emu * math.expm1(x) / theta
            acc += w[j, i] * k
        out[j] = prefac * acc
    return out


def _assert_matches_oracle(targets, xi1, w, t, alpha, prefac=1.0):
    got = _kernels.second_iterate_values(targets, xi1, lambda a, b: w[a:b],
                                         t, alpha, prefac)
    want = _second_iterate_oracle(targets, xi1, w, t, alpha, prefac)
    assert got.shape == want.shape == (targets.shape[0],)
    scale = max(np.max(np.abs(want)), 1e-300)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-14 * scale)


def test_backend_report():
    assert _kernels.BACKEND == "numpy"
    print(f"active kernel backend: {_kernels.BACKEND}")


def test_second_iterate_matches_oracle_on_every_branch():
    rng = np.random.default_rng(SEED)
    # xi1 = 0 and xi1 = xi give theta = 0 (series branch); at alpha = 1,
    # theta = 2 xi1 (xi - xi1), which exceeds 500/t for same-sign splits
    targets = np.array([-40.0, -3.0, 0.0, 0.5, 7.0, 40.0])
    xi1 = np.concatenate([[0.0, 0.5, 7.0, 20.0, -20.0],
                          rng.uniform(-30.0, 30.0, 35)])
    w = rng.uniform(0.5, 1.5, (targets.size, xi1.size))
    for alpha, t in ((1.0, 1.0), (0.75, 0.4), (0.5, 0.05), (0.3, 1e-9)):
        _assert_matches_oracle(targets, xi1, w, t, alpha, prefac=0.3)
    x = picard.theta(targets[:, None], xi1[None, :], 1.0)  # t = 1
    series = np.abs(x) < _kernels.SERIES_CUT
    big = x > _kernels.EXP_BIG
    assert series.any() and big.any() and (~series & ~big).any()


def test_second_iterate_matches_oracle_on_lattice_weights():
    rng = np.random.default_rng(SEED)
    g = TorusGrid(64.0, 1024)
    xi1 = g.frequencies
    w = np.exp(-((np.abs(xi1) - 8.0) ** 2)) * (np.abs(xi1) < 20)
    weights = np.outer(np.ones(7), w) * rng.uniform(0.5, 1.5, (7, xi1.size))
    targets = np.linspace(-30.0, 30.0, 7)
    _assert_matches_oracle(targets, xi1, weights, 0.4, 0.6,
                           prefac=4 * np.pi / g.period)


def test_second_iterate_tile_edges():
    rng = np.random.default_rng(SEED)
    # several row tiles, the last one partial
    xi1 = rng.uniform(-10.0, 10.0, 40)
    rows = _kernels.TILE_ELEMS // xi1.size
    targets = rng.uniform(-20.0, 20.0, 2 * rows + 5)
    w = rng.uniform(0.5, 1.5, (targets.size, xi1.size))
    _assert_matches_oracle(targets, xi1, w, 0.3, 0.75)
    # more nodes than one tile holds: one row per tile
    xi1 = rng.uniform(-10.0, 10.0, _kernels.TILE_ELEMS + 3)
    targets = np.array([-4.0, 0.0, 9.0])
    w = rng.uniform(0.5, 1.5, (targets.size, xi1.size))
    _assert_matches_oracle(targets, xi1, w, 0.3, 0.75)
    # no targets
    out = _kernels.second_iterate_values(np.empty(0), xi1,
                                         lambda a, b: np.empty((0, xi1.size)),
                                         0.3, 0.75, 1.0)
    assert out.shape == (0,)
