import math
import warnings

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


def _three_branch_kernel(xi, xi1, t, alpha):
    """The kernel as it was: all three branches on every lane, one picked
    per lane by np.where."""
    mu, nu = _kernels.symbol_split(xi, xi1, alpha)
    theta = mu - nu
    with np.errstate(over="ignore", invalid="ignore"):
        x = theta * t
        small = np.abs(x) < _kernels.SERIES_CUT
        big = x > _kernels.EXP_BIG
        safe_theta = np.where(small, 1.0, theta)
        emu = np.exp(-mu * t)
        quot = emu * np.expm1(x) / safe_theta
        stable = (np.exp(-nu * t) - emu) / safe_theta
    xs = np.where(small, x, 0.0)
    series = t * emu * (1.0 + 0.5 * xs + xs * xs / 6.0)
    return np.where(small, series, np.where(big, stable, quot))


def _times_against_scalar_calls(targets, xi1, w, times, alpha):
    weights = lambda a, b: w[a:b]
    got = _kernels.second_iterate_values(targets, xi1, weights, times,
                                         alpha, 0.3)
    want = np.stack([_kernels.second_iterate_values(targets, xi1, weights,
                                                    float(t), alpha, 0.3)
                     for t in times])
    assert got.shape == (len(times), targets.shape[0])
    assert np.array_equal(got, want)


def test_backend_report():
    assert _kernels.BACKEND == "numpy"
    print(f"active kernel backend: {_kernels.BACKEND}")


def test_kernel_at_a_huge_time_warns_nothing():
    # the series branch was evaluated on every lane, and x*x overflowed
    # on the lanes np.where then discarded; xi1 = 0 is a series lane. At
    # |xi| = 1e6, mu*t and theta*t themselves overflow to inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = picard.duhamel_kernel(np.array([1.0, 1.0, 1e6, 1e6]),
                                  np.array([0.0, 20.0, 0.0, 20.0]), 1e300, 0.75)
    assert np.array_equal(k, [0.0, 0.0, 0.0, 0.0])


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


def test_kernel_body_equals_the_three_branch_formula():
    rng = np.random.default_rng(SEED)
    # at alpha = 1 and t = 1, xi1 = 0 and xi1 = xi are series lanes and
    # same-sign splits beyond |xi1 (xi - xi1)| = 250 are stable lanes
    xi = np.array([-40.0, -3.0, 0.0, 0.5, 7.0, 40.0])[:, None]
    xi1 = np.concatenate([[0.0, 0.5, 7.0, 20.0, -20.0],
                          rng.uniform(-30.0, 30.0, 35)])[None, :]
    for alpha, t in ((1.0, 1.0), (0.75, 0.4), (0.5, 0.05), (0.3, 1e-9)):
        want = _three_branch_kernel(xi, xi1, t, alpha)
        got = _kernels.duhamel_kernel_values(xi, xi1, t, alpha)
        assert got.shape == want.shape == (6, 40)
        assert np.array_equal(got, want)
        mu, nu = _kernels.symbol_split(xi, xi1, alpha)
        assert np.array_equal(_kernels.kernel_from_split(mu, nu, t), want)
    x = picard.theta(xi, xi1, 1.0)
    series = np.abs(x) < _kernels.SERIES_CUT
    big = x > _kernels.EXP_BIG
    assert series.any() and big.any() and (~series & ~big).any()
    # scalar lanes, one in each branch
    for a, b in ((7.0, 0.0), (40.0, 20.0), (7.0, 3.0)):
        want = _three_branch_kernel(np.float64(a), np.float64(b), 1.0, 1.0)
        got = _kernels.duhamel_kernel_values(np.float64(a), np.float64(b),
                                             1.0, 1.0)
        assert got.ndim == 0 and got == want


def test_second_iterate_times_equal_stacked_scalar_calls():
    rng = np.random.default_rng(SEED)
    times = np.array([0.0, 1e-9, 0.05, 0.4, 1.0, 3.0])
    # a scan whose lanes reach every kernel branch at alpha = 1
    targets = np.array([-40.0, -3.0, 0.0, 0.5, 7.0, 40.0])
    xi1 = np.concatenate([[0.0, 0.5, 7.0, 20.0, -20.0],
                          rng.uniform(-30.0, 30.0, 35)])
    w = rng.uniform(0.5, 1.5, (targets.size, xi1.size))
    for alpha in (1.0, 0.75, 0.3):
        _times_against_scalar_calls(targets, xi1, w, times, alpha)
    # several row tiles, the last one partial
    xi1 = rng.uniform(-10.0, 10.0, 40)
    rows = _kernels.TILE_ELEMS // xi1.size
    targets = rng.uniform(-20.0, 20.0, 2 * rows + 5)
    w = rng.uniform(0.5, 1.5, (targets.size, xi1.size))
    _times_against_scalar_calls(targets, xi1, w, times, 0.75)
    # one time, and no time
    _times_against_scalar_calls(targets, xi1, w, times[3:4], 0.75)
    out = _kernels.second_iterate_values(targets, xi1, lambda a, b: w[a:b],
                                         np.empty(0), 0.75, 1.0)
    assert out.shape == (0, targets.size)
