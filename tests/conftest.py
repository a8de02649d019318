import dataclasses
import threading

import numpy as np
import pytest

from fracheat.grid import SpectralField, TorusGrid, _hermitian_defect
from fracheat.picard import picard_terms
from fracheat.trajectory import Trajectory

SEED = 0x5EED


@pytest.fixture(autouse=True)
def no_stray_threads():
    # the two-thread loops must join their worker on every exit path
    yield
    alive = [t.name for t in threading.enumerate()
             if t.name.startswith("fracheat-")]
    assert not alive, f"threads left running: {alive}"


def raised_within(fn, timeout=60.0):
    """The exception fn() raises (None if it returns), run on a daemon thread
    joined with a timeout, so a hang fails the test instead of the run."""
    caught = []

    def target():
        try:
            fn()
        except BaseException as exc:
            caught.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"call still running after {timeout} s"
    return caught[0] if caught else None


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def sample_points(grid: TorusGrid) -> np.ndarray:
    """x_n = n*lam/M, n = 0..M-1."""
    return (grid.period / grid.mode_count) * np.arange(grid.mode_count)


def wavenumbers(grid: TorusGrid) -> np.ndarray:
    """Integer k in fft order: 0, 1, ..., M/2-1, -M/2, ..., -1."""
    m = grid.mode_count
    k = np.arange(m)
    k[m // 2:] -= m
    return k


def dealias_mask(grid: TorusGrid) -> np.ndarray:
    """The 2/3 rule's kept band |k| <= M/3, fft order."""
    return np.abs(wavenumbers(grid)) <= grid.mode_count // 3


def hermitian_defect(c: np.ndarray) -> float:
    """The Hermitian defect of a dense fft-order spectrum, read as the
    single piece [0, M)."""
    return _hermitian_defect(((slice(0, c.shape[0]), c),), c.shape[0])


def random_band_field(grid: TorusGrid, band: float, rng, scale: float = 1.0) -> SpectralField:
    """Random real field with spectrum confined to |xi| <= band.

    Built from real white-noise samples so Hermitian symmetry is exact.
    """
    samples = rng.standard_normal(grid.mode_count)
    coeffs = np.fft.fft(samples) / grid.mode_count
    keep = np.abs(grid.frequencies) <= band
    keep &= np.abs(wavenumbers(grid)) < grid.mode_count // 2  # drop the lone Nyquist mode
    coeffs = np.where(keep, coeffs, 0.0)
    peak = np.max(np.abs(coeffs))
    if peak > 0:
        coeffs = coeffs * (scale / peak)
    return SpectralField(grid, coeffs)


def picard_nodes(seed: SpectralField, n_terms: int, config,
                 stride: int = 1) -> list:
    """Every stride-th node i = 0, stride, ..., n of the Picard terms
    A_1..A_n_terms, one Trajectory per term. picard_terms returns the terms
    at its horizon only, and its arithmetic does not depend on the horizon,
    so node i is the march to i*dt; row 0 is the seed for A_1 and zero for
    the rest."""
    n, m = config.n_steps, seed.grid.mode_count
    assert n % stride == 0, (n, stride)
    rows = [np.zeros((n // stride + 1, m), dtype=complex)
            for _ in range(n_terms)]
    rows[0][0] = seed.coeffs
    for row in range(1, n // stride + 1):
        ends = picard_terms(seed, n_terms, dataclasses.replace(
            config, T=row * stride * config.dt))
        for term, end in zip(rows, ends):
            term[row] = end.coeffs
    return [Trajectory(seed.grid, stride * config.dt, term) for term in rows]
