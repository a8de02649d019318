import threading

import numpy as np
import pytest

from fracheat.grid import SpectralField, TorusGrid

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


def random_band_field(grid: TorusGrid, band: float, rng, scale: float = 1.0) -> SpectralField:
    """Random real field with spectrum confined to |xi| <= band.

    Built from real white-noise samples so Hermitian symmetry is exact.
    """
    samples = rng.standard_normal(grid.mode_count)
    coeffs = np.fft.fft(samples) / grid.mode_count
    keep = np.abs(grid.frequencies) <= band
    keep &= np.abs(grid.wavenumbers) < grid.mode_count // 2  # drop the lone Nyquist mode
    coeffs = np.where(keep, coeffs, 0.0)
    peak = np.max(np.abs(coeffs))
    if peak > 0:
        coeffs = coeffs * (scale / peak)
    return SpectralField(grid, coeffs, is_real=True)
