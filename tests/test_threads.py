import _thread
import threading

import numpy as np
import pytest

from fracheat import dyadic, grid, picard
from fracheat._threads import run_two
from fracheat.config import SolveConfig
from fracheat.dyadic import algebra_constant
from fracheat.grid import TorusGrid
from fracheat.picard import picard_terms

from conftest import SEED, threads_named


def test_no_march_stage_or_pair_worker_runs_on_the_calling_thread(
        monkeypatch):
    # the calling thread only waits: every transform and trapezoid step of
    # the march, and every pair's transforms, run on the named workers
    seen = []

    def recorded(module, name):
        real_fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            seen.append((name, threading.current_thread().name))
            return real_fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    g = TorusGrid(16.0, 256)
    rng = np.random.default_rng(SEED)
    c = np.zeros(256, dtype=complex)
    c[1:20] = rng.standard_normal(19)
    c[-19:] = c[19:0:-1]
    even = grid.SpectralField(g, c)
    half = grid.to_spectral(rng.standard_normal(256), g)
    cfg = SolveConfig(alpha=0.75, T=0.25, dt=1 / 64, sign=1)
    for name in ("band_half", "band_samples", "cosine_band",
                 "cosine_samples"):
        recorded(grid, name)
    recorded(picard, "trapezoid_step")
    for seed in (even, half):
        picard_terms(seed, 6, cfg, final=lambda u: None)
    march = set(seen)
    assert {name for name, _ in march} == {
        "band_half", "band_samples", "cosine_band", "cosine_samples",
        "trapezoid_step"}
    assert {who for _, who in march} == {"fracheat-march-1",
                                         "fracheat-march-2"}
    seen.clear()
    recorded(dyadic, "band_half")
    recorded(dyadic, "band_samples")
    algebra_constant(TorusGrid(8.0, 512), 2, n_pairs=40, seed=SEED)
    assert {who for _, who in seen} <= {"fracheat-pairs-1",
                                        "fracheat-pairs-2"}
    assert seen


def test_run_two_interrupt_while_joining_aborts_both_halves():
    # an interrupt that lands on the calling thread while it waits stops
    # both halves through abort and is raised once they have ended; a
    # half that was not stopped would wait out its 10 s and report False
    both = threading.Barrier(2, timeout=10.0)
    stop = threading.Event()
    woke = []

    def half(interrupts):
        def run():
            both.wait()
            if interrupts:
                _thread.interrupt_main()
            woke.append(stop.wait(10.0))

        return run

    with pytest.raises(KeyboardInterrupt):
        run_two(half(False), half(True), stop.set, "test")
    assert woke == [True, True]
    assert not threads_named()
