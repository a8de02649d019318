"""Layer probes: the ROADMAP's named shapes, timed through public entry points.

Each probe reports the best of k wall times in seconds. M = 2^20 in the
dealiased product is the only place the benchmark reaches the grid size
of the full norm-inflation schedule. A probe that can no longer be built
or called (its entry point is gone or its signature changed) is reported
in `absent` and its time stays zero.
"""

import math
import time

import numpy as np


def _best_of(k, fn):
    best = math.inf
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _product(fh, rng, m):
    g = fh.TorusGrid(64.0, m)
    u = fh.to_spectral(rng.standard_normal(m), g)
    v = fh.to_spectral(rng.standard_normal(m), g)
    return lambda: fh.dealiased_product(u, v)


def _picard_step(fh, rng):
    # one exponential-trapezoid step of the first 12 Picard terms on the
    # N = 12 inflation grid, at the largest dt the stability gate allows
    g = fh.TorusGrid(4.0, 2 ** 16)
    u0 = fh.build_phi_NR(12, 12 ** -0.25 * math.log(12), g,
                         fh.make_partition(g))
    dt = 8.0 / g.max_frequency
    conf = fh.SolveConfig(alpha=0.5, sign=1, T=dt, dt=dt, picard_tol=1e-8)
    return lambda: fh.picard_terms(u0, 12, conf)


def _scan(fh, rng):
    # the phase-diagram lattice and N = 7 band (40 nodes), on 32768 targets
    g = fh.TorusGrid(64.0, 2048)
    profile = fh.phi_hat_profile(7, 0.0)
    targets = np.linspace(0.0, 19.0, 32768)
    return lambda: fh.second_iterate_hat(profile, 0.5, targets, 0.75, g)


def _dense(fh, rng):
    # 2 x 2048 lattice nodes on +-[k0, k0 + 2048) against 512 targets
    g = fh.TorusGrid(64.0, 2 ** 14)
    lo, hi = (100 - 0.5) * g.spacing, (100 + 2048 - 0.5) * g.spacing

    def profile(xi):
        a = np.abs(xi)
        return ((a > lo) & (a < hi)).astype(float)

    targets = np.linspace(-8.0, 8.0, 512)
    return lambda: fh.second_iterate_hat(profile, 0.5, targets, 0.75, g)


def _algebra(fh, rng):
    g = fh.TorusGrid(4.0, 2 ** 16)
    seed = int(rng.integers(2 ** 31))
    return lambda: fh.algebra_constant(g, 12, n_pairs=10, seed=seed)


def _x_norm(fh, rng):
    g = fh.TorusGrid(64.0, 2 ** 16)
    rows = fh.to_spectral(rng.standard_normal(g.mode_count), g).coeffs
    decay = np.exp(-np.outer(np.linspace(0.0, 1.0, 65), np.abs(g.frequencies)))
    traj = fh.Trajectory(g, 1.0 / 64, decay * rows, is_real=True)
    part = fh.make_partition(g)
    return lambda: fh.x_norm(traj, -0.5, 2.0, 0.5, part)


# metric -> (repeats, make(fracheat, rng) -> zero-argument call)
PROBES = {
    "probe.dealiased_product.m16_s":
        (5, lambda fh, rng: _product(fh, rng, 2 ** 16)),
    "probe.dealiased_product.m20_s":
        (3, lambda fh, rng: _product(fh, rng, 2 ** 20)),
    "probe.picard_terms.m16_k12_step_s": (3, _picard_step),
    "probe.second_iterate_hat.scan_32768x40_s": (2, _scan),
    "probe.second_iterate_hat.dense_512x4096_s": (3, _dense),
    "probe.algebra_constant.m16_10pairs_s": (3, _algebra),
    "probe.x_norm.65x65536_s": (3, _x_norm),
}


def run_probes(seed):
    """{metric: best time in s}, and the probes that could not be built."""
    import fracheat

    rng = np.random.default_rng(seed)
    times, absent = {}, []
    for name, (repeats, make) in PROBES.items():
        try:
            times[name] = _best_of(repeats, make(fracheat, rng))
        except Exception as exc:
            absent.append(f"{name}: {type(exc).__name__}: {exc}")
            times[name] = 0.0
    return times, absent
