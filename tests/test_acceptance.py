"""Acceptance gate: twelve numbered criteria, one test line each.

Every criterion pins its tolerances and a wall-clock budget. Run with
`pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion. Criterion 10 carries a deliberately red leg: the data-norm
monotonicity it asks for does not hold on the N range it also asks for,
and the test states the measured numbers rather than papering over them.
"""

import math
import time

import numpy as np
import pytest

from fracheat.config import SolveConfig
from fracheat.dyadic import besov_norm, lp_block, make_partition, sobolev_norm
from fracheat.evolution import (duhamel_integrate, fixed_point_solve,
                                integral_residual)
from fracheat.experiments import fit_exponent, run_experiment
from fracheat.families import (FamilySpec, build_family, build_phi_N,
                               phi_hat_profile, verify_cascade)
from fracheat.grid import SpectralField, TorusGrid, apply_semigroup
from fracheat.picard import (duhamel_kernel, picard_terms,
                             second_iterate_hat, theta)
from fracheat.trajectory import Trajectory

from conftest import SEED, picard_nodes, random_band_field


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # compile/cache the hot kernels so budgets measure math, not JIT
    g = TorusGrid(8.0, 64)
    band = lambda x: np.where((np.abs(np.asarray(x, float)) > 1)
                              & (np.abs(np.asarray(x, float)) < 2), 1.0, 0.0)
    duhamel_kernel(np.array([1.0]), np.array([0.5]), 0.1, 0.75)
    second_iterate_hat(band, 0.1, np.array([0.0]), 0.75, g)
    rng = np.random.default_rng(SEED)
    u0 = random_band_field(g, 5, rng, scale=1e-3)
    fixed_point_solve(u0, SolveConfig(alpha=0.75, T=0.1, dt=0.05))


def test_ac01_semigroup_exactness():
    t0 = time.perf_counter()
    rec = run_experiment("semigroup-check")
    assert rec.params["modes"] == 2 ** 12
    for key in ("multiplier_error", "semigroup_error", "identity_error"):
        assert rec.values[key] < 1e-12, (key, rec.values[key])
    assert rec.passed
    elapsed = time.perf_counter() - t0
    print(f"AC1: errors {tuple(f'{rec.values[k]:.2e}' for k in rec.values)} "
          f"[{elapsed:.2f}s]")
    assert elapsed < 1.0


def test_ac02_partition_and_besov_brackets():
    t0 = time.perf_counter()
    g = TorusGrid(8.0, 512)
    p = make_partition(g)
    total = np.zeros(g.mode_count)
    for j in p.block_range:
        total += p.multiplier(j)
    assert np.max(np.abs(total - 1.0)) < 1e-12

    # pointwise ratio of the two weights brackets H^s against B^{s,2}
    s = -0.5
    denom = np.zeros(g.mode_count)
    for j in p.block_range:
        denom += 2.0 ** (2 * j * s) * p.multiplier(j) ** 2
    ratio = (1.0 + g.frequencies ** 2) ** s / denom
    lo, hi = math.sqrt(ratio.min()), math.sqrt(ratio.max())

    rng = np.random.default_rng(SEED)
    qs = (1.0, 2.0, 4.0, np.inf)
    for _ in range(100):
        u = random_band_field(g, g.max_frequency, rng)
        recon = sum(lp_block(u, j).coeffs for j in p.block_range)
        scale = np.max(np.abs(u.coeffs))
        assert np.max(np.abs(recon - u.coeffs)) < 1e-12 * scale
        vals = [besov_norm(u, s, q).value for q in qs]
        for a, b in zip(vals, vals[1:]):
            assert b <= a * (1 + 1e-13)
        hs = sobolev_norm(u, s)
        b2 = vals[1]
        assert lo * b2 * (1 - 1e-12) <= hs <= hi * b2 * (1 + 1e-12)
    elapsed = time.perf_counter() - t0
    print(f"AC2: bracket [{lo:.3f}, {hi:.3f}] on 100 fields [{elapsed:.2f}s]")
    assert elapsed < 10.0


def test_ac03_phi_besov_scaling():
    t0 = time.perf_counter()
    slopes = {}
    for a, s, q in ((1.0, -1.0, 2.0), (0.75, -0.75, 2.0), (0.75, 0.0, 4.0)):
        rec = run_experiment("besov-scaling", {
            "family": "phiN", "alpha": a, "s": s, "q": q,
            "N_min": 6, "N_max": 12, "lambda": 64.0, "modes": 2 ** 18,
            "tol": 0.05})
        slopes[(a, s, q)] = rec.values["slope"]
        assert abs(rec.values["slope"] - (a + s)) <= 0.05, (a, s, q)
        assert rec.passed
    elapsed = time.perf_counter() - t0
    print(f"AC3: slopes {slopes} [{elapsed:.1f}s]")
    assert elapsed < 60.0


def test_ac04_psi_endpoint_scaling():
    t0 = time.perf_counter()
    slopes = {}
    for q in (2.0, 4.0, 8.0):
        rec = run_experiment("besov-scaling", {
            "family": "psiN", "q": q, "N_min": 3, "N_max": 6, "tol": 0.1})
        slopes[q] = rec.values["slope"]
        assert abs(rec.values["slope"] - (-0.5 + 1.0 / q)) <= 0.1, q
        assert rec.passed
    elapsed = time.perf_counter() - t0
    print(f"AC4: slopes {slopes} [{elapsed:.1f}s]")
    assert elapsed < 120.0


def test_ac05_cascade_lower_bound_dual_route():
    t0 = time.perf_counter()
    for n, modes in ((2 ** 9, 2 ** 14), (2 ** 12, 2 ** 17)):
        g = TorusGrid(32.0, modes)
        for a in (0.6, 0.75, 1.0):
            rep = verify_cascade(n, a, 0.5, g)
            assert rep.passes, (n, a, rep.min_value, rep.threshold)
            assert rep.theta_bracket_ok and rep.k1_empty

            # route two: march the term recurrence to a short horizon the
            # grid's stiffness gate admits, compare transforms on |xi| <= 8
            dt = 0.05 / (2.0 * (n + 2)) ** (2 * a)
            cfg = SolveConfig(alpha=a, T=512 * dt, dt=dt)
            a2 = picard_terms(build_phi_N(n, a, g), 2, cfg)[1]
            w = np.abs(g.frequencies) <= 8.0
            za = second_iterate_hat(phi_hat_profile(n, a), 512 * dt,
                                    g.frequencies[w], a, g)
            series = 4 * np.pi * g.period * a2.coeffs[w].real
            rel = np.max(np.abs(series - za)) / np.max(np.abs(za))
            assert rel < 1e-3, (n, a, rel)
    elapsed = time.perf_counter() - t0
    print(f"AC5: six cascade cells pass, dual routes agree [{elapsed:.1f}s]")
    assert elapsed < 300.0


def test_ac06_kernel_seam_and_positivity():
    t0 = time.perf_counter()
    xi, xi1, alpha = 1.0, 3.0, 0.6
    th = theta(xi, xi1, alpha)
    t = 1e-6 / abs(th)
    mu = abs(xi) ** (2 * alpha)
    x = th * t
    series = t * math.exp(-mu * t) * (1 + x / 2 + x * x / 6)
    quotient = math.exp(-mu * t) * math.expm1(x) / th
    assert abs(series - quotient) / quotient < 1e-10

    rng = np.random.default_rng(SEED)
    for a in np.linspace(0.05, 1.0, 20):
        xis = rng.uniform(-50, 50, 50_000)
        xi1s = rng.uniform(-50, 50, 50_000)
        vals = duhamel_kernel(xis, xi1s, rng.uniform(0.0, 2.0), float(a))
        assert np.all(vals >= 0.0) and np.all(np.isfinite(vals))
    elapsed = time.perf_counter() - t0
    print(f"AC6: seam gap {abs(series - quotient) / quotient:.2e}, "
          f"10^6 triples nonnegative [{elapsed:.2f}s]")
    assert elapsed < 5.0


def test_ac07_duhamel_order():
    t0 = time.perf_counter()
    g = TorusGrid(2 * np.pi, 16)
    alpha = 0.75
    mu = 2.0 ** (2 * alpha)
    exact = (1.0 - math.exp(-mu)) / mu
    dts, errs = [], []
    for k in (3, 4, 5, 6, 7):
        dt = 2.0 ** -k
        n = round(1.0 / dt)
        c = np.zeros(16, dtype=complex)
        c[2] = c[-2] = 1.0
        src = Trajectory(g, dt, np.tile(c, (n + 1, 1)))
        got = duhamel_integrate(src, alpha).coeffs[-1, 2].real
        dts.append(dt)
        errs.append(abs(got - exact))
    fit = fit_exponent(zip(dts, errs))
    elapsed = time.perf_counter() - t0
    print(f"AC7: halving slope {fit.slope:.4f} [{elapsed:.2f}s]")
    assert abs(fit.slope - 2.0) <= 0.1
    assert elapsed < 10.0


def test_ac08_small_data_contraction():
    t0 = time.perf_counter()
    g = TorusGrid(32.0, 512)
    u0 = build_family(FamilySpec("phiN", 8, 0.75), g)
    b = besov_norm(u0, -0.75, 2.0).value
    u0 = SpectralField(g, u0.coeffs * (0.01 / b))
    cfg = SolveConfig(alpha=0.75, sign=1, T=1.0, dt=1 / 64,
                      picard_tol=1e-8, s=-0.75, q=2.0)
    traj, rep = fixed_point_solve(u0, cfg)
    assert rep.converged
    factor = max(rep.contraction_factors)
    assert factor < 0.5
    res = integral_residual(traj, u0, cfg)
    assert res < 10 * cfg.picard_tol
    terms = picard_nodes(u0, 6, cfg)
    series = sum(t.coeffs for t in terms)
    worst = np.max(np.sqrt(g.period
                           * np.sum(np.abs(traj.coeffs - series) ** 2,
                                    axis=1)))
    assert worst < 10 * cfg.picard_tol
    elapsed = time.perf_counter() - t0
    print(f"AC8: contraction {factor:.2e}, residual {res:.2e}, "
          f"series gap {worst:.2e} [{elapsed:.2f}s]")
    assert elapsed < 120.0


def test_ac09_smoothing_law():
    t0 = time.perf_counter()
    # alpha = 1, s1 = -1, s2 = 0: the per-mode gain has the closed-form
    # peak xi* = sqrt(1/(2t) - 1); check it against the measured lattice
    # gain and against the continuous multiplier's numerical maximum
    gp = TorusGrid(64.0, 8192)
    for t in (1e-3, 1e-2, 1e-1):
        star = math.sqrt(1.0 / (2.0 * t) - 1.0)
        ratios = []
        for k in range(600):
            c = np.zeros(gp.mode_count, dtype=complex)
            c[k] = c[-k] = 1.0
            f = SpectralField(gp, c)
            ratios.append(sobolev_norm(apply_semigroup(f, t, 1.0), 0.0)
                          / sobolev_norm(f, -1.0))
        xi_best = gp.frequencies[int(np.argmax(ratios))]
        assert abs(xi_best - star) <= gp.spacing  # one lattice step

        def gain(x):
            return math.exp(-t * x * x) * math.sqrt(1.0 + x * x)
        lo, hi = 0.0, 100.0
        for _ in range(200):
            a1, a2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
            if gain(a1) < gain(a2):
                lo = a1
            else:
                hi = a2
        assert abs(0.5 * (lo + hi) - star) <= 1e-6 * star

    rec = run_experiment("smoothing-check")
    assert rec.passed
    assert rec.values["max_deviation"] <= 0.1
    elapsed = time.perf_counter() - t0
    print(f"AC9: peak matches formula at three decades, constant deviation "
          f"{rec.values['max_deviation']:.3f} [{elapsed:.1f}s]")
    assert elapsed < 30.0


@pytest.fixture(scope="module")
def inflation_record():
    t0 = time.perf_counter()
    rec = run_experiment("norm-inflation")
    return rec, time.perf_counter() - t0


def test_ac10_inflation_surrogate_growth(inflation_record):
    rec, elapsed = inflation_record
    v = rec.values
    print(f"AC10: L {[round(x, 4) for x in v['L']]}, "
          f"rate {[round(x, 4) for x in v['rate']]}, "
          f"phi {[round(x, 4) for x in v['phi_norm']]} [{elapsed:.0f}s]")
    assert rec.verdicts["L_increasing"], v["L"]
    assert rec.verdicts["rate_bracket"], v["rate"]
    assert max(v["rate"]) / min(v["rate"]) <= 4.0
    assert elapsed < 900.0


def test_ac10_data_norm_monotonicity(inflation_record):
    # This leg is red and kept red on purpose. On N = 8..16 the window
    # radius R = N^(-1/4) ln N is still increasing (it only turns at
    # N = e^4 = 54.6), so the data it multiplies gains mass with N and
    # the H^{-1/2} norms below rise instead of falling. Shrinking norms
    # need N far beyond any grid this laboratory can allocate.
    rec, _ = inflation_record
    norms = rec.values["phi_norm"]
    assert all(b < a for a, b in zip(norms, norms[1:])), (
        f"H^(-1/2) data norms over N = {rec.values['N']}: "
        f"{[round(x, 4) for x in norms]} increase monotonically; "
        f"R = N^(-1/4) ln N grows until N = e^4 = 54.6, beyond this range")


def test_ac11_phase_diagram():
    t0 = time.perf_counter()
    rec = run_experiment("wellposed-scaling", {"sweep": 1})
    assert rec.values["mismatches"] == 0
    assert rec.verdicts["boundary_within_one_cell"]
    assert rec.verdicts["corner_ill"]
    elapsed = time.perf_counter() - t0
    print(f"AC11: 64 cells, 0 boundary mismatches, corner cell ill "
          f"[{elapsed:.1f}s]")
    assert elapsed < 1800.0


def test_ac12_dilation_symmetry():
    t0 = time.perf_counter()
    rec = run_experiment("dilation-check")
    assert rec.passed
    assert all(r < 1e-8 for r in rec.values["residual"])
    for ratio, bound in zip(rec.values["ratio"], rec.values["bound"]):
        assert ratio <= bound
    elapsed = time.perf_counter() - t0
    print(f"AC12: residuals {[f'{r:.1e}' for r in rec.values['residual']]}, "
          f"ratios {[round(r, 4) for r in rec.values['ratio']]} "
          f"[{elapsed:.1f}s]")
    assert elapsed < 60.0
