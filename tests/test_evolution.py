import numpy as np
import pytest

from fracheat.config import SolveConfig
from fracheat.dyadic import besov_norm, sobolev_norm
from fracheat.errors import DomainError, ResolutionError
from fracheat.evolution import (
    dilation_rescale,
    duhamel_integrate,
    fixed_point_solve,
    integral_residual,
    smoothing_constant,
    trapezoid_step,
)
from fracheat.grid import SpectralField, TorusGrid, dealiased_product_coeffs
from fracheat.trajectory import Trajectory

from conftest import SEED, picard_nodes, random_band_field


def free_trajectory(u0: SpectralField, alpha: float, dt: float,
                    n_steps: int) -> Trajectory:
    sym = np.abs(u0.grid.frequencies) ** (2.0 * alpha)
    ts = dt * np.arange(n_steps + 1)
    rows = u0.coeffs[None, :] * np.exp(-np.outer(ts, sym))
    return Trajectory(u0.grid, dt, rows)


def test_trajectory_refuses_a_bad_node_spacing():
    # a NaN or infinite dt would give NaN times and a NaN x_norm
    g = TorusGrid(2 * np.pi, 16)
    rows = np.zeros((3, 16), dtype=complex)
    for dt in (float("nan"), float("inf"), -0.1, 0.0):
        with pytest.raises(DomainError, match="node spacing"):
            Trajectory(g, dt, rows)
    assert Trajectory(g, 0.0, rows[:1]).n_nodes == 1


def test_duhamel_zero_and_constant_sources():
    g = TorusGrid(2 * np.pi, 16)
    zero = Trajectory(g, 0.1, np.zeros((5, 16), dtype=complex))
    out = duhamel_integrate(zero, 0.75)
    assert np.all(out.coeffs == 0)
    # zero-frequency constant source: exact t * g to rounding
    c = np.zeros(16, dtype=complex)
    c[0] = 0.7
    const = Trajectory(g, 0.1, np.tile(c, (5, 1)))
    out = duhamel_integrate(const, 0.75)
    assert np.allclose(out.coeffs[:, 0], 0.7 * out.times, rtol=1e-14)


def test_duhamel_halving_slope():
    # constant source at mode k = 2 on the 2 pi torus: exact answer
    # (1 - e^{-t mu}) / mu at t = 1; dt-halving error slope = 2
    g = TorusGrid(2 * np.pi, 16)
    alpha = 0.75
    mu = 2.0 ** (2 * alpha)
    exact = (1.0 - np.exp(-mu)) / mu
    errs = []
    dts = [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128]
    for dt in dts:
        n = round(1.0 / dt)
        c = np.zeros(16, dtype=complex)
        c[2] = c[-2] = 1.0
        src = Trajectory(g, dt, np.tile(c, (n + 1, 1)))
        got = duhamel_integrate(src, alpha).coeffs[-1, 2].real
        errs.append(abs(got - exact))
    slope = np.polyfit(np.log2(dts), np.log2(errs), 1)[0]
    print(f"duhamel halving slope: {slope:.4f}")
    assert abs(slope - 2.0) < 0.1


@pytest.mark.parametrize("dtype", [float, complex])
def test_trapezoid_step_out_buffers_equal_allocating_form(dtype):
    # the march steps in place (out is acc) with a reused bracket buffer;
    # that must give exactly the one-expression, allocating result
    rng = np.random.default_rng(SEED)
    width = 21846  # modes 0..M/3 at M = 2^16

    def draw():
        x = rng.standard_normal(width)
        return x if dtype is float else x + 1j * rng.standard_normal(width)

    acc, f_prev, f_next = draw(), draw(), draw()
    decay = np.exp(-rng.uniform(0.0, 4.0, width))
    for half in (0.37, -0.37):
        want = decay * acc + half * (decay * f_prev + f_next)
        np.testing.assert_array_equal(
            trapezoid_step(acc, f_prev, f_next, decay, half), want)
        out = acc.copy()
        tmp = np.full_like(acc, 9.0)
        got = trapezoid_step(out, f_prev, f_next, decay, half, out=out,
                             tmp=tmp)
        assert got is out
        assert got.dtype == acc.dtype
        np.testing.assert_array_equal(got, want)


def test_fixed_point_trivial_cases():
    g = TorusGrid(16.0, 128)
    cfg = SolveConfig(alpha=0.75, T=0.5, dt=1 / 32)
    zero = SpectralField(g, np.zeros(128, dtype=complex))
    traj, rep = fixed_point_solve(zero, cfg)
    assert rep.converged and rep.n_iter == 1
    assert np.all(traj.coeffs == 0)
    # sign = 0 disables the nonlinearity: exact free flow
    rng = np.random.default_rng(SEED)
    u0 = random_band_field(g, 20, rng, scale=0.3)
    traj, rep = fixed_point_solve(u0, SolveConfig(alpha=0.75, T=0.5, dt=1 / 32,
                                                  sign=0))
    assert rep.converged and rep.n_iter == 1
    free = free_trajectory(u0, 0.75, 1 / 32, 16)
    assert np.array_equal(traj.coeffs, free.coeffs)


def small_datum(g: TorusGrid, alpha: float, target: float,
                rng) -> SpectralField:
    u0 = random_band_field(g, 40, rng, scale=1.0)
    b = besov_norm(u0, -alpha, 2.0).value
    return SpectralField(g, u0.coeffs * (target / b))


def test_small_data_contraction_and_residual():
    rng = np.random.default_rng(SEED)
    g = TorusGrid(32.0, 512)
    alpha = 0.75
    cfg = SolveConfig(alpha=alpha, T=1.0, dt=1 / 64, sign=1,
                      picard_tol=1e-10, s=-alpha, q=2.0)
    u0 = small_datum(g, alpha, 0.01, rng)
    traj, rep = fixed_point_solve(u0, cfg)
    assert rep.converged
    assert all(f < 0.5 for f in rep.contraction_factors)
    res = integral_residual(traj, u0, cfg)
    print(f"small-data solve: {rep.n_iter} iters, residual {res:.3e}, "
          f"factors {tuple(round(f, 4) for f in rep.contraction_factors)}")
    assert res < 10 * cfg.picard_tol


def test_solution_matches_picard_series():
    # for small data the truncated term series reproduces the fixed point
    rng = np.random.default_rng(SEED + 1)
    g = TorusGrid(32.0, 512)
    alpha = 0.75
    cfg = SolveConfig(alpha=alpha, T=1.0, dt=1 / 64, sign=1,
                      picard_tol=1e-10, s=-alpha, q=2.0)
    u0 = small_datum(g, alpha, 0.005, rng)
    traj, rep = fixed_point_solve(u0, cfg)
    assert rep.converged
    terms = picard_nodes(u0, 12, cfg)
    series = sum(t.coeffs for t in terms)
    diff = traj.coeffs - series
    worst = np.max(np.sqrt(g.period * np.sum(np.abs(diff) ** 2, axis=1)))
    assert worst < 10 * cfg.picard_tol


def test_mass_evolution_consistency():
    # zero-mode identity: the change of c_0 per step equals the trapezoid of
    # the squared field's zero mode, up to the converged iteration defect
    rng = np.random.default_rng(SEED + 2)
    g = TorusGrid(32.0, 512)
    cfg = SolveConfig(alpha=0.75, T=0.5, dt=1 / 64, sign=-1,
                      picard_tol=1e-10, s=-0.75, q=2.0)
    u0 = small_datum(g, 0.75, 0.01, rng)
    traj, rep = fixed_point_solve(u0, cfg)
    assert rep.converged
    f0 = np.array([dealiased_product_coeffs(row, row, g)[0]
                   for row in traj.coeffs])
    dc = np.diff(traj.coeffs[:, 0])
    quad = cfg.sign * 0.5 * cfg.dt * (f0[:-1] + f0[1:])
    defect = np.max(np.abs(dc - quad))
    assert defect <= 20 * cfg.picard_tol / np.sqrt(g.period)


def test_blowup_is_reported_with_time():
    # focusing sign with order-one datum on a short horizon: the iterates
    # overflow and the report carries the first non-finite node time
    g = TorusGrid(16.0, 128)
    c = np.zeros(128, dtype=complex)
    c[0] = 40.0
    u0 = SpectralField(g, c)
    cfg = SolveConfig(alpha=0.75, T=1.0, dt=1 / 16, sign=1, max_iter=60)
    traj, rep = fixed_point_solve(u0, cfg)
    assert not rep.converged
    assert rep.blowup_time is not None and rep.blowup_time > 0
    assert np.all(np.isfinite(traj.coeffs))


def test_product_inequality_constant():
    # ||uv||_{H^{2 s0 - 1/2}} <= C ||u||_{H^{s0}} ||v||_{H^{s0}}: the
    # empirical constant must not grow when the band is widened 4x
    rng = np.random.default_rng(SEED)
    g = TorusGrid(16.0, 1024)
    for s0 in (0.1, 0.25, 0.4):
        ratios = {}
        for band in (32, 128):
            worst = 0.0
            for _ in range(100):
                u = random_band_field(g, band, rng)
                v = random_band_field(g, band, rng)
                pc = dealiased_product_coeffs(u.coeffs, v.coeffs, g)
                p = SpectralField(g, pc)
                r = sobolev_norm(p, 2 * s0 - 0.5) / (
                    sobolev_norm(u, s0) * sobolev_norm(v, s0))
                worst = max(worst, r)
            ratios[band] = worst
        bound = 1.1 * ratios[32]
        print(f"product constant s0={s0}: narrow {ratios[32]:.4f}, "
              f"wide {ratios[128]:.4f}, bound {bound:.4f}")
        assert ratios[128] <= bound


def test_smoothing_constant_oracle():
    grid = TorusGrid(64.0, 8192)
    t, alpha = 1e-2, 1.0
    # identical scan as a direct formula evaluation
    ks = np.unique(np.rint(np.geomspace(1, 4095, 400)).astype(int))
    xi = 2 * np.pi * np.concatenate([[0], ks]) / 64.0
    formula = np.max((1 + xi**2) ** 0.5 * np.exp(-t * xi**2) * t**0.5)
    got = smoothing_constant(-1.0, 0.0, alpha, t, grid=grid)
    assert got == pytest.approx(formula, rel=1e-6)
    # continuum closed form sqrt(1/2) e^{t - 1/2} for this index pair
    closed = np.sqrt(0.5) * np.exp(t - 0.5)
    assert got == pytest.approx(closed, rel=1e-3)
    # pure contraction when no regularity is gained
    assert smoothing_constant(0.3, 0.3, 0.6, 0.5, grid) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        smoothing_constant(0.5, 0.0, 0.6, 0.1, grid)
    with pytest.raises(DomainError):
        smoothing_constant(0.0, 0.5, 0.6, 0.0, grid)


def test_smoothing_constant_stable_in_t():
    grid = TorusGrid(64.0, 8192)
    vals = [smoothing_constant(-1.0, 0.0, 1.0, t, grid)
            for t in (1e-3, 1e-2, 1e-1)]
    mean = np.mean(vals)
    print("smoothing constants:", [round(v, 4) for v in vals])
    assert all(abs(v - mean) <= 0.1 * mean for v in vals)


def annulus_datum(g: TorusGrid, rng) -> SpectralField:
    # real field with spectrum in 8 <= |xi| <= 128
    c = np.fft.fft(rng.standard_normal(g.mode_count)) / g.mode_count
    a = np.abs(g.frequencies)
    c[(a < 8) | (a > 128)] = 0.0
    return SpectralField(g, c)


def test_dilation_identity_and_free_flow():
    rng = np.random.default_rng(SEED)
    g = TorusGrid(32.0, 256)
    u0 = random_band_field(g, 30, rng)
    traj = free_trajectory(u0, 0.75, 1 / 32, 16)
    same = dilation_rescale(traj, 1.0, 0.75)
    assert same.grid == traj.grid
    assert np.array_equal(same.coeffs, traj.coeffs)
    # free flow dilates to free flow on the target torus
    lam_d = 0.25
    dil = dilation_rescale(traj, lam_d, 0.75)
    direct = free_trajectory(dil.field(0), 0.75, dil.dt, 16)
    scale = np.max(np.abs(dil.coeffs))
    assert np.max(np.abs(dil.coeffs - direct.coeffs)) < 1e-10 * scale
    with pytest.raises(ResolutionError):
        dilation_rescale(free_trajectory(
            SpectralField(TorusGrid(2.0, 16), np.zeros(16, dtype=complex)),
            0.75, 0.1, 2), 4.0, 0.75)


def test_dilation_besov_scaling():
    # ||lam^{2a} u0(lam .)||_{B^{-a,2}} / ||u0||_{B^{-a,2}} = lam^{a - 1/2}
    # exactly for annulus data whose dilated support stays in |xi| >= 1
    rng = np.random.default_rng(SEED)
    g = TorusGrid(32.0, 2048)
    alpha = 0.75
    u0 = annulus_datum(g, rng)
    traj = Trajectory(g, 0.0, u0.coeffs[None, :])
    base = besov_norm(u0, -alpha, 2.0).value
    for lam_d in (0.5, 0.25, 0.125):
        dil = dilation_rescale(traj, lam_d, alpha)
        f = dil.field(0)
        val = besov_norm(f, -alpha, 2.0).value
        ratio = val / base
        want = lam_d ** (alpha - 0.5)
        assert ratio == pytest.approx(want, rel=1e-12)
        assert ratio <= 1.05 * want  # stated tolerance form
