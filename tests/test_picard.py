import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest

from fracheat import _kernels, picard

from fracheat.config import SolveConfig
from fracheat.dyadic import (algebra_constant, make_partition, phi_profile,
                             sobolev_norm)
from fracheat.errors import (ConfigError, DimensionError, DomainError,
                             ResolutionError)
from fracheat.evolution import duhamel_integrate, trapezoid_step
from fracheat.families import build_phi_NR, phi_hat_profile
from fracheat.grid import (CosineBasis, HalfBasis, SpectralField, TorusGrid,
                           dealiased_product, dealiased_square, field_basis,
                           fractional_symbol, to_spectral)
from fracheat.picard import (
    duhamel_kernel,
    hs_norm_from_hat_scan,
    picard_terms,
    second_iterate_hat,
    theta,
)
from fracheat.trajectory import Trajectory

from conftest import (SEED, dealias_mask, exactly_even, hermitian_defect,
                      log_cached_builds, picard_nodes, raised_within,
                      threads_named, wavenumbers)


def test_theta_closed_forms():
    # alpha = 1: theta = 2 xi1 (xi - xi1)
    rng = np.random.default_rng(SEED)
    xi = rng.uniform(-10, 10, 200)
    xi1 = rng.uniform(-10, 10, 200)
    assert np.allclose(theta(xi, xi1, 1.0), 2 * xi1 * (xi - xi1), atol=1e-10)
    # alpha <= 1/2: subadditivity of |.|^{2 alpha} makes theta <= 0
    for alpha in (0.25, 0.5):
        assert np.max(theta(xi, xi1, alpha)) <= 1e-12
    assert theta(0.0, 3.0, 0.5) == pytest.approx(-6.0)


def test_kernel_trivial_and_oracle():
    assert duhamel_kernel(1.3, 0.4, 0.0, 0.75) == 0.0
    # independent oracle: K = int_0^t e^{-mu (t-s)} e^{-nu s} ds at 40 digits
    mpmath.mp.dps = 40
    for (xi, xi1, t, alpha) in [(0.2, 5.0, 0.1, 1.0), (1.5, -2.0, 0.7, 0.6),
                                (0.0, 3.0, 2.0, 0.5), (4.0, 2.0, 0.05, 1.0)]:
        p = 2 * alpha
        mu = abs(xi) ** p
        nu = abs(xi1) ** p + abs(xi - xi1) ** p
        want = mpmath.quad(lambda u: mpmath.exp(-mu * (t - u)) * mpmath.exp(-nu * u),
                           [0, t])
        got = duhamel_kernel(xi, xi1, t, alpha)
        assert got == pytest.approx(float(want), rel=1e-12)


def test_kernel_seam_and_continuity():
    # both branch formulas, evaluated directly at |theta t| = 1e-6
    xi, xi1, alpha = 1.0, 3.0, 0.6
    th = theta(xi, xi1, alpha)
    t = 1e-6 / abs(th)
    mu = abs(xi) ** (2 * alpha)
    x = th * t
    series = t * np.exp(-mu * t) * (1 + x / 2 + x * x / 6)
    quotient = np.exp(-mu * t) * np.expm1(x) / th
    assert abs(series - quotient) / quotient < 1e-10
    # the dispatched kernel is continuous across the seam
    below = duhamel_kernel(xi, xi1, t * (1 - 1e-9), alpha)
    above = duhamel_kernel(xi, xi1, t * (1 + 1e-9), alpha)
    assert abs(below - above) / above < 1e-7


def test_kernel_positive_on_million_triples():
    rng = np.random.default_rng(SEED)
    for alpha in np.linspace(0.05, 1.0, 20):
        xi = rng.uniform(-50, 50, 50_000)
        xi1 = rng.uniform(-50, 50, 50_000)
        t = rng.uniform(0.0, 2.0)
        vals = duhamel_kernel(xi, xi1, t, float(alpha))
        assert np.all(vals >= 0.0)
        assert np.all(np.isfinite(vals))


def test_kernel_domain_errors():
    with pytest.raises(DomainError):
        duhamel_kernel(1.0, 1.0, -0.1, 0.5)
    with pytest.raises(DomainError):
        duhamel_kernel(1.0, 1.0, 0.1, 1.5)
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            duhamel_kernel(1.0, 0.5, t, 0.75)


def band_indicator(xi):
    # chi_{[1,2] U [-2,-1]} with midpoint edge convention
    a = np.abs(np.asarray(xi, dtype=float))
    return np.where((a > 1) & (a < 2), 1.0,
                    np.where((a == 1) | (a == 2), 0.5, 0.0))


def test_second_iterate_basic_properties():
    g = TorusGrid(16.0, 256)
    assert second_iterate_hat(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                              0.5, 0.0, 0.75, g) == 0.0
    vals = second_iterate_hat(band_indicator, 0.5,
                              np.linspace(-3, 3, 41), 0.75, g)
    assert np.all(vals >= 0.0)  # nonnegative integrand
    # evenness for an even profile
    assert np.allclose(vals, vals[::-1], rtol=1e-12)
    # support reaching the band edge is refused
    wide = lambda x: np.ones_like(np.asarray(x, dtype=float))
    with pytest.raises(ResolutionError):
        second_iterate_hat(wide, 0.5, 0.0, 0.75, g)


def test_second_iterate_refuses_bad_times():
    g = TorusGrid(64.0, 2048)
    profile = phi_hat_profile(8, 0.0)
    for t in (np.nan, np.inf, -0.1, [0.5, np.nan], [0.5, np.inf],
              [0.1, -0.1], [[0.5]]):
        with pytest.raises(DomainError):
            second_iterate_hat(profile, t, [0.0, 1.0], 0.75, g)


def test_second_iterate_times_equal_stacked_scalar_calls():
    times = np.array([0.0, 1e-5, 0.01, 0.5, 2.0])

    def assert_rows(phihat, xi, g):
        got = second_iterate_hat(phihat, times, xi, 0.75, g)
        want = np.stack([second_iterate_hat(phihat, float(t), xi, 0.75, g)
                         for t in times])
        assert got.shape == (times.size,) + np.shape(xi)
        assert np.array_equal(got, want)

    # the phase-diagram scan
    g = TorusGrid(64.0, 2048)
    assert_rows(phi_hat_profile(8, 0.0), np.linspace(0.0, 21.0, 169), g)
    # a scalar target: one value per time
    assert_rows(phi_hat_profile(8, 0.0), 18.0, g)
    # a dense target set over several row tiles, the last one partial
    nodes = np.count_nonzero(band_indicator(TorusGrid(16.0, 256).frequencies))
    rows = _kernels.TILE_ELEMS // nodes
    assert_rows(band_indicator, np.linspace(-3.0, 3.0, 2 * rows + 5),
                TorusGrid(16.0, 256))
    # an empty support: zeros, one row per time
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    got = second_iterate_hat(zero, times, np.linspace(-3.0, 3.0, 7), 0.75,
                             TorusGrid(16.0, 256))
    assert got.shape == (times.size, 7) and not got.any()


def tent_profile(xi):
    # continuous hat on [1,2] U [-2,-1]; kinks land on the test lattices
    a = np.abs(np.asarray(xi, dtype=float))
    return np.maximum(0.0, 1.0 - 2.0 * np.abs(a - 1.5))


def test_second_iterate_refinement_and_oracle():
    # continuum oracle at xi = 0: za = 2 int w(xi1) w(-xi1) K dxi1, evaluated
    # with mpmath; the lattice Riemann sum converges at second order
    t, alpha = 0.5, 0.75
    mpmath.mp.dps = 30

    def integrand(x):
        w = max(0.0, 1.0 - 2.0 * abs(x - mpmath.mpf(1.5)))
        nu = 2 * x ** mpmath.mpf(1.5)
        return w * w * (1 - mpmath.exp(-nu * t)) / nu

    oracle = float(4 * mpmath.quad(integrand, [1, 1.5, 2]))
    coarse = TorusGrid(128 * np.pi, 1024)
    fine = TorusGrid(1280 * np.pi, 16384)
    err_coarse = abs(second_iterate_hat(tent_profile, t, 0.0, alpha, coarse) - oracle)
    err_fine = abs(second_iterate_hat(tent_profile, t, 0.0, alpha, fine) - oracle)
    assert err_coarse < 1e-3 * oracle
    assert err_fine < 2e-5 * oracle
    assert err_fine < err_coarse / 50  # 10x finer spacing, O(h^2) quadrature


def test_second_iterate_matches_brute_sum():
    # brute Riemann sum with no support probing, same lattice
    t, alpha = 0.5, 0.75
    g = TorusGrid(128 * np.pi, 1024)
    xi1 = g.frequencies
    w = band_indicator(xi1) * band_indicator(0.0 - xi1)
    k = duhamel_kernel(np.zeros_like(xi1), xi1, t, alpha)
    brute = 2 * (2 * np.pi / g.period) * float(np.sum(w * k))
    got = second_iterate_hat(band_indicator, t, 0.0, alpha, g)
    assert got == pytest.approx(brute, rel=1e-13)


def seed_field_on(g: TorusGrid) -> SpectralField:
    c = band_indicator(g.frequencies) / g.period
    return SpectralField(g, c)


def test_picard_first_term_is_free_flow():
    g = TorusGrid(16.0, 256)
    seed = seed_field_on(g)
    cfg = SolveConfig(alpha=0.75, T=0.5, dt=1 / 64)
    a1, = picard_nodes(seed, 1, cfg)
    sym = np.abs(g.frequencies) ** 1.5
    for i in (0, 8, 32):
        want = seed.coeffs * np.exp(-a1.times[i] * sym)
        assert np.allclose(a1.coeffs[i], want, atol=1e-14)


def test_picard_homogeneity_and_sign_flip():
    g = TorusGrid(16.0, 256)
    seed = seed_field_on(g)
    cfg = SolveConfig(alpha=0.75, T=0.25, dt=1 / 64, sign=1)
    base = picard_terms(seed, 4, cfg)
    mu = 0.5
    scaled = picard_terms(SpectralField(g, mu * seed.coeffs), 4, cfg)
    flipped = picard_terms(seed, 4, SolveConfig(alpha=0.75, T=0.25, dt=1 / 64, sign=-1))
    for k in range(1, 5):
        ref = base[k - 1].coeffs
        tol = 1e-13 * max(np.max(np.abs(ref)), 1e-30)
        assert np.allclose(scaled[k - 1].coeffs, mu**k * ref, atol=tol)
        parity = -1.0 if k % 2 == 0 else 1.0
        assert np.allclose(flipped[k - 1].coeffs, parity * ref, atol=tol)


def test_picard_a2_matches_closed_form():
    # dual route: recurrence quadrature vs the lattice Riemann closed form;
    # same xi1 lattice on both sides, so only the time quadrature differs.
    # Bookkeeping bridge: za value = 4 pi lam sigma c_k(A2).
    g = TorusGrid(16.0, 256)
    seed = seed_field_on(g)
    t_end = 0.5
    cfg = SolveConfig(alpha=0.75, T=t_end, dt=t_end / 512)
    a2 = picard_terms(seed, 2, cfg)[1]
    series_vals = 4 * np.pi * g.period * a2.coeffs.real
    za_vals = second_iterate_hat(band_indicator, t_end, g.frequencies, 0.75, g)
    scale = np.max(np.abs(za_vals))
    assert np.max(np.abs(series_vals - za_vals)) < 1e-3 * scale
    # imaginary parts are round-off only
    assert np.max(np.abs(a2.coeffs.imag)) < 1e-15


@pytest.mark.parametrize("kind", [True, "even"])
@pytest.mark.parametrize("sign", [-1, 1])
def test_picard_a2_is_the_duhamel_integral_of_a1_squared(sign, kind):
    # the march and duhamel_integrate share one stepper and one dealiased
    # product, so A_2 = sigma L(A_1^2) holds bit for bit, in the rfft-half
    # basis (a real seed on |k| <= 40) and in the cosine basis (the exactly
    # even band indicator); the square is taken node by node through the
    # field API
    g = TorusGrid(16.0, 256)
    if kind == "even":
        seed = seed_field_on(g)
    else:
        rng = np.random.default_rng(SEED)
        band = np.abs(wavenumbers(g)) <= 40
        c = to_spectral(rng.standard_normal(256), g).coeffs * band
        seed = SpectralField(g, 0.1 * c)
    cfg = SolveConfig(alpha=0.75, T=0.25, dt=1 / 64, sign=sign)
    a1, a2 = picard_nodes(seed, 2, cfg)
    sq = np.array([dealiased_square(a1.field(i)).coeffs
                   for i in range(a1.n_nodes)])
    src = Trajectory(g, a1.dt, sq)
    np.testing.assert_array_equal(
        a2.coeffs, sign * duhamel_integrate(src, 0.75).coeffs)


def _picard_terms_oracle(seed, n_terms, config):
    """Node-by-node coefficients of A_1..A_n_terms from the full-spectrum
    march: every term on all M modes, complex transforms, and the source of
    A_k summed over every split (k1, k - k1); the samples keep their real
    part."""
    g = seed.grid
    m = g.mode_count
    keep = dealias_mask(g)
    decay = np.exp(-config.dt * np.abs(g.frequencies) ** (2 * config.alpha))
    half = 0.5 * config.dt * config.sign

    def to_phys(c):
        return (np.fft.ifft(np.where(keep, c, 0.0)) * m).real

    def source(k):
        total = sum(phys[k1] * phys[k - k1] for k1 in range(1, k))
        return np.where(keep, np.fft.fft(total) / m, 0.0)

    coeff = [None, seed.coeffs.copy()] + [np.zeros(m, dtype=complex)
                                          for _ in range(n_terms - 1)]
    phys = [None] + [to_phys(c) for c in coeff[1:]]
    fprev = [None, None] + [source(k) for k in range(2, n_terms + 1)]
    stored = [[c] for c in coeff[1:]]
    for i in range(1, config.n_steps + 1):
        coeff[1] = decay * coeff[1]
        phys[1] = to_phys(coeff[1])
        for k in range(2, n_terms + 1):
            fnext = source(k)
            coeff[k] = decay * coeff[k] + half * (decay * fprev[k] + fnext)
            fprev[k] = fnext
            phys[k] = to_phys(coeff[k])
        for rows, c in zip(stored, coeff[1:]):
            rows.append(c)
    return [np.array(rows) for rows in stored]


def _full_band_seed(kind):
    """A full-band real seed on the 256-mode test grid: generic (True) or
    with an exactly even spectrum ("even")."""
    g = TorusGrid(16.0, 256)
    rng = np.random.default_rng(SEED)
    if kind == "even":
        return SpectralField(g, HalfBasis(g, 129).widen(
            0.3 / 16 * rng.standard_normal(129)))
    return to_spectral(0.3 * rng.standard_normal(256), g)


@pytest.mark.parametrize("stride", [1, 4])
@pytest.mark.parametrize("n_terms", [2, 5])
@pytest.mark.parametrize("kind", [True, "even"])
@pytest.mark.parametrize("sign", [-1, 1])
def test_picard_terms_match_full_spectrum_oracle(sign, kind, n_terms,
                                                 stride):
    # a full-band seed, so A_1 carries modes beyond the dealiased band that
    # the march keeps only in A_1 itself
    seed = _full_band_seed(kind)
    cfg = SolveConfig(alpha=0.75, T=0.25, dt=1 / 64, sign=sign)
    terms = picard_nodes(seed, n_terms, cfg, stride)
    want = [ref[::stride] for ref in _picard_terms_oracle(seed, n_terms, cfg)]
    for term, ref in zip(terms, want):
        assert term.coeffs.shape == ref.shape
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(term.coeffs - ref)) <= 1e-13 * scale
        assert all(hermitian_defect(row) == 0.0 for row in term.coeffs)
        if kind == "even":
            assert exactly_even(term.coeffs)


@pytest.mark.parametrize("kind", [True, "even"])
def test_picard_terms_buffers_do_not_leak(kind):
    # the march reuses its sample, source and transform buffers; results
    # must not depend on a previous call or alias one another
    seed = _full_band_seed(kind)
    cfg = SolveConfig(alpha=0.75, T=0.25, dt=1 / 64, sign=1)
    first = picard_terms(seed, 5, cfg)
    second = picard_terms(seed, 5, cfg)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
    arrays = [t.coeffs for t in first + second] + [seed.coeffs]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def _picard_terms_serial_oracle(seed, n_terms, config):
    """Node-by-node coefficients of A_1..A_n_terms from the one-thread
    march: the basis, sources and steps of picard_terms, with every term
    advanced in order on this thread and the stepper in its allocating
    form."""
    grid = seed.grid
    n = config.n_steps
    m = grid.mode_count
    decay = np.exp(-config.dt * fractional_symbol(grid, config.alpha))
    half = 0.5 * config.dt * float(config.sign)
    basis = field_basis(grid, seed.coeffs)
    band_decay = decay[:basis.width]

    coeff = [None, seed.coeffs.copy()] + [
        np.zeros(basis.width, dtype=basis.coeff_dtype)
        for _ in range(n_terms - 1)]
    phys = [None, basis.samples(basis.band(coeff[1]))]
    phys += [np.zeros_like(phys[1]) for _ in range(2, n_terms)]
    acc, tmp = np.empty_like(phys[1]), np.empty_like(phys[1])

    def source(k, out):
        if k == 2:
            np.square(phys[1], out=acc)
        else:
            np.multiply(phys[1], phys[k - 1], out=acc)
            for j in range(2, (k + 1) // 2):
                np.add(acc, np.multiply(phys[j], phys[k - j], out=tmp),
                       out=acc)
            np.multiply(acc, 2.0, out=acc)
            if k % 2 == 0:
                np.add(acc, np.square(phys[k // 2], out=tmp), out=acc)
        return basis.coeffs(acc, out=out)

    fprev = [None, None] + [
        source(k, np.empty(basis.width, dtype=basis.coeff_dtype))
        for k in range(2, n_terms + 1)]
    fnext = np.empty(basis.width, dtype=basis.coeff_dtype)

    stored = [np.zeros((n + 1, m), dtype=complex) for _ in range(n_terms)]
    stored[0][0] = coeff[1]
    for i in range(1, n + 1):
        np.multiply(decay, coeff[1], out=coeff[1])
        basis.samples(basis.band(coeff[1]), out=phys[1])
        for k in range(2, n_terms + 1):
            source(k, fnext)
            coeff[k] = trapezoid_step(coeff[k], fprev[k], fnext, band_decay,
                                      half)
            fprev[k], fnext = fnext, fprev[k]
            if k < n_terms:
                basis.samples(coeff[k], out=phys[k])
        stored[0][i] = coeff[1]
        for k in range(2, n_terms + 1):
            basis.widen(coeff[k], out=stored[k - 1][i])
    return stored


@pytest.mark.parametrize("stride", [1, 4])
@pytest.mark.parametrize("n_terms", [1, 2, 3, 12])
@pytest.mark.parametrize("kind", [True, "even"])
@pytest.mark.parametrize("sign", [-1, 1])
def test_picard_terms_equal_serial_oracle(sign, kind, n_terms, stride):
    # the two-stage wavefront does each term's arithmetic of the one-thread
    # march, so the trajectories are bit for bit the same
    seed = _full_band_seed(kind)
    cfg = SolveConfig(alpha=0.75, T=0.25, dt=1 / 64, sign=sign)
    terms = picard_nodes(seed, n_terms, cfg, stride)
    want = [ref[::stride]
            for ref in _picard_terms_serial_oracle(seed, n_terms, cfg)]
    assert len(terms) == n_terms
    for term, ref in zip(terms, want):
        np.testing.assert_array_equal(term.coeffs, ref)


def test_picard_terms_equal_serial_oracle_under_fast_switching():
    # a thread switch every microsecond shuffles how the stages interleave;
    # a slot refilled before the trailing stage read it would show here
    seed = _full_band_seed(True)
    cfg = SolveConfig(alpha=0.75, T=0.25, dt=1 / 64, sign=1)
    want = _picard_terms_serial_oracle(seed, 12, cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [picard_nodes(seed, 12, cfg) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    for terms in runs:
        for term, ref in zip(terms, want):
            np.testing.assert_array_equal(term.coeffs, ref)


def _fail_on(owner, name, thread, at):
    """Wrap owner.<name> so its at-th call on the stage named `thread`
    ("lead" or "trail", each on a fracheat-march worker) raises."""
    real_fn = getattr(owner, name)
    calls = [0]
    stage = "fracheat-march-1" if thread == "lead" else "fracheat-march-2"

    def wrapped(*args, **kwargs):
        if threading.current_thread().name == stage:
            calls[0] += 1
            if calls[0] == at:
                raise RuntimeError(f"injected {name} failure")
        return real_fn(*args, **kwargs)

    return wrapped


# With 6 terms over 16 steps the leading stage makes 2 trapezoid steps a
# step (A_2, A_3) and the trailing one 3 (A_4..A_6), so their last calls
# are the 32nd and the 48th.
_STAGE_FAULTS = [(name, at, thread)
                 for name, at in [("coeffs", 1), ("coeffs", 9),
                                  ("trapezoid_step", 1),
                                  ("trapezoid_step", 20)]
                 for thread in ("lead", "trail")]
_STAGE_FAULTS += [("trapezoid_step", 32, "lead"),
                  ("trapezoid_step", 48, "trail")]


@pytest.mark.parametrize("name,at,thread", _STAGE_FAULTS)
def test_picard_terms_stage_error_reaches_caller(monkeypatch, thread, name,
                                                 at):
    # coeffs' first call is at step 0 (the initial sources), so the
    # other stage is then still waiting on the first phase's barrier; the
    # later calls fail mid-march, and each stage's last trapezoid step
    # fails in the last phase that stage works in. Either way the error is
    # raised here and the worker is gone (the autouse fixture checks the
    # thread list too).
    # The generic seed's march transforms through HalfBasis.coeffs.
    seed = _full_band_seed(True)
    owner = HalfBasis if name == "coeffs" else picard
    monkeypatch.setattr(owner, name, _fail_on(owner, name, thread, at))
    cfg = SolveConfig(alpha=0.75, T=0.25, dt=1 / 64, sign=1)
    exc = raised_within(lambda: picard_terms(seed, 6, cfg))
    assert isinstance(exc, RuntimeError)
    assert str(exc) == f"injected {name} failure"
    assert not threads_named("fracheat-march")


# 16 is the step count, so that stride keeps the endpoints only
@pytest.mark.parametrize("stride", [1, 16])
@pytest.mark.parametrize("n_terms", [1, 2, 12])
@pytest.mark.parametrize("kind", [True, "even"])
@pytest.mark.parametrize("sign", [-1, 1])
def test_picard_terms_final_route_equals_trajectory_route(sign, kind,
                                                          n_terms, stride):
    # final= sees each term as the default route returns it: the full-band
    # A_1 first, then every later term widened over the same buffer, in
    # both bases (the cosine basis's self-mirrored modes included); and
    # that is the last node of picard_nodes' trajectory at either stride
    seed = _full_band_seed(kind)
    cfg = SolveConfig(alpha=0.75, T=0.25, dt=1 / 64, sign=sign)
    assert cfg.n_steps == 16
    terms = picard_terms(seed, n_terms, cfg)
    for term, traj in zip(terms, picard_nodes(seed, n_terms, cfg, stride)):
        np.testing.assert_array_equal(term.coeffs, traj.coeffs[-1])
    norms = picard_terms(seed, n_terms, cfg,
                         final=lambda u: sobolev_norm(u, -0.5))
    assert norms == [sobolev_norm(t, -0.5) for t in terms]
    ends = picard_terms(seed, n_terms, cfg, final=lambda u: u.coeffs.copy())
    assert len(ends) == n_terms
    for end, term in zip(ends, terms):
        np.testing.assert_array_equal(end, term.coeffs)


def _inflation_march(n):
    """norm-inflation's datum and march config at N = n: M = 2^(n+4),
    64 steps. The datum's grid is a fresh instance: algebra_constant
    builds its own grid's whole-lattice frequencies."""
    c0 = algebra_constant(TorusGrid(4.0, 2 ** (n + 4)), n, seed=SEED).c0
    t_n = 1.0 / (8.0 * c0 * 2.0 ** n)
    g = TorusGrid(4.0, 2 ** (n + 4))
    u0 = build_phi_NR(n, n ** -0.25 * np.log(n), g, make_partition(g))
    return u0, SolveConfig(alpha=0.5, sign=1, T=t_n, dt=t_n / 64)


def test_picard_truncation_matches_its_geometric_estimate():
    # norm-inflation's march at N = 8 keeps 12 terms. Marched to 20, the
    # first 12 norms are the same bit for bit, since a term's arithmetic
    # does not depend on how many terms follow it, and the dropped terms
    # 13..20 sum to D. The even terms fall geometrically by about
    # rho = ||A_12|| / ||A_10|| per two terms, so the terms past 12 are
    # estimated by E = (||A_11|| + ||A_12||) rho / (1 - rho); measured
    # D / E = 1.15
    u0, cfg = _inflation_march(8)
    norm = lambda u: sobolev_norm(u, -0.5)
    kept = picard_terms(u0, 12, cfg, final=norm)
    longer = picard_terms(u0, 20, cfg, final=norm)
    assert longer[:12] == kept
    rho = kept[11] / kept[9]
    dropped = sum(longer[12:])
    estimate = (kept[10] + kept[11]) * rho / (1.0 - rho)
    print(f"truncation at N = 8: D = {dropped:.4g}, E = {estimate:.4g}, "
          f"D/E = {dropped / estimate:.4f}")
    assert 0.5 <= dropped / estimate <= 2.0


def test_picard_terms_final_route_stores_no_rows():
    # norm-inflation's march at N = 10: M = 2^14, 64 steps, 12 terms, in
    # the cosine basis. Its peak stays under the band layout: 21 buffers
    # of M/2 samples (17 slots, 4 for the sources), 26 of the M/3 + 1
    # band modes (11 terms, 11 previous sources, 2 spares, 2 brackets) and
    # 2 transform workspaces of M/4 + 1 complex, plus 2 complex rows of M
    # modes (A_1 and final's reads): 3.17 MB. A march that kept whole
    # spectra while stepping, or its buffers while widening, exceeds it
    u0, cfg = _inflation_march(10)
    m = u0.grid.mode_count
    layout = (8 * (21 * m // 2 + 26 * (m // 3 + 1))
              + 16 * 2 * (m // 4 + 1) + 16 * 2 * m)

    tracemalloc.start()
    try:
        picard_terms(u0, 12, cfg, final=lambda u: sobolev_norm(u, -0.5))
        final_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"march peak at M = 2^14: final route {final_peak / 2**20:.2f} MiB")
    assert final_peak < layout


def test_picard_terms_reads_a_windowed_seed_on_its_pieces(monkeypatch):
    # the basis, A_1's band and decay, and A_1(T) are read off the seed's
    # pieces through frequencies_at: until final is first called, neither
    # the seed's dense coeffs nor the whole-lattice frequencies are built
    u0, cfg = _inflation_march(8)
    assert len(u0.pieces) == 2
    built = log_cached_builds(monkeypatch, TorusGrid, "frequencies")
    densified = log_cached_builds(monkeypatch, SpectralField, "coeffs")
    before_final = []

    def final(u):
        if not before_final:
            before_final.append((list(built), list(densified)))
        return sobolev_norm(u, -0.5)

    norms = picard_terms(u0, 12, cfg, final=final)
    assert before_final == [([], [])]
    assert norms == [sobolev_norm(t, -0.5) for t in picard_terms(u0, 12, cfg)]


def test_picard_terms_final_runs_on_the_calling_thread():
    # final may be a traced layer, which the march worker must never enter
    seed = _full_band_seed(True)
    cfg = SolveConfig(alpha=0.75, T=0.25, dt=1 / 64, sign=1)
    seen = []
    picard_terms(seed, 6, cfg,
                 final=lambda u: seen.append(threading.current_thread()))
    assert seen == [threading.current_thread()] * 6


@pytest.mark.parametrize("kind", [True, "even"])
def test_picard_terms_widen_on_the_calling_thread_only(monkeypatch, kind):
    # both bases widen through HalfBasis.widen; that full-spectrum
    # work happens after the march, on this thread, on either route
    seed = _full_band_seed(kind)
    cfg = SolveConfig(alpha=0.75, T=0.25, dt=1 / 64, sign=1)
    seen = []
    real_fn = HalfBasis.widen

    def recorded(*args, **kwargs):
        seen.append(threading.current_thread())
        return real_fn(*args, **kwargs)

    monkeypatch.setattr(HalfBasis, "widen", recorded)
    picard_terms(seed, 6, cfg)
    picard_terms(seed, 6, cfg, final=lambda u: sobolev_norm(u, -0.5))
    assert seen and set(seen) == {threading.current_thread()}


@pytest.mark.parametrize("at", [1, 6])
def test_picard_terms_final_error_reaches_caller(at):
    seed = _full_band_seed("even")
    cfg = SolveConfig(alpha=0.75, T=0.25, dt=1 / 64, sign=1)
    calls = [0]

    def final(u):
        calls[0] += 1
        if calls[0] == at:
            raise RuntimeError("injected final failure")

    exc = raised_within(lambda: picard_terms(seed, 6, cfg, final=final))
    assert isinstance(exc, RuntimeError)
    assert str(exc) == "injected final failure"
    assert calls[0] == at
    assert not threads_named("fracheat-march")


def test_seed_one_ulp_off_even_never_reaches_cosine_primitives(monkeypatch):
    # the cosine basis is chosen from exact symmetry alone: one mode one
    # ulp off its mirror keeps a field on the rfft half
    even = _full_band_seed("even")
    c = even.coeffs.copy()
    c[5] = np.nextafter(c[5].real, np.inf)
    off = SpectralField(even.grid, c)
    calls = []
    for name in ("samples", "coeffs"):
        def counted(*args, _fn=getattr(CosineBasis, name), _name=name,
                    **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(CosineBasis, name, counted)
    cfg = SolveConfig(alpha=0.75, T=0.25, dt=1 / 64, sign=1)
    picard_terms(off, 4, cfg)
    dealiased_square(off)
    dealiased_product(off, even)
    assert calls == []
    # the counter does see an exactly even seed
    picard_terms(even, 4, cfg)
    dealiased_square(even)
    assert {"samples", "coeffs"} <= set(calls)


def test_second_iterate_peak_memory_does_not_grow_with_targets():
    # the weights are built per row tile, so no (targets x nodes) array is
    # held; 1024 nodes against 256 and then 2048 targets
    g = TorusGrid(64.0, 2 ** 12)
    lo, hi = (20 - 0.5) * g.spacing, (20 + 512 - 0.5) * g.spacing

    def profile(xi):
        a = np.abs(xi)
        return ((a > lo) & (a < hi)).astype(float)

    peaks = []
    for n_targets in (256, 2048):
        targets = np.linspace(-8.0, 8.0, n_targets)
        tracemalloc.start()
        try:
            second_iterate_hat(profile, 0.5, targets, 0.75, g)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    plane = 2048 * 1024 * 8  # bytes of one float (targets x nodes) array
    assert peaks[1] < plane / 2
    assert peaks[1] < 1.1 * peaks[0]


def test_picard_store_stride_and_errors():
    # the march to T = 8 dt is node 8 of the march over 16 steps, bit for
    # bit: the horizon property picard_nodes relies on
    g = TorusGrid(16.0, 256)
    seed = seed_field_on(g)
    cfg = SolveConfig(alpha=0.75, T=0.25, dt=1 / 64)
    assert cfg.n_steps == 16
    want = _picard_terms_serial_oracle(seed, 3, cfg)
    half_way = picard_terms(seed, 3, SolveConfig(alpha=0.75, T=8 / 64,
                                                 dt=1 / 64))
    for term, ref in zip(half_way, want):
        np.testing.assert_array_equal(term.coeffs, ref[8])
    with pytest.raises(DomainError):
        picard_terms(seed, 0, cfg)
    with pytest.raises(ConfigError):
        # dt * max|xi|^{2 alpha} blows the stability gate
        picard_terms(seed, 2, SolveConfig(alpha=1.0, T=1.0, dt=0.5))
    # a non-finite horizon, or a T/dt that overflows, is no step count
    for t, dt in ((np.inf, 0.5), (np.nan, 0.5), (1e10, 5e-324)):
        with pytest.raises(ConfigError):
            SolveConfig(alpha=0.75, T=t, dt=dt)


def test_kernel_ratio_bracket_half_alpha():
    # alpha = 1/2, phihat supported in 2^N <= |xi1| <= 2^{N+2}: at t = 2^{-N}/8
    # the kernel is within [1/2, 2] of t e^{-|xi| t} for |xi| <= 2^N/8
    n = 8
    t = 2.0**-n / 8
    xi = np.linspace(-(2.0**n) / 8, 2.0**n / 8, 41)
    for base in np.linspace(2.0**n, 2.0** (n + 2), 31):
        for s in (1.0, -1.0):
            k = duhamel_kernel(xi, s * base, t, 0.5)
            ratio = k / (t * np.exp(-np.abs(xi) * t))
            assert np.all(ratio >= 0.5) and np.all(ratio <= 2.0)


def test_a2_sobolev_lower_bound_constant():
    # ||A2(t)||_{H^{-1/2}} >= (1/16) R^2 2^N t N^{1/2} for the smooth bump
    # family at alpha = 1/2, t = (8 C0 2^N)^{-1} with the nominal C0 = 0.35
    n, r, c0 = 10, 1.0, 0.35
    t = 1.0 / (8 * c0 * 2.0**n)
    lat = TorusGrid(4.0, 2 ** (n + 4))
    prof = lambda x: r * phi_profile(np.asarray(x, dtype=float) / 2.0**n)
    lin = np.linspace(0.0, 32.0, 257)
    log = np.geomspace(32.0, 2.0 ** (n + 3) * 1.05, 768)[1:]
    scan = np.concatenate([lin, log])
    za = second_iterate_hat(prof, t, scan, 0.5, lat)
    term_hat = za / (4 * np.pi)
    norm = hs_norm_from_hat_scan(scan, term_hat, -0.5)
    c = norm / (r**2 * 2.0**n * t * np.sqrt(n))
    print(f"A2 lower-bound constant at N={n}: c = {c:.4f}")
    assert c >= 1.0 / 16.0


def test_hs_norm_from_hat_scan():
    # flat unit hat on [0, 1] with s = 0: norm^2 = 2/(2 pi)
    xi = np.linspace(0.0, 1.0, 2001)
    vals = np.ones_like(xi)
    assert hs_norm_from_hat_scan(xi, vals, 0.0) == pytest.approx(
        np.sqrt(1.0 / np.pi), rel=1e-12)
    with pytest.raises(DomainError):
        hs_norm_from_hat_scan(np.array([0.5, 1.0]), np.ones(2), 0.0)
    with pytest.raises(DomainError):
        hs_norm_from_hat_scan(np.array([]), np.array([]), 0.0)
    with pytest.raises(DimensionError):
        hs_norm_from_hat_scan(np.array([0.0, 1.0]), np.ones(1), 0.0)
