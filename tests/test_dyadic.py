import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from fracheat import dyadic
from fracheat.dyadic import (
    AlgebraReport,
    algebra_constant,
    besov_norm,
    eta,
    lp_block,
    make_partition,
    modulation_norm,
    phi_profile,
    sobolev_norm,
    spacetime_besov_norm,
    x_norm,
)
from fracheat.errors import DegenerateWindowError, DomainError, ResolutionError
from fracheat.families import (FamilySpec, build_family, build_phi_N,
                               build_psi_N, pairing_lower_bound,
                               phi_hat_profile)
from fracheat.grid import (SpectralField, TorusGrid, apply_semigroup, band_half,
                           dealiased_product, dealiased_square,
                           fractional_symbol, from_spectral, hermitian_full,
                           l2_norm, pair_with_test_function, to_spectral)
from fracheat.picard import second_iterate_hat
from fracheat.trajectory import Trajectory

from conftest import SEED, raised_within, random_band_field, threads_named


def test_eta_profile():
    assert eta(0.0) == 1.0
    assert eta(1.0) == 1.0
    assert eta(-1.0) == 1.0
    assert eta(2.0) == 0.0
    assert eta(-2.5) == 0.0
    assert eta(1.5) == pytest.approx(0.5)  # glue is symmetric about 3/2
    xs = np.linspace(1.0, 2.0, 401)
    vals = eta(xs)
    assert np.all(np.diff(vals) <= 0)
    assert np.all((vals >= 0) & (vals <= 1))


def test_phi_profile():
    assert phi_profile(2.0) == pytest.approx(1.0)
    assert phi_profile(1.0) == 0.0
    assert phi_profile(4.0) == 0.0
    assert phi_profile(0.5) == 0.0
    xs = np.linspace(-8, 8, 1601)
    vals = phi_profile(xs)
    assert np.all(vals >= -1e-15)
    support = np.abs(xs)[vals > 1e-300]
    assert support.min() >= 1.0 and support.max() <= 4.0
    # rescaling identity behind the telescoping: phi(2 xi) = eta(xi) for |xi| >= 1
    ys = np.linspace(1.0, 3.0, 301)
    assert np.allclose(phi_profile(2 * ys), eta(ys), atol=1e-15)


def test_partition_of_unity_on_band():
    for lam, m in ((4.0, 256), (32.0, 1024), (1.0, 64)):
        g = TorusGrid(lam, m)
        p = make_partition(g)
        total = np.zeros(m)
        for j in p.block_range:
            total += p.multiplier(j)
        assert np.max(np.abs(total - 1.0)) < 1e-12


# lam = pi puts every 2^j on the lattice (xi_k = 2k), so block edges land
# exactly on modes; lam = 3.7 puts them between modes
@pytest.mark.parametrize("lam,m", [(np.pi, 64), (np.pi, 2 ** 16), (1.0, 64),
                                   (3.7, 64), (3.7, 2 ** 16)])
def test_multiplier_equals_dense_profile(lam, m):
    g = TorusGrid(lam, m)
    p = make_partition(g)
    xi = g.frequencies
    for j in p.block_range:
        dense = eta(xi) if j == -1 else phi_profile(xi / 2.0**j)
        got = p.multiplier(j)
        assert np.array_equal(got, dense), j
        assert len(p.windows(j)) <= 2
        # widened afresh on every call: writing to one leaves the next intact
        got[:] = 7.0
        assert np.array_equal(p.multiplier(j), dense), j


def _dense_block_table(coeffs2d, p):
    # the norms' block table from full-length multipliers
    lam = p.grid.period
    mags = np.abs(coeffs2d) ** 2
    return np.array([np.sqrt(lam * (mags @ p.multiplier(j) ** 2))
                     for j in p.block_range])


def _dense_weighted(per_block, s, q, p):
    js = np.arange(-1, p.j_max + 1)
    weighted = 2.0 ** (js * s) * per_block
    value = np.max(weighted) if q == np.inf else np.sum(weighted**q) ** (1 / q)
    return value, weighted


@pytest.mark.parametrize("lam,m", [(np.pi, 1024), (8.0, 512), (2.0**7, 2 ** 14)])
def test_windowed_norms_match_dense_oracle(lam, m):
    g = TorusGrid(lam, m)
    p = make_partition(g)
    rng = np.random.default_rng(SEED)
    alpha, dt, n = 0.75, 0.01, 41
    u0 = random_band_field(g, g.max_frequency, rng)
    traj = free_trajectory(u0, alpha, dt, n)
    table = _dense_block_table(traj.coeffs, p)
    for s, q in ((-0.5, 2.0), (-0.75, 1.0), (0.25, np.inf)):
        want, blocks = _dense_weighted(table[:, 0], s, q, p)
        rep = besov_norm(u0, s, q, p)
        assert rep.value == pytest.approx(want, rel=1e-13, abs=0)
        assert np.allclose(rep.blocks, blocks, rtol=1e-13, atol=0)
        for tp in (1, 2, np.inf):
            per = (table.max(axis=1) if tp == np.inf else
                   np.trapezoid(table**tp, dx=dt, axis=1) ** (1.0 / tp))
            want, blocks = _dense_weighted(per, s, q, p)
            rep = spacetime_besov_norm(traj, tp, s, q, p)
            assert rep.value == pytest.approx(want, rel=1e-13, abs=0)
            assert np.allclose(rep.blocks, blocks, rtol=1e-13, atol=0)
        sup, _ = _dense_weighted(table.max(axis=1), s, q, p)
        l2, _ = _dense_weighted(
            np.trapezoid(table**2, dx=dt, axis=1) ** 0.5, s + alpha, q, p)
        assert x_norm(traj, s, q, alpha, p) == pytest.approx(sup + l2, rel=1e-13,
                                                             abs=0)


def test_besov_norm_memory_stays_below_dense_block_cache():
    # 2^18 modes, 14 blocks: full-length blocks would keep 14 x 2 MB; the
    # windows hold each mode in at most two blocks
    g = TorusGrid(2.0**7, 2**18)
    rng = np.random.default_rng(SEED)
    u = random_band_field(g, g.max_frequency, rng)
    p = make_partition(g)
    assert len(p.block_range) == 14
    g.frequencies  # the grid's own cache is not the norm's
    bound = 8 * g.mode_count * 8  # eight float64 arrays of length M: 16 MB
    tracemalloc.start()
    try:
        besov_norm(u, -0.5, 2.0, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"besov_norm peak on 2^18 modes: {peak / 2**20:.1f} MB "
          f"(bound {bound / 2**20:.0f} MB)")
    assert peak < bound


# every seed the experiments pass to besov_norm: besov-scaling's phi_N and
# psi_N and endpoint-cascade's psi_N on (128, 2^19), solve's and
# dilation-check's phi_8 on (32, 512), phi_N on (64, 2048), and
# norm-inflation's phi_{N,R} on its grids
_WINDOWED_SEEDS = (
    [(128.0, 2 ** 19, "phiN", 2 ** j) for j in range(6, 13)]
    + [(128.0, 2 ** 19, "psiN", n) for n in range(3, 7)]
    + [(32.0, 512, "phiN", 8), (32.0, 512, "phiN", 48),
       (64.0, 2048, "phiN", 12), (64.0, 2048, "phiN", 98)]
    + [(4.0, 2 ** (n + 4), "phiNR", n) for n in (8, 10, 12)])
# the (s, q) of besov-scaling (AC3 and AC4 included), endpoint-cascade,
# solve and dilation-check
_SEED_NORMS = ((-0.75, 2.0), (-1.0, 2.0), (0.0, 4.0), (-0.75, 4.0),
               (-0.75, 8.0))


def _windowed_seed(lam, m, family, n):
    g = TorusGrid(lam, m)
    p = make_partition(g)
    r = n ** -0.25 * np.log(n) if family == "phiNR" else None
    alpha = 0.5 if family == "phiNR" else 0.75
    return build_family(FamilySpec(family, n, alpha, r=r), g, p), p


@pytest.mark.parametrize("lam,m,family,n", _WINDOWED_SEEDS)
def test_seed_norms_on_their_support_match_dense_oracle(lam, m, family, n):
    u, p = _windowed_seed(lam, m, family, n)
    assert sum(sl.stop - sl.start for sl, _ in u.pieces) < m // 2
    table = _dense_block_table(u.coeffs[None, :], p)[:, 0]
    for s, q in _SEED_NORMS:
        want, blocks = _dense_weighted(table, s, q, p)
        rep = besov_norm(u, s, q, p)
        assert rep.value == pytest.approx(want, rel=1e-15, abs=0), (s, q)
        np.testing.assert_allclose(rep.blocks, blocks, rtol=1e-15, atol=0)
    # the pairing with a smooth test profile reaching every block
    for j in (0, n.bit_length(), p.j_max):
        ghat = lambda xi: eta(xi / 2.0**j)
        dense = float(np.sum(u.coeffs * ghat(u.grid.frequencies)).real)
        assert pair_with_test_function(u, ghat) == pytest.approx(
            dense, rel=1e-15, abs=0), j


@pytest.mark.parametrize("n", [2 ** 9, 2 ** 12])
def test_cascade_pairing_on_its_support_matches_dense_oracle(n):
    # cascade's pairing field lives on |xi| <= 1/2 of 2^17 modes
    g = TorusGrid(32.0, 2 ** 17)
    a, t = 0.75, 0.5
    xi = g.frequencies
    low = np.flatnonzero(np.abs(xi) <= 0.5)
    c = np.zeros(g.mode_count, dtype=complex)
    c[low] = second_iterate_hat(phi_hat_profile(n, a), t, xi[low], a, g) / (
        4.0 * np.pi * g.period)
    dense = float(np.sum(c * eta(4.0 * xi)).real)
    assert pairing_lower_bound(n, a, t, g) == pytest.approx(dense, rel=1e-15,
                                                            abs=0)


def test_seed_besov_norm_memory_stays_near_its_support():
    # psi_6 on (128, 2^19) sits on 14 windows of about 43 modes; the seed
    # allocates no 2^19-mode spectrum, and its norm on a fresh partition
    # builds no 2^19-mode block table
    g = TorusGrid(128.0, 2 ** 19)
    tracemalloc.start()
    try:
        u = build_psi_N(6, 0.75, g)
        besov_norm(u, -0.75, 4.0, make_partition(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"psi_6 build and besov_norm peak on 2^19 modes: "
          f"{peak / 2**20:.3f} MiB")
    assert peak < 2 ** 20


def test_fields_derived_from_a_seed_carry_no_support():
    # new coefficients, new support: a mode set off the seed's windows
    # must count in the norm, so every derived field is dense
    g = TorusGrid(32.0, 512)
    p = make_partition(g)
    u = build_phi_N(8, 0.75, g)
    whole = (slice(0, g.mode_count),)
    assert tuple(sl for sl, _ in u.pieces) != whole
    on = np.zeros(g.mode_count, dtype=bool)
    for sl, _ in u.pieces:
        on[sl] = True
    k = 3
    assert not on[k] and not on[-k]
    c = u.coeffs.copy()
    c[k] = c[-k] = 0.5
    derived = [u.copy_with(c), apply_semigroup(u, 0.1, 0.75),
               dealiased_square(u), dealiased_product(u, u),
               to_spectral(from_spectral(u), g),
               Trajectory(g, 0.1, u.coeffs[None, :]).field(0)]
    for v in derived:
        assert tuple(sl for sl, _ in v.pieces) == whole
        assert v.pieces[0][1] is v.coeffs
        want, _ = _dense_weighted(
            _dense_block_table(v.coeffs[None, :], p)[:, 0], -0.75, 2.0, p)
        assert besov_norm(v, -0.75, 2.0, p).value == want
    assert besov_norm(derived[0], -0.75, 2.0, p).value > besov_norm(
        u, -0.75, 2.0, p).value


def test_partition_block_index_errors():
    g = TorusGrid(4.0, 128)
    p = make_partition(g)
    u = SpectralField(g, np.zeros(128, dtype=complex))
    with pytest.raises(DomainError):
        lp_block(u, -2, p)
    with pytest.raises(ResolutionError):
        lp_block(u, p.j_max + 1, p)


def pure_mode_at_4():
    # lam = 2 pi puts xi = 4 exactly on the lattice (k = 4); unit L^2 norm
    g = TorusGrid(2 * np.pi, 64)
    c = np.zeros(64, dtype=complex)
    c[4] = 1.0 / np.sqrt(2 * g.period)
    c[-4] = 1.0 / np.sqrt(2 * g.period)
    return SpectralField(g, c)


def test_lp_block_pure_mode():
    u = pure_mode_at_4()
    p = make_partition(u.grid)
    # phi(4/2) = phi(2) = 1: block j = 1 owns the mode outright
    b1 = lp_block(u, 1, p)
    assert np.allclose(b1.coeffs, u.coeffs, atol=1e-15)
    for j in p.block_range:
        if j == 1:
            continue
        assert l2_norm(lp_block(u, j, p)) < 1e-15


def test_lp_block_support():
    g = TorusGrid(8.0, 512)
    rng = np.random.default_rng(SEED)
    u = random_band_field(g, g.max_frequency, rng)
    p = make_partition(g)
    for j in (0, 2, 4):
        b = lp_block(u, j, p)
        a = np.abs(g.frequencies)
        outside = (a < 2.0**j) | (a > 2.0 ** (j + 2))
        assert np.max(np.abs(b.coeffs[outside])) == 0.0


def test_besov_pure_mode():
    u = pure_mode_at_4()
    p = make_partition(u.grid)
    assert l2_norm(u) == pytest.approx(1.0, rel=1e-14)
    for s in (-1.0, -0.5, 0.0, 0.7):
        for q in (1, 2, np.inf):
            rep = besov_norm(u, s, q, p)
            assert rep.value == pytest.approx(2.0**s, rel=1e-13)


def test_besov_q_monotone_and_s_embedding():
    g = TorusGrid(8.0, 512)
    rng = np.random.default_rng(SEED)
    p = make_partition(g)
    qs = (1.0, 1.5, 2.0, 4.0, np.inf)
    s1, s2 = -0.75, -0.25
    for _ in range(100):
        u = random_band_field(g, g.max_frequency, rng)
        vals = [besov_norm(u, -0.5, q, p).value for q in qs]
        for a, b in zip(vals, vals[1:]):
            assert b <= a * (1 + 1e-13)
        # B^{s2,q} -> B^{s1,1} with the explicit Hoelder constant
        for q in (2.0, 4.0):
            qp = q / (q - 1.0)
            js = np.arange(-1, p.j_max + 1)
            c_h = np.sum(2.0 ** (js * (s1 - s2) * qp)) ** (1.0 / qp)
            lhs = besov_norm(u, s1, 1, p).value
            rhs = c_h * besov_norm(u, s2, q, p).value
            assert lhs <= rhs * (1 + 1e-13)


def test_besov_h_s_bracket():
    # pointwise ratio r(xi) = (1+xi^2)^s / sum_j 2^{2js} m_j(xi)^2 on the band
    # brackets H^s / B^{s,2} exactly
    g = TorusGrid(8.0, 512)
    rng = np.random.default_rng(SEED)
    p = make_partition(g)
    js = np.arange(-1, p.j_max + 1)
    for s in (-0.75, -0.5, 0.25):
        denom = np.zeros(g.mode_count)
        for j in js:
            denom += 2.0 ** (2 * j * s) * p.multiplier(j) ** 2
        r = (1.0 + g.frequencies**2) ** s / denom
        lo, hi = np.sqrt(r.min()), np.sqrt(r.max())
        for _ in range(100):
            u = random_band_field(g, g.max_frequency, rng)
            hs = sobolev_norm(u, s)
            b2 = besov_norm(u, s, 2, p).value
            assert lo * b2 * (1 - 1e-12) <= hs <= hi * b2 * (1 + 1e-12)


def test_block_almost_orthogonality():
    # at most two blocks overlap anywhere, so
    # (1/2)||u||^2 <= sum_j ||Delta_j u||^2 <= ||u||^2
    g = TorusGrid(8.0, 512)
    p = make_partition(g)
    total = np.zeros(g.mode_count)
    for j in p.block_range:
        total += p.multiplier(j) ** 2
    assert total.min() >= 0.5 - 1e-12
    assert total.max() <= 1.0 + 1e-12
    rng = np.random.default_rng(SEED)
    for _ in range(25):
        u = random_band_field(g, g.max_frequency, rng)
        ssq = sum(l2_norm(lp_block(u, j, p)) ** 2 for j in p.block_range)
        n2 = l2_norm(u) ** 2
        assert 0.5 * n2 * (1 - 1e-12) <= ssq <= n2 * (1 + 1e-12)


def test_sobolev_pure_mode():
    u = pure_mode_at_4()
    for s in (-0.5, 0.0, 1.0):
        assert sobolev_norm(u, s) == pytest.approx(17.0 ** (s / 2), rel=1e-13)
    g = TorusGrid(8.0, 256)
    rng = np.random.default_rng(SEED)
    v = random_band_field(g, 20.0, rng)
    assert sobolev_norm(v, 0.0) == pytest.approx(l2_norm(v), rel=1e-14)


def free_trajectory(u0, alpha, dt, n):
    sym = fractional_symbol(u0.grid, alpha)
    ts = dt * np.arange(n)
    coeffs = u0.coeffs[None, :] * np.exp(-np.outer(ts, sym))
    return Trajectory(u0.grid, dt, coeffs)


def test_spacetime_norms_constant_and_decaying():
    g = TorusGrid(2 * np.pi, 64)
    u = pure_mode_at_4()
    p = make_partition(g)
    n, dt = 101, 0.01
    frozen = Trajectory(g, dt, np.repeat(u.coeffs[None, :], n, axis=0))
    T = dt * (n - 1)
    s, q = -0.5, 2.0
    base = besov_norm(u, s, q, p).value
    assert spacetime_besov_norm(frozen, np.inf, s, q, p).value == pytest.approx(base, rel=1e-13)
    assert spacetime_besov_norm(frozen, 2, s, q, p).value == pytest.approx(
        base * np.sqrt(T), rel=1e-13)
    assert spacetime_besov_norm(frozen, 1, s, q, p).value == pytest.approx(
        base * T, rel=1e-13)
    # decaying single mode: closed-form L^2_t integral; trapezoid error is
    # ~ (dt mu)^2/3 relative, so dt = 1e-3 at mu = 8 gives ~2e-5
    alpha = 0.75
    mu = 4.0 ** (2 * alpha)
    traj = free_trajectory(u, alpha, 1e-3, 1001)
    want = base * np.sqrt((1 - np.exp(-2 * mu)) / (2 * mu))
    got = spacetime_besov_norm(traj, 2, s, q, p).value
    assert got == pytest.approx(want, rel=5e-5)
    with pytest.raises(DomainError):
        spacetime_besov_norm(traj, 3, s, q, p)


def test_x_norm_properties():
    g = TorusGrid(8.0, 256)
    rng = np.random.default_rng(SEED)
    p = make_partition(g)
    alpha, s, q, T, dt = 0.75, -0.75, 2.0, 1.0, 0.01
    n = int(T / dt) + 1
    zero = Trajectory(g, dt, np.zeros((n, g.mode_count), dtype=complex))
    assert x_norm(zero, s, q, alpha, p) == 0.0
    ratios = []
    for _ in range(50):
        u0 = random_band_field(g, g.max_frequency, rng)
        traj = free_trajectory(u0, alpha, dt, n)
        val = x_norm(traj, s, q, alpha, p)
        tripled = Trajectory(g, dt, 3.0 * traj.coeffs)
        assert x_norm(tripled, s, q, alpha, p) == pytest.approx(3 * val, rel=1e-13)
        # sup-in-time part is attained at t = 0, block by block
        sup_part = spacetime_besov_norm(traj, np.inf, s, q, p)
        assert sup_part.value == pytest.approx(besov_norm(u0, s, q, p).value, rel=1e-13)
        ratios.append(val / besov_norm(u0, s, q, p).value)
    # free-flow bound: blocks j >= 0 decay at rate >= 2^{2 j alpha}, block -1
    # contributes at most 2^{-(s+alpha)} sqrt(T); constant reported below
    c_star = 1.0 + max(2.0**-0.5, 2.0 ** -(s + alpha) * np.sqrt(T))
    assert max(ratios) <= c_star * (1 + 1e-10)
    print(f"x_norm/besov ratio over 50 free flows: max {max(ratios):.4f} "
          f"(bound {c_star:.4f})")


def test_modulation_indicator_window():
    # uhat = indicator of (-2^N, 2^N): two full windows, [0, 2^N) with
    # count modes and [-2^N, 0) with the count - 1 mirrors; lattice value
    # (sqrt(count) + sqrt(count - 1))/sqrt(lam) -> 2 2^{N/2}/sqrt(2 pi) in
    # the refinement limit
    nw = 3
    for lam, m in ((2.0**8, 1024), (2.0**10, 4096)):
        g = TorusGrid(lam, m)
        xi = g.frequencies
        c = (np.abs(xi) < 2.0**nw).astype(complex) / lam
        u = SpectralField(g, c)
        count = int(np.sum((xi >= 0) & (xi < 2.0**nw)))
        exact = np.sqrt(count / lam) + np.sqrt((count - 1) / lam)
        got = modulation_norm(u, nw)
        assert got == pytest.approx(exact, rel=1e-13)
        assert got == pytest.approx(2 * 2.0 ** (nw / 2) / np.sqrt(2 * np.pi),
                                    rel=2e-3)


def test_modulation_window_errors():
    g = TorusGrid(4.0, 64)  # spacing pi/2, band 16 pi
    u = SpectralField(g, np.zeros(64, dtype=complex))
    with pytest.raises(DomainError):
        modulation_norm(u, -2)  # 0.25 < pi/2
    with pytest.raises(DegenerateWindowError):
        modulation_norm(u, 7)  # 128 > 16 pi


def test_modulation_dominates_l2():
    # l2 of window masses <= l1: the embedding constant is exactly 1
    g = TorusGrid(16.0, 512)
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        u = random_band_field(g, g.max_frequency, rng)
        assert l2_norm(u) <= modulation_norm(u, 2) * (1 + 1e-13)


def test_algebra_constant():
    g = TorusGrid(8.0, 512)
    rep = algebra_constant(g, 2, n_pairs=100, seed=SEED)
    assert isinstance(rep, AlgebraReport)
    assert rep.c0 == pytest.approx(1.1 * rep.max_ratio)
    assert 0 < rep.max_ratio < 1.0  # normalized convention keeps this below 1
    # the fitted constant holds on a fresh batch
    fresh = algebra_constant(g, 2, n_pairs=100, seed=SEED + 999)
    assert fresh.max_ratio <= rep.c0
    print(f"modulation algebra: max ratio {rep.max_ratio:.4f}, C0 {rep.c0:.4f}")


def _algebra_max_ratio_oracle(grid, n_window, n_pairs, seed):
    """The ratio loop on whole fields: each draw widened to its full
    Hermitian spectrum, the field-API product and modulation_norm."""
    rng = np.random.default_rng(seed)
    m = grid.mode_count
    half = 2.0 ** (n_window / 2.0)
    worst = 0.0
    for _ in range(n_pairs):
        u, v = [SpectralField(grid, hermitian_full(
            band_half(rng.standard_normal(m), grid, m // 8), grid))
            for _ in range(2)]
        num = modulation_norm(dealiased_product(u, v), n_window)
        den = half * modulation_norm(u, n_window) * modulation_norm(v, n_window)
        worst = max(worst, num / den)
    return worst


@pytest.mark.parametrize("lam,m,n_window,seed,n_pairs", [
    (8.0, 512, 2, SEED, 30),
    (4.0, 2 ** 12, 8, 3, 20),
    (4.0, 2 ** 14, 10, SEED + 1, 10),
    (64.0, 1024, 1, 7, 25),
    # one pair leaves a worker without any, three split unevenly
    (8.0, 512, 2, SEED, 1),
    (4.0, 2 ** 12, 8, 3, 3),
])
def test_algebra_constant_matches_full_spectrum_oracle(lam, m, n_window, seed,
                                                       n_pairs):
    # the rfft-half route must reproduce the whole-field ratio bit for bit,
    # whichever of the two workers takes which pair
    g = TorusGrid(lam, m)
    rep = algebra_constant(g, n_window, n_pairs=n_pairs, seed=seed)
    assert rep.max_ratio == _algebra_max_ratio_oracle(g, n_window, n_pairs, seed)
    assert rep.c0 == 1.1 * rep.max_ratio
    again = [algebra_constant(g, n_window, n_pairs=n_pairs, seed=seed).c0
             for _ in range(3)]
    assert again == [rep.c0] * 3


def test_algebra_constant_matches_oracle_under_fast_switching():
    # a thread switch every microsecond interleaves the workers' draws
    # finely; a draw taken out of stream order would change the ratio
    g = TorusGrid(8.0, 512)
    want = _algebra_max_ratio_oracle(g, 2, 40, SEED)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [algebra_constant(g, 2, n_pairs=40, seed=SEED).max_ratio
               for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 3


@pytest.mark.parametrize("worker", ["fracheat-pairs-1", "fracheat-pairs-2"])
def test_algebra_constant_worker_error_reaches_caller(monkeypatch, worker):
    # the other worker is slowed so the chosen one surely takes a pair
    real_band_half = dyadic.band_half

    def band_half(*args, **kwargs):
        if threading.current_thread().name == worker:
            raise RuntimeError("injected band_half failure")
        time.sleep(0.001)
        return real_band_half(*args, **kwargs)

    monkeypatch.setattr(dyadic, "band_half", band_half)
    exc = raised_within(
        lambda: algebra_constant(TorusGrid(8.0, 512), 2, n_pairs=200))
    assert isinstance(exc, RuntimeError)
    assert str(exc) == "injected band_half failure"
    assert not threads_named("fracheat-pairs")


def test_algebra_constant_window_errors():
    g = TorusGrid(4.0, 64)  # spacing pi/2, band 16 pi
    with pytest.raises(DomainError):
        algebra_constant(g, -2, n_pairs=1)
    with pytest.raises(DegenerateWindowError):
        algebra_constant(g, 7, n_pairs=1)
    # no pair gives no ratio, and C0 = 0 would make T_N infinite
    for n_pairs in (0, -3):
        with pytest.raises(DomainError):
            algebra_constant(g, 2, n_pairs=n_pairs)

