import numpy as np
import pytest

from fracheat.dyadic import (besov_norm, lp_block, make_partition, modulation_norm,
                             phi_profile, sobolev_norm)
from fracheat.errors import DomainError, ResolutionError
from fracheat.families import (
    CascadeReport,
    FamilySpec,
    build_family,
    build_phi_N,
    build_phi_NR,
    build_psi_N,
    pairing_lower_bound,
    phi_hat_profile,
    psi_hat_profile,
    verify_cascade,
)
from fracheat.grid import TorusGrid, from_spectral, l2_norm
from fracheat.picard import second_iterate_hat


def test_family_spec_validation():
    FamilySpec("phiN", 1, 0.5)
    FamilySpec("psiN", 3, 1.0)
    FamilySpec("phiNR", 8, 0.5, r=0.7)
    with pytest.raises(DomainError):
        FamilySpec("phi_n", 4, 0.5)
    with pytest.raises(DomainError):
        FamilySpec("phiN", 0, 0.5)
    with pytest.raises(DomainError):
        FamilySpec("psiN", 2, 0.5)
    with pytest.raises(DomainError):
        FamilySpec("phiNR", 8, 0.5)
    with pytest.raises(DomainError):
        FamilySpec("phiNR", 8, 0.5, r=0.0)


def test_phi_n_l2_norm_and_symmetry():
    g = TorusGrid(2.0**9, 2**17)
    for n, alpha in [(16, 0.6), (512, 1.0)]:
        f = build_phi_N(n, alpha, g)
        assert f.is_real
        # even: c_k = c_{-k}
        assert np.allclose(f.coeffs, np.roll(f.coeffs[::-1], 1), atol=0)
        assert np.all(f.coeffs.imag == 0)
        want = 2.0 * n**alpha / np.sqrt(2 * np.pi)
        assert abs(l2_norm(f) - want) / want < 0.02
        # support exactly +-[N, N+2]
        a = np.abs(g.frequencies)
        outside = (a < n) | (a > n + 2)
        assert np.all(f.coeffs[outside] == 0)
        assert np.all(f.coeffs[(a > n) & (a < n + 2)].real > 0)


def test_phi_n_physical_samples():
    # inverse transform of the two-interval indicator:
    # (2 N^a / pi) sin(x)/x cos((N+1)x), value 2 N^a / pi at x = 0
    g = TorusGrid(2.0**9, 2**17)
    n, alpha = 512, 1.0
    f = build_phi_N(n, alpha, g)
    samples = from_spectral(f)
    x = g.sample_points.copy()
    x[x > g.period / 2] -= g.period  # symmetric window around 0
    peak = 2.0 * n**alpha / np.pi
    expected = np.where(x == 0.0, peak,
                        peak * np.sin(x) / np.where(x == 0, 1.0, x)
                        * np.cos((n + 1) * x))
    mask = (np.abs(x) <= g.period / 4) & (np.abs(expected) >= 0.05 * peak)
    rel = np.abs(samples[mask] - expected[mask]) / np.abs(expected[mask])
    print(f"phi_N sample check: {mask.sum()} points, worst rel {rel.max():.4f}")
    assert rel.max() < 0.02


def test_phi_n_resolution_errors():
    with pytest.raises(ResolutionError):
        build_phi_N(512, 1.0, TorusGrid(16.0, 1024))  # band ends at 201
    with pytest.raises(ResolutionError):
        build_phi_N(4, 1.0, TorusGrid(2.0, 64))  # spacing pi > 1/4


# lam = 8 pi (spacing 1/4) and lam = 2 pi (spacing 1) put the integers on
# the lattice, so the indicator edges N, N+2 are modes and take the
# midpoint value 1/2; lam = 2^9 and lam = 37 keep the edges off the lattice
@pytest.mark.parametrize("lam,m", [(8 * np.pi, 2 ** 12), (2.0**9, 2 ** 17),
                                   (37.0, 2 ** 12)])
def test_windowed_seeds_equal_dense_profiles(lam, m):
    g = TorusGrid(lam, m)
    xi = g.frequencies
    dense = lambda vals: (vals / g.period).astype(complex)
    for n in (3, 4, 5, 16):
        if n + 2.0 <= g.max_frequency and g.spacing <= 0.25:
            f = build_phi_N(n, 0.6, g)
            assert np.array_equal(f.coeffs, dense(phi_hat_profile(n, 0.6)(xi)))
            if lam == 8 * np.pi:
                half = 0.5 * n**0.6 / g.period
                assert np.sum(f.coeffs == half) == 4  # both edges, both sides
        if 2.0 ** (2 * n) + 2.0 <= g.max_frequency and g.spacing <= 0.25:
            f = build_psi_N(n, 0.75, g)
            assert np.array_equal(f.coeffs, dense(psi_hat_profile(n, 0.75)(xi)))
    for gr in (g, TorusGrid(2 * np.pi, 256)):
        part = make_partition(gr)
        for n in range(1, 8):
            if 2.0 ** (n + 2) <= gr.max_frequency:
                f = build_phi_NR(n, 0.8, gr, part)
                want = 0.8 * phi_profile(gr.frequencies / 2.0**n)
                assert np.array_equal(f.coeffs, (want / gr.period).astype(complex))


def contrast_grid() -> TorusGrid:
    return TorusGrid(2.0**6, 2**18)


def test_psi_n_block_structure():
    g = contrast_grid()
    part = make_partition(g)
    alpha = 0.75
    for n in (3, 5):
        psi = build_psi_N(n, alpha, g)
        assert psi.is_real
        scale = 1.0 / np.sqrt(n)
        for j in range(n, 2 * n + 1):
            phi_j = build_phi_N(2**j, alpha, g)
            target = scale * l2_norm(phi_j)
            # the component phi_{2^j} lives in block j-1 up to a small
            # glue leak into block j; all other blocks see nothing from it
            main = l2_norm(lp_block(psi, j - 1, part))
            assert 0.93 * target <= main <= 1.001 * target
        for b in range(-1, part.j_max + 1):
            if n - 1 <= b <= 2 * n:
                continue
            assert l2_norm(lp_block(psi, b, part)) == 0.0


def test_psi_n_norm_scaling():
    # spacing <= 0.05 so the per-block lattice counts stop wobbling the fit
    g = TorusGrid(2.0**7, 2**19)
    part = make_partition(g)
    alpha = 0.75
    ns = np.array([3, 4, 5, 6])
    for q in (2.0, 4.0, 8.0):
        vals = [besov_norm(build_psi_N(int(n), alpha, g), -alpha, q, part).value
                for n in ns]
        slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
        want = -0.5 + 1.0 / q
        print(f"psi_N q={q}: slope {slope:.3f} (target {want:.3f})")
        assert abs(slope - want) < 0.1
        if q == 2.0:
            assert all(0.5 <= v <= 2.0 for v in vals)  # H^{-a} ~ 1


def test_phi_nr_norms_and_support():
    lam = 4.0
    r = 0.8
    for n in (8, 10):
        g = TorusGrid(lam, 2 ** (n + 4))
        part = make_partition(g)
        f = build_phi_NR(n, r, g, part)
        assert f.is_real
        a = np.abs(g.frequencies)
        inside = (a > 2.0**n) & (a < 2.0 ** (n + 2))
        assert np.all(f.coeffs[~inside & (a != 2.0**n) & (a != 2.0 ** (n + 2))]
                      == 0)
        assert np.all(f.coeffs[inside].real >= 0)
        h = sobolev_norm(f, -0.5)
        print(f"phi_NR N={n}: H^-1/2 = {h:.4f} ({h / r:.4f} R)")
        assert r / 4 <= h <= 4 * r
        assert modulation_norm(f, n) <= 4 * r * 2.0 ** (n / 2)


def test_build_family_dispatch():
    g = TorusGrid(2.0**6, 2**14)
    part = make_partition(g)
    a = build_family(FamilySpec("phiN", 16, 0.6), g)
    b = build_phi_N(16, 0.6, g)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = build_family(FamilySpec("phiNR", 6, 0.5, r=0.3), g, part)
    d = build_phi_NR(6, 0.3, g, part)
    assert np.array_equal(c.coeffs, d.coeffs)
    with pytest.raises(DomainError):
        build_family(FamilySpec("phiNR", 6, 0.5, r=0.3), g)  # no partition


def test_cascade_passes_at_desk_scale():
    g = TorusGrid(2.0**9, 2**17)
    for alpha in (1.0, 0.6):
        rep = verify_cascade(512, alpha, 0.5, g)
        assert isinstance(rep, CascadeReport)
        assert rep.threshold == pytest.approx(0.25 * np.exp(-0.25))
        print(f"cascade alpha={alpha}: min {rep.min_value:.3f} vs "
              f"threshold {rep.threshold:.3f}, theta in "
              f"[{rep.theta_min:.1f}, {rep.theta_max:.1f}]")
        assert rep.passes
        assert rep.min_value > rep.threshold  # clears even without slack
        assert rep.theta_bracket_ok
        assert rep.k1_empty
        # the bracket endpoints from the resonance geometry
        n = 512
        assert rep.theta_min >= n ** (2 * alpha)
        assert rep.theta_max <= 2 * (n + 2.0) ** (2 * alpha)
    with pytest.raises(DomainError):
        verify_cascade(512, 1.0, 1.5, g)


def test_theta_at_centered_pairing():
    # (xi, xi1) = (0, N+1) with xi - xi1 = -(N+1): |Theta| = 2 (N+1)^{2a}
    n, alpha = 512, 0.8
    th = abs(0.0 - (n + 1.0) ** (2 * alpha) - (n + 1.0) ** (2 * alpha))
    assert n ** (2 * alpha) <= th <= 2 * (n + 2.0) ** (2 * alpha)


def test_pairing_lower_bound_values():
    g = TorusGrid(2.0**9, 2**17)
    v = pairing_lower_bound(512, 1.0, 0.5, g)
    assert v > 0
    fine = TorusGrid(2.0**10, 2**18)
    v2 = pairing_lower_bound(512, 1.0, 0.5, fine)
    print(f"pairing value {v:.6f}, refined {v2:.6f}")
    assert abs(v - v2) < 0.01 * abs(v2)


def test_ill_posedness_contrast_phi():
    # s < -alpha: the data norm collapses while the cascade floor holds
    g = contrast_grid()
    part = make_partition(g)
    alpha, s, t = 1.0, -1.75, 0.5
    norm_small = besov_norm(build_phi_N(2**6, alpha, g), s, 2.0, part).value
    norm_large = besov_norm(build_phi_N(2**12, alpha, g), s, 2.0, part).value
    assert norm_large < 0.1 * norm_small
    for n in (2**6, 2**12):
        assert verify_cascade(n, alpha, t, g).passes


def test_ill_posedness_contrast_psi():
    # s = -alpha, q > 2: psi_N norms decrease while the A_2 mass at low
    # frequency stays above the threshold
    g = contrast_grid()
    part = make_partition(g)
    alpha, q, t = 0.75, 4.0, 0.5
    vals = [besov_norm(build_psi_N(n, alpha, g), -alpha, q, part).value
            for n in (3, 4, 5, 6)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    threshold = 0.25 * np.exp(-t / 2)
    scan = np.linspace(-0.5, 0.5, 21)
    for n in (3, 6):
        za = second_iterate_hat(psi_hat_profile(n, alpha), t, scan, alpha, g)
        assert np.min(za) >= threshold * 0.95


def test_profiles_match_builders():
    g = TorusGrid(2.0**6, 2**16)
    f = build_phi_N(40, 0.6, g)
    direct = phi_hat_profile(40, 0.6)(g.frequencies) / g.period
    assert np.array_equal(f.coeffs.real, direct)
