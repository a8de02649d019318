import numpy as np
import pytest
import scipy.fft
from scipy.integrate import simpson

from fracheat.errors import DimensionError, DomainError, SymmetryError
from fracheat.grid import (
    CosineBasis,
    HalfBasis,
    SpectralField,
    TorusGrid,
    _exactly_even,
    _hermitian_defect,
    apply_semigroup,
    dealiased_product,
    dealiased_product_coeffs,
    dealiased_square,
    field_basis,
    fractional_symbol,
    from_spectral,
    l2_norm,
    pair_with_test_function,
    to_spectral,
)

from conftest import (SEED, dealias_mask, exactly_even, hermitian_defect,
                      random_band_field, sample_points, wavenumbers)


def test_grid_validation():
    for period in (0.5, np.inf, np.nan):
        with pytest.raises(DomainError):
            TorusGrid(period, 64)
    with pytest.raises(DomainError):
        TorusGrid(4.0, 48)  # not a power of two
    g = TorusGrid(4.0, 64)
    assert g.spacing == pytest.approx(np.pi / 2)
    assert g.max_frequency == pytest.approx(np.pi * 16)
    # fft ordering of the frequencies
    assert np.array_equal(g.frequencies_at(np.array([0, 31, 32, 63])),
                          g.spacing * np.array([0.0, 31.0, -32.0, -1.0]))


def test_to_spectral_dc_and_harmonic():
    g = TorusGrid(8.0, 128)
    # constant a -> c_0 = a, all else 0
    f = to_spectral(np.full(g.mode_count, 3.25), g)
    assert f.coeffs[0] == pytest.approx(3.25)
    assert np.max(np.abs(f.coeffs[1:])) < 1e-14
    # cos(2 pi x / lam) -> c_{+-1} = 1/2
    f = to_spectral(np.cos(2 * np.pi * sample_points(g) / g.period), g)
    assert f.coeffs[1] == pytest.approx(0.5)
    assert f.coeffs[-1] == pytest.approx(0.5)
    others = np.delete(f.coeffs, [1, g.mode_count - 1])
    assert np.max(np.abs(others)) < 1e-14


def test_roundtrip_and_parseval():
    g = TorusGrid(16.0, 256)
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        samples = rng.standard_normal(g.mode_count)
        f = to_spectral(samples, g)
        assert hermitian_defect(f.coeffs) == 0.0
        back = from_spectral(f)
        assert np.allclose(back, samples, atol=1e-12)
        # (lam/M) sum samples^2 = lam sum |c|^2
        phys = (g.period / g.mode_count) * np.sum(samples**2)
        assert l2_norm(f) ** 2 == pytest.approx(phys, rel=1e-12)


def test_to_spectral_refuses_complex_samples():
    # every field is real: complex samples are refused up front, even
    # when their imaginary parts are zero
    g = TorusGrid(4.0, 64)
    for dtype in (np.complex64, np.complex128):
        with pytest.raises(SymmetryError,
                           match=f"samples must be real, got {np.dtype(dtype)}"):
            to_spectral(np.ones(64, dtype=dtype), g)


def test_field_validation_errors():
    g = TorusGrid(4.0, 64)
    with pytest.raises(DimensionError):
        SpectralField(g, np.zeros(32, dtype=complex))
    bad = np.zeros(64, dtype=complex)
    bad[3] = 1.0  # no conjugate partner at -3
    with pytest.raises(SymmetryError):
        SpectralField(g, bad)
    nan = np.zeros(64, dtype=complex)
    nan[0] = np.nan
    with pytest.raises(DomainError):
        SpectralField(g, nan)


def test_fractional_symbol():
    g = TorusGrid(4.0, 64)
    with pytest.raises(DomainError):
        fractional_symbol(g, 0.0)
    with pytest.raises(DomainError):
        fractional_symbol(g, 1.5)
    assert np.allclose(fractional_symbol(g, 0.5), np.abs(g.frequencies))
    assert np.allclose(fractional_symbol(g, 1.0), g.frequencies**2)


def test_semigroup_identity_law_and_decay():
    g = TorusGrid(8.0, 128)
    rng = np.random.default_rng(SEED)
    u = random_band_field(g, 20.0, rng)
    with pytest.raises(DomainError):
        apply_semigroup(u, -0.1, 0.75)
    for alpha in (0.4, 0.5, 0.75, 1.0):
        v0 = apply_semigroup(u, 0.0, alpha)
        assert np.array_equal(v0.coeffs, u.coeffs)
        # S(t)S(s) = S(t+s), multiplier exactness
        a = apply_semigroup(apply_semigroup(u, 0.3, alpha), 0.45, alpha)
        b = apply_semigroup(u, 0.75, alpha)
        assert np.allclose(a.coeffs, b.coeffs, rtol=0, atol=1e-15 * np.max(np.abs(u.coeffs)))
    # single mode decays by exactly e^{-t|xi|^{2 alpha}}
    c = np.zeros(g.mode_count, dtype=complex)
    c[2] = 1.0
    c[-2] = 1.0
    mode = SpectralField(g, c)
    xi = g.frequencies[2]
    got = apply_semigroup(mode, 0.2, 0.6).coeffs[2]
    assert got == pytest.approx(np.exp(-0.2 * abs(xi) ** 1.2), rel=1e-14)


def test_energy_identity():
    # ||u(T)||^2 + 2 int_0^T ||D^alpha u||^2 = ||phi||^2 for the free flow,
    # quadrature via composite Simpson at dt = 1e-3
    g = TorusGrid(16.0, 64)
    rng = np.random.default_rng(SEED)
    phi = random_band_field(g, 5.0, rng)
    T = 1.0
    ts = np.linspace(0.0, T, 1001)
    for alpha in (0.5, 0.75, 1.0):
        sym = fractional_symbol(g, alpha)
        w = g.period * np.abs(phi.coeffs) ** 2
        # ||D^alpha u(t)||^2 = sum_k |xi_k|^{2 alpha} e^{-2 t |xi_k|^{2 alpha}} w_k
        dissip = (sym * w) @ np.exp(-2.0 * np.outer(sym, ts))
        lhs = l2_norm(apply_semigroup(phi, T, alpha)) ** 2 + 2.0 * simpson(dissip, x=ts)
        rhs = l2_norm(phi) ** 2
        assert abs(lhs - rhs) / rhs < 1e-6


def brute_dealiased_product(cu, cv, grid):
    """O(M^2) direct convolution of the kept bands, zero outside the kept band."""
    m = grid.mode_count
    keep = dealias_mask(grid)
    k = wavenumbers(grid)
    out = np.zeros(m, dtype=complex)
    idx = {int(kk): i for i, kk in enumerate(k)}
    for i in range(m):
        if not keep[i]:
            continue
        acc = 0.0 + 0.0j
        for j in range(m):
            if not keep[j]:
                continue
            rem = int(k[i]) - int(k[j])
            p = idx.get(rem)
            if p is not None and keep[p]:
                acc += cu[j] * cv[p]
        out[i] = acc
    return out


def test_dealiased_square_against_brute_convolution():
    g = TorusGrid(4.0, 64)
    rng = np.random.default_rng(SEED)
    for _ in range(5):
        u = random_band_field(g, g.max_frequency, rng)  # full band, forces dealiasing
        got = dealiased_square(u).coeffs
        want = brute_dealiased_product(u.coeffs, u.coeffs, g)
        assert np.allclose(got, want, atol=1e-13 * max(1.0, np.max(np.abs(want))))
        assert np.all(got[~dealias_mask(g)] == 0)
    v = random_band_field(g, g.max_frequency, rng)
    got = dealiased_product(u, v).coeffs
    want = brute_dealiased_product(u.coeffs, v.coeffs, g)
    assert np.allclose(got, want, atol=1e-13 * max(1.0, np.max(np.abs(want))))
    # a 2-row stack in each basis, as the solver squares a trajectory
    even = _even_spectrum(0.1 * rng.standard_normal(33), g).astype(complex)
    for stack in ([u.coeffs, v.coeffs], [even, 2.0 * even]):
        stack = np.array(stack)
        got = dealiased_product_coeffs(stack, stack, g)
        assert got.shape == stack.shape
        for row, c in zip(got, stack):
            want = brute_dealiased_product(c, c, g)
            assert np.allclose(row, want,
                               atol=1e-13 * max(1.0, np.max(np.abs(want))))
            assert np.all(row[~dealias_mask(g)] == 0)


@pytest.mark.parametrize("m", [4, 8, 1024])
def test_band_primitives_against_masked_complex_fft(m):
    g = TorusGrid(4.0, m)
    rng = np.random.default_rng(SEED)
    for k_max in (m // 8, m // 3, m // 2):  # m // 2 includes the Nyquist mode
        keep = np.abs(wavenumbers(g)) <= k_max
        basis = HalfBasis(g, k_max + 1)
        for shape in ((m,), (2, m)):
            s = rng.standard_normal(shape)
            masked = np.where(keep, np.fft.fft(s) / m, 0.0)
            h = basis.coeffs(s)
            assert h.shape == shape[:-1] + (k_max + 1,)
            assert np.allclose(h, masked[..., :k_max + 1], atol=1e-15)
            assert np.allclose(basis.widen(h), masked, atol=1e-15)
            assert np.allclose(basis.samples(h),
                               (np.fft.ifft(masked) * m).real, atol=1e-13)
            # any half, not only an rfft output, widens to an exactly
            # Hermitian spectrum whose samples the basis returns
            z = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
            for row, zrow in zip(np.atleast_2d(basis.widen(z)),
                                 np.atleast_2d(basis.samples(z))):
                assert hermitian_defect(row) == 0.0
                assert np.allclose(from_spectral(SpectralField(g, row)), zrow,
                                   atol=1e-13)


def _unpermute(v):
    # Makhoul's order back to the natural one: entry j is sample 2j and
    # entry n-1-j is sample 2j+1
    n = v.shape[-1]
    f = np.empty_like(v)
    f[..., 0::2] = v[..., :n // 2]
    f[..., 1::2] = v[..., :n // 2 - 1:-1]
    return f


def _even_spectrum(c, g):
    # the full fft-order spectrum of the real cosine modes c (last axis)
    full = np.zeros(c.shape[:-1] + (g.mode_count,))
    full[..., :c.shape[-1]] = c
    full[..., g.mode_count - c.shape[-1] + 1:] = c[..., :0:-1]
    return full


@pytest.mark.parametrize("m", [4, 8, 1024])
def test_cosine_primitives_against_dct_and_masked_complex_fft(m):
    g = TorusGrid(4.0, m)
    n = m // 2
    rng = np.random.default_rng(SEED)
    # the shifted grid x_j = (j + 1/2) lam/M: mode k picks up e^{i pi k/M}
    shift = np.exp(1j * np.pi * wavenumbers(g) / m)
    for k_max in sorted({m // 8, m // 3, n - 1}):
        basis = CosineBasis(g, k_max + 1)
        for shape in ((k_max + 1,), (2, k_max + 1)):
            c = rng.standard_normal(shape)
            padded = np.zeros(shape[:-1] + (n,))
            padded[..., :k_max + 1] = c
            v = basis.samples(c)
            assert v.shape == shape[:-1] + (n,)
            f = _unpermute(v)
            scale = max(1.0, np.max(np.abs(f)))
            assert np.allclose(f, scipy.fft.dct(padded, type=3),
                               atol=1e-14 * scale)
            shifted = np.fft.ifft(_even_spectrum(c, g) * shift) * m
            assert np.allclose(f, shifted[..., :n].real, atol=1e-14 * scale)
            assert np.max(np.abs(shifted[..., :n].imag)) < 1e-13 * scale

            s = rng.standard_normal(shape[:-1] + (n,))
            h = basis.coeffs(s)
            assert h.shape == shape
            want = scipy.fft.dct(_unpermute(s), type=2)[..., :k_max + 1] / m
            assert np.allclose(h, want, atol=1e-15)
            # the samples and their mirror fill the whole shifted grid
            whole = np.concatenate([_unpermute(s), _unpermute(s)[..., ::-1]],
                                   axis=-1)
            masked = (np.fft.fft(whole) / m / shift)[..., :k_max + 1]
            assert np.allclose(h, masked.real, atol=1e-15)
            assert np.max(np.abs(masked.imag)) < 1e-15
            # the pair is an exact round trip on modes below M/2
            assert np.allclose(basis.coeffs(v), c, atol=1e-14)


def test_cosine_out_buffers_leave_values_unchanged():
    g = TorusGrid(8.0, 64)
    m = g.mode_count
    rng = np.random.default_rng(SEED)
    for k_max in (m // 8, m // 3, m // 2 - 1):
        basis = CosineBasis(g, k_max + 1)
        c = rng.standard_normal((2, k_max + 1))
        want = basis.samples(c)
        out = np.full((2, m // 2), 9.0)
        work = np.full((2, m // 4 + 1), 9.0 + 9.0j)
        assert basis.samples(c, out=out, work=work) is out
        np.testing.assert_array_equal(out, want)
        want = basis.coeffs(want)
        out = np.full((2, k_max + 1), 9.0)
        assert basis.coeffs(basis.samples(c), out=out, work=work) is out
        np.testing.assert_array_equal(out, want)


def test_field_basis_follows_exact_symmetry():
    g = TorusGrid(8.0, 64)
    rng = np.random.default_rng(SEED)
    even = _even_spectrum(rng.standard_normal(33), g).astype(complex)
    u = to_spectral(rng.standard_normal(64), g)
    assert isinstance(field_basis(g, even), CosineBasis)
    assert isinstance(field_basis(g, even, even[None, :]), CosineBasis)
    assert isinstance(field_basis(g, even, u.coeffs), HalfBasis)
    off = even.copy()
    off[5] = np.nextafter(off[5].real, np.inf)
    assert isinstance(field_basis(g, off), HalfBasis)
    odd = even.copy()
    odd[5] += 1e-300j
    odd[-5] -= 1e-300j
    assert isinstance(field_basis(g, odd), HalfBasis)
    # a field's pieces, as picard_terms passes them, and a dense array mixed
    windows = (slice(0, 9), slice(56, 64))
    pieces = tuple((sl, even[sl]) for sl in windows)
    assert isinstance(field_basis(g, pieces), CosineBasis)
    assert isinstance(field_basis(g, pieces, even), CosineBasis)
    assert isinstance(field_basis(g, pieces[:1]), HalfBasis)
    assert isinstance(field_basis(g, pieces, u.coeffs), HalfBasis)


def test_even_products_against_brute_convolution():
    g = TorusGrid(4.0, 64)
    rng = np.random.default_rng(SEED)
    for _ in range(3):
        # full band, so the input mask matters
        u = SpectralField(g, _even_spectrum(0.1 * rng.standard_normal(33), g))
        v = random_band_field(g, g.max_frequency, rng)
        for got, want in ((dealiased_square(u).coeffs,
                           brute_dealiased_product(u.coeffs, u.coeffs, g)),
                          (dealiased_product(u, v).coeffs,
                           brute_dealiased_product(u.coeffs, v.coeffs, g)),
                          (dealiased_product(v, u).coeffs,
                           brute_dealiased_product(v.coeffs, u.coeffs, g))):
            assert np.allclose(got, want,
                               atol=1e-13 * max(1.0, np.max(np.abs(want))))
            assert np.all(got[~dealias_mask(g)] == 0)
        sq = dealiased_square(u).coeffs
        assert not np.any(sq.imag)
        np.testing.assert_array_equal(sq[1:], sq[:0:-1])


def _roll_hermitian_defect(coeffs):
    # every mode against the conjugate of its mirror, the mirror built whole
    mirrored = np.conj(np.roll(coeffs[::-1], 1))
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    return float(np.max(np.abs(coeffs - mirrored))) / scale


@pytest.mark.parametrize("m", [4, 8, 1024])
def test_hermitian_defect_equals_roll_oracle(m):
    g = TorusGrid(4.0, m)
    rng = np.random.default_rng(SEED)
    cases = [rng.standard_normal(m) + 1j * rng.standard_normal(m)
             for _ in range(5)]
    hermitian = HalfBasis(g, m // 2 + 1).widen(
        rng.standard_normal(m // 2 + 1) + 1j * rng.standard_normal(m // 2 + 1))
    cases.append(hermitian)
    imag_dc = hermitian.copy()
    imag_dc[0] += 3e-3j
    cases.append(imag_dc)
    imag_nyquist = hermitian.copy()
    imag_nyquist[m // 2] += 7e-4j
    cases.append(imag_nyquist)
    for c in cases:
        assert hermitian_defect(c) == _roll_hermitian_defect(c)
    assert hermitian_defect(hermitian) == 0.0
    assert hermitian_defect(imag_dc) > 0.0
    assert hermitian_defect(imag_nyquist) > 0.0


def _windowed_seed(g, parts):
    # a seed as the family builders make one: each part, exactly 0 off
    # lo <= |xi| <= hi, evaluated on its support windows as one piece each;
    # the dense spectrum is those pieces added into zeros
    c = np.zeros(g.mode_count, dtype=complex)
    pieces = []
    for lo, hi in parts:
        for sl in g.support_windows(lo, hi):
            xi = g.frequencies[sl]
            inside = (np.abs(xi) >= lo) & (np.abs(xi) <= hi)
            values = np.where(inside, 2.0 + np.cos(xi), 0.0)
            c[sl] += values
            pieces.append((sl, values))
    return pieces, c


# lam = pi (spacing 2): [2, 4] and [6, 8] have windows that share the
# margin modes k = 2, 3 on each side; [0, 2] reaches mode 0 and
# [top/2, top] the self-mirrored mode -M/2. lam = 37 keeps ends off the
# lattice.
@pytest.mark.parametrize("lam,m,parts", [
    (np.pi, 64, [(0.0, 2.0), (2.0, 4.0), (6.0, 8.0)]),
    (np.pi, 64, [(32.0, 64.0)]),
    (37.0, 1024, [(1.0, 3.0), (16.0, 18.0), (40.0, 86.9)]),
])
def test_windowed_hermitian_defect_equals_full(lam, m, parts):
    g = TorusGrid(lam, m)
    pieces, c = _windowed_seed(g, parts)
    u = SpectralField.windowed(g, pieces)
    # the joined pieces hold the dense spectrum bit for bit, margins too
    np.testing.assert_array_equal(u.coeffs, c)
    assert _hermitian_defect(u.pieces, m) == hermitian_defect(c) == 0.0
    # off symmetry inside the windows, mode 0 and -M/2 included
    rng = np.random.default_rng(SEED)
    on = np.zeros(m, dtype=bool)
    for sl, _ in u.pieces:
        on[sl] = True
    for _ in range(4):
        off = c.copy()
        off[on] += (rng.standard_normal(on.sum())
                    + 1j * rng.standard_normal(on.sum()))
        off_pieces = tuple((sl, off[sl]) for sl, _ in u.pieces)
        assert _hermitian_defect(off_pieces, m) == hermitian_defect(off) > 0.0


@pytest.mark.parametrize("mode", [5, -5, 16, -16])
def test_windowed_check_still_refuses_asymmetric_seed(mode):
    # one mirror mode off by 1e-11 relative, inside the windows
    g = TorusGrid(37.0, 1024)
    pieces, c = _windowed_seed(g, [(0.5, 3.0), (40.0, 86.9)])
    assert c[mode] != 0.0
    scale = np.max(np.abs(c))
    c[mode] += 1e-11 * scale
    # the windows do not overlap, so each piece reads the changed spectrum
    with pytest.raises(SymmetryError):
        SpectralField.windowed(g, [(sl, c[sl]) for sl, _ in pieces])
    with pytest.raises(SymmetryError):
        SpectralField(g, c)


def test_windowed_field_refuses_malformed_pieces():
    g = TorusGrid(37.0, 64)
    ones = np.ones(4)
    for window in (slice(-4, 0), slice(62, 66), slice(0, 8, 2)):
        with pytest.raises(IndexError):
            SpectralField.windowed(g, [(window, ones)])
    with pytest.raises(DimensionError):
        SpectralField.windowed(g, [(slice(0, 5), ones)])
    with pytest.raises(DomainError):
        SpectralField.windowed(g, [(slice(0, 1), [np.nan])])


def test_out_buffers_leave_values_unchanged():
    # prefilled output buffers must be overwritten whole: every basis
    # method gives with out= exactly what it gives without
    g = TorusGrid(8.0, 64)
    m = g.mode_count
    rng = np.random.default_rng(SEED)
    s = rng.standard_normal((2, m))

    def junk(shape, dtype=complex):
        return np.full(shape, 9.0 + 9.0j if np.dtype(dtype).kind == "c"
                       else 9.0)

    for k_max in (m // 8, m // 3, m // 2):
        half = HalfBasis(g, k_max + 1)
        want = half.coeffs(s)
        out, work = junk((2, k_max + 1)), junk((2, m // 2 + 1))
        assert half.coeffs(s, out=out, work=work) is out
        np.testing.assert_array_equal(out, want)
        out = junk((2, m), float)
        assert half.samples(want, out=out) is out
        np.testing.assert_array_equal(out, half.samples(want))
        out = junk((2, m))
        assert half.widen(want, out=out) is out
        np.testing.assert_array_equal(out, half.widen(want))
    # each basis's transform pair and widening, on a 2-row stack
    for basis, data in ((HalfBasis(g), s), (CosineBasis(g), s[:, :m // 2])):
        want = basis.coeffs(data)
        out = junk((2, basis.width), basis.coeff_dtype)
        assert basis.coeffs(data, out=out) is out
        np.testing.assert_array_equal(out, want)
        out = junk((2, basis.n_samples), basis.sample_dtype)
        assert basis.samples(want, out=out) is out
        np.testing.assert_array_equal(out, basis.samples(want))
        out = junk((2, m))
        assert basis.widen(want, out=out) is out
        np.testing.assert_array_equal(out, basis.widen(want))
        # the product of a band with itself and with another band
        a = want[0]
        for b in (a, want[1]):
            expect = basis.coeffs(basis.samples(a) * basis.samples(b))
            np.testing.assert_array_equal(basis.product(a, b), expect)
            out = junk(basis.width, basis.coeff_dtype)
            work = basis.workspace()
            work.fill(9.0 + 9.0j)
            samples = [junk(basis.n_samples, basis.sample_dtype)
                       for _ in range(2)]
            assert basis.product(a, b, out=out, work=work,
                                 samples=samples) is out
            np.testing.assert_array_equal(out, expect)


def test_dealiased_square_exact_on_harmonics():
    g = TorusGrid(8.0, 256)
    x = sample_points(g)
    # (a + cos(xi1 x))^2 = a^2 + 1/2 + 2a cos(xi1 x) + cos(2 xi1 x)/2, all in band
    a = 0.7
    xi1 = 2 * np.pi * 3 / g.period
    u = to_spectral(a + np.cos(xi1 * x), g)
    sq = dealiased_square(u)
    want = to_spectral(a**2 + 0.5 + 2 * a * np.cos(xi1 * x) + 0.5 * np.cos(2 * xi1 * x), g)
    assert np.allclose(sq.coeffs, want.coeffs, atol=1e-14)


def indicator_quarter(xi):
    # chi_{[-1/4, 1/4]} with midpoint convention at the edges
    xi = np.asarray(xi, dtype=float)
    inside = (np.abs(xi) < 0.25).astype(float)
    edge = (np.abs(xi) == 0.25).astype(float)
    return inside + 0.5 * edge


def pairing_value(lam: float) -> float:
    m = 4096  # band far exceeds the support; M is irrelevant past that
    g = TorusGrid(lam, m)
    coeffs = indicator_quarter(g.frequencies) / g.period
    u = SpectralField(g, coeffs)
    return pair_with_test_function(u, indicator_quarter)


def test_pairing_indicator_refinement():
    # uhat = ghat = chi_{[-1/4,1/4]}: continuum pairing (1/2pi) * 1/2
    target = 1.0 / (4.0 * np.pi)
    errs = [abs(pairing_value(2.0**p) - target) for p in (11, 12, 13, 14)]
    assert errs[-1] < 1e-3
    # mode-count jitter bounds the error by 1/lam (not monotone, only enveloped)
    for p, err in zip((11, 12, 13, 14), errs):
        assert err <= 1.0 / 2.0**p + 1e-12
    # exact lattice count at lam = 2^14: 2*651+1 modes inside, none on the edge
    lam = 2.0**14
    count = 2 * int(lam / (8 * np.pi)) + 1
    assert pairing_value(lam) == pytest.approx(count / lam, rel=1e-13)


def test_pairing_shape_check():
    g = TorusGrid(4.0, 64)
    u = SpectralField(g, np.zeros(64, dtype=complex))
    with pytest.raises(DimensionError):
        pair_with_test_function(u, lambda xi: np.ones(3))


@pytest.mark.parametrize("lam,m", [(4.0, 4), (8.0, 512), (128.0, 2**19)])
def test_frequencies_at_equals_the_cached_lattice(lam, m):
    g = TorusGrid(lam, m)
    xi, h, top, dk = g.frequencies, m // 2, g.max_frequency, g.spacing
    # windows that touch 0, reach the band edge, or hold modes M/2 - 1
    # (the top k >= 0) and M/2 (k = -M/2)
    covered = set()
    for lo, hi in [(0.0, 0.0), (0.0, dk), (0.0, 3 * dk), (dk, 2 * dk),
                   (top / 2, top), ((h - 1) * dk, top), (top, 2 * top),
                   (0.0, top)]:
        for sl in g.support_windows(lo, hi):
            assert np.array_equal(g.frequencies_at(sl), xi[sl])
            covered.update(range(sl.start, sl.stop))
    assert {0, h - 1, h, m - 1} <= covered
    for sl in (slice(0, 0), slice(h, h), slice(m, m), slice(3, 1)):
        assert np.array_equal(g.frequencies_at(sl), xi[sl])
    # unsorted, with repeats, unsigned, empty
    for idx in (np.array([0, h - 1, h, m - 1]),
                np.array([m - 1, h, 0, h - 1, h, 0, m - 1]),
                np.array([h, h, h - 1], dtype=np.uint32),
                np.array([], dtype=np.intp)):
        assert np.array_equal(g.frequencies_at(idx), xi[idx])
    for bad in (np.array([m]), np.array([-1]), np.array([0.5]),
                slice(0, m, 2)):
        with pytest.raises(IndexError):
            g.frequencies_at(bad)


@pytest.mark.parametrize("lam,m", [(np.pi, 64), (2 * np.pi, 64), (1.0, 4),
                                   (3.7, 1024), (np.pi, 2 ** 16)])
def test_support_windows_cover_the_interval(lam, m):
    # intervals whose ends land on lattice frequencies (lam = pi puts
    # every 2^j there), off them, at zero, and past the band
    g = TorusGrid(lam, m)
    a = np.abs(g.frequencies)
    top = g.max_frequency
    for lo, hi in [(0.0, 2.0), (2.0, 8.0), (1.0, 4.0), (0.3, 0.4),
                   (top / 4, top), (top / 2, 4 * top), (2 * top, 3 * top),
                   (g.spacing, 3 * g.spacing)]:
        windows = g.support_windows(lo, hi)
        assert len(windows) <= 2
        covered = np.zeros(m, dtype=int)
        for sl in windows:
            assert 0 <= sl.start < sl.stop <= m and sl.step is None
            covered[sl] += 1
        assert covered.max(initial=0) <= 1  # the two sides are disjoint
        inside = (a >= lo) & (a <= hi)
        assert np.all(covered[inside] == 1)
        # no more than one mode of margin past either end
        k = np.abs(wavenumbers(g)[covered == 1])
        if k.size:
            assert k.min() >= np.ceil(lo / g.spacing) - 1
            assert k.max() <= np.floor(hi / g.spacing) + 1
        # k >= 0 first, then k < 0, each within its half of the fft order
        for sl in windows:
            assert sl.stop <= m // 2 or sl.start >= m // 2
        if len(windows) == 2:
            assert windows[0].stop <= m // 2 <= windows[1].start


def _exactly_even_full_scan(c):
    return (not np.any(c.imag)
            and np.array_equal(c.real[..., 1:], c.real[..., :0:-1]))


@pytest.mark.parametrize("m", [4, 8, 16, 1024])
def test_exactly_even_equals_full_scan(m):
    g = TorusGrid(8.0, m)
    rng = np.random.default_rng(SEED)
    even = _even_spectrum(rng.standard_normal(m // 2 + 1), g).astype(complex)

    def off(index, step):
        c = even.copy()
        c[index] = step(c[index])
        return c

    ulp = lambda v: np.nextafter(v.real, np.inf)
    ulp_last = off(-1, ulp)
    generic = to_spectral(rng.standard_normal(m), g).coeffs
    # the last mode's mirror is mode 1, inside the low-mode probe; its
    # imaginary part and the modes near M/2 are seen by the full scan only
    cases = {"even": (even, True), "ulp_last": (ulp_last, False),
             "imag_last": (off(-1, lambda v: v + 1e-300j), False),
             "ulp_mid": (off(m // 2 - 1, ulp), False),
             "imag_nyquist": (off(m // 2, lambda v: v + 1e-300j), False),
             "random": (generic, False),
             "rows": (np.stack([even, even]), True),
             "rows_one_off": (np.stack([even, ulp_last]), False)}
    for name, (c, want) in cases.items():
        assert exactly_even(c) is want, name
        assert _exactly_even_full_scan(c) is want, name
        if c.ndim == 1:
            # the same spectrum cut into pieces reads the same
            cuts = [slice(0, 3), slice(3, m // 2 + 1), slice(m // 2 + 1, m)]
            pieces = tuple((sl, c[sl]) for sl in cuts if sl.start < sl.stop)
            assert _exactly_even(pieces, m) is want, name
    # a field on two windows, 0 off them: even only with both mirrors
    k = np.arange(1, m // 4 + 1, dtype=float)
    plus, minus = (slice(1, m // 4 + 1), k), (slice(m - m // 4, m), k[::-1])
    assert _exactly_even((plus, minus), m)
    assert not _exactly_even((plus,), m)
    assert not _exactly_even((minus,), m)
    assert not _exactly_even((plus, (minus[0], minus[1] + 1e-300j)), m)
