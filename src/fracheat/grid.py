"""Spectral representation of periodic fields on large tori.

A field on the torus of period lam is carried by its Fourier coefficients
c_k (numpy fft order, k in {-M/2, ..., M/2-1}) at frequencies xi_k = 2*pi*k/lam.
The dictionary to the continuum objects is

    fhat(xi_k) = lam * c_k,        ||f||_{L^2(dx)}^2 = lam * sum_k |c_k|^2,

so integrals int dxi become (2*pi/lam) * sum_k and every norm below is the
lattice Riemann sum of its continuum counterpart.

The dealiased product carries its band |k| <= M/3 in one of three bases,
chosen by field_basis from the symmetry of the inputs alone:

- ComplexBasis, for complex fields: the full spectrum and M complex
  samples, through full complex transforms.
- HalfBasis, for real fields: modes 0..M/3 (the rfft half) and M real
  samples, through band_half (real samples to modes) and band_samples
  (modes to real samples; a short half is zero-padded, which is the 2/3
  rule when it stops at M/3). hermitian_full widens a half to the full
  fft-order spectrum with its conjugate mirror.
- CosineBasis, for real fields whose coefficients are exactly even (real,
  and c_{-k} == c_k bit for bit): real cosine coefficients on modes
  0..M/3 and M/2 real samples, through cosine_band and cosine_samples.
  These are Makhoul's DCT-II/DCT-III pair over one length-M/2 rfft or
  irfft and one twiddle multiply. The samples sit on the half-shifted
  grid x_j = (j + 1/2) lam/M, j < M/2 (the other half is their mirror),
  in Makhoul's permuted order. Only pointwise products read them, and
  the 2/3-rule product is exact on any shifted grid, so neither the
  shift nor the order is undone.

The raw-array primitives take a numpy-style out= (band_half and the cosine
pair also a work= for the half-length complex buffer of their transform),
so a march can reuse its buffers; the values do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError, SymmetryError

HERMITIAN_RTOL = 1e-12


def check_alpha(alpha: float) -> float:
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"fractional order must satisfy 0 < alpha <= 1, got {alpha}")
    return float(alpha)


@dataclass(frozen=True)
class TorusGrid:
    """Uniform spectral grid: period lam >= 1, mode count M a power of two."""

    period: float
    mode_count: int

    def __post_init__(self):
        if not self.period >= 1.0:
            raise DomainError(f"period must be >= 1, got {self.period}")
        m = self.mode_count
        if m < 4 or (m & (m - 1)) != 0:
            raise DomainError(f"mode_count must be a power of two >= 4, got {m}")

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        # integer k in fft order: 0, 1, ..., M/2-1, -M/2, ..., -1
        m = self.mode_count
        k = np.arange(m)
        k[m // 2:] -= m
        return k

    @cached_property
    def frequencies(self) -> np.ndarray:
        """xi_k = 2*pi*k/lam, fft order."""
        return (2.0 * np.pi / self.period) * self.wavenumbers

    @cached_property
    def sample_points(self) -> np.ndarray:
        """x_n = n*lam/M, n = 0..M-1."""
        return (self.period / self.mode_count) * np.arange(self.mode_count)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        # 2/3 rule: keep |k| <= M/3
        return np.abs(self.wavenumbers) <= self.mode_count // 3

    @cached_property
    def cosine_twiddles(self) -> tuple:
        """(e^{-i pi k/M}, e^{i pi k/M}) for k = 0..M/4, the twiddles of the
        cosine pair."""
        w = np.exp((-1j * np.pi / self.mode_count)
                   * np.arange(self.mode_count // 4 + 1))
        return w, np.conj(w)

    @property
    def spacing(self) -> float:
        """Frequency spacing 2*pi/lam."""
        return 2.0 * np.pi / self.period

    @property
    def max_frequency(self) -> float:
        """pi*M/lam, attained by the k = -M/2 mode."""
        return np.pi * self.mode_count / self.period

    def support_windows(self, lo: float, hi: float) -> tuple:
        """fft-order slices that cover every mode with lo <= |xi_k| <= hi.

        At most two: modes k >= 0, then modes k < 0; a side with no such
        mode is left out. Each side reaches one mode past the interval at
        both ends, so rounding in xi_k = 2*pi*k/lam cannot drop an edge
        mode. A profile that is exactly 0 off [lo, hi] therefore equals
        its dense evaluation once it is evaluated on the windows and
        zero-filled elsewhere.
        """
        m = self.mode_count
        k_lo = max(int(np.ceil(lo / self.spacing)) - 1, 0)
        k_hi = min(int(np.floor(hi / self.spacing)) + 1, m // 2)
        windows = []
        k_top = min(k_hi, m // 2 - 1)  # the last k >= 0 mode is M/2 - 1
        if k_lo <= k_top:
            windows.append(slice(k_lo, k_top + 1))
        # k < 0 sits at fft index M + k; max(k_lo, 1) keeps mode 0 out
        if max(k_lo, 1) <= k_hi:
            windows.append(slice(m - k_hi, m - max(k_lo, 1) + 1))
        return tuple(windows)


def _hermitian_defect(coeffs: np.ndarray) -> float:
    # mode k against conj(mode -k); mode 0 is its own mirror, and
    # |c0 - conj(c0)| = 2|Im c0|
    mirror_gap = np.max(np.abs(coeffs[1:] - np.conj(coeffs[:0:-1])))
    defect = max(2.0 * abs(coeffs[0].imag), float(mirror_gap))
    return defect / max(1.0, float(np.max(np.abs(coeffs))))


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of one field, fft order, complex128.

    is_real declares that the physical samples are real; construction then
    enforces Hermitian symmetry c_{-k} = conj(c_k) to 1e-12 relative.
    """

    grid: TorusGrid
    coeffs: np.ndarray
    is_real: bool = True

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.grid.mode_count,):
            raise DimensionError(
                f"coefficient array has shape {c.shape}, grid wants ({self.grid.mode_count},)")
        if not np.all(np.isfinite(c.view(np.float64))):
            raise DomainError("non-finite coefficient")
        object.__setattr__(self, "coeffs", c)
        if self.is_real and _hermitian_defect(c) > HERMITIAN_RTOL:
            raise SymmetryError(
                f"field declared real but Hermitian defect {_hermitian_defect(c):.3e} "
                f"exceeds {HERMITIAN_RTOL:.0e}")

    def copy_with(self, coeffs: np.ndarray, is_real: bool | None = None) -> "SpectralField":
        return SpectralField(self.grid, coeffs,
                             self.is_real if is_real is None else is_real)


def to_spectral(samples: np.ndarray, grid: TorusGrid) -> SpectralField:
    """Forward transform: c_k = (1/M) sum_n samples_n e^{-i xi_k x_n}."""
    s = np.asarray(samples)
    if s.shape != (grid.mode_count,):
        raise DimensionError(
            f"sample array has shape {s.shape}, grid wants ({grid.mode_count},)")
    m = grid.mode_count
    if np.iscomplexobj(s):
        return SpectralField(grid, np.fft.fft(s) / m, is_real=False)
    return SpectralField(grid, hermitian_full(band_half(s, grid, m // 2), grid))


def from_spectral(field: SpectralField) -> np.ndarray:
    """Inverse transform to physical samples; real (checked) if field.is_real."""
    samples = np.fft.ifft(field.coeffs) * field.grid.mode_count
    if not field.is_real:
        return samples
    scale = max(1.0, float(np.max(np.abs(samples.real))))
    residue = float(np.max(np.abs(samples.imag))) / scale
    if residue > 1e-10:
        raise SymmetryError(f"imaginary residue {residue:.3e} on a real field")
    return samples.real


def l2_norm(field: SpectralField) -> float:
    """||f||_{L^2(dx)} = (lam * sum_k |c_k|^2)^{1/2} (Parseval on the lattice)."""
    return float(np.sqrt(field.grid.period * np.sum(np.abs(field.coeffs) ** 2)))


def fractional_symbol(grid: TorusGrid, alpha: float) -> np.ndarray:
    """Multiplier |xi_k|^{2*alpha}, fft order."""
    check_alpha(alpha)
    return np.abs(grid.frequencies) ** (2.0 * alpha)


def apply_semigroup(field: SpectralField, t: float, alpha: float) -> SpectralField:
    """S_alpha(t): multiply by e^{-t|xi|^{2*alpha}}; t >= 0."""
    if t < 0.0:
        raise DomainError(f"semigroup time must be >= 0, got {t}")
    mult = np.exp(-t * fractional_symbol(field.grid, alpha))
    return field.copy_with(field.coeffs * mult)


def dealiased_square(field: SpectralField) -> SpectralField:
    """Pointwise square with the 2/3 rule applied before and after.

    Modes |k| > M/3 are zeroed on input and output, so the retained band
    carries the exact convolution of the retained input band.
    """
    c = dealiased_product_coeffs(field.coeffs, field.coeffs, field.grid,
                                 real_inputs=field.is_real)
    return field.copy_with(c, is_real=field.is_real)


def dealiased_product(u: SpectralField, v: SpectralField) -> SpectralField:
    """Pointwise product of two fields on one grid, 2/3-rule dealiased."""
    if u.grid != v.grid:
        raise DimensionError("fields live on different grids")
    real = u.is_real and v.is_real
    c = dealiased_product_coeffs(u.coeffs, v.coeffs, u.grid, real_inputs=real)
    return SpectralField(u.grid, c, is_real=real)


def band_half(samples: np.ndarray, grid: TorusGrid, k_max: int,
              out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> np.ndarray:
    """Modes 0..k_max of real samples (last axis): rfft / M, truncated.

    work, if given, receives the whole rfft (last axis M/2+1).
    """
    spectrum = np.fft.rfft(samples, out=work)
    return np.divide(spectrum[..., :k_max + 1], grid.mode_count, out=out)


def band_samples(h: np.ndarray, grid: TorusGrid,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Real samples (last axis) of the Hermitian field whose modes 0.. are h.

    Modes beyond len(h) are zero; the imaginary parts of the self-mirrored
    modes 0 and M/2 are dropped, as in hermitian_full.
    """
    return np.fft.irfft(h, n=grid.mode_count, norm="forward", out=out)


def hermitian_full(h: np.ndarray, grid: TorusGrid,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Full fft-order spectrum (last axis) with modes 0..len(h)-1 equal to h,
    their mirrors equal to conj(h) and every other mode zero.

    Modes 0 and M/2 are their own mirrors and keep only their real part, so
    the result is exactly Hermitian.
    """
    m, n = grid.mode_count, h.shape[-1]
    if out is None:
        out = np.zeros(h.shape[:-1] + (m,), dtype=np.complex128)
    else:
        out[..., n:m - n + 1] = 0.0
    out[..., :n] = h
    out[..., m - n + 1:] = np.conj(h[..., :0:-1])
    out[..., 0] = out[..., 0].real
    if n > m // 2:
        out[..., m // 2] = out[..., m // 2].real
    return out


def cosine_samples(c: np.ndarray, grid: TorusGrid,
                   out: np.ndarray | None = None,
                   work: np.ndarray | None = None) -> np.ndarray:
    """M/2 real samples (last axis) of the even field whose cosine
    coefficients on modes 0..len(c)-1 (at most M/2) are the real c.

    The samples are f(x_j) at x_j = (j + 1/2) lam/M in Makhoul's order:
    entry j is sample 2j and entry M/2-1-j is sample 2j+1, j < M/4. Modes
    beyond len(c) are zero. work, if given, holds the M/4+1 complex
    inputs of the irfft.
    """
    n, n_c = grid.mode_count // 2, c.shape[-1]
    h = n // 2
    if work is None:
        work = np.empty(c.shape[:-1] + (h + 1,), dtype=np.complex128)
    # z_k = e^{i pi k/M} (c_k - i c_{n-k}), k = 0..n/2; c_n and c_{>=n_c} are 0
    r = min(n_c, h + 1)
    work.real[..., :r] = c[..., :r]
    work.real[..., r:] = 0.0
    lo = max(n - n_c + 1, 1)
    work.imag[..., :lo] = 0.0
    np.negative(c[..., n - lo:n - h - 1:-1], out=work.imag[..., lo:])
    np.multiply(work, grid.cosine_twiddles[1], out=work)
    return np.fft.irfft(work, n=n, norm="forward", out=out)


def cosine_band(samples: np.ndarray, grid: TorusGrid, k_max: int,
                out: np.ndarray | None = None,
                work: np.ndarray | None = None) -> np.ndarray:
    """Cosine coefficients on modes 0..k_max (k_max < M/2) of the M/2
    samples (last axis) in cosine_samples' grid and order, divided by M
    as band_half divides: the real modes c_k of the even field.

    work, if given, receives the whole rfft (last axis M/4+1).
    """
    n = grid.mode_count // 2
    h = n // 2
    z = np.fft.rfft(samples, norm="forward", out=work)
    np.multiply(z, grid.cosine_twiddles[0], out=z)
    if out is None:
        out = np.empty(samples.shape[:-1] + (k_max + 1,))
    # c_k = Re(w_k z_k) and c_{n-k} = -Im(w_k z_k), k = 0..n/2
    r = min(k_max, h)
    out[..., :r + 1] = z.real[..., :r + 1]
    np.negative(z.imag[..., h - 1:n - k_max - 1:-1], out=out[..., h + 1:])
    return out


def _zero_aliased(c: np.ndarray, m: int) -> np.ndarray:
    c[..., m // 3 + 1:m - m // 3] = 0.0  # exactly the modes |k| > M/3
    return c


class ComplexBasis:
    """A complex field's dealiased band: the full fft-order spectrum and M
    complex samples, through full complex transforms. The coefficients of
    a march need no widening."""

    coeff_dtype = sample_dtype = np.complex128

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        self.width = self.n_samples = grid.mode_count

    def band(self, full):
        return full

    def samples(self, c, out=None, work=None):
        if out is None:
            out = np.array(c, dtype=np.complex128)
        else:
            out[...] = c
        _zero_aliased(out, self.grid.mode_count)
        return np.fft.ifft(out, norm="forward", out=out)

    def coeffs(self, samples, out=None, work=None):
        out = np.fft.fft(samples, norm="forward", out=out)
        return _zero_aliased(out, self.grid.mode_count)

    def widen(self, c, out=None):
        if out is None:
            return c
        out[...] = c
        return out

    def workspace(self):
        return None


class HalfBasis:
    """A real field's dealiased band: modes 0..M/3 of the rfft half and M
    real samples, widened with the conjugate mirror."""

    coeff_dtype, sample_dtype = np.complex128, np.float64

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        self.width = grid.mode_count // 3 + 1
        self.n_samples = grid.mode_count

    def band(self, full):
        return full[..., :self.width]

    def samples(self, c, out=None, work=None):
        return band_samples(c, self.grid, out=out)

    def coeffs(self, samples, out=None, work=None):
        return band_half(samples, self.grid, self.width - 1, out=out,
                         work=work)

    def widen(self, c, out=None):
        return hermitian_full(c, self.grid, out=out)

    def workspace(self):
        return np.empty(self.grid.mode_count // 2 + 1, dtype=np.complex128)


class CosineBasis(HalfBasis):
    """An even real field's dealiased band: real cosine coefficients on
    modes 0..M/3 and M/2 samples on the half-shifted grid, widened as a
    half whose mirror is itself."""

    coeff_dtype = np.float64

    def __init__(self, grid: TorusGrid):
        super().__init__(grid)
        self.n_samples = grid.mode_count // 2

    def band(self, full):
        return full[..., :self.width].real

    def samples(self, c, out=None, work=None):
        return cosine_samples(c, self.grid, out=out, work=work)

    def coeffs(self, samples, out=None, work=None):
        return cosine_band(samples, self.grid, self.width - 1, out=out,
                           work=work)

    def workspace(self):
        return np.empty(self.grid.mode_count // 4 + 1, dtype=np.complex128)


_EVEN_PROBE = 8  # low modes _exactly_even looks at before the whole spectrum


def _exactly_even(c: np.ndarray) -> bool:
    # real coefficients with c_{-k} == c_k bit for bit, on every row. The
    # probe is part of the full test, so it only turns a generic field
    # down before the whole spectrum is read; the answer is the same.
    p = min(_EVEN_PROBE, c.shape[-1])
    head = c[..., :p]
    if (np.any(head.imag) or not np.array_equal(
            head.real[..., 1:], c.real[..., :c.shape[-1] - p:-1])):
        return False
    return (not np.any(c.imag)
            and np.array_equal(c.real[..., 1:], c.real[..., :0:-1]))


def field_basis(grid: TorusGrid, real: bool, *coeffs: np.ndarray):
    """The basis of a product of fields with these full fft-order spectra:
    cosine when they are real and every one is exactly even, the rfft half
    when they are real, complex otherwise."""
    if not real:
        return ComplexBasis(grid)
    if all(_exactly_even(c) for c in coeffs):
        return CosineBasis(grid)
    return HalfBasis(grid)


def dealiased_product_coeffs(cu: np.ndarray, cv: np.ndarray, grid: TorusGrid,
                             real_inputs: bool = True) -> np.ndarray:
    """Raw-array core of the dealiased product (no field validation), in
    the basis field_basis picks for the inputs."""
    basis = field_basis(grid, real_inputs, *((cu,) if cv is cu else (cu, cv)))
    a = basis.samples(basis.band(cu))
    b = a if cv is cu else basis.samples(basis.band(cv))
    return basis.widen(basis.coeffs(a * b))


def pair_with_test_function(field: SpectralField,
                            ghat: Callable[[np.ndarray], np.ndarray]) -> float:
    """Lattice pairing sum_k c_k ghat(xi_k); returns the real part.

    Riemann sum of (1/2pi) int fhat(xi) ghat(xi) dxi = int f g dx for real
    even test profiles ghat.
    """
    vals = np.asarray(ghat(field.grid.frequencies), dtype=np.complex128)
    if vals.shape != field.coeffs.shape:
        raise DimensionError("test profile returned wrong shape")
    total = np.sum(field.coeffs * vals)
    return float(total.real)
