"""Spectral representation of periodic fields on large tori.

A field on the torus of period lam is carried by its Fourier coefficients
c_k (numpy fft order, k in {-M/2, ..., M/2-1}) at frequencies xi_k = 2*pi*k/lam.
The dictionary to the continuum objects is

    fhat(xi_k) = lam * c_k,        ||f||_{L^2(dx)}^2 = lam * sum_k |c_k|^2,

so integrals int dxi become (2*pi/lam) * sum_k and every norm below is the
lattice Riemann sum of its continuum counterpart.

Real fields take a real-spectrum path through three primitives on the
nonnegative modes 0..k_max (the rfft half): band_half (real samples to
modes), band_samples (modes to real samples; a short half is zero-padded,
which is the 2/3-rule mask when it stops at M/3) and hermitian_full (a half
widened to the full fft-order spectrum with its conjugate mirror). Complex
fields use full complex transforms. The raw-array primitives take a
numpy-style out= (band_half also a work= for the whole rfft), so a march
can reuse its buffers; the values do not depend on it.
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

    @property
    def spacing(self) -> float:
        """Frequency spacing 2*pi/lam."""
        return 2.0 * np.pi / self.period

    @property
    def max_frequency(self) -> float:
        """pi*M/lam, attained by the k = -M/2 mode."""
        return np.pi * self.mode_count / self.period


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


def _zero_aliased(c: np.ndarray, m: int) -> np.ndarray:
    c[..., m // 3 + 1:m - m // 3] = 0.0  # exactly the modes |k| > M/3
    return c


def dealiased_samples(coeffs: np.ndarray, grid: TorusGrid, real: bool,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Samples of the 2/3-rule truncated coeffs (last axis).

    When real, only modes 0..M/3 are read (so coeffs may be that half alone)
    and the samples are real.
    """
    m = grid.mode_count
    if real:
        return band_samples(coeffs[..., :m // 3 + 1], grid, out=out)
    if out is None:
        out = np.array(coeffs, dtype=np.complex128)
    else:
        out[...] = coeffs
    return np.fft.ifft(_zero_aliased(out, m), norm="forward", out=out)


def dealiased_coeffs(samples: np.ndarray, grid: TorusGrid,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Coefficients of samples (last axis) with modes |k| > M/3 zeroed."""
    m = grid.mode_count
    if np.iscomplexobj(samples):
        return _zero_aliased(np.fft.fft(samples, norm="forward", out=out), m)
    return hermitian_full(band_half(samples, grid, m // 3), grid, out=out)


def dealiased_product_coeffs(cu: np.ndarray, cv: np.ndarray, grid: TorusGrid,
                             real_inputs: bool = True) -> np.ndarray:
    """Raw-array core of the dealiased product (no field validation)."""
    a = dealiased_samples(cu, grid, real_inputs)
    b = a if cv is cu else dealiased_samples(cv, grid, real_inputs)
    return dealiased_coeffs(a * b, grid)


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
