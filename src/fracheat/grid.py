"""Spectral representation of periodic fields on large tori.

A field on the torus of period lam is carried by its Fourier coefficients
c_k (numpy fft order, k in {-M/2, ..., M/2-1}) at frequencies xi_k = 2*pi*k/lam.
The dictionary to the continuum objects is

    fhat(xi_k) = lam * c_k,        ||f||_{L^2(dx)}^2 = lam * sum_k |c_k|^2,

so integrals int dxi become (2*pi/lam) * sum_k and every norm below is the
lattice Riemann sum of its continuum counterpart.

Every field is real: its coefficients are Hermitian, c_{-k} = conj(c_k).
Every FFT in the package runs in a method of one of two bases, and none
is a complex FFT.

- HalfBasis(grid, width), for any field: modes 0..width-1 of the rfft
  half (width M/3 + 1 by default, the 2/3 band) and M real samples.
  coeffs is the rfft divided by M and truncated to the width; samples is
  the irfft, zero-padding a short half (the 2/3 rule when it stops at
  M/3); widen gives the full fft-order spectrum with the conjugate
  mirror. to_spectral and from_spectral use the whole half, width
  M/2 + 1.
- CosineBasis(grid, width), for fields whose coefficients are exactly
  even (real, and c_{-k} == c_k bit for bit): real cosine coefficients
  on modes 0..width-1 and M/2 real samples, through Makhoul's
  DCT-II/DCT-III pair over one length-M/2 rfft or irfft and one twiddle
  multiply (the twiddles are built once per basis, when first used). The
  samples sit on the half-shifted grid x_j = (j + 1/2) lam/M, j < M/2
  (the other half is their mirror), in Makhoul's permuted order. Only
  pointwise products read them, and the 2/3-rule product is exact on any
  shifted grid, so neither the shift nor the order is undone.

field_basis picks a product's basis from the symmetry of the inputs
alone; the basis's product multiplies two bands. samples, coeffs and
product take a numpy-style out= and a work= for the half-length complex
buffer of their transform (the half's samples ignore it), and widen an
out=, so callers can reuse buffers; the values do not depend on them.
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
        if not 1.0 <= self.period < np.inf:
            raise DomainError(
                f"period must be finite and >= 1, got {self.period}")
        m = self.mode_count
        if m < 4 or (m & (m - 1)) != 0:
            raise DomainError(f"mode_count must be a power of two >= 4, got {m}")

    @cached_property
    def frequencies(self) -> np.ndarray:
        """xi_k = 2*pi*k/lam, fft order, cached: the whole-spectrum form of
        frequencies_at."""
        return self.frequencies_at(slice(0, self.mode_count))

    def frequencies_at(self, index) -> np.ndarray:
        """xi_k = 2*pi*k/lam at the fft indices index only, equal bit for
        bit to frequencies[index]; index i holds the mode k = i for
        i < M/2 and k = i - M otherwise.

        index is a slice inside [0, M), as support_windows returns, or an
        integer array of fft indices. A windowed reader builds its modes
        alone, never the whole lattice.
        """
        m = self.mode_count
        if isinstance(index, slice):
            start, stop, step = index.indices(m)
            if step != 1:
                raise IndexError("need a unit-step slice")
            # integers are exact in float64, so k - M and the product
            # round as they do from the integer k
            xi = np.arange(start, stop, dtype=np.float64)
            xi[max(m // 2 - start, 0):] -= m
        else:
            i = np.asarray(index)
            if i.size and (i.dtype.kind not in "iu"
                           or i.min() < 0 or i.max() >= m):
                raise IndexError(f"need integer fft indices in [0, {m})")
            xi = i.astype(np.float64)
            xi[i >= m // 2] -= m
        xi *= self.spacing
        return xi

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


def _values_at(pieces, a: int, b: int) -> np.ndarray:
    """The coefficients at fft indices a..b-1 of a field given as disjoint
    (window, values) pieces, 0 off them. A view of one piece's values when
    that piece holds the whole range (always so for a dense field, whose
    one piece may carry leading row axes), else a fresh array of length
    b - a."""
    for sl, v in pieces:
        if sl.start <= a and b <= sl.stop:
            return v[..., a - sl.start:b - sl.start]
    out = np.zeros(b - a, dtype=np.complex128)
    for sl, v in pieces:
        lo, hi = max(sl.start, a), min(sl.stop, b)
        if lo < hi:
            out[lo - a:hi - a] = v[lo - sl.start:hi - sl.start]
    return out


def _hermitian_defect(pieces, m: int) -> float:
    """max_k |c_k - conj(c_{-k})| / max(1, max_k |c_k|) of the M = m mode
    field given as disjoint (window, values) pieces, 0 off them.

    Both maxima are taken over the pieces alone, which gives the same value
    as the whole spectrum: a mode off the pieces is 0, and its pair with a
    mode k on them is |c_k - conj(c_{-k})| read from mode k.
    """
    gap = scale = 0.0
    for sl, v in pieces:
        gap = max(gap, _mirror_gap(pieces, m, sl.start, v))
        scale = max(scale, float(np.max(np.abs(v), initial=0.0)))
    return gap / max(1.0, scale)


def _mirror_gap(pieces, m: int, a: int, v: np.ndarray) -> float:
    # max |c_k - conj(c_{-k})| over the fft indices a.. that v holds; mode
    # 0 is its own mirror, and |c0 - conj(c0)| = 2|Im c0|
    b = a + v.shape[0]
    gap = 0.0
    if a == 0:
        gap, a, v = 2.0 * abs(v[0].imag), 1, v[1:]
    if a < b:
        mirror = _values_at(pieces, m - b + 1, m - a + 1)
        gap = max(gap, float(np.max(np.abs(v - np.conj(mirror[::-1])))))
    return gap


class SpectralField:
    """Fourier coefficients of one real field, fft order, complex128.

    A field is held as pieces: disjoint (window, values) pairs, sorted by
    window start, where window is a unit-step fft-order slice and every
    mode off the windows is 0. SpectralField(grid, coeffs) is the dense
    field, the single piece [0, M) whose values are its coeffs array, not
    a copy. SpectralField.windowed(grid, pieces) is a field that lives on
    a few windows: it allocates only their modes, and the Hermitian check,
    the Besov block sums and the test-function pairing read its pieces
    alone. Its dense coeffs are built from the pieces the first time a
    reader asks for them, and then kept. Every field made from new
    coefficients (copy_with, the semigroup, the products, to_spectral) is
    dense, so pieces can never outlive the coefficients they were made
    for.

    Construction enforces Hermitian symmetry c_{-k} = conj(c_k) to 1e-12
    relative, and finite values.
    """

    def __init__(self, grid: TorusGrid, coeffs: np.ndarray):
        c = np.asarray(coeffs, dtype=np.complex128)
        m = grid.mode_count
        if c.shape != (m,):
            raise DimensionError(
                f"coefficient array has shape {c.shape}, grid wants ({m},)")
        self._settle(grid, ((slice(0, m), c),))
        self.__dict__["coeffs"] = c

    @classmethod
    def windowed(cls, grid: TorusGrid, pieces) -> "SpectralField":
        """The field sum_i zero-extended values_i, from (window, values)
        pairs. Overlapping windows are joined, and their values added
        into zeros in the order given, so on a mode that only one piece
        reaches with a nonzero value that value is kept exactly (0 + v)."""
        m = grid.mode_count
        pieces = tuple(pieces)
        for sl, v in pieces:
            if (not isinstance(sl, slice) or sl.step not in (None, 1)
                    or not 0 <= sl.start <= sl.stop <= m):
                raise IndexError(f"need unit-step windows in [0, {m})")
            if np.shape(v) != (sl.stop - sl.start,):
                raise DimensionError(
                    f"piece values have shape {np.shape(v)}, window "
                    f"{sl.start}:{sl.stop} wants ({sl.stop - sl.start},)")
        joined = []
        for w in _merged(sl for sl, _ in pieces):
            acc = np.zeros(w.stop - w.start, dtype=np.complex128)
            for sl, v in pieces:
                if w.start <= sl.start < w.stop:
                    acc[sl.start - w.start:sl.stop - w.start] += v
            joined.append((w, acc))
        field = cls.__new__(cls)
        field._settle(grid, tuple(joined))
        return field

    def _settle(self, grid: TorusGrid, pieces: tuple) -> None:
        for _, v in pieces:
            if not np.all(np.isfinite(v.view(np.float64))):
                raise DomainError("non-finite coefficient")
        defect = _hermitian_defect(pieces, grid.mode_count)
        if defect > HERMITIAN_RTOL:
            raise SymmetryError(f"Hermitian defect {defect:.3e} exceeds "
                                f"{HERMITIAN_RTOL:.0e}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "pieces", pieces)

    def __setattr__(self, name, value):
        raise AttributeError(f"SpectralField is immutable; cannot set {name}")

    @cached_property
    def coeffs(self) -> np.ndarray:
        """The dense spectrum, fft order: the pieces zero-extended."""
        return _values_at(self.pieces, 0, self.grid.mode_count)

    def copy_with(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, coeffs)


def _merged(windows) -> tuple:
    # fft-order slices sorted by start, with overlapping ones joined, so
    # that every mode lies in at most one; empty slices are dropped
    out = []
    for sl in sorted((w for w in windows if w.start < w.stop),
                     key=lambda w: w.start):
        if out and sl.start <= out[-1].stop:
            out[-1] = slice(out[-1].start, max(out[-1].stop, sl.stop))
        else:
            out.append(slice(sl.start, sl.stop))
    return tuple(out)


def to_spectral(samples: np.ndarray, grid: TorusGrid) -> SpectralField:
    """Forward transform of real samples:
    c_k = (1/M) sum_n samples_n e^{-i xi_k x_n}."""
    s = np.asarray(samples)
    if s.shape != (grid.mode_count,):
        raise DimensionError(
            f"sample array has shape {s.shape}, grid wants ({grid.mode_count},)")
    if np.iscomplexobj(s):
        raise SymmetryError(f"samples must be real, got {s.dtype}")
    basis = HalfBasis(grid, grid.mode_count // 2 + 1)
    return SpectralField(grid, basis.widen(basis.coeffs(s)))


def from_spectral(field: SpectralField) -> np.ndarray:
    """Inverse transform to the M real samples f(x_n), read from the
    field's rfft half (the field is Hermitian, checked when it was built);
    a windowed field is not made dense."""
    width = field.grid.mode_count // 2 + 1
    return HalfBasis(field.grid, width).samples(
        _values_at(field.pieces, 0, width))


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
    return dealiased_product(field, field)


def dealiased_product(u: SpectralField, v: SpectralField) -> SpectralField:
    """Pointwise product of two fields on one grid, 2/3-rule dealiased."""
    if u.grid != v.grid:
        raise DimensionError("fields live on different grids")
    return u.copy_with(dealiased_product_coeffs(u.coeffs, v.coeffs, u.grid))


class HalfBasis:
    """A real field's band in the rfft half: modes 0..width-1 (width M/3 + 1
    by default, the 2/3 band) and M real samples, widened with the
    conjugate mirror."""

    coeff_dtype, sample_dtype = np.complex128, np.float64

    def __init__(self, grid: TorusGrid, width: int | None = None):
        self.grid = grid
        self.width = grid.mode_count // 3 + 1 if width is None else width
        self.n_samples = grid.mode_count

    def band(self, full):
        return full[..., :self.width]

    def samples(self, c, out=None, work=None):
        """Real samples (last axis) of the Hermitian field whose modes 0..
        are c. Modes beyond len(c) are zero, which is the 2/3 rule when c
        stops at M/3; the imaginary parts of the self-mirrored modes 0 and
        M/2 are dropped, as in widen."""
        return np.fft.irfft(c, n=self.grid.mode_count, norm="forward",
                            out=out)

    def coeffs(self, samples, out=None, work=None):
        """Modes 0..width-1 of real samples (last axis): rfft / M,
        truncated. work, if given, receives the whole rfft (last axis
        M/2+1)."""
        spectrum = np.fft.rfft(samples, out=work)
        return np.divide(spectrum[..., :self.width], self.grid.mode_count,
                         out=out)

    def widen(self, c, out=None):
        """Full fft-order spectrum (last axis) with modes 0..len(c)-1 equal
        to c, their mirrors equal to conj(c) and every other mode zero.

        Modes 0 and M/2 are their own mirrors and keep only their real
        part, so the result is exactly Hermitian.
        """
        m, n = self.grid.mode_count, c.shape[-1]
        if out is None:
            out = np.zeros(c.shape[:-1] + (m,), dtype=np.complex128)
        else:
            out[..., n:m - n + 1] = 0.0
        out[..., :n] = c
        out[..., m - n + 1:] = np.conj(c[..., :0:-1])
        out[..., 0] = out[..., 0].real
        if n > m // 2:
            out[..., m // 2] = out[..., m // 2].real
        return out

    def product(self, a, b, out=None, work=None, samples=(None, None)):
        """Band of the 2/3-rule product of the fields whose bands are a and
        b (b may be a), multiplied in place into the samples of a; samples
        holds out= arrays for the two (the second unused when b is a)."""
        x = self.samples(a, out=samples[0], work=work)
        y = x if b is a else self.samples(b, out=samples[1], work=work)
        return self.coeffs(np.multiply(x, y, out=x), out=out, work=work)

    def workspace(self):
        return np.empty(self.grid.mode_count // 2 + 1, dtype=np.complex128)


class CosineBasis(HalfBasis):
    """An even real field's band: real cosine coefficients on modes
    0..width-1 (width at most M/2) and M/2 samples on the half-shifted
    grid, widened as a half whose mirror is itself."""

    coeff_dtype = np.float64

    def __init__(self, grid: TorusGrid, width: int | None = None):
        super().__init__(grid, width)
        self.n_samples = grid.mode_count // 2

    @cached_property
    def twiddles(self) -> tuple:
        """(e^{-i pi k/M}, e^{i pi k/M}) for k = 0..M/4."""
        w = np.exp((-1j * np.pi / self.grid.mode_count)
                   * np.arange(self.grid.mode_count // 4 + 1))
        return w, np.conj(w)

    def band(self, full):
        return full[..., :self.width].real

    def samples(self, c, out=None, work=None):
        """M/2 real samples (last axis) of the even field whose cosine
        coefficients on modes 0..len(c)-1 (at most M/2) are the real c.

        The samples are f(x_j) at x_j = (j + 1/2) lam/M in Makhoul's order:
        entry j is sample 2j and entry M/2-1-j is sample 2j+1, j < M/4.
        Modes beyond len(c) are zero. work, if given, holds the M/4+1
        complex inputs of the irfft.
        """
        n, n_c = self.grid.mode_count // 2, c.shape[-1]
        h = n // 2
        if work is None:
            work = np.empty(c.shape[:-1] + (h + 1,), dtype=np.complex128)
        # z_k = e^{i pi k/M} (c_k - i c_{n-k}), k = 0..n/2; c_n and
        # c_{>=n_c} are 0
        r = min(n_c, h + 1)
        work.real[..., :r] = c[..., :r]
        work.real[..., r:] = 0.0
        lo = max(n - n_c + 1, 1)
        work.imag[..., :lo] = 0.0
        np.negative(c[..., n - lo:n - h - 1:-1], out=work.imag[..., lo:])
        np.multiply(work, self.twiddles[1], out=work)
        return np.fft.irfft(work, n=n, norm="forward", out=out)

    def coeffs(self, samples, out=None, work=None):
        """Cosine coefficients on modes 0..width-1 of the M/2 samples (last
        axis) in samples' grid and order, divided by M as the rfft half
        divides: the real modes c_k of the even field. work, if given,
        receives the whole rfft (last axis M/4+1).
        """
        n = self.grid.mode_count // 2
        h, k_max = n // 2, self.width - 1
        z = np.fft.rfft(samples, norm="forward", out=work)
        np.multiply(z, self.twiddles[0], out=z)
        if out is None:
            out = np.empty(samples.shape[:-1] + (self.width,))
        # c_k = Re(w_k z_k) and c_{n-k} = -Im(w_k z_k), k = 0..n/2
        r = min(k_max, h)
        out[..., :r + 1] = z.real[..., :r + 1]
        np.negative(z.imag[..., h - 1:n - k_max - 1:-1],
                    out=out[..., h + 1:])
        return out

    def workspace(self):
        return np.empty(self.grid.mode_count // 4 + 1, dtype=np.complex128)


def _exactly_even(pieces, m: int) -> bool:
    """Whether the M = m mode field given as disjoint (window, values)
    pieces, 0 off them, has real coefficients with c_{-k} == c_k bit for
    bit (on every row, for a dense piece with leading row axes)."""
    for sl, v in pieces:
        a, b = sl.start, sl.start + v.shape[-1]
        if np.any(v.imag):
            return False
        if a == 0:  # mode 0 is its own mirror
            a, v = 1, v[..., 1:]
        if a < b and not np.array_equal(v.real, _values_at(
                pieces, m - b + 1, m - a + 1).real[..., ::-1]):
            return False
    return True


def field_basis(grid: TorusGrid, *spectra):
    """The basis of a product of real fields: cosine when every one is
    exactly even, the rfft half otherwise. Each spectrum is a field's
    pieces, or a full fft-order array (any leading axes), which is read as
    its single piece [0, M)."""
    m = grid.mode_count
    if all(_exactly_even(((slice(0, m), s),) if isinstance(s, np.ndarray)
                         else s, m) for s in spectra):
        return CosineBasis(grid)
    return HalfBasis(grid)


def dealiased_product_coeffs(cu: np.ndarray, cv: np.ndarray,
                             grid: TorusGrid, out=None) -> np.ndarray:
    """Raw-array core of the dealiased product of real fields (no field
    validation) in the basis field_basis picks, widened into out if given."""
    basis = field_basis(grid, *((cu,) if cv is cu else (cu, cv)))
    a = basis.band(cu)
    return basis.widen(basis.product(a, a if cv is cu else basis.band(cv)),
                       out=out)


def pair_with_test_function(field: SpectralField,
                            ghat: Callable[[np.ndarray], np.ndarray]) -> float:
    """Lattice pairing sum_k c_k ghat(xi_k); returns the real part.

    Riemann sum of (1/2pi) int fhat(xi) ghat(xi) dxi = int f g dx for real
    even test profiles ghat. ghat is elementwise: it is evaluated, and the
    sum taken, on each of the field's pieces in turn.
    """
    total = 0j
    for sl, v in field.pieces:
        vals = np.asarray(ghat(field.grid.frequencies_at(sl)),
                          dtype=np.complex128)
        if vals.shape != v.shape:
            raise DimensionError("test profile returned wrong shape")
        total += np.sum(v * vals)
    return float(total.real)
