"""Littlewood-Paley analysis: dyadic blocks, Besov / Sobolev / modulation norms.

The dyadic bump is glued from g(x) = e^{-1/x}: eta = 1 on [-1,1], supported in
[-2,2], strictly decreasing in |xi| between; phi(xi) = eta(xi/2) - eta(xi).
Block j >= 0 multiplies by phi(xi/2^j), whose support is 2^j <= |xi| <= 2^{j+2}
with phi(2) = 1; block -1 multiplies by eta. The blocks telescope, so
eta(xi) + sum_{j=0}^{J} phi(xi/2^j) = eta(xi/2^{J+1}) = 1 for |xi| <= 2^{J+1},
which covers the whole grid band once J = floor(log2(max|xi_k|)).

The partition is the grid's: make_partition(grid) is the only one a field
on that grid has, so the norms and lp_block take none and build it from
the field's grid. It keeps no values: every reader splits its modes by
octave (_octave_split), one eta per mode. A mode in 2^m <= |xi| < 2^{m+1}
lies in blocks m-1 and m alone, carrying e = eta(xi/2^m) and 1 - e, bit
for bit phi(xi/2^j) as xi/2^m is exact; so multiplier(j) is the dense
block. The block table behind the Besov norms and x_norm sums |c|^2 e^2
and |c|^2 (1 - e)^2 over each run of one octave of a field's pieces, so a
windowed seed's norm evaluates the bump on its support alone.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ._threads import run_two
from .errors import DegenerateWindowError, DomainError, ResolutionError
from .grid import HalfBasis, SpectralField, TorusGrid, _values_at, check_alpha
from .trajectory import Trajectory


def eta(xi) -> np.ndarray:
    """Even C-infinity cutoff: 1 on [-1,1], 0 outside (-2,2), glue between."""
    a = np.abs(np.asarray(xi, dtype=float))
    out = np.ones_like(a)
    out[a >= 2.0] = 0.0
    mid = (a > 1.0) & (a < 2.0)
    am = a[mid]
    g_hi = np.exp(-1.0 / (2.0 - am))  # vanishes to all orders at |xi| = 2
    g_lo = np.exp(-1.0 / (am - 1.0))  # vanishes to all orders at |xi| = 1
    out[mid] = g_hi / (g_hi + g_lo)
    return out


def phi_profile(xi) -> np.ndarray:
    """Annulus bump phi(xi) = eta(xi/2) - eta(xi); support 1 <= |xi| <= 4, phi(2) = 1."""
    xi = np.asarray(xi, dtype=float)
    return eta(xi / 2.0) - eta(xi)


def _octave_split(xi: np.ndarray) -> tuple:
    """(m, e) per mode: 2^m <= |xi| < 2^{m+1} and e = eta(xi/2^m), or m = 0
    and e = 1 for |xi| < 1. The one place this module evaluates the bump."""
    mant, ex = np.frexp(np.abs(xi))  # |xi| = (2 mant) 2^{ex-1}
    return np.maximum(ex - 1, 0), np.where(ex > 0, eta(2.0 * mant), 1.0)


@dataclass(frozen=True)
class DyadicPartition:
    """The dyadic blocks j = -1 .. j_max of one grid."""

    grid: TorusGrid
    j_max: int

    def windows(self, j: int) -> tuple:
        """Block j as ((slice, values), ...) over its support windows."""
        block = self.multiplier(j)
        edges = (0.0, 2.0) if j == -1 else (2.0**j, 2.0 ** (j + 2))
        return tuple((sl, block[sl])
                     for sl in self.grid.support_windows(*edges))

    def multiplier(self, j: int) -> np.ndarray:
        """Block j on the whole grid, fft order; a fresh array per call."""
        if j < -1:
            raise DomainError(f"block index must be >= -1, got {j}")
        if j > self.j_max:
            raise ResolutionError(
                f"block {j} exceeds j_max = {self.j_max} for this grid band")
        m, e = _octave_split(
            self.grid.frequencies_at(slice(0, self.grid.mode_count)))
        return np.where(m == j + 1, e, np.where(m == j, 1.0 - e, 0.0))

    @property
    def block_range(self) -> range:
        return range(-1, self.j_max + 1)


def make_partition(grid: TorusGrid) -> DyadicPartition:
    """The grid's partition: blocks up to j_max = floor(log2 max|xi_k|)."""
    j_max = max(-1, int(np.floor(np.log2(grid.max_frequency))))
    return DyadicPartition(grid, j_max)


def lp_block(u: SpectralField, j: int) -> SpectralField:
    """Delta_j u: multiply the spectrum by the block-j bump."""
    return u.copy_with(u.coeffs * make_partition(u.grid).multiplier(j))


@dataclass(frozen=True)
class NormReport:
    """One computed norm plus its per-block magnitudes (j = -1 upward)."""

    norm_kind: str
    s: float | None
    q: float | None
    alpha: float | None
    value: float
    blocks: tuple


def _check_q(q: float) -> float:
    q = float(q)
    if not (q >= 1.0):
        raise DomainError(f"summability index q must be >= 1 (or inf), got {q}")
    return q


def _weighted_report(kind: str, per_block: np.ndarray, s: float,
                     q: float) -> NormReport:
    # per_block holds a value per block, j = -1 up
    weighted = 2.0 ** (np.arange(-1, per_block.size - 1) * s) * per_block
    if q == np.inf:
        value = float(np.max(weighted))
    else:
        value = float(np.sum(weighted**q) ** (1.0 / q))
    return NormReport(kind, s, q, None, value, tuple(weighted))


_CHUNK = 2**15  # modes per octave split in the block table


def _block_l2_table(index: np.ndarray, values: np.ndarray,
                    grid: TorusGrid) -> np.ndarray:
    """(n_blocks, n_nodes) table of ||Delta_j u(t_i)||_{L^2}, blocks
    j = -1 .. j_max, of the field equal to values (n_nodes, len(index)) at
    the fft indices index and 0 elsewhere. The modes are read _CHUNK at a
    time as runs of one octave m and consecutive indices (in fft order |xi|
    is monotone on each side of M/2). A run adds its sums of |c|^2 e^2 and
    |c|^2 (1 - e)^2 into the rows of blocks m-1 and m (row j+1 is block
    j; a spare row takes the 0 past j_max).
    """
    n_blocks = make_partition(grid).j_max + 2
    table = np.zeros((n_blocks + 1, values.shape[0]))
    mags = np.abs(values)
    np.square(mags, out=mags)
    for a in range(0, index.size, _CHUNK):
        i = index[a:a + _CHUNK]
        m, e = _octave_split(grid.frequencies_at(i))
        # a run ends at a gap in the indices: summing a seed's two mirror
        # windows as one run moves its norm by an ulp, which round-off-floor
        # records (dilation-check's residual) read as 1e-3 relative
        step = (m[1:] != m[:-1]) | (i[1:] != i[:-1] + 1)
        runs = np.flatnonzero(np.concatenate(([True], step)))
        part = mags[:, a:a + _CHUNK]
        lo = np.add.reduceat(part * (e * e), runs, axis=1)
        np.multiply(part, np.square(1.0 - e), out=part)
        np.add.at(table, m[runs], lo.T)
        np.add.at(table, m[runs] + 1, np.add.reduceat(part, runs, 1).T)
    return np.sqrt(grid.period * table[:n_blocks])


def besov_norm(u: SpectralField, s: float, q: float) -> NormReport:
    """B^{s,q} norm: l^q over j of 2^{js} ||Delta_j u||_{L^2}, summed on
    the field's pieces."""
    q = _check_q(q)
    pieces = u.pieces or ((slice(0, 0), np.zeros(0)),)  # a field of no modes
    index = np.concatenate([np.arange(sl.start, sl.stop) for sl, _ in pieces])
    values = np.concatenate([v for _, v in pieces])[None, :]
    table = _block_l2_table(index, values, u.grid)
    return _weighted_report("besov", table[:, 0], s, q)


def sobolev_norm(u: SpectralField, s: float) -> float:
    """H^s norm (lam sum (1+xi^2)^s |c_k|^2)^{1/2}."""
    xi = u.grid.frequencies
    w = (1.0 + xi**2) ** s
    return float(np.sqrt(u.grid.period * np.sum(w * np.abs(u.coeffs) ** 2)))


def _spacetime_report(table: np.ndarray, dt: float, p: float, s: float,
                      q: float) -> NormReport:
    if p == np.inf:
        per_block = table.max(axis=1)
    else:
        per_block = np.trapezoid(table**p, dx=dt, axis=1) ** (1.0 / p)
    kind = "Linf-t-besov" if p == np.inf else f"L{int(p)}-t-besov"
    return _weighted_report(kind, per_block, s, q)


def spacetime_besov_norm(traj: Trajectory, p: float, s: float,
                         q: float) -> NormReport:
    """Tilde norm: per block, L^p in time of ||Delta_j u(t)||_{L^2}, then
    2^{js}-weighted l^q over blocks.

    p in {1, 2}: composite trapezoid on the p-th power over the trajectory
    nodes; p = inf: max over nodes.
    """
    q = _check_q(q)
    if p not in (1, 2, np.inf):
        raise DomainError(f"time exponent p must be 1, 2, or inf, got {p}")
    table = _block_l2_table(np.arange(traj.grid.mode_count), traj.coeffs,
                            traj.grid)
    return _spacetime_report(table, traj.dt, p, s, q)


def x_norm(traj: Trajectory, s: float, q: float, alpha: float) -> float:
    """Work norm: Linf_t B^{s,q} + L2_t B^{s+alpha,q} over the trajectory;
    both parts read one block table."""
    check_alpha(alpha)
    q = _check_q(q)
    table = _block_l2_table(np.arange(traj.grid.mode_count), traj.coeffs,
                            traj.grid)
    a = _spacetime_report(table, traj.dt, np.inf, s, q)
    b = _spacetime_report(table, traj.dt, 2, s + alpha, q)
    return a.value + b.value


class _ModulationNorm:
    """modulation_norm of real fields given as rfft halves h, modes
    0..width-1: |h|^2 and the mirrors' masses, read from mode k, are summed
    in fft order into as many windows as the whole spectrum has (np.sum is
    pairwise, so the count matters), as for the widened half. One instance
    serves one thread: the weights are a buffer reused by every call."""

    def __init__(self, grid: TorusGrid, n_window: int, width: int):
        size = 2.0 ** float(n_window)
        if size < grid.spacing:
            raise DomainError(f"window width 2^{n_window} is below the "
                              f"frequency spacing {grid.spacing:.3e}")
        if size > grid.max_frequency:
            raise DegenerateWindowError(f"window width 2^{n_window} exceeds "
                                        f"the band {grid.max_frequency:.3e}")
        m = grid.mode_count
        self.n_mirror = min(width - 1, m - width)  # mode M/2 is its own mirror
        # the highest window holds mode M/2 - 1 and the lowest mode -M/2
        top, low = np.floor(grid.frequencies_at(slice(m // 2 - 1, m // 2 + 1))
                            / size).astype(np.int64)
        fft_index = np.r_[0:width, m - self.n_mirror:m]
        self.index = np.floor(grid.frequencies_at(fft_index) / size).astype(
            np.int64) - low
        self.n_windows = int(top - low) + 1
        self.period = grid.period
        self.weights = np.empty(width + self.n_mirror)

    def __call__(self, h: np.ndarray) -> float:
        w, n = self.weights, h.shape[-1]
        np.square(np.abs(h, out=w[:n]), out=w[:n])
        w[n:] = w[self.n_mirror:0:-1]
        mass = np.bincount(self.index, weights=w, minlength=self.n_windows)
        return float(np.sum(np.sqrt(self.period * mass)))


def modulation_norm(u: SpectralField, n_window: int) -> float:
    """(M_{2,1})_N norm with windows [m 2^N, (m+1) 2^N): sum over windows of
    the lattice L^2 mass (lam sum_{window} |c_k|^2)^{1/2}, on the rfft half."""
    width = u.grid.mode_count // 2 + 1
    return _ModulationNorm(u.grid, n_window, width)(
        _values_at(u.pieces, 0, width))


@dataclass(frozen=True)
class AlgebraReport:
    """Empirical product constant for the modulation algebra at one window size."""

    n_window: int
    n_pairs: int
    max_ratio: float
    c0: float


class _PairDraws:
    """n_pairs (2, M) draws from one generator, handed out in stream order
    under a lock, so the k-th pair any worker gets is the k-th draw."""

    def __init__(self, rng: np.random.Generator, n_pairs: int):
        self._rng = rng
        self._left = n_pairs
        self._lock = threading.Lock()

    def draw(self, out: np.ndarray) -> bool:
        """Fill out with the next pair; False once the pairs are used up."""
        with self._lock:
            if self._left <= 0:
                return False
            self._left -= 1
            self._rng.standard_normal(out=out)  # the same stream as two m-draws
            return True

    def stop(self) -> None:
        with self._lock:
            self._left = 0


def algebra_constant(grid: TorusGrid, n_window: int, n_pairs: int = 100,
                     seed: int = 0x5EED) -> AlgebraReport:
    """Estimate C0 in ||uv||_M <= C0 2^{N/2} ||u||_M ||v||_M.

    Draws seeded random real fields band-limited to |k| <= M/8 (so the product
    is an exact convolution under the 2/3 rule) and returns 1.1 x the largest
    observed ratio; the values are those of modulation_norm and
    dealiased_product on the full fields.

    Two worker threads take the pairs in turn while the calling thread
    waits (_threads.run_two): each pair is one (2, M) draw from the one
    generator, made under a lock so the draws keep stream order whichever
    worker takes them, and is carried as rfft halves in that worker's
    buffers, allocated once per call: HalfBasis(grid, M/8 + 1) transforms
    the draws and HalfBasis(grid).product multiplies them into the 2/3
    band. The maximum over pairs does not depend on which worker saw which
    pair, so the result does not either.
    n_pairs must be at least 1: C0 divides the inflation time T_N.
    """
    if n_pairs < 1:
        raise DomainError(f"need at least one pair, got {n_pairs}")
    _ModulationNorm(grid, n_window, 1)  # refuses a bad window on this thread
    m = grid.mode_count
    basis_in, basis_out = HalfBasis(grid, m // 8 + 1), HalfBasis(grid)
    half = 2.0 ** (n_window / 2.0)
    draws = _PairDraws(np.random.default_rng(seed), n_pairs)
    worst = [0.0, 0.0]

    def worker(slot):
        norm_in = _ModulationNorm(grid, n_window, basis_in.width)
        norm_out = _ModulationNorm(grid, n_window, basis_out.width)
        fields = np.empty((2, m))  # the draws, then the band-limited samples
        spectrum = np.empty((2, m // 2 + 1), dtype=np.complex128)
        h_in = np.empty((2, basis_in.width), dtype=np.complex128)
        h_out = np.empty(basis_out.width, dtype=np.complex128)
        while draws.draw(fields):
            # one rfft per row: a batched one faults in fresh pages per call
            for row in range(2):
                basis_in.coeffs(fields[row], out=h_in[row],
                                work=spectrum[row])
            basis_out.product(h_in[0], h_in[1], out=h_out, work=spectrum[0],
                              samples=fields)
            num = norm_out(h_out)
            den = half * norm_in(h_in[0]) * norm_in(h_in[1])
            worst[slot] = max(worst[slot], num / den)

    run_two(lambda: worker(0), lambda: worker(1), draws.stop, "pairs")
    top = max(worst)
    return AlgebraReport(n_window, n_pairs, top, 1.1 * top)
