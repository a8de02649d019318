"""Littlewood-Paley analysis: dyadic blocks, Besov / Sobolev / modulation norms.

The dyadic bump is glued from g(x) = e^{-1/x}: eta = 1 on [-1,1], supported in
[-2,2], strictly decreasing in |xi| between; phi(xi) = eta(xi/2) - eta(xi).
Block j >= 0 multiplies by phi(xi/2^j), whose support is 2^j <= |xi| <= 2^{j+2}
with phi(2) = 1; block -1 multiplies by eta. The blocks telescope, so
eta(xi) + sum_{j=0}^{J} phi(xi/2^j) = eta(xi/2^{J+1}) = 1 for |xi| <= 2^{J+1},
which covers the whole grid band once J = floor(log2(max|xi_k|)).

A partition stores each block only where it can be nonzero: on the
fft-order windows TorusGrid.support_windows gives for its support, with
the values of the elementwise bump there. Off the windows the bump is
exactly 0, so the block table behind the Besov norms and x_norm sums over
the windows alone, and multiplier(j) rebuilds the full-length block, bit
for bit the dense one, on each call without keeping it.

besov_norm reads the field's pieces (a windowed seed's few windows, or a
dense field's single piece [0, M)): it squares |c| on each piece and sums
each block over its windows clipped to the piece. The clipped blocks are
evaluated afresh by the same rule, on the clipped windows alone, so a
seed's norm never builds the whole table, which the whole window [0, M)
reads and a partition keeps.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._threads import run_two
from .errors import DegenerateWindowError, DimensionError, DomainError, ResolutionError
from .grid import SpectralField, TorusGrid, band_half, band_samples, check_alpha
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


@dataclass(frozen=True)
class DyadicPartition:
    """Dyadic multiplier table for one grid; blocks j = -1 .. j_max, each
    kept as (window, values) pairs on the modes its support reaches."""

    grid: TorusGrid
    j_max: int

    def windows(self, j: int) -> tuple:
        """Block j as ((slice, values), ...) over its support windows."""
        if j < -1:
            raise DomainError(f"block index must be >= -1, got {j}")
        if j > self.j_max:
            raise ResolutionError(
                f"block {j} exceeds j_max = {self.j_max} for this grid band")
        return self._table[j + 1]

    def _blocks_on(self, window: slice) -> tuple:
        """Every block on one fft-order window, in block_range order: block
        j as ((slice, values), ...) over its support windows clipped to
        window, with values phi_profile(xi/2^j) (eta for j = -1) there,
        each bit for bit the whole table's at that mode.

        The whole spectrum [0, M) gives the whole table, built on first use
        and kept; any other window is evaluated afresh, on its modes alone.
        """
        if window == slice(0, self.grid.mode_count):
            return self._table
        return self._clipped(window)

    @cached_property
    def _table(self) -> tuple:
        return self._clipped(slice(0, self.grid.mode_count))

    @cached_property
    def _layout(self) -> tuple:
        # the support windows of each block: |xi| <= 2 for block -1,
        # 2^j <= |xi| <= 2^{j+2} for block j
        return tuple(self.grid.support_windows(*((0.0, 2.0) if j == -1 else
                                                 (2.0**j, 2.0 ** (j + 2))))
                     for j in self.block_range)

    def _clipped(self, window: slice) -> tuple:
        # Block j >= 0 is phi_profile(xi/2^j) and block -1 is eta, each
        # evaluated on its support windows clipped to window. Both are
        # elementwise, so a clipped value is the unclipped one.
        def block(j, sl):
            xi = self.grid.frequencies_at(sl)
            return eta(xi) if j == -1 else phi_profile(xi / 2.0**j)
        return tuple(
            tuple((sl, block(j, sl)) for sl in _clip(windows, window))
            for j, windows in zip(self.block_range, self._layout))

    def multiplier(self, j: int) -> np.ndarray:
        """Block j on the whole grid, fft order; a fresh array per call."""
        m = np.zeros(self.grid.mode_count)
        for sl, vals in self.windows(j):
            m[sl] = vals
        return m

    @property
    def block_range(self) -> range:
        return range(-1, self.j_max + 1)


def _clip(windows: tuple, window: slice):
    # the nonempty intersections of fft-order slices with one window
    for sl in windows:
        a, b = max(sl.start, window.start), min(sl.stop, window.stop)
        if a < b:
            yield slice(a, b)


def make_partition(grid: TorusGrid) -> DyadicPartition:
    j_max = max(-1, int(np.floor(np.log2(grid.max_frequency))))
    return DyadicPartition(grid, j_max)


def lp_block(u: SpectralField, j: int, partition: DyadicPartition) -> SpectralField:
    """Delta_j u: multiply the spectrum by the block-j bump."""
    if u.grid != partition.grid:
        raise DimensionError("field and partition live on different grids")
    return u.copy_with(u.coeffs * partition.multiplier(j))


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


def _lq(values: np.ndarray, q: float) -> float:
    if q == np.inf:
        return float(np.max(values)) if values.size else 0.0
    return float(np.sum(values**q) ** (1.0 / q))


def _block_l2_table(pieces, n_nodes: int,
                    partition: DyadicPartition) -> np.ndarray:
    """(n_blocks, n_nodes) table of ||Delta_j u(t_i)||_{L^2}.

    pieces lists disjoint (window, values) pairs, values of shape
    (n_nodes, window length), that hold every nonzero mode. |c|^2 is
    formed on them alone, and each block is summed over its windows
    clipped to them; a dense single piece [0, M) sums each block over its
    whole windows.
    """
    lam = partition.grid.period
    table = np.zeros((len(partition.block_range), n_nodes))
    for window, values in pieces:
        a = window.start
        mags = np.abs(values) ** 2
        for row, block in zip(table, partition._blocks_on(window)):
            for sl, vals in block:
                row += mags[:, sl.start - a:sl.stop - a] @ (vals * vals)
    return np.sqrt(lam * table)


def besov_norm(u: SpectralField, s: float, q: float,
               partition: DyadicPartition) -> NormReport:
    """B^{s,q} norm: l^q over j of 2^{js} ||Delta_j u||_{L^2}, summed on
    the field's pieces."""
    q = _check_q(q)
    if u.grid != partition.grid:
        raise DimensionError("field and partition live on different grids")
    raw = _block_l2_table([(sl, v[None, :]) for sl, v in u.pieces], 1,
                          partition)[:, 0]
    js = np.arange(-1, partition.j_max + 1)
    weighted = 2.0 ** (js * s) * raw
    return NormReport("besov", s, q, None, _lq(weighted, q), tuple(weighted))


def sobolev_norm(u: SpectralField, s: float) -> float:
    """H^s norm (lam sum (1+xi^2)^s |c_k|^2)^{1/2}."""
    xi = u.grid.frequencies
    w = (1.0 + xi**2) ** s
    return float(np.sqrt(u.grid.period * np.sum(w * np.abs(u.coeffs) ** 2)))


def _spacetime_report(table: np.ndarray, dt: float, p: float, s: float,
                      q: float, partition: DyadicPartition) -> NormReport:
    if p == np.inf:
        per_block = table.max(axis=1)
    else:
        per_block = np.trapezoid(table**p, dx=dt, axis=1) ** (1.0 / p)
    js = np.arange(-1, partition.j_max + 1)
    weighted = 2.0 ** (js * s) * per_block
    kind = "Linf-t-besov" if p == np.inf else f"L{int(p)}-t-besov"
    return NormReport(kind, s, q, None, _lq(weighted, q), tuple(weighted))


def spacetime_besov_norm(traj: Trajectory, p: float, s: float, q: float,
                         partition: DyadicPartition) -> NormReport:
    """Tilde norm: per block, L^p in time of ||Delta_j u(t)||_{L^2}, then
    2^{js}-weighted l^q over blocks.

    p in {1, 2}: composite trapezoid on the p-th power over the trajectory
    nodes; p = inf: max over nodes.
    """
    q = _check_q(q)
    if p not in (1, 2, np.inf):
        raise DomainError(f"time exponent p must be 1, 2, or inf, got {p}")
    if traj.grid != partition.grid:
        raise DimensionError("trajectory and partition live on different grids")
    table = _block_l2_table(((slice(0, traj.grid.mode_count), traj.coeffs),),
                            traj.n_nodes, partition)
    return _spacetime_report(table, traj.dt, p, s, q, partition)


def x_norm(traj: Trajectory, s: float, q: float, alpha: float,
           partition: DyadicPartition) -> float:
    """Work norm: Linf_t B^{s,q} + L2_t B^{s+alpha,q} over the trajectory;
    both parts read one block table."""
    check_alpha(alpha)
    q = _check_q(q)
    if traj.grid != partition.grid:
        raise DimensionError("trajectory and partition live on different grids")
    table = _block_l2_table(((slice(0, traj.grid.mode_count), traj.coeffs),),
                            traj.n_nodes, partition)
    a = _spacetime_report(table, traj.dt, np.inf, s, q, partition)
    b = _spacetime_report(table, traj.dt, 2, s + alpha, q, partition)
    return a.value + b.value


def _window_index(grid: TorusGrid, n_window: int) -> np.ndarray:
    """Window number floor(xi_k / 2^N) of every mode (fft order), shifted so
    the lowest window is 0; checks that 2^N fits between spacing and band."""
    width = 2.0 ** float(n_window)
    if width < grid.spacing:
        raise DomainError(
            f"window width 2^{n_window} is below the frequency spacing {grid.spacing:.3e}")
    if width > grid.max_frequency:
        raise DegenerateWindowError(
            f"window width 2^{n_window} exceeds the band {grid.max_frequency:.3e}")
    idx = np.floor(grid.frequencies / width).astype(np.int64)
    idx -= idx.min()
    return idx


def modulation_norm(u: SpectralField, n_window: int) -> float:
    """(M_{2,1})_N norm with windows [m 2^N, (m+1) 2^N): sum over windows of
    the lattice L^2 mass (lam sum_{window} |c_k|^2)^{1/2}."""
    mass = np.bincount(_window_index(u.grid, n_window),
                       weights=np.abs(u.coeffs) ** 2)
    return float(np.sum(np.sqrt(u.grid.period * mass)))


@dataclass(frozen=True)
class AlgebraReport:
    """Empirical product constant for the modulation algebra at one window size."""

    n_window: int
    n_pairs: int
    max_ratio: float
    c0: float


class _HalfNorm:
    """modulation_norm of real fields given as rfft halves h = modes 0..k_max.

    The masses are summed in fft order with the mirror conj(h) included,
    into as many windows as the full spectrum has, so the value equals
    modulation_norm of hermitian_full(h) bit for bit (np.sum is pairwise,
    so the window count matters). The modes that are zero are skipped.
    h[0] must be real, as an rfft's mode 0 is. One instance serves one
    thread: the weights are a buffer reused by every call.
    """

    def __init__(self, index: np.ndarray, k_max: int, period: float):
        self.index = np.concatenate([index[:k_max + 1],
                                     index[index.size - k_max:]])
        self.n_windows = int(index.max()) + 1
        self.period = period
        self.k_max = k_max
        self.weights = np.empty(2 * k_max + 1)

    def __call__(self, h: np.ndarray) -> float:
        w, k = self.weights, self.k_max
        np.square(np.abs(h, out=w[:k + 1]), out=w[:k + 1])
        w[k + 1:] = w[k:0:-1]
        mass = np.bincount(self.index, weights=w, minlength=self.n_windows)
        return float(np.sum(np.sqrt(self.period * mass)))


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
    buffers, allocated once per call. The maximum over pairs does not
    depend on which worker saw which pair, so the result does not either.
    n_pairs must be at least 1: C0 divides the inflation time T_N.
    """
    if n_pairs < 1:
        raise DomainError(f"need at least one pair, got {n_pairs}")
    index = _window_index(grid, n_window)
    m = grid.mode_count
    k_in, k_out = m // 8, m // 3
    half = 2.0 ** (n_window / 2.0)
    draws = _PairDraws(np.random.default_rng(seed), n_pairs)
    worst = [0.0, 0.0]

    def worker(slot):
        norm_in = _HalfNorm(index, k_in, grid.period)
        norm_out = _HalfNorm(index, k_out, grid.period)
        fields = np.empty((2, m))  # the draws, then the band-limited samples
        spectrum = np.empty((2, m // 2 + 1), dtype=np.complex128)
        h_in = np.empty((2, k_in + 1), dtype=np.complex128)
        h_out = np.empty(k_out + 1, dtype=np.complex128)
        while draws.draw(fields):
            # one rfft per row: a batched one faults in fresh pages per call
            for row in range(2):
                band_half(fields[row], grid, k_in, out=h_in[row],
                          work=spectrum[row])
            band_samples(h_in, grid, out=fields)
            product = np.multiply(fields[0], fields[1], out=fields[0])
            band_half(product, grid, k_out, out=h_out, work=spectrum[0])
            num = norm_out(h_out)
            den = half * norm_in(h_in[0]) * norm_in(h_in[1])
            worst[slot] = max(worst[slot], num / den)

    run_two(lambda: worker(0), lambda: worker(1), draws.stop, "pairs")
    top = max(worst)
    return AlgebraReport(n_window, n_pairs, top, 1.1 * top)
