"""Picard/Taylor expansion of the quadratic heat flow in frequency variables.

Terms follow the recurrence A_1(t) = S(t) u0,
A_k(t) = sigma sum_{k1+k2=k} int_0^t S(t-t') A_{k1}(t') A_{k2}(t') dt' (k >= 2),
so u = sum_k A_k solves u = S u0 + sigma L(u^2) order by order; replacing the
seed by mu*u0 scales A_k by mu^k, and flipping sigma flips every even term.

second_iterate_hat is a different normalization kept deliberately: it returns
the lattice Riemann sum of 2 int phihat(xi1) phihat(xi-xi1) K(xi,xi1,t) dxi1,
the raw convolution-form transform WITHOUT the 1/2pi of F(fg) = (1/2pi)Ff*Fg.
Against the series term this means second_iterate_hat(xi_k) equals
4 pi lam sigma c_k(A_2(t)) exactly in the continuum-time limit; the factor is
pure bookkeeping and the dual-route tests exercise the time quadrature only.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, TypeVar, Union

import numpy as np

from . import _kernels
from ._threads import run_two
from .config import SolveConfig
from .errors import DomainError, ResolutionError
from .evolution import trapezoid_step
from .grid import (SpectralField, TorusGrid, _values_at, check_alpha,
                   field_basis)

R = TypeVar("R")


def theta(xi, xi1, alpha: float):
    """Symbol mismatch |xi|^{2a} - (|xi1|^{2a} + |xi-xi1|^{2a}), the theta
    of the Duhamel kernel."""
    check_alpha(alpha)
    mu, nu = _kernels.symbol_split(np.asarray(xi, dtype=float),
                                   np.asarray(xi1, dtype=float), alpha)
    out = mu - nu
    return float(out) if out.ndim == 0 else out


def duhamel_kernel(xi, xi1, t: float, alpha: float):
    """Nonnegative kernel e^{-|xi|^{2a}t} (e^{theta t}-1)/theta.

    The quotient is computed via expm1; |theta t| < 1e-6 switches to
    t e^{-|xi|^{2a}t} (1 + theta t/2 + (theta t)^2/6).
    """
    check_alpha(alpha)
    if t < 0:
        raise DomainError(f"kernel time must be >= 0, got {t}")
    out = _kernels.duhamel_kernel_values(
        np.asarray(xi, dtype=float), np.asarray(xi1, dtype=float),
        float(t), float(alpha))
    return float(out) if out.ndim == 0 else out


def second_iterate_hat(phihat: Callable[[np.ndarray], np.ndarray], t: float,
                       xi, alpha: float, lattice: TorusGrid):
    """Closed-form second iterate transform at frequencies xi.

    Riemann sum 2 (2 pi/lam) sum_{xi1 lattice} phihat(xi1) phihat(xi-xi1)
    K(xi, xi1, t) over the support of phihat, which must sit strictly inside
    the lattice band. phihat must act elementwise: the weights
    phihat(xi1) phihat(xi - xi1) are built one row tile of targets at a
    time, so memory does not grow with targets x nodes.

    The nodes xi1 are found on support windows. A profile that carries
    parts, (lo, hi, f) triples with disjoint supports lo <= |xi| <= hi
    whose sum is phihat (families' profiles do), has each f evaluated on
    the windows of its interval only; a plain callable is the one part on
    [0, max|xi_k|], the whole lattice. The nodes keep fft order either way.
    """
    check_alpha(alpha)
    if t < 0:
        raise DomainError(f"time must be >= 0, got {t}")
    parts = getattr(phihat, "parts", ((0.0, lattice.max_frequency, phihat),))
    nodes, node_w = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for lo, hi, f in parts:
        for sl in lattice.support_windows(lo, hi):
            w = np.asarray(f(lattice.frequencies_at(sl)), dtype=float)
            if w.shape != (sl.stop - sl.start,):
                raise DomainError("phihat returned wrong shape on the lattice")
            hit = np.flatnonzero(w)
            nodes.append(hit + sl.start)
            node_w.append(w[hit])
    nz = np.concatenate(nodes)
    order = np.argsort(nz, kind="stable")
    nz, w1 = nz[order], np.concatenate(node_w)[order]
    # the band's edge modes k = M/2 - 1 and -M/2 sit at fft indices
    # M/2 - 1 and M/2; nz is sorted, so the first node >= M/2 - 1 tells
    h = lattice.mode_count // 2
    first = np.searchsorted(nz, h - 1)
    if first < nz.size and nz[first] <= h:
        raise ResolutionError(
            "phihat support reaches the edge of the lattice band; enlarge the band")
    targets = np.atleast_1d(np.asarray(xi, dtype=float))
    if nz.size == 0:
        vals = np.zeros(targets.shape[0])
    else:
        xi1 = lattice.frequencies_at(nz)
        w1 = w1[None, :]

        def weights(a, b):
            pair = targets[a:b, None] - xi1[None, :]
            return w1 * np.asarray(phihat(pair), dtype=float)

        prefac = 4.0 * np.pi / lattice.period
        vals = _kernels.second_iterate_values(
            targets, xi1, weights, float(t), float(alpha), prefac)
    return float(vals[0]) if np.isscalar(xi) or np.ndim(xi) == 0 else vals


def picard_terms(seed: SpectralField, n_terms: int, config: SolveConfig, *,
                 final: Optional[Callable[[SpectralField], R]] = None
                 ) -> Union[List[SpectralField], List[R]]:
    """The first n_terms Taylor terms A_1..A_k of the flow from `seed`, at
    the horizon T = config.T.

    Exponential-trapezoid time stepping on the shared Duhamel structure;
    quadratic sources are 2/3-rule dealiased. The basis is picked once from
    the symmetry of the seed's pieces (grid.field_basis), and u^2 keeps it:
    the march holds every term on modes 0..M/3 only, as real cosine
    coefficients over M/2 samples when the seed is exactly even and as an
    rfft half over M samples otherwise. A_1 = S(t) seed is marched on that
    band too, with the decay e^{-dt|xi|^{2a}} of the band's modes alone,
    so a windowed seed is never made dense. Each term's arithmetic does
    not depend on the horizon, so the march to T' = i dt gives node i of
    the march to T bit for bit.

    The march runs on two worker threads as a wavefront (see _march), and
    this thread only waits for them; an error in either stage is raised
    here after both have stopped. Their buffers are freed before anything
    is widened.

    Then this thread builds the full-spectrum A_1(T) by the same n
    multiplies by the decay, on a fresh copy of the seed's pieces (0 stays
    0 off them), and widens the terms k >= 2 to the full spectrum, exactly
    Hermitian. With final it widens each term in turn into A_1's buffer and
    returns [final(A_1(T)), ..., final(A_K(T))]; final may be a traced
    layer, and the field it is given is valid during its call only: the
    next term overwrites its coefficients. Without final each term is
    returned as a SpectralField with coefficients of its own.
    """
    if n_terms < 1:
        raise DomainError(f"need at least one term, got {n_terms}")
    grid = seed.grid
    config.check_stability(grid.max_frequency)
    basis = field_basis(grid, seed.pieces)
    # the march steps its own copy of A_1's band
    coeff = _march(
        basis, basis.band(_values_at(seed.pieces, 0, basis.width)).copy(),
        _decay_at(grid, config, slice(0, basis.width)), config, n_terms)
    a1 = np.zeros(grid.mode_count, dtype=np.complex128)
    for sl, v in seed.pieces:
        decay, piece = _decay_at(grid, config, sl), a1[sl]
        piece[:] = v
        for _ in range(config.n_steps):
            np.multiply(decay, piece, out=piece)
    if final is None:
        # the march's buffers are this call's own: each term keeps one
        ends = [a1] + [basis.widen(coeff[k]) for k in range(2, n_terms + 1)]
        return [SpectralField(grid, c) for c in ends]
    # A_1's buffer is the reused one: each later term is widened over it
    results = [final(SpectralField(grid, a1))]
    for k in range(2, n_terms + 1):
        basis.widen(coeff[k], out=a1)
        results.append(final(SpectralField(grid, a1)))
    return results


def _decay_at(grid: TorusGrid, config: SolveConfig, index) -> np.ndarray:
    """e^{-dt |xi_k|^{2a}} at the fft indices `index`, through
    frequencies_at: bit for bit those entries of the whole-lattice
    np.exp(-dt * fractional_symbol(grid, alpha))."""
    symbol = np.abs(grid.frequencies_at(index)) ** (2.0 * config.alpha)
    return np.exp(-config.dt * symbol)


def _march(basis, a1_band: np.ndarray, band_decay: np.ndarray,
           config: SolveConfig, n_terms: int) -> dict:
    """March A_1's band (in place) and A_2..A_K (K = n_terms) over
    config.n_steps steps; return {k: A_k's band at the last node}, k >= 2.

    A_k at step i needs A_1..A_{k-1} at step i and A_k at step i-1, so one
    worker marches A_1..A_{K/2} (rounded down, at least A_1) and another
    the rest one step behind. Both run one loop over phases p = 0..n+1 in
    lockstep on a two-party barrier: in phase p the leader makes step p
    into the sample slot p % 2 and the trailer makes step p - 1 from the
    other slot. Each stage writes its samples, source, transform and
    trapezoid step into its own buffers, allocated once per call and
    released on return, and each term's arithmetic is that of a one-thread
    march, so the values do not depend on the schedule. An error in either
    stage breaks the barrier and is raised after both have stopped.
    """
    n = config.n_steps
    # sigma folds into the step exactly: it is -1, 0 or 1
    half = 0.5 * config.dt * float(config.sign)

    def coeff_buffer():
        return np.zeros(basis.width, dtype=basis.coeff_dtype)

    def sample_buffer():
        return np.zeros(basis.n_samples, dtype=basis.sample_dtype)

    # A_k's coefficients, k >= 2; each is written by its own stage only
    coeff = {k: coeff_buffer() for k in range(2, n_terms + 1)}

    def stage(terms, leads):
        """Step function of the terms k >= 2 in `terms`, on their own
        buffers, and of A_1 if `leads`; phys[j] holds A_j's samples at the
        step being made."""
        acc, tmp = sample_buffer(), sample_buffer()
        work = basis.workspace()
        fprev = {k: coeff_buffer() for k in terms}
        spare, bracket = coeff_buffer(), coeff_buffer()

        def source(k, phys, out):
            # the splits (j, k - j) pair up: twice those with j < k - j,
            # plus the square of A_{k/2} when k is even
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
            return basis.coeffs(acc, out=out, work=work)

        def step(i, phys):
            nonlocal spare
            if leads:
                if i > 0:
                    np.multiply(band_decay, a1_band, out=a1_band)
                basis.samples(a1_band, out=phys[1], work=work)
            if i == 0:
                for k in terms:
                    source(k, phys, fprev[k])
                return
            for k in terms:
                fnext = source(k, phys, spare)
                trapezoid_step(coeff[k], fprev[k], fnext, band_decay, half,
                               out=coeff[k], tmp=bracket)
                # the old source is dead: its buffer takes the next one
                fprev[k], spare = fnext, fprev[k]
                if k < n_terms:
                    basis.samples(coeff[k], out=phys[k], work=work)

        return step

    split = max(1, n_terms // 2)
    # phys[k] is zero at step 0 for k >= 2; A_n_terms is read by no source
    slots = [[None] + [sample_buffer() for _ in range(split)]
             for _ in range(2)]
    own = [sample_buffer() for _ in range(split + 1, n_terms)]
    barrier = threading.Barrier(2)

    def march(step, lag, phys):
        # phase p makes step p - lag; the barrier ends each phase but the last
        try:
            for p in range(n + 2):
                i = p - lag
                if 0 <= i <= n:
                    step(i, phys[i % 2])
                if p <= n:
                    barrier.wait()
        except threading.BrokenBarrierError:
            return  # the other stage failed; run_two raises its error

    lead = stage(range(2, split + 1), True)
    trail = stage(range(split + 1, n_terms + 1), False)
    run_two(lambda: march(lead, 0, slots),
            lambda: march(trail, 1, [slot + own for slot in slots]),
            barrier.abort, "march")
    return coeff


def hs_norm_from_hat_scan(xi_scan: np.ndarray, hat_values: np.ndarray,
                          s: float) -> float:
    """H^s norm of an even continuum transform sampled on a nonnegative scan.

    Trapezoid of (1/2pi) int (1+xi^2)^s |hat|^2 dxi, doubled for the xi < 0
    half; the scan must be nonempty, start at 0 and increase.
    """
    xi = np.asarray(xi_scan, dtype=float)
    if xi.size == 0 or xi[0] != 0.0 or np.any(np.diff(xi) <= 0):
        raise DomainError(
            "scan must be nonempty, start at 0 and be strictly increasing")
    integrand = (1.0 + xi**2) ** s * np.asarray(hat_values, dtype=float) ** 2
    return float(np.sqrt(2.0 * np.trapezoid(integrand, xi) / (2.0 * np.pi)))
