"""Mild-solution machinery for u_t = -D^{2a}u + sigma u^2 on the torus.

The integral form is u(t) = S(t)u0 + sigma * L(u^2)(t) with
L(f)(t) = int_0^t S(t - r) f(r) dr. L is discretized by the exponential
trapezoid rule, which propagates the linear semigroup exactly and applies
a trapezoid correction to the source:

    I(t + dt) = E * I(t) + (dt/2) * (E * f(t) + f(t + dt)),  E = e^{-dt |xi|^{2a}}

It is unconditionally stable for the stiff multiplier and second order in
dt, and trapezoid_step is its one implementation: duhamel_integrate and the
Picard march (picard.picard_terms) both step through it, into buffers they
own. The fixed-point solver iterates the integral map itself, so its
per-iteration difference norms double as contraction diagnostics; it
squares a trajectory with grid.dealiased_product_coeffs, so an exactly even
iterate takes the cosine basis there too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import SolveConfig
from .dyadic import x_norm
from .errors import DimensionError, DomainError, ResolutionError
from .grid import (SpectralField, TorusGrid, check_alpha,
                   dealiased_product_coeffs, fractional_symbol)
from .trajectory import Trajectory

__all__ = [
    "SolveConfig",
    "IterationReport",
    "trapezoid_step",
    "duhamel_integrate",
    "fixed_point_solve",
    "integral_residual",
    "smoothing_constant",
    "dilation_rescale",
]


def trapezoid_step(acc, f_prev, f_next, decay, half_dt, out=None, tmp=None):
    """E*I(t) + (dt/2)*(E*f(t) + f(t+dt)); half_dt may carry a folded sign.

    out (which may be acc) receives the result and tmp the bracket; either
    is allocated when not given, and tmp must not overlap acc or out. The
    operations are those of the one-expression form, so the values do not
    depend on the buffers.
    """
    tmp = np.multiply(decay, f_prev, out=tmp)
    np.add(tmp, f_next, out=tmp)
    np.multiply(half_dt, tmp, out=tmp)
    out = np.multiply(decay, acc, out=out)
    return np.add(out, tmp, out=out)


def duhamel_integrate(source: Trajectory, alpha: float,
                      out=None) -> Trajectory:
    """L(f)(t_i) = int_0^{t_i} S(t_i - r) f(r) dr along the source nodes,
    written into out if given (an (n, M) array other than the source's)."""
    decay = np.exp(-source.dt * fractional_symbol(source.grid, alpha))
    out = np.empty_like(source.coeffs) if out is None else out
    out[0] = 0.0
    tmp = np.empty_like(out[0])
    for i in range(source.n_nodes - 1):
        trapezoid_step(out[i], source.coeffs[i], source.coeffs[i + 1], decay,
                       0.5 * source.dt, out=out[i + 1], tmp=tmp)
    return Trajectory(source.grid, source.dt, out)


def _free_coeffs(u0: SpectralField, times: np.ndarray, alpha: float) -> np.ndarray:
    sym = fractional_symbol(u0.grid, alpha)
    return u0.coeffs[None, :] * np.exp(-np.outer(times, sym))


def _integral_map(u: Trajectory, free: np.ndarray, config: SolveConfig,
                  out=None, src=None) -> np.ndarray:
    """S u0 + sigma L(u^2) on the nodes of u, given the free flow S u0 (free
    itself at sigma = 0); out and src, if given, receive it and u^2."""
    if config.sign == 0:
        return free
    g = u.grid
    src = Trajectory(g, u.dt, dealiased_product_coeffs(u.coeffs, u.coeffs, g,
                                                       out=src))
    mapped = duhamel_integrate(src, config.alpha, out=out).coeffs
    np.multiply(mapped, config.sign, out=mapped)
    return np.add(free, mapped, out=mapped)


@dataclass(frozen=True)
class IterationReport:
    """Per-iteration record of one fixed-point solve.

    diff_norms[m] is the X-norm of u^{(m+1)} - u^{(m)}; contraction_factors
    are their successive ratios. A blow-up (NaN/Inf in an iterate) is data,
    not an exception: blowup_time carries the first offending node time.
    """

    diff_norms: tuple
    contraction_factors: tuple
    converged: bool
    n_iter: int
    blowup_time: Optional[float] = None


def fixed_point_solve(u0: SpectralField, config: SolveConfig):
    """Iterate u -> S u0 + sigma L(u^2) from the free flow; returns
    (trajectory, IterationReport).

    Convergence is declared when the X-norm of the difference of successive
    iterates drops below picard_tol. Non-convergence within max_iter yields
    converged=False (ill-posedness experiments consume these reports); a
    non-finite iterate stops immediately and reports the blow-up time, the
    last finite iterate being returned.
    """
    g = u0.grid
    config.check_stability(g.max_frequency)
    times = config.dt * np.arange(config.n_steps + 1)
    free = _free_coeffs(u0, times, config.alpha)

    # every trajectory an iterate writes: u^2 and then the difference go
    # to src, the new iterate to spare, and cur and spare swap
    cur, spare, src = free.copy(), np.empty_like(free), np.empty_like(free)
    diff_norms, converged, blowup_time, n_iter = [], False, None, 0
    for _ in range(config.max_iter):
        n_iter += 1
        # overflow during a genuine blow-up is caught below, not warned
        with np.errstate(over="ignore", invalid="ignore"):
            new = _integral_map(Trajectory(g, config.dt, cur), free, config,
                                out=spare, src=src)
        bad = ~np.isfinite(new)
        if bad.any():
            blowup_time = float(times[int(np.argwhere(bad.any(axis=1))[0, 0])])
            break
        diff = Trajectory(g, config.dt, np.subtract(new, cur, out=src))
        # huge pre-blow-up iterates may overflow the norm; inf is handled
        with np.errstate(over="ignore", invalid="ignore"):
            d = x_norm(diff, config.s, config.q, config.alpha)
        diff_norms.append(d)
        cur, spare = new, cur
        if d < config.picard_tol:
            converged = True
            break
    factors = tuple(diff_norms[i + 1] / diff_norms[i]
                    for i in range(len(diff_norms) - 1)
                    if diff_norms[i] > 0)
    report = IterationReport(tuple(diff_norms), factors, converged,
                             n_iter, blowup_time)
    return Trajectory(g, config.dt, cur), report


def integral_residual(traj: Trajectory, u0: SpectralField,
                      config: SolveConfig) -> float:
    """Certificate norm ||u - S u0 - sigma L(u^2)||_{Linf_T L^2}.

    A converged fixed_point_solve output keeps this below 10 * picard_tol.
    """
    g = traj.grid
    if g != u0.grid:
        raise DimensionError("trajectory and datum live on different grids")
    free = _free_coeffs(u0, traj.times, config.alpha)
    defect = traj.coeffs - _integral_map(traj, free, config)
    node_l2 = np.sqrt(g.period * np.sum(np.abs(defect) ** 2, axis=1))
    return float(np.max(node_l2))


_PROBE_MODES = 400  # log-spaced lattice modes smoothing_constant scans


def smoothing_constant(s1: float, s2: float, alpha: float, t: float,
                       grid: TorusGrid) -> float:
    """Empirical constant in ||S(t)f||_{H^{s2}} <= C t^{-(s2-s1)/(2a)} ||f||_{H^{s1}}.

    Probes single-mode fields on a log-spaced scan of lattice modes and
    returns the max of t^{(s2-s1)/(2a)} ||S(t)f||_{H^{s2}} / ||f||_{H^{s1}}.
    For the mode xi that ratio is e^{-t|xi|^{2a}} (1+xi^2)^{(s2-s1)/2};
    the scan reaches the last positive mode of grid.
    """
    check_alpha(alpha)
    if s2 < s1:
        raise DomainError(f"need s2 >= s1, got s1={s1}, s2={s2}")
    if not t > 0:
        raise DomainError(f"need t > 0, got {t}")
    k_max = grid.mode_count // 2 - 1
    ks = np.rint(np.geomspace(1, k_max, _PROBE_MODES)).astype(int)
    # the scan is sorted, so dropping repeats of the previous mode gives
    # np.unique's result without np.unique's import of numpy.ma (about
    # 1 MB of resident memory), which nothing else here loads
    ks = np.concatenate([[0], ks[np.r_[True, ks[1:] != ks[:-1]]]])
    weight = t ** ((s2 - s1) / (2.0 * alpha))
    xi = grid.frequencies_at(ks)
    gain = (np.exp(-t * np.abs(xi) ** (2.0 * alpha))
            * (1.0 + xi**2) ** ((s2 - s1) / 2.0))
    return float(weight * gain.max())


def dilation_rescale(traj: Trajectory, lam_d: float, alpha: float) -> Trajectory:
    """Dilation u(t,x) -> lam^{2a} u(lam^{2a} t, lam x) realized exactly.

    The target torus has period lam/lam_d and the same mode count, so the
    sample points lam_d * x'_n coincide with the source lattice: each node
    maps to coefficients lam_d^{2a} c_k on relabeled frequencies, and the
    node times rescale to dt / lam_d^{2a}. Solutions map to solutions.
    """
    check_alpha(alpha)
    if not lam_d > 0:
        raise DomainError(f"dilation scale must be positive, got {lam_d}")
    new_period = traj.grid.period / lam_d
    if new_period < 1.0:
        raise ResolutionError(
            f"dilated period {new_period} drops below the minimum 1; "
            f"resampling across incompatible grids is not supported")
    target = TorusGrid(new_period, traj.grid.mode_count)
    scale = lam_d ** (2.0 * alpha)
    return Trajectory(target, traj.dt / scale, scale * traj.coeffs)
