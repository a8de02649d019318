"""Hot numerical kernels: the Duhamel kernel and the second-iterate quadrature.

Both are plain numpy, and both read the symbol split (mu, nu) that
picard.theta also reads. The quadrature evaluates the kernel and its weights
on row tiles of the (targets x nodes) plane, so each temporary holds about
TILE_ELEMS values whatever the shape.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

BACKEND = "numpy"

SERIES_CUT = 1e-6  # |theta * t| below this uses the 3-term series branch
EXP_BIG = 500.0    # expm1 overflow guard; branch is exact there anyway
TILE_ELEMS = 2 ** 16  # kernel values per quadrature tile


def symbol_split(xi: np.ndarray, xi1: np.ndarray,
                 alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(mu, nu) = (|xi|^{2a}, |xi1|^{2a} + |xi-xi1|^{2a}) elementwise
    (broadcasting); the symbol mismatch theta is mu - nu."""
    p = 2.0 * alpha
    return np.abs(xi) ** p, np.abs(xi1) ** p + np.abs(xi - xi1) ** p


def duhamel_kernel_values(xi: np.ndarray, xi1: np.ndarray, t: float,
                          alpha: float) -> np.ndarray:
    """e^{-mu t} (e^{theta t} - 1)/theta elementwise (broadcasting), with
    mu, nu from symbol_split and theta = mu - nu."""
    mu, nu = symbol_split(xi, xi1, alpha)
    theta = mu - nu
    # at a huge t, theta*t and mu*t can overflow to inf; the branches below
    # take inf to its limit, and np.where discards the lanes it spoils
    with np.errstate(over="ignore", invalid="ignore"):
        x = theta * t
        small = np.abs(x) < SERIES_CUT
        big = x > EXP_BIG
        safe_theta = np.where(small, 1.0, theta)
        emu = np.exp(-mu * t)
        quot = emu * np.expm1(x) / safe_theta
        stable = (np.exp(-nu * t) - emu) / safe_theta
    # the series on the small lanes alone: on the others x*x can overflow
    xs = np.where(small, x, 0.0)
    series = t * emu * (1.0 + 0.5 * xs + xs * xs / 6.0)
    return np.where(small, series, np.where(big, stable, quot))


def second_iterate_values(targets: np.ndarray, xi1: np.ndarray,
                          weights: Callable[[int, int], np.ndarray],
                          t: float, alpha: float, prefac: float) -> np.ndarray:
    """out[j] = prefac * sum_i w[j,i] K(targets[j], xi1[i], t).

    weights(a, b) returns rows a..b-1 of w; it is called once per row tile,
    so w is never held whole.
    """
    out = np.empty(targets.shape[0])
    rows = max(1, TILE_ELEMS // xi1.shape[0])
    for a in range(0, targets.shape[0], rows):
        b = a + rows
        k = duhamel_kernel_values(targets[a:b, None], xi1[None, :], t, alpha)
        out[a:b] = np.einsum("ij,ij->i", weights(a, b), k)
    return prefac * out
