"""Hot numerical kernels: the Duhamel kernel and the second-iterate quadrature.

Both are plain numpy, and both read the symbol split (mu, nu) that
picard.theta also reads. The quadrature works on row tiles of the
(targets x nodes) plane: it makes a tile's weights and symbols once, and the
kernel once per time, so each temporary holds about TILE_ELEMS values
whatever the shape.
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
    """The Duhamel kernel at (xi, xi1), broadcasting: kernel_from_split of
    their symbol_split."""
    return kernel_from_split(*symbol_split(xi, xi1, alpha), t)


def kernel_from_split(mu: np.ndarray, nu: np.ndarray, t: float) -> np.ndarray:
    """e^{-mu t} (e^{theta t} - 1)/theta, theta = mu - nu, elementwise; mu
    broadcasts to nu's shape, as symbol_split's does. The expm1 quotient is
    formed on every lane; the lanes |theta t| < SERIES_CUT (3-term series)
    and theta t > EXP_BIG ((e^{-nu t} - e^{-mu t})/theta) are then
    recomputed on those lanes alone."""
    theta = mu - nu
    # at a huge t, theta*t and mu*t can overflow to inf, and theta = 0
    # divides by zero; each lane this spoils is a series or a stable lane
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = theta * t
        emu = np.exp(-mu * t)
        out = np.asarray(emu * np.expm1(x) / theta)
        big = x > EXP_BIG
        if big.any():
            emu_big = np.broadcast_to(emu, out.shape)[big]
            out[big] = (np.exp(-nu[big] * t) - emu_big) / theta[big]
    small = np.abs(x) < SERIES_CUT
    if small.any():
        xs = x[small]
        emu_small = np.broadcast_to(emu, out.shape)[small]
        out[small] = t * emu_small * (1.0 + 0.5 * xs + xs * xs / 6.0)
    return out


def second_iterate_values(targets: np.ndarray, xi1: np.ndarray,
                          weights: Callable[[int, int], np.ndarray],
                          t, alpha: float, prefac: float) -> np.ndarray:
    """out[m, j] = prefac * sum_i w[j,i] K(targets[j], xi1[i], t[m]) for a
    1-D array of times t; a scalar t gives the one row out[j].

    weights(a, b) returns rows a..b-1 of w; it is called once per row tile,
    so w is never held whole. The tile's weights and symbols serve every
    time; the kernel and the sum are made once per time.
    """
    times = np.atleast_1d(t)
    out = np.empty((times.size, targets.shape[0]))
    rows = max(1, TILE_ELEMS // xi1.shape[0])
    for a in range(0, targets.shape[0], rows):
        b = a + rows
        mu, nu = symbol_split(targets[a:b, None], xi1[None, :], alpha)
        w = weights(a, b)
        for m, tm in enumerate(times):
            k = kernel_from_split(mu, nu, tm)
            out[m, a:b] = np.einsum("ij,ij->i", w, k)
    return prefac * out.reshape(np.shape(t) + out.shape[1:])
