"""Hot numerical kernels: the Duhamel kernel and the second-iterate quadrature.

Both are plain numpy. The quadrature evaluates the kernel on row tiles of
the (targets x nodes) plane, so each temporary holds about TILE_ELEMS
values whatever the shape.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

SERIES_CUT = 1e-6  # |theta * t| below this uses the 3-term series branch
EXP_BIG = 500.0    # expm1 overflow guard; branch is exact there anyway
TILE_ELEMS = 2 ** 16  # kernel values per quadrature tile


def duhamel_kernel_values(xi: np.ndarray, xi1: np.ndarray, t: float,
                          alpha: float) -> np.ndarray:
    """e^{-|xi|^{2a} t} (e^{theta t} - 1)/theta elementwise (broadcasting),
    theta the symbol mismatch |xi|^{2a} - |xi1|^{2a} - |xi-xi1|^{2a}."""
    p = 2.0 * alpha
    mu = np.abs(xi) ** p
    nu = np.abs(xi1) ** p + np.abs(xi - xi1) ** p
    theta = mu - nu
    x = theta * t
    small = np.abs(x) < SERIES_CUT
    big = x > EXP_BIG
    safe_theta = np.where(small, 1.0, theta)
    emu = np.exp(-mu * t)
    with np.errstate(over="ignore", invalid="ignore"):
        quot = emu * np.expm1(x) / safe_theta
        stable = (np.exp(-nu * t) - emu) / safe_theta
    series = t * emu * (1.0 + 0.5 * x + x * x / 6.0)
    return np.where(small, series, np.where(big, stable, quot))


def second_iterate_values(targets: np.ndarray, xi1: np.ndarray, w: np.ndarray,
                          t: float, alpha: float, prefac: float) -> np.ndarray:
    """out[j] = prefac * sum_i w[j,i] K(targets[j], xi1[i], t)."""
    out = np.empty(targets.shape[0])
    rows = max(1, TILE_ELEMS // xi1.shape[0])
    for a in range(0, targets.shape[0], rows):
        b = a + rows
        k = duhamel_kernel_values(targets[a:b, None], xi1[None, :], t, alpha)
        out[a:b] = np.einsum("ij,ij->i", w[a:b], k)
    return prefac * out
