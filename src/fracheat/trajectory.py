"""Uniform-step trajectories of spectral fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .grid import SpectralField, TorusGrid


@dataclass(frozen=True)
class Trajectory:
    """Real fields at times t_i = i*dt, i = 0..n-1, one row of coefficients
    per node; a row is checked Hermitian when field(i) reads it."""

    grid: TorusGrid
    dt: float
    coeffs: np.ndarray  # (n, M) complex128, fft order per row

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 2 or c.shape[1] != self.grid.mode_count:
            raise DimensionError(
                f"coefficient array has shape {c.shape}, grid wants (n, {self.grid.mode_count})")
        if not (0.0 < self.dt < np.inf or self.dt == 0.0 and c.shape[0] < 2):
            raise DomainError(f"need a finite node spacing > 0, got {self.dt}")
        object.__setattr__(self, "coeffs", c)

    @property
    def n_nodes(self) -> int:
        return self.coeffs.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_nodes)

    def field(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[i].copy())
