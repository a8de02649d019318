"""Solver configuration shared by the evolution and Picard modules."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .grid import check_alpha

# hard stability/accuracy gate for the exponential-trapezoid stepper
STABILITY_LIMIT = 10.0


@dataclass(frozen=True)
class SolveConfig:
    """Parameters of one mild-solution solve of u_t = D^{2a}u + sigma u^2.

    sign is the coefficient sigma in the integral form u = S u0 + sigma L(u^2);
    sign = 0 disables the nonlinearity, which turns the solver into a free-flow
    diagnostic. (s, q) select the Besov indices of the work norm.
    """

    alpha: float
    sign: int = 1
    T: float = 1.0
    dt: float = 1e-2
    picard_tol: float = 1e-8
    max_iter: int = 25
    s: float = -0.5
    q: float = 2.0

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.sign not in (-1, 0, 1):
            raise ConfigError(f"sign must be +1, -1, or 0, got {self.sign}")
        if not 0 < self.T < math.inf:
            raise ConfigError(
                f"horizon T must be positive and finite, got {self.T}")
        if not 0 < self.dt <= self.T:
            raise ConfigError(f"need 0 < dt <= T, got dt={self.dt}, T={self.T}")
        n = self.T / self.dt
        # T/dt overflows to inf when dt is tiny enough
        if n == math.inf or abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ConfigError(f"T/dt = {n} is not an integer step count")
        if not self.picard_tol > 0:
            raise ConfigError("picard_tol must be positive")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    def check_stability(self, max_frequency: float) -> None:
        gate = self.dt * max_frequency ** (2.0 * self.alpha)
        if gate > STABILITY_LIMIT:
            raise ConfigError(
                f"dt * max|xi|^(2 alpha) = {gate:.3g} exceeds the stability "
                f"gate {STABILITY_LIMIT}; shrink dt or the band")
