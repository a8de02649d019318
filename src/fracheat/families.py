"""Explicit initial-data families and the frequency-cascade checks.

Three families drive the ill-posedness experiments: phi_N (opposite-sign
indicator pair at frequency N, amplitude N^a), psi_N (a normalized sum of
phi_{2^j} across one dyadic octave of j), and phi_{N,R} (the partition bump
R phi(2^{-N} xi)). The cascade checks measure the second Picard iterate of
these seeds near frequency zero, where the opposite-sign interactions pile
up mass that no linear flow can produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dyadic import DyadicPartition, eta, phi_profile
from .errors import DimensionError, DomainError, ResolutionError
from .grid import SpectralField, TorusGrid, check_alpha, pair_with_test_function
from .picard import second_iterate_hat, theta

__all__ = [
    "FamilySpec",
    "CascadeReport",
    "build_phi_N",
    "build_psi_N",
    "build_phi_NR",
    "build_family",
    "phi_hat_profile",
    "psi_hat_profile",
    "verify_cascade",
    "pairing_lower_bound",
]

_FAMILIES = ("phiN", "psiN", "phiNR")

# minimum lattice resolution inside the unit-width indicator intervals
_MAX_SPACING = 0.25


@dataclass(frozen=True)
class FamilySpec:
    """Validated recipe for one seed family member."""

    family: str
    n: int
    alpha: float
    r: Optional[float] = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(
                f"unknown family {self.family!r}; expected one of {_FAMILIES}")
        check_alpha(self.alpha)
        if self.n < 1:
            raise DomainError(f"family index N must be >= 1, got {self.n}")
        # below N = 3 the dyadic components 2^N..2^{2N} stop being disjoint
        if self.family == "psiN" and self.n < 3:
            raise DomainError(f"psiN needs N >= 3, got {self.n}")
        if self.family == "phiNR":
            if self.r is None or not self.r > 0:
                raise DomainError(f"phiNR needs R > 0, got {self.r}")


def _chi_pair(xi, lo: float, hi: float) -> np.ndarray:
    """chi_{[lo,hi]}(xi) + chi_{[lo,hi]}(-xi), midpoint value at the edges."""
    a = np.abs(np.asarray(xi, dtype=float))
    return np.where((a > lo) & (a < hi), 1.0,
                    np.where((a == lo) | (a == hi), 0.5, 0.0))


def phi_hat_profile(n: int, alpha: float) -> Callable:
    """The transform xi -> N^a (chi_{I_N}(xi) + chi_{I_N}(-xi))."""
    amp = float(n) ** alpha
    return lambda xi: amp * _chi_pair(xi, float(n), float(n) + 2.0)


def psi_hat_profile(n: int, alpha: float) -> Callable:
    """The transform of N^{-1/2} sum_{N <= j <= 2N} phi_{2^j}."""
    parts = [phi_hat_profile(2**j, alpha) for j in range(n, 2 * n + 1)]
    scale = 1.0 / np.sqrt(float(n))

    def profile(xi):
        acc = parts[0](xi)
        for p in parts[1:]:
            acc = acc + p(xi)
        return scale * acc

    return profile


def _require_band(grid: TorusGrid, top: float, what: str,
                  fine: bool = True) -> None:
    if grid.max_frequency < top:
        raise ResolutionError(
            f"{what} needs frequencies up to {top:g}; the grid band ends at "
            f"{grid.max_frequency:g}")
    # indicator profiles live on unit-width intervals and need several
    # lattice points inside each; the wide smooth bump does not
    if fine and grid.spacing > _MAX_SPACING:
        raise ResolutionError(
            f"{what} needs lattice spacing <= {_MAX_SPACING}, got "
            f"{grid.spacing:g}")


def _seed(grid: TorusGrid, parts) -> SpectralField:
    """Real seed with c_k = profile(xi_k) / lambda, where parts lists
    (lo, hi, profile) triples with disjoint supports lo <= |xi| <= hi.

    Each profile is evaluated on its support windows only and every other
    mode is zero, so the coefficients equal those of the dense profile
    bit for bit. The windows are added in, as 0 + v == v: a margin mode
    one part's window shares with another's gains only that part's 0."""
    coeffs = np.zeros(grid.mode_count, dtype=complex)
    xi = grid.frequencies
    for lo, hi, profile in parts:
        for sl in grid.support_windows(lo, hi):
            coeffs[sl] += profile(xi[sl]) / grid.period
    return SpectralField(grid, coeffs)


def build_phi_N(n: int, alpha: float, grid: TorusGrid) -> SpectralField:
    """Seed with transform N^a on +-[N, N+2]: c_k = phihat(xi_k) / lambda,
    evaluated on the support windows of +-[N, N+2] only."""
    FamilySpec("phiN", n, alpha)
    _require_band(grid, n + 2.0, "phi_N")
    return _seed(grid, [(n, n + 2.0, phi_hat_profile(n, alpha))])


def build_psi_N(n: int, alpha: float, grid: TorusGrid) -> SpectralField:
    """Normalized octave sum N^{-1/2} sum_{j=N}^{2N} phi_{2^j}.

    Each part phi_{2^j} is evaluated on its own windows around
    +-[2^j, 2^j+2]; the parts are disjoint for N >= 3, so every mode takes
    the one nonzero term of the dense sum, scaled as there."""
    FamilySpec("psiN", n, alpha)
    _require_band(grid, 2.0 ** (2 * n) + 2.0, "psi_N")
    scale = 1.0 / np.sqrt(float(n))
    parts = []
    for j in range(n, 2 * n + 1):
        profile = phi_hat_profile(2**j, alpha)
        parts.append((2.0**j, 2.0**j + 2.0,
                      lambda xi, p=profile: scale * p(xi)))
    return _seed(grid, parts)


def build_phi_NR(n: int, r: float, grid: TorusGrid,
                 partition: DyadicPartition) -> SpectralField:
    """Smooth bump seed R phi(2^{-N} xi); support exactly [2^N, 2^{N+2}],
    on whose windows alone the bump is evaluated."""
    FamilySpec("phiNR", n, 0.5, r=r)
    if partition.grid != grid:
        raise DimensionError("partition and grid disagree")
    _require_band(grid, 2.0 ** (n + 2), "phi_NR", fine=False)
    return _seed(grid, [(2.0**n, 2.0 ** (n + 2),
                         lambda xi: r * phi_profile(xi / 2.0**n))])


def build_family(spec: FamilySpec, grid: TorusGrid,
                 partition: DyadicPartition = None) -> SpectralField:
    if spec.family == "phiN":
        return build_phi_N(spec.n, spec.alpha, grid)
    if spec.family == "psiN":
        return build_psi_N(spec.n, spec.alpha, grid)
    if partition is None:
        raise DomainError("phiNR needs the dyadic partition that defines phi")
    return build_phi_NR(spec.n, spec.r, grid, partition)


@dataclass(frozen=True)
class CascadeReport:
    """Low-frequency second-iterate audit for one seed family member.

    min_value is the smallest transform value of A_2(t) over the scan of
    [-1/2, 1/2]; passes compares it against threshold minus the quadrature
    slack. theta brackets and the K_1 count audit the resonance geometry:
    opposite-sign splittings must carry |Theta| inside
    [N^{2a}, 2(N+2)^{2a}] and same-sign splittings must miss the lattice.
    """

    n: int
    alpha: float
    t: float
    scan: tuple
    values: tuple
    min_value: float
    threshold: float
    passes: bool
    theta_min: float
    theta_max: float
    theta_bracket_ok: bool
    k1_empty: bool


def verify_cascade(n: int, alpha: float, t: float, grid: TorusGrid,
                   quad_tol: float = 0.05) -> CascadeReport:
    """Check that A_2(t, phi_N) keeps order-one mass at |xi| <= 1/2."""
    check_alpha(alpha)
    if not 0 < t < 1:
        raise DomainError(f"cascade time must sit in (0, 1), got {t}")
    _require_band(grid, n + 2.0, "verify_cascade")
    profile = phi_hat_profile(n, alpha)
    scan = np.linspace(-0.5, 0.5, 21)
    values = second_iterate_hat(profile, t, scan, alpha, grid)
    threshold = 0.25 * np.exp(-t / 2.0)
    min_value = float(np.min(values))
    passes = min_value >= threshold * (1.0 - quad_tol)

    # resonance geometry on the lattice
    freqs = grid.frequencies
    pos = freqs[(freqs > n) & (freqs < n + 2.0)]
    lo, hi = float(n) ** (2 * alpha), 2.0 * (n + 2.0) ** (2 * alpha)
    theta_min, theta_max = np.inf, 0.0
    k1_hits = 0
    for xi in scan:
        # opposite-sign splittings: xi1 in I_N with xi - xi1 in -I_N
        other = xi - pos
        mask = (other > -(n + 2.0)) & (other < -float(n))
        if mask.any():
            th = np.abs(theta(xi, pos[mask], alpha))
            theta_min = min(theta_min, float(th.min()))
            theta_max = max(theta_max, float(th.max()))
        # same-sign splittings (either side) should find no lattice point
        k1_hits += int(np.sum((other > float(n)) & (other < n + 2.0)))
        neg_other = xi + pos  # xi - xi1 for xi1 in -I_N
        k1_hits += int(np.sum((-neg_other > float(n)) & (-neg_other < n + 2.0)))
    ok = theta_min >= lo * (1.0 - 1e-12) and theta_max <= hi * (1.0 + 1e-12)
    return CascadeReport(n, alpha, t, tuple(scan), tuple(values),
                         min_value, float(threshold), bool(passes),
                         float(theta_min), float(theta_max), bool(ok),
                         k1_hits == 0)


def pairing_lower_bound(n: int, alpha: float, t: float,
                        grid: TorusGrid) -> float:
    """Discrete pairing of A_2(t, phi_N) against the low-frequency bump
    g with ghat = eta(4 xi) (plateau on [-1/4, 1/4], support [-1/2, 1/2])."""
    check_alpha(alpha)
    if not 0 < t < 1:
        raise DomainError(f"pairing time must sit in (0, 1), got {t}")
    _require_band(grid, n + 2.0, "pairing_lower_bound")
    profile = phi_hat_profile(n, alpha)
    freqs = grid.frequencies
    low = np.abs(freqs) <= 0.5
    za = second_iterate_hat(profile, t, freqs[low], alpha, grid)
    coeffs = np.zeros(grid.mode_count, dtype=complex)
    coeffs[low] = za / (4.0 * np.pi * grid.period)
    field = SpectralField(grid, coeffs)
    return pair_with_test_function(field, lambda xi: eta(4.0 * xi))
