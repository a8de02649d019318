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


class _Profile:
    """An elementwise frequency profile given as parts (lo, hi, f): each f
    is exactly 0 off lo <= |xi| <= hi, and the supports are disjoint.

    Calling it sums the parts, so at any xi it takes the one nonzero
    part's value. Builders and second_iterate_hat read parts to evaluate
    each f on the support windows of its interval only.
    """

    def __init__(self, parts):
        self.parts = tuple(parts)

    def __call__(self, xi):
        (_, _, first), *rest = self.parts
        acc = first(xi)
        for _, _, f in rest:
            acc = acc + f(xi)
        return acc


def phi_hat_profile(n: int, alpha: float) -> Callable:
    """The transform xi -> N^a (chi_{I_N}(xi) + chi_{I_N}(-xi)), one part
    on N <= |xi| <= N+2."""
    amp = float(n) ** alpha
    return _Profile([(float(n), n + 2.0,
                      lambda xi: amp * _chi_pair(xi, float(n), n + 2.0))])


def psi_hat_profile(n: int, alpha: float) -> Callable:
    """The transform of N^{-1/2} sum_{N <= j <= 2N} phi_{2^j}, one scaled
    part per j; the parts are disjoint for N >= 3."""
    scale = 1.0 / np.sqrt(float(n))
    parts = []
    for j in range(n, 2 * n + 1):
        lo, hi, f = phi_hat_profile(2**j, alpha).parts[0]
        parts.append((lo, hi, lambda xi, f=f: scale * f(xi)))
    return _Profile(parts)


def support_top(family: str, n: int) -> float:
    """The largest |xi| the seed of family member n reaches."""
    if family == "phiN":
        return n + 2.0
    if family == "psiN":
        return 2.0 ** (2 * n) + 2.0
    return 2.0 ** (n + 2)


def require_band(grid: TorusGrid, top: float, what: str) -> None:
    """Raise ResolutionError unless the grid band reaches |xi| = top."""
    if grid.max_frequency < top:
        raise ResolutionError(
            f"{what} needs frequencies up to {top:g}; the grid band ends at "
            f"{grid.max_frequency:g}")


def require_spacing(grid: TorusGrid, family: str, what: str) -> None:
    """Raise ResolutionError unless the lattice resolves the family: the
    indicator families (phiN, psiN) live on unit-width intervals and need
    several lattice points inside each; the wide smooth bump does not."""
    if family != "phiNR" and grid.spacing > _MAX_SPACING:
        raise ResolutionError(
            f"{what} needs lattice spacing <= {_MAX_SPACING}, got "
            f"{grid.spacing:g}")


def _seed(grid: TorusGrid, parts) -> SpectralField:
    """Real seed with c_k = profile(xi_k) / lambda, where parts lists
    (lo, hi, profile) triples with disjoint supports lo <= |xi| <= hi.

    Each profile is evaluated on its support windows only, and those
    values are the field's pieces: every other mode is zero and is never
    allocated. The coefficients equal those of the dense profile bit for
    bit. A margin mode one part's window shares with another's gains only
    that part's 0, as the pieces are added (0 + v == v)."""
    return SpectralField.windowed(grid, [
        (sl, profile(grid.frequencies_at(sl)) / grid.period)
        for lo, hi, profile in parts for sl in grid.support_windows(lo, hi)])


# the name each family's seed takes in error messages
_SEED_NAMES = {"phiN": "phi_N", "psiN": "psi_N", "phiNR": "phi_NR"}


def build_family(spec: FamilySpec, grid: TorusGrid) -> SpectralField:
    """The seed of family member spec on grid (see _seed); raises
    ResolutionError unless the grid's band and spacing hold it."""
    n, what = spec.n, _SEED_NAMES[spec.family]
    require_band(grid, support_top(spec.family, n), what)
    require_spacing(grid, spec.family, what)
    if spec.family == "phiN":
        parts = phi_hat_profile(n, spec.alpha).parts
    elif spec.family == "psiN":
        parts = psi_hat_profile(n, spec.alpha).parts
    else:  # the bump R phi(2^{-N} xi), support exactly [2^N, 2^{N+2}]
        parts = [(2.0**n, 2.0 ** (n + 2),
                  lambda xi: spec.r * phi_profile(xi / 2.0**n))]
    return _seed(grid, parts)


def build_phi_N(n: int, alpha: float, grid: TorusGrid) -> SpectralField:
    """Seed with transform N^a on +-[N, N+2]."""
    return build_family(FamilySpec("phiN", n, alpha), grid)


def build_psi_N(n: int, alpha: float, grid: TorusGrid) -> SpectralField:
    """Normalized octave sum N^{-1/2} sum_{j=N}^{2N} phi_{2^j}."""
    return build_family(FamilySpec("psiN", n, alpha), grid)


def build_phi_NR(n: int, r: float, grid: TorusGrid,
                 partition: DyadicPartition) -> SpectralField:
    """Smooth bump seed R phi(2^{-N} xi); partition must be the grid's."""
    spec = FamilySpec("phiNR", n, 0.5, r=r)
    if partition.grid != grid:
        raise DimensionError("partition and grid disagree")
    return build_family(spec, grid)


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
    require_band(grid, support_top("phiN", n), "verify_cascade")
    require_spacing(grid, "phiN", "verify_cascade")
    profile = phi_hat_profile(n, alpha)
    scan = np.linspace(-0.5, 0.5, 21)
    values = second_iterate_hat(profile, t, scan, alpha, grid)
    threshold = 0.25 * np.exp(-t / 2.0)
    min_value = float(np.min(values))
    passes = min_value >= threshold * (1.0 - quad_tol)

    # resonance geometry on the lattice: the points of I_N, read from the
    # k >= 0 window of +-I_N
    near = grid.frequencies_at(grid.support_windows(n, n + 2.0)[0])
    pos = near[(near > n) & (near < n + 2.0)]
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
    require_band(grid, support_top("phiN", n), "pairing_lower_bound")
    require_spacing(grid, "phiN", "pairing_lower_bound")
    profile = phi_hat_profile(n, alpha)
    # the field is A_2 on the modes |xi_k| <= 1/2 and 0 on the other modes
    # of their windows, which are its pieces
    windows = grid.support_windows(0.0, 0.5)
    xi = np.concatenate([grid.frequencies_at(sl) for sl in windows])
    low = np.abs(xi) <= 0.5
    values = np.zeros(xi.size, dtype=complex)
    values[low] = second_iterate_hat(profile, t, xi[low], alpha, grid) / (
        4.0 * np.pi * grid.period)
    ends = np.cumsum([sl.stop - sl.start for sl in windows])[:-1]
    field = SpectralField.windowed(grid, zip(windows, np.split(values, ends)))
    return pair_with_test_function(field, lambda xi: eta(4.0 * xi))
