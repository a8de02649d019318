"""Named experiment pipelines with persisted, re-runnable records.

run_experiment validates a flat key-value configuration, executes one of
the nine named pipelines, and wraps the measurements in an
ExperimentRecord: full parameter set, measured values, named pass/fail
verdicts. emit_report persists records three ways: one CSV table per
experiment, an append-only JSONL registry, and two-column plot series
(plus the phase-diagram grid file for well-posedness sweeps).

Sweep axes (the N range of a scaling run, the cells of the phase
diagram) are embarrassingly parallel; this implementation runs them
sequentially. Each emit_report call appends its registry lines with one
O_APPEND write, so concurrent writers, threads or processes, never
interleave within a call's lines.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from . import __version__
from .config import SolveConfig
from .dyadic import algebra_constant, besov_norm, sobolev_norm
from .errors import BudgetError, ConfigError, DomainError, ResolutionError
from .evolution import (dilation_rescale, fixed_point_solve, integral_residual,
                        smoothing_constant)
from .families import (FamilySpec, build_family, pairing_lower_bound,
                       phi_hat_profile, psi_hat_profile, require_band,
                       require_spacing, support_top, verify_cascade)
from .grid import SpectralField, TorusGrid, apply_semigroup, to_spectral
from .picard import hs_norm_from_hat_scan, picard_terms, second_iterate_hat

__all__ = [
    "BUDGET_MODES",
    "DEFAULT_SEED",
    "EXPERIMENT_NAMES",
    "ExperimentRecord",
    "ExponentFit",
    "boundary_index",
    "emit_report",
    "fit_exponent",
    "parse_config_file",
    "run_experiment",
    "validate_config",
]

DEFAULT_SEED = 0x5EED
# hard desk-scale grid budget; experiments refuse larger requests up front
BUDGET_MODES = 2 ** 22

# classifier slope above which a phase-diagram cell is called ill-posed
_ILL_SLOPE = 0.04

_SWEEP_ALPHAS = tuple(round(0.3 + 0.1 * i, 1) for i in range(8))
_SWEEP_S = tuple(-1.25 + 0.25 * i for i in range(8))


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares power law y ~ C x^slope on log-log axes.

    residual is the max absolute deviation of log y from the fitted line,
    i.e. the max relative deviation of y from the power law.
    """

    slope: float
    intercept: float
    residual: float
    n_points: int

    @property
    def flagged(self) -> bool:
        return self.residual > 0.2


def fit_exponent(pairs) -> ExponentFit:
    """Fit (log x, log y); needs >= 3 pairs, all coordinates positive."""
    pts = [(float(x), float(y)) for x, y in pairs]
    if len(pts) < 3:
        raise DomainError(f"exponent fit needs >= 3 points, got {len(pts)}")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise DomainError("exponent fit needs positive coordinates")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.max(np.abs(ly - (slope * lx + intercept))))
    return ExponentFit(float(slope), float(intercept), resid, len(pts))


@dataclass(frozen=True)
class ExperimentRecord:
    """One finished experiment: re-runnable from its own params field.

    values holds measured numbers; list-valued entries all share the
    record's sweep axis. verdicts are named boolean gates.
    """

    experiment: str
    timestamp: str
    params: Dict[str, object]
    values: Dict[str, object]
    verdicts: Dict[str, bool]
    version: str

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


# ---------------------------------------------------------------- config

class _Key(NamedTuple):
    """A config key's type and domain rule: a value passes when ok(value)
    holds, or always when ok is None; need says what the rule asks for."""

    type: type
    ok: Optional[Callable[[object], bool]] = None
    need: str = ""


_POSITIVE = _Key(float, lambda v: 0.0 < v < math.inf,
                 "must be positive and finite")
_FINITE = _Key(float, math.isfinite, "must be finite")

# every key any experiment takes; the CLI lists them in this order
_KEYS: Dict[str, _Key] = {
    "alpha": _Key(float, lambda a: 0.0 < a <= 1.0, "needs 0 < alpha <= 1"),
    "s": _FINITE, "s2": _FINITE,
    "q": _Key(float, lambda q: q >= 1.0, "needs q >= 1"),
    "family": _Key(str, lambda f: f in ("phiN", "psiN", "phiNR"),
                   "needs phiN, psiN or phiNR"),
    "N_min": _Key(int, lambda n: n >= 1, "needs N >= 1"),
    "N_max": _Key(int),
    "lambda": _Key(float, lambda p: 1.0 <= p < math.inf,
                   "needs a finite period >= 1"),
    "modes": _Key(int, lambda m: m >= 4 and not m & (m - 1),
                  "needs a power of two >= 4"),
    "dt": _POSITIVE, "T": _POSITIVE, "tol": _POSITIVE,
    "seed": _Key(int, lambda n: n >= 0, "must be nonnegative"),
    "sign": _Key(int, lambda v: v in (-1, 0, 1), "must be -1, 0, or +1"),
    "norm": _Key(float, lambda v: 0.0 <= v < math.inf,
                 "target norm must be finite and >= 0"),
    "sweep": _Key(int, lambda v: v in (0, 1), "must be 0 or 1"),
}


def parse_config_file(path) -> Dict[str, str]:
    """Flat config text: one `key = value` per line, '#' starts a comment."""
    out: Dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, val = line.partition("=")
        else:
            key, _, val = line.partition(" ")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {raw!r}")
        out[key] = val
    return out


def _check_domains(name: str, exp: "_Experiment",
                   cfg: Dict[str, object]) -> None:
    def bad(key, msg):
        raise ConfigError(f"{name}.{key}: {msg}")

    # every key's rule from the table, then the experiment's narrower
    # ones; each reads the whole config and names the key it reports
    rules = [(key, lambda c, key=key: _KEYS[key].ok(c[key]), _KEYS[key].need)
             for key in cfg if _KEYS[key].ok is not None]
    for key, ok, need in rules + list(exp.rules):
        if not ok(cfg):
            bad(key, f"{need}, got {cfg[key]!r}")
    ns = exp.sweep(cfg)
    if len(ns) < exp.least:
        bad("N_max", f"needs {exp.least} or more N values, got {len(ns)} "
                     f"from N_min={cfg['N_min']} to N_max={cfg['N_max']}")
    # the last member's grid is the largest the sweep builds; its mode
    # count is weighed in log2, before the grid or 2^N is formed
    n_last = ns[-1] if len(ns) else None
    log2_modes = exp.shape(cfg, n_last)[1]
    if log2_modes > BUDGET_MODES.bit_length() - 1:
        key = "modes" if "modes" in cfg else "N_max"
        raise BudgetError(f"{name}.{key}: the grid needs 2^{log2_modes} "
                          f"modes, over the desk budget {BUDGET_MODES}")
    grid = exp.grid(cfg, n_last)
    if "dt" in cfg:
        # the solver's own rules: a whole step count, and the stability
        # gate on this grid's band
        try:
            conf = SolveConfig(alpha=cfg["alpha"], T=cfg["T"], dt=cfg["dt"])
            conf.check_stability(grid.max_frequency)
        except ConfigError as exc:
            bad("dt", str(exc))
        # a trajectory holds every mode at each of the n_steps + 1 nodes
        entries = (conf.n_steps + 1) * grid.mode_count
        if entries > BUDGET_MODES:
            raise BudgetError(
                f"{name}.dt: a trajectory of {conf.n_steps + 1} nodes x "
                f"{grid.mode_count} modes holds {entries} entries, over the "
                f"desk budget {BUDGET_MODES}")
    if exp.seed is None:
        return
    # the family builders' own rules, on the grid of the last seed:
    # FamilySpec's on the first and last seeds, the band on the last; the
    # spacing does not depend on N
    try:
        first, last = exp.seed(cfg, ns[0]), exp.seed(cfg, n_last)
    except DomainError as exc:
        bad("N_min", str(exc))
    try:
        require_spacing(grid, first.family, first.family)
    except ResolutionError as exc:
        bad("lambda", str(exc))
    try:
        top = support_top(last.family, last.n)
    except OverflowError:  # past the float range, so past any band
        top = math.inf
    try:
        require_band(grid, top, last.family)
    except ResolutionError as exc:
        bad("N_max" if "N_max" in cfg else "N_min", str(exc))


def validate_config(name: str, overrides: Optional[Mapping] = None) -> Dict:
    """Merge overrides into the experiment's defaults, typed and checked.

    Raises ConfigError naming the offending `experiment.key` path, or
    BudgetError for admissible-but-oversized grids.
    """
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; expected one of "
                          f"{', '.join(EXPERIMENT_NAMES)}")
    exp = EXPERIMENTS[name]
    cfg = dict(exp.defaults)
    for key, raw in dict(overrides or {}).items():
        if key not in cfg:
            raise ConfigError(f"{name}.{key}: unknown key; this experiment "
                              f"takes {sorted(cfg)}")
        want = _KEYS[key].type
        try:
            cfg[key] = want(raw)
            if want is int and not isinstance(raw, str) and cfg[key] != raw:
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{name}.{key}: expected {want.__name__}, "
                              f"got {raw!r}") from None
    _check_domains(name, exp, cfg)
    return cfg


# ------------------------------------------------------------- pipelines

def _shape(cfg, n: Optional[int] = None) -> Tuple[float, int]:
    """The config's one grid: period lambda and log2 of modes."""
    return cfg["lambda"], cfg["modes"].bit_length() - 1


def _run_semigroup(cfg, exp) -> Tuple[dict, dict]:
    g = exp.grid(cfg)
    rng = np.random.default_rng(cfg["seed"])
    u = to_spectral(rng.standard_normal(g.mode_count), g)
    a, t, tol = cfg["alpha"], cfg["T"], cfg["tol"]
    direct = u.coeffs * np.exp(-t * np.abs(g.frequencies) ** (2.0 * a))
    scale = float(np.max(np.abs(direct)))
    mult_err = float(np.max(np.abs(apply_semigroup(u, t, a).coeffs - direct)))
    mult_err /= scale
    two = apply_semigroup(apply_semigroup(u, 0.3 * t, a), 0.7 * t, a)
    law_err = float(np.max(np.abs(two.coeffs - direct))) / scale
    ident = apply_semigroup(u, 0.0, a)
    id_err = float(np.max(np.abs(ident.coeffs - u.coeffs)))
    id_err /= float(np.max(np.abs(u.coeffs)))
    values = {"multiplier_error": mult_err, "semigroup_error": law_err,
              "identity_error": id_err}
    verdicts = {"multiplier": mult_err < tol, "semigroup": law_err < tol,
                "identity": id_err < tol}
    return values, verdicts


def _run_besov_scaling(cfg, exp) -> Tuple[dict, dict]:
    g = exp.grid(cfg)
    a, s, q = cfg["alpha"], cfg["s"], cfg["q"]
    ns = list(exp.sweep(cfg))
    expected = a + s if cfg["family"] == "phiN" else -0.5 + 1.0 / q
    norms = [besov_norm(build_family(exp.seed(cfg, n), g), s, q).value
             for n in ns]
    fit = fit_exponent(zip(ns, norms))
    values = {"N": ns, "norm": norms, "slope": fit.slope,
              "intercept": fit.intercept, "residual": fit.residual,
              "flagged": fit.flagged, "expected_slope": expected}
    verdicts = {"slope_matches": abs(fit.slope - expected) <= cfg["tol"]}
    return values, verdicts


def _run_smoothing(cfg, exp) -> Tuple[dict, dict]:
    g = exp.grid(cfg)
    ts = [cfg["T"] / 100.0, cfg["T"] / 10.0, cfg["T"]]
    consts = [smoothing_constant(cfg["s"], cfg["s2"], cfg["alpha"], t, grid=g)
              for t in ts]
    mean = float(np.mean(consts))
    dev = float(np.max(np.abs(np.asarray(consts) - mean))) / mean
    values = {"t": ts, "constant": consts, "mean": mean,
              "max_deviation": dev}
    verdicts = {"stable": dev <= cfg["tol"]}
    return values, verdicts


def _family_datum(cfg, exp, grid: TorusGrid) -> SpectralField:
    [n] = exp.sweep(cfg)
    u0 = build_family(exp.seed(cfg, n), grid)
    target = cfg["norm"]
    if target > 0.0:
        cur = besov_norm(u0, cfg["s"], cfg["q"]).value
        u0 = u0.copy_with(u0.coeffs * (target / cur))
    return u0


def _run_solve(cfg, exp) -> Tuple[dict, dict]:
    g = exp.grid(cfg)
    u0 = _family_datum(cfg, exp, g)
    conf = SolveConfig(alpha=cfg["alpha"], sign=cfg["sign"], T=cfg["T"],
                       dt=cfg["dt"], picard_tol=cfg["tol"], s=cfg["s"],
                       q=cfg["q"])
    traj, report = fixed_point_solve(u0, conf)
    node_l2 = np.sqrt(g.period * np.sum(np.abs(traj.coeffs) ** 2, axis=1))
    blew_up = report.blowup_time is not None
    residual = math.inf if blew_up else integral_residual(traj, u0, conf)
    contraction = max(report.contraction_factors, default=0.0)
    values = {"time": [float(t) for t in traj.times],
              "solution_l2": [float(v) for v in node_l2],
              "n_iter": report.n_iter,
              "max_contraction": contraction,
              "residual": residual,
              "blowup_time": report.blowup_time if blew_up else math.nan,
              "diff_norms": ";".join(f"{d:.6g}" for d in report.diff_norms)}
    verdicts = {"converged": report.converged,
                "residual_certified": residual < 10.0 * cfg["tol"]}
    return values, verdicts


def boundary_index(alpha: float) -> float:
    """The well-posedness floor s(alpha) = max(-alpha, 1/2 - 2 alpha)."""
    return max(-alpha, 0.5 - 2.0 * alpha)


def _classify_cells(alpha: float, ss, ns, grid: TorusGrid,
                    t_max: float) -> List[Tuple[List[float], float]]:
    """(rho(N), growth exponent) for each s of ss, where rho(N) =
    max_t ||A_2(t)||_{H^s} / ||data||^2 and every s reads one A_2 per N.

    Data is the amplitude-one indicator pair on +-[N, N+2]; A_2 comes from
    the closed-form quadrature on a nonnegative scan. Bounded rho marks a
    contraction-friendly cell, power growth marks an ill-posed one. The
    time scan reaches down to 1e-5 so the short-time inflation window
    T_N ~ 2^{-N} of the double-critical corner stays inside it.
    """
    ts = np.geomspace(1e-5, t_max, 9)
    rhos = [[] for _ in ss]
    for n in ns:
        profile = phi_hat_profile(n, 0.0)
        band = np.linspace(float(n), n + 2.0, 401)
        top = 2.0 * (n + 2.0) + 1.0
        scan = np.linspace(0.0, top, int(8 * top) + 1)
        za = second_iterate_hat(profile, ts, scan, alpha, grid)
        for s, rho in zip(ss, rhos):
            den2 = np.trapezoid((1.0 + band**2) ** s, band) / np.pi  # +-band
            rho.append(max(hs_norm_from_hat_scan(scan, z, s) / den2
                           for z in za))
    return [(rho, fit_exponent(zip(ns, rho)).slope) for rho in rhos]


def _run_wellposed(cfg, exp) -> Tuple[dict, dict]:
    g = exp.grid(cfg)
    ns = list(exp.sweep(cfg))
    if not cfg["sweep"]:
        [(rhos, slope)] = _classify_cells(cfg["alpha"], [cfg["s"]], ns, g,
                                          cfg["T"])
        ill = slope >= _ILL_SLOPE
        b = boundary_index(cfg["alpha"])
        near = abs(cfg["s"] - b) <= cfg["tol"] + 1e-12
        values = {"N": ns, "rho": rhos, "slope": slope,
                  "classification": "ill" if ill else "well", "boundary": b}
        verdicts = {"matches_theory": bool(near or ill == (cfg["s"] < b))}
        return values, verdicts
    alphas, ss, slopes, classes = [], [], [], []
    mismatches = 0
    corner_ill = False
    for a in _SWEEP_ALPHAS:
        cells = _classify_cells(a, _SWEEP_S, ns, g, cfg["T"])
        for s, (_, slope) in zip(_SWEEP_S, cells):
            ill = slope >= _ILL_SLOPE
            alphas.append(a)
            ss.append(s)
            slopes.append(slope)
            classes.append("ill" if ill else "well")
            if a == 0.5 and s == -0.5:
                corner_ill = ill
            b = boundary_index(a)
            if abs(s - b) <= 0.25 + 1e-9:
                continue  # within one grid cell of the theoretical line
            if ill != (s < b):
                mismatches += 1
    values = {"alpha": alphas, "s": ss, "slope": slopes,
              "classification": classes, "mismatches": mismatches}
    verdicts = {"boundary_within_one_cell": mismatches == 0,
                "corner_ill": corner_ill}
    return values, verdicts


def _run_cascade(cfg, exp) -> Tuple[dict, dict]:
    g = exp.grid(cfg)
    ns = list(exp.sweep(cfg))
    reports = [verify_cascade(n, cfg["alpha"], cfg["T"], g,
                              quad_tol=cfg["tol"]) for n in ns]
    pairings = [pairing_lower_bound(n, cfg["alpha"], cfg["T"], g) for n in ns]
    values = {"N": ns,
              "min_value": [r.min_value for r in reports],
              "theta_min": [r.theta_min for r in reports],
              "theta_max": [r.theta_max for r in reports],
              "pairing": pairings,
              "threshold": reports[0].threshold}
    verdicts = {"cascade_floor": all(r.passes for r in reports),
                "theta_bracket": all(r.theta_bracket_ok for r in reports),
                "no_same_sign_hits": all(r.k1_empty for r in reports)}
    return values, verdicts


def _run_endpoint_cascade(cfg, exp) -> Tuple[dict, dict]:
    g = exp.grid(cfg)
    a, q, t = cfg["alpha"], cfg["q"], cfg["T"]
    ns = list(exp.sweep(cfg))
    norms = [besov_norm(build_family(exp.seed(cfg, n), g), -a, q).value
             for n in ns]
    scan = np.linspace(-0.5, 0.5, 21)
    zmins = [float(np.min(second_iterate_hat(psi_hat_profile(n, a), t, scan,
                                             a, g))) for n in ns]
    threshold = 0.25 * math.exp(-t / 2.0)
    values = {"N": ns, "norm": norms, "za_min": zmins,
              "threshold": threshold}
    verdicts = {"data_norms_shrink": bool(np.all(np.diff(norms) < 0)),
                "cascade_floor": all(z >= (1.0 - cfg["tol"]) * threshold
                                     for z in zmins)}
    return values, verdicts


def _inflation_shape(cfg, n: int) -> Tuple[float, int]:
    """norm-inflation's grid for member N: period 4 and 2^(N+4) modes, so
    the band pi 2^(N+2) holds the bump's support [2^N, 2^(N+2)]."""
    return 4.0, n + 4


def _run_norm_inflation(cfg, exp) -> Tuple[dict, dict]:
    """The calibrated small-data/short-time schedule at alpha = 1/2.

    Per N: estimate the modulation algebra constant C0 on the N-window,
    set R = N^{-1/4} ln N and T_N = (8 C0 2^N)^{-1}, march the first 12
    Picard terms of the bump datum, and form the inflation surrogate
    L(N) = ||A_2(T_N)|| - ||S(T_N) phi|| - sum_{k>=3} ||A_k(T_N)|| in
    H^{-1/2}.
    """
    k_terms = 12
    ns = list(exp.sweep(cfg))
    c0s, rs, t_ns = [], [], []
    phi_norms, free_norms, a2_norms, tails, surrogate = [], [], [], [], []
    for n in ns:
        g = exp.grid(cfg, n)
        c0 = algebra_constant(g, n, seed=cfg["seed"]).c0
        spec = exp.seed(cfg, n)
        t_n = 1.0 / (8.0 * c0 * 2.0 ** n)
        steps = 64
        # keep dt under the exponential-trapezoid stability gate
        while t_n / steps * g.max_frequency ** (2 * cfg["alpha"]) > 8.0:
            steps *= 2
        u0 = build_family(spec, g)
        conf = SolveConfig(alpha=cfg["alpha"], sign=1, T=t_n, dt=t_n / steps)
        ends = picard_terms(u0, k_terms, conf,
                            final=lambda f: sobolev_norm(f, -0.5))
        tail = float(sum(ends[2:]))
        c0s.append(c0)
        rs.append(spec.r)
        t_ns.append(t_n)
        phi_norms.append(sobolev_norm(u0, -0.5))
        free_norms.append(ends[0])
        a2_norms.append(ends[1])
        tails.append(tail)
        surrogate.append(ends[1] - ends[0] - tail)
    rate = [L / math.log(n) ** 2 for L, n in zip(surrogate, ns)]
    grows = bool(np.all(np.diff(surrogate) > 0))
    shrinks = bool(np.all(np.diff(phi_norms) < 0))
    bracket = (min(rate) > 0
               and max(rate) / min(rate) <= cfg["tol"])
    values = {"N": ns, "c0": c0s, "R": rs, "T_N": t_ns,
              "phi_norm": phi_norms, "free_norm": free_norms,
              "a2_norm": a2_norms, "tail": tails, "L": surrogate,
              "rate": rate}
    verdicts = {"phi_norm_decreasing": shrinks, "L_increasing": grows,
                "rate_bracket": bracket}
    return values, verdicts


def _run_dilation_check(cfg, exp) -> Tuple[dict, dict]:
    a = cfg["alpha"]
    cfg = dict(cfg, s=-a, q=2.0)  # the dilation bound lives in B^{-alpha,2}
    g = exp.grid(cfg)
    u0 = _family_datum(cfg, exp, g)
    conf = SolveConfig(alpha=a, sign=cfg["sign"], T=cfg["T"], dt=cfg["dt"],
                       picard_tol=1e-10, s=-a, q=2.0)
    traj, report = fixed_point_solve(u0, conf)
    base = besov_norm(u0, -a, 2.0).value
    lam_ds, residuals, ratios, bounds = [], [], [], []
    for lam_d in (0.5, 0.25, 0.125):
        scale = lam_d ** (2.0 * a)
        rt = dilation_rescale(traj, lam_d, a)
        ru0 = rt.field(0)
        rconf = SolveConfig(alpha=a, sign=cfg["sign"], T=cfg["T"] / scale,
                            dt=cfg["dt"] / scale, picard_tol=1e-10,
                            s=-a, q=2.0)
        lam_ds.append(lam_d)
        residuals.append(integral_residual(rt, ru0, rconf))
        ratios.append(besov_norm(ru0, -a, 2.0).value / base)
        bounds.append((1.0 + cfg["tol"]) * lam_d ** (a - 0.5))
    values = {"lambda_d": lam_ds, "residual": residuals, "ratio": ratios,
              "bound": bounds, "base_norm": base}
    verdicts = {"base_converged": report.converged,
                "rescaled_solves": all(r < 1e-8 for r in residuals),
                "besov_bound": all(r <= b for r, b in zip(ratios, bounds))}
    return values, verdicts


# ------------------------------------------------------------ dispatcher

def _direct(cfg, step: int = 1) -> range:
    """The sweep N_min, N_min + step, ... up to N_max."""
    return range(cfg["N_min"], cfg["N_max"] + 1, step)


class _Dyadic(Sequence):
    """The sweep 2^j for j = N_min..N_max, each value made when read, as
    _direct's range does: validation reads any sweep's length and ends."""

    def __init__(self, cfg):
        self.js = _direct(cfg)

    def __len__(self) -> int:
        return len(self.js)

    def __getitem__(self, i: int):
        j = self.js[i]
        # 2^1024 is past the float range, so past any grid band: such a
        # member reads as inf, which validation refuses on the band,
        # before the integer is formed
        return 2 ** j if j < 1024 else math.inf


def _configured_seed(cfg, n: int) -> FamilySpec:
    """Member n of the config's family; a phiNR datum has R = 1."""
    r = 1.0 if cfg["family"] == "phiNR" else None
    return FamilySpec(cfg["family"], n, cfg["alpha"], r=r)


@dataclass(frozen=True)
class _Experiment:
    """One pipeline and its declarations, which run(cfg, exp) and
    validate_config both read."""

    defaults: Dict[str, object]
    run: Callable[[dict, "_Experiment"], Tuple[dict, dict]]
    sweep: Callable[[dict], Sequence[int]] = lambda cfg: []  # N values run
    least: int = 0  # how many N values the verdicts need
    # the FamilySpec of member n's seed, built on grid(cfg, n); None: none
    seed: Optional[Callable[[dict, int], FamilySpec]] = None
    # member n's grid as (period, log2 of the mode count)
    shape: Callable[[dict, Optional[int]], Tuple[float, int]] = _shape
    # (key, ok(cfg), need) rules that narrow _KEYS' rules for this
    # experiment; a failed one is reported under key
    rules: Tuple[Tuple[str, Callable[[dict], bool], str], ...] = ()

    def grid(self, cfg, n: Optional[int] = None) -> TorusGrid:
        period, log2_modes = self.shape(cfg, n)
        return TorusGrid(period, 2 ** log2_modes)


EXPERIMENTS: Dict[str, _Experiment] = {
    "semigroup-check": _Experiment(
        {"alpha": 0.75, "T": 0.5, "lambda": 64.0, "modes": 4096,
         "tol": 1e-12, "seed": DEFAULT_SEED},
        _run_semigroup),
    "besov-scaling": _Experiment(
        {"family": "phiN", "alpha": 0.75, "s": -0.75, "q": 2.0,
         "N_min": 6, "N_max": 12, "lambda": 128.0, "modes": 2 ** 19,
         "tol": 0.05, "seed": DEFAULT_SEED},
        _run_besov_scaling,
        sweep=lambda cfg: (_Dyadic if cfg["family"] == "phiN"
                           else _direct)(cfg),
        least=3, seed=_configured_seed,
        rules=(("family", lambda cfg: cfg["family"] in ("phiN", "psiN"),
                "needs phiN or psiN, the families with scaling laws"),)),
    "smoothing-check": _Experiment(
        {"alpha": 1.0, "s": -1.0, "s2": 0.0, "T": 0.1, "lambda": 64.0,
         "modes": 8192, "tol": 0.1, "seed": DEFAULT_SEED},
        _run_smoothing,
        rules=(("s2", lambda cfg: cfg["s2"] >= cfg["s"],
                "the smoothing estimate needs s2 >= s"),)),
    "solve": _Experiment(
        {"family": "phiN", "N_min": 8, "alpha": 0.75, "s": -0.75, "q": 2.0,
         "norm": 0.01, "sign": 1, "lambda": 32.0, "modes": 512,
         "dt": 0.015625, "T": 1.0, "tol": 1e-8, "seed": DEFAULT_SEED},
        _run_solve, sweep=lambda cfg: [cfg["N_min"]], least=1,
        seed=_configured_seed),
    "wellposed-scaling": _Experiment(
        {"alpha": 0.75, "s": -0.5, "sweep": 0, "N_min": 7, "N_max": 12,
         "lambda": 64.0, "modes": 2048, "T": 0.5, "tol": 0.25,
         "seed": DEFAULT_SEED},
        _run_wellposed, sweep=_direct, least=3,
        # its datum is the amplitude-one phi_N pair on +-[N, N+2], whose
        # support does not depend on alpha
        seed=lambda cfg, n: FamilySpec("phiN", n, cfg["alpha"])),
    "cascade": _Experiment(
        {"alpha": 0.75, "N_min": 9, "N_max": 12, "T": 0.5, "lambda": 32.0,
         "modes": 2 ** 17, "tol": 0.05, "seed": DEFAULT_SEED},
        _run_cascade, sweep=_Dyadic, least=1,
        seed=lambda cfg, n: FamilySpec("phiN", n, cfg["alpha"]),
        rules=(("T", lambda cfg: cfg["T"] < 1.0,
                "the cascade time must sit in (0, 1)"),)),
    "endpoint-cascade": _Experiment(
        {"alpha": 0.75, "q": 4.0, "N_min": 3, "N_max": 6, "T": 0.5,
         "lambda": 128.0, "modes": 2 ** 19, "tol": 0.05,
         "seed": DEFAULT_SEED},
        _run_endpoint_cascade, sweep=_direct, least=2,
        seed=lambda cfg, n: FamilySpec("psiN", n, cfg["alpha"]),
        rules=(("q", lambda cfg: cfg["q"] > 2.0,
                "the endpoint contrast needs q > 2"),)),
    "norm-inflation": _Experiment(
        {"alpha": 0.5, "N_min": 8, "N_max": 16, "tol": 4.0,
         "seed": DEFAULT_SEED},
        _run_norm_inflation, sweep=lambda cfg: _direct(cfg, 2), least=2,
        seed=lambda cfg, n: FamilySpec("phiNR", n, cfg["alpha"],
                                       r=n ** -0.25 * math.log(n)),
        shape=_inflation_shape),
    "dilation-check": _Experiment(
        {"family": "phiN", "N_min": 8, "alpha": 0.75, "norm": 0.01,
         "sign": 1, "lambda": 32.0, "modes": 512, "dt": 0.015625,
         "T": 0.25, "tol": 0.05, "seed": DEFAULT_SEED},
        _run_dilation_check, sweep=lambda cfg: [cfg["N_min"]], least=1,
        seed=_configured_seed),
}

EXPERIMENT_NAMES = tuple(EXPERIMENTS)


def run_experiment(name: str, config: Optional[Mapping] = None
                   ) -> ExperimentRecord:
    """Validate, execute, and wrap one named experiment."""
    cfg = validate_config(name, config)
    exp = EXPERIMENTS[name]
    values, verdicts = exp.run(cfg, exp)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return ExperimentRecord(name, stamp, cfg, values,
                            {k: bool(v) for k, v in verdicts.items()},
                            __version__)


# ------------------------------------------------------------ persistence

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "pass" if x else "fail"
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _csv_text(name: str, group: List[ExperimentRecord]) -> str:
    params = list(EXPERIMENTS[name].defaults)
    val_keys = list(group[0].values)
    verd_keys = list(group[0].verdicts)
    cols = ["experiment", "timestamp", "version"] + params + val_keys \
        + verd_keys
    lines = [",".join(cols)]
    for rec in group:
        lists = {k: v for k, v in rec.values.items() if isinstance(v, list)}
        n_rows = max((len(v) for v in lists.values()), default=1)
        for i in range(n_rows):
            row = [rec.experiment, rec.timestamp, rec.version]
            row += [_fmt(rec.params[k]) for k in params]
            for k in val_keys:
                v = rec.values[k]
                row.append(_fmt(v[i]) if isinstance(v, list) else _fmt(v))
            row += [_fmt(rec.verdicts[k]) for k in verd_keys]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _registry_line(rec: ExperimentRecord) -> str:
    payload = {"experiment": rec.experiment, "timestamp": rec.timestamp,
               "version": rec.version, "params": rec.params,
               "values": rec.values, "verdicts": rec.verdicts,
               "passed": rec.passed}
    return json.dumps(payload, sort_keys=True)


def _series(path_stem: str, xs, ys) -> Tuple[str, str]:
    body = "".join("%.17g %.17g\n" % (float(x), float(y))
                   for x, y in zip(xs, ys))
    return path_stem + ".dat", body


def _plot_series(rec: ExperimentRecord) -> List[Tuple[str, str]]:
    name, v = rec.experiment, rec.values
    if name == "besov-scaling":
        stem = f"{name}-{rec.params['family']}-q{rec.params['q']:g}"
        return [_series(stem, v["N"], v["norm"])]
    if name == "smoothing-check":
        return [_series(f"{name}-constant", v["t"], v["constant"])]
    if name == "solve":
        return [_series(f"{name}-l2", v["time"], v["solution_l2"])]
    if name == "wellposed-scaling":
        if "rho" in v:
            return [_series(f"{name}-rho", v["N"], v["rho"])]
        rows = "".join(f"{a:g} {s:g} {c}\n" for a, s, c in
                       zip(v["alpha"], v["s"], v["classification"]))
        return [(f"{name}-phase-diagram.dat", rows)]
    if name == "cascade":
        return [_series(f"{name}-min", v["N"], v["min_value"]),
                _series(f"{name}-pairing", v["N"], v["pairing"])]
    if name == "endpoint-cascade":
        return [_series(f"{name}-norm", v["N"], v["norm"]),
                _series(f"{name}-za", v["N"], v["za_min"])]
    if name == "norm-inflation":
        return [_series(f"{name}-L", v["N"], v["L"]),
                _series(f"{name}-phi", v["N"], v["phi_norm"]),
                _series(f"{name}-rate", v["N"], v["rate"])]
    if name == "dilation-check":
        return [_series(f"{name}-ratio", v["lambda_d"], v["ratio"])]
    return []


def _write_atomic(path: Path, text: str) -> None:
    # per-writer temp-plus-rename: no partial file, no shared temporary
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def emit_report(records: Iterable[ExperimentRecord],
                out_root=None) -> Dict[str, object]:
    """Persist records: CSV per experiment, JSONL registry, plot series.

    Output root is out_root, else $FRACHEAT_RESULTS, else the working
    directory. Returns the written paths. A CSV is named
    <experiment>-<timestamp>-<first 8 hex digits of the sha256 of its
    text>.csv. Registry lines are appended, never rewritten; CSV and plot
    files are replaced atomically.
    """
    recs = list(records)
    if not recs:
        raise DomainError("emit_report needs at least one record")
    root = Path(out_root if out_root is not None
                else os.environ.get("FRACHEAT_RESULTS") or ".")
    (root / "results").mkdir(parents=True, exist_ok=True)
    (root / "plots").mkdir(parents=True, exist_ok=True)
    written: Dict[str, object] = {"csv": [], "plots": [],
                                  "registry": str(root / "registry.jsonl")}
    by_name: Dict[str, List[ExperimentRecord]] = {}
    for rec in recs:
        by_name.setdefault(rec.experiment, []).append(rec)
    # imported on first use: hashlib loads OpenSSL, about 4 ms that every
    # `import fracheat` would pay even when nothing is emitted
    import hashlib
    for name, group in by_name.items():
        text = _csv_text(name, group)
        # the content digest keeps two records of one second apart, and
        # re-emitting the same records rewrites the same file
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]
        path = root / "results" / f"{name}-{group[0].timestamp}-{digest}.csv"
        _write_atomic(path, text)
        written["csv"].append(str(path))
    # one write on an O_APPEND descriptor; a short write is not retried,
    # since a second write could interleave with another writer's lines
    data = "".join(_registry_line(rec) + "\n" for rec in recs).encode("utf-8")
    fd = os.open(root / "registry.jsonl",
                 os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        n = os.write(fd, data)
    finally:
        os.close(fd)
    if n != len(data):
        raise OSError(f"short registry append: wrote {n} of {len(data)} bytes")
    for rec in recs:
        for fname, body in _plot_series(rec):
            path = root / "plots" / fname
            _write_atomic(path, body)
            written["plots"].append(str(path))
    return written
