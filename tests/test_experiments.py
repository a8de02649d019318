import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

import fracheat
from fracheat import experiments
from fracheat.errors import BudgetError, ConfigError, DomainError
from fracheat.experiments import (
    EXPERIMENT_NAMES,
    EXPERIMENTS,
    ExperimentRecord,
    boundary_index,
    emit_report,
    fit_exponent,
    parse_config_file,
    run_experiment,
    validate_config,
)
from fracheat.grid import SpectralField, TorusGrid
from fracheat.picard import second_iterate_hat

from conftest import log_cached_builds


# ------------------------------------------------------------- exponent fit

def test_fit_exponent_exact_power():
    xs = np.arange(1.0, 9.0)
    fit = fit_exponent(zip(xs, xs ** 2))
    assert abs(fit.slope - 2.0) < 1e-12
    assert abs(fit.intercept) < 1e-12
    assert fit.residual < 1e-12
    assert fit.n_points == 8
    assert not fit.flagged


def test_fit_exponent_prefactor_lands_in_intercept():
    xs = np.array([2.0, 4.0, 8.0, 16.0])
    fit = fit_exponent(zip(xs, 7.0 * xs ** -0.5))
    assert abs(fit.slope + 0.5) < 1e-12
    assert abs(fit.intercept - math.log(7.0)) < 1e-12


def test_fit_exponent_tolerates_small_noise(rng):
    xs = np.arange(2.0, 20.0)
    for _ in range(20):
        ys = xs ** 2 * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, xs.size))
        fit = fit_exponent(zip(xs, ys))
        assert abs(fit.slope - 2.0) < 0.05
        assert not fit.flagged


def test_fit_exponent_flags_outlier():
    xs = np.arange(1.0, 9.0)
    ys = xs ** 2
    ys[3] *= 3.0  # one bad point, residual way over the 0.2 flag line
    fit = fit_exponent(zip(xs, ys))
    assert fit.flagged


def test_fit_exponent_rejects_bad_input():
    with pytest.raises(DomainError):
        fit_exponent([(1.0, 1.0), (2.0, 4.0)])
    with pytest.raises(DomainError):
        fit_exponent([(1.0, 1.0), (2.0, 4.0), (3.0, -9.0)])
    with pytest.raises(DomainError):
        fit_exponent([(0.0, 1.0), (2.0, 4.0), (3.0, 9.0)])


# ------------------------------------------------------------------ config

def test_validate_config_returns_typed_defaults():
    cfg = validate_config("semigroup-check")
    assert cfg == EXPERIMENTS["semigroup-check"].defaults
    cfg["alpha"] = -100.0  # a copy, not the registry entry
    assert EXPERIMENTS["semigroup-check"].defaults["alpha"] == 0.75


def test_validate_config_casts_string_overrides():
    cfg = validate_config("semigroup-check",
                          {"alpha": "0.9", "modes": "1024", "seed": "7"})
    assert cfg["alpha"] == 0.9 and isinstance(cfg["alpha"], float)
    assert cfg["modes"] == 1024 and isinstance(cfg["modes"], int)
    assert cfg["seed"] == 7


def test_validate_config_names_the_offending_key():
    with pytest.raises(ConfigError, match="semigroup-check.bogus"):
        validate_config("semigroup-check", {"bogus": "1"})
    with pytest.raises(ConfigError, match="expected float"):
        validate_config("semigroup-check", {"alpha": "chair"})
    with pytest.raises(ConfigError, match="expected int"):
        validate_config("semigroup-check", {"modes": "1.5"})
    # a float through the library API: int() would truncate the first
    # three and overflow on the last
    for name, key, raw in (("cascade", "N_max", 12.9),
                           ("semigroup-check", "modes", 4096.5),
                           ("semigroup-check", "seed", 3.7),
                           ("cascade", "N_max", float("inf"))):
        with pytest.raises(ConfigError, match=f"{name}.{key}: expected int"):
            validate_config(name, {key: raw})
    cfg = validate_config("cascade", {"N_max": 12.0})
    assert cfg["N_max"] == 12 and type(cfg["N_max"]) is int
    with pytest.raises(ConfigError, match="unknown experiment"):
        validate_config("nonesuch")


def test_validate_config_domain_checks():
    with pytest.raises(ConfigError, match="semigroup-check.alpha"):
        validate_config("semigroup-check", {"alpha": "0"})
    with pytest.raises(ConfigError, match="solve.sign"):
        validate_config("solve", {"sign": "2"})
    with pytest.raises(ConfigError, match="solve.family"):
        validate_config("solve", {"family": "waves"})
    with pytest.raises(ConfigError, match="besov-scaling.N_max"):
        validate_config("besov-scaling", {"N_min": "9", "N_max": "6"})
    with pytest.raises(ConfigError, match="wellposed-scaling.sweep"):
        validate_config("wellposed-scaling", {"sweep": "3"})
    # both used to pass here and fail later in TorusGrid, naming no key
    with pytest.raises(ConfigError, match="solve.lambda"):
        validate_config("solve", {"lambda": "0.5"})
    with pytest.raises(ConfigError, match="solve.modes"):
        validate_config("solve", {"modes": "500"})
    # these passed here and failed in SolveConfig or the stability gate,
    # naming no key
    with pytest.raises(ConfigError, match="solve.dt: T/dt"):
        validate_config("solve", {"dt": "0.03"})
    with pytest.raises(ConfigError, match="dilation-check.dt: T/dt"):
        validate_config("dilation-check", {"dt": "0.03"})
    with pytest.raises(ConfigError, match="solve.dt: .*stability gate"):
        validate_config("solve", {"dt": "0.5"})
    # these passed here and failed after the first norms, in the seed
    # builders, naming no key
    with pytest.raises(ConfigError, match="besov-scaling.N_max: .*16386"):
        validate_config("besov-scaling", {"N_max": "14"})
    with pytest.raises(ConfigError, match="besov-scaling.N_max: psiN"):
        validate_config("besov-scaling", {"family": "psiN"})
    with pytest.raises(ConfigError, match="endpoint-cascade.N_max"):
        validate_config("endpoint-cascade", {"N_max": "8"})
    with pytest.raises(ConfigError, match="cascade.N_max"):
        validate_config("cascade", {"N_max": "20"})
    with pytest.raises(ConfigError, match="cascade.N_max: .*up to inf"):
        validate_config("cascade", {"N_max": "2000"})  # 2^2000 overflows
    # this passed here and failed in the quadrature at N = 99, after the
    # cells for N = 7..98: the band of (64, 2048) ends at 100.53, inside
    # +-[99, 101]
    validate_config("wellposed-scaling", {"N_max": "98"})
    with pytest.raises(ConfigError,
                       match="wellposed-scaling.N_max: phiN .*up to 101;"):
        validate_config("wellposed-scaling", {"N_max": "99"})
    with pytest.raises(ConfigError, match="besov-scaling.lambda: .*spacing"):
        validate_config("besov-scaling", {"lambda": "1"})
    # these passed here and failed in FamilySpec, naming no key
    with pytest.raises(ConfigError, match="endpoint-cascade.N_min: psiN"):
        validate_config("endpoint-cascade", {"N_min": "2"})
    with pytest.raises(ConfigError, match="solve.N_min: psiN"):
        validate_config("solve", {"family": "psiN", "N_min": "2"})
    with pytest.raises(ConfigError, match="dilation-check.N_min: psiN"):
        validate_config("dilation-check", {"family": "psiN", "N_min": "2"})
    with pytest.raises(ConfigError, match="besov-scaling.N_min: psiN"):
        validate_config("besov-scaling",
                        {"family": "psiN", "N_min": "2", "N_max": "4"})
    with pytest.raises(ConfigError, match="norm-inflation.N_min: phiNR"):
        validate_config("norm-inflation", {"N_min": "1"})
    # these passed here with too few N for their verdicts: a lone N read as
    # a trend, or a fit that failed after the whole pipeline, naming no key
    with pytest.raises(ConfigError, match="norm-inflation.N_max: .*got 1"):
        validate_config("norm-inflation", {"N_max": "9"})
    with pytest.raises(ConfigError, match="endpoint-cascade.N_max: .*got 1"):
        validate_config("endpoint-cascade", {"N_min": "4", "N_max": "4"})
    with pytest.raises(ConfigError, match="besov-scaling.N_max: .*got 2"):
        validate_config("besov-scaling", {"N_min": "6", "N_max": "7"})
    with pytest.raises(ConfigError, match="wellposed-scaling.N_max: .*got 2"):
        validate_config("wellposed-scaling", {"N_min": "7", "N_max": "8"})
    # these passed here and ran on non-finite values: solve died in
    # SolveConfig with an OverflowError, wellposed-scaling called an
    # infinite horizon ill-posed and passed, smoothing-check wrote NaN
    # constants, and semigroup-check passed on an infinite-period torus
    with pytest.raises(ConfigError, match="solve.T: .*finite, got inf"):
        validate_config("solve", {"T": "inf"})
    with pytest.raises(ConfigError, match="wellposed-scaling.T"):
        validate_config("wellposed-scaling", {"T": "inf"})
    with pytest.raises(ConfigError, match="smoothing-check.T"):
        validate_config("smoothing-check", {"T": "inf"})
    with pytest.raises(ConfigError, match="semigroup-check.lambda"):
        validate_config("semigroup-check", {"lambda": "inf"})
    for key in ("s", "s2"):
        with pytest.raises(ConfigError, match=f"smoothing-check.{key}:"):
            validate_config("smoothing-check", {key: "nan"})
    for key in ("tol", "norm"):
        with pytest.raises(ConfigError, match=f"solve.{key}:"):
            validate_config("solve", {key: "inf"})
    # q = inf is the Besov index q = infinity
    validate_config("besov-scaling", {"q": "inf"})
    # these passed here and failed in the runner
    with pytest.raises(ConfigError, match="cascade.T: .*in \\(0, 1\\)"):
        validate_config("cascade", {"T": "1"})
    with pytest.raises(ConfigError, match="besov-scaling.family"):
        validate_config("besov-scaling", {"family": "phiNR"})
    with pytest.raises(ConfigError, match="endpoint-cascade.q"):
        validate_config("endpoint-cascade", {"q": "2"})
    # a rule across two keys: this failed in smoothing_constant, naming
    # no key
    with pytest.raises(ConfigError, match="smoothing-check.s2: .*s2 >= s"):
        validate_config("smoothing-check", {"s2": "-2"})
    validate_config("smoothing-check", {"s2": "-1"})


def test_validate_config_reads_only_the_ends_of_a_sweep():
    # a long N range is refused on its last seed's band, or on its last
    # grid's budget; the sweep's values are made when read, so validation
    # builds no list of them, and a dyadic member 2^N or a grid's 2^N modes
    # is weighed by its exponent, so no such integer is formed
    band = (ConfigError, "N_max: .*up to inf")
    for name, n_max, (exc, match) in (
            ("endpoint-cascade", 10 ** 6, band),
            ("cascade", 20000, band),
            ("cascade", 10 ** 7, band),
            ("besov-scaling", 10 ** 7, band),
            ("wellposed-scaling", 10 ** 7,
             (ConfigError, r"N_max: .*up to 1e\+07;")),
            ("norm-inflation", 10 ** 7,
             (BudgetError, r"N_max: the grid needs 2\^10000004 modes"))):
        tracemalloc.start()
        try:
            with pytest.raises(exc, match=f"{name}.{match}"):
                validate_config(name, {"N_max": str(n_max)})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, (name, n_max, peak)


def test_validate_config_budget_gate():
    with pytest.raises(BudgetError):
        validate_config("semigroup-check", {"modes": str(2 ** 23)})
    # norm-inflation sizes its own grids from its sweep's last N, checked
    # up front: N_max = 19 runs N = 8, 10, ..., 18, whose last grid has
    # 2^22 modes, the budget
    with pytest.raises(BudgetError, match="N_max"):
        validate_config("norm-inflation", {"N_max": "20"})
    validate_config("norm-inflation", {"N_max": "19"})
    validate_config("norm-inflation", {"N_max": "18"})
    # a trajectory holds (T/dt + 1) x modes entries; at dt = 1e-6 that is
    # 8.2 GB for solve's free flow alone. The defaults hold 65 x 512 and
    # 17 x 512
    for name in ("solve", "dilation-check"):
        with pytest.raises(BudgetError, match=f"{name}.dt: .*entries"):
            validate_config(name, {"dt": "1e-6"})
        validate_config(name)


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment line\n"
                 "alpha = 0.9\n"
                 "\n"
                 "modes 1024\n"
                 "T = 0.5   # horizon\n")
    assert parse_config_file(p) == {"alpha": "0.9", "modes": "1024",
                                    "T": "0.5"}


def test_parse_config_file_reports_bad_line(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("alpha = 0.9\nmodes = 512\ndangling\n")
    with pytest.raises(ConfigError, match=":3:"):
        parse_config_file(p)


# --------------------------------------------------------------- pipelines

@pytest.fixture(scope="module")
def semigroup_record():
    return run_experiment("semigroup-check")


@pytest.fixture(scope="module")
def solve_record():
    return run_experiment("solve")


def test_semigroup_record_shape(semigroup_record):
    rec = semigroup_record
    assert rec.passed
    assert rec.experiment == "semigroup-check"
    assert rec.version == fracheat.__version__
    assert set(rec.params) == set(EXPERIMENTS["semigroup-check"].defaults)
    datetime.strptime(rec.timestamp, "%Y%m%dT%H%M%SZ")  # stamp parses back
    for key in ("multiplier_error", "semigroup_error", "identity_error"):
        assert rec.values[key] < 1e-12


def test_semigroup_record_is_deterministic(semigroup_record):
    again = run_experiment("semigroup-check")
    assert again.values == semigroup_record.values
    assert again.verdicts == semigroup_record.verdicts


def test_besov_scaling_phi_family():
    rec = run_experiment("besov-scaling", {"lambda": "64", "modes": str(2 ** 17),
                                           "N_min": "6", "N_max": "10"})
    assert rec.passed
    assert rec.values["expected_slope"] == 0.0  # alpha + s at the defaults
    assert abs(rec.values["slope"]) <= 0.05
    assert rec.values["N"] == [64, 128, 256, 512, 1024]
    assert len(rec.values["norm"]) == 5


def test_besov_scaling_psi_family():
    # q = 2 collapse: slope -1/2 + 1/q = 0, fine lattice keeps it there
    rec = run_experiment("besov-scaling", {"family": "psiN", "N_min": "3",
                                           "N_max": "6", "tol": "0.1"})
    assert rec.passed
    assert rec.values["expected_slope"] == 0.0
    assert abs(rec.values["slope"]) <= 0.1


def test_besov_scaling_rejects_phi_nr():
    with pytest.raises(ConfigError, match="family"):
        run_experiment("besov-scaling", {"family": "phiNR"})


def test_smoothing_pipeline():
    rec = run_experiment("smoothing-check")
    assert rec.passed
    assert len(rec.values["t"]) == len(rec.values["constant"]) == 3
    assert rec.values["max_deviation"] <= 0.1


def test_solve_pipeline(solve_record):
    rec = solve_record
    assert rec.passed
    n_nodes = round(rec.params["T"] / rec.params["dt"]) + 1
    assert len(rec.values["time"]) == len(rec.values["solution_l2"]) == n_nodes
    assert math.isnan(rec.values["blowup_time"])
    assert rec.values["max_contraction"] < 0.5
    assert ";" in rec.values["diff_norms"]
    assert rec.values["residual"] < 10.0 * rec.params["tol"]


def test_boundary_index_has_the_corner():
    assert boundary_index(1.0) == -1.0
    assert boundary_index(0.75) == -0.75
    assert boundary_index(0.5) == -0.5  # both mechanisms meet here
    assert boundary_index(0.3) == pytest.approx(-0.1)


def test_wellposed_single_cell_well():
    rec = run_experiment("wellposed-scaling", {"alpha": "1.0", "s": "0.0"})
    assert rec.values["classification"] == "well"
    assert rec.passed


def test_wellposed_single_cell_ill():
    rec = run_experiment("wellposed-scaling", {"alpha": "0.3", "s": "-1.0"})
    assert rec.values["classification"] == "ill"
    assert rec.passed
    assert rec.values["slope"] > 0.04


def test_wellposed_cell_makes_one_quadrature_call_per_n(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return second_iterate_hat(*args, **kwargs)

    monkeypatch.setattr(experiments, "second_iterate_hat", counted)
    rec = run_experiment("wellposed-scaling", {})
    assert rec.values["N"] == [7, 8, 9, 10, 11, 12]
    assert len(calls) == 6
    assert all(np.shape(t) == (9,) for t in calls)


def test_cascade_pipeline():
    rec = run_experiment("cascade", {"N_min": "9", "N_max": "10",
                                     "modes": str(2 ** 16)})
    assert rec.passed
    assert rec.values["N"] == [512, 1024]
    assert rec.values["threshold"] > 0
    assert all(m >= rec.values["threshold"] for m in rec.values["min_value"])
    assert all(p > 0 for p in rec.values["pairing"])


def test_endpoint_cascade_pipeline():
    rec = run_experiment("endpoint-cascade")
    assert rec.passed
    norms = rec.values["norm"]
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert rec.values["threshold"] > 0


def test_endpoint_cascade_needs_q_above_two():
    with pytest.raises(ConfigError, match="q"):
        run_experiment("endpoint-cascade", {"q": "2"})


def test_norm_inflation_reduced_schedule():
    rec = run_experiment("norm-inflation", {"N_max": "10"})
    v = rec.values
    assert v["N"] == [8, 10]
    for key in ("c0", "R", "T_N", "phi_norm", "free_norm", "a2_norm",
                "tail", "L", "rate"):
        assert len(v[key]) == 2
    assert all(c > 0 for c in v["c0"])
    assert all(L > 0 for L in v["L"])
    assert rec.verdicts["L_increasing"]
    assert rec.verdicts["rate_bracket"]
    # the data norm grows with N on this schedule; the verdict records that
    assert not rec.verdicts["phi_norm_decreasing"]
    assert v["phi_norm"][1] > v["phi_norm"][0]


def test_dilation_check_pipeline():
    rec = run_experiment("dilation-check")
    assert rec.passed
    a = rec.params["alpha"]
    for lam, ratio in zip(rec.values["lambda_d"], rec.values["ratio"]):
        assert ratio == pytest.approx(lam ** (a - 0.5), rel=0.02)
    assert rec.values["base_norm"] > 0


def test_windowed_experiments_build_no_whole_lattice(monkeypatch):
    # their seeds, Besov blocks, quadrature nodes, pairings and smoothing
    # probe modes read xi_k through frequencies_at, so none of their grids
    # (2^19, 2^17, 2^19 and 8192 modes) builds the whole-lattice
    # frequencies; and their seeds and pairing fields are read on their
    # pieces alone, so none is widened to a dense spectrum
    built = log_cached_builds(monkeypatch, TorusGrid, "frequencies")
    densified = log_cached_builds(monkeypatch, SpectralField, "coeffs")
    for experiment in ("besov-scaling", "cascade", "endpoint-cascade",
                       "smoothing-check"):
        assert run_experiment(experiment).passed
    assert not built, built
    assert not densified, densified


# ------------------------------------------------------------- persistence

def test_emit_report_writes_csv_and_registry(tmp_path, semigroup_record):
    written = emit_report([semigroup_record], out_root=tmp_path)
    [csv_name] = written["csv"]
    csv_path = Path(csv_name)
    assert csv_path.parent == tmp_path / "results"
    assert re.fullmatch(
        rf"semigroup-check-{semigroup_record.timestamp}-[0-9a-f]{{8}}\.csv",
        csv_path.name)
    assert written["plots"] == []  # scalar-only experiment, nothing to plot
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("experiment,timestamp,version,alpha,")
    assert lines[1].startswith("semigroup-check,")
    assert lines[1].endswith("pass,pass,pass")
    reg = (tmp_path / "registry.jsonl").read_text().splitlines()
    assert len(reg) == 1
    payload = json.loads(reg[0])
    assert payload["passed"] is True
    assert payload["experiment"] == "semigroup-check"
    assert payload["values"] == semigroup_record.values


def test_emit_report_is_append_only_and_reproducible(tmp_path,
                                                     semigroup_record):
    first = emit_report([semigroup_record], out_root=tmp_path)
    csv_path = Path(first["csv"][0])
    before = csv_path.read_bytes()
    emit_report([semigroup_record], out_root=tmp_path)
    assert csv_path.read_bytes() == before  # rewrite is byte-identical
    reg = (tmp_path / "registry.jsonl").read_text().splitlines()
    assert len(reg) == 2 and reg[0] == reg[1]


def test_emit_report_expands_list_values(tmp_path, solve_record):
    written = emit_report([solve_record], out_root=tmp_path)
    [csv_name] = written["csv"]
    csv_path = Path(csv_name)
    assert re.fullmatch(rf"solve-{solve_record.timestamp}-[0-9a-f]{{8}}\.csv",
                        csv_path.name)
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 1 + len(solve_record.values["time"])
    # scalar columns repeat on every expanded row
    ver_col = lines[0].split(",").index("version")
    assert {row.split(",")[ver_col] for row in lines[1:]} \
        == {fracheat.__version__}
    plot = tmp_path / "plots" / "solve-l2.dat"
    assert plot.exists()
    assert len(plot.read_text().splitlines()) \
        == len(solve_record.values["time"])


def test_emit_report_respects_results_env(tmp_path, monkeypatch,
                                          semigroup_record):
    monkeypatch.setenv("FRACHEAT_RESULTS", str(tmp_path / "elsewhere"))
    written = emit_report([semigroup_record])
    assert written["registry"] == str(tmp_path / "elsewhere" /
                                      "registry.jsonl")
    assert (tmp_path / "elsewhere" / "results").is_dir()


def test_emit_report_needs_records():
    with pytest.raises(DomainError):
        emit_report([])


def test_emit_report_unwritable_root_leaves_no_partials(tmp_path,
                                                        semigroup_record):
    blocker = tmp_path / "depot"
    blocker.write_text("a file where the output root should go")
    with pytest.raises(OSError):
        emit_report([semigroup_record], out_root=blocker)
    assert blocker.read_text().startswith("a file")
    # a root that dies mid-write keeps no .tmp leftovers either
    root = tmp_path / "ok"
    emit_report([semigroup_record], out_root=root)
    assert not list(root.rglob("*.tmp"))


# Appends n_calls x per_call registry lines of more than 8 KB each to one
# root, after waiting until both writers are ready; argv: root, one-letter
# tag, n_calls, per_call.
_APPEND_WORKER = """
import sys, time
from pathlib import Path
from fracheat.experiments import ExperimentRecord, emit_report, validate_config
root, tag, n_calls, per_call = sys.argv[1], sys.argv[2], *map(int, sys.argv[3:])
params = validate_config("semigroup-check")
(Path(root) / (tag + ".ready")).touch()
while len(list(Path(root).glob("*.ready"))) < 2:
    time.sleep(0.001)
for i in range(n_calls):
    emit_report([ExperimentRecord("semigroup-check", f"{tag}{i:04d}", params,
                                  {"pad": tag * 9000, "j": j}, {"ok": True},
                                  "0") for j in range(per_call)],
                out_root=root)
"""


def _run_two_writers(worker, root, *args):
    """Run `worker` in two processes, tagged a and b; each must exit 0."""
    package_root = str(Path(fracheat.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    procs = [subprocess.Popen([sys.executable, "-c", worker, str(root), tag,
                               *map(str, args)],
                              env=env, stderr=subprocess.PIPE, text=True)
             for tag in "ab"]
    for proc in procs:
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err


def test_emit_report_concurrent_processes_keep_registry_lines_whole(tmp_path):
    n_calls, per_call = 200, 3
    _run_two_writers(_APPEND_WORKER, tmp_path, n_calls, per_call)
    lines = (tmp_path / "registry.jsonl").read_text().splitlines()
    assert len(lines) == 2 * n_calls * per_call
    for line in lines:
        payload = json.loads(line)
        tag = payload["timestamp"][0]
        assert payload["values"]["pad"] == tag * 9000


# Emits n_calls single semigroup-check records, all with one timestamp, into
# one root after both writers are ready, so both replace the same CSV file;
# argv: root, one-letter tag, n_calls.
_SAME_STAMP_WORKER = """
import sys, time
from pathlib import Path
from fracheat.experiments import ExperimentRecord, emit_report, validate_config
root, tag, n_calls = sys.argv[1], sys.argv[2], int(sys.argv[3])
params = validate_config("semigroup-check")
(Path(root) / (tag + ".ready")).touch()
while len(list(Path(root).glob("*.ready"))) < 2:
    time.sleep(0.001)
for i in range(n_calls):
    emit_report([ExperimentRecord("semigroup-check", "20260101T000000Z", params,
                                  {"writer": tag, "i": i}, {"ok": True}, "0")],
                out_root=root)
"""


def test_emit_report_same_timestamp_processes_both_complete(tmp_path):
    # both writers emit semigroup-check records stamped 20260101T000000Z;
    # a shared temporary name made the loser raise FileNotFoundError
    n_calls = 300
    _run_two_writers(_SAME_STAMP_WORKER, tmp_path, n_calls)
    lines = (tmp_path / "registry.jsonl").read_text().splitlines()
    got = sorted((p["values"]["writer"], p["values"]["i"])
                 for p in map(json.loads, lines))
    want = [(tag, i) for tag in "ab" for i in range(n_calls)]
    assert got == want
    # every record keeps its own CSV: one header and its one row
    rows = [_single_row(csv) for csv in
            (tmp_path / "results").glob("semigroup-check-*.csv")]
    assert sorted((r["writer"], int(r["i"])) for r in rows) == want
    assert not list(tmp_path.rglob("*.tmp"))


def _single_row(csv_path):
    """{column: cell} of a CSV holding a header and one row."""
    header, row = csv_path.read_text().splitlines()
    return dict(zip(header.split(","), row.split(",")))


def test_emit_report_two_records_in_one_second_keep_both_csvs(
        tmp_path, semigroup_record):
    # same experiment and timestamp, different seeds: the second emit must
    # not replace the first record's CSV
    other = replace(semigroup_record,
                    params=dict(semigroup_record.params, seed=2))
    first = emit_report([semigroup_record], out_root=tmp_path)["csv"]
    second = emit_report([other], out_root=tmp_path)["csv"]
    csvs = sorted(str(p) for p in (tmp_path / "results").glob("*.csv"))
    assert len(csvs) == 2 and csvs == sorted(first + second)
    assert {_single_row(Path(p))["seed"] for p in csvs} \
        == {str(semigroup_record.params["seed"]), "2"}


def test_phase_diagram_plot_rows(tmp_path):
    params = validate_config("wellposed-scaling", {"sweep": "1"})
    rec = ExperimentRecord(
        "wellposed-scaling", "20260819T000000Z", params,
        {"alpha": [0.5, 1.0], "s": [-0.5, 0.0], "slope": [0.2, 0.0],
         "classification": ["ill", "well"], "mismatches": 0},
        {"boundary_within_one_cell": True, "corner_ill": True}, "0.0")
    emit_report([rec], out_root=tmp_path)
    rows = (tmp_path / "plots" / "wellposed-scaling-phase-diagram.dat") \
        .read_text().splitlines()
    assert rows == ["0.5 -0.5 ill", "1 0 well"]


def test_experiment_names_cover_registry():
    assert set(EXPERIMENT_NAMES) == set(EXPERIMENTS)
    for name in EXPERIMENT_NAMES:
        assert validate_config(name)  # every default set is self-consistent
