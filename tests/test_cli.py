import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fracheat
from fracheat.cli import main
from fracheat.experiments import _KEYS, EXPERIMENTS

# The directory that holds the imported package. The child runs in a
# temporary working directory, where a relative PYTHONPATH (e.g. "src")
# points at nothing, so it gets this absolute path in front.
PACKAGE_ROOT = str(Path(fracheat.__file__).resolve().parent.parent)


def run_cli(args, cwd, env_extra=None):
    env = dict(os.environ)
    env.pop("FRACHEAT_RESULTS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "fracheat.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def test_cli_pass_run_writes_artifacts(tmp_path):
    proc = run_cli(["semigroup-check"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "multiplier: pass" in proc.stdout
    assert "registry " in proc.stdout
    csvs = list((tmp_path / "results").glob("semigroup-check-*.csv"))
    assert len(csvs) == 1
    reg = (tmp_path / "registry.jsonl").read_text().splitlines()
    assert len(reg) == 1
    assert json.loads(reg[0])["passed"] is True


def test_cli_failing_verdict_exits_one(tmp_path):
    # an impossible tolerance turns a verdict red but is still a valid run
    proc = run_cli(["semigroup-check", "--tol", "1e-30"], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "FAIL" in proc.stdout
    # the record is persisted either way
    assert (tmp_path / "registry.jsonl").exists()


def test_cli_unknown_key_exits_two(tmp_path):
    proc = run_cli(["semigroup-check", "--bogus", "1"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "fracheat: error" in proc.stderr
    assert "semigroup-check.bogus" in proc.stderr
    assert not (tmp_path / "registry.jsonl").exists()


def test_cli_bad_value_exits_two(tmp_path):
    proc = run_cli(["semigroup-check", "--alpha", "chair"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "expected float" in proc.stderr


def test_cli_non_finite_value_exits_two(tmp_path):
    # an infinite horizon used to end in an OverflowError traceback and
    # exit 1, the code of a failed verdict
    proc = run_cli(["solve", "--T", "inf"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "solve.T" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "registry.jsonl").exists()


def test_cli_cross_key_rule_exits_two(tmp_path):
    # s2 < s passed validation and failed in the runner, naming no key
    proc = run_cli(["smoothing-check", "--s2", "-2"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "smoothing-check.s2" in proc.stderr
    assert not (tmp_path / "registry.jsonl").exists()


def test_cli_dangling_flag_exits_two(tmp_path):
    proc = run_cli(["semigroup-check", "--alpha"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "key value" in proc.stderr


def test_cli_unknown_experiment_exits_two(tmp_path):
    proc = run_cli(["nonesuch"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "invalid choice" in proc.stderr


def test_cli_missing_config_file_exits_two(tmp_path):
    proc = run_cli(["semigroup-check", "--config", "absent.cfg"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "fracheat: error" in proc.stderr


def test_cli_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 1e-30\n")
    proc = run_cli(["semigroup-check", "--config", str(cfg)], tmp_path)
    assert proc.returncode == 1, proc.stderr  # file tolerance is unreachable
    assert "FAIL" in proc.stdout
    proc = run_cli(["semigroup-check", "--config", str(cfg),
                    "--tol", "1e-9"], tmp_path)
    assert proc.returncode == 0, proc.stderr  # the flag wins over the file


def test_cli_results_env_redirects_output(tmp_path):
    out = tmp_path / "depot"
    proc = run_cli(["semigroup-check"], tmp_path,
                   env_extra={"FRACHEAT_RESULTS": str(out)})
    assert proc.returncode == 0, proc.stderr
    assert (out / "registry.jsonl").exists()
    assert not (tmp_path / "registry.jsonl").exists()


def test_help_lists_every_config_key_from_the_key_table(capsys):
    # the key table is the one declaration of the keys: every experiment's
    # defaults draw on it, and the usage text is built from it
    keys = [key for exp in EXPERIMENTS.values() for key in exp.defaults]
    assert set(keys) <= set(_KEYS)
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    missing = [key for key in _KEYS
               if not re.search(rf"^  {re.escape(key)}\s", out, re.M)]
    assert not missing, out
