"""Self-tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench

They run the cheap `solve` experiment, never a whole workload.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import check  # noqa: E402
import run  # noqa: E402
from fracheat import experiments  # noqa: E402


@pytest.fixture
def emitted(tmp_path):
    """One solve record emitted to two roots, and a reference made from it."""
    rec = experiments.run_experiment("solve", {"seed": 3})
    experiments.emit_report([rec], out_root=tmp_path / "a")
    experiments.emit_report([rec], out_root=tmp_path / "b")
    ref = json.loads(json.dumps({"values": rec.values,
                                 "verdicts": rec.verdicts}))
    refs = {"jobs": {"solve": {"*": ref}}}
    return tmp_path, refs


def _check(tmp_path, refs, seed=3):
    return check.check_sample(refs, [("solve", "solve", {})], seed,
                              tmp_path / "a", tmp_path / "b")


def test_matching_record_passes(emitted):
    tmp_path, refs = emitted
    assert _check(tmp_path, refs) == (1, 0, [])


@pytest.mark.parametrize("perturb", [
    lambda r: r["values"].__setitem__(
        "max_contraction", r["values"]["max_contraction"] * (1 + 1e-6)),
    lambda r: r["values"]["solution_l2"].__setitem__(
        3, r["values"]["solution_l2"][3] * (1 + 1e-6)),
    lambda r: r["values"].__setitem__("n_iter", r["values"]["n_iter"] + 1),
    lambda r: r["verdicts"].__setitem__("converged", False),
])
def test_perturbed_reference_fails_the_record(emitted, perturb):
    tmp_path, refs = emitted
    bad = copy.deepcopy(refs)
    perturb(bad["jobs"]["solve"]["*"])
    attempted, failed, notes = _check(tmp_path, bad)
    assert (attempted, failed) == (1, 1)
    assert notes and notes[0].startswith("solve: ")


def test_csv_that_differs_between_roots_fails(emitted):
    tmp_path, refs = emitted
    csv = next((tmp_path / "b" / "results").glob("*.csv"))
    csv.write_bytes(csv.read_bytes().replace(b"pass", b"fail", 1))
    assert _check(tmp_path, refs)[1] == 1


def test_unreferenced_seed_checks_shared_verdicts_only():
    refs = {"jobs": {"norm-inflation N_max=12": {
        "0": {"values": {}, "verdicts": {"a": True, "b": False}},
        "1": {"values": {}, "verdicts": {"a": True, "b": True}}}}}
    ref, note = check.reference_for(refs, "norm-inflation N_max=12", 7)
    assert ref == {"verdicts": {"a": True}}
    assert "seed 7 has no reference" in note


def test_diff_norm_text_compares_numerically():
    assert check._same("1.23457e-05;2e-10", "1.234570e-05;2e-10")
    assert not check._same("1.3e-05;2e-10", "1.2e-05;2e-10")
    assert not check._same("ill", "well")


def _in_child(code):
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                         capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": f"{SRC}:{HERE}",
                              "PYTHONDONTWRITEBYTECODE": "1"})
    return json.loads(out.stdout.splitlines()[-1])


def test_fft_counters_count_calls_points_and_flops():
    got = _in_child(
        "import json, numpy as np, tracer\n"
        "t = tracer.Tracer(); t.install_fft_counters()\n"
        "np.fft.ifft(np.fft.fft(np.zeros(8)))\n"
        "np.fft.rfft(np.zeros((3, 16)))\n"
        "np.fft.irfft(np.zeros(9, complex))\n"
        "print(json.dumps(t.snapshot()))\n")
    assert got["fft"] == {"c2c": {"calls": 2, "points": 16},
                          "r2c": {"calls": 2, "points": 64}}
    # 2 * 5*8*3 for c2c; 3 * 2.5*16*4 + 2.5*16*4 for r2c
    assert got["fft_flops"] == 240 + 480 + 160


def test_layers_wrap_every_binding_and_report_absent_names():
    got = _in_child(
        "import json, tracer\n"
        "tracer.LAYERS['grid.gone'] = ('fracheat.grid', ('no_such_fn',), {})\n"
        "t = tracer.Tracer()\n"
        "import fracheat\n"
        "from fracheat import experiments, picard\n"
        "t.install_layers()\n"
        "same = experiments.picard_terms is picard.picard_terms "
        "is fracheat.picard_terms\n"
        "experiments.run_experiment('solve')\n"
        "snap = t.snapshot()\n"
        "snap['same'] = same and experiments.picard_terms.__wrapped__ "
        "is not picard.picard_terms\n"
        "print(json.dumps(snap))\n")
    assert got["same"]
    assert got["absent"] == ["fracheat.grid.no_such_fn"]
    solve = got["layers"]["evolution.fixed_point_solve"]
    assert solve["calls"] == 1 and solve["iterations"] >= 1
    assert solve["self_s"] <= solve["busy_s"]


def test_counter_that_cannot_read_its_call_is_reported_not_raised():
    got = _in_child(
        "import json, tracer\n"
        "tracer.LAYERS['evolution.fixed_point_solve'][2]['broken'] = "
        "lambda args, kwargs, result: args[99]\n"
        "t = tracer.Tracer()\n"
        "from fracheat import experiments\n"
        "t.install_layers()\n"
        "experiments.run_experiment('solve')\n"
        "experiments.run_experiment('solve')\n"
        "print(json.dumps(t.snapshot()))\n")
    assert got["absent"] == ["evolution.fixed_point_solve.broken"]
    solve = got["layers"]["evolution.fixed_point_solve"]
    assert solve["calls"] == 2 and solve["broken"] == 0
    assert solve["iterations"] >= 2


def test_probe_that_cannot_be_called_is_reported_absent(monkeypatch):
    import probes
    monkeypatch.setattr(probes, "PROBES", {
        "probe.gone_s": (1, lambda fh, rng: fh.no_such_entry_point),
        "probe.changed_s": (1, lambda fh, rng: fh.dealiased_product)})
    times, absent = probes.run_probes(0)
    assert times == {"probe.gone_s": 0.0, "probe.changed_s": 0.0}
    assert absent[0].startswith("probe.gone_s: AttributeError")
    assert absent[1].startswith("probe.changed_s: TypeError")


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "desk-suite", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
