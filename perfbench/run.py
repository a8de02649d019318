"""The fracheat benchmark: named workloads through the public experiment API.

    python3 perfbench/run.py --workload inflation --seed 1 --seconds 45 \
        --trace 0

Workloads (see workloads.py): inflation and desk-suite. Each
sample is a fresh single-process closed loop, as a `fracheat <experiment>`
user pays import and first-touch cost on every call: one child process
imports fracheat from this checkout's `src`, runs the workload's jobs
through `experiments.run_experiment`, emits them with
`experiments.emit_report` into a scratch results root, and exits. Every
record is checked against references.json, and its CSV must come out
byte-identical when the record is emitted to a second root.

--trace 0 runs samples one after another until --seconds have passed
and reports the end-to-end metrics as medians over samples. Import-only
processes, interleaved with the samples through the whole run, also
sample set-up time. --trace 1 runs the layer probes, then alternating
plain and traced samples until --seconds have passed, and reports the
per-layer metrics as medians over them. --seconds defaults to
BENCHMARK.json's run_seconds.

The last line of stdout is one JSON object: correct, attempted (records
checked), failed (records whose check failed) and metrics. An `env` line
before it, and .bench_work/last-<workload>-trace<n>.json, describe the
machine and every sample. All files are written under .bench_work/ in
the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

sys.dont_write_bytecode = True

from check import check_sample, load_references  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS, jobs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_EVERY_S = 2.0   # one import-only process per this much of a run
DEADLINE_S = 170.0    # a run must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# layers whose self time is reported; picard_terms is to share the
# dealiased product with the solver, which will split its busy time
_SELF_S = ("picard.picard_terms",)


def _fields(layer):
    """Reported fields of one traced layer: calls, times, its counters."""
    return (("calls", "busy_s") + (("self_s",) if layer in _SELF_S else ())
            + tuple(LAYERS[layer][2]))


def _unit(field):
    return "s" if field.endswith("_s") else \
        "bytes" if field == "bytes" else "count"


def per_layer_units():
    """Every per-layer metric name and its unit, in reporting order."""
    from probes import PROBES
    units = {}
    for layer in LAYERS:
        for field in _fields(layer):
            units[f"{layer}.{field}"] = _unit(field)
    for kind in ("c2c", "r2c"):
        units[f"fft.{kind}.calls"] = "count"
        units[f"fft.{kind}.points"] = "count"
    units["fft.flops_computed"] = "flop"
    units["process.cpu_s"] = "s"
    units["process.minflt"] = "count"
    units["trace.overhead_s"] = "s"
    units.update((name, "s") for name in PROBES)
    return units


# ------------------------------------------------------------ environment

def _git_commit():
    # read .git directly: a checkout without one must not send git looking
    # in the directories above it
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(backend):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    nproc = len(os.sched_getaffinity(0))
    blas = nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            blas = min(int(os.environ[var]), nproc)
            break
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "backend": backend, "nproc": nproc,
            "cpu_model": _cpu_model(), "blas_threads": blas,
            "git_commit": _git_commit()}


# ---------------------------------------------------------------- samples

class Run:
    """One benchmark run: its scratch directory, deadline and children."""

    def __init__(self, workload, seed, run_dir):
        self.workload, self.seed, self.dir = workload, seed, run_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0
        (run_dir / "tmp").mkdir(parents=True)
        # children keep their bytecode under .bench_work, so set-up time is
        # that of a warm install however the caller's environment is set
        self.env = dict(os.environ,
                        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
                        TMPDIR=str(run_dir / "tmp"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spawn(self, mode):
        """Run one child to completion; its result dict plus setup_s."""
        self.count += 1
        tag = f"{mode}-{self.count}"
        out = self.dir / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "sample.py"), "--mode", mode,
               "--src", str(SRC), "--out", str(out),
               "--workload", self.workload, "--seed", str(self.seed),
               "--root-a", str(self.dir / tag / "a"),
               "--root-b", str(self.dir / tag / "b")]
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=self.dir, env=self.env,
                                stdout=sys.stderr)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{tag} did not finish before the deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise RuntimeError(f"{tag} exited with code {code}")
        result = json.loads(out.read_text(encoding="utf-8"))
        result["setup_s"] = result["imported"] - t0
        result["tag"] = tag
        return result

    def check(self, sample, refs):
        root = self.dir / sample["tag"]
        return check_sample(refs, jobs(self.workload, self.seed), self.seed,
                            root / "a", root / "b")


def _until(run, seconds, step):
    """Call step(start) until `seconds` have passed since start, unless
    another call could overrun the deadline."""
    start = time.monotonic()
    n = 0
    while True:
        step(start)
        n += 1
        elapsed = time.monotonic() - start
        if elapsed >= seconds or \
                time.monotonic() + 2 * elapsed / n > run.deadline:
            return


def end_to_end(run, seconds, setups, samples):
    def step(start):
        samples.append(run.spawn("plain"))
        # import-only processes at an even rate through the whole run, so
        # setup_s sees the machine in every phase the samples do
        while len(setups) < (time.monotonic() - start) / SETUP_EVERY_S:
            setups.append(run.spawn("setup")["setup_s"])

    _until(run, seconds, step)
    return {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "setup_s": statistics.median(
            setups + [s["setup_s"] for s in samples]),
        "peak_rss_mb": statistics.median(
            s["maxrss_kb"] / 1024.0 for s in samples),
    }


def per_layer(run, seconds, samples, detail):
    probe = run.spawn("probe")
    plains, traced = [], []

    def step(start):
        plains.append(run.spawn("plain"))
        traced.append(run.spawn("trace"))

    _until(run, seconds, step)
    samples += plains + traced
    traces = [t["trace"] for t in traced]

    def median(get, over=traces):
        # an observed value, so counts stay whole with an even sample count
        return statistics.median_low(get(x) for x in over)

    metrics = {}
    for layer in LAYERS:
        for field in _fields(layer):
            metrics[f"{layer}.{field}"] = median(
                lambda t: t["layers"][layer][field])
    for kind in ("c2c", "r2c"):
        for field in ("calls", "points"):
            metrics[f"fft.{kind}.{field}"] = median(
                lambda t: t["fft"][kind][field])
    metrics["fft.flops_computed"] = median(lambda t: t["fft_flops"])
    metrics["process.cpu_s"] = median(lambda p: p["cpu_s"], plains)
    metrics["process.minflt"] = median(lambda p: p["minflt"], plains)
    metrics["trace.overhead_s"] = statistics.median_low(
        t["wall_s"] - p["wall_s"] for p, t in zip(plains, traced))
    metrics.update(probe["probes"])
    detail["absent"] = sorted({a for t in traces for a in t["absent"]}) \
        + probe["absent"]
    wall = median(lambda t: t["wall_s"], traced)
    detail["layer_shares"] = {
        layer: metrics[f"{layer}.busy_s"] / wall
        for layer in LAYERS if metrics[f"{layer}.calls"]}
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its child (see Run.spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "fracheat" / "__init__.py").is_file():
        print(f"perfbench: no fracheat package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text(
            encoding="utf-8"))["run_seconds"]
    refs = load_references()

    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run = Run(args.workload, args.seed, run_dir)
    try:
        run.spawn("setup")  # fills the bytecode cache; not measured
        samples, setups, detail = [], [], {}
        if args.trace:
            metrics = per_layer(run, args.seconds, samples, detail)
            units = per_layer_units()
        else:
            metrics = end_to_end(run, args.seconds, setups, samples)
            units = END_TO_END
        attempted = failed = 0
        notes = []
        for sample in samples:
            a, f, n = run.check(sample, refs)
            attempted, failed = attempted + a, failed + f
            notes += [x for x in n if x not in notes]
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = environment(samples[0]["backend"])
    summary = dict(vars(args), env=env, setups=setups, notes=notes,
                   metrics=metrics, samples=samples, **detail)
    (WORK / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print("env " + json.dumps(env))
    for note in notes:
        print("note: " + note)
    for absent in detail.get("absent", ()):
        print("absent: " + absent)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
