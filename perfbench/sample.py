"""One benchmark sample in a fresh process; started by run.py, not by hand.

    sample.py --mode setup|plain|trace|probe --src SRC --out RESULT.json
              [--workload W --seed N --root-a DIR --root-b DIR]

Every mode records when `import fracheat` returned (time.monotonic, which
the parent reads on the same clock) and the process's resource usage.
plain runs the workload's jobs and emits them into root A, timed, then
emits them again into root B for the CSV identity check. trace does the
same under the Tracer. probe times the layer probes.
"""

import sys
import time


def main():
    opts = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    mode = opts["--mode"]
    sys.path.insert(0, opts["--src"])
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install_fft_counters()
    import fracheat  # noqa: F401  (the import is what setup_s times)
    imported = time.monotonic()

    import json
    import resource

    out = {"imported": imported}
    if mode in ("plain", "trace"):
        from fracheat import experiments
        from workloads import jobs
        if tracer:
            tracer.install_layers()
        todo = jobs(opts["--workload"], int(opts["--seed"]))
        t0 = time.perf_counter()
        records = [experiments.run_experiment(name, cfg)
                   for _, name, cfg in todo]
        t1 = time.perf_counter()
        experiments.emit_report(records, out_root=opts["--root-a"])
        t2 = time.perf_counter()
        if tracer:
            out["trace"] = tracer.snapshot()
        experiments.emit_report(records, out_root=opts["--root-b"])
        out.update(wall_s=t2 - t0, run_s=t1 - t0, emit_s=t2 - t1)
        kernels = sys.modules.get("fracheat._kernels")
        out["backend"] = getattr(kernels, "BACKEND", "absent")
    elif mode == "probe":
        from probes import run_probes
        out["probes"], out["absent"] = run_probes(int(opts["--seed"]))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out.update(maxrss_kb=usage.ru_maxrss, minflt=usage.ru_minflt,
               cpu_s=usage.ru_utime + usage.ru_stime)
    with open(opts["--out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
