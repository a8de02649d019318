"""Regenerate references.json: every job's values and verdicts at this commit.

    python3 perfbench/make_refs.py

Seeded jobs (workloads.SEEDED) get one reference per seed 0..SEEDS-1; the
others get one reference for any seed. Run it only when a change to the
program is meant to change experiment results, and say so where the
change is recorded.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import SEEDED, WORKLOADS, jobs  # noqa: E402

SEEDS = 32


def main():
    from fracheat import experiments

    refs = {}
    for workload in WORKLOADS:
        for seed in range(SEEDS):
            for job, name, cfg in jobs(workload, seed):
                key = str(seed) if name in SEEDED else "*"
                if key in refs.get(job, {}):
                    continue
                rec = experiments.run_experiment(name, cfg)
                # the registry's JSON round trip, so types match what
                # the benchmark reads back
                refs.setdefault(job, {})[key] = json.loads(json.dumps(
                    {"values": rec.values, "verdicts": rec.verdicts}))
                print(f"{job} seed={key}", flush=True)
    out = HERE / "references.json"
    out.write_text(json.dumps({"jobs": refs}, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
