"""The benchmark's workloads: which experiments each one runs, and with what.

A workload is a list of jobs. A job is one `experiments.run_experiment`
call, named by its experiment and its config overrides other than the
seed. The benchmark's `--seed` goes to every job's `seed` key.
"""

# Experiments whose values depend on the `seed` key: semigroup-check draws a
# random field, norm-inflation draws the algebra-constant probes.
SEEDED = frozenset({"semigroup-check", "norm-inflation"})

# workload -> jobs, each (experiment, config overrides other than the seed)
WORKLOADS = {
    # Quick proxy for the full norm-inflation schedule: N = 8, 10, 12 on
    # M = 2^12..2^16. picard_terms and algebra_constant dominate; the
    # quadrature is never called.
    "inflation": (("norm-inflation", {"N_max": 12}),),
    # The other seven experiments at their defaults plus the single-cell
    # classifier: the same layers in small, overhead-bound shapes. Its 595
    # small FFTs take little time, so it is also the workload an FFT change
    # bypasses.
    # The 8x8 phase-diagram sweep is not a workload: it is interpreter-bound,
    # and on a 2-vCPU machine whose speed swings by up to 1.8x its run-to-run
    # spread stayed above any bound the benchmark may set (see README.md).
    "desk-suite": (("semigroup-check", {}),
                   ("besov-scaling", {}),
                   ("smoothing-check", {}),
                   ("solve", {}),
                   ("wellposed-scaling", {}),
                   ("cascade", {}),
                   ("endpoint-cascade", {}),
                   ("dilation-check", {})),
}


def job_id(name, overrides):
    """Stable label of a job: experiment name plus its non-seed overrides."""
    extra = " ".join(f"{k}={v}" for k, v in sorted(overrides.items()))
    return f"{name} {extra}" if extra else name


def jobs(workload, seed):
    """[(job_id, experiment name, config)] for one workload and seed."""
    return [(job_id(name, overrides), name, dict(overrides, seed=seed))
            for name, overrides in WORKLOADS[workload]]
