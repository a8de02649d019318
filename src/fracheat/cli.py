"""Command-line driver: fracheat <experiment> [--config FILE] [--key value ...].

Exit codes: 0 all verdicts pass, 1 any verdict fails, 2 configuration or
resource error. Results land under $FRACHEAT_RESULTS (default: the
working directory) as results/<name>-<timestamp>-<digest>.csv,
registry.jsonl, and plots/<name>-*.dat.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .errors import (BudgetError, ConfigError, DimensionError, DomainError,
                     ResolutionError)
from .experiments import (_KEYS, EXPERIMENT_NAMES, emit_report,
                          parse_config_file, run_experiment)


def _collect_overrides(extra) -> dict:
    out = {}
    i = 0
    while i < len(extra):
        tok = extra[i]
        if not tok.startswith("--") or len(tok) <= 2 or i + 1 >= len(extra):
            raise ConfigError(f"expected '--key value' pairs, got {tok!r}")
        out[tok[2:]] = extra[i + 1]
        i += 2
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracheat",
        description="Run one named experiment and persist its record.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="config keys (each experiment takes those of its defaults):\n"
        + "\n".join(f"  {key:<6}  {k.type.__name__:<5}  {k.need}".rstrip()
                    for key, k in _KEYS.items()))
    parser.add_argument("experiment", choices=EXPERIMENT_NAMES,
                        metavar="experiment",
                        help="one of: " + ", ".join(EXPERIMENT_NAMES))
    parser.add_argument("--config", metavar="FILE",
                        help="flat key = value file; CLI keys override it")
    args, extra = parser.parse_known_args(argv)
    try:
        overrides = {}
        if args.config:
            overrides.update(parse_config_file(args.config))
        overrides.update(_collect_overrides(extra))
        record = run_experiment(args.experiment, overrides)
        written = emit_report([record])
    except (ConfigError, BudgetError, DomainError, ResolutionError,
            DimensionError, OSError) as exc:
        print(f"fracheat: error: {exc}", file=sys.stderr)
        return 2
    print(f"{record.experiment} [{record.timestamp}] "
          f"version {record.version}")
    for key, ok in record.verdicts.items():
        print(f"  {key}: {'pass' if ok else 'FAIL'}")
    for key, val in record.values.items():
        if isinstance(val, float):
            print(f"  {key} = {val:.6g}")
        elif isinstance(val, (int, str)) and not isinstance(val, bool):
            print(f"  {key} = {val}")
    for path in written["csv"] + written["plots"]:
        print(f"  wrote {path}")
    print(f"  registry {written['registry']}")
    return 0 if record.passed else 1


if __name__ == "__main__":
    sys.exit(main())
