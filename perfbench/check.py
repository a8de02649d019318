"""Correctness check of one sample's records against stored references.

References are the values and verdicts each job produced at the commit
that defined the benchmark (see make_refs.py). A job of a SEEDED
experiment has one reference per seed; other jobs have one for any seed.
For a seeded job whose seed has no reference, only the verdicts that
every stored seed agrees on are checked, and the check says so.
"""

import json
import math
from pathlib import Path

from workloads import SEEDED

REFERENCES = Path(__file__).with_name("references.json")

# values may move by this much under a refactor that reorders floating-point
# work; classifications, integers and verdicts must match exactly
RTOL = 1e-9
ATOL = 1e-12
# semicolon-joined "%.6g" lists (solve's diff_norms) carry six digits
RTOL_TEXT = 1e-5


def load_references(path=REFERENCES):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _close(a, b, rtol):
    if math.isnan(b):
        return math.isnan(a)
    if math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * abs(b) + ATOL


def _numbers(text):
    try:
        return [float(x) for x in text.split(";")]
    except ValueError:
        return None


def _same(got, want):
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, str):
        if not isinstance(got, str):
            return False
        wn, gn = _numbers(want), _numbers(got)
        if wn is None or gn is None or ";" not in want:
            return got == want
        return len(wn) == len(gn) and all(
            _close(g, w, RTOL_TEXT) for g, w in zip(gn, wn))
    if isinstance(want, int):
        return isinstance(got, int) and got == want
    if isinstance(want, float):
        return isinstance(got, (int, float)) and _close(float(got), want, RTOL)
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    return got == want


def reference_for(refs, job, seed):
    """(reference, note) for one job and seed.

    For a seed without a reference, the returned reference holds only the
    shared verdicts and the note says so. A job without any reference
    returns None.
    """
    name = job.split(" ", 1)[0]
    by_seed = refs["jobs"].get(job)
    if not by_seed:
        return None, f"no reference for {job!r}"
    if name not in SEEDED:
        return by_seed["*"], None
    if str(seed) in by_seed:
        return by_seed[str(seed)], None
    shared = None
    for ref in by_seed.values():
        v = ref["verdicts"]
        shared = dict(v) if shared is None else {
            k: x for k, x in shared.items() if v.get(k) is x}
    return {"verdicts": shared}, (
        f"seed {seed} has no reference for {job!r}: checked the verdicts "
        f"all {len(by_seed)} stored seeds share, not the values")


def check_record(record, ref):
    """Problems found in one registry record; empty when it matches."""
    problems = []
    if "values" in ref:
        got = record["values"]
        want = ref["values"]
        if sorted(got) != sorted(want):
            problems.append(f"value keys {sorted(got)} != {sorted(want)}")
        for key in sorted(set(got) & set(want)):
            if not _same(got[key], want[key]):
                problems.append(f"{key}: {got[key]!r} != reference "
                                f"{want[key]!r}")
        if set(record["verdicts"]) != set(ref["verdicts"]):
            problems.append(f"verdict keys {sorted(record['verdicts'])} != "
                            f"{sorted(ref['verdicts'])}")
    for key, want in ref["verdicts"].items():
        if record["verdicts"].get(key) is not want:
            problems.append(f"verdict {key}: {record['verdicts'].get(key)!r}"
                            f" != reference {want!r}")
    return problems


def read_registry(root):
    path = Path(root) / "registry.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in
            path.read_text(encoding="utf-8").splitlines() if line]


def _csv_files(root):
    return {p.name: p.read_bytes()
            for p in (Path(root) / "results").glob("*.csv")}


def csv_problem(name, csv_a, csv_b):
    """Why experiment `name`'s CSV is not byte-identical in two roots."""
    mine = sorted(n for n in set(csv_a) | set(csv_b)
                  if n.startswith(name + "-"))
    if not mine:
        return "no CSV written"
    if any(csv_a.get(n) != csv_b.get(n) for n in mine):
        return "CSV differs between two emits of one record"
    return None


def check_sample(refs, jobs, seed, root_a, root_b):
    """Check every job's record of one sample.

    jobs is workloads.jobs(...). Returns (attempted, failed, notes).
    """
    records = read_registry(root_a)
    csv_a, csv_b = _csv_files(root_a), _csv_files(root_b)
    failed, notes = 0, []
    for i, (job, name, _cfg) in enumerate(jobs):
        if i >= len(records) or records[i].get("experiment") != name:
            failed += 1
            notes.append(f"{job}: record missing from the registry")
            continue
        ref, note = reference_for(refs, job, seed)
        if ref is None:
            failed += 1
            notes.append(note)
            continue
        if note:
            notes.append(note)
        problems = check_record(records[i], ref)
        bad_csv = csv_problem(name, csv_a, csv_b)
        if bad_csv:
            problems.append(bad_csv)
        if problems:
            failed += 1
            notes.append(f"{job}: " + "; ".join(problems))
    return len(jobs), failed, notes
