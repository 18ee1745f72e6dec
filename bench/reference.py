"""Output check: compare a pass's summary with committed reference summaries.

A summary maps keys such as ``opkf/pi40/fixation`` (predictor, PI, event
class) or ``train/loss`` to ``[count, value]``: the scored-record count and
the median error in dva, or the window count and loss of LSTM training.

``refs/<workload>.json`` holds the workload's configuration and the
summaries the library produced for a range of seeds. The tolerance:

* a seed in the reference: the same keys, every count equal and every
  value within ``REL_TOL`` (relative) of the reference;
* any other seed: the same keys, value ``None`` exactly when the count is
  0, and every count and value within a factor ``ENVELOPE`` of the range
  across the reference seeds -- except the small/large saccade classes,
  whose sizes follow the drawn target steps and may be empty for a seed.

Regenerate a file (only when outputs are meant to change) with

    python3 bench/reference.py cohort 0 31
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"
REL_TOL = 1e-6
ENVELOPE = 2.0
UNBOUNDED_SUFFIX = "_saccade"


def _same(got, ref) -> bool:
    if got is None or ref is None:
        return got is ref
    return math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=1e-12)


def _within(got, refs) -> bool:
    present = [r for r in refs if r is not None]
    return not present or min(present) / ENVELOPE <= got <= max(present) * ENVELOPE


def compare(summary: dict, seeds: dict, seed: int) -> tuple[bool, str]:
    """Check ``summary`` against the reference summaries of ``seeds``."""
    exact = seeds.get(str(seed))
    refs = [exact] if exact is not None else list(seeds.values())
    keys = set(refs[0])
    if set(summary) != keys:
        return False, f"keys differ from the reference: {sorted(set(summary) ^ keys)[:4]}"
    for key in sorted(keys):
        count, value = summary[key]
        if exact is not None:
            ok = count == exact[key][0] and _same(value, exact[key][1])
        elif (value is None) != (count == 0) or (value is not None and not math.isfinite(value)):
            ok = False
        else:
            ok = key.endswith(UNBOUNDED_SUFFIX) or (
                _within(count, [r[key][0] for r in refs])
                and (value is None or _within(value, [r[key][1] for r in refs]))
            )
        if not ok:
            return False, f"{key} = {summary[key]} outside tolerance"
    if exact is not None:
        return True, f"matches the reference for seed {seed} within rel {REL_TOL:g}"
    return True, f"within x{ENVELOPE:g} of the range over {len(refs)} reference seeds"


def check(workload, seed: int, summary: dict) -> tuple[bool, str]:
    path = REFS / f"{workload.name}.json"
    ref = json.loads(path.read_text()) if path.is_file() else None
    if ref is None or ref["config"] != json.loads(json.dumps(dataclasses.asdict(workload))):
        return False, "no reference for this workload configuration"
    return compare(summary, ref["seeds"], seed)


def main(name: str, first: int, last: int) -> None:
    """Write one pass's summary of workload ``name`` for seeds first..last."""
    from run import ROOT, limit_blas_threads

    limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from gazecast import plant
    from workloads import WORKLOADS, Ops

    workload = WORKLOADS[name]
    seeds = {}
    for seed in range(first, last + 1):
        cohort = plant.generate_cohort(workload.synth_config(seed))
        seeds[str(seed)] = workload.run_pass(cohort, Ops(), seed).summary
        print(name, seed, flush=True)
    REFS.mkdir(exist_ok=True)
    doc = {"config": dataclasses.asdict(workload), "seeds": seeds}
    (REFS / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
