"""The benchmark's output check for both workloads at seed 0.

One pass of ``bench/workloads.py``'s OPKF study (10 subjects x 12 s) and
one of its LSTM workload must match the committed ``bench/refs/<name>.json``
summaries for that seed, so output drift in the OPKF, the LSTM, scoring or
statistics fails here and not only in a benchmark run. The bench modules
are imported read-only.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
from gazecast import plant  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402


def test_cohort_pass_matches_reference_at_seed_0():
    workload = WORKLOADS["cohort"]
    cohort = plant.generate_cohort(workload.synth_config(0))
    summary = workload.run_pass(cohort, Ops(), 0).summary
    ok, why = reference.check(workload, 0, summary)
    assert ok, why


def test_lstm_pass_matches_reference_at_seed_0():
    # training, the held-out evaluate_loss and lstm_predict_recording
    workload = WORKLOADS["lstm"]
    cohort = plant.generate_cohort(workload.synth_config(0))
    summary = workload.run_pass(cohort, Ops(), 0).summary
    ok, why = reference.check(workload, 0, summary)
    assert ok, why
