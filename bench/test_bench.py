"""Tests of the benchmark itself: span arithmetic and tiny smoke runs.

    python3 -m pytest -q bench
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from gazecast import metrics  # noqa: E402
from reference import compare  # noqa: E402
from spans import Span, Tracer, self_times, totals  # noqa: E402
from workloads import TINY  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "pass", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 2.0, 3.0, 1, 0),
        Span(3, "b", 5.0, 7.0, 0, 100),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    t = totals(spans)
    assert t["b"] == (2, 3.0, 3.0, 100)
    assert t["pass"].self_s == 5.0
    under_pass = totals(spans, parent_name="pass")
    assert set(under_pass) == {"a", "b"} and under_pass["b"].calls == 1


def test_instrument_records_nested_library_calls_and_restores():
    original = metrics.quantile
    tracer = Tracer()
    with tracer.instrument([metrics]):
        metrics.iqr([1.0, 2.0, 3.0, 4.0])
    assert metrics.quantile is original
    names = [s.name for s in tracer.spans]
    assert names == ["metrics.iqr", "metrics.quantile", "metrics.quantile"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]


def test_output_check_exact_for_known_seeds_and_envelope_for_others():
    seeds = {
        "1": {"p/pi40/all": [100, 0.2], "p/pi40/large_saccade": [30, 4.0]},
        "2": {"p/pi40/all": [100, 0.3], "p/pi40/large_saccade": [50, 5.0]},
    }
    assert compare({"p/pi40/all": [100, 0.2], "p/pi40/large_saccade": [30, 4.0]}, seeds, 1)[0]
    assert not compare({"p/pi40/all": [100, 0.2001], "p/pi40/large_saccade": [30, 4.0]}, seeds, 1)[0]
    assert not compare({"p/pi40/all": [101, 0.2], "p/pi40/large_saccade": [30, 4.0]}, seeds, 1)[0]
    # unknown seed: the saccade-size split may even be empty
    assert compare({"p/pi40/all": [150, 0.5], "p/pi40/large_saccade": [0, None]}, seeds, 7)[0]
    assert not compare({"p/pi40/all": [150, 0.7], "p/pi40/large_saccade": [0, None]}, seeds, 7)[0]
    assert not compare({"p/pi40/all": [150, 0.5], "p/pi40/large_saccade": [3, None]}, seeds, 7)[0]
    assert not compare({"p/pi40/all": [150, 0.5]}, seeds, 7)[0]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    record = run.run_workload(TINY[name], seed=0, seconds=0.0, trace=trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: u for k, (_, u) in record["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v) for v, _ in record["metrics"].values())
    assert record["attempted"] >= 1
    assert record["passes"] == (2 if trace else 1)
