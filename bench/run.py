"""gazecast benchmark: one workload in one process, closed loop.

    python3 bench/run.py --workload cohort --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Set-up, reported as ``setup_s``: importing numpy, scipy and gazecast,
warming the lazy first-call paths (scipy ``expm``, the BLAS thread pool),
then synthesizing the workload's cohort ``SETUP_REPEATS`` times with
``plant.generate_cohort`` (the median counts; repeat 0 uses ``--seed`` and
is the workload's input, the others use seeds derived from it). Passes of
the workload then run back to back while the slowest pass so far still fits
in ``--seconds``, and each pass's outputs are checked against the committed
reference summaries (``reference.py``).

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
reported by every workload:

* ``setup_s`` -- set-up as above;
* ``wall_s`` -- median seconds per pass;
* ``peak_rss_mb`` -- peak resident memory of the process;
* ``predict_err_p50_dva`` -- accuracy guard: median across subjects of each
  subject's median error at PI 40 for the workload's predictor: OPKF on
  ``cohort``, the LSTM on ``lstm`` (printed as ``err.opkf.p50_dva`` and
  ``err.lstm.p50_dva``).

The report also prints, where they apply, ``rtf.opkf`` / ``rtf.lstm``
(recording seconds predicted per second of the predictor call, median over
calls), ``train.windows_per_s`` and ``failed_frac``.
They carry no bound: the predictor calls are the interpreter-bound part that
the host's slow phases stretch most, and their spread across runs exceeded
what a bound may allow; ``wall_s`` bounds the same work.

With ``--trace 1`` passes alternate untraced and traced, the per-layer
metrics come from the spans of the traced passes, and the tracing overhead
is the difference in median pass time. Every run prints the issue-level
metrics by name, a ``{"meta": ...}`` line with the run metadata, and as its
last line ``{"correct", "attempted", "failed", "metrics"}``. The same
record, with the spans of a traced run, is written to ``bench/out/``.

BLAS runs single-threaded (the passes are sequential and their matrices
small; a second thread doubled CPU time for a few percent of wall time), and
the run records that count next to the CPUs it could use.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
BLAS_THREADS = 1
WORKLOAD_NAMES = ("cohort", "lstm")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> int:
    """Cap BLAS threads; must run before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def per(num, den) -> float:
    """num / den, or 0.0 where the layer did no such work in this workload."""
    return num / den if den else 0.0


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def git_revision() -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
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


def warm_up(np, plant) -> None:
    """Pay the lazy first-call costs before anything is timed."""
    from scipy.linalg import expm

    expm(np.eye(4) * 1e-3)
    a = np.ones((256, 160))
    a @ a.T
    np.linalg.solve(np.eye(4), np.ones(4))
    np.linalg.cholesky(np.eye(2))
    plant.generate_cohort(plant.SynthConfig(n_subjects=1, duration_s=2.0, rng_seed=0))


def setup(workload, seed: int):
    """Warm up, then synthesize the cohort; returns (cohort, timings)."""
    import numpy as np
    from gazecast import plant

    t = time.perf_counter()
    warm_up(np, plant)
    warm_s = time.perf_counter() - t
    synth_s = []
    for k in range(SETUP_REPEATS):
        t = time.perf_counter()
        members = plant.generate_cohort(workload.synth_config(seed + k * 1_000_003))
        synth_s.append(time.perf_counter() - t)
        if k == 0:
            cohort = members
    return cohort, {"warm_s": warm_s, "synth_s": synth_s}


def measure(workload, cohort, seed: int, seconds: float, trace: bool):
    """Run passes until ``seconds`` is spent; returns (passes, ops, tracer)."""
    from spans import Tracer
    from workloads import LAYER_MODULES, Ops

    ops = Ops()
    tracer = Tracer()
    passes = []  # (seconds, traced, PassResult)
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        t = time.perf_counter()
        if traced:
            with tracer.instrument(LAYER_MODULES), tracer.span("pass"):
                res = workload.run_pass(cohort, ops, seed)
        else:
            res = workload.run_pass(cohort, ops, seed)
        passes.append((time.perf_counter() - t, traced, res))
        spent = time.perf_counter() - start
        if len(passes) >= (2 if trace else 1) and spent + max(p[0] for p in passes) > seconds:
            return passes, ops, tracer


def end_to_end(passes, setup_s: float) -> dict:
    """Metrics of BENCHMARK.json's end_to_end list (untraced run)."""
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (median(p[0] for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "predict_err_p50_dva": (median(passes[0][2].guard_errors), "dva"),
    }


def issue_metrics(workload, cohort, passes, ops) -> dict:
    """End-to-end figures under the stage names of the issue, where they apply."""
    rec_s = median(m.recording.duration_ms / 1000.0 for m in cohort)
    rtf = (median(rec_s / s for s in ops.seconds[workload.predict_call]), "s/s")
    out = {}
    if workload.name == "lstm":
        out["rtf.lstm"] = rtf
        counts = passes[0][2].counts
        out["train.windows_per_s"] = (
            median(counts["train_windows"] / s for s in ops.seconds["learned.lstm_train"]),
            "1/s",
        )
    else:
        out["rtf.opkf"] = rtf
    out[f"err.{workload.predictor}.p50_dva"] = (median(passes[0][2].guard_errors), "dva")
    out["failed_frac"] = (per(ops.failed, ops.attempted), "frac")
    return out


def per_layer(workload, passes, tracer, plant_ms_per_subject: float) -> dict:
    """Metrics of BENCHMARK.json's per_layer list (traced run).

    Times come from the spans of traced passes, counts from their return
    values; a layer that does not run in this workload reports 0.
    """
    from spans import totals

    spans = tracer.spans
    n = sum(1 for p in passes if p[1])
    c = sum((p[2].counts for p in passes if p[1]), Counter())
    tot = totals(spans)
    in_train = totals(spans, parent_name="learned.lstm_train")

    def mean_ms(name, table=tot):
        row = table.get(name)
        return per(row.total_s * 1e3, row.calls) if row else 0.0

    def total_s(name, attr="total_s", table=tot):
        row = table.get(name)
        return getattr(row, attr) if row else 0.0

    opkf_row = tot.get("opkf.opkf_predict_multi")
    untraced = [p[0] for p in passes if not p[1]]
    traced = [p[0] for p in passes if p[1]]
    stats_s = sum(total_s(k) for k in ("metrics.subject_stats", "metrics.correlate_features", "metrics.kendall_w"))
    return {
        "plant.ms_per_subject": (plant_ms_per_subject, "ms"),
        "signal.velocity_ms_per_rec": (mean_ms("signal.compute_velocity"), "ms"),
        "classify.ms_per_rec": (mean_ms("classify.classify_events"), "ms"),
        "classify.saccades_per_rec": (per(c["saccades"], c["recs"]), "count"),
        "features.ms_per_subject": (mean_ms("features.subject_features"), "ms"),
        "opkf.us_per_sample": (per(opkf_row.self_s * 1e6, opkf_row.samples) if opkf_row else 0.0, "us"),
        "learned.windows_ms_per_rec": (mean_ms("learned.make_windows"), "ms"),
        "learned.windows_kept_frac": (per(c["windows_kept"], c["windows_possible"]), "frac"),
        "learned.windows_dropped": (per(c["windows_possible"] - c["windows_kept"], n), "count"),
        "learned.train.ms_per_batch": (per(total_s("learned.lstm_train") * 1e3, c["batches"]), "ms"),
        "learned.loss_and_grad.ms_per_batch": (
            per(total_s("learned.loss_and_grad", table=in_train) * 1e3, c["batches"]),
            "ms",
        ),
        "learned.adam.ms_per_batch": (per(total_s("learned.lstm_train", "self_s") * 1e3, c["batches"]), "ms"),
        "learned.forward.ms_per_window": (
            per(total_s("learned.evaluate_loss") * 1e3, c["holdout_windows"]),
            "ms",
        ),
        "learned.infer.ms_per_window": (
            per(total_s("learned.lstm_predict_recording") * 1e3, c["infer_windows"]),
            "ms",
        ),
        "learned.baseline_ms_per_run": (mean_ms("learned.baseline_predict"), "ms"),
        "metrics.score_ms_per_run": (mean_ms("metrics.score_run"), "ms"),
        "metrics.class_errors_ms_per_run": (mean_ms("metrics.class_errors"), "ms"),
        "metrics.records_per_run": (per(c["records"], c["runs"]), "count"),
        "metrics.stats_ms": (per(stats_s * 1e3, n), "ms"),
        "metrics.subjects_kept_frac": (per(c["stats_subjects_kept"], c["stats_subjects_in"]), "frac"),
        "metrics.subjects_dropped": (per(c["stats_subjects_in"] - c["stats_subjects_kept"], n), "count"),
        "trace.overhead_frac": (per(median(traced) - median(untraced), median(untraced)), "frac"),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, import_s: float = 0.0) -> dict:
    """Set up, measure and check one workload; returns the full record."""
    import reference

    cohort, timings = setup(workload, seed)
    synth = median(timings["synth_s"])
    setup_s = import_s + timings["warm_s"] + synth
    passes, ops, tracer = measure(workload, cohort, seed, seconds, trace)

    verdicts = [reference.check(workload, seed, p[2].summary) for p in passes]
    correct = all(ok for ok, _ in verdicts)
    failed = ops.attempted if not correct else ops.failed
    if trace:
        metrics = per_layer(workload, passes, tracer, synth * 1e3 / workload.n_subjects)
        shown = {}
    else:
        metrics = end_to_end(passes, setup_s)
        shown = issue_metrics(workload, cohort, passes, ops)
    return {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": metrics,
        "shown": shown,
        "check": verdicts[0][1] if correct else next(msg for ok, msg in verdicts if not ok),
        "passes": len(passes),
        "pass_s": [p[0] for p in passes],
        "setup": {"import_s": import_s, **timings},
        "spans": [list(s) for s in tracer.spans],
    }


def metadata(workload, seed: int, seconds: float, trace: bool, threads: int) -> dict:
    import dataclasses

    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": dataclasses.asdict(workload),
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "setup_repeats": SETUP_REPEATS,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = subprocess.run(cmd, check=False).returncode or status
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    threads = limit_blas_threads()
    src = ROOT / "src"
    if not (src / "gazecast").is_dir():
        print(f"no gazecast sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS
    import_s = time.perf_counter() - T_START

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    record = run_workload(workload, args.seed, args.seconds, trace, import_s)
    meta = metadata(workload, args.seed, args.seconds, trace, threads)

    print(f"workload {workload.name}  seed {args.seed}  passes {record['passes']}  "
          f"output check: {'pass' if record['correct'] else 'FAIL'} ({record['check']})")
    for name, (value, unit) in {**record["metrics"], **record["shown"]}.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(json.dumps({"meta": meta}))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"meta": meta, **record}, default=float))

    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
