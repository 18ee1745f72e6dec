"""The two benchmark workloads, each a closed-loop batch job.

A workload turns a seed into a synthetic cohort (``synth_config``), then
runs one pass of its pipeline over that cohort (``run_pass``). Every library
call goes through ``Ops``, which counts it, times it and counts the
``GazecastError``s it raises. Predictors only ever see causal velocity: OPKF
computes its own (``vel=None``), and the LSTM and the constant-velocity
baseline get a ``DiffConfig(mode="causal")`` trace. Centered velocity feeds
only the offline classifier and the features, as in the paper's analysis.

Why each workload exists:

* ``cohort`` -- the OPKF study: per-subject velocity, events and features,
  OPKF at PI 20/40/60 plus both baselines, scoring, cohort statistics. The
  OPKF update and scoring dominate; the LSTM never runs.
* ``lstm`` -- the learned predictor: windows, a fixed number of Adam
  batches, held-out loss, inference over unseen subjects. OPKF is absent.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from gazecast import classify, features, learned, metrics, opkf, plant, signal
from gazecast.errors import GazecastError
from spans import label

LAYER_MODULES = (plant, signal, classify, opkf, learned, features, metrics)
GUARD_PI = 40
CAUSAL = signal.DiffConfig(mode="causal")
BASELINES = ("constant-position", "constant-velocity")
# subject_stats needs one subject with >= 30 records in the class; a cohort
# may have no large saccade at all, so that class is left out
SPREAD_CLASSES = ("fixation", "small_saccade", "cep", "all")
CORRELATED_CLASSES = ("fixation", "cep", "all")  # every subject keeps >= 30 records
N_TRAIN = 2  # lstm: subjects whose windows train the model; the rest are predicted


class Ops:
    """Library calls made by the passes of one run: counts and seconds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seconds: dict[str, list[float]] = defaultdict(list)

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except GazecastError:
            self.failed += 1
            raise
        self.seconds[label(fn)].append(time.perf_counter() - start)
        return out


@dataclass
class PassResult:
    """What one pass produced, read from the library's return values."""

    summary: dict = field(default_factory=dict)  # output check: key -> [count, value]
    counts: Counter = field(default_factory=Counter)  # per-layer counters
    guard_errors: list = field(default_factory=list)  # per-subject median error at GUARD_PI


class _Scores:
    """Pools class errors per (predictor, PI, class) across subjects."""

    def __init__(self):
        self.pooled = defaultdict(list)
        self.per_subject = defaultdict(dict)  # (predictor, PI, class) -> {sid: errors}

    def add(self, ops, res, run, rec, segs, predictor):
        records = ops(metrics.score_run, run, rec, segs)
        by_class = ops(metrics.class_errors, records, segs)
        res.counts["runs"] += 1
        res.counts["records"] += len(records)
        for cls, err in by_class.items():
            self.pooled[(predictor, run.pi_ms, cls)].append(err)
            self.per_subject[(predictor, run.pi_ms, cls)][rec.subject_id] = err
        return by_class

    def summarize(self, res):
        for (predictor, pi, cls), parts in sorted(self.pooled.items()):
            err = np.concatenate(parts)
            res.summary[f"{predictor}/pi{pi}/{cls}"] = [
                int(err.size),
                float(np.median(err)) if err.size else None,
            ]


def _events(ops, rec, res):
    vel = ops(signal.compute_velocity, rec)
    segs = ops(classify.classify_events, rec, vel)
    res.counts["recs"] += 1
    res.counts["saccades"] += sum(s.kind is classify.EventKind.SACCADE for s in segs)
    return vel, segs


def _baselines(ops, scores, res, rec, segs, vel_causal, pis):
    for pi in pis:
        for kind in BASELINES:
            run = ops(learned.baseline_predict, kind, rec, vel_causal, pi)
            scores.add(ops, res, run, rec, segs, kind)


@dataclass(frozen=True)
class _Workload:
    n_subjects: int
    duration_s: float

    def synth_config(self, seed: int) -> plant.SynthConfig:
        return plant.SynthConfig(n_subjects=self.n_subjects, duration_s=self.duration_s, rng_seed=seed)


@dataclass(frozen=True)
class CohortWorkload(_Workload):
    name: ClassVar[str] = "cohort"
    predictor: ClassVar[str] = "opkf"
    predict_call: ClassVar[str] = "opkf.opkf_predict_multi"
    n_subjects: int = 10
    duration_s: float = 12.0
    pis: tuple = (20, 40, 60)

    def run_pass(self, cohort, ops: Ops, seed: int) -> PassResult:
        res = PassResult()
        scores = _Scores()
        feats = {}
        for member in cohort:
            rec = member.recording
            try:
                vel, segs = _events(ops, rec, res)
                runs = ops(opkf.opkf_predict_multi, rec, opkf.OpkfConfig(), self.pis)
                for pi in self.pis:
                    by_class = scores.add(ops, res, runs[pi], rec, segs, self.predictor)
                    if pi == GUARD_PI:
                        res.guard_errors.append(float(np.median(by_class["all"])))
                vel_causal = ops(signal.compute_velocity, rec, CAUSAL)
                _baselines(ops, scores, res, rec, segs, vel_causal, self.pis)
                feats[rec.subject_id] = ops(features.subject_features, rec, vel, segs)
            except GazecastError:
                continue
        scores.summarize(res)
        try:
            self._cohort_stats(ops, res, scores, feats)
        except GazecastError:
            pass
        return res

    def _cohort_stats(self, ops, res, scores, feats):
        """Per-subject spread, feature correlations and concordance at PI 40."""
        predictors = (self.predictor, *BASELINES)
        medians = {}
        for cls in SPREAD_CLASSES:
            for p in predictors:
                per_subject = scores.per_subject[(p, GUARD_PI, cls)]
                stats = ops(metrics.subject_stats, per_subject, cls)
                res.counts["stats_subjects_in"] += len(per_subject)
                res.counts["stats_subjects_kept"] += len(stats.subject_ids)
                medians[(p, cls)] = dict(zip(stats.subject_ids, stats.medians))
        for cls in CORRELATED_CLASSES:
            sids = sorted(set(feats).intersection(*(medians[(p, cls)] for p in predictors)))
            columns = {
                name: [getattr(feats[s], name) for s in sids]
                for name in features.FEATURE_COLUMNS[1:]
            }
            model_meds = {p: [medians[(p, cls)][s] for s in sids] for p in predictors}
            ops(
                metrics.correlate_features,
                columns,
                model_meds,
                cls,
                family_size=len(columns) * len(predictors) * len(CORRELATED_CLASSES),
            )
        sids = sorted(set.intersection(*(set(medians[(p, "fixation")]) for p in predictors)))
        w = ops(metrics.kendall_w, [[medians[(p, "fixation")][s] for s in sids] for p in predictors])
        res.summary["stats/kendall_w_fixation"] = [len(sids), float(w)]


@dataclass(frozen=True)
class LstmWorkload(_Workload):
    name: ClassVar[str] = "lstm"
    predictor: ClassVar[str] = "lstm"
    predict_call: ClassVar[str] = "learned.lstm_predict_recording"
    n_subjects: int = 4
    duration_s: float = 5.0
    batches: int = 16
    batch_size: int = 256
    holdout_windows: int = 1024

    def run_pass(self, cohort, ops: Ops, seed: int) -> PassResult:
        res = PassResult()
        scores = _Scores()
        try:
            parts = []
            for member in cohort[:N_TRAIN]:
                rec = member.recording
                vel_causal = ops(signal.compute_velocity, rec, CAUSAL)
                win = ops(learned.make_windows, rec, vel_causal, GUARD_PI)
                res.counts["windows_kept"] += len(win)
                res.counts["windows_possible"] += max(rec.n_samples - learned.WINDOW_SAMPLES + 1 - GUARD_PI, 0)
                parts.append(win)
            pool = learned.WindowBatch(
                *(np.concatenate([getattr(w, f) for w in parts]) for f in ("inputs", "targets", "end_indices"))
            )
            order = np.random.default_rng(seed).permutation(len(pool))
            n_train = self.batches * self.batch_size
            train = pool[order[:n_train]]
            held = pool[order[n_train : n_train + self.holdout_windows]]

            model = learned.LstmModel.init_seeded(seed)
            cfg = learned.TrainConfig(batch_size=self.batch_size, epochs=1, rng_seed=seed)
            history = ops(learned.lstm_train, model, train, cfg).history
            res.counts["batches"] += -(-len(train) // self.batch_size)
            res.counts["train_windows"] += len(train)
            res.summary["train/loss"] = [len(train), history[-1].train_loss]
            loss = ops(learned.evaluate_loss, model, held)
            res.counts["holdout_windows"] += len(held)
            res.summary["holdout/loss"] = [len(held), loss]

            for member in cohort[N_TRAIN:]:
                rec = member.recording
                _, segs = _events(ops, rec, res)
                vel_causal = ops(signal.compute_velocity, rec, CAUSAL)
                run = ops(learned.lstm_predict_recording, model, rec, vel_causal, GUARD_PI)
                res.counts["infer_windows"] += int(np.isfinite(run.predicted[:, 0]).sum())
                by_class = scores.add(ops, res, run, rec, segs, self.predictor)
                res.guard_errors.append(float(np.median(by_class["all"])))
                _baselines(ops, scores, res, rec, segs, vel_causal, (GUARD_PI,))
        except GazecastError:
            pass
        scores.summarize(res)
        return res


WORKLOADS = {w.name: w() for w in (CohortWorkload, LstmWorkload)}

# small enough for a smoke test; preconditions some stages need (10 subjects
# for correlations, 10 saccades for features) may fail here
TINY = {
    "cohort": CohortWorkload(n_subjects=3, duration_s=3.0, pis=(40,)),
    "lstm": LstmWorkload(n_subjects=3, duration_s=2.0, batches=2, batch_size=32, holdout_windows=64),
}
