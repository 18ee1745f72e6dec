"""Shared fixtures for the test suite."""

import numpy as np

from gazecast import learned as L
from gazecast.classify import ONSET_OFFSET_THRESHOLD, PEAK_THRESHOLD


def kink_free_lstm_fixture(seed: int = 11, margin: float = 1.5e-3):
    """Model/batch for gradient checking, pushed clear of relu kinks.

    Central differences are only trustworthy at a differentiable point, so
    the fc biases are nudged until every rectifier pre-activation sits at
    least ``margin / 1.5`` away from zero for the whole batch. Returns
    (model, inputs, targets); margins are asserted so a regression in the
    construction fails loudly rather than producing a flaky check.
    """
    model = L.LstmModel.init_seeded(seed)
    rng = np.random.default_rng(1000 + seed)
    xs = rng.normal(scale=150.0, size=(3, 5, 2))
    ys = rng.normal(scale=0.5, size=(3, 2))
    shifts = (0.0, margin, -margin, 2 * margin, -2 * margin, 3 * margin, -3 * margin)
    for bias_name, pre_idx in (("fc1.b", 1), ("fc2.b", 3)):
        _, cache = L._forward(model, xs, True)
        pre = cache["head"][pre_idx]
        for k in range(pre.shape[1]):
            col = pre[:, k]
            for shift in shifts:
                if np.abs(col + shift).min() > margin / 1.5:
                    model.params[bias_name][k] += shift
                    break
            else:
                raise AssertionError(f"no kink-clearing shift found for {bias_name}[{k}]")
    pred, cache = L._forward(model, xs, True)
    assert np.abs(cache["head"][1]).min() > 1e-3
    assert np.abs(cache["head"][3]).min() > 1e-3
    diff = pred - ys
    assert np.hypot(diff[:, 0], diff[:, 1]).min() > 1e-2
    return model, xs, ys


def hysteresis_loop(v, vel_ok, sample_ok):
    """Saccade flags of the online labeler, one sample at a time.

    The reference for ``classify.causal_saccade_mask``: an invalid sample
    ends a saccade and is not one; a velocity above the peak threshold
    starts one, and it lasts until a velocity below the onset/offset
    threshold. A sample without a velocity estimate keeps the state.
    """
    in_saccade = False
    out = []
    for v_r, v_valid, s_valid in zip(v, vel_ok, sample_ok):
        if not s_valid:
            in_saccade = False
        elif v_valid:
            if in_saccade:
                if v_r < ONSET_OFFSET_THRESHOLD:
                    in_saccade = False
            elif v_r > PEAK_THRESHOLD:
                in_saccade = True
        out.append(in_saccade)
    return np.array(out, dtype=bool)
