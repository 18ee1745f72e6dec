"""Short-horizon gaze forecasting from 1000 Hz eye-tracking signals.

Its modules cover the full pipeline: recording checks and differentiation,
velocity-threshold event classification, an oculomotor plant simulator and
synthetic cohort generator, a plant-informed Kalman predictor, a small
from-scratch LSTM predictor with extrapolation baselines, signal-quality
features, and event-conditioned evaluation metrics.
"""

import logging

__version__ = "0.1.0"

# library calls stay quiet unless the application configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())
