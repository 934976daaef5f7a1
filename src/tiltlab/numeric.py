"""Small numerically-stable helpers used throughout the library."""
from __future__ import annotations

import math

import numpy as np


def log_sum_exp(values: np.ndarray) -> float:
    """log(sum(exp(values))) with the usual max shift."""
    values = np.asarray(values, dtype=np.float64)
    m = float(values.max())
    if not math.isfinite(m):
        return m
    return m + float(np.log(np.exp(values - m).sum()))


def _exp_or_inf(x: float) -> float:
    """math.exp(x), or inf where that overflows the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf
