"""Small numerically-stable helpers used throughout the library."""
from __future__ import annotations

import math

import numpy as np


def log_sum_exp(values: np.ndarray) -> float:
    """log(sum(exp(values))) with the usual max shift: the one-row case of
    `_log_sum_exp_rows`."""
    values = np.asarray(values, dtype=np.float64)
    return float(_log_sum_exp_rows(values.reshape(1, -1))[0])


def _log_sum_exp_rows(rows: np.ndarray) -> np.ndarray:
    """log(sum(exp(row))) of each row of a 2-D array, shifted by the row's max;
    a row whose max is not finite gets that max.  A row's sum runs over its
    contiguous entries as a vector's does, so each row has a lone row's bits.
    """
    top = rows.max(axis=1)
    finite = np.isfinite(top)
    if np.count_nonzero(finite) < top.size:
        top[finite] = _log_sum_exp_rows(rows[finite])
        return top
    return top + np.log(np.exp(rows - top[:, None]).sum(axis=1))


def _exp_or_inf(x: float) -> float:
    """math.exp(x), or inf where that overflows the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf
