"""Reference stitched-curve error: the per-rank rule criteria 6 and 7 used
before they read the level runs, kept as a test oracle.

Every rank in 8..k^n-8 gets its log-prob, its tie group (chained string by
string), the interpolated curve rank and the [first, last] ranks of its
group, each as a k^n-sized array, and the worst distance is their maximum.
"""
import numpy as np

from tiltlab import approx as ax
from tiltlab import guesswork as gw

from reference_rank_table import reference_tie_groups


def reference_stitched_log_rank_error(source, n):
    """Worst log-rank distance from the stitched curve to the tie-group
    interval of each rank in 8..k^n-8, computed rank by rank."""
    table = gw.build_rank_table(source, n)
    points = ax.approx_pmf_curve(source, n, table=table)
    sorted_logp = table.log_probs[table.order]
    groups = reference_tie_groups(sorted_logp, gw.TIE_TOL_PER_SYMBOL * n)
    ranks = np.arange(8, table.size - 8 + 1)
    interp = ax.interpolated_log_rank(points, sorted_logp[ranks - 1])
    # tie groups are contiguous runs of ranks: a group's first and last rank
    # bound its run in the non-decreasing `groups`
    gid = groups[ranks - 1]
    below = np.log(np.searchsorted(groups, gid, side="left") + 1) - interp
    above = interp - np.log(np.searchsorted(groups, gid, side="right"))
    return float(np.max(np.maximum(0.0, np.maximum(below, above))))
