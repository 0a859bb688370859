"""The exact funding bound, by bisection over float bit patterns: the
oracle `mechanism.FundingTest` and the engines' funding are tested against."""

import numpy as np

from lendmech.mechanism import left_sum, linear_scores

# Half-width of report_bounds' first bracket around the closed form, in
# epsilons of the score scale sum(weights) / w_i. A bracket that misses
# costs iterations, never exactness.
_BRACKET_EPS = 2
_ONE_BITS = int(np.float64(1.0).view(np.int64))


def report_bounds(weights, i: int, co_reports: np.ndarray, key) -> np.ndarray:
    """Per column, the largest report of recommender i that keeps the linear
    score at or below `key`: -inf when a report of 0 already beats `key`,
    1 when no report in [0, 1] does. So the score beats `key` iff i reports
    above the bound.

    `co_reports` holds the others' reports, (n-1, columns); `key` is a
    scalar or one per column. The score never falls as i's report rises,
    so the bound is found by bisection over the bit patterns of the floats
    in [0, 1], which are ordered as the floats are. It starts from a bracket
    around the closed form (key - others' score) / w_i, checks both ends,
    and keeps iterating only on the columns not yet settled; so it is exact
    whether or not the bracket holds.
    """
    w_i = weights[i]
    # With i's report at 0 the score is the others' score exactly.
    base = linear_scores(weights[:i] + weights[i + 1 :], co_reports)
    key = np.broadcast_to(key, base.shape)
    bound = np.full(base.shape, -np.inf)
    todo = np.flatnonzero(base <= key)
    if w_i == 0.0:  # i's report never moves the score
        bound[todo] = 1.0
        return bound
    column, key = np.insert(co_reports[:, todo], i, 0.0, axis=0), key[todo]  # a slot for i

    def beats(column, key, report) -> np.ndarray:
        column[i] = report
        return linear_scores(weights, column) > key

    # Bit patterns, at most the key at lo and above it at hi; hi starts one
    # past 1.0, which is never evaluated. A settled column (hi = lo + 1) has
    # mid = lo, so further steps leave it as it is.
    lo = np.zeros(len(todo), dtype=np.int64)
    hi = np.full(len(todo), _ONE_BITS + 1)
    # A tiny w_i sends both ends past 1, or to inf - inf; 0 and 1 stand in.
    with np.errstate(over="ignore", invalid="ignore"):
        seed = (key - base[todo]) / w_i
        slack = _BRACKET_EPS * np.finfo(float).eps * left_sum(weights) / w_i
        ends = np.clip(seed - slack, 0.0, 1.0), np.clip(seed + slack, 0.0, 1.0)
    for end in (np.nan_to_num(ends[0], nan=0.0), np.nan_to_num(ends[1], nan=1.0)):
        hit = beats(column, key, end)
        bits = end.view(np.int64)
        hi = np.where(hit, np.minimum(hi, bits), hi)
        lo = np.where(hit, lo, np.maximum(lo, bits))
    while True:
        gap = hi - lo
        live = gap > 1
        if 2 * np.count_nonzero(live) <= len(live):
            # Drop the settled columns once they are half of those left.
            bound[todo[~live]] = lo[~live].view(float)
            if not live.any():
                return bound
            todo, lo, hi, gap, key = todo[live], lo[live], hi[live], gap[live], key[live]
            column = column[:, live]
        mid = lo + (gap >> 1)
        hit = beats(column, key, mid.view(float))
        hi = np.where(hit, mid, hi)
        lo = np.where(hit, lo, mid)
