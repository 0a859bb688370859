"""Tolerances shared by the interim engines' tests: an engine's batched
column statistics against the per-sample oracles, which score each
report's full row."""

import numpy as np


def assert_stats_close(got, want, scale):
    """`scale`: per report, the largest finite utility, at least 1."""
    (mean, se), (mean_want, se_want) = got, want
    finite = np.isfinite(mean_want)
    assert np.array_equal(mean[~finite], mean_want[~finite])
    assert np.array_equal(se[~finite], se_want[~finite])
    gap = np.abs(mean[finite] - mean_want[finite])
    assert np.all((gap <= 1e-12) | (gap <= 1e-9 * np.abs(mean_want[finite])))
    # Where every sample's difference is the same, the SE is rounding noise:
    # a few ulps of the utilities and payments the two paths subtract, which
    # they round differently.
    floor = 1e-14 * scale[finite]
    assert np.all(np.abs(se[finite] - se_want[finite]) <= 1e-9 * se_want[finite] + floor)


def utility_scale(truth_values, per_report_values):
    """`assert_stats_close`'s scale: per report, the largest finite
    magnitude among the truth's and that report's per-sample utilities, at
    least 1."""

    def largest(values):
        both = np.abs(np.concatenate([truth_values, values]))
        return both[np.isfinite(both)].max(initial=1.0)

    return np.array([largest(v) for v in per_report_values])


def with_report(row, q, report):
    """`row` with coordinate q replaced by `report`: a full report row."""
    return tuple(row[:q]) + (report,) + tuple(row[q + 1 :])
