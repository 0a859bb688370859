"""The shared linear score, funding bound and grid scorer both interim
engines use."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lendmech.mechanism import Allocation, Settlement, deficit, grid_stats, left_sum
from lendmech.mechanism import linear_scores, mean_se, report_bounds
from stats_helpers import assert_stats_close

EIGHTHS = [k / 8 for k in range(9)]
NON_DYADIC_WEIGHTS = [(1 / 3, 1 / 3, 1 / 3), (1 / 7, 2 / 7, 4 / 7), (0.1, 0.3, 0.6)]


def random_weights(rng, n):
    w = rng.random(n) + 1e-3
    return tuple(float(v) for v in w / w.sum())


class TestLinearScores:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_adds_left_to_right_with_batch_axes(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        weights = random_weights(rng, n)
        batch = rng.random((5, n, m))
        got = linear_scores(weights, batch)
        for s in range(5):
            for q in range(m):
                total = 0.0
                for w, r in zip(weights, batch[s, :, q]):
                    total += w * float(r)
                assert got[s, q] == total
            assert np.array_equal(got[s], linear_scores(weights, batch[s]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_zero_report_leaves_the_others_score(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        weights = random_weights(rng, n)
        reports = rng.random((n, m))
        i = int(rng.integers(0, n))
        reports[i] = 0.0
        others = linear_scores(weights[:i] + weights[i + 1 :], np.delete(reports, i, axis=0))
        assert np.array_equal(linear_scores(weights, reports), others)


    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_batched_weights_equal_one_call_per_batch(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        weights = np.array([random_weights(rng, n) for _ in range(4)])
        reports = rng.random((4, n, m))
        got = linear_scores(weights.T[:, :, np.newaxis], reports)
        for b in range(4):
            assert np.array_equal(got[b], linear_scores(tuple(weights[b]), reports[b]))


class TestMeanSe:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 70))
    def test_rows_reduce_as_one_dimensional_arrays(self, seed, samples):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((6, samples)) * 10.0 ** rng.integers(-8, 8, (6, 1))
        values[1, 0], values[2, -1], values[3, 0], values[3, -1] = np.inf, -np.inf, np.inf, -np.inf
        mean, se = mean_se(values)
        for row in range(6):
            mean_row, se_row = mean_se(values[row])
            assert (mean[row], se[row]) == (mean_row, se_row)
        assert mean[0] == values[0].mean()
        assert se[0] == (values[0].std(ddof=1) / np.sqrt(samples) if samples > 1 else 0.0)
        assert (mean[1], se[1]) == (np.inf, 0.0)
        assert (mean[2], se[2]) == (mean[3], se[3]) == (-np.inf, 0.0)


class TestLeftSum:
    # Python 3.12's sum() gives 1.0 here: it compensates.
    def test_adds_left_to_right_as_python_3_11_sum_does(self):
        assert left_sum([0.1] * 10) == 0.9999999999999999
        assert left_sum([]) == 0.0
        assert left_sum([1e100, 1.0, -1e100]) == 0.0

    def test_deficit_of_ten_payments(self):
        settlement = Settlement(
            allocation=Allocation(real=(1,) * 10),
            immediate=(0.0,),
            contingent={(0, q): 0.1 for q in range(10)},
        )
        assert deficit(settlement) == 0.9999999999999999
        assert settlement.realized_utility(0) == 0.9999999999999999


def score_with(weights, i, co_reports, report):
    return linear_scores(weights, np.insert(co_reports, i, report, axis=0))


@st.composite
def bound_cases(draw):
    """Grid co-reports and keys, so the score often ties the key exactly."""
    if draw(st.booleans()):
        weights = draw(st.sampled_from(NON_DYADIC_WEIGHTS))
    else:
        n = draw(st.integers(1, 4))
        raw = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        weights = tuple(raw)
    n = len(weights)
    i = draw(st.integers(0, n - 1))
    columns = draw(st.integers(1, 20))
    co_reports = np.array(
        draw(st.lists(st.sampled_from(EIGHTHS), min_size=(n - 1) * columns,
                      max_size=(n - 1) * columns)),
        dtype=float,
    ).reshape(n - 1, columns)
    keys = st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.0])
    if draw(st.booleans()):
        key = draw(keys)
    else:
        key = np.array(draw(st.lists(keys, min_size=columns, max_size=columns)))
    return weights, i, co_reports, key


class TestReportBounds:
    @settings(max_examples=200, deadline=None)
    @given(bound_cases())
    def test_bound_is_the_last_report_at_or_below_the_key(self, case):
        weights, i, co_reports, key = case
        bound = report_bounds(weights, i, co_reports, key)
        key = np.broadcast_to(key, bound.shape)
        at_zero = score_with(weights, i, co_reports, 0.0)
        at_one = score_with(weights, i, co_reports, 1.0)
        assert np.array_equal(bound == -np.inf, at_zero > key)
        assert np.array_equal(bound == 1.0, at_one <= key)
        inside = (bound > -np.inf) & (bound < 1.0)
        at_bound = score_with(weights, i, co_reports, np.where(inside, bound, 0.0))
        above = score_with(weights, i, co_reports, np.where(inside, np.nextafter(bound, 2.0), 0.0))
        assert np.all(at_bound[inside] <= key[inside])
        assert np.all(above[inside] > key[inside])


def explicit_grid_stats(bound, u, alpha, truth, reports, gain):
    """`grid_stats` by brute force: each report's per-sample differences
    (ft - fr) * u + fr * gain * alpha, written out, through `mean_se`."""
    f_truth = (truth > bound).astype(float)
    diffs = []
    for report, g in zip(reports, gain):
        f_report = (report > bound).astype(float)
        diffs.append((f_truth - f_report) * u + (f_report * g) * alpha)
    return mean_se(np.array(diffs))


@st.composite
def grid_cases(draw):
    """Per-sample bounds at a level, one ulp either side of one, at +-inf
    and uniform; 1 to 200 samples, sometimes all in one block; reports
    that sometimes include the truth."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = draw(st.sampled_from([1, 2, 7, 200]))
    reports = rng.choice(EIGHTHS, draw(st.integers(1, 12)))
    reports = np.concatenate([reports, rng.random(draw(st.integers(0, 4)))])
    truth = float(draw(st.sampled_from(reports.tolist())) if draw(st.booleans()) else rng.random())
    levels = np.append(reports, truth)
    near = np.concatenate([levels, np.nextafter(levels, -1.0), np.nextafter(levels, 2.0)])
    pool = np.concatenate([near, [-np.inf, np.inf], rng.random(4)])
    if draw(st.booleans()):  # every sample in one block
        bound = np.full(samples, rng.choice(pool))
    else:
        bound = rng.choice(pool, samples)
    u = rng.standard_normal(samples) * 10.0 ** rng.integers(-3, 3)
    alpha = rng.standard_normal(samples) * draw(st.sampled_from([0.0, 1.0]))
    gain = rng.standard_normal(len(reports)) * 10.0 ** rng.integers(-3, 3)
    return bound, u, alpha, truth, reports, gain


class TestGridStats:
    @settings(max_examples=300, deadline=None)
    @given(grid_cases())
    def test_matches_the_explicit_differences(self, case):
        bound, u, alpha, truth, reports, gain = case
        got = grid_stats(*case)
        want = explicit_grid_stats(*case)
        scale = np.maximum(1.0, np.abs(u).max() + np.abs(gain) * np.abs(alpha).max())
        assert_stats_close(got, want, scale)
        if len(bound) == 1:  # one sample is one block: exact
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tolist() == [0.0] * len(reports)
        if not alpha.any():
            # VCG's model: a report differs from the truth only on samples
            # where one of them funds and the other does not.
            same = [np.array_equal(r > bound, truth > bound) for r in reports]
            assert got[0][same].tolist() == got[1][same].tolist() == [0.0] * sum(same)
