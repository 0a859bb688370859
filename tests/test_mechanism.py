"""The shared linear score and the funding bound both interim engines use."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lendmech.mechanism import Allocation, Settlement, deficit, left_sum, linear_scores
from lendmech.mechanism import mean_se, report_bounds

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
